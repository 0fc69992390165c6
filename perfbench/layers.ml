(* The traced run's per-layer numbers.  Every span is taken here, around a
   call into one layer's public functions, on the inputs of the workload
   being run; nothing inside lib/ is instrumented for the benchmark.  The
   program's own counters (Store, Parse_cache, Obs.Mirror, the daemon's
   metrics op) are read, never added to. *)

module Project = Phplang.Project
module Store = Phplang.Store

(* Sums by name; the serve-warm client threads share one. *)
type t = {
  sums : (string, float) Hashtbl.t;
  m : Mutex.t;
  shadows : (string, Project.Increment.session) Hashtbl.t;
      (** per project dir: an incremental parse session of our own *)
}

let create () = { sums = Hashtbl.create 64; m = Mutex.create (); shadows = Hashtbl.create 16 }
let get t name = Option.value ~default:0. (Hashtbl.find_opt t.sums name)
let add t name v = Hashtbl.replace t.sums name (get t name +. v)

let time t name f =
  let r, dt = Util.timed f in
  add t name (dt *. 1000.);
  r

let tool_of name =
  match Serve.Scan.tool_of { Serve.Scan.default with Serve.Scan.tool = name } with
  | Ok tool -> tool
  | Error e -> failwith e

let with_store root f =
  let saved = Store.root () in
  Store.set_root root;
  Fun.protect ~finally:(fun () -> Store.set_root saved) f

let mirror_names =
  [ "lexer.ckpt.resume"; "parser.region.reparse"; "parser.region.fallback";
    "summary.dag.retained"; "summary.dag.invalidated" ]

let mirror () = List.map (fun n -> (n, Obs.Mirror.get n)) mirror_names

let mirror_delta ~before ~after name =
  List.assoc name after - List.assoc name before

(* Parse every file through the shared parse memo, counting its hits and
   misses: the "memo pre-seeded" state the analyzer spans start from. *)
let seed_memo t (project : Project.t) =
  let c = Project.Parse_cache.shared in
  let h0 = Project.Parse_cache.hits c and m0 = Project.Parse_cache.misses c in
  List.iter (fun f -> ignore (Project.parse_file f)) project.Project.files;
  add t "memo.hits" (float_of_int (Project.Parse_cache.hits c - h0));
  add t "memo.misses" (float_of_int (Project.Parse_cache.misses c - m0))

(* The per-operation probe: after each operation of the traced phase, the
   layers that operation exercises are called again here, one span each:
   project load and include closure, lexer and parser over every file, the
   three analyzers (parse memo pre-seeded, store off), report encoding,
   protocol encode/decode, and an edit's re-lex and incremental re-parse
   (the edit kinds cycle from one operation to the next). *)
let probe_op t rng (proj : Inputs.project) tool_name =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) @@ fun () ->
  add t "ops" 1.;
  let nth_kind = Edits.kinds.(truncate (get t "ops") mod Array.length Edits.kinds) in
  let project = time t "project.load_ms" (fun () -> Project.load proj.Inputs.dir) in
  List.iter
    (fun (f : Project.file) ->
      match
        time t "lexer.busy_ms" (fun () -> Phplang.Lexer.tokenize_significant f.Project.source)
      with
      | toks ->
          add t "lexer.tokens" (float_of_int (List.length toks));
          time t "parser.busy_ms" (fun () ->
              try ignore (Phplang.Parser.parse_tokens ~file:f.Project.path toks)
              with _ -> ())
      | exception _ -> ())
    project.Project.files;
  seed_memo t project;
  time t "project.includes_ms" (fun () ->
      List.iter
        (fun (f : Project.file) ->
          ignore
            (Project.include_closure
               ~parse:(fun f -> Result.to_option (Project.parse_file f))
               project f.Project.path))
        project.Project.files);
  with_store None (fun () ->
      Array.iter
        (fun name ->
          let tool = tool_of name in
          let result =
            time t ("analyzer." ^ name ^ ".busy_ms") (fun () ->
                tool.Secflow.Tool.analyze_project project)
          in
          if name = tool_name then
            ignore
              (time t "report.encode_ms" (fun () ->
                   Secflow.Report.to_json ~tool:tool.Secflow.Tool.name result)))
        Inputs.tools);
  let payload =
    time t "protocol.encode_ms" (fun () -> Daemon_client.scan_payload project tool_name)
  in
  add t "protocol.request_bytes" (float_of_int (String.length payload));
  (match time t "protocol.decode_ms" (fun () -> Serve.Protocol.decode_request payload) with
  | Ok _ -> ()
  | Error e -> failwith ("protocol round trip: " ^ e.Serve.Protocol.e_msg));
  let path, edited, _ = Edits.edit rng nth_kind project in
  let pristine = (Option.get (Project.find project path)).Project.source in
  (match Phplang.Lexer.lex_all pristine with
  | lexed -> (
      match time t "lexer.relex_ms" (fun () -> Phplang.Lexer.relex lexed edited) with
      | _, info ->
          add t "lexer.relex_tokens"
            (float_of_int (info.Phplang.Lexer.rl_new_suffix - info.Phplang.Lexer.rl_prefix))
      | exception _ -> ())
  | exception _ -> ());
  let shadow =
    match Hashtbl.find_opt t.shadows proj.Inputs.dir with
    | Some s -> s
    | None ->
        let s = Project.Increment.create () in
        Hashtbl.replace t.shadows proj.Inputs.dir s;
        s
  in
  with_store None (fun () ->
      ignore (Project.Increment.update shadow ~path ~source:pristine);
      ignore
        (time t "project.increment_ms" (fun () ->
             Project.Increment.update shadow ~path ~source:edited)))

(* {1 Probes run once, after the measured loop, on a seeded sample} *)

(* Store throughput on the workload's own ASTs, in a throwaway root. *)
let probe_store_io t (sample : Inputs.key list) =
  let root = Filename.concat Inputs.run_dir "probe-store" in
  Util.fresh_dir root;
  let entries =
    List.concat_map
      (fun (k : Inputs.key) ->
        let project = Project.load k.Inputs.proj.Inputs.dir in
        List.filter_map
          (fun (f : Project.file) ->
            match Project.parse_file f with
            | Ok ast ->
                Some
                  ( Digest.to_hex (Digest.string (k.Inputs.proj.Inputs.dir ^ f.Project.path)),
                    ast,
                    String.length (Marshal.to_string ast []) )
            | Error _ -> None)
          project.Project.files)
      sample
  in
  let bytes = float_of_int (List.fold_left (fun acc (_, _, n) -> acc + n) 0 entries) in
  with_store (Some root) (fun () ->
      let (), put_s =
        Util.timed (fun () -> List.iter (fun (key, ast, _) -> Store.put ~ns:"bench" ~key ast) entries)
      in
      let (), get_s =
        Util.timed (fun () ->
            List.iter
              (fun (key, _, _) ->
                match (Store.get ~ns:"bench" ~key : Phplang.Ast.program option) with
                | Some _ -> ()
                | None -> failwith "store probe: entry not read back")
              entries)
      in
      add t "store.put_mb_per_s" (Util.mb (truncate bytes) /. put_s);
      add t "store.get_mb_per_s" (Util.mb (truncate bytes) /. get_s));
  Util.rm_rf root

(* What the store costs one analysis: the same analysis (parse memo
   pre-seeded) with a fresh root, minus without one. *)
let probe_store_overhead t (sample : Inputs.key list) =
  let root = Filename.concat Inputs.run_dir "probe-overhead" in
  let diffs =
    List.map
      (fun (k : Inputs.key) ->
        let project = Project.load k.Inputs.proj.Inputs.dir in
        let tool = tool_of k.Inputs.tool in
        seed_memo t project;
        let _, off = Util.timed (fun () -> with_store None (fun () -> tool.Secflow.Tool.analyze_project project)) in
        Util.fresh_dir root;
        let _, on =
          Util.timed (fun () -> with_store (Some root) (fun () -> tool.Secflow.Tool.analyze_project project))
        in
        (on -. off) *. 1000.)
      sample
  in
  Util.rm_rf root;
  add t "store.overhead_ms" (Util.mean diffs)

(* One fresh Serve.Watch session per sample project: initial scan, then an
   edit with Watch.refresh_sources and Watch.scan spanned apart.  The edit
   kinds cycle, as in the workloads. *)
let probe_watch t rng (sample : Inputs.key list) =
  let before = mirror () in
  List.iteri
    (fun i (k : Inputs.key) ->
      let project = Project.load k.Inputs.proj.Inputs.dir in
      let s = Serve.Watch.create { Serve.Scan.default with Serve.Scan.tool = k.Inputs.tool } in
      ignore (Serve.Watch.scan s project);
      let path, edited, _ = Edits.edit rng Edits.kinds.(i mod Array.length Edits.kinds) project in
      let project' = Edits.with_file project path edited in
      ignore (time t "watch.refresh_ms" (fun () -> Serve.Watch.refresh_sources s project'));
      let d = Serve.Watch.scan s project' in
      add t "watch.scan_ms" d.Serve.Watch.d_ms;
      add t "watch.edits" 1.)
    sample;
  let after = mirror () in
  List.iter
    (fun n -> add t ("mirror." ^ n) (float_of_int (mirror_delta ~before ~after n)))
    mirror_names

(* {1 Daemon counters} *)

let namespaces = [ "defdigest"; "parse"; "result"; "summary" ]

(* The daemon layer's numbers between two snapshots, with the client-side
   latencies of the requests sent in between.  daemon.outside_ms is the
   client's mean minus the server's mean over those same requests: time
   spent outside the daemon's own accounting (framing, socket, client). *)
let daemon_deltas t ~before ~after ~client_lats =
  let open Daemon_client in
  let served = delta ~before ~after [ "counters"; "serve.served" ] in
  let mean = server_mean_ms ~before ~after in
  add t "daemon.served" served;
  add t "daemon.server_mean_ms" mean;
  add t "daemon.outside_ms" ((Util.mean client_lats *. 1000.) -. mean);
  add t "daemon.overloaded" (delta ~before ~after [ "counters"; "serve.overloaded" ]);
  add t "daemon.protocol_errors" (delta ~before ~after [ "counters"; "serve.protocol_errors" ]);
  let per_req name =
    if served > 0. then delta ~before ~after [ "incremental"; name ] /. served else 0.
  in
  add t "daemon.ckpt_resume_per_req" (per_req "lexer.ckpt.resume");
  add t "daemon.region_fallback_per_req" (per_req "parser.region.fallback")

(* The daemon probe for workloads that do not run one: a --no-cache
   phpsafe_serve answering the sample's requests, read from outside. *)
let probe_daemon t (sample : Inputs.key list) =
  let d =
    Daemon_client.start ~socket:(Filename.concat Inputs.run_dir "probe.sock") ~cache:None
  in
  Fun.protect ~finally:(fun () -> Daemon_client.stop d) @@ fun () ->
  let payloads =
    List.map
      (fun (k : Inputs.key) ->
        Daemon_client.scan_payload (Project.load k.Inputs.proj.Inputs.dir) k.Inputs.tool)
      sample
  in
  let before = Daemon_client.snapshot d in
  let lats =
    Daemon_client.with_connection d (fun fd ->
        List.map (fun p -> snd (Util.timed (fun () -> Daemon_client.roundtrip fd p))) payloads)
  in
  let after = Daemon_client.snapshot d in
  daemon_deltas t ~before ~after ~client_lats:lats

(* {1 Emitting} *)

(* The per-layer metrics, by name, from the sums gathered during a traced
   run; [extra] holds the ones the workload measured itself. *)
let metrics t ~extra =
  let ops = Float.max 1. (get t "ops") in
  let per_op name = get t name /. ops in
  let rate count ms = if get t ms > 0. then get t count /. (get t ms /. 1000.) else 0. in
  let edits = Float.max 1. (get t "watch.edits") in
  let ratio a b = if a +. b > 0. then a /. (a +. b) else 0. in
  let base =
    [ ("lexer.busy_ms", per_op "lexer.busy_ms", "ms");
      ("lexer.tokens_per_s", rate "lexer.tokens" "lexer.busy_ms", "1/s");
      ("lexer.relex_ms", per_op "lexer.relex_ms", "ms");
      ("lexer.relex_tokens", per_op "lexer.relex_tokens", "count");
      ("parser.busy_ms", per_op "parser.busy_ms", "ms");
      ("parser.tokens_per_s", rate "lexer.tokens" "parser.busy_ms", "1/s");
      ("project.load_ms", per_op "project.load_ms", "ms");
      ("project.includes_ms", per_op "project.includes_ms", "ms");
      ("project.increment_ms", per_op "project.increment_ms", "ms");
      ("project.parse_cache_hit_ratio", ratio (get t "memo.hits") (get t "memo.misses"), "ratio");
      ("store.put_mb_per_s", get t "store.put_mb_per_s", "MB/s");
      ("store.get_mb_per_s", get t "store.get_mb_per_s", "MB/s");
      ("store.overhead_ms", get t "store.overhead_ms", "ms");
      ("analyzer.phpsafe.busy_ms", per_op "analyzer.phpsafe.busy_ms", "ms");
      ("analyzer.rips.busy_ms", per_op "analyzer.rips.busy_ms", "ms");
      ("analyzer.pixy.busy_ms", per_op "analyzer.pixy.busy_ms", "ms");
      ("report.encode_ms", per_op "report.encode_ms", "ms");
      ("protocol.encode_ms", per_op "protocol.encode_ms", "ms");
      ("protocol.decode_ms", per_op "protocol.decode_ms", "ms");
      ("protocol.request_kb", per_op "protocol.request_bytes" /. 1024., "KiB");
      ("daemon.served", get t "daemon.served", "count");
      ("daemon.server_mean_ms", get t "daemon.server_mean_ms", "ms");
      ("daemon.outside_ms", get t "daemon.outside_ms", "ms");
      ("daemon.overloaded", get t "daemon.overloaded", "count");
      ("daemon.protocol_errors", get t "daemon.protocol_errors", "count");
      ("daemon.ckpt_resume_per_req", get t "daemon.ckpt_resume_per_req", "count");
      ("daemon.region_fallback_per_req", get t "daemon.region_fallback_per_req", "count");
      ("watch.refresh_ms", get t "watch.refresh_ms" /. edits, "ms");
      ("watch.scan_ms", get t "watch.scan_ms" /. edits, "ms");
      ( "watch.region_reparse_ratio",
        ratio (get t "mirror.parser.region.reparse") (get t "mirror.parser.region.fallback"),
        "ratio" );
      ( "watch.dag_retained_ratio",
        ratio (get t "mirror.summary.dag.retained") (get t "mirror.summary.dag.invalidated"),
        "ratio" ) ]
  in
  base @ extra
