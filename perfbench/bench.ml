(* The repository benchmark.

     bench.exe --workload W --seed N --seconds S --trace 0|1
               [--op-timeout S] [--tiny] [--corrupt]
     bench.exe --expect     (rewrite perfbench/expected.json)

   Run from the checkout root after building bin/ and perfbench/ (run.py
   does both).  Workloads, all closed loops measured in whole blocks (the
   seconds only decide how many blocks run):

   - cli-nocache: every (project, tool) pair as a fresh
     `phpsafe_cli --no-cache --format json` process, one at a time; a
     block is one pass over the 210 pairs, projects in seeded order;
   - serve-warm: one `phpsafe_serve serve` whose cache set-up sends every
     pair once, then two connections sending every pair once per block,
     in seeded order;
   - watch-edits: one Serve.Watch session per project (store on, fresh
     root); a block is one edit to every session, in seeded order, each
     followed by Watch.scan.

   Every operation's output is checked: CLI reports against the corpus
   ground truth (Inputs), daemon replies byte for byte against the
   cli-nocache report of the same pair, watch deltas byte for byte against
   a cold Scan.run_json of the same bytes.  An operation also fails when
   it takes longer than --op-timeout: a CLI process is killed then, a
   daemon connection gives up.  The last line of stdout is the result
   object; the line before it records the machine and the run. *)

module Project = Phplang.Project
module Json = Secflow.Json

let cli_exe = "_build/default/bin/phpsafe_cli.exe"

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  op_timeout : float;  (** seconds after which an operation has failed *)
  tiny : bool;  (** two plugins per version: the self-test's size *)
  corrupt : bool;  (** flip one byte of the first checked output *)
  commit : string;
}

let workloads = [ "cli-nocache"; "serve-warm"; "watch-edits" ]

(* {1 Tally} *)

type tally = {
  m : Mutex.t;
  mutable lats : float list;  (** seconds, one per operation *)
  mutable attempted : int;
  mutable failed : int;
  mutable kloc : float;  (** source kLOC the operations covered *)
  mutable corrupt_pending : bool;
}

let new_tally opts =
  { m = Mutex.create (); lats = []; attempted = 0; failed = 0; kloc = 0.;
    corrupt_pending = opts.corrupt }

let record tl ~lat ~kloc ~ok =
  Mutex.protect tl.m (fun () ->
      tl.lats <- lat :: tl.lats;
      tl.attempted <- tl.attempted + 1;
      if not ok then tl.failed <- tl.failed + 1;
      tl.kloc <- tl.kloc +. kloc)

(* The self-test's corruption: one byte flipped in the first output
   checked — a digit of the first finding's line when there is one (so the
   ground-truth grading sees it), else a byte in the middle. *)
let maybe_corrupt tl s =
  let flip =
    Mutex.protect tl.m (fun () ->
        let f = tl.corrupt_pending in
        tl.corrupt_pending <- false;
        f)
  in
  if not flip || s = "" then s
  else
    let b = Bytes.of_string s in
    let i =
      match Util.find_sub s "\"line\":" with
      | Some j -> j + 7
      | None -> String.length s / 2
    in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
    Bytes.to_string b

(* {1 Phases}

   An untraced run measures one phase of --seconds.  A traced run measures
   two halves: the first untraced, the second with the per-operation layer
   probe after every operation; their latency medians give
   trace_overhead_frac. *)

type phase = { tally : tally; mutable timed_s : float; probe : Layers.t option }

let new_phase opts probe = { tally = new_tally opts; timed_s = 0.; probe }

let phases opts =
  if opts.trace then
    let layers = Layers.create () in
    let half = opts.seconds /. 2. in
    ( [ (new_phase opts None, half);
        (new_phase { opts with corrupt = false } (Some layers), half) ],
      Some layers )
  else ([ (new_phase opts None, opts.seconds) ], None)

let overhead_frac = function
  | [ (a, _); (b, _) ] ->
      let pa = Util.median a.tally.lats and pb = Util.median b.tally.lats in
      if pa > 0. then (pb /. pa) -. 1. else 0.
  | _ -> 0.

(* {1 Set-up} *)

type 'env setup = {
  env : 'env;
  inputs : Inputs.t;
  setup_s : float;  (** median over the repetitions *)
  generate_s : float;  (** corpus generation alone, median *)
}

(* Set up [n] times (each from nothing: corpus generation, materialisation
   and the workload's own set-up), dispose of all but the last, and report
   medians, so that work moved into set-up shows.  Dirty pages are written
   back before each set-up and before the first timed operation. *)
let repeat_setup ~n ~tiny ~(build : Inputs.t -> 'env) ~(dispose : 'env -> unit) =
  let rec go i acc =
    Util.sync ();
    let (inputs, gen_s), t_mat =
      Util.timed (fun () -> Inputs.materialise ~tiny (Filename.concat Inputs.run_dir "corpus"))
    in
    let env, t_env = Util.timed (fun () -> build inputs) in
    let acc = (t_mat +. t_env, gen_s) :: acc in
    if i + 1 < n then begin
      dispose env;
      Gc.compact ();
      go (i + 1) acc
    end
    else begin
      Util.sync ();
      { env; inputs; setup_s = Util.median (List.map fst acc);
        generate_s = Util.median (List.map snd acc) }
    end
  in
  go 0 []

(* {1 Store counters} *)

type store_counts = (string, float * float * float) Hashtbl.t

let add_counts (c : store_counts) (ns, h, m, s) =
  let h0, m0, s0 = Option.value ~default:(0., 0., 0.) (Hashtbl.find_opt c ns) in
  Hashtbl.replace c ns (h0 +. float_of_int h, m0 +. float_of_int m, s0 +. float_of_int s)

(* store.<ns>.* and cache_mb, for the traced run's output. *)
let store_metrics (c : store_counts) ~disk_bytes ~root_bytes =
  List.concat_map
    (fun ns ->
      let h, m, s = Option.value ~default:(0., 0., 0.) (Hashtbl.find_opt c ns) in
      let p = "store." ^ ns in
      [ (p ^ ".hits", h, "count"); (p ^ ".misses", m, "count"); (p ^ ".stores", s, "count");
        (p ^ ".hit_ratio", (if h +. m > 0. then h /. (h +. m) else 0.), "ratio");
        (p ^ ".disk_mb", Util.mb (disk_bytes ns), "MB") ])
    Layers.namespaces
  @ [ ("cache_mb", Util.mb root_bytes, "MB") ]

(* Per-namespace disk bytes of a store root, read with Store.stats. *)
let store_disk root =
  Layers.with_store (Some root) (fun () ->
      let stats = Phplang.Store.stats () in
      fun ns ->
        List.fold_left
          (fun acc (s : Phplang.Store.disk_stats) ->
            if s.Phplang.Store.ds_ns = ns then acc + s.Phplang.Store.ds_bytes else acc)
          0 stats)

(* A seeded sample of the workload's keys for the once-per-run probes. *)
let sample rng (inputs : Inputs.t) n =
  Array.to_list (Array.sub (Util.shuffle rng inputs.Inputs.keys) 0 (min n (Array.length inputs.Inputs.keys)))

let heavy_probes layers rng inputs ~watch ~daemon =
  let s = sample rng inputs 4 in
  Layers.probe_store_io layers s;
  Layers.probe_store_overhead layers s;
  if watch then Layers.probe_watch layers rng s;
  if daemon then Layers.probe_daemon layers s

(* {1 Workload outcome} *)

type outcome = {
  o_setup : unit setup;
  o_phases : (phase * float) list;
  o_peak_rss_mb : float;
  o_extra : (string * float * string) list;  (** workload-measured layers *)
  o_info : (string * Json.t) list;  (** workload properties *)
  o_whole_failed : bool;  (** a whole-pass check failed *)
}

let forget s = { s with env = () }

(* {1 cli-nocache} *)

let strip_newline s =
  let n = String.length s in
  if n > 0 && s.[n - 1] = '\n' then String.sub s 0 (n - 1) else s

(* Run [block ()] for about [seconds] of wall clock, as many whole times as
   Util.another_block says, at least once. *)
let whole_blocks ~seconds block =
  let t0 = Util.now () in
  let blocks = ref 0 in
  while Util.another_block ~blocks:!blocks ~elapsed:(Util.now () -. t0) ~seconds do
    block ();
    incr blocks
  done

let run_cli opts =
  let expected = Inputs.load_expected () in
  let st =
    repeat_setup ~n:(if opts.trace then 1 else 3) ~tiny:opts.tiny
      ~build:(fun _ -> ()) ~dispose:(fun () -> ())
  in
  let inputs = st.inputs in
  let order_rng = Random.State.make [| opts.seed |] in
  let probe_rng = Random.State.make [| opts.seed; 1 |] in
  let whole_failed = ref false in
  let run_key (ph : phase) (k : Inputs.key) =
    let args =
      [ "--no-cache"; "--format"; "json"; "--tool"; k.Inputs.tool; k.Inputs.proj.Inputs.dir ]
    in
    let r, lat =
      Util.timed (fun () -> Util.run_capture ~timeout:opts.op_timeout cli_exe args)
    in
    let report = maybe_corrupt ph.tally (strip_newline r.Util.out) in
    let ok, g = Inputs.check_cli expected k ~code:r.Util.code report in
    record ph.tally ~lat ~kloc:(float_of_int k.Inputs.proj.Inputs.loc /. 1000.)
      ~ok:(ok && not r.Util.timed_out);
    ph.timed_s <- ph.timed_s +. lat;
    Option.iter (fun l -> Layers.probe_op l probe_rng k.Inputs.proj k.Inputs.tool) ph.probe;
    Option.map (fun g -> (k, g)) g
  in
  (* One pass over the keys in seeded order: the projects shuffled, each
     project's three tools back to back in a fixed order.  Table I from
     every whole pass must equal the committed one. *)
  let pass (ph : phase) () =
    let order = Inputs.keys_of (Util.shuffle order_rng inputs.Inputs.projects) in
    let grades = List.filter_map (run_key ph) (Array.to_list order) in
    if (not opts.tiny) && not (Inputs.table1_ok expected grades) then begin
      whole_failed := true;
      prerr_endline "perfbench: Table I from this pass differs from expected.json"
    end
  in
  let phs, layers = phases opts in
  List.iter (fun ((ph : phase), seconds) -> whole_blocks ~seconds (pass ph)) phs;
  let peak = float_of_int (Util.children_maxrss_kb ()) /. 1024. in
  (* no store: its counters are zero by construction *)
  let extra = store_metrics (Hashtbl.create 1) ~disk_bytes:(fun _ -> 0) ~root_bytes:0 in
  Option.iter (fun l -> heavy_probes l probe_rng inputs ~watch:true ~daemon:true) layers;
  let passes =
    List.fold_left (fun acc ((ph : phase), _) -> acc + ph.tally.attempted) 0 phs
    / Array.length inputs.Inputs.keys
  in
  { o_setup = forget st; o_phases = phs; o_peak_rss_mb = peak; o_extra = extra;
    o_whole_failed = !whole_failed;
    o_info =
      [ ("ops_per_pass", Json.Int (Array.length inputs.Inputs.keys));
        ("passes", Json.Int passes);
        (* every key runs once per pass *)
        ("repeated_key_share", Json.Float (Util.ratio (passes - 1) passes));
        ("cache", Json.String "off") ] }

(* {1 serve-warm} *)

let connections = 2

type serve_env = { daemon : Daemon_client.t; payloads : string array }

(* Run [f i] on [connections] threads, for i in 0 .. connections-1; an
   exception on any of them is re-raised here once all have ended. *)
let on_threads f =
  let err = Atomic.make None in
  let guarded i = try f i with e -> ignore (Atomic.compare_and_set err None (Some e)) in
  List.iter Thread.join (List.init connections (fun i -> Thread.create guarded i));
  Option.iter raise (Atomic.get err)

let run_serve opts =
  let cache = Filename.concat Inputs.run_dir "serve-cache" in
  let socket = Filename.concat Inputs.run_dir "serve.sock" in
  let build (inputs : Inputs.t) =
    Util.fresh_dir cache;
    let daemon = Daemon_client.start ~socket ~cache:(Some cache) in
    let fill () =
      let payloads =
        Array.map
          (fun (k : Inputs.key) ->
            Daemon_client.scan_payload (Project.load k.Inputs.proj.Inputs.dir) k.Inputs.tool)
          inputs.Inputs.keys
      in
      (* cache set-up: one request per (project, tool), split over the
         connections *)
      on_threads (fun c ->
          Daemon_client.with_connection daemon (fun fd ->
              Array.iteri
                (fun i p -> if i mod connections = c then ignore (Daemon_client.roundtrip_exn fd p))
                payloads));
      { daemon; payloads }
    in
    match fill () with
    | env -> env
    | exception e ->
        Daemon_client.stop daemon;
        raise e
  in
  let st =
    (* two set-ups, not three: each one is 12-20 s of cold daemon scans,
       and the benchmark's whole schedule has a fixed time budget *)
    repeat_setup ~n:(if opts.trace then 1 else 2) ~tiny:opts.tiny ~build
      ~dispose:(fun e -> Daemon_client.stop e.daemon)
  in
  let { daemon; payloads } = st.env in
  Fun.protect ~finally:(fun () -> Daemon_client.stop daemon) @@ fun () ->
  let inputs = st.inputs in
  let keys = inputs.Inputs.keys in
  (* references: the cli-nocache report of every pair, made outside the
     timed region, two processes at a time *)
  let expected_reply = Array.make (Array.length keys) "" in
  on_threads (fun c ->
      Array.iteri
        (fun i (k : Inputs.key) ->
          if i mod connections = c then begin
            let r =
              Util.run_capture ~timeout:Daemon_client.setup_timeout cli_exe
                [ "--no-cache"; "--format"; "json"; "--tool"; k.Inputs.tool; k.Inputs.proj.Inputs.dir ]
            in
            if r.Util.timed_out then failwith "perfbench: reference scan timed out";
            expected_reply.(i) <-
              Serve.Protocol.scan_reply ~report:(strip_newline r.Util.out) ()
          end)
        keys);
  let rng = Random.State.make [| opts.seed |] in
  let probe_rng = Random.State.make [| opts.seed; 1 |] in
  (* every key once per block, in seeded order *)
  let block = Array.length keys in
  let draw = Util.block_stream rng (Array.init block Fun.id) in
  let draw_m = Mutex.create () in
  let draws = ref 0 in
  (* the next key, or None once the phase is over; phases end only between
     blocks *)
  let next ~t0 ~seconds ~sent =
    Mutex.protect draw_m (fun () ->
        if
          !sent mod block = 0
          && not
               (Util.another_block ~blocks:(!sent / block) ~elapsed:(Util.now () -. t0)
                  ~seconds)
        then None
        else begin
          incr sent;
          incr draws;
          Some (draw ())
        end)
  in
  let phs, layers = phases opts in
  let before = Daemon_client.snapshot daemon in
  let snaps = ref [] in
  List.iter
    (fun ((ph : phase), seconds) ->
      let s0 = Daemon_client.snapshot daemon in
      let t0 = Util.now () in
      let sent = ref 0 in
      on_threads (fun _ ->
          let connect () = Daemon_client.connect ~timeout:opts.op_timeout daemon.Daemon_client.socket in
          let fd = ref (connect ()) in
          Fun.protect ~finally:(fun () -> Option.iter Unix.close !fd) @@ fun () ->
          let rec loop () =
            match next ~t0 ~seconds ~sent with
            | None -> ()
            | Some i ->
                let reply, lat =
                  Util.timed (fun () ->
                      match !fd with
                      | Some fd -> Daemon_client.roundtrip fd payloads.(i)
                      | None -> Error "cannot connect")
                in
                let ok =
                  match reply with
                  | Ok r ->
                      lat <= opts.op_timeout
                      && String.equal (maybe_corrupt ph.tally r) expected_reply.(i)
                  | Error _ ->
                      (* the connection is unusable: a fresh one for the next *)
                      Option.iter Unix.close !fd;
                      fd := connect ();
                      false
                in
                let k = keys.(i) in
                record ph.tally ~lat ~kloc:(float_of_int k.Inputs.proj.Inputs.loc /. 1000.) ~ok;
                Option.iter (fun l -> Layers.probe_op l probe_rng k.Inputs.proj k.Inputs.tool) ph.probe;
                loop ()
          in
          loop ());
      ph.timed_s <- Util.now () -. t0;
      snaps := (ph, s0, Daemon_client.snapshot daemon) :: !snaps)
    phs;
  let after = Daemon_client.snapshot daemon in
  let peak = Daemon_client.peak_rss_mb daemon in
  let counts : store_counts = Hashtbl.create 8 in
  List.iter
    (fun ns ->
      let d k = int_of_float (Daemon_client.delta ~before ~after [ "cache"; ns; k ]) in
      add_counts counts (ns, d "hits", d "misses", d "stores"))
    Layers.namespaces;
  let extra =
    store_metrics counts ~disk_bytes:(Daemon_client.disk_bytes after)
      ~root_bytes:(Util.disk_bytes cache)
  in
  (match (layers, !snaps) with
  | Some l, (ph, s0, s1) :: _ ->
      Layers.daemon_deltas l ~before:s0 ~after:s1 ~client_lats:ph.tally.lats;
      heavy_probes l probe_rng inputs ~watch:true ~daemon:false
  | _ -> ());
  let d keys = Json.Float (Daemon_client.delta ~before ~after keys) in
  let sessions =
    List.length
      (List.sort_uniq compare
         (Array.to_list (Array.map (fun (k : Inputs.key) -> (k.Inputs.proj.Inputs.name, k.Inputs.tool)) keys)))
  in
  { o_setup = forget st; o_phases = phs; o_peak_rss_mb = peak; o_extra = extra;
    o_whole_failed = false;
    o_info =
      [ ("keys", Json.Int (Array.length keys));
        ("stream", Json.String "every key once per block, seeded order");
        ("blocks", Json.Int (!draws / block));
        ("connections", Json.Int connections);
        (* every key was also sent once during set-up *)
        ("repeated_key_share", Json.Float 1.);
        ("session_keys", Json.Int sessions);
        (* the daemon's watch-session table size (max_watch_sessions) *)
        ("daemon_session_table", Json.Int 64);
        ("cache", Json.String "warm: every pair sent once during set-up");
        ( "daemon_deltas",
          Json.Obj
            ([ ("served", d [ "counters"; "serve.served" ]);
               ("overloaded", d [ "counters"; "serve.overloaded" ]);
               ("protocol_errors", d [ "counters"; "serve.protocol_errors" ]) ]
            @ List.map
                (fun n -> (n, d [ "incremental"; n ]))
                Layers.mirror_names
            @ List.concat_map
                (fun ns ->
                  List.map
                    (fun k -> ("cache." ^ ns ^ "." ^ k, d [ "cache"; ns; k ]))
                    [ "hits"; "misses"; "stores" ])
                Layers.namespaces) ) ] }

(* {1 watch-edits} *)

type session = { proj : Inputs.project; s : Serve.Watch.session; mutable current : Project.t }

let run_watch opts =
  let store = Filename.concat Inputs.run_dir "watch-store" in
  let build (inputs : Inputs.t) =
    Util.fresh_dir store;
    Phplang.Store.set_root (Some store);
    Project.Parse_cache.clear Project.Parse_cache.shared;
    Array.map
      (fun (p : Inputs.project) ->
        let current = Project.load p.Inputs.dir in
        let s = Serve.Watch.create Serve.Scan.default in
        ignore (Serve.Watch.scan s current);
        { proj = p; s; current })
      inputs.Inputs.projects
  in
  (* two set-ups, not three: each one scans the whole corpus *)
  let st =
    repeat_setup ~n:(if opts.trace then 1 else 2) ~tiny:opts.tiny ~build
      ~dispose:(fun _ -> ())
  in
  let sessions = st.env in
  let rng = Random.State.make [| opts.seed |] in
  let probe_rng = Random.State.make [| opts.seed; 1 |] in
  let c0 = Phplang.Store.counters () in
  let edits_by_kind = Hashtbl.create 8 in
  let cold project =
    Project.Parse_cache.set_enabled false;
    Fun.protect
      ~finally:(fun () -> Project.Parse_cache.set_enabled true)
      (fun () -> Layers.with_store None (fun () -> Serve.Scan.run_json Serve.Scan.default project))
  in
  (* One edit to session [i], of [kind], on top of its earlier edits. *)
  let edit_one (ph : phase) i kind =
    let w = sessions.(i) in
    let path, edited, kind = Edits.edit rng kind w.current in
    let k = Edits.kind_name kind in
    Hashtbl.replace edits_by_kind k (1 + Option.value ~default:0 (Hashtbl.find_opt edits_by_kind k));
    let project = Edits.with_file w.current path edited in
    w.current <- project;
    let d, lat =
      match ph.probe with
      | None -> Util.timed (fun () -> Serve.Watch.scan w.s project)
      | Some l ->
          (* traced: the refresh and the analysis spanned apart *)
          let (_, refresh_s) = Util.timed (fun () -> Serve.Watch.refresh_sources w.s project) in
          let d, scan_s = Util.timed (fun () -> Serve.Watch.scan w.s project) in
          Layers.add l "watch.refresh_ms" (refresh_s *. 1000.);
          Layers.add l "watch.scan_ms" d.Serve.Watch.d_ms;
          Layers.add l "watch.edits" 1.;
          (d, refresh_s +. scan_s)
    in
    ph.timed_s <- ph.timed_s +. lat;
    let ok =
      lat <= opts.op_timeout
      && String.equal (maybe_corrupt ph.tally d.Serve.Watch.d_report) (cold project)
    in
    record ph.tally ~lat ~kloc:(float_of_int w.proj.Inputs.loc /. 1000.) ~ok;
    Option.iter (fun l -> Layers.probe_op l probe_rng w.proj "phpsafe") ph.probe
  in
  (* A block is one edit to every session, in seeded order.  Edits build
     up, and session i's edit in block b is of kind (i + b) mod 6, so each
     session cycles through the kinds in a fixed order, as the E17 edit
     storm (Evalkit.Editstorm) does; the seed picks the session order, the
     file and the place. *)
  let blocks = ref 0 in
  let block (ph : phase) () =
    Array.iter
      (fun i -> edit_one ph i Edits.kinds.((i + !blocks) mod Array.length Edits.kinds))
      (Util.shuffle rng (Array.init (Array.length sessions) Fun.id));
    incr blocks
  in
  let phs, layers = phases opts in
  List.iter
    (fun ((ph : phase), seconds) ->
      let m0 = Layers.mirror () in
      whole_blocks ~seconds (block ph);
      Option.iter
        (fun l ->
          let m1 = Layers.mirror () in
          List.iter
            (fun n -> Layers.add l ("mirror." ^ n) (float_of_int (Layers.mirror_delta ~before:m0 ~after:m1 n)))
            Layers.mirror_names)
        ph.probe)
    phs;
  let peak = Util.vmhwm_mb "self" in
  let counts : store_counts = Hashtbl.create 8 in
  List.iter
    (fun (s : Phplang.Store.stats) ->
      let h, m, st =
        match List.find_opt (fun (b : Phplang.Store.stats) -> b.Phplang.Store.ns = s.Phplang.Store.ns) c0 with
        | Some b -> (b.Phplang.Store.hits, b.Phplang.Store.misses, b.Phplang.Store.stores)
        | None -> (0, 0, 0)
      in
      add_counts counts
        (s.Phplang.Store.ns, s.Phplang.Store.hits - h, s.Phplang.Store.misses - m, s.Phplang.Store.stores - st))
    (Phplang.Store.counters ());
  let extra =
    store_metrics counts ~disk_bytes:(store_disk store) ~root_bytes:(Util.disk_bytes store)
  in
  Option.iter (fun l -> heavy_probes l probe_rng st.inputs ~watch:false ~daemon:true) layers;
  { o_setup = forget st; o_phases = phs; o_peak_rss_mb = peak; o_extra = extra;
    o_whole_failed = false;
    o_info =
      [ ("sessions", Json.Int (Array.length sessions));
        ("blocks", Json.Int !blocks);
        ("cache", Json.String "store on, fresh root per set-up");
        ( "edits",
          Json.Obj
            (List.sort compare
               (Hashtbl.fold (fun k v acc -> (k, Json.Int v) :: acc) edits_by_kind []))
        ) ] }

(* {1 Output} *)

let metric (name, value, unit) =
  (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit) ])

let end_to_end (o : outcome) =
  let ph, _ = List.hd o.o_phases in
  let lats = ph.tally.lats in
  let ms q = Util.quantile q lats *. 1000. in
  [ ("setup_s", o.o_setup.setup_s, "s");
    ("latency_p50_ms", ms 0.5, "ms");
    ("latency_p90_ms", ms 0.9, "ms");
    ("ops_per_s", float_of_int ph.tally.attempted /. ph.timed_s, "1/s");
    ("kloc_per_s", ph.tally.kloc /. ph.timed_s, "kLOC/s");
    ("peak_rss_mb", o.o_peak_rss_mb, "MB") ]

let context opts (o : outcome) =
  let inputs = o.o_setup.inputs in
  Json.Obj
    [ ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ( "cpu_quota",
        match Sched.cpu_quota () with Some q -> Json.Int q | None -> Json.Null );
      ("sched_default_size", Json.Int (Sched.default_size ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("commit", Json.String opts.commit);
      ("seed", Json.Int opts.seed);
      ("workload", Json.String opts.workload);
      ("trace", Json.Bool opts.trace);
      ("seconds", Json.Float opts.seconds);
      ("op_timeout_s", Json.Float opts.op_timeout);
      ("projects", Json.Int (Array.length inputs.Inputs.projects));
      ("files", Json.Int (Inputs.total_files inputs));
      ("kloc", Json.Float (float_of_int (Inputs.total_loc inputs) /. 1000.));
      ( "ops",
        Json.List (List.map (fun ((ph : phase), _) -> Json.Int ph.tally.attempted) o.o_phases) ) ]

let run opts =
  let o =
    match opts.workload with
    | "cli-nocache" -> run_cli opts
    | "serve-warm" -> run_serve opts
    | "watch-edits" -> run_watch opts
    | w -> failwith ("unknown workload " ^ w)
  in
  (* the next run starts from an empty perfbench/_run *)
  Util.rm_rf Inputs.run_dir;
  let attempted = List.fold_left (fun acc ((ph : phase), _) -> acc + ph.tally.attempted) 0 o.o_phases in
  let failed =
    if o.o_whole_failed then attempted
    else List.fold_left (fun acc ((ph : phase), _) -> acc + ph.tally.failed) 0 o.o_phases
  in
  let metrics =
    match (opts.trace, o.o_phases) with
    | false, _ -> end_to_end o
    | true, (_, _) :: (traced, _) :: _ ->
        Layers.metrics (Option.get traced.probe)
          ~extra:
            ([ ("corpus.generate_s", o.o_setup.generate_s, "s");
               ("fail_frac", Util.ratio failed attempted, "ratio");
               ("trace_overhead_frac", overhead_frac o.o_phases, "ratio") ]
            @ o.o_extra)
    | true, _ -> assert false
  in
  print_endline
    (Json.to_string (Json.Obj [ ("context", context opts o); ("workload", Json.Obj o.o_info) ]));
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool (failed = 0 && attempted > 0));
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", Json.Obj (List.map metric metrics)) ]))

(* {1 --expect} *)

(* Rewrite perfbench/expected.json: every pair's graded in-process report
   and exit status, and Table I as the evaluation harness computes it
   (Evalkit.Runner + Matching), which the per-pair grades must reproduce. *)
let expect () =
  let inputs, _ = Inputs.materialise ~tiny:false (Filename.concat Inputs.run_dir "corpus") in
  let per_key =
    Array.to_list
      (Array.map
         (fun (k : Inputs.key) ->
           let tool_name, result =
             Serve.Scan.run { Serve.Scan.default with Serve.Scan.tool = k.Inputs.tool }
               (Project.load k.Inputs.proj.Inputs.dir)
           in
           let report = Secflow.Report.to_json ~tool:tool_name result in
           let g = Option.get (Inputs.grade_report k.Inputs.proj report) in
           if g.Inputs.g_stray > 0 then failwith ("stray finding in " ^ Inputs.key_id k);
           let exit =
             if g.Inputs.g_failed > 0 then 2
             else if result.Secflow.Report.findings <> [] then 1
             else 0
           in
           (k, { Inputs.e_exit = exit; e_grade = g }))
         inputs.Inputs.keys)
  in
  let table1 =
    List.concat_map
      (fun version ->
        let ev = Evalkit.Runner.evaluate version in
        List.map
          (fun (c : Evalkit.Matching.classified) ->
            let m = Evalkit.Matching.metrics_for ~union:ev.Evalkit.Runner.ev_union c in
            ( Corpus.Plan.version_to_string version,
              c.Evalkit.Matching.cl_tool,
              { Inputs.t_tp = m.Evalkit.Metrics.tp; t_fp = m.Evalkit.Metrics.fp;
                t_fn = m.Evalkit.Metrics.fn } ))
          ev.Evalkit.Runner.ev_classified)
      [ Corpus.V2012; Corpus.V2014 ]
  in
  let mine = Inputs.table1_of (List.map (fun (k, e) -> (k, e.Inputs.e_grade)) per_key) in
  if List.sort compare mine <> List.sort compare table1 then
    failwith "per-pair grades do not reproduce Evalkit.Runner's Table I";
  let versions = List.sort_uniq compare (List.map (fun (v, _, _) -> v) table1) in
  let doc =
    Json.Obj
      [ ( "table1",
          Json.Obj
            (List.map
               (fun v ->
                 ( v,
                   Json.Obj
                     (List.filter_map
                        (fun (v', tool, r) ->
                          if v' <> v then None
                          else
                            Some
                              ( tool,
                                Json.Obj
                                  [ ("tp", Json.Int r.Inputs.t_tp); ("fp", Json.Int r.Inputs.t_fp);
                                    ("fn", Json.Int r.Inputs.t_fn) ] ))
                        table1) ))
               versions) );
        ( "per_key",
          Json.Obj (List.map (fun (k, e) -> (Inputs.key_id k, Inputs.json_of_expect e)) per_key) ) ]
  in
  Util.write_file Inputs.expected_file (Json.to_string doc ^ "\n");
  Printf.printf "wrote %s (%d pairs)\n" Inputs.expected_file (List.length per_key)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let op_timeout = ref 30. in
  let tiny = ref false and corrupt = ref false and commit = ref "unknown" and do_expect = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--op-timeout", Arg.Set_float op_timeout, "S seconds after which an operation fails (30)");
      ("--tiny", Arg.Set tiny, " two plugins per version (self-test size)");
      ("--corrupt", Arg.Set corrupt, " flip one byte of the first checked output");
      ("--commit", Arg.Set_string commit, "REV recorded in the context line");
      ("--expect", Arg.Set do_expect, " rewrite perfbench/expected.json") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !do_expect then expect ()
  else begin
    if not (List.mem !workload workloads) then begin
      prerr_endline ("perfbench: --workload must be one of " ^ String.concat ", " workloads);
      exit 2
    end;
    Util.mkdir_p Inputs.run_dir;
    run
      { workload = !workload; seed = !seed; seconds = Float.max 0.1 !seconds;
        trace = !trace = 1; op_timeout = !op_timeout; tiny = !tiny; corrupt = !corrupt; commit = !commit }
  end
