(* The benchmark's inputs and its output checks.

   Inputs: the fixed synthetic corpus (Corpus.generate, both versions; the
   seed never changes it) materialised as real .php trees, and the 210
   (project, tool) keys over its 70 projects.  Checks: CLI reports graded
   against the corpus ground truth and the committed expectations in
   perfbench/expected.json. *)

module Json = Secflow.Json

let run_dir = "perfbench/_run"
let expected_file = "perfbench/expected.json"
let tools = [| "phpsafe"; "rips"; "pixy" |]

type project = {
  version : string;  (** "2012" or "2014" *)
  name : string;  (** catalog name, shared by both versions *)
  dir : string;  (** materialised tree, relative to the checkout root *)
  loc : int;
  nfiles : int;
  seeds : Corpus.Gt.seed list;
}

type key = { proj : project; tool : string }

let key_id k = Printf.sprintf "%s/%s/%s" k.proj.version k.proj.name k.tool

type t = { projects : project array; keys : key array }

(* Every project's three tools back to back, in the paper's order. *)
let keys_of projects =
  Array.concat (Array.to_list (Array.map (fun proj -> Array.map (fun tool -> { proj; tool }) tools) projects))

(* The plugins --tiny keeps: one OOP and one procedural. *)
let tiny_plugins = [ "mail-subscribe-list"; "qtranslate" ]

(* Generate both corpus versions and write them under [root].  Returns the
   inputs and the generation time alone (corpus.generate_s). *)
let materialise ~tiny root =
  let corpora, gen_s =
    Util.timed (fun () ->
        [ Corpus.generate Corpus.V2012; Corpus.generate Corpus.V2014 ])
  in
  Util.fresh_dir root;
  let projects =
    List.concat_map
      (fun (c : Corpus.t) ->
        let version = Corpus.Plan.version_to_string c.Corpus.version in
        List.filter_map
          (fun (p : Corpus.Catalog.plugin_output) ->
            let name = p.Corpus.Catalog.po_name in
            if tiny && not (List.mem name tiny_plugins) then None
            else begin
              let dir = Filename.concat (Filename.concat root version) name in
              let proj = p.Corpus.Catalog.po_project in
              List.iter
                (fun (f : Phplang.Project.file) ->
                  Util.write_file
                    (Filename.concat dir f.Phplang.Project.path)
                    f.Phplang.Project.source)
                proj.Phplang.Project.files;
              Some
                { version; name; dir;
                  loc = Phplang.Loc.project_loc proj;
                  nfiles = Phplang.Project.file_count proj;
                  seeds =
                    List.filter
                      (fun (s : Corpus.Gt.seed) -> s.Corpus.Gt.plugin = name)
                      c.Corpus.seeds }
            end)
          c.Corpus.plugins)
      corpora
  in
  let projects = Array.of_list projects in
  ({ projects; keys = keys_of projects }, gen_s)

let total_loc t = Array.fold_left (fun acc p -> acc + p.loc) 0 t.projects
let total_files t = Array.fold_left (fun acc p -> acc + p.nfiles) 0 t.projects

(* {1 Grading a report against the ground truth} *)

type grade = {
  g_tool : string;  (** the report's tool display name *)
  g_files : int;
  g_failed : int;
  g_tp : string list;  (** real seeds detected, sorted ids *)
  g_trap : string list;  (** FP-trap seeds detected, sorted ids *)
  g_stray : int;  (** detections matching no seed *)
}

let ( let* ) = Option.bind

let grade_report (p : project) report =
  let* doc = Result.to_option (Json.parse report) in
  let* tool = Option.bind (Json.member "tool" doc) Json.to_string_opt in
  let* summary = Json.member "summary" doc in
  let int_field name o = Option.bind (Json.member name o) Json.to_int_opt in
  let* files = int_field "files" summary in
  let* failed = int_field "failedFiles" summary in
  let* findings = Option.bind (Json.member "findings" doc) Json.to_list_opt in
  let* keys =
    List.fold_left
      (fun acc f ->
        let* acc = acc in
        let* kind = Option.bind (Json.member "kind" f) Json.to_string_opt in
        let* loc = Json.member "location" f in
        let* file = Option.bind (Json.member "file" loc) Json.to_string_opt in
        let* line = int_field "line" loc in
        Some ((kind, file, line) :: acc))
      (Some []) findings
  in
  let index = Hashtbl.create 64 in
  List.iter
    (fun (s : Corpus.Gt.seed) ->
      let k = Corpus.Gt.key_of s in
      Hashtbl.replace index
        ( Secflow.Vuln.kind_to_string k.Secflow.Report.k_kind,
          k.Secflow.Report.k_file,
          k.Secflow.Report.k_line )
        s)
    p.seeds;
  let tp = ref [] and trap = ref [] and stray = ref 0 in
  List.iter
    (fun k ->
      match Hashtbl.find_opt index k with
      | Some s when Corpus.Gt.is_real s -> tp := s.Corpus.Gt.seed_id :: !tp
      | Some s -> trap := s.Corpus.Gt.seed_id :: !trap
      | None -> incr stray)
    (List.sort_uniq compare keys);
  Some
    { g_tool = tool; g_files = files; g_failed = failed;
      g_tp = List.sort_uniq String.compare !tp;
      g_trap = List.sort_uniq String.compare !trap;
      g_stray = !stray }

(* {1 Expectations} *)

type expect = { e_exit : int; e_grade : grade }

type table1_row = { t_tp : int; t_fp : int; t_fn : int }

type expected = {
  per_key : (string, expect) Hashtbl.t;
  table1 : (string * string * table1_row) list;  (** version, tool, row *)
}

let strings l = Json.List (List.map (fun s -> Json.String s) l)

let json_of_expect e =
  let g = e.e_grade in
  Json.Obj
    [ ("exit", Json.Int e.e_exit); ("tool", Json.String g.g_tool);
      ("files", Json.Int g.g_files); ("failed", Json.Int g.g_failed);
      ("tp", strings g.g_tp); ("trap", strings g.g_trap) ]

let load_expected () =
  let doc =
    match Json.parse (Util.read_file expected_file) with
    | Ok d -> d
    | Error e -> failwith (expected_file ^ ": " ^ e)
  in
  let get name o =
    match Json.member name o with
    | Some v -> v
    | None -> failwith (expected_file ^ ": missing " ^ name)
  in
  let int name o = Option.get (Json.to_int_opt (get name o)) in
  let str_list name o =
    List.map (fun v -> Option.get (Json.to_string_opt v))
      (Option.get (Json.to_list_opt (get name o)))
  in
  let obj = function Json.Obj l -> l | _ -> failwith "expected an object" in
  let per_key = Hashtbl.create 256 in
  List.iter
    (fun (id, e) ->
      Hashtbl.replace per_key id
        { e_exit = int "exit" e;
          e_grade =
            { g_tool = Option.get (Json.to_string_opt (get "tool" e));
              g_files = int "files" e; g_failed = int "failed" e;
              g_tp = str_list "tp" e; g_trap = str_list "trap" e;
              g_stray = 0 } })
    (obj (get "per_key" doc));
  let table1 =
    List.concat_map
      (fun (version, tools) ->
        List.map
          (fun (tool, r) ->
            (version, tool, { t_tp = int "tp" r; t_fp = int "fp" r; t_fn = int "fn" r }))
          (obj tools))
      (obj (get "table1" doc))
  in
  { per_key; table1 }

(* One CLI operation's check: the graded report and the exit status must
   equal the expectation for its key. *)
let check_cli expected k ~code report =
  match (grade_report k.proj report, Hashtbl.find_opt expected.per_key (key_id k)) with
  | Some g, Some e -> (g = e.e_grade && code = e.e_exit, Some g)
  | g, _ -> (false, g)

(* Table I (TP/FP/FN per version and tool, FN against the union of what the
   three tools found) from one whole pass's grades. *)
let table1_of (grades : (key * grade) list) =
  let versions = List.sort_uniq compare (List.map (fun (k, _) -> k.proj.version) grades) in
  List.concat_map
    (fun version ->
      let of_version = List.filter (fun (k, _) -> k.proj.version = version) grades in
      let by_tool tool =
        List.filter_map
          (fun (k, g) -> if k.tool = tool then Some g else None)
          of_version
      in
      let union =
        List.sort_uniq String.compare (List.concat_map (fun (_, g) -> g.g_tp) of_version)
      in
      Array.to_list
        (Array.map
           (fun tool ->
             let gs = by_tool tool in
             let tp = List.sort_uniq String.compare (List.concat_map (fun g -> g.g_tp) gs) in
             let fp =
               List.length (List.sort_uniq String.compare (List.concat_map (fun g -> g.g_trap) gs))
               + List.fold_left (fun acc g -> acc + g.g_stray) 0 gs
             in
             let name = match gs with g :: _ -> g.g_tool | [] -> tool in
             ( version, name,
               { t_tp = List.length tp; t_fp = fp;
                 t_fn = List.length union - List.length tp } ))
           tools))
    versions

let table1_ok expected grades =
  List.sort compare (table1_of grades) = List.sort compare expected.table1
