(* Seeded source edits, as an editor session makes them: a tainted or a
   sanitized echo inserted, whitespace, a local renamed, a parameter added,
   a line deleted.  Some of them break the parse, on purpose.  Callers pick
   the kind; the seed picks the file and the place. *)

type kind = Tainted_echo | Sanitized_echo | Whitespace | Rename | Add_param | Delete_line

let kinds = [| Tainted_echo; Sanitized_echo; Whitespace; Rename; Add_param; Delete_line |]

let kind_name = function
  | Tainted_echo -> "tainted_echo"
  | Sanitized_echo -> "sanitized_echo"
  | Whitespace -> "whitespace"
  | Rename -> "rename"
  | Add_param -> "add_param"
  | Delete_line -> "delete_line"

let lines src = Array.of_list (String.split_on_char '\n' src)
let unlines a = String.concat "\n" (Array.to_list a)

let insert_after_statement rng src stmt =
  let a = lines src in
  let ends =
    List.filter
      (fun i ->
        let l = String.trim a.(i) in
        l <> "" && l.[String.length l - 1] = ';')
      (List.init (Array.length a) Fun.id)
  in
  match ends with
  | [] -> None
  | _ ->
      let i = Util.pick rng (Array.of_list ends) in
      a.(i) <- a.(i) ^ "\n" ^ stmt;
      Some (unlines a)

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

(* Local variables: [$name] tokens other than superglobals and [$this]. *)
let variables src =
  let n = String.length src in
  let acc = Hashtbl.create 16 in
  let i = ref 0 in
  while !i < n do
    if src.[!i] = '$' && !i + 1 < n && is_ident_char src.[!i + 1] then begin
      let j = ref (!i + 1) in
      while !j < n && is_ident_char src.[!j] do incr j done;
      let name = String.sub src (!i + 1) (!j - !i - 1) in
      if name <> "this" && name.[0] <> '_' && not (name.[0] >= '0' && name.[0] <= '9')
      then Hashtbl.replace acc name ();
      i := !j
    end
    else incr i
  done;
  List.sort String.compare (Hashtbl.fold (fun k () l -> k :: l) acc [])

let rename_var src name fresh =
  let pat = "$" ^ name in
  let b = Buffer.create (String.length src + 64) in
  let n = String.length src and m = String.length pat in
  let i = ref 0 in
  while !i < n do
    if !i + m <= n && String.sub src !i m = pat
       && (!i + m = n || not (is_ident_char src.[!i + m]))
    then begin
      Buffer.add_string b ("$" ^ fresh);
      i := !i + m
    end
    else begin
      Buffer.add_char b src.[!i];
      incr i
    end
  done;
  Buffer.contents b

let function_parens src =
  let re = "function " in
  let n = String.length src and m = String.length re in
  let rec go i acc =
    if i + m > n then List.rev acc
    else if String.sub src i m = re then
      match String.index_from_opt src (i + m) '(' with
      | Some p -> go (p + 1) (p :: acc)
      | None -> List.rev acc
    else go (i + 1) acc
  in
  go 0 []

let apply rng kind src =
  let tag = Printf.sprintf "pb%d" (Random.State.int rng 1_000_000) in
  match kind with
  | Tainted_echo -> insert_after_statement rng src (Printf.sprintf "echo $_GET['%s'];" tag)
  | Sanitized_echo ->
      insert_after_statement rng src
        (Printf.sprintf "echo htmlspecialchars($_GET['%s']);" tag)
  | Whitespace ->
      let a = lines src in
      let i = Random.State.int rng (Array.length a) in
      a.(i) <- "  " ^ a.(i) ^ (if Random.State.bool rng then "\n" else "");
      Some (unlines a)
  | Rename -> (
      match variables src with
      | [] -> None
      | vs ->
          let v = Util.pick rng (Array.of_list vs) in
          Some (rename_var src v (v ^ "_" ^ tag)))
  | Add_param -> (
      match function_parens src with
      | [] -> None
      | ps ->
          let p = Util.pick rng (Array.of_list ps) in
          let closes =
            p + 1 < String.length src && String.trim (String.sub src (p + 1) 1) = ")"
          in
          let param = "$" ^ tag ^ " = null" ^ if closes then "" else ", " in
          Some
            (String.sub src 0 (p + 1) ^ param
            ^ String.sub src (p + 1) (String.length src - p - 1)))
  | Delete_line ->
      let a = lines src in
      if Array.length a < 2 then None
      else
        let i = Random.State.int rng (Array.length a) in
        Some (unlines (Array.append (Array.sub a 0 i) (Array.sub a (i + 1) (Array.length a - i - 1))))

(* One edit of [kind] to a seeded file of [project]: the edited path, its
   new source and the kind applied (whitespace when [kind] has nothing to
   act on in that file). *)
let edit rng kind (project : Phplang.Project.t) =
  let files = Array.of_list project.Phplang.Project.files in
  let f = Util.pick rng files in
  let src = f.Phplang.Project.source in
  let kind, edited =
    match apply rng kind src with
    | Some s -> (kind, s)
    | None -> (Whitespace, Option.get (apply rng Whitespace src))
  in
  (f.Phplang.Project.path, edited, kind)

(* [project] with one file's source replaced. *)
let with_file (project : Phplang.Project.t) path source =
  { project with
    Phplang.Project.files =
      List.map
        (fun (f : Phplang.Project.file) ->
          if f.Phplang.Project.path = path then { f with Phplang.Project.source } else f)
        project.Phplang.Project.files }
