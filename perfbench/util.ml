(* Small helpers shared by the workloads: clock, statistics, files and
   child processes.  Every path the benchmark touches is relative to the
   checkout root, where it is started. *)

let now () = Unix.gettimeofday ()

(* Wall seconds taken by [f ()], with its result. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* {1 Statistics} *)

(* Linear-interpolation quantile of a non-empty sample, [q] in [0, 1]. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = truncate pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0. xs
let mean xs = match xs with [] -> 0. | _ -> sum xs /. float_of_int (List.length xs)
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* {1 Files} *)

let rec mkdir_p d =
  if d <> "." && d <> "/" && d <> "" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

let fresh_dir d =
  rm_rf d;
  mkdir_p d

let write_file path contents =
  mkdir_p (Filename.dirname path);
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Bytes of regular files under [path]. *)
let rec disk_bytes path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> 0
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun acc e -> acc + disk_bytes (Filename.concat path e))
        0 (Sys.readdir path)
  | { Unix.st_kind = Unix.S_REG; st_size; _ } -> st_size
  | _ -> 0

let mb bytes = float_of_int bytes /. 1048576.

(* {1 Processes} *)

external children_maxrss_kb : unit -> int = "perfbench_children_maxrss_kb"
external sync : unit -> unit = "perfbench_sync"

(* Peak resident set (VmHWM) of a live process, in MiB; 0 when unreadable. *)
let vmhwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_lines with
  | exception Sys_error _ -> 0.
  | lines ->
      List.fold_left
        (fun acc l ->
          match String.split_on_char ':' l with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> float_of_string kb /. 1024.
              | [] -> acc)
          | _ -> acc)
        0. lines

type exit_info = { code : int; out : string; err : string; timed_out : bool }

(* Run [prog args] to completion, capturing stdout and stderr.  A process
   still holding its output open [timeout] seconds after its start is
   killed with SIGKILL and reported [timed_out]. *)
let run_capture ~timeout prog args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let deadline = now () +. timeout in
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin out_w
      err_w
  in
  Unix.close out_w;
  Unix.close err_w;
  let out = Buffer.create 65536 and err = Buffer.create 1024 in
  let chunk = Bytes.create 65536 in
  (* read both pipes until both are closed or the deadline passes *)
  let rec pump fds =
    let left = deadline -. now () in
    if fds = [] then false
    else if left <= 0. then true
    else
      match Unix.select fds [] [] left with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> pump fds
      | ready, _, _ ->
          pump
            (List.filter
               (fun fd ->
                 (not (List.mem fd ready))
                 ||
                 match Unix.read fd chunk 0 (Bytes.length chunk) with
                 | 0 -> false
                 | n ->
                     Buffer.add_subbytes (if fd = out_r then out else err) chunk 0 n;
                     true
                 | exception Unix.Unix_error (Unix.EINTR, _, _) -> true)
               fds)
  in
  let timed_out = pump [ out_r; err_r ] in
  if timed_out then (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  Unix.close out_r;
  Unix.close err_r;
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, st -> st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let code =
    match wait () with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED s -> 128 + abs s
    | Unix.WSTOPPED _ -> 255
  in
  { code; out = Buffer.contents out; err = Buffer.contents err; timed_out }

(* {1 Seeded choice} *)

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let pick rng = function
  | [||] -> invalid_arg "pick: empty"
  | a -> a.(Random.State.int rng (Array.length a))

(* Index of the first occurrence of [sub] in [s]. *)
let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1)
  in
  go 0

(* An endless stream over [items]: the whole array in an order shuffled
   with [rng], then again in a fresh order, and so on.  Every block holds
   the same multiset, so a run that covers whole blocks sees the same mix
   whatever the seed; the seed drives the order. *)
let block_stream rng items =
  let block = ref [||] and pos = ref 0 in
  fun () ->
    if !pos >= Array.length !block then begin
      block := shuffle rng items;
      pos := 0
    end;
    incr pos;
    !block.(!pos - 1)

(* Whether a phase that has run [blocks] whole blocks in [elapsed] seconds
   starts another: yes while the next block would end nearer to [seconds]
   than stopping now does.  Phases end only between blocks, so every seed
   and every commit measures whole blocks; the time only sets how many. *)
let another_block ~blocks ~elapsed ~seconds =
  blocks = 0 || elapsed +. (elapsed /. float_of_int blocks /. 2.) < seconds
