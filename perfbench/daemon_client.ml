(* Driving a real phpsafe_serve process over its Unix socket: start,
   request/reply round trips, the [metrics]/[status] ops read from outside,
   and shutdown. *)

module Json = Secflow.Json
module P = Serve.Protocol

let serve_exe = "_build/default/bin/phpsafe_serve.exe"

type t = { pid : int; socket : string }

(* Set-up traffic and the ops surface wait this long for a reply. *)
let setup_timeout = 120.

(* A connection whose every send and receive gives up after [timeout]
   seconds (SO_SNDTIMEO/SO_RCVTIMEO), so a hung daemon reads as timed out. *)
let connect ?(timeout = setup_timeout) socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () ->
      (* 0 would mean "never" *)
      let t = Float.max timeout 1e-3 in
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO t;
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO t;
      Some fd
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

(* Start the daemon and wait until it accepts connections.  [cache] is the
   store root, or [None] for --no-cache.  Socket paths are relative to the
   checkout root, so they stay short wherever the checkout lives. *)
let start ~socket ~cache =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let store_args =
    match cache with Some d -> [ "--cache-dir"; d ] | None -> [ "--no-cache" ]
  in
  let pid =
    Unix.create_process serve_exe
      (Array.of_list ([ serve_exe; "serve"; "--socket"; socket ] @ store_args))
      devnull devnull devnull
  in
  Unix.close devnull;
  let deadline = Util.now () +. 30. in
  let rec wait () =
    match connect socket with
    | Some fd -> Unix.close fd
    | None ->
        if Util.now () > deadline then failwith "phpsafe_serve did not start";
        Unix.sleepf 0.005;
        wait ()
  in
  wait ();
  { pid; socket }

(* One request and its reply.  After an [Error] the connection is
   unusable. *)
let roundtrip fd payload =
  match P.write_frame fd payload with
  | exception (P.Closed | Unix.Unix_error _) -> Error "request not delivered"
  | () -> (
      match P.read_frame fd with
      | P.Frame reply -> Ok reply
      | P.Eof -> Error "daemon closed the connection"
      | P.Timed_out -> Error "timed out"
      | P.Oversized n -> Error (Printf.sprintf "oversized reply (%d bytes)" n))

let roundtrip_exn fd payload =
  match roundtrip fd payload with Ok r -> r | Error e -> failwith ("phpsafe_serve: " ^ e)

let with_connection t f =
  match connect t.socket with
  | None -> failwith "cannot connect to phpsafe_serve"
  | Some fd -> Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> f fd)

let op t name =
  let reply =
    with_connection t (fun fd -> roundtrip_exn fd (P.encode_simple_request ~op:name ()))
  in
  match Json.parse reply with
  | Ok j -> j
  | Error e -> failwith ("bad " ^ name ^ " reply: " ^ e)

let rec path j = function
  | [] -> Some j
  | k :: rest -> Option.bind (Json.member k j) (fun v -> path v rest)

let num j keys =
  match path j keys with
  | Some (Json.Int i) -> float_of_int i
  | Some (Json.Float f) -> f
  | _ -> 0.

(* Everything the daemon reports about itself at one instant. *)
type snapshot = { metrics : Json.t; status : Json.t }

let snapshot t = { metrics = op t "metrics"; status = op t "status" }

(* [after - before] of one numeric field of the metrics reply. *)
let delta ~before ~after keys = num after.metrics keys -. num before.metrics keys

(* Mean server-side latency of the requests served between two snapshots,
   from the latency histogram's count and mean. *)
let server_mean_ms ~before ~after =
  let c0 = num before.metrics [ "latency_ms"; "count" ]
  and c1 = num after.metrics [ "latency_ms"; "count" ] in
  let m0 = num before.metrics [ "latency_ms"; "mean" ]
  and m1 = num after.metrics [ "latency_ms"; "mean" ] in
  if c1 > c0 then ((c1 *. m1) -. (c0 *. m0)) /. (c1 -. c0) else 0.

(* Per-namespace disk bytes from the status reply. *)
let disk_bytes s ns =
  match path s.status [ "store"; "namespaces" ] with
  | Some (Json.List l) ->
      List.fold_left
        (fun acc e ->
          match (Json.member "ns" e, Json.member "bytes" e) with
          | Some (Json.String n), Some (Json.Int b) when n = ns -> acc + b
          | _ -> acc)
        0 l
  | _ -> 0

let peak_rss_mb t = Util.vmhwm_mb (string_of_int t.pid)

let stop t =
  (try ignore (op t "shutdown")
   with Failure _ | Unix.Unix_error _ -> (
     try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ()));
  let rec wait () =
    match Unix.waitpid [] t.pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  try Unix.unlink t.socket with Unix.Unix_error _ -> ()

let scan_payload (project : Phplang.Project.t) tool =
  P.encode_scan_request
    { P.sr_id = None; sr_tenant = None; sr_project = project;
      sr_opts = { Serve.Scan.default with Serve.Scan.tool };
      sr_budget = Secflow.Budget.default; sr_deadline_ms = None }
