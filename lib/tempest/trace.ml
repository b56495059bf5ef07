module Json = Ccdsm_util.Json

type msg_kind = Req | Data | Inval | Ack | Grant | Recall | Update | Reduce

let msg_kind_name = function
  | Req -> "req"
  | Data -> "data"
  | Inval -> "inval"
  | Ack -> "ack"
  | Grant -> "grant"
  | Recall -> "recall"
  | Update -> "update"
  | Reduce -> "reduce"

type event =
  | Init of { nodes : int; block_bytes : int }
  | Alloc of { first_block : int; blocks : int; home : int }
  | Fault of { node : int; block : int; write : bool }
  | Access of { node : int; addr : int; write : bool; faulted : bool }
  | Msg of { src : int; dst : int; bytes : int; kind : msg_kind }
  | Tag_change of { node : int; block : int; before : Tag.t; after : Tag.t }
  | Barrier of { bucket : string }
  | Phase_begin of { phase : int }
  | Phase_end of { phase : int }
  | Sched_record of { phase : int; block : int; node : int; write : bool }
  | Sched_conflict of { phase : int; block : int }
  | Sched_flush of { phase : int }
  | Presend of { phase : int; block : int; dst : int; write : bool }
  | Msg_drop of { src : int; dst : int; kind : msg_kind }
  | Retry of { node : int; block : int; attempt : int }
  | Presend_fallback of { phase : int; block : int; node : int; write : bool }
  | Sched_corrupt of { phase : int; block : int; node : int option }

let type_name = function
  | Init _ -> "init"
  | Alloc _ -> "alloc"
  | Fault _ -> "fault"
  | Access _ -> "access"
  | Msg _ -> "msg"
  | Tag_change _ -> "tag"
  | Barrier _ -> "barrier"
  | Phase_begin _ -> "phase_begin"
  | Phase_end _ -> "phase_end"
  | Sched_record _ -> "sched_record"
  | Sched_conflict _ -> "sched_conflict"
  | Sched_flush _ -> "sched_flush"
  | Presend _ -> "presend"
  | Msg_drop _ -> "drop"
  | Retry _ -> "retry"
  | Presend_fallback _ -> "presend_fallback"
  | Sched_corrupt _ -> "sched_corrupt"

let rw write = if write then "write" else "read"

let to_json ev =
  let ty = type_name ev in
  match ev with
  | Init { nodes; block_bytes } ->
      Printf.sprintf {|{"type":"%s","nodes":%d,"block_bytes":%d}|} ty nodes block_bytes
  | Alloc { first_block; blocks; home } ->
      Printf.sprintf {|{"type":"%s","first_block":%d,"blocks":%d,"home":%d}|} ty first_block
        blocks home
  | Fault { node; block; write } ->
      Printf.sprintf {|{"type":"%s","node":%d,"block":%d,"kind":"%s"}|} ty node block (rw write)
  | Access { node; addr; write; faulted } ->
      Printf.sprintf {|{"type":"%s","node":%d,"addr":%d,"kind":"%s","faulted":%b}|} ty node
        addr (rw write) faulted
  | Msg { src; dst; bytes; kind } ->
      Printf.sprintf {|{"type":"%s","src":%d,"dst":%d,"bytes":%d,"kind":"%s"}|} ty src dst
        bytes (msg_kind_name kind)
  | Tag_change { node; block; before; after } ->
      Printf.sprintf {|{"type":"%s","node":%d,"block":%d,"before":"%s","after":"%s"}|} ty node
        block (Tag.to_string before) (Tag.to_string after)
  | Barrier { bucket } -> Printf.sprintf {|{"type":"%s","bucket":"%s"}|} ty bucket
  | Phase_begin { phase } -> Printf.sprintf {|{"type":"%s","phase":%d}|} ty phase
  | Phase_end { phase } -> Printf.sprintf {|{"type":"%s","phase":%d}|} ty phase
  | Sched_record { phase; block; node; write } ->
      Printf.sprintf {|{"type":"%s","phase":%d,"block":%d,"node":%d,"kind":"%s"}|} ty phase
        block node (rw write)
  | Sched_conflict { phase; block } ->
      Printf.sprintf {|{"type":"%s","phase":%d,"block":%d}|} ty phase block
  | Sched_flush { phase } -> Printf.sprintf {|{"type":"%s","phase":%d}|} ty phase
  | Presend { phase; block; dst; write } ->
      Printf.sprintf {|{"type":"%s","phase":%d,"block":%d,"dst":%d,"kind":"%s"}|} ty phase
        block dst (rw write)
  | Msg_drop { src; dst; kind } ->
      Printf.sprintf {|{"type":"%s","src":%d,"dst":%d,"kind":"%s"}|} ty src dst
        (msg_kind_name kind)
  | Retry { node; block; attempt } ->
      Printf.sprintf {|{"type":"%s","node":%d,"block":%d,"attempt":%d}|} ty node block attempt
  | Presend_fallback { phase; block; node; write } ->
      Printf.sprintf {|{"type":"%s","phase":%d,"block":%d,"node":%d,"kind":"%s"}|} ty phase
        block node (rw write)
  | Sched_corrupt { phase; block; node } ->
      Printf.sprintf {|{"type":"%s","phase":%d,"block":%d,"node":%s}|} ty phase block
        (match node with None -> "null" | Some n -> string_of_int n)

let all_msg_kinds = [ Req; Data; Inval; Ack; Grant; Recall; Update; Reduce ]

let msg_kind_index = function
  | Req -> 0
  | Data -> 1
  | Inval -> 2
  | Ack -> 3
  | Grant -> 4
  | Recall -> 5
  | Update -> 6
  | Reduce -> 7

let pp ppf ev = Format.pp_print_string ppf (to_json ev)

(* -- parsing (inverse of [to_json]) ---------------------------------------- *)

let msg_kind_of_string = function
  | "req" -> Some Req
  | "data" -> Some Data
  | "inval" -> Some Inval
  | "ack" -> Some Ack
  | "grant" -> Some Grant
  | "recall" -> Some Recall
  | "update" -> Some Update
  | "reduce" -> Some Reduce
  | _ -> None

let of_json line =
  let err what = Error (Printf.sprintf "bad trace line (%s): %s" what line) in
  let json = Json.parse line in
  let field conv key =
    match json with Ok j -> Option.bind (Json.member key j) conv | Error _ -> None
  in
  let int key k = match field Json.to_int key with Some v -> k v | None -> err key in
  let str key k = match field Json.to_string key with Some v -> k v | None -> err key in
  let write k =
    match field Json.to_string "kind" with
    | Some "read" -> k false
    | Some "write" -> k true
    | _ -> err "kind"
  in
  let msg_kind k =
    match Option.bind (field Json.to_string "kind") msg_kind_of_string with
    | Some v -> k v
    | None -> err "kind"
  in
  let tag key k =
    match Option.bind (field Json.to_string key) Tag.of_string with
    | Some v -> k v
    | None -> err key
  in
  match (json, field Json.to_string "type") with
  | Error msg, _ -> err msg
  | Ok _, None -> err "type"
  | Ok _, Some ty -> (
      match ty with
      | "init" ->
          int "nodes" (fun nodes ->
              int "block_bytes" (fun block_bytes -> Ok (Init { nodes; block_bytes })))
      | "alloc" ->
          int "first_block" (fun first_block ->
              int "blocks" (fun blocks -> int "home" (fun home -> Ok (Alloc { first_block; blocks; home }))))
      | "fault" ->
          int "node" (fun node ->
              int "block" (fun block -> write (fun write -> Ok (Fault { node; block; write }))))
      | "access" ->
          int "node" (fun node ->
              int "addr" (fun addr ->
                  write (fun write ->
                      match field Json.to_bool "faulted" with
                      | Some faulted -> Ok (Access { node; addr; write; faulted })
                      | None -> err "faulted")))
      | "msg" ->
          int "src" (fun src ->
              int "dst" (fun dst ->
                  int "bytes" (fun bytes ->
                      msg_kind (fun kind -> Ok (Msg { src; dst; bytes; kind })))))
      | "tag" ->
          int "node" (fun node ->
              int "block" (fun block ->
                  tag "before" (fun before ->
                      tag "after" (fun after -> Ok (Tag_change { node; block; before; after })))))
      | "barrier" -> str "bucket" (fun bucket -> Ok (Barrier { bucket }))
      | "phase_begin" -> int "phase" (fun phase -> Ok (Phase_begin { phase }))
      | "phase_end" -> int "phase" (fun phase -> Ok (Phase_end { phase }))
      | "sched_record" ->
          int "phase" (fun phase ->
              int "block" (fun block ->
                  int "node" (fun node ->
                      write (fun write -> Ok (Sched_record { phase; block; node; write })))))
      | "sched_conflict" ->
          int "phase" (fun phase -> int "block" (fun block -> Ok (Sched_conflict { phase; block })))
      | "sched_flush" -> int "phase" (fun phase -> Ok (Sched_flush { phase }))
      | "presend" ->
          int "phase" (fun phase ->
              int "block" (fun block ->
                  int "dst" (fun dst -> write (fun write -> Ok (Presend { phase; block; dst; write })))))
      | "drop" ->
          int "src" (fun src ->
              int "dst" (fun dst -> msg_kind (fun kind -> Ok (Msg_drop { src; dst; kind }))))
      | "retry" ->
          int "node" (fun node ->
              int "block" (fun block ->
                  int "attempt" (fun attempt -> Ok (Retry { node; block; attempt }))))
      | "presend_fallback" ->
          int "phase" (fun phase ->
              int "block" (fun block ->
                  int "node" (fun node ->
                      write (fun write -> Ok (Presend_fallback { phase; block; node; write })))))
      | "sched_corrupt" ->
          int "phase" (fun phase ->
              int "block" (fun block ->
                  match field Option.some "node" with
                  | Some Json.Null -> Ok (Sched_corrupt { phase; block; node = None })
                  | Some (Json.Int n) -> Ok (Sched_corrupt { phase; block; node = Some n })
                  | _ -> err "node"))
      | _ -> err "unknown type")

let global_sink : (event -> unit) option ref = ref None
let set_global s = global_sink := s
let global () = !global_sink

let jsonl_sink ?(accesses = false) oc ev =
  match ev with
  | Access _ when not accesses -> ()
  | _ ->
      output_string oc (to_json ev);
      output_char oc '\n'
