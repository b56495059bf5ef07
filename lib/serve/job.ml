module Faults = Ccdsm_tempest.Faults
module Fnv = Ccdsm_util.Fnv

type spec = {
  kind : [ `Sim | `Predict | `Timeline ];
  app : string;
  protocol : string;
  nodes : int;
  block_bytes : int;
  migratory_threshold : int;
  faults : Faults.plan option;
  scale : [ `Scaled | `Paper ];
}

type request = { id : string option; spec : spec }

(* -- a tiny JSON scanner for flat one-line objects ------------------------

   The wire format is newline-delimited JSON, one flat object per job spec —
   string / number / bool / null values only, no nesting.  Like the trace
   format ([Trace.of_json]) this is our own fixed dialect, parsed without a
   dependency; unlike the trace parser it must reject malformed input with a
   message the client can act on, so it is a real tokenizer rather than a
   substring scan. *)

type value = Str of string | Num of float | Bool of bool | Null

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let parse_object line =
  let n = String.length line in
  let pos = ref 0 in
  let peek () = if !pos < n then Some line.[!pos] else None in
  let skip_ws () =
    while !pos < n && (match line.[!pos] with ' ' | '\t' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    match peek () with
    | Some d when d = c -> incr pos
    | Some d -> bad "expected '%c' at byte %d, got '%c'" c !pos d
    | None -> bad "expected '%c' at byte %d, got end of line" c !pos
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then bad "unterminated string";
      let c = line.[!pos] in
      incr pos;
      if c = '"' then Buffer.contents buf
      else if c = '\\' then begin
        (if !pos >= n then bad "unterminated escape";
         let e = line.[!pos] in
         incr pos;
         match e with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'n' -> Buffer.add_char buf '\n'
         | 't' -> Buffer.add_char buf '\t'
         | 'r' -> Buffer.add_char buf '\r'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | _ -> bad "unsupported escape '\\%c'" e);
        go ()
      end
      else begin
        Buffer.add_char buf c;
        go ()
      end
    in
    go ()
  in
  let parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some ('{' | '[') -> bad "nested objects/arrays are not allowed in a job spec"
    | Some ('t' | 'f' | 'n') ->
        let lit l v =
          let m = String.length l in
          if !pos + m <= n && String.sub line !pos m = l then begin
            pos := !pos + m;
            v
          end
          else bad "bad literal at byte %d" !pos
        in
        if line.[!pos] = 't' then lit "true" (Bool true)
        else if line.[!pos] = 'f' then lit "false" (Bool false)
        else lit "null" Null
    | Some _ ->
        let start = !pos in
        while
          !pos < n
          && match line.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
        do
          incr pos
        done;
        if !pos = start then bad "unexpected character '%c' at byte %d" line.[start] start;
        let tok = String.sub line start (!pos - start) in
        (match float_of_string_opt tok with
        | Some f -> Num f
        | None -> bad "bad number %S" tok)
    | None -> bad "expected a value at end of line"
  in
  expect '{';
  skip_ws ();
  let fields = ref [] in
  (match peek () with
  | Some '}' -> incr pos
  | _ ->
      let rec members () =
        skip_ws ();
        let key = parse_string () in
        expect ':';
        let v = parse_value () in
        if List.mem_assoc key !fields then bad "duplicate key %S" key;
        fields := (key, v) :: !fields;
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            members ()
        | Some '}' -> incr pos
        | _ -> bad "expected ',' or '}' at byte %d" !pos
      in
      members ());
  skip_ws ();
  if !pos <> n then bad "trailing garbage after object at byte %d" !pos;
  List.rev !fields

(* -- spec extraction ------------------------------------------------------ *)

let known_keys =
  [
    "id"; "kind"; "app"; "protocol"; "nodes"; "block_bytes"; "migratory_threshold"; "faults";
    "scale";
  ]

let escape_to_json s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let int_range key lo hi = function
  | Num f when Float.is_integer f && f >= float_of_int lo && f <= float_of_int hi ->
      int_of_float f
  | Num _ -> bad "%S must be an integer in [%d, %d]" key lo hi
  | _ -> bad "%S must be an integer" key

let is_pow2 x = x > 0 && x land (x - 1) = 0

let parse line =
  match parse_object line with
  | exception Bad msg -> Error ("bad job spec: " ^ msg)
  | fields -> (
      try
        (match List.find_opt (fun (k, _) -> not (List.mem k known_keys)) fields with
        | Some (k, _) ->
            bad "unknown key %S (known keys: %s)" k (String.concat ", " known_keys)
        | None -> ());
        let get key = List.assoc_opt key fields in
        let str key =
          match get key with
          | Some (Str s) -> Some s
          | Some _ -> bad "%S must be a string" key
          | None -> None
        in
        let require_str key =
          match str key with
          | Some s when s <> "" -> s
          | Some _ -> bad "%S must be non-empty" key
          | None -> bad "missing required key %S" key
        in
        let int_opt key ~default lo hi =
          match get key with Some v -> int_range key lo hi v | None -> default
        in
        let kind =
          match str "kind" with
          | None | Some "sim" -> `Sim
          | Some "predict" -> `Predict
          | Some "timeline" -> `Timeline
          | Some other ->
              bad "\"kind\" must be \"sim\", \"predict\" or \"timeline\" (got %S)" other
        in
        (* A timeline job queries daemon state (the slow-job ring), so it
           takes no simulation parameters: anything beyond id/kind is a
           mistake worth flagging rather than silently ignoring. *)
        if kind = `Timeline then
          List.iter
            (fun (k, _) ->
              if k <> "id" && k <> "kind" then
                bad "timeline jobs take no %S (only \"id\" and \"kind\")" k)
            fields;
        let require_str key = if kind = `Timeline then "" else require_str key in
        let app = require_str "app" in
        let protocol = require_str "protocol" in
        let nodes = int_opt "nodes" ~default:8 1 Ccdsm_util.Nodeset.max_nodes in
        let block_bytes = int_opt "block_bytes" ~default:32 8 65536 in
        if not (is_pow2 block_bytes) then bad "\"block_bytes\" must be a power of two >= 8";
        let migratory_threshold = int_opt "migratory_threshold" ~default:1 1 1_000_000 in
        let faults =
          match str "faults" with
          | None -> None
          | Some s -> (
              match Faults.of_string s with
              | Ok p -> if Faults.is_zero p then None else Some p
              | Error msg -> bad "\"faults\": %s" msg)
        in
        let scale =
          match str "scale" with
          | None | Some "scaled" -> `Scaled
          | Some "paper" -> `Paper
          | Some other -> bad "\"scale\" must be \"scaled\" or \"paper\" (got %S)" other
        in
        let id =
          match get "id" with
          | None -> None
          | Some (Str s) -> Some (escape_to_json s)
          | Some (Num f) -> Some (Ccdsm_obs.Obs.float_to_string f)
          | Some (Bool b) -> Some (string_of_bool b)
          | Some Null -> Some "null"
        in
        Ok { id; spec = { kind; app; protocol; nodes; block_bytes; migratory_threshold; faults; scale } }
      with Bad msg -> Error ("bad job spec: " ^ msg))

(* -- canonical form and content address ----------------------------------- *)

let canonical spec =
  (* Fixed key order, defaults filled in, [id] excluded: two requests for the
     same simulation canonicalize to the same bytes no matter how the client
     spelled them, which is what makes the FNV content address a cache key. *)
  let buf = Buffer.create 128 in
  Buffer.add_string buf "{\"app\":";
  Buffer.add_string buf (escape_to_json (String.lowercase_ascii spec.app));
  Buffer.add_string buf (Printf.sprintf ",\"block_bytes\":%d" spec.block_bytes);
  (match spec.faults with
  | None -> ()
  | Some p ->
      Buffer.add_string buf ",\"faults\":";
      Buffer.add_string buf (escape_to_json (Faults.to_string p)));
  (* [kind] is rendered only for predict jobs so sim canonicals (and their
     content addresses) are unchanged from before the key existed. *)
  (match spec.kind with
  | `Sim -> ()
  | `Predict -> Buffer.add_string buf ",\"kind\":\"predict\""
  | `Timeline -> Buffer.add_string buf ",\"kind\":\"timeline\"");
  Buffer.add_string buf (Printf.sprintf ",\"migratory_threshold\":%d" spec.migratory_threshold);
  Buffer.add_string buf (Printf.sprintf ",\"nodes\":%d" spec.nodes);
  Buffer.add_string buf ",\"protocol\":";
  Buffer.add_string buf (escape_to_json spec.protocol);
  Buffer.add_string buf
    (Printf.sprintf ",\"scale\":\"%s\"" (match spec.scale with `Scaled -> "scaled" | `Paper -> "paper"));
  Buffer.add_char buf '}';
  Buffer.contents buf

let digest spec = Fnv.digest_string (canonical spec)

(* Predict keys carry a visible namespace prefix on top of the canonical
   form's "kind" discrimination: a predict result can never be mistaken for
   (or collide with) a simulation of the same configuration, and operators
   can tell the two apart in logs. *)
let key spec =
  (match spec.kind with `Sim -> "" | `Predict -> "predict:" | `Timeline -> "timeline:")
  ^ Fnv.to_hex (digest spec)
