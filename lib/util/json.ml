type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* Recursion depth is bounded by this constant, not by the input: the
   deepest document the tree writes (a saved profile) nests 5 levels. *)
let max_depth = 64

exception Fail of string * int

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail_at at msg = raise (Fail (msg, at)) in
  let fail msg = fail_at !pos msg in
  (* Duplicate keys are found through one table keyed by (object number,
     key), so an object with many members stays linear. *)
  let seen = Hashtbl.create 16 in
  let objects = ref 0 in
  let rec ws () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
          incr pos;
          ws ()
      | _ -> ()
  in
  let next_is c = !pos < n && s.[!pos] = c in
  let expect c what = if next_is c then incr pos else fail ("expected " ^ what) in
  let literal word v =
    let m = String.length word in
    if !pos + m <= n && String.sub s !pos m = word then begin
      pos := !pos + m;
      v
    end
    else fail "invalid literal"
  in
  let digits () =
    let start = !pos in
    while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
      incr pos
    done;
    if !pos = start then fail "expected a digit"
  in
  let number () =
    let start = !pos in
    if next_is '-' then incr pos;
    if next_is '0' then incr pos else digits ();
    let integral = ref true in
    if next_is '.' then begin
      integral := false;
      incr pos;
      digits ()
    end;
    if next_is 'e' || next_is 'E' then begin
      integral := false;
      incr pos;
      if next_is '+' || next_is '-' then incr pos;
      digits ()
    end;
    let lit = String.sub s start (!pos - start) in
    match if !integral then int_of_string_opt lit else None with
    | Some 0 when lit.[0] = '-' -> Float (-0.)
    | Some i -> Int i
    | None -> Float (float_of_string lit)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for i = !pos to !pos + 3 do
      let d =
        match s.[i] with
        | '0' .. '9' as c -> Char.code c - 48
        | 'a' .. 'f' as c -> Char.code c - 87
        | 'A' .. 'F' as c -> Char.code c - 55
        | _ -> fail_at i "invalid hex digit in \\u escape"
      in
      v := (!v lsl 4) lor d
    done;
    pos := !pos + 4;
    !v
  in
  (* After "\u": one code point, a surrogate pair taking two escapes. *)
  let code_point at =
    let hi = hex4 () in
    if hi >= 0xDC00 && hi <= 0xDFFF then fail_at at "unpaired surrogate"
    else if hi < 0xD800 || hi > 0xDBFF then hi
    else if next_is '\\' && !pos + 1 < n && s.[!pos + 1] = 'u' then begin
      pos := !pos + 2;
      let lo = hex4 () in
      if lo < 0xDC00 || lo > 0xDFFF then fail_at at "unpaired surrogate";
      0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
    end
    else fail_at at "unpaired surrogate"
  in
  let string_lit () =
    incr pos;
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
          let at = !pos in
          incr pos;
          if !pos >= n then fail "unterminated string";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | '"' | '\\' | '/' -> Buffer.add_char b e
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' -> Buffer.add_utf_8_uchar b (Uchar.of_int (code_point at))
          | _ -> fail_at at "invalid escape");
          go ()
      | c when c < ' ' -> fail "control character in string"
      | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let enter depth =
    if depth >= max_depth then fail (Printf.sprintf "nesting deeper than %d" max_depth);
    incr pos;
    ws ();
    depth + 1
  in
  let rec value depth =
    ws ();
    if !pos >= n then fail "expected a JSON value";
    match s.[!pos] with
    | '{' ->
        let depth = enter depth in
        let id = !objects in
        incr objects;
        let rec members acc =
          ws ();
          if not (next_is '"') then fail "expected a string key";
          let at = !pos in
          let k = string_lit () in
          if Hashtbl.mem seen (id, k) then fail_at at (Printf.sprintf "duplicate key %S" k);
          Hashtbl.add seen (id, k) ();
          ws ();
          expect ':' "':'";
          let acc = (k, value depth) :: acc in
          ws ();
          if next_is ',' then begin
            incr pos;
            members acc
          end
          else begin
            expect '}' "',' or '}'";
            Obj (List.rev acc)
          end
        in
        if next_is '}' then begin
          incr pos;
          Obj []
        end
        else members []
    | '[' ->
        let depth = enter depth in
        let rec items acc =
          let acc = value depth :: acc in
          ws ();
          if next_is ',' then begin
            incr pos;
            items acc
          end
          else begin
            expect ']' "',' or ']'";
            List (List.rev acc)
          end
        in
        if next_is ']' then begin
          incr pos;
          List []
        end
        else items []
    | '"' -> String (string_lit ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> number ()
    | _ -> fail "expected a JSON value"
  in
  match
    let v = value 0 in
    ws ();
    if !pos < n then fail "trailing content";
    v
  with
  | v -> Ok v
  | exception Fail (msg, at) -> Error (Printf.sprintf "%s at byte %d" msg at)

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let member key = function Obj l -> List.assoc_opt key l | _ -> None
let to_int = function Int i -> Some i | _ -> None
let to_float = function Int i -> Some (float_of_int i) | Float f -> Some f | _ -> None
let to_string = function String s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None

let to_array conv = function
  | List l ->
      let a = Array.of_list (List.filter_map conv l) in
      if Array.length a = List.length l then Some a else None
  | _ -> None
