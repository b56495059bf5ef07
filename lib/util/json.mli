(** The one JSON reader and string escaper.

    Every JSON input — serve job specs, saved reuse-distance profiles,
    timeline and trace JSONL lines, the [bench --json] baseline — is read
    through {!parse}, and every writer escapes its strings with {!quote}.
    Writers keep their own hand-written field order: the goldens, the serve
    responses and the request log are pinned byte layouts, so there is no
    generic value printer.

    {!parse} follows the RFC 8259 grammar and is bounded: nesting deeper
    than a fixed limit, duplicate object keys and content after the value
    are errors, never a crash, and time is linear in the input. *)

type t =
  | Null
  | Bool of bool
  | Int of int  (** an integer literal that fits an [int], kept exact *)
  | Float of float  (** any other number literal; ["-0"] too, keeping its sign *)
  | String of string  (** escapes decoded, [\uXXXX] to UTF-8 *)
  | List of t list
  | Obj of (string * t) list  (** members in input order, keys distinct *)

val parse : string -> (t, string) result
(** Parse one complete JSON text (surrounding whitespace allowed).  [Error]
    is a one-line message ending in ["at byte N"], [N] in
    [\[0, String.length s\]].  Bytes >= 0x80 inside strings are taken as
    they are; raw control characters are not. *)

val quote : string -> string
(** [s] as a JSON string literal, quotes included: ["\""], ["\\"] and
    the control characters [\n \t \r \b \f] get their short escapes, other
    bytes below 0x20 [\u00XX], every other byte is copied.
    [parse (quote s) = Ok (String s)] for every byte string [s]. *)

(** {2 Accessors}

    Each returns [None] when the value has another shape. *)

val member : string -> t -> t option
(** The member named [key] of an [Obj]. *)

val to_int : t -> int option
val to_float : t -> float option
(** Widens [Int]. *)

val to_string : t -> string option
val to_bool : t -> bool option

val to_array : (t -> 'a option) -> t -> 'a array option
(** A [List] whose every element converts. *)
