(** Minimal JSON tree, printer and parser.

    The observability layer is zero-dependency by design (stdlib + unix
    only), so it carries its own JSON support: enough to emit metrics
    snapshots, Chrome trace files and benchmark tables, and to parse
    them back for schema validation in CI.

    Non-finite floats have no JSON representation; {!to_string} prints
    them as [null]. Downstream schema validators treat a [null] where a
    number is required as a hard failure — that is how NaN/Inf poisoning
    of a benchmark table is caught (see [bench/validate.ml]). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:bool -> t -> string
(** Compact by default; [~indent:true] pretty-prints with 2-space
    indentation (stable key order — objects print in construction
    order). *)

val to_file : ?indent:bool -> string -> t -> unit
(** Writes the document followed by a trailing newline. *)

exception Parse_error of { pos : int; message : string }

val of_string : string -> t
(** Recursive-descent parser for the JSON subset this module prints
    (full standard JSON minus [\uXXXX] surrogate pairs, which decode to
    ['?']). Numbers parse as [Int] when they are exact integers without
    exponent/fraction, [Float] otherwise. Raises {!Parse_error}. *)

val of_file : string -> t

(** {2 Accessors} — total functions returning [option]; validators
    build on these. *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on missing field or non-object. *)

val to_list_opt : t -> t list option

val to_float_opt : t -> float option
(** [Int] and [Float] both convert; everything else is [None] — in
    particular [Null] (a serialised NaN/Inf) is [None]. *)

val to_int_opt : t -> int option

val to_string_opt : t -> string option
