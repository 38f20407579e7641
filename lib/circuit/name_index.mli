(** Insertion-ordered sets of names: each name added gets the next
    index, starting at 0. Hashes and chain links live in int arrays and
    the names in one string array, so adding a name allocates nothing
    beyond amortised array growth, and growth rehashes from the stored
    hashes without rereading the names. *)

type t

val create : fold:bool -> t
(** [~fold:true] compares and hashes ASCII case-insensitively. *)

val find : t -> string -> int
(** The index of a name, or [-1]. *)

val add : t -> string -> unit
(** Add a name that {!find} reports absent; its index is the
    {!length} before the call. *)

val length : t -> int

val names : t -> string array
(** All names, by index. *)
