(** Minimal HTTP/1.1 framing over [Unix] file descriptors.

    The serving layer is zero-dependency like the rest of the tree
    (stdlib + unix only, in the spirit of [Opm_obs.Json]), so it
    carries its own HTTP support: enough to read netlist-plus-analysis
    requests and write JSON responses — request-line + headers +
    [Content-Length]-framed bodies, keep-alive, and hard size limits so
    a malformed or hostile peer can never make the daemon allocate
    unboundedly or hang.

    Parsing is deliberately strict: anything outside the framing subset
    raises {!Error} with the HTTP status the server should answer with
    (400 malformed, 408 idle timeout, 411 missing length, 413 oversized
    body, 431 oversized head, 501 chunked bodies). Both CRLF and bare
    LF line endings are accepted. *)

exception Error of { status : int; message : string }
(** A framing violation, carrying the status to respond with. *)

type request = {
  meth : string;  (** request method, uppercased (["POST"]) *)
  target : string;  (** request target as sent (["/solve"]) *)
  version : string;  (** ["HTTP/1.1"] / ["HTTP/1.0"] *)
  headers : (string * string) list;
      (** in arrival order; names lowercased, values trimmed *)
  body : string;  (** [Content-Length] bytes (possibly empty) *)
}

val wants_close : request -> bool
(** Whether the peer asked to close after this exchange
    ([Connection: close], or HTTP/1.0 without [keep-alive]). *)

type conn
(** Buffered read state of one connection — carries bytes already read
    past the previous request so pipelined keep-alive requests are not
    lost. *)

val conn : Unix.file_descr -> conn

val read_request :
  ?max_header:int -> ?max_body:int -> conn -> request option
(** Read one request. [None] on a clean end-of-stream before any byte
    of a new request (the peer closed an idle keep-alive connection).
    Raises {!Error} on any framing violation, a body larger than
    [max_body] (default 1 MiB; status 413), a head larger than
    [max_header] (default 16 KiB; status 431) or a read timeout
    (status 408, from a [SO_RCVTIMEO] the server armed). *)

val write_response :
  Unix.file_descr ->
  status:int ->
  ?close:bool ->
  body:string ->
  unit ->
  unit
(** Write a complete response ([Content-Length] framing; content type
    [application/json]; [?close] adds
    [Connection: close]). Raises [Unix.Unix_error] if the peer is
    gone — callers treat that as a closed connection, never as a
    server failure. *)
