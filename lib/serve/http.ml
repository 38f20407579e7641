(* Hand-rolled HTTP/1.1 framing: request-line + headers +
   Content-Length bodies, keep-alive, hard size limits. Everything a
   hostile peer can send maps to [Error] with a concrete status —
   never a hang (reads are bounded by the caller's SO_RCVTIMEO and by
   max_header/max_body) and never an unbounded allocation. *)

exception Error of { status : int; message : string }

let fail status fmt =
  Printf.ksprintf (fun message -> raise (Error { status; message })) fmt

type request = {
  meth : string;
  target : string;
  version : string;
  headers : (string * string) list;
  body : string;
}

let header req name =
  let name = String.lowercase_ascii name in
  List.assoc_opt name req.headers

let wants_close req =
  match Option.map String.lowercase_ascii (header req "connection") with
  | Some "close" -> true
  | Some "keep-alive" -> false
  | _ -> String.equal req.version "HTTP/1.0"

(* Buffered connection state: [pending] holds bytes already read past
   the previous request so pipelined keep-alive requests survive. *)
type conn = {
  fd : Unix.file_descr;
  mutable pending : string;
}

let conn fd = { fd; pending = "" }

let chunk = 4096

(* One [Unix.read], mapping a receive timeout (armed by the server via
   SO_RCVTIMEO) to a 408 instead of surfacing EAGAIN to callers. *)
let read_chunk c buf =
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | n -> n
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | ETIMEDOUT), _, _) ->
      fail 408 "timed out waiting for request bytes"
  | exception Unix.Unix_error (EINTR, _, _) -> 0

(* Find "\n\n" or "\n\r\n" from [from] (tolerating CR before the first
   LF); return (head_end, body_start). *)
let find_head_end s from =
  let n = String.length s in
  let rec go i =
    if i >= n then None
    else if s.[i] <> '\n' then go (i + 1)
    else
      let j = i + 1 in
      if j < n && s.[j] = '\n' then Some (i, j + 1)
      else if j + 1 < n && s.[j] = '\r' && s.[j + 1] = '\n' then
        Some (i, j + 2)
      else go (i + 1)
  in
  go (max from 0)

let strip_cr line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

let parse_request_line line =
  match String.split_on_char ' ' line with
  | [ meth; target; version ]
    when meth <> "" && target <> ""
         && String.length version > 5
         && String.sub version 0 5 = "HTTP/" ->
      (String.uppercase_ascii meth, target, version)
  | _ -> fail 400 "malformed request line %S" (String.escaped line)

let parse_header_line line =
  match String.index_opt line ':' with
  | None | Some 0 -> fail 400 "malformed header line %S" (String.escaped line)
  | Some i ->
      let name = String.lowercase_ascii (String.sub line 0 i) in
      let value =
        String.trim (String.sub line (i + 1) (String.length line - i - 1))
      in
      (name, value)

let parse_head head =
  match String.split_on_char '\n' head with
  | [] -> fail 400 "empty request head"
  | request_line :: header_lines ->
      let meth, target, version = parse_request_line (strip_cr request_line) in
      let headers =
        List.filter_map
          (fun line ->
            let line = strip_cr line in
            if line = "" then None else Some (parse_header_line line))
          header_lines
      in
      (meth, target, version, headers)

let body_length headers =
  match List.assoc_opt "transfer-encoding" headers with
  | Some _ -> fail 501 "chunked transfer encoding is not supported"
  | None -> (
      match List.assoc_opt "content-length" headers with
      | None -> 0
      | Some v -> (
          match int_of_string_opt (String.trim v) with
          | Some n when n >= 0 -> n
          | _ -> fail 400 "malformed Content-Length %S" (String.escaped v)))

let read_request ?(max_header = 16 * 1024) ?(max_body = 1024 * 1024) c =
  (* Accumulate until the blank line; [scanned] avoids rescanning the
     prefix on every chunk. *)
  let buf = Buffer.create chunk in
  Buffer.add_string buf c.pending;
  c.pending <- "";
  let tmp = Bytes.create chunk in
  let head_split = ref (find_head_end (Buffer.contents buf) 0) in
  let eof = ref false in
  while !head_split = None && not !eof do
    if Buffer.length buf > max_header then
      fail 431 "request head exceeds %d bytes" max_header;
    let n = read_chunk c tmp in
    if n = 0 then eof := true
    else begin
      let scanned = Buffer.length buf in
      Buffer.add_subbytes buf tmp 0 n;
      (* restart 2 bytes back: the terminator may straddle the chunk *)
      head_split := find_head_end (Buffer.contents buf) (scanned - 2)
    end
  done;
  match !head_split with
  | None ->
      if Buffer.length buf = 0 then None (* clean close between requests *)
      else fail 400 "connection closed mid-request head"
  | Some (head_end, body_start) ->
      let all = Buffer.contents buf in
      if head_end > max_header then
        fail 431 "request head exceeds %d bytes" max_header;
      let head = String.sub all 0 head_end in
      let meth, target, version, headers = parse_head head in
      let want = body_length headers in
      if want > max_body then fail 413 "request body exceeds %d bytes" max_body;
      let body = Buffer.create (min want chunk) in
      let avail = String.length all - body_start in
      let take = min avail want in
      Buffer.add_substring body all body_start take;
      (* bytes beyond this request belong to the next one *)
      c.pending <- String.sub all (body_start + take) (avail - take);
      while Buffer.length body < want do
        let n = read_chunk c tmp in
        if n = 0 then fail 400 "connection closed mid-request body";
        let take = min n (want - Buffer.length body) in
        Buffer.add_subbytes body tmp 0 take;
        if take < n then
          c.pending <- c.pending ^ Bytes.sub_string tmp take (n - take)
      done;
      Some { meth; target; version; headers; body = Buffer.contents body }

let reason = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 411 -> "Length Required"
  | 413 -> "Payload Too Large"
  | 422 -> "Unprocessable Entity"
  | 431 -> "Request Header Fields Too Large"
  | 500 -> "Internal Server Error"
  | 501 -> "Not Implemented"
  | 503 -> "Service Unavailable"
  | c -> if c < 400 then "OK" else "Error"

let write_all fd s =
  let n = String.length s in
  let b = Bytes.unsafe_of_string s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let write_response fd ~status ?(close = false) ~body () =
  let buf = Buffer.create (String.length body + 256) in
  Buffer.add_string buf
    (Printf.sprintf "HTTP/1.1 %d %s\r\n" status (reason status));
  Buffer.add_string buf "Content-Type: application/json\r\n";
  Buffer.add_string buf
    (Printf.sprintf "Content-Length: %d\r\n" (String.length body));
  if close then Buffer.add_string buf "Connection: close\r\n";
  Buffer.add_string buf "\r\n";
  Buffer.add_string buf body;
  write_all fd (Buffer.contents buf)
