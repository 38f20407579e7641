type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* printing                                                            *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* the C printf behind [Printf]'s float conversions, without the format
   interpreter; for finite [x] the bytes are those of [Printf.sprintf] *)
external format_float : string -> float -> string = "caml_format_float"

(* shortest decimal that round-trips; JSON has no NaN/Inf, so those
   degrade to null and the schema validator rejects them downstream *)
let float_to buf x =
  if not (Float.is_finite x) then Buffer.add_string buf "null"
  else if Float.is_integer x && Float.abs x < 1e15 then
    Buffer.add_string buf (format_float "%.1f" x)
  else begin
    let s = format_float "%.12g" x in
    let s = if float_of_string s = x then s else format_float "%.17g" x in
    Buffer.add_string buf s
  end

let rec print ~indent ~level buf v =
  let pad n = Buffer.add_string buf (String.make (2 * n) ' ') in
  let sep_open c = Buffer.add_char buf c in
  let newline () = if indent then Buffer.add_char buf '\n' in
  let items ~close_char xs emit =
    match xs with
    | [] -> Buffer.add_char buf close_char
    | _ ->
        newline ();
        List.iteri
          (fun i x ->
            if i > 0 then begin
              Buffer.add_char buf ',';
              newline ()
            end;
            if indent then pad (level + 1);
            emit x)
          xs;
        newline ();
        if indent then pad level;
        Buffer.add_char buf close_char
  in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float x -> float_to buf x
  | String s -> escape_to buf s
  | List xs ->
      sep_open '[';
      items ~close_char:']' xs (print ~indent ~level:(level + 1) buf)
  | Obj kvs ->
      sep_open '{';
      items ~close_char:'}' kvs (fun (k, v) ->
          escape_to buf k;
          Buffer.add_string buf (if indent then ": " else ":");
          print ~indent ~level:(level + 1) buf v)

let to_string ?(indent = false) v =
  let buf = Buffer.create 1024 in
  print ~indent ~level:0 buf v;
  Buffer.contents buf

let to_channel ?indent oc v = output_string oc (to_string ?indent v)

let to_file ?indent path v =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      to_channel ?indent oc v;
      output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* parsing                                                             *)

exception Parse_error of { pos : int; message : string }

type state = { s : string; mutable pos : int }

let fail st message = raise (Parse_error { pos = st.pos; message })

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some x when x = c -> advance st
  | Some x -> fail st (Printf.sprintf "expected %c, found %c" c x)
  | None -> fail st (Printf.sprintf "expected %c, found end of input" c)

let literal st word v =
  let n = String.length word in
  if st.pos + n <= String.length st.s && String.sub st.s st.pos n = word then begin
    st.pos <- st.pos + n;
    v
  end
  else fail st (Printf.sprintf "invalid literal (expected %s)" word)

let parse_string_body st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | Some 'n' -> advance st; Buffer.add_char buf '\n'; go ()
        | Some 't' -> advance st; Buffer.add_char buf '\t'; go ()
        | Some 'r' -> advance st; Buffer.add_char buf '\r'; go ()
        | Some 'b' -> advance st; Buffer.add_char buf '\b'; go ()
        | Some 'f' -> advance st; Buffer.add_char buf '\012'; go ()
        | Some ('"' | '\\' | '/') ->
            Buffer.add_char buf (Option.get (peek st));
            advance st;
            go ()
        | Some 'u' ->
            advance st;
            if st.pos + 4 > String.length st.s then fail st "truncated \\u escape";
            let hex = String.sub st.s st.pos 4 in
            let code =
              match int_of_string_opt ("0x" ^ hex) with
              | Some c -> c
              | None -> fail st "invalid \\u escape"
            in
            st.pos <- st.pos + 4;
            (* ASCII decodes exactly; anything wider degrades to '?' *)
            Buffer.add_char buf (if code < 0x80 then Char.chr code else '?');
            go ()
        | Some c -> fail st (Printf.sprintf "invalid escape \\%c" c)
        | None -> fail st "unterminated escape")
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek st with Some c -> is_num_char c | None -> false) do
    advance st
  done;
  let text = String.sub st.s start (st.pos - start) in
  let has c = String.contains text c in
  if (not (has '.')) && (not (has 'e')) && not (has 'E') then
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt text with
        | Some x -> Float x
        | None -> fail st (Printf.sprintf "invalid number %S" text))
  else
    match float_of_string_opt text with
    | Some x -> Float x
    | None -> fail st (Printf.sprintf "invalid number %S" text)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin
        advance st;
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws st;
          let k = parse_string_body st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          fields := (k, v) :: !fields;
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              members ()
          | Some '}' -> advance st
          | _ -> fail st "expected , or } in object"
        in
        members ();
        Obj (List.rev !fields)
      end
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin
        advance st;
        List []
      end
      else begin
        let elems = ref [] in
        let rec items () =
          let v = parse_value st in
          elems := v :: !elems;
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              items ()
          | Some ']' -> advance st
          | _ -> fail st "expected , or ] in array"
        in
        items ();
        List (List.rev !elems)
      end
  | Some '"' -> String (parse_string_body st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st (Printf.sprintf "unexpected character %c" c)

let of_string s =
  let st = { s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  (match peek st with
  | None -> ()
  | Some c -> fail st (Printf.sprintf "trailing garbage starting at %c" c));
  v

let of_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))

(* ------------------------------------------------------------------ *)
(* accessors                                                           *)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let to_list_opt = function List xs -> Some xs | _ -> None

let to_float_opt = function
  | Float x -> Some x
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_int_opt = function Int i -> Some i | _ -> None

let to_string_opt = function String s -> Some s | _ -> None
