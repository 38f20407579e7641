open Opm_signal

exception Parse_error of { line : int; message : string }

let fail line fmt = Printf.ksprintf (fun message -> raise (Parse_error { line; message })) fmt

let suffix_table =
  [
    ("meg", 1e6);
    ("t", 1e12);
    ("g", 1e9);
    ("k", 1e3);
    ("m", 1e-3);
    ("u", 1e-6);
    ("n", 1e-9);
    ("p", 1e-12);
    ("f", 1e-15);
  ]

(* the bytes [String.trim] drops *)
let is_blank = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* the number in [s.[lo..hi)], trimmed and lowercased first *)
let value_in s lo hi =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi && is_blank (String.unsafe_get s !lo) do incr lo done;
  while !hi > !lo && is_blank (String.unsafe_get s (!hi - 1)) do decr hi done;
  if !lo = !hi then failwith "Parser.parse_value: empty value";
  let b = Bytes.create (!hi - !lo) in
  for i = 0 to Bytes.length b - 1 do
    Bytes.unsafe_set b i (Char.lowercase_ascii (String.unsafe_get s (!lo + i)))
  done;
  let s = Bytes.unsafe_to_string b in
  match float_of_string s with
  | v -> v
  | exception Failure _ -> (
      let try_suffix (suffix, mult) =
        let ls = String.length s and lx = String.length suffix in
        if ls > lx && String.ends_with ~suffix s then
          match float_of_string_opt (String.sub s 0 (ls - lx)) with
          | Some v -> Some (v *. mult)
          | None -> None
        else None
      in
      match List.find_map try_suffix suffix_table with
      | Some v -> v
      | None -> failwith (Printf.sprintf "Parser.parse_value: cannot parse %S" s))

let parse_value s = value_in s 0 (String.length s)

let numbers_in line_no s =
  (* arguments inside parens, space- or comma-separated *)
  String.split_on_char ',' s
  |> List.concat_map (String.split_on_char ' ')
  |> List.filter_map (fun tok ->
         let tok = String.trim tok in
         if tok = "" then None
         else
           match parse_value tok with
           | v -> Some v
           | exception Failure m -> fail line_no "%s" m)

let parse_call line_no token =
  (* "name(args)" -> (name, args-numbers); bare values -> ("", [v]) *)
  match String.index_opt token '(' with
  | None -> None
  | Some i ->
      if token.[String.length token - 1] <> ')' then
        fail line_no "malformed source call %S" token;
      let name = String.lowercase_ascii (String.sub token 0 i) in
      let args = String.sub token (i + 1) (String.length token - i - 2) in
      Some (name, numbers_in line_no args)

let parse_source line_no tokens =
  match tokens with
  | [] -> fail line_no "missing source specification"
  | [ tok ] -> (
      match parse_call line_no tok with
      | None -> (
          match parse_value tok with
          | v -> Source.Dc v
          | exception Failure m -> fail line_no "%s" m)
      | Some (fn, args) -> (
          match (fn, args) with
          | "step", [ amplitude ] -> Source.Step { amplitude; delay = 0.0 }
          | "step", [ amplitude; delay ] -> Source.Step { amplitude; delay }
          | "pulse", [ low; high; delay; width; period ] ->
              let period = if period = 0.0 then Float.infinity else period in
              Source.Pulse { low; high; delay; width; period }
          | "sin", [ offset; amplitude; freq_hz ] ->
              Source.Sine { amplitude; freq_hz; phase = 0.0; offset }
          | "sin", [ offset; amplitude; freq_hz; phase ] ->
              Source.Sine { amplitude; freq_hz; phase; offset }
          | "exp", [ amplitude; tau ] -> Source.Exp_decay { amplitude; tau }
          | "ramp", [ slope ] -> Source.Ramp { slope; delay = 0.0 }
          | "ramp", [ slope; delay ] -> Source.Ramp { slope; delay }
          | "pwl", args ->
              if List.length args < 2 || List.length args mod 2 <> 0 then
                fail line_no "pwl needs an even number of arguments";
              let rec pairs = function
                | t :: v :: rest -> (t, v) :: pairs rest
                | [] -> []
                | [ _ ] -> assert false
              in
              (try Source.pwl (pairs args)
               with Invalid_argument m -> fail line_no "%s" m)
          | _ ->
              fail line_no "unknown source %s with %d argument(s)" fn
                (List.length args)))
  | "dc" :: rest -> (
      match rest with
      | [ tok ] -> (
          match parse_value tok with
          | v -> Source.Dc v
          | exception Failure m -> fail line_no "%s" m)
      | _ -> fail line_no "dc takes one value")
  | _ -> fail line_no "cannot parse source specification"

let parse_keyed line_no key tok =
  (* "q=1u" *)
  match String.split_on_char '=' tok with
  | [ k; v ] when String.lowercase_ascii k = key -> (
      match parse_value v with
      | x -> x
      | exception Failure m -> fail line_no "%s" m)
  | _ -> fail line_no "expected %s=<value>, got %S" key tok

(* Token boundaries of the current line: [starts.(k), stops.(k)) in
   [text]. Separators are blanks, tabs and commas outside parentheses. *)
type tokens = {
  text : string;
  mutable starts : int array;
  mutable stops : int array;
  mutable count : int;
}

let push toks lo hi =
  if toks.count = Array.length toks.starts then begin
    let grow a = Array.append a (Array.make (Array.length a) 0) in
    toks.starts <- grow toks.starts;
    toks.stops <- grow toks.stops
  end;
  toks.starts.(toks.count) <- lo;
  toks.stops.(toks.count) <- hi;
  toks.count <- toks.count + 1

let tokenize line_no toks lo hi =
  let text = toks.text in
  toks.count <- 0;
  let depth = ref 0 and start = ref (-1) in
  for i = lo to hi - 1 do
    match String.unsafe_get text i with
    | ' ' | '\t' | ',' when !depth = 0 ->
        if !start >= 0 then begin
          push toks !start i;
          start := -1
        end
    | ch ->
        if !start < 0 then start := i;
        if ch = '(' then incr depth
        else if ch = ')' then begin
          decr depth;
          if !depth < 0 then fail line_no "unbalanced ')'"
        end
  done;
  if !depth <> 0 then fail line_no "unbalanced '('";
  if !start >= 0 then push toks !start hi

let is_end text lo hi =
  hi - lo = 4
  && text.[lo] = '.'
  && Char.lowercase_ascii text.[lo + 1] = 'e'
  && Char.lowercase_ascii text.[lo + 2] = 'n'
  && Char.lowercase_ascii text.[lo + 3] = 'd'

let tok toks k = String.sub toks.text toks.starts.(k) (toks.stops.(k) - toks.starts.(k))

let value line_no toks k =
  match value_in toks.text toks.starts.(k) toks.stops.(k) with
  | v -> v
  | exception Failure m -> fail line_no "%s" m

let only_value line_no toks name =
  if toks.count = 4 then value line_no toks 3
  else fail line_no "%s expects exactly one value" name

let source line_no toks =
  parse_source line_no (List.init (toks.count - 3) (fun k -> tok toks (k + 3)))

(* the element on the trimmed, comment-free line [text.[lo..hi)] *)
let parse_element line_no toks lo hi =
  tokenize line_no toks lo hi;
  let n = toks.count in
  if n < 3 then fail line_no "element line needs a designator and two nodes";
  let name = tok toks 0 in
  let plus = tok toks 1 and minus = tok toks 2 in
  match Char.lowercase_ascii name.[0] with
  | 'r' -> Netlist.r name plus minus (only_value line_no toks name)
  | 'c' -> Netlist.c name plus minus (only_value line_no toks name)
  | 'l' -> Netlist.l name plus minus (only_value line_no toks name)
  | 'p' ->
      if n <> 5 then fail line_no "CPE syntax: P<name> n+ n- q=<v> alpha=<v>";
      let q = parse_keyed line_no "q" (tok toks 3) in
      let alpha = parse_keyed line_no "alpha" (tok toks 4) in
      Netlist.cpe name plus minus ~q ~alpha
  | 'v' -> Netlist.v name plus minus (source line_no toks)
  | 'i' -> Netlist.i name plus minus (source line_no toks)
  | 'g' ->
      if n <> 6 then fail line_no "VCCS syntax: G<name> n+ n- nc+ nc- <gm>";
      let ctrl = (tok toks 3, tok toks 4) in
      Netlist.vccs name plus minus ~ctrl ~gm:(value line_no toks 5)
  | 'e' ->
      if n <> 6 then fail line_no "VCVS syntax: E<name> n+ n- nc+ nc- <gain>";
      let ctrl = (tok toks 3, tok toks 4) in
      Netlist.vcvs name plus minus ~ctrl ~gain:(value line_no toks 5)
  | _ -> fail line_no "unknown element type %C" name.[0]

let parse_string text =
  let net = Netlist.create () in
  let toks = { text; starts = Array.make 8 0; stops = Array.make 8 0; count = 0 } in
  let len = String.length text in
  let rec line line_no pos =
    (* the line runs to the next '\n'; a ';' ends its content *)
    let eol = ref pos and cut = ref (-1) in
    while !eol < len && String.unsafe_get text !eol <> '\n' do
      if !cut < 0 && String.unsafe_get text !eol = ';' then cut := !eol;
      incr eol
    done;
    let lo = ref pos and hi = ref (if !cut < 0 then !eol else !cut) in
    while !lo < !hi && is_blank (String.unsafe_get text !lo) do incr lo done;
    while !hi > !lo && is_blank (String.unsafe_get text (!hi - 1)) do decr hi done;
    if !lo < !hi && text.[!lo] <> '*' && not (is_end text !lo !hi) then begin
      (* safety net: no bare [Failure] (e.g. from a value parser) may
         escape without its 1-based line number attached *)
      let inst =
        try parse_element line_no toks !lo !hi
        with Failure m -> fail line_no "%s" m
      in
      try Netlist.add net inst
      with Invalid_argument m | Failure m -> fail line_no "%s" m
    end;
    if !eol < len then line (line_no + 1) (!eol + 1)
  in
  line 1 0;
  net

let parse_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  parse_string text
