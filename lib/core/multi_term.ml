open Opm_numkit
open Opm_sparse

type term = { coeff : Csr.t; alpha : float }

type t = {
  terms : term list;
  a : Csr.t;
  b : Mat.t;
  c : Mat.t;
  input_order : int;
  state_names : string array;
  output_names : string array;
}

let make ?(input_order = 0) ?state_names ?output_names ~terms ~a ~b ~c () =
  if terms = [] then invalid_arg "Multi_term.make: no differential terms";
  if input_order < 0 then invalid_arg "Multi_term.make: input_order < 0";
  let n, n' = Csr.dims a in
  if n <> n' then invalid_arg "Multi_term.make: A not square";
  List.iter
    (fun (coeff, alpha) ->
      if alpha <= 0.0 then invalid_arg "Multi_term.make: term alpha <= 0";
      if Csr.dims coeff <> (n, n) then
        invalid_arg "Multi_term.make: term dimension mismatch")
    terms;
  let nb, _ = Mat.dims b in
  if nb <> n then invalid_arg "Multi_term.make: B row count mismatch";
  let q, nc = Mat.dims c in
  if nc <> n then invalid_arg "Multi_term.make: C column count mismatch";
  let state_names =
    match state_names with
    | Some s ->
        if Array.length s <> n then invalid_arg "Multi_term.make: state names";
        s
    | None -> Array.init n (Printf.sprintf "x%d")
  in
  let output_names =
    match output_names with
    | Some s ->
        if Array.length s <> q then invalid_arg "Multi_term.make: output names";
        s
    | None -> Array.init q (Printf.sprintf "y%d")
  in
  {
    terms = List.map (fun (coeff, alpha) -> { coeff; alpha }) terms;
    a;
    b;
    c;
    input_order;
    state_names;
    output_names;
  }

let of_fractional ~alpha (d : Descriptor.t) =
  make
    ~state_names:d.Descriptor.state_names
    ~output_names:d.Descriptor.output_names
    ~terms:[ (d.Descriptor.e, alpha) ]
    ~a:d.Descriptor.a ~b:d.Descriptor.b ~c:d.Descriptor.c ()

let of_linear d = of_fractional ~alpha:1.0 d

let second_order ?input_order ?state_names ?output_names ~m2 ~m1 ~m0 ~b ~c () =
  make ?input_order ?state_names ?output_names
    ~terms:[ (m2, 2.0); (m1, 1.0) ]
    ~a:(Csr.scale (-1.0) m0)
    ~b ~c ()

let order sys = fst (Csr.dims sys.a)

let input_count sys = snd (Mat.dims sys.b)
