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

let output_count sys = fst (Mat.dims sys.c)

let to_first_order sys =
  if sys.input_order <> 0 then
    invalid_arg "Multi_term.to_first_order: differentiated input";
  let n = order sys in
  let find_order target =
    List.filter (fun t -> t.alpha = target) sys.terms
    |> List.fold_left
         (fun acc t ->
           match acc with
           | None -> Some t.coeff
           | Some prev -> Some (Csr.add prev t.coeff))
         None
  in
  List.iter
    (fun t ->
      if t.alpha <> 1.0 && t.alpha <> 2.0 then
        invalid_arg
          (Printf.sprintf
             "Multi_term.to_first_order: order %g is not in {1, 2}" t.alpha))
    sys.terms;
  let e1 = find_order 1.0 in
  match find_order 2.0 with
  | None ->
      (* already first order *)
      let e =
        match e1 with Some m -> m | None -> Csr.zero ~rows:n ~cols:n
      in
      Descriptor.make ~state_names:sys.state_names
        ~output_names:sys.output_names ~e ~a:sys.a ~b:sys.b ~c:sys.c ()
  | Some e2 ->
      let e1 = Option.value e1 ~default:(Csr.zero ~rows:n ~cols:n) in
      let coo_e = Coo.create ~rows:(2 * n) ~cols:(2 * n) in
      for i = 0 to n - 1 do
        Coo.add coo_e i i 1.0
      done;
      Csr.iter (fun i j v -> Coo.add coo_e (n + i) (n + j) v) e2;
      let coo_a = Coo.create ~rows:(2 * n) ~cols:(2 * n) in
      for i = 0 to n - 1 do
        Coo.add coo_a i (n + i) 1.0
      done;
      Csr.iter (fun i j v -> Coo.add coo_a (n + i) j v) sys.a;
      Csr.iter (fun i j v -> Coo.add coo_a (n + i) (n + j) (-.v)) e1;
      let p = input_count sys in
      let b = Mat.zeros (2 * n) p in
      for i = 0 to n - 1 do
        for j = 0 to p - 1 do
          Mat.set b (n + i) j (Mat.get sys.b i j)
        done
      done;
      let q = output_count sys in
      let c = Mat.zeros q (2 * n) in
      for i = 0 to q - 1 do
        for j = 0 to n - 1 do
          Mat.set c i j (Mat.get sys.c i j)
        done
      done;
      let state_names =
        Array.append sys.state_names
          (Array.map (Printf.sprintf "d/dt %s") sys.state_names)
      in
      Descriptor.make ~state_names ~output_names:sys.output_names
        ~e:(Coo.to_csr coo_e) ~a:(Coo.to_csr coo_a) ~b ~c ()
