open Opm_numkit
open Opm_sparse

type t = {
  e : Csr.t;
  a : Csr.t;
  b : Mat.t;
  c : Mat.t;
  state_names : string array;
  output_names : string array;
}

let make ?state_names ?output_names ~e ~a ~b ~c () =
  let n, n' = Csr.dims e in
  if n <> n' then invalid_arg "Descriptor.make: E not square";
  let na, na' = Csr.dims a in
  if na <> n || na' <> n then invalid_arg "Descriptor.make: A dims mismatch E";
  let nb, _p = Mat.dims b in
  if nb <> n then invalid_arg "Descriptor.make: B row count mismatch";
  let q, nc = Mat.dims c in
  if nc <> n then invalid_arg "Descriptor.make: C column count mismatch";
  let state_names =
    match state_names with
    | Some s ->
        if Array.length s <> n then invalid_arg "Descriptor.make: state name count";
        s
    | None -> Array.init n (Printf.sprintf "x%d")
  in
  let output_names =
    match output_names with
    | Some s ->
        if Array.length s <> q then
          invalid_arg "Descriptor.make: output name count";
        s
    | None -> Array.init q (Printf.sprintf "y%d")
  in
  { e; a; b; c; state_names; output_names }

let of_dense ?state_names ?output_names ~e ~a ~b ~c () =
  make ?state_names ?output_names ~e:(Csr.of_dense e) ~a:(Csr.of_dense a) ~b ~c ()

let order sys = fst (Csr.dims sys.e)

let input_count sys = snd (Mat.dims sys.b)

let output_count sys = fst (Mat.dims sys.c)

let e_dense sys = Csr.to_dense sys.e

let a_dense sys = Csr.to_dense sys.a

let scalar ~e ~a ~b =
  of_dense
    ~e:(Mat.of_arrays [| [| e |] |])
    ~a:(Mat.of_arrays [| [| a |] |])
    ~b:(Mat.of_arrays [| [| b |] |])
    ~c:(Mat.eye 1) ()

let random_stable ?(seed = 42) ~n ~p ~q () =
  let st = Random.State.make [| seed |] in
  let a =
    Mat.init n n (fun i j ->
        if i = j then 0.0 else Random.State.float st 2.0 -. 1.0)
  in
  (* make each diagonal dominate its row so the spectrum is in the left
     half plane *)
  for i = 0 to n - 1 do
    let row_sum = ref 0.0 in
    for j = 0 to n - 1 do
      if j <> i then row_sum := !row_sum +. Float.abs (Mat.get a i j)
    done;
    Mat.set a i i (-. !row_sum -. 1.0 -. Random.State.float st 1.0)
  done;
  let b = Mat.init n p (fun _ _ -> Random.State.float st 2.0 -. 1.0) in
  let c = Mat.init q n (fun _ _ -> Random.State.float st 2.0 -. 1.0) in
  of_dense ~e:(Mat.eye n) ~a ~b ~c ()
