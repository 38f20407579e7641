open Opm_numkit
open Opm_basis
open Opm_signal

type t = {
  grid : Grid.t;
  x : Mat.t;
  states : Waveform.t;
  outputs : Waveform.t;
  health : Opm_robust.Health.t option;
}

module Builder = struct
  type builder = {
    n : int;
    mutable rev_blocks : Mat.t list;
    mutable cols : int;
  }

  let create ~n =
    if n < 0 then invalid_arg "Sim_result.Builder.create: n < 0";
    { n; rev_blocks = []; cols = 0 }

  let append b blk =
    let bn, bm = Mat.dims blk in
    if bn <> b.n then
      invalid_arg
        (Printf.sprintf
           "Sim_result.Builder.append: block has %d rows, builder expects %d"
           bn b.n);
    b.rev_blocks <- blk :: b.rev_blocks;
    b.cols <- b.cols + bm

  let cols b = b.cols

  let to_mat b =
    let x = Mat.zeros b.n b.cols in
    let off = ref 0 in
    List.iter
      (fun blk ->
        let _, bm = Mat.dims blk in
        for i = 0 to bm - 1 do
          Mat.set_col x (!off + i) (Mat.col blk i)
        done;
        off := !off + bm)
      (List.rev b.rev_blocks);
    x
end

let make ?health ~grid ~x ~c ~state_names ~output_names () =
  let times = Grid.midpoints grid in
  let n, _m = Mat.dims x in
  (* row copies and one small C·X product: serial, because a pool
     handshake costs more than this work, and once the pool has spawned
     its worker domain every minor collection must stop it too *)
  let states = Waveform.make ~labels:state_names times (Array.init n (Mat.row x)) in
  let y = Mat.mul c x in
  let q, _ = Mat.dims y in
  let outputs = Waveform.make ~labels:output_names times (Array.init q (Mat.row y)) in
  { grid; x; states; outputs; health }

let output r i = Waveform.channel r.outputs i

let state r i = Waveform.channel r.states i

let health r = r.health

let health_report ?cond_limit r =
  match r.health with
  | None -> None
  | Some h -> Some (Opm_robust.Health.to_string ?cond_limit h)
