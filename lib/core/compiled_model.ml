open Opm_numkit
open Opm_sparse
open Opm_basis
open Opm_signal
module Metrics = Opm_obs.Metrics
module Trace = Opm_obs.Trace

type basis = [ `Bpf | `Spectral ]

let m_queries = Metrics.counter "compiled.queries"
let m_factor_reuse = Metrics.counter "compiled.factor_reuse"

let input_coefficients ~grid sources =
  let m = Grid.size grid in
  let p = Array.length sources in
  let u = Mat.zeros p m in
  Array.iteri
    (fun r src ->
      let coeffs = Block_pulse.project_source grid src in
      for i = 0 to m - 1 do
        Mat.set u r i coeffs.(i)
      done)
    sources;
  u

(* input derivative d^r u/dt^r acts on coefficients as U·D^r. On a
   uniform grid D = (2/h)(I−Q)(I+Q)⁻¹ (paper eq. (21)), so y = u·D is the
   recurrence y_i = (2/h)(u_i − u_{i−1}) − y_{i−1}, applied r times:
   O(p·m·r) and no m×m matrix. An adaptive grid multiplies by its dense
   D. *)
let apply_input_order ~grid (sys : Multi_term.t) u =
  let order = sys.Multi_term.input_order in
  if order = 0 then u
  else
    match grid with
    | Grid.Uniform { t_end; m } ->
        let c = 2.0 /. (t_end /. float_of_int m) in
        let y = Mat.copy u in
        for _ = 1 to order do
          for r = 0 to fst (Mat.dims y) - 1 do
            let u_prev = ref 0.0 and y_prev = ref 0.0 in
            for i = 0 to m - 1 do
              let ui = Mat.get y r i in
              y_prev := (c *. (ui -. !u_prev)) -. !y_prev;
              u_prev := ui;
              Mat.set y r i !y_prev
            done
          done
        done;
        y
    | Grid.Adaptive _ ->
        let d = Block_pulse.differential_matrix grid in
        let rec apply u k = if k = 0 then u else apply (Mat.mul u d) (k - 1) in
        apply u order

(* U·D^r, the p×m projected inputs *)
let projected_inputs ~grid (sys : Multi_term.t) sources =
  let p = Multi_term.input_count sys in
  if Array.length sources <> p then
    invalid_arg
      (Printf.sprintf "Opm: system has %d inputs but %d sources given" p
         (Array.length sources));
  apply_input_order ~grid sys (input_coefficients ~grid sources)

let bu_matrix ~grid (sys : Multi_term.t) sources =
  Trace.with_span "opm.project_inputs" @@ fun () ->
  Mat.mul sys.Multi_term.b (projected_inputs ~grid sys sources)

(* A·x₀, the forcing shift of the substitution z = x − x₀ (the Caputo
   derivative of a constant vanishes for every α > 0, so the
   differential terms are untouched): E d^α z = A z + (B u + A x₀) *)
let x0_shift (sys : Multi_term.t) = function
  | None -> None
  | Some x0 ->
      if Array.length x0 <> Multi_term.order sys then
        invalid_arg "Opm: x0 length mismatch with system order";
      Some (Csr.mul_vec sys.Multi_term.a x0)

(* The entries of [a] that [Mat.mul] does not skip (x <> 0.0, so a NaN
   stays), by rows in ascending column order: [Csr.mul_vec] over them
   sums a row from +0.0 in [Mat.mul]'s order, so a column-at-a-time
   product keeps the bits of the matrix product. *)
let mul_rows (a : Mat.t) =
  let rows, cols = Mat.dims a in
  let kept r k = Array.unsafe_get a.Mat.data ((r * cols) + k) <> 0.0 in
  let row_ptr = Array.make (rows + 1) 0 in
  for r = 0 to rows - 1 do
    let nz = ref 0 in
    for k = 0 to cols - 1 do
      if kept r k then incr nz
    done;
    row_ptr.(r + 1) <- row_ptr.(r) + !nz
  done;
  let col_ind = Array.make row_ptr.(rows) 0 and values = Array.make row_ptr.(rows) 0.0 in
  let at = ref 0 in
  for r = 0 to rows - 1 do
    for k = 0 to cols - 1 do
      if kept r k then begin
        col_ind.(!at) <- k;
        values.(!at) <- a.Mat.data.((r * cols) + k);
        incr at
      end
    done
  done;
  { Csr.rows; cols; row_ptr; col_ind; values }

(* Column i of the forcing B·U (+ A·x₀) from the p×m inputs [u] *)
let forcing b u ax0 i =
  let v = Csr.mul_vec b (Mat.col u i) in
  Option.iter (fun ax0 -> Array.iteri (fun r a -> v.(r) <- v.(r) +. a) ax0) ax0;
  v

(* The sink of [solve_outputs]: y_i = C·(x_i + x₀) into q rows of m
   samples *)
let output_sink c x0 m =
  let ys = Array.init c.Csr.rows (fun _ -> Array.make m 0.0) in
  let emit i xi =
    let xi = match x0 with None -> xi | Some x0 -> Array.mapi (fun k v -> v +. x0.(k)) xi in
    Array.iteri (fun r y -> ys.(r).(i) <- y) (Csr.mul_vec c xi)
  in
  (ys, emit)

(* ------------------------------------------------------------------ *)

(* Everything plant-dependent, computed once at [compile]: the pencil,
   the column history (with its lag operators and kernel spectra) and
   the factored column-0 block. A query writes no model-level state
   except under a lock (the pencil's factor cache) or through an Atomic
   (the counters), so queries may run on several domains at once. *)
type plan =
  | Spectral of Spectral_solver.t
  | Column of { pencil : Engine.pencil; history : Engine.history }
      (* one pencil per model: every block this model ever factors
         (prefactor at compile, cache misses at query) is cached on it,
         and it replays one symbolic analysis for all of them *)

type t = {
  sys : Multi_term.t;
  grid : Grid.t;
  window : int option;  (* a width below the horizon: the windowed driver *)
  memory_len : int option;
  plan : plan;
  queries : int Atomic.t;
}

let grid t = t.grid

let queries t = Atomic.get t.queries

(* Per-model factor statistics, read from this model's own pencil. The
   [compiled.factor_reuse] metrics counter aggregates over every model
   in the process — useless to a server that hosts many plants and
   must report (and test) reuse per plant — whereas the hit/miss
   counters live on the pencil's cache, and the model's pencil is
   exactly the per-plant view. *)
let factor_reuse t =
  match t.plan with
  | Spectral sp -> Spectral_solver.factor_reuse sp
  | Column { pencil; _ } -> fst (Engine.pencil_lookups pencil)

let factorisations t =
  match t.plan with
  | Spectral sp -> Spectral_solver.factorisations sp
  | Column { pencil; _ } -> snd (Engine.pencil_lookups pencil)

let basis t = match t.plan with Spectral _ -> `Spectral | Column _ -> `Bpf

let compile ?(basis = `Bpf) ?health ?window ?memory_len ~grid (sys : Multi_term.t) =
  Trace.with_span "compiled.compile" @@ fun () ->
  let m = Grid.size grid in
  (match window with
  | Some w when w < 1 -> invalid_arg "Opm: window width must be >= 1"
  | _ -> ());
  let model plan window memory_len =
    { sys; grid; window; memory_len; plan; queries = Atomic.make 0 }
  in
  match basis with
  | `Spectral ->
      (* the collocation operator has no windowed/streaming form: the
         fractional differentiation matrix is globally dense, and m is
         tiny by design, so there is no history to truncate either *)
      if window <> None then
        invalid_arg "Opm: ?window streaming requires the block-pulse basis";
      if memory_len <> None then
        invalid_arg "Opm: ?memory_len requires the block-pulse basis";
      model (Spectral (Spectral_solver.compile ?health ~grid sys)) None None
  | `Bpf ->
      (* prefactoring is gated on uniformity: an adaptive grid has one
         block per distinct step, and its first query factors them *)
      let uniform =
        match grid with Grid.Uniform _ -> true | Grid.Adaptive _ -> false
      in
      (* a window as wide as the horizon is the global solve; the
         memory cutoff acts only between windows *)
      let window, memory_len =
        match window with
        | Some w when w < m ->
            if not uniform then
              invalid_arg "Opm: windowed streaming requires a uniform grid";
            (Some w, memory_len)
        | _ -> (None, None)
      in
      let history =
        match (sys.Multi_term.terms, sys.Multi_term.input_order) with
        | [ { Multi_term.alpha = 1.0; _ } ], 0 -> Engine.alternating (Grid.steps grid)
        | terms, _ -> (
            let orders = List.map (fun { Multi_term.alpha; _ } -> alpha) terms in
            Trace.with_span "opm.operational_matrices" @@ fun () ->
            match grid with
            | Grid.Uniform { t_end; m } ->
                (* each D^α is upper-triangular Toeplitz: the engine
                   derives its banded recurrence and fractional kernels
                   from the orders and step *)
                Engine.toeplitz ~orders ~step:(t_end /. float_of_int m) m
            | Grid.Adaptive _ ->
                (* near-uniform adaptive grids stay off the Toeplitz
                   path too: every [Grid.Adaptive] solve is
                   bit-identical to the naive engine *)
                Engine.triangular ~orders
                  (List.map (Block_pulse.fractional_differential_matrix grid) orders))
      in
      let pencil =
        Engine.pencil
          (List.map (fun { Multi_term.coeff; _ } -> coeff) sys.Multi_term.terms
          @ [ sys.Multi_term.a ])
      in
      if uniform then
        ignore
          (Engine.prepare { Engine.default with health } pencil history
            : Engine.plan);
      model (Column { pencil; history }) window memory_len

let count_query t =
  Atomic.incr t.queries;
  Metrics.incr m_queries

let global_checkpoint checkpoint resume_from =
  if checkpoint <> None || resume_from <> None then
    invalid_arg
      "Compiled_model.solve: checkpointing requires a windowed model \
       (compile with ?window)"

(* One query of a column plan: the engine loop, fed B·u_i (+ A·x₀) per
   column from the p×m inputs [u], emitting each solved column to
   [emit]; a windowed model runs the same loop through the windowed
   driver. *)
let column_query ?health ?budget ?checkpoint ?checkpoint_every ?resume_from ?ax0 t
    pencil history u emit =
  Trace.with_span "compiled_solve" @@ fun () ->
  if t.window = None then global_checkpoint checkpoint resume_from;
  count_query t;
  let ctx = { Engine.health; budget } in
  let bu = forcing (mul_rows t.sys.Multi_term.b) u ax0 in
  let hits =
    match t.window with
    | Some window ->
        Window.run ?memory_len:t.memory_len ?checkpoint ?checkpoint_every ?resume_from
          ~window ctx pencil history ~bu ~emit
    | None ->
        let plan = Engine.prepare ctx pencil history in
        Engine.run plan ~bu ~emit;
        fst (Engine.lookups plan)
  in
  Metrics.incr ~by:hits m_factor_reuse

let column_solve ?health ?budget ?checkpoint ?checkpoint_every ?resume_from ?x0 t
    pencil history sources emit =
  let u =
    Trace.with_span "opm.project_inputs" @@ fun () ->
    projected_inputs ~grid:t.grid t.sys sources
  in
  column_query ?health ?budget ?checkpoint ?checkpoint_every ?resume_from
    ?ax0:(x0_shift t.sys x0) t pencil history u emit

let spectral_rejected () =
  invalid_arg
    "Compiled_model: spectral-basis models sample sources at the \
     collocation nodes — use solve, not BPF coefficients"

let solve_coeffs t u =
  let p = Multi_term.input_count t.sys in
  let m = Grid.size t.grid in
  let ur, uc = Mat.dims u in
  if ur <> p || uc <> m then
    invalid_arg
      (Printf.sprintf
         "Compiled_model.solve_coeffs: u is %d×%d but system/grid need %d×%d"
         ur uc p m);
  let u = apply_input_order ~grid:t.grid t.sys u in
  match t.plan with
  | Spectral _ -> spectral_rejected ()
  | Column { pencil; history } ->
      let x = Mat.zeros (Multi_term.order t.sys) m in
      column_query t pencil history u (fun i xi -> Mat.set_col x i xi);
      x

let solve_spectral ?health ?budget ?checkpoint ?resume_from ?x0 t sp sources =
  global_checkpoint checkpoint resume_from;
  count_query t;
  let result = Spectral_solver.solve ?health ?budget ?x0 sp sources in
  Metrics.incr m_factor_reuse;
  result

let result t x =
  Sim_result.make ~grid:t.grid ~x ~c:t.sys.Multi_term.c
    ~output_names:t.sys.Multi_term.output_names ()

let solve ?health ?budget ?checkpoint ?checkpoint_every ?resume_from ?x0 t
    sources =
  match t.plan with
  | Spectral sp -> solve_spectral ?health ?budget ?checkpoint ?resume_from ?x0 t sp sources
  | Column { pencil; history } ->
      let x = Mat.zeros (Multi_term.order t.sys) (Grid.size t.grid) in
      column_solve ?health ?budget ?checkpoint ?checkpoint_every ?resume_from ?x0 t
        pencil history sources
        (match x0 with
        | None -> fun i xi -> Mat.set_col x i xi
        | Some x0 -> fun i xi -> Array.iteri (fun r v -> Mat.set x r i (v +. x0.(r))) xi);
      result t x

let solve_outputs ?budget ?x0 t sources =
  match t.plan with
  | Spectral _ -> (solve ?budget ?x0 t sources).Sim_result.outputs
  | Column { pencil; history } ->
      let ys, emit = output_sink (mul_rows t.sys.Multi_term.c) x0 (Grid.size t.grid) in
      column_solve ?budget ?x0 t pencil history sources emit;
      Waveform.make ~labels:t.sys.Multi_term.output_names (Grid.midpoints t.grid) ys
