open Opm_numkit
open Opm_sparse
open Opm_basis
module Metrics = Opm_obs.Metrics
module Trace = Opm_obs.Trace

type backend = [ `Auto | `Dense | `Sparse ]
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

(* input derivative d^r u/dt^r acts on coefficients as U · D^r; [deriv]
   lets a compiled model substitute its cached differentiation matrix *)
let apply_input_order ?deriv ~grid (sys : Multi_term.t) u =
  if sys.Multi_term.input_order = 0 then u
  else
    let d =
      match deriv with
      | Some d -> d ()
      | None -> Block_pulse.differential_matrix grid
    in
    let rec apply u k = if k = 0 then u else apply (Mat.mul u d) (k - 1) in
    apply u sys.Multi_term.input_order

let bu_matrix ?deriv ~grid (sys : Multi_term.t) sources =
  Trace.with_span "opm.project_inputs" @@ fun () ->
  let p = Multi_term.input_count sys in
  if Array.length sources <> p then
    invalid_arg
      (Printf.sprintf "Opm: system has %d inputs but %d sources given" p
         (Array.length sources));
  let u = input_coefficients ~grid sources in
  Mat.mul sys.Multi_term.b (apply_input_order ?deriv ~grid sys u)

let shift_by_x0 x x0 =
  let n, m = Mat.dims x in
  Mat.init n m (fun r i -> Mat.get x r i +. x0.(r))

(* ------------------------------------------------------------------ *)

(* Everything plant-dependent, computed once at [compile]: the pencil,
   the operational matrices (held by the column history, together with
   the FFT convolver it reuses across queries) and the factored (pinned)
   column-0 block. Queries touch only the input-dependent RHS. *)
type plan =
  | Spectral of Spectral_solver.t
  | Windowed of { w : int }
  | Column of Engine.history

type t = {
  sys : Multi_term.t;
  grid : Grid.t;
  memory_len : int option;
  plan : plan;
  pencil : Engine.pencil;
  fcache : Engine.cache;
      (* one cache per model: every block this model ever factors
         (prefactor at compile, cache misses at query) lives here, and
         the pencil replays one symbolic analysis for all of them *)
  series_cache : (float * int, float array) Hashtbl.t;
  u_deriv : Mat.t Lazy.t;
  mutable queries : int;
}

let grid t = t.grid

let system t = t.sys

let queries t = t.queries

let backend t = Engine.backend t.pencil

(* Per-model factor statistics, read from this model's own cache. The
   [compiled.factor_reuse] metrics counter aggregates over every model
   in the process — useless to a server that hosts many plants and
   must report (and test) reuse per plant — whereas the
   [Engine.Factor_cache] hit/miss counters live on the cache record
   itself, so the model's cache is exactly the per-plant view. *)
let factor_reuse t =
  match t.plan with
  | Spectral sp -> Spectral_solver.factor_reuse sp
  | Windowed _ | Column _ -> Engine.Factor_cache.hits t.fcache

let factorisations t =
  match t.plan with
  | Spectral sp -> Spectral_solver.factorisations sp
  | Windowed _ | Column _ -> Engine.Factor_cache.misses t.fcache

let basis t =
  match t.plan with Spectral _ -> `Spectral | Windowed _ | Column _ -> `Bpf

let compile ?(backend = `Auto) ?(basis = `Bpf) ?health ?window ?memory_len
    ~grid (sys : Multi_term.t) =
  Trace.with_span "compiled.compile" @@ fun () ->
  let m = Grid.size grid in
  (match window with
  | Some w when w < 1 -> invalid_arg "Opm: window width must be >= 1"
  | _ -> ());
  let pencil =
    Engine.pencil backend
      (List.map (fun { Multi_term.coeff; _ } -> coeff) sys.Multi_term.terms
      @ [ sys.Multi_term.a ])
  in
  let fcache = Engine.Factor_cache.create () in
  let series_cache = Hashtbl.create 8 in
  let u_deriv = lazy (Block_pulse.differential_matrix grid) in
  let model plan memory_len =
    { sys; grid; memory_len; plan; pencil; fcache; series_cache; u_deriv; queries = 0 }
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
      model (Spectral (Spectral_solver.compile ?health ~grid sys)) None
  | `Bpf ->
      (* pinning and prefactoring are gated on uniformity: an adaptive
         grid would pin one entry per distinct step, and the pinned set
         is unbounded; its first query factors instead *)
      let uniform =
        match grid with Grid.Uniform _ -> true | Grid.Adaptive _ -> false
      in
      let ctx = { Engine.default with health; fcache = Some fcache } in
      let plan =
        match window with
        | Some w when w < m ->
            (* prefactor the very block the Window driver will look up —
               same cache, same keys. Adaptive grids are rejected by
               Window at query time, so nothing to warm. *)
            if uniform then
              Window.prefactor ctx pencil ~series_cache ~window:w ~grid sys;
            Windowed { w }
        | _ ->
            let history =
              match (sys.Multi_term.terms, sys.Multi_term.input_order) with
              | [ { Multi_term.alpha = 1.0; _ } ], 0 ->
                  Engine.alternating (Grid.steps grid)
              | terms, _ -> (
                  let orders = List.map (fun { Multi_term.alpha; _ } -> alpha) terms in
                  Trace.with_span "opm.operational_matrices" @@ fun () ->
                  match grid with
                  | Grid.Uniform { t_end; m } ->
                      (* each D^α is upper-triangular Toeplitz: its
                         first row is all the engine reads *)
                      Engine.toeplitz ~orders ~step:(t_end /. float_of_int m)
                        ~horizon:m
                        (List.map
                           (Block_pulse.uniform_fractional_row ~t_end ~m)
                           orders)
                  | Grid.Adaptive _ ->
                      (* near-uniform adaptive grids stay off the Toeplitz
                         path too: every [Grid.Adaptive] solve is
                         bit-identical to the naive engine *)
                      Engine.triangular ~orders
                        (List.map
                           (Block_pulse.fractional_differential_matrix grid)
                           orders))
            in
            if uniform then ignore (Engine.prepare ctx pencil history : Engine.plan);
            Column history
      in
      model plan memory_len

let compile_linear ?backend ?basis ?health ?window ?memory_len ~grid sys =
  compile ?backend ?basis ?health ?window ?memory_len ~grid
    (Multi_term.of_linear sys)

let compile_fractional ?backend ?basis ?health ?window ?memory_len ~grid
    ~alpha sys =
  compile ?backend ?basis ?health ?window ?memory_len ~grid
    (Multi_term.of_fractional ~alpha sys)

let solve_bu ?health ?budget ?checkpoint ?checkpoint_every ?resume_from t bu =
  Trace.with_span "compiled_solve" @@ fun () ->
  (match t.plan with
  | Windowed _ -> ()
  | Spectral _ ->
      invalid_arg
        "Compiled_model: spectral-basis models sample sources at the \
         collocation nodes — use solve, not BPF coefficients"
  | Column _ ->
      if checkpoint <> None || resume_from <> None then
        invalid_arg
          "Compiled_model.solve: checkpointing requires a windowed model \
           (compile with ?window)");
  t.queries <- t.queries + 1;
  Metrics.incr m_queries;
  let hits0 = Engine.Factor_cache.hits t.fcache in
  let x =
    match t.plan with
    | Spectral _ -> assert false (* rejected above *)
    | Windowed { w } ->
        let x, _stats =
          Window.solve
            ~backend:(backend t :> backend)
            ?health ?memory_len:t.memory_len ~fcache:t.fcache
            ~series_cache:t.series_cache ?budget ?checkpoint
            ?checkpoint_every ?resume_from ~window:w ~grid:t.grid t.sys ~bu
        in
        x
    | Column history ->
        Engine.run
          (Engine.prepare
             { Engine.health; budget; fcache = Some t.fcache }
             t.pencil history)
          bu
  in
  Metrics.incr ~by:(Engine.Factor_cache.hits t.fcache - hits0) m_factor_reuse;
  x

let solve_coeffs ?health ?budget t u =
  let p = Multi_term.input_count t.sys in
  let m = Grid.size t.grid in
  let ur, uc = Mat.dims u in
  if ur <> p || uc <> m then
    invalid_arg
      (Printf.sprintf
         "Compiled_model.solve_coeffs: u is %d×%d but system/grid need %d×%d"
         ur uc p m);
  let u =
    apply_input_order ~deriv:(fun () -> Lazy.force t.u_deriv) ~grid:t.grid
      t.sys u
  in
  solve_bu ?health ?budget t (Mat.mul t.sys.Multi_term.b u)

let solve ?health ?budget ?checkpoint ?checkpoint_every ?resume_from ?x0 t
    sources =
  match t.plan with
  | Spectral sp ->
      if checkpoint <> None || resume_from <> None then
        invalid_arg
          "Compiled_model.solve: checkpointing requires a windowed model \
           (compile with ?window)";
      ignore checkpoint_every;
      t.queries <- t.queries + 1;
      Metrics.incr m_queries;
      let result = Spectral_solver.solve ?health ?budget ?x0 sp sources in
      Metrics.incr m_factor_reuse;
      result
  | Windowed _ | Column _ ->
  let bu =
    bu_matrix ~deriv:(fun () -> Lazy.force t.u_deriv) ~grid:t.grid t.sys
      sources
  in
  (* nonzero initial state by substitution z = x − x₀ (the Caputo
     derivative of a constant vanishes for every α > 0, so the
     differential terms are untouched): E d^α z = A z + (B u + A x₀) *)
  let bu, finish =
    match x0 with
    | None -> (bu, Fun.id)
    | Some x0 ->
        if Array.length x0 <> Multi_term.order t.sys then
          invalid_arg "Opm: x0 length mismatch with system order";
        let ax0 = Csr.mul_vec t.sys.Multi_term.a x0 in
        let n, m = Mat.dims bu in
        let bu' = Mat.init n m (fun r i -> Mat.get bu r i +. ax0.(r)) in
        (bu', fun x -> shift_by_x0 x x0)
  in
  let x =
    solve_bu ?health ?budget ?checkpoint ?checkpoint_every ?resume_from t bu
  in
  Sim_result.make ?health ~grid:t.grid ~x:(finish x) ~c:t.sys.Multi_term.c
    ~state_names:t.sys.Multi_term.state_names
    ~output_names:t.sys.Multi_term.output_names ()
