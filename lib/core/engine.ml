open Opm_numkit
open Opm_sparse
open Opm_robust
module Metrics = Opm_obs.Metrics
module Trace = Opm_obs.Trace

(* observability instruments (no-ops unless metrics/tracing are enabled):
   per-column wall time, column count, and one counter per rung of the
   fallback cascade — the machine-readable shadow of the Health events *)
let m_columns = Metrics.counter "engine.columns"
let m_refine_attempted = Metrics.counter "engine.refine.attempted"
let m_refine_kept = Metrics.counter "engine.refine.kept"
let m_strict_refactor = Metrics.counter "engine.strict_refactor"
let m_dense_fallback = Metrics.counter "engine.dense_fallback"
(* mean per-column wall time, sampled once per 8-column batch: a clock
   read per column would by itself eat the < 2% overhead budget *)
let h_column_seconds = Metrics.histogram "engine.column_seconds"
let m_rhsconv_blocks = Metrics.counter "engine.rhsconv.blocks"
let m_rhsconv_naive = Metrics.counter "engine.rhsconv.naive_cols"

(* ------------------------------------------------------------------ *)
(* FFT history-convolution switch. The Toeplitz fast path reassociates
   the history summation, so its output matches the naive scan to
   roundoff rather than bit-identically; OPM_NO_FFT_RHS (or
   [set_fft_rhs_enabled false], or the CLI's --no-fft-rhs) forces every
   solve back onto the naive path. *)

let fft_rhs_flag = ref None

let fft_rhs_enabled () =
  match !fft_rhs_flag with
  | Some b -> b
  | None ->
      let b =
        match Sys.getenv_opt "OPM_NO_FFT_RHS" with
        | None | Some "" | Some "0" -> true
        | Some _ -> false
      in
      fft_rhs_flag := Some b;
      b

let set_fft_rhs_enabled b = fft_rhs_flag := Some b

(* ------------------------------------------------------------------ *)
(* Fault-injection sites and budget check-points. Each [Fault.fire] is
   one atomic load when no plan is armed, and each budget hook is one
   [Option] match when no budget is threaded — together they are the
   "disabled path" gated < 2% by [bench resilience]. The kind → effect
   mapping is mechanical so every cell of the site × kind matrix ends
   in either a structured Opm_error or a recovery the cascade already
   knows how to verify (see DESIGN.md §15 for the full table). *)

let fault_injected site =
  Opm_error.raise_
    (Opm_error.Fault_injected
       {
         site = Fault.site_to_string site;
         kind =
           (match Fault.armed () with
           | Some p -> Fault.kind_to_string p.kind
           | None -> "unknown");
       })

(* Factor site, dense backend: Singular is terminal (dense LU already
   pivots strictly); Nan_poison factors an all-NaN pencil, which the
   factoriser rejects as structurally singular — both structured. *)
let fault_factor_dense ~column dmat =
  match Fault.fire Fault.Factor with
  | None -> dmat
  | Some Fault.Latency ->
      Fault.latency_sleep ();
      dmat
  | Some Fault.Singular ->
      Opm_error.raise_
        (Opm_error.Singular_pencil { column; step = 0; pivot = 0.0; name = None })
  | Some Fault.Nan_poison -> Mat.scale Float.nan dmat
  | Some Fault.Enospc -> fault_injected Fault.Factor

(* Column-solve site: Nan_poison overwrites one solution entry (the
   guard cascade must notice and either re-factor or raise Non_finite —
   never let the NaN reach the result matrix). *)
let fault_column ~column x =
  match Fault.fire Fault.Column_solve with
  | None -> x
  | Some Fault.Latency ->
      Fault.latency_sleep ();
      x
  | Some Fault.Nan_poison ->
      let x = Array.copy x in
      if Array.length x > 0 then x.(0) <- Float.nan;
      x
  | Some Fault.Singular ->
      Opm_error.raise_
        (Opm_error.Singular_pencil { column; step = 0; pivot = 0.0; name = None })
  | Some Fault.Enospc -> fault_injected Fault.Column_solve

(* FFT-block site lives here rather than in numkit so the convolver
   stays dependency-free; fired once per history-assembled column. *)
let fault_fft_block () =
  match Fault.fire Fault.Fft_block with
  | None -> false
  | Some Fault.Latency ->
      Fault.latency_sleep ();
      false
  | Some Fault.Nan_poison -> true
  | Some (Fault.Singular | Fault.Enospc) -> fault_injected Fault.Fft_block

let budget_column budget =
  match budget with
  | None -> ()
  | Some b -> Budget.check_deadline b ~site:"engine.column"

let budget_factor ?(bytes = 0) budget =
  match budget with
  | None -> ()
  | Some b -> Budget.charge_factor ~bytes b ~site:"engine.factor"

let same_key a b = List.for_all2 (fun (x : float) y -> x = y) a b

(* Bounded key → factorisation cache. An assoc list keyed on the exact
   float step is pathological on fully-adaptive grids: every column
   misses, so each lookup scans the whole list (O(m²) total) and the
   list grows without bound. A hashtable gives O(1) lookups and a
   capacity cap bounds the memory; on overflow the cache is reset —
   adaptive grids that miss every time pay exactly one factorisation
   per column either way, while uniform and few-distinct-step grids
   stay fully cached.

   The key is polymorphic; the engine keys its blocks on the full
   (α₁…α_K, h) identity of the pencil plus the column coefficients (see
   [column_key]), never on the diagonal coefficients alone: (2/h)^α
   collides for different (α, h) pairs (at h = 2 it is 1.0 for every
   α), so a diagonal-only key would silently reuse the wrong
   factorisation once a cache is shared across solves. *)
module Factor_cache = struct
  type ('k, 'f) t = {
    capacity : int;
    table : ('k, 'f) Hashtbl.t;
    pinned : ('k, 'f) Hashtbl.t;
        (* pinned entries live outside the capacity bound and survive
           the overflow reset: a sweep interleaving many (α, h) keys can
           blow the bounded table away mid-run, and without pinning that
           evicts the one factor every window (or every compiled query)
           is about to ask for again *)
    mutable hits : int;
    mutable misses : int;
  }

  let default_capacity = 64

  let create ?(capacity = default_capacity) () =
    if capacity < 1 then invalid_arg "Engine.Factor_cache.create: capacity < 1";
    {
      capacity;
      table = Hashtbl.create capacity;
      pinned = Hashtbl.create 4;
      hits = 0;
      misses = 0;
    }

  let length c = Hashtbl.length c.table + Hashtbl.length c.pinned

  let pinned_count c = Hashtbl.length c.pinned

  let hits c = c.hits

  let misses c = c.misses

  let find_or_add ?(pin = false) c h factor =
    match Hashtbl.find_opt c.pinned h with
    | Some f ->
        c.hits <- c.hits + 1;
        f
    | None -> (
        match Hashtbl.find_opt c.table h with
        | Some f ->
            c.hits <- c.hits + 1;
            if pin then begin
              Hashtbl.remove c.table h;
              Hashtbl.add c.pinned h f
            end;
            f
        | None ->
            c.misses <- c.misses + 1;
            let f = factor h in
            if pin then Hashtbl.add c.pinned h f
            else begin
              if Hashtbl.length c.table >= c.capacity then
                Hashtbl.reset c.table;
              Hashtbl.add c.table h f
            end;
            f)
end

(* ------------------------------------------------------------------ *)
(* Fallback cascade                                                    *)

let record_event health e = Option.iter (fun h -> Health.record_event h e) health

(* ‖M x − rhs‖∞ given M·x; NaN entries count as an infinite residual *)
let residual_of ax rhs =
  let r = ref 0.0 in
  for i = 0 to Array.length rhs - 1 do
    let d = ax.(i) -. rhs.(i) in
    if Float.is_nan d then r := Float.infinity
    else begin
      let d = Float.abs d in
      if d > !r then r := d
    end
  done;
  !r

(* One step of iterative refinement on the diagonal block: the refined
   column is kept only when it is finite and strictly reduces the
   residual, so this is a bit-identical no-op whenever the trigger fires
   spuriously. Returns the column and its residual. *)
let refine_column ?health ~column ~solve ~apply x rhs =
  Metrics.incr m_refine_attempted;
  Trace.with_span "refine" @@ fun () ->
  let n = Array.length rhs in
  let ax = apply x in
  let res0 = residual_of ax rhs in
  let r = Array.init n (fun i -> rhs.(i) -. ax.(i)) in
  match Guard.protect (fun () -> solve r) with
  | Error _ ->
      record_event health
        (Health.Refined
           { column; residual_before = res0; residual_after = res0; kept = false });
      (x, res0)
  | Ok dx ->
      let x' = Array.init n (fun i -> x.(i) +. dx.(i)) in
      let res1 = residual_of (apply x') rhs in
      let kept = Guard.is_finite x' && res1 < res0 in
      record_event health
        (Health.Refined
           { column; residual_before = res0; residual_after = res1; kept });
      if kept then begin
        Metrics.incr m_refine_kept;
        (x', res1)
      end
      else (x, res0)

let raise_non_finite ~stage ~column x =
  let nans, infs = Guard.count_non_finite x in
  Opm_error.raise_
    (Opm_error.Non_finite { stage; column = Some column; nans; infs })

(* Post-solve guard shared by both backends: escalate non-finite columns
   through [escalate] (strict pivoting / dense fallback, backend
   specific), then attempt refinement when the factor's condition
   estimate crosses {!Health.default_cond_limit}, then book-keep into
   [health]. On a finite, well-conditioned column this returns [x]
   untouched. *)
let guard_column ?health ~column ~solve ~apply ~cond ~escalate x rhs =
  let x = if Guard.is_finite x then x else escalate x in
  let c = cond () in
  Option.iter (fun h -> Health.record_cond h c) health;
  let x, res =
    if c > Health.default_cond_limit then
      let x, res = refine_column ?health ~column ~solve ~apply x rhs in
      (x, Some res)
    else (x, None)
  in
  (match health with
  | None -> ()
  | Some h ->
      Health.record_vec h x;
      let res =
        match res with Some r -> r | None -> residual_of (apply x) rhs
      in
      Health.record_residual h res);
  x

(* --- factorised diagonal blocks ------------------------------------- *)

type sparse_factor = Sfac of Slu.t | Dfac of Lu.t

type block =
  | Dense_block of { dmat : Mat.t; dlu : Lu.t }
  | Sparse_block of {
      smat : Csr.t;
      mutable strict_tried : bool;
      mutable sfac : sparse_factor;
          (* mutable so the fallback cascade upgrades the factorisation
             in place: later columns sharing the cached block reuse the
             strongest factorisation reached so far *)
    }

type cache = (float list, block) Factor_cache.t

let dense_block ~column dmat =
  let dmat = fault_factor_dense ~column dmat in
  match Lu.factor dmat with
  | lu -> Dense_block { dmat; dlu = lu }
  | exception Lu.Singular k ->
      Opm_error.raise_
        (Opm_error.Singular_pencil { column; step = k; pivot = 0.0; name = None })

(* escalation rung 3: abandon the sparse factorisation entirely *)
let dense_fallback_factor ?health ~column smat =
  Metrics.incr m_dense_fallback;
  record_event health (Health.Dense_fallback { column });
  match Lu.factor (Csr.to_dense smat) with
  | lu -> Dfac lu
  | exception Lu.Singular k ->
      Opm_error.raise_
        (Opm_error.Singular_pencil { column; step = k; pivot = 0.0; name = None })

(* escalation rung 2: trade fill for stability with strict pivoting *)
let strict_factor ?health ~column smat =
  Metrics.incr m_strict_refactor;
  record_event health (Health.Strict_refactor { column });
  match Slu.factor ~pivot_tol:1.0 smat with
  | f -> Sfac f
  | exception Slu.Singular _ -> dense_fallback_factor ?health ~column smat

let sparse_block ?health ~sym ~column smat =
  (* Factor site, sparse backend: Singular simulates a failed default
     factorisation, driving the strict-pivoting rung — a recovery, not
     an error; Nan_poison poisons the pencil, which rides the cascade
     down to a structured Singular_pencil at the dense rung. *)
  let smat, forced_strict =
    match Fault.fire Fault.Factor with
    | None -> (smat, false)
    | Some Fault.Latency ->
        Fault.latency_sleep ();
        (smat, false)
    | Some Fault.Singular -> (smat, true)
    | Some Fault.Nan_poison -> (Csr.scale Float.nan smat, false)
    | Some Fault.Enospc -> fault_injected Fault.Factor
  in
  (* [sym] carries the symbolic analysis of a previously factored pencil
     with the same sparsity structure: the ⌈m⌉ distinct pencils of one
     OPM solve pay ordering/reach/fill-pattern discovery exactly once,
     with {!Slu.factor_hinted} falling back to a fresh analysis on any
     mismatch or pivot degradation.  The strict rung below stays
     hint-free: strict pivoting re-derives its own pivot sequence. *)
  if forced_strict then
    Sparse_block
      { smat; strict_tried = true; sfac = strict_factor ?health ~column smat }
  else
    match Slu.factor_hinted ~hint:sym smat with
    | f -> Sparse_block { smat; strict_tried = false; sfac = Sfac f }
    | exception Slu.Singular _ ->
        Sparse_block
          { smat; strict_tried = true; sfac = strict_factor ?health ~column smat }

let solve_col ?health ~column blk rhs =
  match blk with
  | Dense_block { dmat; dlu } ->
      let solve = Lu.solve dlu in
      let x = fault_column ~column (solve rhs) in
      (* dense LU already pivots strictly, so there is no stronger
         factorisation to escalate to: a non-finite column is terminal *)
      let escalate x = raise_non_finite ~stage:"solve-dense" ~column x in
      guard_column ?health ~column ~solve ~apply:(Mat.mul_vec dmat)
        ~cond:(fun () -> Lu.cond_est dlu)
        ~escalate x rhs
  | Sparse_block b ->
      let solve rhs =
        match b.sfac with Sfac f -> Slu.solve f rhs | Dfac f -> Lu.solve f rhs
      in
      let x = fault_column ~column (solve rhs) in
      let escalate x =
        let x = ref x in
        if (not b.strict_tried) && not (Guard.is_finite !x) then begin
          b.strict_tried <- true;
          b.sfac <- strict_factor ?health ~column b.smat;
          x := solve rhs
        end;
        (match b.sfac with
        | Sfac _ when not (Guard.is_finite !x) ->
            b.sfac <- dense_fallback_factor ?health ~column b.smat;
            x := solve rhs
        | Sfac _ | Dfac _ -> ());
        if not (Guard.is_finite !x) then
          raise_non_finite ~stage:"solve-sparse" ~column !x;
        !x
      in
      guard_column ?health ~column ~solve ~apply:(Csr.mul_vec b.smat)
        ~cond:(fun () ->
          match b.sfac with Sfac f -> Slu.cond_est f | Dfac f -> Lu.cond_est f)
        ~escalate x rhs

(* ------------------------------------------------------------------ *)
(* Pencil                                                              *)

type ops = Dense_ops of Mat.t array | Sparse_ops of Csr.t array

type pencil = {
  ops : ops;  (* [M_1 … M_J]; the last operator is [A] *)
  n : int;
  sym : Slu.symbolic option ref;
      (* every block this pencil ever factors shares one sparsity
         pattern (the union of the operators'), so one symbolic analysis
         is recorded at the first factorisation and replayed numerically
         by the rest *)
}

let make_pencil ops =
  let dims =
    match ops with
    | Dense_ops a -> Array.map Mat.dims a
    | Sparse_ops a -> Array.map Csr.dims a
  in
  if Array.length dims < 2 then
    invalid_arg "Engine.pencil: needs at least one E term and A";
  let n = fst dims.(0) in
  Array.iter
    (fun (r, c) ->
      if r <> n || c <> n then invalid_arg "Engine.pencil: operator dimension mismatch")
    dims;
  { ops; n; sym = ref None }

let pencil backend ms =
  let n = match ms with m0 :: _ -> fst (Csr.dims m0) | [] -> 0 in
  match backend with
  | `Sparse -> make_pencil (Sparse_ops (Array.of_list ms))
  | `Auto when n > 64 -> make_pencil (Sparse_ops (Array.of_list ms))
  | `Dense | `Auto ->
      make_pencil (Dense_ops (Array.of_list (List.map Csr.to_dense ms)))

let backend p = match p.ops with Dense_ops _ -> `Dense | Sparse_ops _ -> `Sparse

let nops p =
  match p.ops with Dense_ops a -> Array.length a | Sparse_ops a -> Array.length a

let apply p j v =
  match p.ops with
  | Dense_ops a -> Mat.mul_vec a.(j) v
  | Sparse_ops a -> Csr.mul_vec a.(j) v

(* Factor the column block Σ_j c_j·M_j. Assembly starts from the A term
   and adds the others in order, which reproduces the historical
   per-form pencils (−A + Σ d_ii E_k, 2/h·E − A, E − H_ii·A) bit for
   bit: negation and scaling by ±1 are exact, and IEEE addition
   commutes. *)
let factor ?health ?budget p ~column c =
  let last = Array.length c - 1 in
  match p.ops with
  | Dense_ops ms ->
      budget_factor ~bytes:(p.n * p.n * 8) budget;
      Trace.with_span "factor" (fun () ->
          let acc = ref (Mat.scale c.(last) ms.(last)) in
          for j = 0 to last - 1 do
            acc := Mat.add !acc (Mat.scale c.(j) ms.(j))
          done;
          dense_block ~column !acc)
  | Sparse_ops ms ->
      let acc = ref (Csr.scale c.(last) ms.(last)) in
      for j = 0 to last - 1 do
        acc := Csr.add ~alpha:1.0 ~beta:c.(j) !acc ms.(j)
      done;
      budget_factor ~bytes:(Csr.nnz !acc * 16) budget;
      Trace.with_span "factor" (fun () ->
          sparse_block ?health ~sym:p.sym ~column !acc)

(* ------------------------------------------------------------------ *)
(* History strategies                                                  *)

(* The differential form's operational matrices D_k. On a uniform grid
   each is upper-triangular Toeplitz and travels as its first row alone
   (O(m) instead of O(m²)); an adaptive grid's D_k is a general upper
   triangle. [weight] is the one accessor the diagonal, the cache key
   and the history scan read either through. *)
type lags =
  | Rows of { rows : Vec.t array; step : float }  (* D_k(j, i) = rows.(k).(i − j) *)
  | Dense of Mat.t array

let weight lags k j i =
  match lags with
  | Rows { rows; _ } -> rows.(k).(i - j)
  | Dense d -> Mat.get d.(k) j i

let nterms = function Rows { rows; _ } -> Array.length rows | Dense d -> Array.length d

type history =
  | Differential of {
      lags : lags;
      orders : float list;
      horizon : int;
      mutable conv : Fft.Blocked_conv.t option;
          (* kept across runs: a reused convolver keeps its kernel
             spectra (the expensive part of its creation) and only
             rewinds its data *)
    }
  | Alternating of float array
  | Running_sum of { steps : float array; x0 : Vec.t }

let check_orders name orders count =
  if List.length orders <> count then invalid_arg (name ^ ": one order per D_k")

let toeplitz ~orders ~step ~horizon rows =
  check_orders "Engine.toeplitz" orders (List.length rows);
  let m = match rows with r0 :: _ -> Array.length r0 | [] -> 0 in
  List.iter
    (fun r ->
      if Array.length r <> m then invalid_arg "Engine.toeplitz: row length mismatch")
    rows;
  Differential
    { lags = Rows { rows = Array.of_list rows; step }; orders; horizon; conv = None }

let triangular ~orders ds =
  check_orders "Engine.triangular" orders (List.length ds);
  let m = match ds with d0 :: _ -> fst (Mat.dims d0) | [] -> 0 in
  List.iter
    (fun d ->
      if Mat.dims d <> (m, m) then
        invalid_arg "Engine.triangular: D_k dimension mismatch")
    ds;
  Differential { lags = Dense (Array.of_list ds); orders; horizon = m; conv = None }

let alternating steps = Alternating steps

let running_sum ~x0 steps = Running_sum { steps; x0 }

let columns = function
  | Differential { lags = Rows { rows = [||]; _ } | Dense [||]; _ } -> 0
  | Differential { lags = Rows { rows; _ }; _ } -> Array.length rows.(0)
  | Differential { lags = Dense d; _ } -> fst (Mat.dims d.(0))
  | Alternating steps | Running_sum { steps; _ } -> Array.length steps

(* one step for every column: one block serves the whole horizon, and
   pinning it costs exactly one entry (an adaptive grid would pin one
   entry per distinct step, and the pinned set is unbounded) *)
let uniform = function
  | Differential { lags = Rows _; _ } -> true
  | Differential { lags = Dense _; _ } -> false
  | Alternating s | Running_sum { steps = s; _ } ->
      Array.for_all (fun (h : float) -> h = s.(0)) s

(* the coefficients c(i) of column i's block Σ_j c_j·M_j *)
let column_coeffs history i =
  match history with
  | Differential { lags; _ } ->
      let k = nterms lags in
      Array.init (k + 1) (fun j -> if j < k then weight lags j i i else -1.0)
  | Alternating steps -> [| 2.0 /. steps.(i); -1.0 |]
  | Running_sum { steps; _ } -> [| 1.0; -.(0.5 *. steps.(i)) |]

(* Cache key of column i's block. The differential form carries the
   term orders and, on a uniform grid, the step, so a cache shared
   across solves never confuses two (α, h) pencils with coincident
   diagonals; the order-1 form solves (2/h·E − A), α pinned to 1 but
   carried in the key anyway; the integral form keys on H's diagonal
   entry h_i/2. *)
let column_key history i =
  match history with
  | Differential { lags; orders; _ } ->
      orders
      @ (match lags with Rows { step; _ } -> [ step ] | Dense _ -> [])
      @ List.init (nterms lags) (fun k -> weight lags k i i)
  | Alternating steps -> [ 1.0; steps.(i) ]
  | Running_sum { steps; _ } -> [ 0.5 *. steps.(i) ]

(* Below this horizon length the naive scan wins (or ties within
   noise): the convolver's first dyadic levels are many tiny FFTs whose
   setup cost the short naive tail never amortises. Measured on the
   Table I kernel the crossover sits between m = 128 and m = 256, so
   short horizons keep the scan — which also keeps them bit-identical
   to the historical engine. *)
let fft_rhs_min_m = 256

(* The FFT gate of the differential history. Only the Toeplitz rows of
   a uniform grid qualify: each first row is a convolver kernel. The
   gate compares the global [horizon], not the local column count: a
   windowed caller hands the engine w-column blocks, and gating on w
   alone would keep a 4096-column horizon solved in 64-column windows
   on the naive scan forever, although the workload as a whole
   amortises the FFT setup many times over.

   Orders above 1 are excluded for accuracy rather than structure:
   |ρ_α(l)| grows like l^{α−1} with alternating sign for α > 1, and the
   naive j-ascending scan sums those terms in an order whose partial
   sums cancel pairwise and stay small. Blockwise FFT reassociation
   forfeits that cancellation, and the marginally-stable high-order
   recurrence then integrates the roundoff (≈5e-4 absolute drift on the
   α = 2 oscillator at m = 1000). Non-growing kernels (α ≤ 1) keep the
   conv/naive agreement within the ≤ 1e-10 contract. *)
let toeplitz_conv ~n ~m = function
  | Differential ({ lags = Rows { rows; _ }; _ } as t)
    when List.for_all (fun a -> a <= 1.0) t.orders
         && m > 1
         && max m t.horizon >= fft_rhs_min_m
         && fft_rhs_enabled () -> (
      match t.conv with
      | Some cv when Fft.Blocked_conv.rows cv = n -> Some cv
      | Some _ | None ->
          let cv = Fft.Blocked_conv.create ~kernels:rows ~rows:n ~m () in
          t.conv <- Some cv;
          Some cv)
  | Differential _ | Alternating _ | Running_sum _ -> None

(* ------------------------------------------------------------------ *)
(* Prepare / run                                                       *)

type ctx = {
  health : Health.t option;
  budget : Budget.t option;
  fcache : cache option;
}

let default = { health = None; budget = None; fcache = None }

type plan = {
  ctx : ctx;
  pencil : pencil;
  history : history;
  m : int;
  cache : cache;
  pin : bool;
  key0 : float list;
  block0 : block;
  conv : Fft.Blocked_conv.t option;  (* the differential history's, when gated in *)
}

let prepare ctx pencil history =
  (match history with
  | Differential { lags; _ } when nterms lags <> nops pencil - 1 ->
      invalid_arg "Engine.prepare: one D_k per E_k"
  | (Alternating _ | Running_sum _) when nops pencil <> 2 ->
      invalid_arg "Engine.prepare: the order-1 and integral forms take [E; A]"
  | Running_sum { x0; _ } when Array.length x0 <> pencil.n ->
      invalid_arg "Engine.prepare: x0 length mismatch"
  | Differential _ | Alternating _ | Running_sum _ -> ());
  let m = columns history in
  if m < 1 then invalid_arg "Engine.prepare: empty horizon";
  let cache =
    match ctx.fcache with Some c -> c | None -> Factor_cache.create ()
  in
  let pin = uniform history in
  let key0 = column_key history 0 in
  let block0 =
    Factor_cache.find_or_add ~pin cache key0 (fun _ ->
        factor ?health:ctx.health ?budget:ctx.budget pencil ~column:0
          (column_coeffs history 0))
  in
  let conv = toeplitz_conv ~n:pencil.n ~m history in
  { ctx; pencil; history; m; cache; pin; key0; block0; conv }

(* Per-history column state: [rhs i] assembles bu_i minus the history
   term, [push i x_i] records the solved column, [finish ()] returns X.
   The differential scan needs every solved column, so it keeps them
   and assembles X at the end; the running sums write X as they go. *)
let column_history p bu =
  let n = p.pencil.n in
  let bu_col i = Array.init n (fun r -> Mat.get bu r i) in
  let into_x x push i xi =
    Mat.set_col x i xi;
    push i xi
  in
  match p.history with
  | Differential { lags; _ } ->
      (* rhs_i = bu_i − Σ_k E_k Σ_{j<i} d^{(k)}_{ji} x_j, either from
         the blocked FFT convolver (the solved columns are pushed into
         it) or from the naive scan of the D_k lag weights — that branch
         is bit-identical to the historical engine *)
      let terms = nterms lags in
      let conv = p.conv in
      (* a reused convolver rewinds its data and keeps its spectra *)
      Option.iter Fft.Blocked_conv.reset conv;
      let cols = Array.make p.m [||] in
      let rhs i =
        let rhs = bu_col i in
        (match conv with
        | Some cv ->
            if i > 0 then begin
              let poison = fault_fft_block () in
              for k = 0 to terms - 1 do
                let hist = Fft.Blocked_conv.history cv ~term:k i in
                (* [history] returns a fresh vector, so poisoning it
                   never touches the convolver's internal state *)
                if poison && k = 0 && Array.length hist > 0 then
                  hist.(0) <- Float.nan;
                Vec.axpy (-1.0) (apply p.pencil k hist) rhs
              done
            end
        | None ->
            for k = 0 to terms - 1 do
              let acc = Array.make n 0.0 in
              let any = ref false in
              for j = 0 to i - 1 do
                let w = weight lags k j i in
                if w <> 0.0 then begin
                  any := true;
                  Vec.axpy w cols.(j) acc
                end
              done;
              if !any then Vec.axpy (-1.0) (apply p.pencil k acc) rhs
            done);
        rhs
      in
      let push i xi =
        cols.(i) <- xi;
        Option.iter (fun cv -> Fft.Blocked_conv.push cv xi) conv
      in
      let finish () =
        (match conv with
        | Some cv -> Metrics.incr ~by:(Fft.Blocked_conv.blocks cv) m_rhsconv_blocks
        | None -> Metrics.incr ~by:p.m m_rhsconv_naive);
        let x = Mat.zeros n p.m in
        Array.iteri (fun i col -> Mat.set_col x i col) cols;
        x
      in
      (rhs, push, finish)
  | Alternating steps ->
      (* paper §III-A: D's special pattern — (2/h_i) on the diagonal and
         4(−1)^{i−j}/h_i above — reduces the history to one running
         alternating sum: rhs_i = bu_i − (4/h_i)·E·(−1)^i·Σ_{j<i} (−1)^j x_j *)
      let salt = Array.make n 0.0 in
      let sign i = if i land 1 = 1 then -1.0 else 1.0 in
      let rhs i =
        let rhs = bu_col i in
        (* salt is exactly zero on column 0 (and after any exact reset):
           the coupling term contributes ±0.0 per entry, which adding to
           rhs is a no-op, so the E·salt matvec can be skipped *)
        if not (Array.for_all (fun v -> v = 0.0) salt) then
          Vec.axpy (-4.0 /. steps.(i) *. sign i) (apply p.pencil 0 salt) rhs;
        rhs
      in
      let x = Mat.zeros n p.m in
      (rhs, into_x x (fun i xi -> Vec.axpy (sign i) xi salt), fun () -> x)
  | Running_sum { steps; x0 } ->
      (* integral form: rhs_i = bu_i + E·x₀ + A·Σ_{j<i} h_j x_j. The
         running sum adds the same weights H_{ji} = h_j in the same
         j-ascending order as a naive scan of H, so it is bit-identical
         to it while carrying only O(n) state *)
      let e_x0 = apply p.pencil 0 x0 in
      let sum = Array.make n 0.0 in
      let rhs i =
        let rhs = Array.init n (fun r -> Mat.get bu r i +. e_x0.(r)) in
        if i > 0 then Vec.axpy 1.0 (apply p.pencil 1 sum) rhs;
        rhs
      in
      let x = Mat.zeros n p.m in
      (rhs, into_x x (fun i xi -> Vec.axpy steps.(i) xi sum), fun () -> x)

let span_name p =
  match (p.history, p.pencil.ops) with
  | Differential _, Dense_ops _ -> "engine.solve_dense"
  | Differential _, Sparse_ops _ -> "engine.solve_sparse"
  | Alternating _, Dense_ops _ -> "engine.solve_linear_dense"
  | Alternating _, Sparse_ops _ -> "engine.solve_linear_sparse"
  | Running_sum _, Dense_ops _ -> "engine.solve_integral_dense"
  | Running_sum _, Sparse_ops _ -> "engine.solve_integral_sparse"

let run p bu =
  let n = p.pencil.n and m = p.m in
  if Mat.dims bu <> (n, m) then invalid_arg "Engine.run: bu dimension mismatch";
  Trace.with_span (span_name p) @@ fun () ->
  let { health; budget; _ } = p.ctx in
  (* per-run memo in front of the cache, seeded with the prepared
     column-0 block: on a uniform grid every column shares one key, so
     a prepare/run pair costs exactly one cache access — which makes the
     cache's hit/miss statistics count runs, not columns, and keeps
     per-column polymorphic hashing off the hot loop *)
  let memo = ref (p.key0, p.block0) in
  let block i =
    let key = column_key p.history i in
    if not (same_key key (fst !memo)) then
      memo :=
        ( key,
          Factor_cache.find_or_add ~pin:p.pin p.cache key (fun _ ->
              factor ?health ?budget p.pencil ~column:i
                (column_coeffs p.history i)) );
    snd !memo
  in
  let rhs, push, finish = column_history p bu in
  Metrics.incr ~by:m m_columns;
  let t_lap = ref (Metrics.lap_start ()) in
  for i = 0 to m - 1 do
    budget_column budget;
    let rhs = rhs i in
    push i (solve_col ?health ~column:i (block i) rhs);
    if i land 7 = 7 then t_lap := Metrics.lap_mean h_column_seconds 8 !t_lap
  done;
  finish ()

let solve_dense_kron ~terms ~a ~bu =
  let n, m = Mat.dims bu in
  if Mat.dims a <> (n, n) then invalid_arg "Engine: A dimension mismatch with BU";
  List.iter
    (fun (e, d) ->
      if Mat.dims e <> (n, n) then invalid_arg "Engine: E_k dimension mismatch";
      if Mat.dims d <> (m, m) then invalid_arg "Engine: D_k dimension mismatch")
    terms;
  (* (Σ_k D_kᵀ ⊗ E_k − I_m ⊗ A) vec(X) = vec(BU), column-major vec *)
  let big =
    List.fold_left
      (fun acc (e, d) -> Mat.add acc (Mat.kron (Mat.transpose d) e))
      (Mat.kron (Mat.eye m) (Mat.scale (-1.0) a))
      terms
  in
  let rhs = Array.init (n * m) (fun k -> Mat.get bu (k mod n) (k / n)) in
  let sol = Lu.solve_dense big rhs in
  Mat.init n m (fun r c -> sol.((c * n) + r))
