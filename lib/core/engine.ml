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
(* columns whose history is a [Triangular] scan (adaptive grids, no
   convolution); the name dates from a removed uniform-grid kernel scan
   and is kept because the benchmark's per-layer metrics read it *)
let m_rhsconv_naive = Metrics.counter "engine.rhsconv.naive_cols"

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

(* Window-handoff site, fired at every window boundary: Nan_poison
   corrupts the state carried into the next window (never a column
   already emitted), so the NaN surfaces as a structured error in a
   later column, never in delivered data. *)
let fault_handoff () =
  match Fault.fire Fault.Window_handoff with
  | None -> false
  | Some Fault.Latency ->
      Fault.latency_sleep ();
      false
  | Some Fault.Nan_poison -> true
  | Some (Fault.Singular | Fault.Enospc) -> fault_injected Fault.Window_handoff

let budget_column budget =
  match budget with
  | None -> ()
  | Some b -> Budget.check_deadline b ~site:"engine.column"

let budget_factor ?(bytes = 0) budget =
  match budget with
  | None -> ()
  | Some b -> Budget.charge_factor ~bytes b ~site:"engine.factor"

let same_key a b = List.for_all2 (fun (x : float) y -> x = y) a b

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

(* Post-solve guard: escalate non-finite columns through [escalate]
   (strict pivoting, then the dense fallback), then attempt refinement
   when the factor's condition estimate crosses
   {!Health.default_cond_limit}, then book-keep into [health]. On a
   finite, well-conditioned column this returns [x] untouched. *)
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

(* the sparse LU, or the dense LU of the cascade's last rung *)
type factors = Sfac of Slu.t | Dfac of Lu.t

type block = {
  mat : Csr.t;
  lock : Mutex.t;
      (* serialises the fallback cascade: the cached block is shared by
         queries on several domains *)
  mutable strict_tried : bool;
  mutable fac : factors;
      (* mutable so the fallback cascade upgrades the factorisation in
         place: later columns sharing the cached block reuse the
         strongest factorisation reached so far *)
}

(* escalation rung 3: abandon the sparse factorisation entirely *)
let dense_fallback_factor ?health ~column mat =
  Metrics.incr m_dense_fallback;
  record_event health (Health.Dense_fallback { column });
  match Lu.factor (Csr.to_dense mat) with
  | lu -> Dfac lu
  | exception Lu.Singular k ->
      Opm_error.raise_
        (Opm_error.Singular_pencil { column; step = k; pivot = 0.0; name = None })

(* escalation rung 2: trade fill for stability with strict pivoting *)
let strict_factor ?health ~column mat =
  Metrics.incr m_strict_refactor;
  record_event health (Health.Strict_refactor { column });
  match Slu.factor ~pivot_tol:1.0 mat with
  | f -> Sfac f
  | exception Slu.Singular _ -> dense_fallback_factor ?health ~column mat

let factor_block ?health ~sym ~column mat =
  (* Factor site: Singular simulates a failed default factorisation,
     driving the strict-pivoting rung — a recovery, not an error;
     Nan_poison poisons the pencil, which rides the cascade down to a
     structured Singular_pencil at the dense rung. *)
  let mat, forced_strict =
    match Fault.fire Fault.Factor with
    | None -> (mat, false)
    | Some Fault.Latency ->
        Fault.latency_sleep ();
        (mat, false)
    | Some Fault.Singular -> (mat, true)
    | Some Fault.Nan_poison -> (Csr.scale Float.nan mat, false)
    | Some Fault.Enospc -> fault_injected Fault.Factor
  in
  (* [sym] carries the symbolic analysis of a previously factored pencil
     with the same sparsity structure: the ⌈m⌉ distinct pencils of one
     OPM solve pay ordering/reach/fill-pattern discovery exactly once,
     with {!Slu.factor_hinted} falling back to a fresh analysis on any
     mismatch or pivot degradation.  The strict rung below stays
     hint-free: strict pivoting re-derives its own pivot sequence. *)
  let block strict_tried fac = { mat; lock = Mutex.create (); strict_tried; fac } in
  if forced_strict then block true (strict_factor ?health ~column mat)
  else
    match Slu.factor_hinted ~hint:sym mat with
    | f -> block false (Sfac f)
    | exception Slu.Singular _ -> block true (strict_factor ?health ~column mat)

let solve_col ?health ~column b rhs =
  let solve_with f rhs = match f with Sfac f -> Slu.solve f rhs | Dfac f -> Lu.solve f rhs in
  let solve rhs = solve_with b.fac rhs in
  let f0 = b.fac in
  let x = fault_column ~column (solve_with f0 rhs) in
  let escalate x =
    Mutex.protect b.lock @@ fun () ->
    (* another query may have escalated the block since [f0] was read:
       carry on from the strongest factorisation so far *)
    let x = ref (if b.fac == f0 then x else solve rhs) in
    if (not b.strict_tried) && not (Guard.is_finite !x) then begin
      b.strict_tried <- true;
      b.fac <- strict_factor ?health ~column b.mat;
      x := solve rhs
    end;
    (match b.fac with
    | Sfac _ when not (Guard.is_finite !x) ->
        b.fac <- dense_fallback_factor ?health ~column b.mat;
        x := solve rhs
    | Sfac _ | Dfac _ -> ());
    if not (Guard.is_finite !x) then raise_non_finite ~stage:"solve-sparse" ~column !x;
    !x
  in
  guard_column ?health ~column ~solve ~apply:(Csr.mul_vec b.mat)
    ~cond:(fun () -> match b.fac with Sfac f -> Slu.cond_est f | Dfac f -> Lu.cond_est f)
    ~escalate x rhs

(* ------------------------------------------------------------------ *)
(* Pencil                                                              *)

(* The factorised blocks of one pencil, keyed by [column_key] (see
   {b Factor cache} in engine.mli for why the key is the full (α, h)
   identity and why the table resets past [cache_capacity]). One mutex
   guards the table and the counters, and a miss factors under it: the
   queries of one compiled model look the cache up from several
   domains, and two of them missing one key must factor it once, so
   that the counters stay exact. *)
type cache = {
  lock : Mutex.t;
  table : (float list, block) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let cache_capacity = 64

type pencil = {
  ops : Csr.t array;  (* [M_1 … M_J]; the last operator is [A] *)
  n : int;
  sym : Slu.symbolic option ref;
      (* every block this pencil ever factors shares one sparsity
         pattern (the union of the operators'), so one symbolic analysis
         is recorded at the first factorisation and replayed numerically
         by the rest *)
  cache : cache;
}

let pencil ms =
  let ops = Array.of_list ms in
  if Array.length ops < 2 then invalid_arg "Engine.pencil: needs at least one E term and A";
  let n = fst (Csr.dims ops.(0)) in
  Array.iter
    (fun m -> if Csr.dims m <> (n, n) then invalid_arg "Engine.pencil: operator dimension mismatch")
    ops;
  let cache =
    { lock = Mutex.create (); table = Hashtbl.create cache_capacity; hits = 0; misses = 0 }
  in
  { ops; n; sym = ref None; cache }

let size p = p.n

let pencil_lookups p = Mutex.protect p.cache.lock (fun () -> (p.cache.hits, p.cache.misses))

(* the cached block for [key] and whether it was a hit *)
let lookup p key factor =
  let c = p.cache in
  Mutex.protect c.lock @@ fun () ->
  match Hashtbl.find_opt c.table key with
  | Some blk ->
      c.hits <- c.hits + 1;
      (blk, true)
  | None ->
      c.misses <- c.misses + 1;
      let blk = factor () in
      if Hashtbl.length c.table >= cache_capacity then Hashtbl.reset c.table;
      Hashtbl.add c.table key blk;
      (blk, false)

let apply p j v = Csr.mul_vec p.ops.(j) v

(* Σ_j c_j·M_j, assembled from the A term up and adding the others in
   order, which reproduces the historical per-form pencils
   (−A + Σ d_ii E_k, 2/h·E − A, E − H_ii·A) bit for bit: negation and
   scaling by ±1 are exact, and IEEE addition commutes. A zero
   coefficient adds nothing and is skipped. *)
let sum ms c =
  let last = Array.length c - 1 in
  let acc = ref (Csr.scale c.(last) ms.(last)) in
  for j = 0 to last - 1 do
    if c.(j) <> 0.0 then acc := Csr.add ~alpha:1.0 ~beta:c.(j) !acc ms.(j)
  done;
  !acc

(* Factor the column block Σ_j c_j·M_j. *)
let factor ?health ?budget p ~column c =
  let mat = sum p.ops c in
  budget_factor ~bytes:(Csr.nnz mat * 16) budget;
  Trace.with_span "factor" (fun () -> factor_block ?health ~sym:p.sym ~column mat)

(* ------------------------------------------------------------------ *)
(* History strategies                                                  *)

(* The differential form on a uniform grid, recast. Every D_k is
   s_k·ρ_{α_k}(Q) with s_k = (2/h)^{α_k} and ρ_α = ((1−q)/(1+q))^α
   (paper eq. (21)–(24)). Split α_k = n_k + β_k with β_k ∈ [0, 1) and
   let N = max n_k. Right-multiplying the column equation by (I+Q)^N,
   a unit upper triangle, leaves the discrete solution unchanged and
   turns column i into

     M_0 x_i = Σ_{l≤N} C(N,l)·bu_{i−l} − Σ_{1≤l≤N} M_l x_{i−l}
               − Σ_{k: β_k>0} E_k Σ_{l≥1} κ_k[l]·x_{i−l}

   with p_k = (1−q)^{n_k}·(1+q)^{N−n_k} and
   - M_0 = Σ_k s_k E_k − A, the historical block (same coefficients
     and cache key);
   - M_l = Σ_{k: β_k=0} s_k·p_k[l]·E_k − C(N,l)·A for 1 ≤ l ≤ N;
   - κ_k = s_k·ρ_{β_k}·p_k = s_k·(1−q)^{α_k}·(1+q)^{N−α_k}.
   Integer orders become an N-lag banded recurrence, and each
   fractional order keeps one kernel that decays like l^{β−1} instead
   of growing like l^{α−1}. *)
type banded = {
  orders : float list;
  step : float;
  columns : int;
  scales : float array;  (* s_k, the diagonal of D_k *)
  binom : float array;  (* C(N, l), l = 0 … N: the weights of bu_{i−l} *)
  band : float array array;
      (* band.(l − 1).(k) = s_k·p_k[l] for an integer order, 0 for a
         fractional one: the E_k coefficients of M_l *)
  frac : int array;  (* the term of each fractional kernel *)
  kernels : Vec.t array;  (* κ of each fractional term, one weight per column *)
  lags : (pencil * Csr.t array * int array) option Atomic.t;
      (* M_1 … M_N of the pencil last prepared against, and the support
         of its fractional terms *)
  spectra : Fft.Blocked_conv.spectra option Atomic.t;
      (* the kernels' FFT spectra, once a prepare finds a nonempty
         support. Both are built by the first prepare (a compiled
         model's compile) and only read by the runs after it; each run
         convolves into a Blocked_conv.t of its own *)
}

type history =
  | Banded of banded
  | Triangular of { d : Mat.t array; orders : float list }
      (* an adaptive grid's D_k, general upper triangles *)
  | Alternating of float array

let toeplitz ~orders ~step columns =
  if columns < 0 then invalid_arg "Engine.toeplitz: negative column count";
  let alphas = Array.of_list orders in
  if not (Array.for_all (fun a -> a >= 0.0) alphas) then
    invalid_arg "Engine.toeplitz: order < 0";
  let lags = Array.fold_left (fun acc a -> max acc (truncate a)) 0 alphas in
  let scales = Array.map (fun a -> (2.0 /. step) ** a) alphas in
  (* s_k·(1−q)^{α_k}·(1+q)^{N−α_k}: s_k·p_k for an integer order (degree
     N, exact integer coefficients before scaling), κ_k for a fractional
     one *)
  let scaled k len =
    Array.map (( *. ) scales.(k))
      (Series.binomial_product alphas.(k) (float_of_int lags -. alphas.(k)) len)
  in
  let poly =
    Array.mapi
      (fun k a -> if Float.is_integer a then scaled k (lags + 1) else Array.make (lags + 1) 0.0)
      alphas
  in
  let frac =
    Array.of_list
      (List.filter
         (fun k -> not (Float.is_integer alphas.(k)))
         (List.init (Array.length alphas) Fun.id))
  in
  Banded
    {
      orders;
      step;
      columns;
      scales;
      binom = Series.binomial_product 0.0 (float_of_int lags) (lags + 1);
      band = Array.init lags (fun l -> Array.map (fun p -> p.(l + 1)) poly);
      frac;
      kernels = Array.map (fun k -> scaled k columns) frac;
      lags = Atomic.make None;
      spectra = Atomic.make None;
    }

let triangular ~orders ds =
  if List.length orders <> List.length ds then
    invalid_arg "Engine.triangular: one order per D_k";
  let m = match ds with d0 :: _ -> fst (Mat.dims d0) | [] -> 0 in
  List.iter
    (fun d ->
      if Mat.dims d <> (m, m) then
        invalid_arg "Engine.triangular: D_k dimension mismatch")
    ds;
  Triangular { d = Array.of_list ds; orders }

let alternating steps = Alternating steps

let nterms = function
  | Banded b -> Array.length b.scales
  | Triangular { d; _ } -> Array.length d
  | Alternating _ -> 1

let columns = function
  | Banded b -> b.columns
  | Triangular { d = [||]; _ } -> 0
  | Triangular { d; _ } -> fst (Mat.dims d.(0))
  | Alternating steps -> Array.length steps

(* the coefficients c(i) of column i's block Σ_j c_j·M_j *)
let column_coeffs history i =
  match history with
  | Banded b -> Array.append b.scales [| -1.0 |]
  | Triangular { d; _ } ->
      let k = Array.length d in
      Array.init (k + 1) (fun j -> if j < k then Mat.get d.(j) i i else -1.0)
  | Alternating steps -> [| 2.0 /. steps.(i); -1.0 |]

(* Cache key of column i's block. The differential form carries the
   term orders and, on a uniform grid, the step, so a pencil prepared
   against histories of different orders never confuses two (α, h)
   blocks with coincident diagonals; the order-1 form solves
   (2/h·E − A), α fixed at 1 but carried in the key anyway. *)
let column_key history i =
  match history with
  | Banded b -> b.orders @ (b.step :: Array.to_list b.scales)
  | Triangular { d; orders } -> orders @ List.init (Array.length d) (fun k -> Mat.get d.(k) i i)
  | Alternating steps -> [ 1.0; steps.(i) ]

(* The support of a banded history's fractional terms: the state
   columns, ascending, where some fractional E_k has a nonzero. The
   fractional history of a state outside it is multiplied by zero
   only, so the convolver never needs it. *)
let frac_support pencil b =
  let seen = Array.make pencil.n false in
  Array.iter
    (fun k -> Csr.iter (fun _ c v -> if v <> 0.0 then seen.(c) <- true) pencil.ops.(k))
    b.frac;
  Array.of_list (List.filter (fun c -> seen.(c)) (List.init pencil.n Fun.id))

(* M_1 … M_N of a banded history, assembled as [factor] assembles its
   blocks, and its fractional support *)
let lag_ops pencil b =
  match Atomic.get b.lags with
  | Some (p, ops, support) when p == pencil -> (ops, support)
  | Some _ | None ->
      let coeffs l = Array.append b.band.(l) [| -.b.binom.(l + 1) |] in
      let lags = Array.length b.band in
      let ops = Array.init lags (fun l -> sum pencil.ops (coeffs l)) in
      let support = frac_support pencil b in
      Atomic.set b.lags (Some (pencil, ops, support));
      (ops, support)

(* The kernels' spectra, built on first use. The convolver serves
   every horizon: below its 32-column base it sums the lags directly
   with no FFT level, and every κ_k decays, so blockwise FFT
   reassociation stays within roundoff of a direct sum for every
   order. *)
let toeplitz_spectra b =
  match Atomic.get b.spectra with
  | Some sp -> sp
  | None ->
      let sp = Fft.Blocked_conv.spectra ~kernels:b.kernels ~m:b.columns () in
      Atomic.set b.spectra (Some sp);
      sp

(* ------------------------------------------------------------------ *)
(* Prepare / run                                                       *)

type ctx = { health : Health.t option; budget : Budget.t option }

let default = { health = None; budget = None }

type plan = {
  ctx : ctx;
  pencil : pencil;
  history : history;
  m : int;
  key0 : float list;
  block0 : block;
  lags : Csr.t array;  (* a banded history's M_1 … M_N *)
  fractional : (Fft.Blocked_conv.spectra * int array) option;
      (* and its kernels' spectra with the support rows the convolver
         keeps; [None] when the support is empty (no fractional term,
         or every fractional E_k zero): E_k·h is zero for any history
         h, so nothing is summed *)
  mutable hits : int;  (* this plan's cache lookups: hits and misses *)
  mutable misses : int;
}

let prepare ctx pencil history =
  (match history with
  | (Banded _ | Triangular _) when nterms history <> Array.length pencil.ops - 1 ->
      invalid_arg "Engine.prepare: one D_k per E_k"
  | Alternating _ when Array.length pencil.ops <> 2 ->
      invalid_arg "Engine.prepare: the order-1 form takes [E; A]"
  | Banded _ | Triangular _ | Alternating _ -> ());
  let m = columns history in
  if m < 1 then invalid_arg "Engine.prepare: empty horizon";
  let key0 = column_key history 0 in
  let block0, hit =
    lookup pencil key0 (fun () ->
        factor ?health:ctx.health ?budget:ctx.budget pencil ~column:0
          (column_coeffs history 0))
  in
  let lags, fractional =
    match history with
    | Banded b ->
        let lags, support = lag_ops pencil b in
        (lags, if Array.length support = 0 then None else Some (toeplitz_spectra b, support))
    | Triangular _ | Alternating _ -> ([||], None)
  in
  {
    ctx;
    pencil;
    history;
    m;
    key0;
    block0;
    lags;
    fractional;
    hits = Bool.to_int hit;
    misses = Bool.to_int (not hit);
  }

let lookups p = (p.hits, p.misses)

let identity p = (p.m, p.key0)

(* rows per block of the history scan: one accumulator block (2 KiB)
   plus the column blocks it reads stay cache-resident *)
let scan_block = 256

(* rhs −= Σ_k E_k Σ_{j<i} d^{(k)}_{ji}·x_j, the plain scan of an
   adaptive grid's operational matrices. Rows go in blocks: an
   accumulator block stays in L1 while every lag adds into it, and the
   column blocks the first term streamed in serve the other terms from
   L2, so the solved columns leave memory once per query, not once per
   term. Term k still sums (d·x_j) + acc in ascending j per row, the
   arithmetic of one [Vec.axpy] per lag. *)
let subtract_scan pencil d i cols rhs =
  let n = pencil.n and terms = Array.length d in
  let accs = Array.init terms (fun _ -> Array.make n 0.0) in
  let used = Array.make terms false in
  let lo = ref 0 in
  while !lo < n do
    let hi = min n (!lo + scan_block) - 1 in
    for k = 0 to terms - 1 do
      let acc = accs.(k) in
      for j = 0 to i - 1 do
        let w = Mat.get d.(k) j i and col = cols.(j) in
        if w <> 0.0 then begin
          used.(k) <- true;
          for r = !lo to hi do
            Array.unsafe_set acc r
              ((w *. Array.unsafe_get col r) +. Array.unsafe_get acc r)
          done
        end
      done
    done;
    lo := hi + 1
  done;
  for k = 0 to terms - 1 do
    if used.(k) then Vec.axpy (-1.0) (apply pencil k accs.(k)) rhs
  done

(* One run's column state. [rhs i] assembles column i's right-hand side
   from the forcing [bu i] and [push i x_i] records the solved column;
   [replay i x_i] records a column solved by an earlier run, with the
   forcing [rhs] would have read, so a replayed state is the state of
   the run that solved it, bit for bit. [cutoff k] drops the fractional
   history of every column but the last [k], [poison c] puts a NaN into
   the state carried past column c − 1, and [finish ()] books the run's
   metrics. Each history keeps only what it reads back: the order-1
   form a running sum, a banded history its last N columns and
   forcings (its convolver keeps its own copy of the support rows), the
   triangular scan every column. *)
type column_state = {
  rhs : int -> Vec.t;
  push : int -> Vec.t -> unit;
  replay : int -> Vec.t -> unit;
  cutoff : int -> unit;
  poison : int -> unit;
  finish : unit -> unit;
}

(* a NaN-headed copy: the original may be held by the caller's sink *)
let poisoned x =
  let x = Array.copy x in
  x.(0) <- Float.nan;
  x

let column_history p bu =
  let n = p.pencil.n in
  match p.history with
  | Banded b ->
      let lags = Array.length b.band and nk = Array.length b.frac in
      let conv =
        ref
          (Option.map
             (fun (sp, support) ->
               (Fft.Blocked_conv.create sp ~rows:(Array.length support), support))
             p.fractional)
      in
      (* column j at slot j mod keep *)
      let keep = max lags 1 in
      let cols = Array.make keep [||] in
      (* the last N + 1 columns of bu, column i at slot i mod (N + 1):
         (I+Q)^N·bu is summed on the fly, never stored *)
      let ring = Array.make (lags + 1) [||] in
      let rhs i =
        let bu_i = bu i in
        ring.(i mod (lags + 1)) <- bu_i;
        let rhs = Array.copy bu_i in
        for l = 1 to min lags i do
          Vec.axpy b.binom.(l) ring.((i - l) mod (lags + 1)) rhs
        done;
        for l = 1 to min lags i do
          Vec.axpy (-1.0) (Csr.mul_vec p.lags.(l - 1) cols.((i - l) mod keep)) rhs
        done;
        (match !conv with
        | Some (cv, support) when Fft.Blocked_conv.pushed cv > 0 ->
            let poison = fault_fft_block () in
            (* the convolver counts its own columns: after a cutoff they
               start at the first column it kept *)
            let at = Fft.Blocked_conv.pushed cv in
            for f = 0 to nk - 1 do
              let rows = Fft.Blocked_conv.history cv ~term:f at in
              let hist = Array.make n 0.0 in
              Array.iteri (fun j s -> hist.(s) <- rows.(j)) support;
              (* [hist] is a fresh vector, so poisoning it never
                 touches the convolver's internal state *)
              if poison && f = 0 then hist.(0) <- Float.nan;
              Vec.axpy (-1.0) (apply p.pencil b.frac.(f) hist) rhs
            done
        | Some _ | None -> ());
        rhs
      in
      let push i xi =
        cols.(i mod keep) <- xi;
        Option.iter
          (fun (cv, support) -> Fft.Blocked_conv.push cv (Array.map (fun s -> xi.(s)) support))
          !conv
      in
      (* a fresh convolver fed the last [k] pushed columns, the newest
         through [last] *)
      let rebuild k last =
        match (!conv, p.fractional) with
        | Some (cv, support), Some (sp, _) ->
            let fresh = Fft.Blocked_conv.create sp ~rows:(Array.length support) in
            let pushed = Fft.Blocked_conv.pushed cv in
            for j = max 0 (pushed - k) to pushed - 1 do
              let x = Fft.Blocked_conv.column cv j in
              Fft.Blocked_conv.push fresh (if j = pushed - 1 then last x else x)
            done;
            conv := Some (fresh, support)
        | _ -> ()
      in
      {
        rhs;
        push;
        replay =
          (fun i xi ->
            ring.(i mod (lags + 1)) <- bu i;
            push i xi);
        cutoff =
          (fun k ->
            match !conv with
            | Some (cv, _) when Fft.Blocked_conv.pushed cv > k -> rebuild k Fun.id
            | Some _ | None -> ());
        poison =
          (fun c ->
            (* the newest lag column and the newest convolved column,
               whichever the next column reads *)
            if lags > 0 then cols.((c - 1) mod keep) <- poisoned cols.((c - 1) mod keep);
            rebuild max_int poisoned);
        finish =
          (fun () ->
            Option.iter
              (fun (cv, _) -> Metrics.incr ~by:(Fft.Blocked_conv.blocks cv) m_rhsconv_blocks)
              !conv);
      }
  | Triangular { d; _ } ->
      let cols = Array.make p.m [||] in
      let push i xi = cols.(i) <- xi in
      {
        rhs =
          (fun i ->
            let rhs = bu i in
            subtract_scan p.pencil d i cols rhs;
            rhs);
        push;
        replay = push;
        cutoff = ignore;
        poison = ignore;
        finish = (fun () -> Metrics.incr ~by:p.m m_rhsconv_naive);
      }
  | Alternating steps ->
      (* paper §III-A: D's special pattern — (2/h_i) on the diagonal and
         4(−1)^{i−j}/h_i above — reduces the history to one running
         alternating sum: rhs_i = bu_i − (4/h_i)·E·(−1)^i·Σ_{j<i} (−1)^j x_j *)
      let salt = Array.make n 0.0 in
      let sign i = if i land 1 = 1 then -1.0 else 1.0 in
      let push i xi = Vec.axpy (sign i) xi salt in
      {
        rhs =
          (fun i ->
            let rhs = bu i in
            (* salt is exactly zero on column 0 (and after any exact
               reset): the coupling term contributes ±0.0 per entry,
               which adding to rhs is a no-op, so the E·salt matvec can
               be skipped *)
            if not (Array.for_all (fun v -> v = 0.0) salt) then
              Vec.axpy (-4.0 /. steps.(i) *. sign i) (apply p.pencil 0 salt) rhs;
            rhs);
        push;
        replay = push;
        cutoff = ignore;
        poison = (fun _ -> salt.(0) <- Float.nan);
        finish = ignore;
      }

(* the benchmark's per-layer ledger maps these span names to the column
   layer *)
let span_name p =
  match p.history with
  | Banded _ | Triangular _ -> "engine.solve_sparse"
  | Alternating _ -> "engine.solve_linear_sparse"

type boundary = { width : int; memory : int option; at : int -> unit }

let run ?boundary ?replay p ~bu ~emit =
  Trace.with_span (span_name p) @@ fun () ->
  let { health; budget } = p.ctx in
  (* per-run memo in front of the cache, seeded with the prepared
     column-0 block: on a uniform grid every column shares one key, so
     a prepare/run pair costs exactly one cache access — which makes the
     cache's hit/miss statistics count runs, not columns, and keeps
     per-column polymorphic hashing off the hot loop *)
  let memo = ref (p.key0, p.block0) in
  let block i =
    let key = column_key p.history i in
    if not (same_key key (fst !memo)) then begin
      let blk, hit =
        lookup p.pencil key (fun () ->
            factor ?health ?budget p.pencil ~column:i (column_coeffs p.history i))
      in
      if hit then p.hits <- p.hits + 1 else p.misses <- p.misses + 1;
      memo := (key, blk)
    end;
    snd !memo
  in
  let st = column_history p bu in
  Option.iter (fun b -> if b.width < 1 then invalid_arg "Engine.run: boundary width < 1") boundary;
  (* the window boundary after column c − 1: the caller's hook, the
     memory cutoff of the next window, the handoff fault site and the
     deadline *)
  let cross b c =
    b.at c;
    if c < p.m then begin
      Option.iter st.cutoff b.memory;
      if fault_handoff () then st.poison c;
      match budget with
      | None -> ()
      | Some bg -> Budget.check_deadline_now bg ~site:"window.boundary"
    end
  in
  let first =
    match replay with
    | None -> 0
    | Some (k, col) ->
        if k < 0 || k > p.m then invalid_arg "Engine.run: replay beyond the horizon";
        for j = 0 to k - 1 do
          st.replay j (col j)
        done;
        (match boundary with
        | Some { memory = Some mem; _ } when k > 0 && k < p.m -> st.cutoff mem
        | Some _ | None -> ());
        k
  in
  Metrics.incr ~by:(p.m - first) m_columns;
  let { rhs; push; _ } = st in
  let t_lap = ref (Metrics.lap_start ()) in
  for i = first to p.m - 1 do
    budget_column budget;
    let rhs = rhs i in
    let x = solve_col ?health ~column:i (block i) rhs in
    push i x;
    emit i x;
    if i land 7 = 7 then t_lap := Metrics.lap_mean h_column_seconds 8 !t_lap;
    match boundary with
    | Some b when (i + 1) mod b.width = 0 || i = p.m - 1 -> cross b (i + 1)
    | Some _ | None -> ()
  done;
  st.finish ()

let solve p bu =
  let n = p.pencil.n and m = p.m in
  if Mat.dims bu <> (n, m) then invalid_arg "Engine.solve: bu dimension mismatch";
  let x = Mat.zeros n m in
  run p
    ~bu:(fun i -> Array.init n (fun r -> Mat.get bu r i))
    ~emit:(fun i xi -> Mat.set_col x i xi);
  x

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
