open Opm_numkit
module Metrics = Opm_obs.Metrics
module Pool = Opm_parallel.Pool
module Ba = Bigarray

(* observability instruments (no-ops unless metrics are enabled) *)
let m_factor = Metrics.counter "slu.factor"
let m_solve = Metrics.counter "slu.solve"
let m_analyze = Metrics.counter "slu.analyze"
let m_reuse = Metrics.counter "slu.symbolic_reuse"
let m_reach_edges = Metrics.counter "slu.reach_edges"
let h_factor_seconds = Metrics.histogram "slu.factor_seconds"
let g_fill_nnz = Metrics.gauge "slu.fill_nnz"
let g_fill_ratio = Metrics.gauge "slu.fill_ratio"
let g_cond_est = Metrics.gauge "slu.cond_est"

exception Singular of int
exception Unstable of int
exception Pattern_mismatch

type ordering = [ `Amd | `Auto | `Natural | `Rcm ]

type int_ba = Bcsr.int_ba
type float_ba = Bcsr.float_ba

let geti (a : int_ba) k = Int32.to_int (Ba.Array1.unsafe_get a k)
let getf (a : float_ba) k : float = Ba.Array1.unsafe_get a k

(* growable Bigarray buffer: the fill pattern is unknown up front, so
   factor columns are appended here and trimmed to exact size at the
   end; the payload never touches the OCaml heap *)
module Gbuf = struct
  type ('a, 'b) t = {
    mutable ba : ('a, 'b, Ba.c_layout) Ba.Array1.t;
    mutable len : int;
  }

  let create kind = { ba = Ba.Array1.create kind Ba.c_layout 256; len = 0 }

  let push b v =
    let cap = Ba.Array1.dim b.ba in
    if b.len >= cap then begin
      let nba = Ba.Array1.create (Ba.Array1.kind b.ba) Ba.c_layout (2 * cap) in
      Ba.Array1.blit b.ba (Ba.Array1.sub nba 0 cap);
      b.ba <- nba
    end;
    Ba.Array1.unsafe_set b.ba b.len v;
    b.len <- b.len + 1

  let trim b =
    let out = Ba.Array1.create (Ba.Array1.kind b.ba) Ba.c_layout b.len in
    Ba.Array1.blit (Ba.Array1.sub b.ba 0 b.len) out;
    out
end

(* Everything value-independent about a factorisation: the fill
   ordering, the pivot permutation, the L/U fill patterns, the recorded
   elimination schedule per column, and the scatter map from the
   caller's CSR value array into permuted CSC columns. [refactor]
   replays all of it against new values. *)
type symbolic = {
  sn : int;
  sym : int array option;  (* fill-reducing ordering, new -> old *)
  pinv : int array;  (* permuted row -> pivot position *)
  perm : int array;  (* pivot position -> permuted row *)
  l_ptr : int array;  (* n+1 column pointers into l_idx *)
  l_idx : int_ba;  (* strictly-below-pivot rows, analysis order *)
  u_ptr : int array;
  u_idx : int_ba;  (* pivot positions ascending, diagonal (= j) last *)
  elim_ptr : int array;
  elim : int_ba;  (* pivotal columns per column, elimination order *)
  at_ptr : int array;  (* permuted CSC of the analyzed pattern *)
  at_idx : int array;  (* permuted row of each CSC entry *)
  at_src : int array;  (* index of that entry in the caller's values *)
  p_rows : int;  (* analyzed pattern, for refactor verification *)
  p_row_ptr : int array;
  p_col_ind : int array;
}

type t = {
  s : symbolic;
  l_val : float_ba;  (** L, scaled by 1/pivot, parallel to [s.l_idx] *)
  u_val : float_ba;  (** U in pivot coordinates, parallel to [s.u_idx] *)
  rscale : float_ba;
      (** row equilibration, permuted rows: the factors hold [R·A] with
          [R = diag(1/max|row|)]; solves scale [b] by [R] to compensate *)
  norm1 : float;  (** ‖A‖₁ of the factored matrix (unscaled), for cond_est *)
  cond1 : float option Atomic.t;
      (** cached Hager estimate; Atomic because factors are shared by
          queries on several domains *)
}

let symbolic_of f = f.s
let nnz_factors f = f.s.l_ptr.(f.s.sn) + f.s.u_ptr.(f.s.sn)

let note_fill f nnz_a =
  let fill = nnz_factors f in
  Metrics.set_gauge g_fill_nnz (float_of_int fill);
  if nnz_a > 0 then
    Metrics.set_gauge g_fill_ratio (float_of_int fill /. float_of_int nnz_a)

let check_pivot_tol pivot_tol =
  if not (pivot_tol > 0.0 && pivot_tol <= 1.0) then
    invalid_arg
      (Printf.sprintf "Slu.factor: pivot_tol %g outside (0, 1]" pivot_tol)

let resolve_ordering ordering n =
  match ordering with
  | `Auto -> if n > 512 then `Amd else `Rcm
  | (`Amd | `Rcm | `Natural) as o -> o

(* depth-first search from [start] through the columns of L restricted
   to pivotal rows; emits vertices in post-order onto [stack]. The
   explicit vertex/cursor stacks avoid recursion and allocation. Column
   k is scanned up to [lpend.(k)], which pruning may have pulled in
   from [l_ptr.(k + 1)]; [edges] counts the entries scanned. *)
let reach ~pinv ~l_ptr ~lpend ~(l_idx : int_ba) ~marked ~mark ~stack ~top
    ~dfs_v ~dfs_c ~edges start =
  if marked.(start) <> mark then begin
    marked.(start) <- mark;
    dfs_v.(0) <- start;
    dfs_c.(0) <- 0;
    let depth = ref 0 in
    while !depth >= 0 do
      let v = dfs_v.(!depth) in
      let k = pinv.(v) in
      let base = if k >= 0 then l_ptr.(k) else 0 in
      let lim = if k >= 0 then lpend.(k) else 0 in
      let c = dfs_c.(!depth) in
      if base + c < lim then begin
        let child = geti l_idx (base + c) in
        dfs_c.(!depth) <- c + 1;
        if marked.(child) <> mark then begin
          marked.(child) <- mark;
          incr depth;
          dfs_v.(!depth) <- child;
          dfs_c.(!depth) <- 0
        end
      end
      else begin
        edges := !edges + (lim - base);
        stack.(!top) <- v;
        incr top;
        decr depth
      end
    done
  end

(* Symmetric pruning (Eisenstat–Liu, as in KLU). When column j pivots
   on a row that L(:, k) holds, for a column k in U(:, j), every row of
   L(:, k) not yet pivotal is also a row of L(:, j), so any later reach
   through k finds it through j's pivot row. L(:, k) is then
   partitioned stably, pivotal rows first with their values alongside,
   and [lpend.(k)] stops the DFS after them. Each column is pruned at
   most once: its remaining rows are all pivotal, so no later pivot row
   can appear among them. *)
let prune ~pinv ~l_ptr ~lpend ~pruned ~(l_idx : int_ba) ~(l_val : float_ba)
    ~tail_i ~tail_v ~pivot_row k =
  let lo = l_ptr.(k) and hi = l_ptr.(k + 1) in
  let t = ref lo in
  while !t < hi && geti l_idx !t <> pivot_row do
    incr t
  done;
  if !t < hi then begin
    let head = ref lo and tail = ref 0 in
    for t = lo to hi - 1 do
      let r = geti l_idx t and v = getf l_val t in
      if pinv.(r) >= 0 then begin
        Ba.Array1.unsafe_set l_idx !head (Int32.of_int r);
        Ba.Array1.unsafe_set l_val !head v;
        incr head
      end
      else begin
        tail_i.(!tail) <- r;
        tail_v.(!tail) <- v;
        incr tail
      end
    done;
    for t = 0 to !tail - 1 do
      Ba.Array1.unsafe_set l_idx (!head + t) (Int32.of_int tail_i.(t));
      Ba.Array1.unsafe_set l_val (!head + t) tail_v.(t)
    done;
    lpend.(k) <- !head;
    pruned.(k) <- true
  end

(* Gilbert–Peierls left-looking factorisation with threshold pivoting,
   recording the symbolic structure as it goes. [row_ptr]/[col_ind]
   describe the input pattern in original coordinates, [val_at] fetches
   a value by its index in the caller's value storage, and [pat] is a
   CSR view of the same pattern used only to compute the ordering. *)
let analyze_core ~ordering ~pivot_tol ~n ~row_ptr ~col_ind ~val_at ~pat
    ~norm1 =
  let sym =
    match resolve_ordering ordering n with
    | `Natural -> None
    | `Rcm -> Some (Rcm.ordering pat)
    | `Amd -> Some (Amd.ordering pat)
  in
  (* permuted CSC with source indices: entry (i, j) of A lands in column
     psym(j) as row psym(i), remembering where its value lives *)
  let psym =
    match sym with None -> Array.init n Fun.id | Some p -> Rcm.inverse p
  in
  let nnz = row_ptr.(n) in
  let at_ptr = Array.make (n + 1) 0 in
  let at_idx = Array.make nnz 0 in
  let at_src = Array.make nnz 0 in
  for i = 0 to n - 1 do
    for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
      let j' = psym.(col_ind.(k)) in
      at_ptr.(j' + 1) <- at_ptr.(j' + 1) + 1
    done
  done;
  for j = 1 to n do
    at_ptr.(j) <- at_ptr.(j) + at_ptr.(j - 1)
  done;
  let cursor = Array.copy at_ptr in
  for i = 0 to n - 1 do
    let i' = psym.(i) in
    for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
      let j' = psym.(col_ind.(k)) in
      at_idx.(cursor.(j')) <- i';
      at_src.(cursor.(j')) <- k;
      cursor.(j') <- cursor.(j') + 1
    done
  done;
  (* KLU-style row equilibration: factor R·A with R = diag(1/max|row|).
     Badly scaled rows — e.g. inductor-current rows of an MNA pencil,
     where L/h sits next to ±1 incidence entries — would otherwise lose
     their diagonal to threshold pivoting and destroy the fill-reducing
     order. The scale is recomputed from the values on every refactor
     (identically, preserving bit-for-bit replay); solves undo it. *)
  let rscale = Ba.Array1.create Ba.float64 Ba.c_layout n in
  Ba.Array1.fill rscale 1.0;
  for i = 0 to n - 1 do
    let m = ref 0.0 in
    for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
      let a = Float.abs (val_at k) in
      if a > !m then m := a
    done;
    if !m > 0.0 then Ba.Array1.set rscale psym.(i) (1.0 /. !m)
  done;
  let l_ptr = Array.make (n + 1) 0 in
  let u_ptr = Array.make (n + 1) 0 in
  let elim_ptr = Array.make (n + 1) 0 in
  let lb_idx = Gbuf.create Ba.int32 in
  let lb_val = Gbuf.create Ba.float64 in
  let ub_idx = Gbuf.create Ba.int32 in
  let ub_val = Gbuf.create Ba.float64 in
  let eb = Gbuf.create Ba.int32 in
  let pinv = Array.make n (-1) in
  let perm = Array.make n (-1) in
  let x = Array.make n 0.0 in
  let marked = Array.make n (-1) in
  let stack = Array.make n 0 in
  let dfs_v = Array.make n 0 in
  let dfs_c = Array.make n 0 in
  let u_pos = Array.make n 0 in
  let lpend = Array.make n 0 and pruned = Array.make n false in
  let tail_i = Array.make n 0 and tail_v = Array.make n 0.0 in
  let edges = ref 0 in
  for j = 0 to n - 1 do
    (* symbolic: union of reaches from the pattern of column j *)
    let top = ref 0 in
    for k = at_ptr.(j) to at_ptr.(j + 1) - 1 do
      reach ~pinv ~l_ptr ~lpend ~l_idx:lb_idx.Gbuf.ba ~marked ~mark:j ~stack
        ~top ~dfs_v ~dfs_c ~edges at_idx.(k)
    done;
    let count = !top in
    (* numeric: scatter the column, then eliminate in topological order
       (reverse post-order), recording the pivotal columns touched *)
    for k = at_ptr.(j) to at_ptr.(j + 1) - 1 do
      let i' = at_idx.(k) in
      x.(i') <- val_at at_src.(k) *. getf rscale i'
    done;
    for s = count - 1 downto 0 do
      let v = stack.(s) in
      let k = pinv.(v) in
      if k >= 0 then begin
        Gbuf.push eb (Int32.of_int k);
        let xv = x.(v) in
        if xv <> 0.0 then
          for t = l_ptr.(k) to l_ptr.(k + 1) - 1 do
            let r = geti lb_idx.Gbuf.ba t in
            x.(r) <- x.(r) -. (getf lb_val.Gbuf.ba t *. xv)
          done
      end
    done;
    (* partition into U rows (already pivotal) and pivot candidates *)
    let ucount = ref 0 in
    let best = ref (-1) and best_mag = ref 0.0 in
    let diag_val = ref 0.0 and diag_present = ref false in
    for s = 0 to count - 1 do
      let v = stack.(s) in
      if pinv.(v) >= 0 then begin
        u_pos.(!ucount) <- pinv.(v);
        incr ucount
      end
      else begin
        let xv = x.(v) in
        if v = j then begin
          diag_val := xv;
          diag_present := true
        end;
        if Float.abs xv > !best_mag then begin
          best_mag := Float.abs xv;
          best := v
        end
      end
    done;
    if !best < 0 || !best_mag < 1e-300 then
      (* report the column in the *original* ordering so callers can
         name the offending unknown *)
      raise (Singular (match sym with Some p -> p.(j) | None -> j));
    (* threshold pivoting: keep the diagonal when it is big enough *)
    let pivot_row =
      if !diag_present && Float.abs !diag_val >= pivot_tol *. !best_mag then j
      else !best
    in
    let piv = x.(pivot_row) in
    (* L column: candidates except the pivot, divided by the pivot *)
    for s = 0 to count - 1 do
      let v = stack.(s) in
      if pinv.(v) < 0 && v <> pivot_row then begin
        Gbuf.push lb_idx (Int32.of_int v);
        Gbuf.push lb_val (x.(v) /. piv)
      end
    done;
    (* U column: pivotal entries sorted by position, diagonal last *)
    let upos = Array.sub u_pos 0 !ucount in
    Array.sort compare upos;
    for t = 0 to !ucount - 1 do
      Gbuf.push ub_idx (Int32.of_int upos.(t));
      Gbuf.push ub_val x.(perm.(upos.(t)))
    done;
    Gbuf.push ub_idx (Int32.of_int j);
    Gbuf.push ub_val piv;
    for s = 0 to count - 1 do
      x.(stack.(s)) <- 0.0
    done;
    pinv.(pivot_row) <- j;
    perm.(j) <- pivot_row;
    l_ptr.(j + 1) <- lb_idx.Gbuf.len;
    u_ptr.(j + 1) <- ub_idx.Gbuf.len;
    elim_ptr.(j + 1) <- eb.Gbuf.len;
    lpend.(j) <- l_ptr.(j + 1);
    Array.iter
      (fun k ->
        if not pruned.(k) then
          prune ~pinv ~l_ptr ~lpend ~pruned ~l_idx:lb_idx.Gbuf.ba
            ~l_val:lb_val.Gbuf.ba ~tail_i ~tail_v ~pivot_row k)
      upos
  done;
  Metrics.incr ~by:!edges m_reach_edges;
  let s =
    {
      sn = n;
      sym;
      pinv;
      perm;
      l_ptr;
      l_idx = Gbuf.trim lb_idx;
      u_ptr;
      u_idx = Gbuf.trim ub_idx;
      elim_ptr;
      elim = Gbuf.trim eb;
      at_ptr;
      at_idx;
      at_src;
      p_rows = n;
      p_row_ptr = row_ptr;
      p_col_ind = col_ind;
    }
  in
  let f =
    { s; l_val = Gbuf.trim lb_val; u_val = Gbuf.trim ub_val; rscale; norm1;
      cond1 = Atomic.make None }
  in
  (s, f)

let csr_norm1 a =
  let _, m = Csr.dims a in
  let sums = Array.make m 0.0 in
  Csr.iter (fun _ j v -> sums.(j) <- sums.(j) +. Float.abs v) a;
  Array.fold_left Float.max 0.0 sums

let analyze ?(ordering = `Auto) ?(pivot_tol = 0.1) (a : Csr.t) =
  check_pivot_tol pivot_tol;
  let n, m = Csr.dims a in
  if n <> m then invalid_arg "Slu.factor: non-square matrix";
  Metrics.incr m_analyze;
  Metrics.incr m_factor;
  Metrics.time h_factor_seconds @@ fun () ->
  let norm1 = csr_norm1 a in
  let s, f =
    analyze_core ~ordering ~pivot_tol ~n ~row_ptr:a.Csr.row_ptr
      ~col_ind:a.Csr.col_ind
      ~val_at:(fun k -> a.Csr.values.(k))
      ~pat:a ~norm1
  in
  note_fill f (Csr.nnz a);
  (s, f)

let factor ?ordering ?pivot_tol a = snd (analyze ?ordering ?pivot_tol a)

let factor_b ?(ordering = `Auto) ?(pivot_tol = 0.1) (b : Bcsr.t) =
  check_pivot_tol pivot_tol;
  let n, m = Bcsr.dims b in
  if n <> m then invalid_arg "Slu.factor: non-square matrix";
  Metrics.incr m_analyze;
  Metrics.incr m_factor;
  Metrics.time h_factor_seconds @@ fun () ->
  let nnz = Bcsr.nnz b in
  let row_ptr =
    Array.init (n + 1) (fun i -> Int32.to_int (Ba.Array1.get b.Bcsr.row_ptr i))
  in
  let col_ind =
    Array.init nnz (fun k -> Int32.to_int (Ba.Array1.get b.Bcsr.col_ind k))
  in
  (* pattern-only CSR view for the ordering; the numeric scatter reads
     the Bigarray values directly, no float copy is made *)
  let pat =
    { Csr.rows = n; cols = n; row_ptr; col_ind; values = Array.make nnz 1.0 }
  in
  let sums = Array.make n 0.0 in
  for k = 0 to nnz - 1 do
    let j = col_ind.(k) in
    sums.(j) <- sums.(j) +. Float.abs (Ba.Array1.get b.Bcsr.values k)
  done;
  let norm1 = Array.fold_left Float.max 0.0 sums in
  let _, f =
    analyze_core ~ordering ~pivot_tol ~n ~row_ptr ~col_ind
      ~val_at:(fun k -> Ba.Array1.get b.Bcsr.values k)
      ~pat ~norm1
  in
  note_fill f nnz;
  f

let pattern_matches s (a : Csr.t) =
  let same_ints (x : int array) (y : int array) =
    x == y
    || Array.length x = Array.length y
       &&
       let ok = ref true in
       (try
          for k = 0 to Array.length x - 1 do
            if x.(k) <> y.(k) then begin
              ok := false;
              raise Exit
            end
          done
        with Exit -> ());
       !ok
  in
  a.Csr.rows = s.p_rows
  && a.Csr.cols = s.p_rows
  && Array.length a.Csr.col_ind = Array.length s.p_col_ind
  && same_ints a.Csr.row_ptr s.p_row_ptr
  && same_ints a.Csr.col_ind s.p_col_ind

let refactor ?(stability_tol = 0.01) s (a : Csr.t) =
  if not (stability_tol >= 0.0 && stability_tol <= 1.0) then
    invalid_arg
      (Printf.sprintf "Slu.refactor: stability_tol %g outside [0, 1]"
         stability_tol);
  if not (pattern_matches s a) then raise Pattern_mismatch;
  Metrics.incr m_factor;
  Metrics.time h_factor_seconds @@ fun () ->
  let n = s.sn in
  let norm1 = csr_norm1 a in
  let values = a.Csr.values in
  let l_val = Ba.Array1.create Ba.float64 Ba.c_layout s.l_ptr.(n) in
  let u_val = Ba.Array1.create Ba.float64 Ba.c_layout s.u_ptr.(n) in
  let x = Array.make n 0.0 in
  let orig j = match s.sym with Some p -> p.(j) | None -> j in
  (* row equilibration recomputed from the new values, exactly as the
     analysis did, so a refactor on the analyzed values stays
     bit-identical to the fresh factorisation *)
  let rscale = Ba.Array1.create Ba.float64 Ba.c_layout n in
  Ba.Array1.fill rscale 1.0;
  for j' = 0 to n - 1 do
    let i = orig j' in
    let m = ref 0.0 in
    for k = s.p_row_ptr.(i) to s.p_row_ptr.(i + 1) - 1 do
      let a = Float.abs values.(k) in
      if a > !m then m := a
    done;
    if !m > 0.0 then Ba.Array1.set rscale j' (1.0 /. !m)
  done;
  for j = 0 to n - 1 do
    (* replay of the analysis column, arithmetic in the same order:
       scatter, eliminate along the recorded schedule, divide *)
    for k = s.at_ptr.(j) to s.at_ptr.(j + 1) - 1 do
      let i' = s.at_idx.(k) in
      x.(i') <- values.(s.at_src.(k)) *. getf rscale i'
    done;
    for t = s.elim_ptr.(j) to s.elim_ptr.(j + 1) - 1 do
      let k = geti s.elim t in
      let xv = x.(s.perm.(k)) in
      if xv <> 0.0 then
        for q = s.l_ptr.(k) to s.l_ptr.(k + 1) - 1 do
          let r = geti s.l_idx q in
          x.(r) <- x.(r) -. (getf l_val q *. xv)
        done
    done;
    (* the pivot is fixed by the analysis; verify it is still usable
       against the new values before committing to it *)
    let pivot_row = s.perm.(j) in
    let piv = x.(pivot_row) in
    let best_mag = ref (Float.abs piv) in
    for q = s.l_ptr.(j) to s.l_ptr.(j + 1) - 1 do
      let m = Float.abs x.(geti s.l_idx q) in
      if m > !best_mag then best_mag := m
    done;
    if !best_mag < 1e-300 then raise (Singular (orig j));
    if Float.abs piv < 1e-300 || Float.abs piv < stability_tol *. !best_mag
    then raise (Unstable (orig j));
    for q = s.l_ptr.(j) to s.l_ptr.(j + 1) - 1 do
      Ba.Array1.unsafe_set l_val q (x.(geti s.l_idx q) /. piv)
    done;
    for t = s.u_ptr.(j) to s.u_ptr.(j + 1) - 2 do
      Ba.Array1.unsafe_set u_val t x.(s.perm.(geti s.u_idx t))
    done;
    Ba.Array1.unsafe_set u_val (s.u_ptr.(j + 1) - 1) piv;
    (* reset the scratch: U rows, L rows, and the pivot row cover the
       whole reach of this column *)
    for t = s.u_ptr.(j) to s.u_ptr.(j + 1) - 2 do
      x.(s.perm.(geti s.u_idx t)) <- 0.0
    done;
    for q = s.l_ptr.(j) to s.l_ptr.(j + 1) - 1 do
      x.(geti s.l_idx q) <- 0.0
    done;
    x.(pivot_row) <- 0.0
  done;
  Metrics.incr m_reuse;
  { s; l_val; u_val; rscale; norm1; cond1 = Atomic.make None }

let factor_hinted ?ordering ?pivot_tol ?stability_tol ~hint a =
  let fresh () =
    let s, f = analyze ?ordering ?pivot_tol a in
    hint := Some s;
    f
  in
  match !hint with
  | None -> fresh ()
  | Some s -> (
      match refactor ?stability_tol s a with
      | f -> f
      | exception (Pattern_mismatch | Unstable _ | Singular _) -> fresh ())

(* The factors are of R·A' with A' = P A Pᵀ, (Pz)(i) = z(p(i)) for the
   fill-reducing ordering p (identity when there is none), so
   x = Pᵀ U⁻¹ L⁻¹ (R P b). The permutation of b and of the result are
   folded into the first and last passes. *)
let sym_index s i = match s.sym with None -> i | Some p -> p.(i)

let solve_unlogged f b =
  let s = f.s in
  let n = s.sn in
  if Array.length b <> n then invalid_arg "Slu.solve: dimension mismatch";
  (* forward: L y = P (R b); the L updates reference permuted row ids,
     so the elimination runs on a scratch copy indexed by rows while y
     collects the values in pivot order *)
  let xr = Array.make n 0.0 in
  for i = 0 to n - 1 do
    xr.(i) <- b.(sym_index s i) *. getf f.rscale i
  done;
  let y = Array.make n 0.0 in
  for k = 0 to n - 1 do
    let row = s.perm.(k) in
    let xv = xr.(row) in
    y.(k) <- xv;
    if xv <> 0.0 then
      for t = s.l_ptr.(k) to s.l_ptr.(k + 1) - 1 do
        let r = geti s.l_idx t in
        xr.(r) <- xr.(r) -. (getf f.l_val t *. xv)
      done
  done;
  (* backward: U x = y, with U stored by columns (diagonal last) *)
  for j = n - 1 downto 0 do
    let lo = s.u_ptr.(j) and hi = s.u_ptr.(j + 1) in
    let diag = getf f.u_val (hi - 1) in
    let xj = y.(j) /. diag in
    y.(j) <- xj;
    if xj <> 0.0 then
      for t = lo to hi - 2 do
        let p = geti s.u_idx t in
        y.(p) <- y.(p) -. (getf f.u_val t *. xj)
      done
  done;
  match s.sym with
  | None -> y
  | Some p ->
      for i = 0 to n - 1 do
        xr.(p.(i)) <- y.(i)
      done;
      xr

let solve f b =
  Metrics.incr m_solve;
  solve_unlogged f b

let solve_many ?pool f bs =
  Metrics.incr ~by:(Array.length bs) m_solve;
  let p = match pool with Some p -> p | None -> Pool.global () in
  Pool.map p (solve_unlogged f) bs

(* Aᵀ x = b from the same factors: the factors hold M = R·A' with
   M = P⁻¹LU (rows permuted, columns in natural order), and
   A'ᵀ = Mᵀ R⁻¹, so solve Mᵀ w = P b then return x = Pᵀ R w. Uᵀ z = P b
   runs forward over the U columns (column j of U is row j of Uᵀ,
   diagonal stored last), Lᵀ w = z runs backward using L's entries
   L(pinv(idx), k), and finally x(p(perm(k))) = rscale(perm(k))·w(k). *)
let solve_transpose f b =
  let s = f.s in
  let n = s.sn in
  if Array.length b <> n then
    invalid_arg "Slu.solve_transpose: dimension mismatch";
  let z = Array.make n 0.0 in
  for i = 0 to n - 1 do
    z.(i) <- b.(sym_index s i)
  done;
  for j = 0 to n - 1 do
    let lo = s.u_ptr.(j) and hi = s.u_ptr.(j + 1) in
    let acc = ref z.(j) in
    for t = lo to hi - 2 do
      acc := !acc -. (getf f.u_val t *. z.(geti s.u_idx t))
    done;
    z.(j) <- !acc /. getf f.u_val (hi - 1)
  done;
  for k = n - 1 downto 0 do
    let acc = ref z.(k) in
    for t = s.l_ptr.(k) to s.l_ptr.(k + 1) - 1 do
      acc := !acc -. (getf f.l_val t *. z.(s.pinv.(geti s.l_idx t)))
    done;
    z.(k) <- !acc
  done;
  let x = Array.make n 0.0 in
  for k = 0 to n - 1 do
    let row = s.perm.(k) in
    x.(sym_index s row) <- z.(k) *. getf f.rscale row
  done;
  x

let cond_est f =
  match Atomic.get f.cond1 with
  | Some c -> c
  | None ->
      let inv =
        Lu.inv_norm1_est ~n:f.s.sn ~solve:(solve f)
          ~solve_t:(solve_transpose f)
      in
      let c = f.norm1 *. inv in
      Atomic.set f.cond1 (Some c);
      Metrics.set_gauge g_cond_est c;
      c

let solve_dense a b = solve (factor a) b
