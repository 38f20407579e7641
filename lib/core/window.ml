open Opm_numkit
open Opm_sparse
open Opm_basis
open Opm_robust
module Json = Opm_obs.Json
module Metrics = Opm_obs.Metrics
module Trace = Opm_obs.Trace

type stats = {
  windows : int;
  width : int;
  memory_len : int;
  factor_hits : int;
  factor_misses : int;
  handoff_seconds : float;
}

exception
  Interrupted of {
    error : Opm_error.t;
    partial : Mat.t;
    completed_windows : int;
    checkpoint : string option;
  }

let () =
  Printexc.register_printer (function
    | Interrupted { error; partial; completed_windows; checkpoint } ->
        let _, cols = Mat.dims partial in
        Some
          (Printf.sprintf
             "Window.Interrupted: %s [%d window(s) / %d column(s) completed%s]"
             (Opm_error.to_string error) completed_windows cols
             (match checkpoint with
             | Some p -> Printf.sprintf "; resumable checkpoint at %S" p
             | None -> ""))
    | _ -> None)

(* Window-handoff fault site: Nan_poison corrupts the carried state
   {e after} the window's columns are safely appended (so the NaN must
   surface as a structured error in a later window, never in delivered
   data); Latency sleeps; the other kinds raise Fault_injected. *)
let fault_handoff () =
  match Fault.fire Fault.Window_handoff with
  | None -> false
  | Some Fault.Latency ->
      Fault.latency_sleep ();
      false
  | Some Fault.Nan_poison -> true
  | Some (Fault.Singular | Fault.Enospc) ->
      Opm_error.raise_
        (Opm_error.Fault_injected
           {
             site = Fault.site_to_string Fault.Window_handoff;
             kind =
               (match Fault.armed () with
               | Some p -> Fault.kind_to_string p.kind
               | None -> "unknown");
           })

(* per-term carried state: the ρ_α = ρ_n ⊛ ρ_β split (see [run]
   below) plus the ring of transformed history columns y_t *)
type term_state = {
  coeff : Csr.t;
  support : int array;  (** the columns where [coeff] has a nonzero, ascending *)
  scale : float;  (** (2/h)^α *)
  n_int : int;  (** ⌊α⌋ *)
  beta : float;  (** α − ⌊α⌋ *)
  binom : float array;  (** C(n_int, p), p = 0 … n_int *)
  rho_beta : float array;  (** ρ series of the fractional factor *)
  yr : int;  (** y ring size: n_int, or max(k_eff, n_int) with a ρ_β tail; ≥ 1 *)
  yring : float array array;  (** y_t at slot t mod yr *)
}

let m_windows = Metrics.counter "window.count"
let m_factor_reuse = Metrics.counter "window.factor_reuse"
let h_handoff = Metrics.histogram "window.handoff_seconds"

(* α = n + β with n = ⌊α⌋: the driver carries the ρ_n (integer) factor
   of the history exactly and truncates only the decaying ρ_β tail, so
   the discarded weight — and hence the error heuristic — lives in the
   fractional factor alone. *)
let split_alpha alpha =
  let n_int = int_of_float (Float.floor alpha) in
  (n_int, alpha -. float_of_int n_int)

let truncation_mass ~alpha ~lags ~memory_len =
  if memory_len < 0 then invalid_arg "Window.truncation_mass: memory_len < 0";
  let _, beta = split_alpha alpha in
  if beta = 0.0 || lags < 1 || memory_len >= lags then 0.0
  else begin
    let rho = Series.one_minus_over_one_plus_pow beta (lags + 1) in
    let total = ref 0.0 in
    let tail = ref 0.0 in
    for j = 1 to lags do
      let a = Float.abs rho.(j) in
      total := !total +. a;
      if j > memory_len then tail := !tail +. a
    done;
    if !total = 0.0 then 0.0 else !tail /. !total
  end

let pencil_of backend (sys : Multi_term.t) =
  Engine.pencil backend
    (List.map (fun { Multi_term.coeff; _ } -> coeff) sys.Multi_term.terms
    @ [ sys.Multi_term.a ])

(* The within-window D blocks: the leading wlen×wlen block of the
   global Toeplitz D^α, so each window's engine run can take the FFT
   history path (gated on the global horizon [m]). *)
let window_history ~h ~m ~orders wlen = Engine.toeplitz ~orders ~step:h ~horizon:m wlen

let orders_of (sys : Multi_term.t) =
  List.map (fun { Multi_term.alpha; _ } -> alpha) sys.Multi_term.terms

let prefactor ctx pencil ~window:w ~grid (sys : Multi_term.t) =
  let m = Grid.size grid in
  let h = Grid.t_end grid /. float_of_int m in
  let history = window_history ~h ~m ~orders:(orders_of sys) (min w m) in
  ignore (Engine.prepare ctx pencil history : Engine.plan)

let solve ?(backend = `Auto) ?health ?memory_len ?on_window ?fcache
    ?budget ?checkpoint ?checkpoint_every ?resume_from
    ~window:w ~grid (sys : Multi_term.t) ~bu =
  Trace.with_span "window.solve" @@ fun () ->
  let m = Grid.size grid in
  let n = Multi_term.order sys in
  if w < 1 then invalid_arg "Window.solve: window width must be >= 1";
  if not (Grid.is_uniform ~tol:1e-12 grid) then
    invalid_arg "Window.solve: windowed streaming requires a uniform grid";
  let bn, bm = Mat.dims bu in
  if bn <> n || bm <> m then
    invalid_arg
      (Printf.sprintf "Window.solve: bu is %d×%d but system/grid need %d×%d"
         bn bm n m);
  let h = Grid.t_end grid /. float_of_int m in
  let k_eff =
    match memory_len with
    | None -> m
    | Some k ->
        if k < 0 then invalid_arg "Window.solve: memory_len < 0";
        min k m
  in
  let w = min w m in
  let nwin = (m + w - 1) / w in
  let pencil = pencil_of backend sys in
  let cp_every =
    match checkpoint_every with
    | None -> 1
    | Some k ->
        if k < 1 then invalid_arg "Window.solve: checkpoint_every < 1";
        k
  in
  let builder = Sim_result.Builder.create ~n in
  let handoff = ref 0.0 in
  let completed = ref 0 in
  let last_checkpoint = ref None in
  let rpath = Option.value resume_from ~default:"<checkpoint>" in
  let cp_fail path message =
    Opm_error.raise_ (Opm_error.Checkpoint_error { path; message })
  in
  (* The fingerprint ties a checkpoint to everything the resumed run
     must share for bit-identity: dimensions, effective window/memory
     widths, the exact step and α list (as IEEE-754 bits), backend, and
     a digest of the full input matrix. Its kind is always "general":
     a checkpoint of the retired order-1 endpoint path says "linear",
     so it fails the match instead of resuming into other state.
     Computed lazily — a run with neither checkpointing nor resume
     never pays the O(n·m) digest. *)
  let fingerprint =
    lazy
      (let bu_flat =
         Array.init (n * m) (fun k -> Mat.get bu (k mod n) (k / n))
       in
       let alphas =
         Array.of_list
           (List.map (fun t -> t.Multi_term.alpha) sys.Multi_term.terms)
       in
       Json.Obj
         [
           ("kind", Json.String "general");
           ("n", Json.Int n);
           ("m", Json.Int m);
           ("w", Json.Int w);
           ("memory_len", Json.Int k_eff);
           ("h", Checkpoint.encode_floats [| h |]);
           ("alphas", Checkpoint.encode_floats alphas);
           ("input_order", Json.Int sys.Multi_term.input_order);
           ( "backend",
             Json.String
               (match Engine.backend pencil with
               | `Dense -> "dense"
               | `Sparse -> "sparse") );
           ( "bu",
             Json.String
               (Checkpoint.checksum_of_payload (Checkpoint.encode_floats bu_flat))
           );
         ])
  in
  let encode_mat x =
    let xn, xm = Mat.dims x in
    Json.Obj
      [
        ("rows", Json.Int xn);
        ("cols", Json.Int xm);
        ( "data",
          Checkpoint.encode_floats
            (Array.init (xn * xm) (fun k -> Mat.get x (k mod xn) (k / xn))) );
      ]
  in
  let decode_mat j =
    match
      ( Option.bind (Json.member "rows" j) Json.to_int_opt,
        Option.bind (Json.member "cols" j) Json.to_int_opt,
        Json.member "data" j )
    with
    | Some r, Some c, Some d when r >= 0 && c >= 0 ->
        let a =
          try Checkpoint.decode_floats d
          with Invalid_argument msg -> cp_fail rpath msg
        in
        if Array.length a <> r * c then
          cp_fail rpath "prefix data does not match its declared shape";
        Mat.init r c (fun i j -> a.((j * r) + i))
    | _ -> cp_fail rpath "malformed prefix matrix"
  in
  (* ring slots: an untouched slot is a zero-length array *)
  let encode_slots slots =
    Json.List (Array.to_list (Array.map Checkpoint.encode_floats slots))
  in
  let decode_slots ~len j =
    match Json.to_list_opt j with
    | Some l when List.length l = len ->
        Array.of_list
          (List.map
             (fun e ->
               let a =
                 try Checkpoint.decode_floats e
                 with Invalid_argument msg -> cp_fail rpath msg
               in
               if Array.length a <> 0 && Array.length a <> n then
                 cp_fail rpath "ring slot has the wrong length";
               a)
             l)
    | _ -> cp_fail rpath "malformed ring encoding"
  in
  let maybe_checkpoint ~win state =
    match checkpoint with
    | None -> ()
    | Some path ->
        if (win + 1) mod cp_every = 0 || win = nwin - 1 then begin
          let payload =
            Json.Obj
              [
                ("fingerprint", Lazy.force fingerprint);
                ("next_window", Json.Int (win + 1));
                ("handoff", Checkpoint.encode_floats [| !handoff |]);
                ("prefix", encode_mat (Sim_result.Builder.to_mat builder));
                ("state", state ());
              ]
          in
          Checkpoint.save ~path payload;
          last_checkpoint := Some path
        end
  in
  let resume_state =
    match resume_from with
    | None -> None
    | Some path ->
        let payload = Checkpoint.load ~path in
        (match Json.member "fingerprint" payload with
        | Some fp when fp = Lazy.force fingerprint -> ()
        | Some _ ->
            cp_fail path
              "fingerprint mismatch: the checkpoint was written by a run with \
               a different system, grid, window width, memory length, backend \
               or input matrix"
        | None -> cp_fail path "missing fingerprint");
        let next =
          match
            Option.bind (Json.member "next_window" payload) Json.to_int_opt
          with
          | Some v when v >= 0 && v <= nwin -> v
          | _ -> cp_fail path "missing or out-of-range next_window"
        in
        (match Json.member "handoff" payload with
        | Some hj -> (
            match
              try Checkpoint.decode_floats hj with Invalid_argument _ -> [||]
            with
            | [| s |] -> handoff := s
            | _ -> cp_fail path "malformed handoff")
        | None -> cp_fail path "missing handoff");
        let prefix =
          match Json.member "prefix" payload with
          | Some p -> decode_mat p
          | None -> cp_fail path "missing prefix"
        in
        let pn, pm = Mat.dims prefix in
        if pn <> n || pm <> min (next * w) m then
          cp_fail path "prefix shape disagrees with next_window";
        if pm > 0 then Sim_result.Builder.append builder prefix;
        let state =
          match Json.member "state" payload with
          | Some s -> s
          | None -> cp_fail path "missing state"
        in
        completed := next;
        last_checkpoint := Some path;
        Some (next, state)
  in
  let start_win = match resume_state with Some (v, _) -> v | None -> 0 in
  (* a caller-owned cache (a compiled model prefactors and pins into
     it) falls back to a per-call private one, shared by every window;
     the per-call stats below add up this call's own lookups, so they
     stay this call's while other queries share the cache *)
  let fcache =
    match fcache with Some c -> c | None -> Engine.Factor_cache.create ()
  in
  let ctx = { Engine.health; budget; fcache = Some fcache } in
  let hits = ref 0 and misses = ref 0 in
  let run_window history bu_win =
    let plan = Engine.prepare ctx pencil history in
    let x = Engine.solve plan bu_win in
    let h, mi = Engine.lookups plan in
    hits := !hits + h;
    misses := !misses + mi;
    x
  in
  let finish_window ~index ~start ~dt x_win =
    handoff := !handoff +. dt;
    Metrics.incr m_windows;
    Metrics.observe h_handoff dt;
    Sim_result.Builder.append builder x_win;
    completed := !completed + 1;
    Option.iter (fun f -> f ~index ~start x_win) on_window
  in
  let budget_window () =
    match budget with
    | None -> ()
    | Some b -> Budget.check_deadline_now b ~site:"window.boundary"
  in
  (* The tail of the Toeplitz history becomes a RHS correction. ρ_α
     factors as ρ_n ⊛ ρ_β (n = ⌊α⌋): because
     ((1−q)/(1+q))^n satisfies (1+q)^n·y = (1−q)^n·x, the integer
     factor is an order-n linear recurrence

      Σ_p C(n,p) y_{t−p} = Σ_p (−1)^p C(n,p) x_{t−p}

     whose state is carried across windows {e exactly} — the ρ_n
     weights alternate without decay, so they must never be truncated.
     Only the ρ_β factor (weights decaying like lag^{−(1+β)}) is
     short-memory truncated to the last k_eff transformed columns. *)
  let run () =
    let orders = orders_of sys in
    let term_data =
      List.map
        (fun { Multi_term.coeff; alpha } ->
          let n_int, beta = split_alpha alpha in
          let binom = Array.make (n_int + 1) 1.0 in
          for p = 1 to n_int do
            binom.(p) <-
              binom.(p - 1)
              *. float_of_int (n_int - p + 1)
              /. float_of_int p
          done;
          let rho_beta =
            if beta = 0.0 then [||] else Series.one_minus_over_one_plus_pow beta m
          in
          (* y ring keeps the n_int recurrence boundary values —
             exact carried state — and, for a ρ_β tail, the last k_eff
             transformed columns *)
          let yr = max (if beta = 0.0 then n_int else max k_eff n_int) 1 in
          let seen = Array.make n false in
          Csr.iter (fun _ c v -> if v <> 0.0 then seen.(c) <- true) coeff;
          {
            coeff;
            support = Array.of_list (List.filter (fun c -> seen.(c)) (List.init n Fun.id));
            scale = (2.0 /. h) ** alpha;
            n_int;
            beta;
            binom;
            rho_beta;
            yr;
            yring = Array.make yr [||];
          })
        sys.Multi_term.terms
    in
    let history = window_history ~h ~m ~orders in
    let full_history = history w in
    let ilog2 v =
      let r = ref 0 and v = ref v in
      while !v > 1 do
        incr r;
        v := !v lsr 1
      done;
      !r
    in
    let max_nint = List.fold_left (fun acc ti -> max acc ti.n_int) 0 term_data in
    let xr = max max_nint 1 in
    let xring = Array.make xr [||] in
    let zero_vec = Array.make n 0.0 in
    (match resume_state with
    | None -> ()
    | Some (_, st) ->
        (match Json.member "xring" st with
        | Some xj ->
            let slots = decode_slots ~len:xr xj in
            Array.blit slots 0 xring 0 xr
        | None -> cp_fail rpath "missing xring state");
        (match Option.map Json.to_list_opt (Json.member "terms" st) with
        | Some (Some l) when List.length l = List.length term_data ->
            List.iter2
              (fun ti tj ->
                match Json.member "yring" tj with
                | Some yj ->
                    let slots = decode_slots ~len:ti.yr yj in
                    Array.blit slots 0 ti.yring 0 ti.yr
                | None -> cp_fail rpath "missing yring state")
              term_data l
        | _ -> cp_fail rpath "malformed per-term state"));
    let state_json () =
      Json.Obj
        [
          ("xring", encode_slots xring);
          ( "terms",
            Json.List
              (List.map
                 (fun ti -> Json.Obj [ ("yring", encode_slots ti.yring) ])
                 term_data) );
        ]
    in
    for win = start_win to nwin - 1 do
      budget_window ();
      let s = win * w in
      let wlen = min w (m - s) in
      Trace.with_span "window" (fun () ->
          let t0 = Unix.gettimeofday () in
          let bu_win = Mat.init n wlen (fun r l -> Mat.get bu r (s + l)) in
          let j0 = max 0 (s - k_eff) in
          if s > 0 then
            List.iter
              (fun ti ->
                (* u_t, t ∈ [s, s+wlen): the pre-window history pushed
                   through the ρ_n transform with in-window x ≡ 0 — the
                   part of the transformed stream the window's own D
                   does not see *)
                let u = Array.make wlen zero_vec in
                for l = 0 to wlen - 1 do
                  let t = s + l in
                  let acc = Array.make n 0.0 in
                  for p = 0 to ti.n_int do
                    let j = t - p in
                    if j < s && j >= 0 then
                      let c =
                        (if p land 1 = 1 then -1.0 else 1.0) *. ti.binom.(p)
                      in
                      Vec.axpy c xring.(j mod xr) acc
                  done;
                  for p = 1 to ti.n_int do
                    let j = t - p in
                    let v =
                      if j >= s then u.(j - s)
                      else if j >= 0 then ti.yring.(j mod ti.yr)
                      else zero_vec
                    in
                    Vec.axpy (-.ti.binom.(p)) v acc
                  done;
                  u.(l) <- acc
                done;
                (* tail correction T_l = scale · Σ_b ρ_β(b) U(t−b),
                   truncated to transformed columns ≥ j0; β = 0 terms
                   collapse to T_l = scale · u_l — exact, no tail *)
                (* the pre-window part Σ_{tt=j0}^{s−1} ρ_β(t−tt)·y(tt)
                   is a middle product: the slice [p_len, p_len+wlen) of
                   the convolution of the ring contents y[j0, s) with
                   the ρ_β prefix. Above a flop threshold (naive is
                   wlen·p_len axpys per row vs two length-fsize
                   transforms) it goes through the shared FFT kernels,
                   for the support rows only: coeff multiplies the
                   other rows of v by zero. The in-window part (at
                   most wlen lags) stays naive either way *)
                let p_len = s - j0 in
                let pre =
                  if ti.beta = 0.0 || p_len = 0 then None
                  else begin
                    let fsize = Fft.next_power_of_two (p_len + wlen) in
                    if
                      Engine.fft_rhs_enabled ()
                      && wlen * p_len >= 4 * fsize * (ilog2 fsize + 1)
                    then begin
                      let klen =
                        min (Array.length ti.rho_beta) (p_len + wlen)
                      in
                      let kernel = Array.sub ti.rho_beta 0 klen in
                      let ys =
                        Array.map
                          (fun r ->
                            Array.init p_len (fun a ->
                                ti.yring.((j0 + a) mod ti.yr).(r)))
                          ti.support
                      in
                      Some (Fft.conv_real_many ys kernel)
                    end
                    else None
                  end
                in
                for l = 0 to wlen - 1 do
                  let t = s + l in
                  let v = Array.make n 0.0 in
                  (if ti.beta = 0.0 then Vec.axpy ti.scale u.(l) v
                   else
                     match pre with
                     | Some cv ->
                         let idx = p_len + l in
                         Array.iteri
                           (fun j r ->
                             let c = cv.(j) in
                             if idx < Array.length c then
                               v.(r) <- ti.scale *. c.(idx))
                           ti.support;
                         for tt = s to t do
                           let c = ti.scale *. ti.rho_beta.(t - tt) in
                           if c <> 0.0 then Vec.axpy c u.(tt - s) v
                         done
                     | None ->
                         for tt = j0 to t do
                           let c = ti.scale *. ti.rho_beta.(t - tt) in
                           if c <> 0.0 then
                             let uv =
                               if tt >= s then u.(tt - s)
                               else ti.yring.(tt mod ti.yr)
                             in
                             Vec.axpy c uv v
                         done);
                  let ev = Csr.mul_vec ti.coeff v in
                  for r = 0 to n - 1 do
                    Mat.update bu_win r l (fun x -> x -. ev.(r))
                  done
                done)
              term_data;
          let dt_pre = Unix.gettimeofday () -. t0 in
          let hist = if wlen = w then full_history else history wlen in
          let x_win = run_window hist bu_win in
          let t1 = Unix.gettimeofday () in
          (* advance the carried state: push the window's columns through
             each term's ρ_n recurrence (this time with the real x) and
             into the y rings, then refresh the x ring *)
          let xcols = Array.init wlen (fun l -> Mat.col x_win l) in
          List.iter
            (fun ti ->
              if ti.n_int = 0 then
                for l = 0 to wlen - 1 do
                  ti.yring.((s + l) mod ti.yr) <- xcols.(l)
                done
              else begin
                let ys = Array.make wlen zero_vec in
                for l = 0 to wlen - 1 do
                  let t = s + l in
                  let acc = Array.make n 0.0 in
                  for p = 0 to ti.n_int do
                    let j = t - p in
                    if j >= 0 then
                      let xv =
                        if j >= s then xcols.(j - s) else xring.(j mod xr)
                      in
                      let c =
                        (if p land 1 = 1 then -1.0 else 1.0) *. ti.binom.(p)
                      in
                      Vec.axpy c xv acc
                  done;
                  for p = 1 to ti.n_int do
                    let j = t - p in
                    if j >= 0 then
                      let yv =
                        if j >= s then ys.(j - s)
                        else ti.yring.(j mod ti.yr)
                      in
                      Vec.axpy (-.ti.binom.(p)) yv acc
                  done;
                  ys.(l) <- acc
                done;
                for l = 0 to wlen - 1 do
                  ti.yring.((s + l) mod ti.yr) <- ys.(l)
                done
              end)
            term_data;
          if max_nint > 0 then
            for l = 0 to wlen - 1 do
              xring.((s + l) mod xr) <- xcols.(l)
            done;
          let dt = dt_pre +. (Unix.gettimeofday () -. t1) in
          finish_window ~index:win ~start:s ~dt x_win;
          maybe_checkpoint ~win state_json;
          if fault_handoff () then
            match term_data with
            | ti :: _ ->
                let slot = ti.yring.((s + wlen - 1) mod ti.yr) in
                if Array.length slot > 0 then slot.(0) <- Float.nan
            | [] -> ())
    done
  in
  (* a budget or checkpoint-write breach mid-run surfaces as
     [Interrupted] carrying the completed-window prefix and the last
     good checkpoint — the caller gets a usable result, not nothing *)
  (try run () with
  | Opm_error.Error
      (( Opm_error.Deadline_exceeded _ | Opm_error.Budget_exhausted _
       | Opm_error.Io_error _ ) as error) ->
      raise
        (Interrupted
           {
             error;
             partial = Sim_result.Builder.to_mat builder;
             completed_windows = !completed;
             checkpoint = !last_checkpoint;
           }));
  Metrics.incr ~by:!hits m_factor_reuse;
  ( Sim_result.Builder.to_mat builder,
    {
      windows = nwin;
      width = w;
      memory_len = k_eff;
      factor_hits = !hits;
      factor_misses = !misses;
      handoff_seconds = !handoff;
    } )
