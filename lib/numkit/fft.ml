let is_power_of_two n = n > 0 && n land (n - 1) = 0

(* iterative radix-2 Cooley–Tukey with bit-reversal permutation;
   sign = -1 for the forward transform, +1 for the inverse (unnormalised) *)
let radix2 sign x =
  let n = Array.length x in
  let y = Array.copy x in
  (* bit-reversal permutation *)
  let j = ref 0 in
  for i = 0 to n - 2 do
    if i < !j then begin
      let tmp = y.(i) in
      y.(i) <- y.(!j);
      y.(!j) <- tmp
    end;
    let m = ref (n lsr 1) in
    while !m >= 1 && !j land !m <> 0 do
      j := !j lxor !m;
      m := !m lsr 1
    done;
    j := !j lor !m
  done;
  let len = ref 2 in
  while !len <= n do
    let ang = sign *. 2.0 *. Float.pi /. float_of_int !len in
    let wlen = { Complex.re = cos ang; im = sin ang } in
    let i = ref 0 in
    while !i < n do
      let w = ref Complex.one in
      for k = 0 to (!len / 2) - 1 do
        let u = y.(!i + k) in
        let v = Complex.mul y.(!i + k + (!len / 2)) !w in
        y.(!i + k) <- Complex.add u v;
        y.(!i + k + (!len / 2)) <- Complex.sub u v;
        w := Complex.mul !w wlen
      done;
      i := !i + !len
    done;
    len := !len lsl 1
  done;
  y

let dft_naive x =
  let n = Array.length x in
  Array.init n (fun k ->
      let s = ref Complex.zero in
      for j = 0 to n - 1 do
        let ang = -2.0 *. Float.pi *. float_of_int (k * j mod n) /. float_of_int n in
        s := Complex.add !s (Complex.mul x.(j) { Complex.re = cos ang; im = sin ang })
      done;
      !s)

let next_power_of_two n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

(* Bluestein's algorithm: a DFT of arbitrary length N as a circular
   convolution of length >= 2N-1, performed with the radix-2 FFT *)
let bluestein x =
  let n = Array.length x in
  let m = next_power_of_two ((2 * n) - 1) in
  let chirp k =
    (* e^{-i π k² / N}; reduce k² mod 2N to avoid precision loss *)
    let k2 = k * k mod (2 * n) in
    let ang = -.Float.pi *. float_of_int k2 /. float_of_int n in
    { Complex.re = cos ang; im = sin ang }
  in
  let a = Array.make m Complex.zero in
  for k = 0 to n - 1 do
    a.(k) <- Complex.mul x.(k) (chirp k)
  done;
  let b = Array.make m Complex.zero in
  b.(0) <- Complex.conj (chirp 0);
  for k = 1 to n - 1 do
    let c = Complex.conj (chirp k) in
    b.(k) <- c;
    b.(m - k) <- c
  done;
  let fa = radix2 (-1.0) a and fb = radix2 (-1.0) b in
  let prod = Array.init m (fun i -> Complex.mul fa.(i) fb.(i)) in
  let conv = radix2 1.0 prod in
  let scale = 1.0 /. float_of_int m in
  Array.init n (fun k ->
      Complex.mul (chirp k)
        { Complex.re = conv.(k).Complex.re *. scale; im = conv.(k).Complex.im *. scale })

let fft x =
  let n = Array.length x in
  if n = 0 then invalid_arg "Fft.fft: empty input";
  if n = 1 then Array.copy x
  else if is_power_of_two n then radix2 (-1.0) x
  else bluestein x

let ifft x =
  let n = Array.length x in
  if n = 0 then invalid_arg "Fft.ifft: empty input";
  let conj = Array.map Complex.conj x in
  let y = fft conj in
  let scale = 1.0 /. float_of_int n in
  Array.map (fun c -> { Complex.re = c.Complex.re *. scale; im = -.c.Complex.im *. scale }) y

let fft_real x = fft (Array.map (fun re -> { Complex.re; im = 0.0 }) x)

(* ------------------------------------------------------------------ *)
(* Split-format real convolution kernels.

   The Complex-based entry points above serve the spectrum /
   frequency-domain callers; the convolution engine below runs inside
   the per-column solver hot path, where an array of boxed Complex.t
   records costs an allocation per butterfly. These kernels work in
   place on separate re/im float arrays (flat, unboxed) instead. *)

let radix2_split sign re im =
  let n = Array.length re in
  if Array.length im <> n then invalid_arg "Fft.radix2_split: length mismatch";
  (* bit-reversal permutation *)
  let j = ref 0 in
  for i = 0 to n - 2 do
    if i < !j then begin
      let t = re.(i) in
      re.(i) <- re.(!j);
      re.(!j) <- t;
      let t = im.(i) in
      im.(i) <- im.(!j);
      im.(!j) <- t
    end;
    let m = ref (n lsr 1) in
    while !m >= 1 && !j land !m <> 0 do
      j := !j lxor !m;
      m := !m lsr 1
    done;
    j := !j lor !m
  done;
  let len = ref 2 in
  while !len <= n do
    let half = !len lsr 1 in
    let ang = sign *. 2.0 *. Float.pi /. float_of_int !len in
    let wr = cos ang and wi = sin ang in
    let i = ref 0 in
    while !i < n do
      let cr = ref 1.0 and ci = ref 0.0 in
      for k = !i to !i + half - 1 do
        let ur = Array.unsafe_get re k and ui = Array.unsafe_get im k in
        let xr = Array.unsafe_get re (k + half) and xi = Array.unsafe_get im (k + half) in
        let vr = (xr *. !cr) -. (xi *. !ci) in
        let vi = (xr *. !ci) +. (xi *. !cr) in
        Array.unsafe_set re k (ur +. vr);
        Array.unsafe_set im k (ui +. vi);
        Array.unsafe_set re (k + half) (ur -. vr);
        Array.unsafe_set im (k + half) (ui -. vi);
        let nr = (!cr *. wr) -. (!ci *. wi) in
        ci := (!cr *. wi) +. (!ci *. wr);
        cr := nr
      done;
      i := !i + !len
    done;
    len := !len lsl 1
  done

(* DFT of a real kernel zero-padded to [size] (power of two), split
   format *)
let kernel_spectrum kernel size =
  let kr = Array.make size 0.0 and ki = Array.make size 0.0 in
  Array.blit kernel 0 kr 0 (min (Array.length kernel) size);
  radix2_split (-1.0) kr ki;
  (kr, ki)

let conv_real_many xs kernel =
  let rows = Array.length xs in
  if rows = 0 then [||]
  else begin
    let lx = Array.length xs.(0) in
    Array.iter
      (fun x ->
        if Array.length x <> lx then
          invalid_arg "Fft.conv_real_many: ragged input rows")
      xs;
    let lk = Array.length kernel in
    if lx = 0 || lk = 0 then Array.make rows [||]
    else begin
      let n = lx + lk - 1 in
      let size = next_power_of_two n in
      let kr, ki = kernel_spectrum kernel size in
      let out = Array.make rows [||] in
      let scale = 1.0 /. float_of_int size in
      (* two rows per transform: for a real kernel,
         (a + ib) ⊛ k = (a ⊛ k) + i·(b ⊛ k), so the re channel carries
         row 2p and the im channel row 2p+1 through one forward and one
         inverse FFT *)
      for p = 0 to ((rows + 1) / 2) - 1 do
        let r0 = 2 * p in
        let r1 = r0 + 1 in
        let zr = Array.make size 0.0 and zi = Array.make size 0.0 in
        Array.blit xs.(r0) 0 zr 0 lx;
        if r1 < rows then Array.blit xs.(r1) 0 zi 0 lx;
        radix2_split (-1.0) zr zi;
        for t = 0 to size - 1 do
          let vr = (zr.(t) *. kr.(t)) -. (zi.(t) *. ki.(t)) in
          let vi = (zr.(t) *. ki.(t)) +. (zi.(t) *. kr.(t)) in
          zr.(t) <- vr;
          zi.(t) <- vi
        done;
        radix2_split 1.0 zr zi;
        out.(r0) <- Array.init n (fun t -> zr.(t) *. scale);
        if r1 < rows then out.(r1) <- Array.init n (fun t -> zi.(t) *. scale)
      done;
      out
    end
  end

let conv_real a b =
  if Array.length a = 0 || Array.length b = 0 then [||]
  else (conv_real_many [| a |] b).(0)

(* ------------------------------------------------------------------ *)
(* Blocked online ("relaxed") convolution.

   Computes the causal history sums y(i) = Σ_{l≥1} k(l)·x(i−l) online:
   x(i) becomes known only after y(i) has been consumed (the solver
   uses y(i) to *produce* x(i)). Lags are partitioned dyadically:

   - lags 1 … base−1 are summed naively from the stored columns at
     query time (the "in-block naive tail");
   - lags in [B, 2B) for each block size B = base·2^ℓ are handled in
     batch: every time the push count reaches a multiple of B, the
     just-finished block x[p−B, p) is convolved with the kernel's lag
     slice k[B, 2B) by FFT and scattered into an accumulator over the
     target columns [p, p+2B−1).

   A lag-l pair (j, i = j+l) with l ≥ base belongs to exactly one level
   (2^⌊log2 l⌋ rounded into the ladder), and its block at that level
   completes at p = (⌊j/B⌋+1)·B ≤ j + B ≤ j + l = i — i.e. before
   column i is queried — so the accumulator is always complete at
   consumption time. Total work is O(m log² m) per row instead of the
   naive O(m²). Blocks that never complete inside the horizon would
   only have targeted columns ≥ m, so they are simply never flushed. *)

module Blocked_conv = struct
  type spectra = {
    base : int;  (** naive-tail width; power of two *)
    m : int;  (** horizon (column count) *)
    kernels : float array array;  (** per-term lag coefficients; index = lag *)
    khat : (float array * float array) option array array;
        (** [khat.(lvl).(k)]: split DFT (length 2B) of kernel [k]'s lag
            slice [[B, min(2B, lags))]; [None] when the slice is empty *)
    nlevels : int;
  }

  type t = {
    sp : spectra;
    rows : int;  (** state dimension *)
    cols : float array array;  (** rows × m pushed values *)
    acc : float array array array;  (** term × row × column contributions *)
    mutable pushed : int;
    mutable blocks : int;  (** FFT block convolutions performed (obs) *)
  }

  let default_base = 32

  let spectra ?(base = default_base) ~kernels ~m () =
    if base < 2 || not (is_power_of_two base) then
      invalid_arg "Fft.Blocked_conv.spectra: base must be a power of two >= 2";
    if m < 1 then invalid_arg "Fft.Blocked_conv.spectra: m < 1";
    if Array.length kernels = 0 then
      invalid_arg "Fft.Blocked_conv.spectra: no kernels";
    let nlevels =
      let rec go l = if base lsl l < m then go (l + 1) else l in
      go 0
    in
    let khat =
      Array.init nlevels (fun lvl ->
          let b = base lsl lvl in
          Array.map
            (fun kernel ->
              let hi = min (2 * b) (Array.length kernel) in
              if hi <= b then None
              else begin
                let kr = Array.make (2 * b) 0.0 in
                let ki = Array.make (2 * b) 0.0 in
                Array.blit kernel b kr 0 (hi - b);
                radix2_split (-1.0) kr ki;
                Some (kr, ki)
              end)
            kernels)
    in
    { base; m; kernels; khat; nlevels }

  let create sp ~rows =
    if rows < 1 then invalid_arg "Fft.Blocked_conv.create: rows < 1";
    {
      sp;
      rows;
      cols = Array.make_matrix rows sp.m 0.0;
      acc = Array.init (Array.length sp.kernels) (fun _ -> Array.make_matrix rows sp.m 0.0);
      pushed = 0;
      blocks = 0;
    }

  let pushed t = t.pushed

  let blocks t = t.blocks

  (* one finished block at level [lvl] ending at column [p] *)
  let flush_block t lvl p =
    let sp = t.sp in
    let b = sp.base lsl lvl in
    let b2 = 2 * b in
    let nterms = Array.length sp.kernels in
    let scale = 1.0 /. float_of_int b2 in
    (* target columns p+d, d ∈ [0, 2B−1) ∩ [0, m−p) *)
    let hi = min (b2 - 1) (sp.m - p) in
    if hi > 0 && Array.exists Option.is_some sp.khat.(lvl) then begin
      let pair pr =
        let r0 = 2 * pr in
        let r1 = r0 + 1 in
        let zr = Array.make b2 0.0 and zi = Array.make b2 0.0 in
        Array.blit t.cols.(r0) (p - b) zr 0 b;
        if r1 < t.rows then Array.blit t.cols.(r1) (p - b) zi 0 b;
        radix2_split (-1.0) zr zi;
        for k = 0 to nterms - 1 do
          match sp.khat.(lvl).(k) with
          | None -> ()
          | Some (kr, ki) ->
              let wr = Array.make b2 0.0 and wi = Array.make b2 0.0 in
              for u = 0 to b2 - 1 do
                let ar = Array.unsafe_get zr u and ai = Array.unsafe_get zi u in
                let br = Array.unsafe_get kr u and bi = Array.unsafe_get ki u in
                Array.unsafe_set wr u ((ar *. br) -. (ai *. bi));
                Array.unsafe_set wi u ((ar *. bi) +. (ai *. br))
              done;
              radix2_split 1.0 wr wi;
              let a0 = t.acc.(k).(r0) in
              for d = 0 to hi - 1 do
                a0.(p + d) <- a0.(p + d) +. (wr.(d) *. scale)
              done;
              if r1 < t.rows then begin
                let a1 = t.acc.(k).(r1) in
                for d = 0 to hi - 1 do
                  a1.(p + d) <- a1.(p + d) +. (wi.(d) *. scale)
                done
              end
        done
      in
      (* serial: a horizon flushes hundreds of mostly small blocks, and
         handing each to the domain pool made a solve's wall time swing
         by up to a third between runs whenever the other core was busy *)
      for pr = 0 to ((t.rows + 1) / 2) - 1 do
        pair pr
      done;
      t.blocks <- t.blocks + 1
    end

  let push t x =
    let sp = t.sp in
    if t.pushed >= sp.m then
      invalid_arg "Fft.Blocked_conv.push: horizon exceeded";
    if Array.length x <> t.rows then
      invalid_arg "Fft.Blocked_conv.push: row-count mismatch";
    let p0 = t.pushed in
    for r = 0 to t.rows - 1 do
      t.cols.(r).(p0) <- x.(r)
    done;
    t.pushed <- p0 + 1;
    let p = p0 + 1 in
    if p < sp.m && p mod sp.base = 0 then
      Opm_obs.Trace.with_span "rhs_conv" @@ fun () ->
      for lvl = 0 to sp.nlevels - 1 do
        if p mod (sp.base lsl lvl) = 0 then flush_block t lvl p
      done

  let history t ~term i =
    if i > t.pushed then
      invalid_arg "Fft.Blocked_conv.history: column not pushed yet";
    let sp = t.sp in
    let kernel = sp.kernels.(term) in
    let lmax = min (min (sp.base - 1) i) (Array.length kernel - 1) in
    let acc = t.acc.(term) in
    let y = Array.make t.rows 0.0 in
    for r = 0 to t.rows - 1 do
      let row = t.cols.(r) in
      let s = ref (if i < sp.m then acc.(r).(i) else 0.0) in
      for l = 1 to lmax do
        s := !s +. (Array.unsafe_get kernel l *. Array.unsafe_get row (i - l))
      done;
      y.(r) <- !s
    done;
    y
end

let frequencies n dt =
  let base = 2.0 *. Float.pi /. (float_of_int n *. dt) in
  Array.init n (fun k ->
      if 2 * k <= n then base *. float_of_int k
      else base *. float_of_int (k - n))
