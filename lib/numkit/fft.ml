let is_power_of_two n = n > 0 && n land (n - 1) = 0

let next_power_of_two n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

(* ------------------------------------------------------------------ *)
(* Split-format radix-2 kernels.

   One transform pair on separate re/im float arrays (flat, unboxed:
   boxed Complex.t records cost an allocation per butterfly):

   - [forward] is decimation in frequency: natural order in,
     bit-reversed order out;
   - [inverse] is decimation in time: bit-reversed order in, natural
     order out, unnormalised.

   A convolution multiplies two spectra pointwise, so it never needs
   the natural order in between: forward, multiply, inverse, with no
   bit-reversal pass at all.

   Both read their twiddles from a table: entry [h + j] is
   e^{−2πi·j/(2h)} for each half-size h = 1, 2, 4, … and 0 ≤ j < h, so
   the stage of half-size h reads the contiguous slice [h, 2h). A table
   built for size n serves every power-of-two size up to n. *)

type twiddles = { wr : float array; wi : float array }

let twiddles n =
  let size = max n 1 in
  let wr = Array.make size 1.0 and wi = Array.make size 0.0 in
  let h = ref 1 in
  while !h < n do
    for j = 0 to !h - 1 do
      let ang = -.Float.pi *. float_of_int j /. float_of_int !h in
      wr.(!h + j) <- cos ang;
      wi.(!h + j) <- sin ang
    done;
    h := 2 * !h
  done;
  { wr; wi }

(* the first [n] entries of [re]/[im] (n a power of two ≤ the table's
   size), in place *)
let forward tw re im n =
  let wr = tw.wr and wi = tw.wi in
  let h = ref (n lsr 1) in
  while !h >= 1 do
    let h' = !h in
    let i = ref 0 in
    while !i < n do
      for j = 0 to h' - 1 do
        let a = !i + j in
        let b = a + h' in
        let ur = Array.unsafe_get re a and ui = Array.unsafe_get im a in
        let vr = Array.unsafe_get re b and vi = Array.unsafe_get im b in
        let dr = ur -. vr and di = ui -. vi in
        let cr = Array.unsafe_get wr (h' + j) and ci = Array.unsafe_get wi (h' + j) in
        Array.unsafe_set re a (ur +. vr);
        Array.unsafe_set im a (ui +. vi);
        Array.unsafe_set re b ((dr *. cr) -. (di *. ci));
        Array.unsafe_set im b ((dr *. ci) +. (di *. cr))
      done;
      i := !i + (2 * h')
    done;
    h := h' lsr 1
  done

let inverse tw re im n =
  let wr = tw.wr and wi = tw.wi in
  let h = ref 1 in
  while !h < n do
    let h' = !h in
    let i = ref 0 in
    while !i < n do
      for j = 0 to h' - 1 do
        let a = !i + j in
        let b = a + h' in
        (* the conjugate twiddle *)
        let cr = Array.unsafe_get wr (h' + j) and ci = Array.unsafe_get wi (h' + j) in
        let xr = Array.unsafe_get re b and xi = Array.unsafe_get im b in
        let vr = (xr *. cr) +. (xi *. ci) and vi = (xi *. cr) -. (xr *. ci) in
        let ur = Array.unsafe_get re a and ui = Array.unsafe_get im a in
        Array.unsafe_set re a (ur +. vr);
        Array.unsafe_set im a (ui +. vi);
        Array.unsafe_set re b (ur -. vr);
        Array.unsafe_set im b (ui -. vi)
      done;
      i := !i + (2 * h')
    done;
    h := 2 * h'
  done

(* bit-reversed index of [i] among [n] (a power of two) *)
let bit_reverse n i =
  let r = ref 0 and i = ref i and k = ref (n lsr 1) in
  while !k > 0 do
    r := (!r lsl 1) lor (!i land 1);
    i := !i lsr 1;
    k := !k lsr 1
  done;
  !r

(* ------------------------------------------------------------------ *)
(* Complex.t entry points, for the spectrum and frequency-domain
   callers *)

(* power-of-two length: the forward kernel behind one natural-order
   permutation *)
let radix2 x =
  let n = Array.length x in
  let re = Array.map (fun c -> c.Complex.re) x and im = Array.map (fun c -> c.Complex.im) x in
  forward (twiddles n) re im n;
  Array.init n (fun k ->
      let s = bit_reverse n k in
      { Complex.re = re.(s); im = im.(s) })

let dft_naive x =
  let n = Array.length x in
  Array.init n (fun k ->
      let s = ref Complex.zero in
      for j = 0 to n - 1 do
        let ang = -2.0 *. Float.pi *. float_of_int (k * j mod n) /. float_of_int n in
        s := Complex.add !s (Complex.mul x.(j) { Complex.re = cos ang; im = sin ang })
      done;
      !s)

(* Bluestein's algorithm: a DFT of arbitrary length N as a circular
   convolution of length >= 2N-1, performed with the radix-2 pair (a
   convolution, so no permutation) *)
let bluestein x =
  let n = Array.length x in
  let m = next_power_of_two ((2 * n) - 1) in
  let chirp k =
    (* e^{-i π k² / N}; reduce k² mod 2N to avoid precision loss *)
    let k2 = k * k mod (2 * n) in
    let ang = -.Float.pi *. float_of_int k2 /. float_of_int n in
    { Complex.re = cos ang; im = sin ang }
  in
  let ar = Array.make m 0.0 and ai = Array.make m 0.0 in
  for k = 0 to n - 1 do
    let c = Complex.mul x.(k) (chirp k) in
    ar.(k) <- c.Complex.re;
    ai.(k) <- c.Complex.im
  done;
  let br = Array.make m 0.0 and bi = Array.make m 0.0 in
  let set k (c : Complex.t) =
    br.(k) <- c.re;
    bi.(k) <- -.c.im
  in
  set 0 (chirp 0);
  for k = 1 to n - 1 do
    set k (chirp k);
    set (m - k) (chirp k)
  done;
  let tw = twiddles m in
  forward tw ar ai m;
  forward tw br bi m;
  for i = 0 to m - 1 do
    let r = (ar.(i) *. br.(i)) -. (ai.(i) *. bi.(i)) in
    ai.(i) <- (ar.(i) *. bi.(i)) +. (ai.(i) *. br.(i));
    ar.(i) <- r
  done;
  inverse tw ar ai m;
  let scale = 1.0 /. float_of_int m in
  Array.init n (fun k ->
      Complex.mul (chirp k) { Complex.re = ar.(k) *. scale; im = ai.(k) *. scale })

let fft x =
  let n = Array.length x in
  if n = 0 then invalid_arg "Fft.fft: empty input";
  if n = 1 then Array.copy x
  else if is_power_of_two n then radix2 x
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
(* Real convolution *)

(* Spectrum, in transform (bit-reversed) order and pre-scaled by 1/size,
   of a real kernel's slice [lo, hi) zero-padded to [size]: multiplying
   by it and running [inverse] gives the normalised convolution. The
   scale is a power of two, so pre-scaling rounds exactly as scaling
   the output would. *)
let kernel_spectrum tw kernel ~lo ~hi size =
  let kr = Array.make size 0.0 and ki = Array.make size 0.0 in
  Array.blit kernel lo kr 0 (hi - lo);
  forward tw kr ki size;
  let scale = 1.0 /. float_of_int size in
  for u = 0 to size - 1 do
    kr.(u) <- kr.(u) *. scale;
    ki.(u) <- ki.(u) *. scale
  done;
  (kr, ki)

(* (zr, zi)·(kr, ki) into (wr, wi), over the first [size] entries *)
let mul_spectra ~zr ~zi ~kr ~ki ~wr ~wi size =
  for u = 0 to size - 1 do
    let ar = Array.unsafe_get zr u and ai = Array.unsafe_get zi u in
    let br = Array.unsafe_get kr u and bi = Array.unsafe_get ki u in
    Array.unsafe_set wr u ((ar *. br) -. (ai *. bi));
    Array.unsafe_set wi u ((ar *. bi) +. (ai *. br))
  done

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
      let tw = twiddles size in
      let kr, ki = kernel_spectrum tw kernel ~lo:0 ~hi:lk size in
      let out = Array.make rows [||] in
      let zr = Array.make size 0.0 and zi = Array.make size 0.0 in
      (* two rows per transform: for a real kernel,
         (a + ib) ⊛ k = (a ⊛ k) + i·(b ⊛ k), so the re channel carries
         row 2p and the im channel row 2p+1 through one forward and one
         inverse FFT *)
      for p = 0 to ((rows + 1) / 2) - 1 do
        let r0 = 2 * p in
        let r1 = r0 + 1 in
        Array.fill zr lx (size - lx) 0.0;
        Array.fill zi 0 size 0.0;
        Array.blit xs.(r0) 0 zr 0 lx;
        if r1 < rows then Array.blit xs.(r1) 0 zi 0 lx;
        forward tw zr zi size;
        mul_spectra ~zr ~zi ~kr ~ki ~wr:zr ~wi:zi size;
        inverse tw zr zi size;
        out.(r0) <- Array.sub zr 0 n;
        if r1 < rows then out.(r1) <- Array.sub zi 0 n
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
    tw : twiddles;  (** sized for the largest level; serves every level *)
    khat : (float array * float array) option array array;
        (** [khat.(lvl).(k)]: spectrum (length 2B, transform order,
            pre-scaled by 1/2B) of kernel [k]'s lag slice
            [[B, min(2B, lags))]; [None] when the slice is empty *)
    nlevels : int;
  }

  type t = {
    sp : spectra;
    rows : int;
    cols : float array array;  (** rows × m pushed values *)
    acc : float array array array;  (** term × row × column contributions *)
    zr : float array;  (** scratch: a row pair's block spectrum *)
    zi : float array;
    wr : float array;  (** scratch: its product with one kernel *)
    wi : float array;
    mutable pushed : int;
    mutable blocks : int;  (** FFT block convolutions performed (obs) *)
  }

  let default_base = 32

  (* the transform size of the top level, 0 without levels *)
  let top_size ~base nlevels = if nlevels = 0 then 0 else 2 * (base lsl (nlevels - 1))

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
    let tw = twiddles (top_size ~base nlevels) in
    let khat =
      Array.init nlevels (fun lvl ->
          let b = base lsl lvl in
          Array.map
            (fun kernel ->
              let hi = min (2 * b) (Array.length kernel) in
              if hi <= b then None else Some (kernel_spectrum tw kernel ~lo:b ~hi (2 * b)))
            kernels)
    in
    { base; m; kernels; tw; khat; nlevels }

  let create sp ~rows =
    if rows < 1 then invalid_arg "Fft.Blocked_conv.create: rows < 1";
    let scratch () = Array.make (top_size ~base:sp.base sp.nlevels) 0.0 in
    {
      sp;
      rows;
      cols = Array.make_matrix rows sp.m 0.0;
      acc = Array.init (Array.length sp.kernels) (fun _ -> Array.make_matrix rows sp.m 0.0);
      zr = scratch ();
      zi = scratch ();
      wr = scratch ();
      wi = scratch ();
      pushed = 0;
      blocks = 0;
    }

  let pushed t = t.pushed

  let blocks t = t.blocks

  (* acc.(p + d) += w.(d), d < hi *)
  let add_into acc w p hi =
    for d = 0 to hi - 1 do
      Array.unsafe_set acc (p + d) (Array.unsafe_get acc (p + d) +. Array.unsafe_get w d)
    done

  (* one finished block at level [lvl] ending at column [p] *)
  let flush_block t lvl p =
    let sp = t.sp in
    let b = sp.base lsl lvl in
    let b2 = 2 * b in
    let khat = sp.khat.(lvl) in
    let { zr; zi; wr; wi; _ } = t in
    (* target columns p+d, d ∈ [0, 2B−1) ∩ [0, m−p) *)
    let hi = min (b2 - 1) (sp.m - p) in
    if hi > 0 && Array.exists Option.is_some khat then begin
      (* serial: a horizon flushes hundreds of mostly small blocks, and
         handing each to the domain pool made a solve's wall time swing
         by up to a third between runs whenever the other core was busy *)
      for pr = 0 to ((t.rows + 1) / 2) - 1 do
        let r0 = 2 * pr in
        let r1 = r0 + 1 in
        Array.blit t.cols.(r0) (p - b) zr 0 b;
        Array.fill zr b b 0.0;
        if r1 < t.rows then Array.blit t.cols.(r1) (p - b) zi 0 b
        else Array.fill zi 0 b 0.0;
        Array.fill zi b b 0.0;
        forward sp.tw zr zi b2;
        for k = 0 to Array.length khat - 1 do
          match khat.(k) with
          | None -> ()
          | Some (kr, ki) ->
              mul_spectra ~zr ~zi ~kr ~ki ~wr ~wi b2;
              inverse sp.tw wr wi b2;
              add_into t.acc.(k).(r0) wr p hi;
              if r1 < t.rows then add_into t.acc.(k).(r1) wi p hi
        done
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
