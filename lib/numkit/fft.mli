(** Discrete Fourier transforms.

    One radix-2 kernel pair on split (unboxed) re/im arrays, reading a
    precomputed twiddle table: a decimation-in-frequency forward
    transform (natural order in, bit-reversed order out) and a
    decimation-in-time inverse (bit-reversed in, natural out). A
    convolution runs forward, pointwise product, inverse, and never
    permutes; {!fft} on a power-of-two length runs the forward kernel
    behind one natural-order permutation, and Bluestein's chirp-z
    algorithm covers arbitrary lengths (Table I's "FFT-2" uses 100
    frequency samples, which is not a power of two) with the pair.
    Conventions: forward [X_k = Σ_n x_n e^{-2πi kn/N}], inverse divides
    by [N]. *)

val fft : Complex.t array -> Complex.t array
(** Forward DFT of any length ([length >= 1]). Power-of-two inputs take
    the radix-2 path; others go through Bluestein. *)

val ifft : Complex.t array -> Complex.t array
(** Inverse DFT (normalised by [1/N]). *)

val dft_naive : Complex.t array -> Complex.t array
(** O(N²) reference implementation, used by the tests as the oracle. *)

val fft_real : float array -> Complex.t array
(** Forward DFT of a real signal. *)

val frequencies : int -> float -> float array
(** [frequencies n dt] are the angular frequencies [ω_k] (rad/s) matching
    the DFT bin layout for [n] samples spaced [dt] apart: bins
    [0 … n/2] map to [2πk/(n·dt)] and the upper bins to the negative
    frequencies [2π(k−n)/(n·dt)]. *)

(** Blocked online ("relaxed") convolution for causal history sums.

    Computes [y(i) = Σ_{l≥1} k(l)·x(i−l)] online, where column [x(i)]
    only becomes known {e after} [y(i)] has been consumed (the OPM solver
    uses the history term to produce the next column). Lags below 32
    are summed naively at query time; lags in [[B, 2B)] for each dyadic
    block size [B = 32·2^ℓ] are batch-convolved by FFT whenever the
    push count reaches a multiple of [B], into a per-column accumulator.
    Work is O(m log² m) per row per kernel over the whole horizon.

    FFT reassociates the summation, so results match the naive sum to
    roundoff (≤ 1e-10 relative in practice), not bit-identically.

    The state splits in two. The {!spectra} depend on the kernels and
    the horizon alone: one twiddle table sized for the largest level
    (its prefixes serve the smaller ones) and each kernel's per-level
    spectrum, stored in the forward transform's bit-reversed order and
    pre-scaled by [1/2B], so a block is forward, pointwise product,
    inverse, with no permutation and no output scaling. Build them once
    and share them, also between domains, since nothing writes them
    after {!spectra} returns. A convolver {!t} is one run's data (the
    pushed columns, the accumulators and the transform scratch that
    every block reuses): {!create} one per run over shared spectra, and
    use it from one domain. *)
module Blocked_conv : sig
  type spectra

  val spectra : kernels:float array array -> m:int -> unit -> spectra
  (** [spectra ~kernels ~m ()] precomputes the kernel spectra of every
      dyadic level for an [m]-column horizon. [kernels.(k).(l)] is the
      lag-[l] coefficient of term [k] (lag 0 is never consumed — history
      is strictly causal); the array is shared, not copied, so it must
      not change afterwards. *)

  type t

  val create : spectra -> rows:int -> t
  (** [create sp ~rows] is a fresh run over [sp] for [rows ≥ 1] rows,
      nothing pushed yet. *)

  val push : t -> float array -> unit
  (** Append the next column (length [rows]); raises [Invalid_argument]
      past the horizon. Triggers block convolutions at multiples of the
      block sizes (row pairs share one forward/inverse transform, and
      flushes run under a ["rhs_conv"] trace span). *)

  val history : t -> term:int -> int -> float array
  (** [history t ~term i] is the length-[rows] vector
      [Σ_{1 ≤ l ≤ i} kernels.(term).(l)·x(i−l)] — the accumulated block
      contributions plus the short naive tail. Requires [i <= pushed t];
      typically called at [i = pushed t], just before solving column
      [i]. *)

  val pushed : t -> int
  (** Columns pushed so far. *)

  val column : t -> int -> float array
  (** [column t j] is a fresh copy of pushed column [j], bit for bit
      as it was pushed; raises [Invalid_argument] unless
      [0 ≤ j < pushed t]. Pushing [column t j] for [j = a … pushed t − 1]
      into a fresh run rebuilds the history of those columns alone. *)

  val blocks : t -> int
  (** FFT block convolutions this run performed (observability). *)
end
