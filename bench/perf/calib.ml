(* Host-speed calibration. On a shared 2-core Intel Xeon virtual machine
   the speed changes by up to a third over minutes (other tenants' load);
   every timed operation slows alike, so raw wall times drift between
   runs far more than any regression bound. A fixed kernel owned by the
   benchmark, a dense matrix product (compute) plus a streaming sum over
   32 MB (memory), is timed right before each one-shot process and
   between the half-second slices of each serve round; the times
   measured next to it are scaled by [reference / kernel], i.e.
   reported as they would read on a host where the kernel takes
   [reference] seconds. *)

(* the kernel's median time on that 2-core Xeon machine when it is quiet *)
let reference = 0.040

let n = 160

let a = lazy (Array.init (n * n) (fun i -> float_of_int (i mod 7) *. 0.5))
let b = lazy (Array.init (n * n) (fun i -> float_of_int (i mod 5) *. 0.25))
let big = lazy (Array.make (4 * 1024 * 1024) 1.0)

(* seconds for one pass of the kernel; the result feeds a global so the
   work cannot be dropped *)
let sink = ref 0.0

let kernel () =
  let a = Lazy.force a and b = Lazy.force b and big = Lazy.force big in
  let c = Array.make (n * n) 0.0 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to 3 do
    for i = 0 to n - 1 do
      for k = 0 to n - 1 do
        let aik = a.((i * n) + k) in
        for j = 0 to n - 1 do
          c.((i * n) + j) <- c.((i * n) + j) +. (aik *. b.((k * n) + j))
        done
      done
    done
  done;
  let s = ref 0.0 in
  for _ = 1 to 4 do
    for i = 0 to Array.length big - 1 do
      s := !s +. big.(i)
    done
  done;
  sink := !s +. c.(7);
  Unix.gettimeofday () -. t0
