(* Tests for sources, waveforms and the paper's error metrics. *)

open Opm_signal

let close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let check_bool = Alcotest.(check bool)

(* ---------- Source.eval ---------- *)

let test_eval_dc () = close "dc" 2.5 (Source.eval (Source.Dc 2.5) 17.0)

let test_eval_step () =
  let s = Source.Step { amplitude = 3.0; delay = 1.0 } in
  close "before" 0.0 (Source.eval s 0.5);
  close "at" 3.0 (Source.eval s 1.0);
  close "after" 3.0 (Source.eval s 2.0)

let test_eval_pulse_oneshot () =
  let s =
    Source.Pulse
      { low = -1.0; high = 2.0; delay = 1.0; width = 2.0; period = Float.infinity }
  in
  close "before delay" (-1.0) (Source.eval s 0.5);
  close "inside" 2.0 (Source.eval s 2.0);
  close "after" (-1.0) (Source.eval s 4.0)

let test_eval_pulse_periodic () =
  let s =
    Source.Pulse { low = 0.0; high = 1.0; delay = 0.0; width = 1.0; period = 2.0 }
  in
  close "first high" 1.0 (Source.eval s 0.5);
  close "first low" 0.0 (Source.eval s 1.5);
  close "second high" 1.0 (Source.eval s 2.5);
  close "tenth low" 0.0 (Source.eval s 21.5)

let test_eval_sine () =
  let s = Source.Sine { amplitude = 2.0; freq_hz = 0.25; phase = 0.0; offset = 1.0 } in
  close "t=0" 1.0 (Source.eval s 0.0);
  close "quarter period" 3.0 (Source.eval s 1.0) ~tol:1e-12

let test_eval_exp () =
  let s = Source.Exp_decay { amplitude = 4.0; tau = 2.0 } in
  close "t=0" 4.0 (Source.eval s 0.0);
  close "t=2" (4.0 /. Float.exp 1.0) (Source.eval s 2.0) ~tol:1e-12;
  close "negative t" 0.0 (Source.eval s (-1.0))

let test_eval_ramp () =
  let s = Source.Ramp { slope = 2.0; delay = 1.0 } in
  close "before" 0.0 (Source.eval s 0.5);
  close "after" 4.0 (Source.eval s 3.0)

let test_eval_pwl () =
  let s = Source.pwl [ (0.0, 0.0); (1.0, 2.0); (3.0, 2.0); (4.0, 0.0) ] in
  close "interp rise" 1.0 (Source.eval s 0.5);
  close "plateau" 2.0 (Source.eval s 2.0);
  close "interp fall" 1.0 (Source.eval s 3.5);
  close "extrapolate right" 0.0 (Source.eval s 10.0);
  close "extrapolate left" 0.0 (Source.eval s (-1.0))

let test_pwl_validation () =
  check_bool "non-increasing times rejected" true
    (try
       ignore (Source.pwl [ (0.0, 0.0); (0.0, 1.0) ]);
       false
     with Invalid_argument _ -> true)

(* ---------- Source.average (exact interval integrals) ---------- *)

(* numeric reference via Fn (adaptive Simpson) *)
let numeric_average src a b =
  Source.average (Source.Fn (Source.eval src)) a b

let check_average ?(tol = 1e-7) name src a b =
  close name (numeric_average src a b) (Source.average src a b) ~tol

let test_average_step () =
  let s = Source.Step { amplitude = 2.0; delay = 1.0 } in
  close "straddling" 1.0 (Source.average s 0.0 2.0);
  close "fully after" 2.0 (Source.average s 3.0 5.0);
  close "fully before" 0.0 (Source.average s 0.0 0.5)

let test_average_sine_closed_form () =
  let s = Source.Sine { amplitude = 1.0; freq_hz = 1.0; phase = 0.3; offset = 0.5 } in
  check_average "sine vs simpson" s 0.1 0.9

let test_average_pulse_periodic () =
  let s =
    Source.Pulse { low = 0.0; high = 1.0; delay = 0.5; width = 1.0; period = 2.0 }
  in
  (* duty cycle 50%: long-run average 0.5 *)
  close "long-run" 0.5 (Source.average s 0.5 20.5) ~tol:1e-12;
  check_average "partial period" s 0.3 1.7;
  check_average "many periods offset" s 1.1 9.4

let test_average_pwl () =
  let s = Source.pwl [ (0.0, 0.0); (2.0, 4.0) ] in
  close "triangle" 1.0 (Source.average s 0.0 1.0);
  check_average "pwl vs simpson" s 0.2 1.8;
  (* extrapolation region *)
  close "right extrapolation" 4.0 (Source.average s 3.0 5.0)

let test_average_exp () =
  let s = Source.Exp_decay { amplitude = 1.0; tau = 1.0 } in
  check_average "exp vs simpson" s 0.0 2.0;
  close "closed form" (1.0 -. exp (-1.0)) (Source.average s 0.0 1.0) ~tol:1e-12

let test_average_ramp () =
  let s = Source.Ramp { slope = 3.0; delay = 1.0 } in
  check_average "ramp vs simpson" s 0.0 4.0;
  close "pure region" (3.0 *. 0.5) (Source.average s 1.0 2.0) ~tol:1e-12

let test_average_point () =
  let s = Source.Dc 7.0 in
  close "a = b degenerates to eval" 7.0 (Source.average s 2.0 2.0)

let prop_average_additivity =
  QCheck.Test.make ~count:50
    ~name:"source: ∫[a,c] = ∫[a,b] + ∫[b,c] (via averages)"
    QCheck.(triple (float_range 0.0 2.0) (float_range 0.0 2.0) (float_range 0.0 2.0))
    (fun (x, y, z) ->
      let a = Float.min x (Float.min y z)
      and c = Float.max x (Float.max y z) in
      let b = x +. y +. z -. a -. c in
      if c -. a < 1e-6 || b -. a < 1e-9 || c -. b < 1e-9 then true
      else
        let s =
          Source.Pulse { low = 0.2; high = 1.3; delay = 0.4; width = 0.3; period = 0.9 }
        in
        let int_ab = Source.average s a b *. (b -. a) in
        let int_bc = Source.average s b c *. (c -. b) in
        let int_ac = Source.average s a c *. (c -. a) in
        Float.abs (int_ab +. int_bc -. int_ac) < 1e-9)

(* ---------- Waveform ---------- *)

let test_waveform_validation () =
  check_bool "non-increasing times rejected" true
    (try
       ignore (Waveform.make [| 0.0; 0.0 |] [| [| 1.0; 2.0 |] |]);
       false
     with Invalid_argument _ -> true);
  check_bool "ragged channel rejected" true
    (try
       ignore (Waveform.make [| 0.0; 1.0 |] [| [| 1.0 |] |]);
       false
     with Invalid_argument _ -> true)

let test_waveform_labels () =
  let w = Waveform.make ~labels:[| "a"; "b" |] [| 0.0; 1.0 |]
      [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |]
  in
  check_bool "labels kept" true (w.Waveform.labels = [| "a"; "b" |])

let test_waveform_resample () =
  let w =
    Waveform.of_function [| 0.0; 0.5; 1.0; 1.5; 2.0 |] (fun t -> [| 3.0 *. t |])
  in
  let r = Waveform.resample w [| 0.25; 1.25 |] in
  close "linear exact" 0.75 (Waveform.channel r 0).(0);
  close "linear exact 2" 3.75 (Waveform.channel r 0).(1)

let test_waveform_csv () =
  let w = Waveform.make ~labels:[| "v" |] [| 0.0; 1.0 |] [| [| 1.5; 2.5 |] |] in
  let csv = Waveform.to_csv w in
  check_bool "header" true (String.length csv > 0 && String.sub csv 0 3 = "t,v");
  check_bool "row" true
    (String.split_on_char '\n' csv |> fun lines -> List.nth lines 1 = "0,1.5")

let test_bpf_grid () =
  let g = Waveform.bpf_grid ~t_end:1.0 ~m:4 in
  close "first midpoint" 0.125 g.(0);
  close "last midpoint" 0.875 g.(3)

(* ---------- Measure ---------- *)

(* a sampled first-order step response, τ = 1 *)
let rc_waveform () =
  let times = Array.init 1001 (fun k -> float_of_int k *. 0.01) in
  Waveform.make times [| Array.map (fun t -> 1.0 -. exp (-.t)) times |]

let test_measure_final_and_peak () =
  let w = rc_waveform () in
  close "final" (1.0 -. exp (-10.0)) (Measure.final_value w ~channel:0) ~tol:1e-12;
  let t_peak, v_peak = Measure.peak w ~channel:0 in
  close "peak at the end" 10.0 t_peak;
  close "peak value" (1.0 -. exp (-10.0)) v_peak ~tol:1e-12

let test_measure_crossing () =
  let w = rc_waveform () in
  (* 1 − e^{−t} = 0.5 at t = ln 2 *)
  close "half crossing" (log 2.0)
    (Measure.crossing_time w ~channel:0 ~level:0.5)
    ~tol:1e-3;
  check_bool "never-crossed raises" true
    (try
       ignore (Measure.crossing_time w ~channel:0 ~level:2.0);
       false
     with Not_found -> true)

let test_measure_crossing_direction () =
  let times = [| 0.0; 1.0; 2.0; 3.0 |] in
  let w = Waveform.make times [| [| 0.0; 1.0; 0.0; 1.0 |] |] in
  close "rising" 0.5
    (Measure.crossing_time ~direction:`Rising w ~channel:0 ~level:0.5);
  close "falling" 1.5
    (Measure.crossing_time ~direction:`Falling w ~channel:0 ~level:0.5)

(* regression: an exact level hit on the very first sample used to be
   returned for every direction, even when `Rising/`Falling should have
   rejected it (no preceding sample to cross from) *)
let test_measure_crossing_first_sample () =
  let times = [| 0.0; 1.0; 2.0; 3.0 |] in
  let w = Waveform.make times [| [| 0.5; 1.0; 0.2; 0.8 |] |] in
  close "either takes the exact first-sample hit" 0.0
    (Measure.crossing_time ~direction:`Either w ~channel:0 ~level:0.5);
  (* first genuine rising crossing: 0.2 → 0.8 between t = 2 and 3 *)
  close "rising skips the first-sample hit" 2.5
    (Measure.crossing_time ~direction:`Rising w ~channel:0 ~level:0.5);
  (* first genuine falling crossing: 1.0 → 0.2 between t = 1 and 2 *)
  close "falling skips the first-sample hit" 1.625
    (Measure.crossing_time ~direction:`Falling w ~channel:0 ~level:0.5);
  (* monotonically rising from the level: no falling crossing exists *)
  let w_up = Waveform.make times [| [| 0.5; 0.6; 0.7; 0.8 |] |] in
  check_bool "falling on a rising-only record raises" true
    (try
       ignore (Measure.crossing_time ~direction:`Falling w_up ~channel:0 ~level:0.5);
       false
     with Not_found -> true)

let test_measure_rise_time () =
  let w = rc_waveform () in
  (* 10–90 rise of a first-order system = ln 9 · τ *)
  close "ln 9" (log 9.0) (Measure.rise_time w ~channel:0) ~tol:5e-3

let test_measure_overshoot () =
  let w = rc_waveform () in
  close "no overshoot" 0.0 (Measure.overshoot w ~channel:0) ~tol:1e-9;
  (* an underdamped response: x = 1 − e^{−t}(cos 3t + sin(3t)/3) *)
  let times = Array.init 2001 (fun k -> float_of_int k *. 0.01) in
  let w2 =
    Waveform.make times
      [|
        Array.map
          (fun t -> 1.0 -. (exp (-.t) *. (cos (3.0 *. t) +. (sin (3.0 *. t) /. 3.0))))
          times;
      |]
  in
  check_bool "overshoot detected" true (Measure.overshoot w2 ~channel:0 > 0.2)

let test_measure_settling () =
  let w = rc_waveform () in
  (* 2% settling of e^{−t}: t = ln 50 ≈ 3.912 *)
  let t_s = Measure.settling_time ~band:0.02 w ~channel:0 in
  check_bool "near ln 50" true (Float.abs (t_s -. log 50.0) < 0.05)

let test_measure_delay () =
  let times = Array.init 101 (fun k -> float_of_int k *. 0.1) in
  let w =
    Waveform.make times
      [|
        Array.map (fun t -> if t >= 1.0 then 1.0 else 0.0) times;
        Array.map (fun t -> if t >= 3.0 then 1.0 else 0.0) times;
      |]
  in
  let crossing channel = Measure.crossing_time w ~channel ~level:0.5 in
  let d = crossing 1 -. crossing 0 in
  close "2 s delay" 2.0 d ~tol:0.11

(* ---------- Error metrics ---------- *)

let test_relative_error_db () =
  let reference = [| 1.0; 0.0; 0.0 |] in
  let y = [| 1.1; 0.0; 0.0 |] in
  (* ‖y−ref‖/‖ref‖ = 0.1 → −20 dB *)
  close "-20 dB" (-20.0) (Error.relative_error_db ~reference y) ~tol:1e-9;
  check_bool "exact match is −∞" true
    (Error.relative_error_db ~reference reference = Float.neg_infinity)

let test_relative_error_zero_ref () =
  check_bool "zero reference gives nan" true
    (Float.is_nan (Error.relative_error ~reference:[| 0.0; 0.0 |] [| 1.0; 1.0 |]))

let test_waveform_error_db () =
  let times = [| 0.0; 1.0; 2.0 |] in
  let reference = Waveform.make times [| [| 1.0; 1.0; 1.0 |] |] in
  let y = Waveform.make times [| [| 1.01; 1.01; 1.01 |] |] in
  close "-40 dB" (-40.0) (Error.waveform_error_db ~reference y) ~tol:1e-6

let test_average_relative_error_db () =
  let times = [| 0.0; 1.0 |] in
  let reference = Waveform.make times [| [| 1.0; 1.0 |]; [| 2.0; 2.0 |] |] in
  let y = Waveform.make times [| [| 1.1; 1.1 |]; [| 2.2; 2.2 |] |] in
  (* both channels at −20 dB → average −20 dB *)
  close "average" (-20.0) (Error.average_relative_error_db ~reference y) ~tol:1e-9

let () =
  let t name f = Alcotest.test_case name `Quick f in
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "signal"
    [
      ( "source-eval",
        [
          t "dc" test_eval_dc;
          t "step" test_eval_step;
          t "pulse one-shot" test_eval_pulse_oneshot;
          t "pulse periodic" test_eval_pulse_periodic;
          t "sine" test_eval_sine;
          t "exp decay" test_eval_exp;
          t "ramp" test_eval_ramp;
          t "pwl" test_eval_pwl;
          t "pwl validation" test_pwl_validation;
        ] );
      ( "source-average",
        [
          t "step" test_average_step;
          t "sine closed form" test_average_sine_closed_form;
          t "pulse periodic" test_average_pulse_periodic;
          t "pwl" test_average_pwl;
          t "exp" test_average_exp;
          t "ramp" test_average_ramp;
          t "degenerate interval" test_average_point;
          q prop_average_additivity;
        ] );
      ( "waveform",
        [
          t "validation" test_waveform_validation;
          t "labels" test_waveform_labels;
          t "resample" test_waveform_resample;
          t "csv" test_waveform_csv;
          t "bpf grid" test_bpf_grid;
        ] );
      ( "measure",
        [
          t "final value + peak" test_measure_final_and_peak;
          t "crossing time" test_measure_crossing;
          t "crossing direction" test_measure_crossing_direction;
          t "crossing direction on first sample" test_measure_crossing_first_sample;
          t "rise time" test_measure_rise_time;
          t "overshoot" test_measure_overshoot;
          t "settling time" test_measure_settling;
          t "delay between channels" test_measure_delay;
        ] );
      ( "error",
        [
          t "relative error dB" test_relative_error_db;
          t "zero reference" test_relative_error_zero_ref;
          t "waveform error" test_waveform_error_db;
          t "average per-channel" test_average_relative_error_db;
        ] );
    ]
