(* One-shot workloads: the opm_sim --method opm path, from netlist text
   to CSV bytes, one fresh child process per sample because an opm_sim
   user pays process start-up on every run. The child is this
   executable re-run as [perf.exe child <workload>]: it reads the
   netlist text on stdin, writes the CSV on stdout and one JSON line of
   measurements on stderr. *)

open Opm_basis
open Opm_signal
open Opm_circuit
open Opm_core
module Json = Opm_obs.Json
module Trace = Opm_obs.Trace

(* a binary of this repository's build tree, from perf.exe's own path
   [<build>/bench/perf/perf.exe] *)
let built rel =
  Filename.concat
    (Filename.dirname (Filename.dirname (Filename.dirname Sys.executable_name)))
    rel

(* peak resident set of a process, MB ([VmHWM] is in kB) *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %f kB" (fun kb -> kb /. 1024.0)
        | _ -> find ()
        | exception End_of_file -> Float.nan
      in
      find ())

(* ---- child side ------------------------------------------------------ *)

let child ~smoke ~trace ~trace_out name =
  let ready = Unix.gettimeofday () in
  let text = In_channel.input_all stdin in
  let cfg = Inputs.oneshot_config ~smoke name in
  let terms = ref 0 in
  let op () =
    let net = Trace.with_span "circuit.parser" (fun () -> Parser.parse_string text) in
    let mt, srcs = Trace.with_span "circuit.stamp" (fun () -> Inputs.stamp cfg net) in
    terms := List.length mt.Multi_term.terms;
    let grid = Grid.uniform ~t_end:cfg.t_end ~m:cfg.steps in
    let r = Opm.simulate_multi_term ~basis:`Bpf ~grid mt srcs in
    Trace.with_span "signal.waveform.csv" (fun () ->
        Waveform.to_csv r.Sim_result.outputs)
  in
  let t0 = Unix.gettimeofday () in
  let csv, wall, layers =
    if trace then
      let csv, values = Ledger.traced ?dump:trace_out op in
      let opmatrix =
        (* computed, not measured: one dense m×m float matrix per term *)
        if List.mem_assoc "basis.block_pulse.opmatrix.s" values then
          [ ("basis.block_pulse.opmatrix.bytes", float_of_int (!terms * cfg.steps * cfg.steps * 8)) ]
        else []
      in
      ( csv,
        List.assoc "trace.wall.s" values,
        List.map
          (fun (k, v) -> (k, Json.Float v))
          ((("signal.waveform.csv.bytes", float_of_int (String.length csv)) :: opmatrix) @ values) )
    else
      let csv = op () in
      (csv, Unix.gettimeofday () -. t0, [])
  in
  print_string csv;
  flush stdout;
  prerr_endline
    (Json.to_string
       (Json.Obj
          [
            ("ready", Json.Float ready);
            ("wall", Json.Float wall);
            ("rss_mb", Json.Float (peak_rss_mb "self"));
            ("layers", Json.Obj layers);
          ]))

(* ---- parent side ----------------------------------------------------- *)

type sample = {
  csv : string;
  ready : float;  (* child clock at entry to main *)
  wall : float;  (* netlist text -> CSV bytes, s *)
  rss_mb : float;
  layers : (string * float) list;
  spawned : float;
  exited : float;
}

let read_all fd =
  let buf = Buffer.create 65536 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 65536 with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  Buffer.contents buf

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let off = ref 0 in
  while !off < Bytes.length b do
    off := !off + Unix.write fd b !off (Bytes.length b - !off)
  done

(* stdout and stderr of [argv] fed [input] on stdin, with its exit
   status. stderr is drained after stdout, so it must fit a pipe buffer
   (64 KB): true of both programs run here, which print at most a
   few lines there. *)
let capture argv input =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process argv.(0) argv in_r out_w err_w in
  List.iter Unix.close [ in_r; out_w; err_w ];
  Fun.protect
    ~finally:(fun () -> List.iter Unix.close [ out_r; err_r ])
    (fun () ->
      (try write_all in_w input with Unix.Unix_error _ -> ());
      Unix.close in_w;
      let out = read_all out_r in
      let err = read_all err_r in
      (out, err, snd (Unix.waitpid [] pid)))

(* The real CLI on the same netlist, for the byte-identity gate. The
   netlist goes through a file because opm_sim reads a path; the file
   lives in a temporary directory under the working directory. *)
let opm_sim_csv ~smoke name netlist =
  let cfg = Inputs.oneshot_config ~smoke name in
  let dir = ".perf_tmp" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let file = Filename.concat dir (Printf.sprintf "%s-%d.sp" name (Unix.getpid ())) in
  Out_channel.with_open_text file (fun oc -> output_string oc netlist);
  let exe = built "bin/opm_sim.exe" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove file;
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () ->
      capture
        (Array.of_list
           ([ exe; file; "-t"; Printf.sprintf "%.17g" cfg.t_end; "--steps";
              string_of_int cfg.steps; "--method"; "opm" ]
           @ List.concat_map (fun p -> [ "--probe"; p ]) cfg.probes))
        "")

(* Run one child to completion; [Error] carries why it failed. *)
let run_child ~smoke ~trace ?trace_out name netlist =
  let exe = Sys.executable_name in
  let args =
    [ exe; "child"; name ]
    @ (if smoke then [ "--smoke" ] else [])
    @ (if trace then [ "--trace" ] else [])
    @ match trace_out with Some p -> [ "--trace-out"; p ] | None -> []
  in
  let spawned = Unix.gettimeofday () in
  let csv, err, status = capture (Array.of_list args) netlist in
  let exited = Unix.gettimeofday () in
  let err = String.trim err in
  let last_line =
    match String.rindex_opt err '\n' with
    | Some i -> String.sub err (i + 1) (String.length err - i - 1)
    | None -> err
  in
  match (status, Json.of_string last_line) with
  | Unix.WEXITED 0, doc -> (
      let num k = Option.bind (Json.member k doc) Json.to_float_opt in
      let layers =
        match Json.member "layers" doc with
        | Some (Json.Obj kv) ->
            List.filter_map
              (fun (k, v) -> Option.map (fun v -> (k, v)) (Json.to_float_opt v))
              kv
        | _ -> []
      in
      match (num "ready", num "wall", num "rss_mb") with
      | Some ready, Some wall, Some rss_mb ->
          Ok { csv; ready; wall; rss_mb; layers; spawned; exited }
      | _ -> Error ("malformed child report: " ^ last_line))
  | _, _ | (exception Json.Parse_error _) -> Error ("child failed: " ^ err)
