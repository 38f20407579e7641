open Opm_numkit
open Opm_robust
module Json = Opm_obs.Json
module Metrics = Opm_obs.Metrics
module Trace = Opm_obs.Trace

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

let m_windows = Metrics.counter "window.count"
let m_factor_reuse = Metrics.counter "window.factor_reuse"
let h_handoff = Metrics.histogram "window.handoff_seconds"

let cp_fail path message =
  Opm_error.raise_ (Opm_error.Checkpoint_error { path; message })

let mat_of_cols n cols = Mat.init n (Array.length cols) (fun r j -> cols.(j).(r))

let encode_prefix n cols =
  Json.Obj
    [
      ("rows", Json.Int n);
      ("cols", Json.Int (Array.length cols));
      ("data", Checkpoint.encode_floats (Array.concat (Array.to_list cols)));
    ]

(* the prefix columns, each a fresh length-n vector *)
let decode_prefix path n j =
  match
    ( Option.bind (Json.member "rows" j) Json.to_int_opt,
      Option.bind (Json.member "cols" j) Json.to_int_opt,
      Json.member "data" j )
  with
  | Some r, Some c, Some d when r = n && c >= 0 ->
      let a = try Checkpoint.decode_floats d with Invalid_argument msg -> cp_fail path msg in
      if Array.length a <> r * c then cp_fail path "prefix data does not match its declared shape";
      Array.init c (fun k -> Array.sub a (k * r) r)
  | _ -> cp_fail path "malformed prefix"

let run ?memory_len ?checkpoint ?(checkpoint_every = 1) ?resume_from
    ~window ctx pencil history ~bu ~emit =
  Trace.with_span "window.solve" @@ fun () ->
  if window < 1 then invalid_arg "Window.run: window width must be >= 1";
  if checkpoint_every < 1 then invalid_arg "Window.run: checkpoint_every < 1";
  (match memory_len with
  | Some k when k < 0 -> invalid_arg "Window.run: memory_len < 0"
  | Some _ | None -> ());
  let n = Engine.size pencil in
  (* the committed prefix is kept only where a checkpoint or an
     interruption may need it; the in-flight window is staged and
     reaches [emit] at its boundary *)
  let keep = checkpoint <> None || ctx.Engine.budget <> None in
  let prefix = ref [||] and committed = ref 0 and completed = ref 0 in
  let last_checkpoint = ref None in
  let solve () =
    let plan = Engine.prepare ctx pencil history in
    let m, key = Engine.identity plan in
    let w = min window m in
    let k_eff = match memory_len with None -> m | Some k -> min k m in
    if keep then prefix := Array.make m [||];
    (* The fingerprint ties a checkpoint to everything the resumed run
       must share for bit-identity: dimensions, effective window and
       memory widths, the column-0 block key (orders and step, as
       IEEE-754 bits) and a digest of the whole forcing. Computed
       lazily: a run with neither checkpointing nor resume never pays
       for the digest. Its kind names the payload: files of an older
       payload ("general", "linear") fail the match. *)
    let fingerprint =
      lazy
        (Json.Obj
           [
             ("kind", Json.String "prefix");
             ("n", Json.Int n);
             ("m", Json.Int m);
             ("w", Json.Int w);
             ("memory_len", Json.Int k_eff);
             ("key", Checkpoint.encode_floats (Array.of_list key));
             ( "bu",
               Json.String
                 (Checkpoint.checksum_of_payload
                    (Checkpoint.encode_floats (Array.concat (List.init m bu)))) );
           ])
    in
    let resumed =
      match resume_from with
      | None -> [||]
      | Some path ->
          let payload = Checkpoint.load ~path in
          (match Json.member "fingerprint" payload with
          | Some fp when fp = Lazy.force fingerprint -> ()
          | Some _ ->
              cp_fail path
                "fingerprint mismatch: the checkpoint was written by a run with \
                 a different system, grid, window width, memory length, input \
                 matrix or payload"
          | None -> cp_fail path "missing fingerprint");
          let cols =
            match Json.member "prefix" payload with
            | Some j -> decode_prefix path n j
            | None -> cp_fail path "missing prefix"
          in
          let c = Array.length cols in
          if c > m || (c < m && c mod w <> 0) then
            cp_fail path "prefix does not end on a window boundary";
          Array.iteri
            (fun i x ->
              if keep then !prefix.(i) <- x;
              emit i x)
            cols;
          committed := c;
          completed := (c + w - 1) / w;
          last_checkpoint := Some path;
          cols
    in
    let stage = Array.make w [||] in
    (* the boundary after column c − 1 commits the window [s, c) *)
    let at c =
      let t0 = Unix.gettimeofday () in
      let s = !committed in
      for i = s to c - 1 do
        if keep then !prefix.(i) <- stage.(i - s);
        emit i stage.(i - s)
      done;
      committed := c;
      incr completed;
      Metrics.incr m_windows;
      (match checkpoint with
      | Some path when !completed mod checkpoint_every = 0 || c = m ->
          Checkpoint.save ~path
            (Json.Obj
               [
                 ("fingerprint", Lazy.force fingerprint);
                 ("prefix", encode_prefix n (Array.sub !prefix 0 c));
               ]);
          last_checkpoint := Some path
      | Some _ | None -> ());
      Metrics.observe h_handoff (Unix.gettimeofday () -. t0)
    in
    Engine.run
      ~boundary:
        { Engine.width = w; memory = (if k_eff < m then Some k_eff else None); at }
      ~replay:(Array.length resumed, Array.get resumed)
      plan ~bu
      ~emit:(fun i x -> stage.(i mod w) <- x);
    let hits, _ = Engine.lookups plan in
    Metrics.incr ~by:hits m_factor_reuse;
    hits
  in
  (* a budget or checkpoint-write breach mid-run surfaces as
     [Interrupted] carrying the committed prefix and the last good
     checkpoint: the caller gets a usable result, not nothing *)
  try solve ()
  with
  | Opm_error.Error
      ((Opm_error.Deadline_exceeded _ | Opm_error.Budget_exhausted _ | Opm_error.Io_error _)
       as error)
  ->
    raise
      (Interrupted
         {
           error;
           partial = mat_of_cols n (Array.sub !prefix 0 (min !committed (Array.length !prefix)));
           completed_windows = !completed;
           checkpoint = !last_checkpoint;
         })
