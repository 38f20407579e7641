(* Per-layer ledger. Each traced operation runs inside a root span
   [perf.op]; the benchmark wraps its own calls into the library in
   spans named after the layer they enter (circuit.parser,
   serve.protocol.encode, ...), and the library adds its own spans and
   counters underneath. After the operation the spans are read back from
   the Chrome export, turned into self times per span path, and summed
   into the layer metrics of BENCHMARK.json; the counters are read from
   the process-wide registry, which is reset before each operation. *)

module Json = Opm_obs.Json
module Trace = Opm_obs.Trace
module Metrics = Opm_obs.Metrics

let root = "perf.op"

(* span name -> layer metric; a span missing here is left uncovered and
   lowers layers.coverage *)
let layer_of_span = function
  | "circuit.parser" -> Some "circuit.parser.s"
  | "circuit.stamp" -> Some "circuit.stamp.s"
  | "signal.waveform.csv" -> Some "signal.waveform.csv.s"
  | "opm.operational_matrices" -> Some "basis.block_pulse.opmatrix.s"
  | "rhs_conv" -> Some "numkit.fft.rhs_conv.s"
  | "engine.solve_dense" | "engine.solve_sparse" | "engine.solve_linear_dense"
  | "engine.solve_linear_sparse" | "refine" ->
      Some "core.engine.columns.s"
  | "factor" -> Some "core.engine.factor.s"
  | "spectral.factor" -> Some "core.spectral_solver.factor.s"
  | "spectral.compile" | "spectral.matrices" ->
      Some "core.spectral_solver.assemble.s"
  | "spectral.solve" | "spectral.sample_inputs" ->
      Some "core.spectral_solver.solve.s"
  | "compiled.compile" -> Some "core.compiled_model.compile.s"
  | "opm.project_inputs" -> Some "core.compiled_model.project.s"
  | "opm.simulate" | "compiled_solve" | "core.compiled_model.result" ->
      Some "core.compiled_model.result.s"
  | "serve.protocol.decode" -> Some "serve.protocol.decode.s"
  | "serve.protocol.fingerprint" -> Some "serve.protocol.fingerprint.s"
  | "serve.protocol.encode" -> Some "serve.protocol.encode.s"
  | "serve.model_cache" -> Some "serve.model_cache.s"
  | _ -> None

(* library counters reported per operation *)
let counters =
  [
    ("numkit.fft.rhsconv.blocks", "engine.rhsconv.blocks");
    ("core.engine.rhsconv.naive_cols", "engine.rhsconv.naive_cols");
    ("core.engine.columns.count", "engine.columns");
    ("sparse.slu.solve.count", "slu.solve");
    ("numkit.lu.solve.count", "lu.solve");
    ("sparse.slu.analyze.count", "slu.analyze");
    ("sparse.slu.factor.count", "slu.factor");
    ("sparse.slu.symbolic_reuse.count", "slu.symbolic_reuse");
    ("numkit.lu.factor.count", "lu.factor");
    ("parallel.pool.jobs", "pool.jobs");
  ]

(* Every per-layer metric with its unit, in BENCHMARK.json order. *)
let metrics =
  [
    ("basis.block_pulse.opmatrix.s", "s");
    ("basis.block_pulse.opmatrix.bytes", "bytes");
    ("numkit.fft.rhs_conv.s", "s");
    ("numkit.fft.rhsconv.blocks", "count");
    ("core.engine.rhsconv.naive_cols", "count");
    ("core.engine.columns.s", "s");
    ("core.engine.columns.count", "count");
    ("sparse.slu.solve.count", "count");
    ("numkit.lu.solve.count", "count");
    ("core.engine.factor.s", "s");
    ("sparse.slu.analyze.count", "count");
    ("sparse.slu.factor.count", "count");
    ("sparse.slu.symbolic_reuse.count", "count");
    ("sparse.slu.fill_ratio", "ratio");
    ("core.spectral_solver.factor.s", "s");
    ("core.spectral_solver.assemble.s", "s");
    ("core.spectral_solver.solve.s", "s");
    ("numkit.lu.factor.count", "count");
    ("core.compiled_model.compile.s", "s");
    ("core.compiled_model.project.s", "s");
    ("core.compiled_model.result.s", "s");
    ("core.compiled_model.factor_reuse_ratio", "ratio");
    ("circuit.parser.s", "s");
    ("circuit.stamp.s", "s");
    ("signal.waveform.csv.s", "s");
    ("signal.waveform.csv.bytes", "bytes");
    ("serve.protocol.decode.s", "s");
    ("serve.protocol.fingerprint.s", "s");
    ("serve.protocol.encode.s", "s");
    ("serve.protocol.request.bytes", "bytes");
    ("serve.protocol.response.bytes", "bytes");
    ("serve.model_cache.s", "s");
    ("serve.model_cache.hit_ratio", "ratio");
    ("serve.model_cache.evictions", "count");
    ("serve.http.wait.s", "s");
    ("parallel.pool.jobs", "count");
    ("parallel.pool.wait.s", "s");
    ("ocaml.gc.alloc_mb", "MB");
    ("ocaml.gc.major", "count");
    ("trace.wall.s", "s");
    ("layers.coverage", "ratio");
    ("trace.overhead", "ratio");
  ]

(* ---- one traced operation -------------------------------------------- *)

let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* Run [f] as one traced operation and return its result with the
   operation's layer values, an assoc list of sums over the operation.
   [?dump] writes the operation's Chrome trace and flat profile to
   [<dump>.trace.json] and [<dump>.profile.txt]. *)
let traced ?dump f =
  Trace.reset ();
  Metrics.reset ();
  Trace.set_enabled true;
  Metrics.set_enabled true;
  let words0 = alloc_words () and major0 = (Gc.quick_stat ()).Gc.major_collections in
  let result =
    Fun.protect
      ~finally:(fun () ->
        Trace.set_enabled false;
        Metrics.set_enabled false)
      (fun () -> Trace.with_span root f)
  in
  let words1 = alloc_words () and major1 = (Gc.quick_stat ()).Gc.major_collections in
  let chrome = Trace.to_chrome_json () in
  Option.iter
    (fun prefix ->
      Json.to_file (prefix ^ ".trace.json") chrome;
      Out_channel.with_open_text (prefix ^ ".profile.txt") (fun oc ->
          output_string oc (Trace.to_profile_string ())))
    dump;
  (* total duration per span path, for the spans under the root *)
  let totals = Hashtbl.create 32 in
  let events =
    match Json.member "traceEvents" chrome with Some (Json.List l) -> l | _ -> []
  in
  List.iter
    (fun ev ->
      let path =
        Option.bind (Json.member "args" ev) (Json.member "path")
        |> Fun.flip Option.bind Json.to_string_opt
      in
      let dur = Option.bind (Json.member "dur" ev) Json.to_float_opt in
      match (path, dur) with
      | Some p, Some d
        when p = root || String.starts_with ~prefix:(root ^ "/") p ->
          let d = d *. 1e-6 in
          Hashtbl.replace totals p
            (d +. Option.value ~default:0.0 (Hashtbl.find_opt totals p))
      | _ -> ())
    events;
  (* self time = total minus the totals of the direct child paths *)
  let self = Hashtbl.copy totals in
  Hashtbl.iter
    (fun p d ->
      match String.rindex_opt p '/' with
      | Some i ->
          let parent = String.sub p 0 i in
          Option.iter
            (fun s -> Hashtbl.replace self parent (s -. d))
            (Hashtbl.find_opt self parent)
      | None -> ())
    totals;
  let values = Hashtbl.create 64 in
  let add k v =
    Hashtbl.replace values k
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt values k))
  in
  let covered = ref 0.0 in
  Hashtbl.iter
    (fun p s ->
      let name =
        match String.rindex_opt p '/' with
        | Some i -> String.sub p (i + 1) (String.length p - i - 1)
        | None -> p
      in
      match layer_of_span name with
      | Some layer ->
          add layer s;
          covered := !covered +. s
      | None -> ())
    self;
  let wall = Option.value ~default:0.0 (Hashtbl.find_opt totals root) in
  add "trace.wall.s" wall;
  add "layers.covered.s" !covered;
  List.iter
    (fun (layer, name) ->
      add layer (float_of_int (Metrics.counter_value (Metrics.counter name))))
    counters;
  let fill = Metrics.gauge_last (Metrics.gauge "slu.fill_ratio") in
  add "sparse.slu.fill_ratio" (if Float.is_nan fill then 0.0 else fill);
  add "parallel.pool.wait.s"
    (Metrics.histogram_sum (Metrics.histogram "pool.job_wait_seconds"));
  add "compiled.queries"
    (float_of_int (Metrics.counter_value (Metrics.counter "compiled.queries")));
  add "compiled.factor_reuse"
    (float_of_int
       (Metrics.counter_value (Metrics.counter "compiled.factor_reuse")));
  add "ocaml.gc.alloc_mb" ((words1 -. words0) *. 8.0 /. 1e6);
  add "ocaml.gc.major" (float_of_int (major1 - major0));
  (result, Hashtbl.fold (fun k v acc -> (k, v) :: acc) values [])

(* ---- accumulation over operations ------------------------------------ *)

type t = {
  sums : (string, float) Hashtbl.t;
  mutable ops : int;
  mutable traced_walls : float list;  (* root-span wall of traced ops *)
  mutable plain_walls : float list;  (* clock wall of untraced ops *)
  mutable client : float list;  (* client-side latencies, serve only *)
}

let create () =
  {
    sums = Hashtbl.create 64;
    ops = 0;
    traced_walls = [];
    plain_walls = [];
    client = [];
  }

let add t k v =
  Hashtbl.replace t.sums k
    (v +. Option.value ~default:0.0 (Hashtbl.find_opt t.sums k))

let record t values =
  t.ops <- t.ops + 1;
  List.iter (fun (k, v) -> add t k v) values

let get t k = Option.value ~default:0.0 (Hashtbl.find_opt t.sums k)

(* Values per operation. Ratios are ratios of sums; everything else is
   the mean over the traced operations. *)
let finish t =
  let ops = float_of_int (max 1 t.ops) in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  List.map
    (fun (name, unit) ->
      let v =
        match name with
        | "layers.coverage" -> ratio (get t "layers.covered.s") (get t "trace.wall.s")
        | "trace.overhead" ->
            Stats.median t.traced_walls /. Stats.median t.plain_walls -. 1.0
        | "serve.http.wait.s" when t.client <> [] ->
            (* what a request spends outside the handler: transport,
               framing and queueing behind the other client *)
            Stats.median t.client -. Stats.median t.plain_walls
        | "core.compiled_model.factor_reuse_ratio" ->
            ratio (get t "compiled.factor_reuse") (get t "compiled.queries")
        | "serve.model_cache.hit_ratio" ->
            ratio (get t "cache.hits") (get t "cache.hits" +. get t "cache.misses")
        | "serve.model_cache.evictions" | "parallel.pool.jobs"
        | "parallel.pool.wait.s"
          when get t "daemon.requests" > 0.0 ->
            (* serve workloads take these from the daemon's /metrics *)
            get t ("daemon." ^ name) /. get t "daemon.requests"
        | _ -> get t name /. ops
      in
      (name, v, unit))
    metrics
