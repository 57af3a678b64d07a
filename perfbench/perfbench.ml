(* The repository benchmark.  Run it through run.py, which builds it:

     python3 perfbench/run.py --workload suite-p8 --seed 1 --seconds 15 --trace 0

   With --trace 0 it times whole passes over the workload and prints the
   end-to-end metrics; with --trace 1 it repeats the workload with its own
   spans around every call into the program, times each layer's public
   functions, and prints the per-layer metrics.  Either way it checks the
   outputs: every batch run verifies against its sequential reference,
   every served request completes, and everything simulated (and the
   allocation) repeats exactly across passes.  The last line of standard
   output is one JSON object; a failed check makes it report
   "correct": false and exit 1.  See README.md. *)

module C = Olden_config
module Common = Olden_benchmarks.Common
module Tables = Olden_benchmarks.Tables
module W = Workload

(* --- Arguments ------------------------------------------------------------ *)

let workload = ref ""
let seed = ref 1
let arrival_seed = ref (-1)
let fault_seed = ref (-1)
let seconds = ref 10
let trace = ref 0
let size = ref W.Full
let report_file = ref ""
let spans_file = ref ""

let args =
  [
    ("--workload", Arg.Set_string workload, "NAME one of the four workloads");
    ("--seed", Arg.Set_int seed, "N input seed, and the default of the two below");
    ("--arrival-seed", Arg.Set_int arrival_seed, "N serve arrival seed");
    ("--fault-seed", Arg.Set_int fault_seed, "N fault schedule seed");
    ("--seconds", Arg.Set_int seconds, "S how long the timed passes run");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
    ( "--size",
      Arg.Symbol
        ([ "full"; "tiny" ], fun s -> size := if s = "tiny" then W.Tiny else W.Full),
      " problem size (tiny: the smoke check's)" );
    ("--report", Arg.Set_string report_file, "FILE also write the full report");
    ("--spans", Arg.Set_string spans_file, "FILE write the traced run's spans");
  ]

let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1"

(* --- Metrics ----------------------------------------------------------------- *)

type metric = {
  name : string;
  value : float;
  unit_ : string;
  better : string;
  base : string;  (** what the figure is counted over *)
}

let metrics : metric list ref = ref []

let emit ?(better = "lower") name unit_ base value =
  metrics := { name; value; unit_; better; base } :: !metrics

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* --- Host fingerprint ---------------------------------------------------- *)

let cpu_model () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> "unknown"
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> "unknown"
        | l -> (
            match String.index_opt l ':' with
            | Some i when String.starts_with ~prefix:"model name" l ->
                String.trim (String.sub l (i + 1) (String.length l - i - 1))
            | _ -> scan ())
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

let fingerprint () =
  [
    ("cpu_model", cpu_model ());
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml_version", Sys.ocaml_version);
    ("build_profile", Build_info.profile);
  ]

(* --- Passes ---------------------------------------------------------------- *)

type pass = { rows : W.row list; traced : bool }

let pass_wall p = Stat.sum (List.map (fun (r : W.row) -> r.W.wall) p.rows)
let pass_events p = Stat.sumi (List.map (fun (r : W.row) -> W.events r.W.res) p.rows)

let pass_cycles p =
  Stat.sumi (List.map (fun (r : W.row) -> r.W.res.W.cycles) p.rows)

(* The reference kernel's median time over the pass's jobs, and the pass
   wall scaled to a host on which the kernel takes its nominal time: each
   job by the kernel calls around it. *)
let pass_ref p = Stat.median (List.map (fun (r : W.row) -> r.W.ref_wall) p.rows)

let row_cal (r : W.row) = r.W.wall *. Calib.nominal_s /. r.W.ref_wall
let pass_cal p = Stat.sum (List.map row_cal p.rows)

let pass_minor p = Stat.sum (List.map (fun (r : W.row) -> r.W.minor_words) p.rows)
let pass_major p = Stat.sum (List.map (fun (r : W.row) -> r.W.major_words) p.rows)

let total_stats rows =
  List.fold_left
    (fun acc (r : W.row) ->
      List.map2 (fun (k, a) (_, b) -> (k, a + b)) acc (Stats.fields r.W.res.W.stats))
    (Stats.fields (Stats.create ()))
    rows

let stat fields k = fi (List.assoc k fields)

(* Counts taken at a traced job's boundaries. *)
let row_counts (r : W.row) =
  ("wall_s", r.W.wall)
  :: ("minor_words", r.W.minor_words)
  :: ("events", fi (W.events r.W.res))
  :: ("spans", fi r.W.res.W.spans)
  :: List.map (fun (k, v) -> (k, fi v)) (Stats.fields r.W.res.W.stats)

let traced_job job f =
  Tracer.with_span ~counts:row_counts ("job:" ^ job.W.label) f

let run_pass ~traced w =
  let around = if traced then Some traced_job else None in
  { rows = W.run_pass ?around w; traced }

(* --- Table 2 -------------------------------------------------------------- *)

(* Mean |speedup - paper| / paper at 8 processors over the workload's
   Table-2 benchmarks.  The 8-processor cycles come from the pass when it
   ran the paper's configuration (8 procs, local, bare), else from one
   more run; the sequential baseline always from an untimed run. *)
let table2 ~size ~seed (w : W.t) (rows : W.row list) failures =
  List.filter_map
    (fun (spec : Common.spec) ->
      match
        List.find_opt (fun (n, _, _) -> n = spec.Common.name) Tables.paper_table2
      with
      | None -> None
      | Some (_, paper, _) ->
          let paper = List.nth paper 3 in
          let seq =
            spec.Common.run
              (C.sequential_of (C.make ~nprocs:1 ~seed ()))
              ~scale:(W.batch_scale ~size spec)
          in
          if not seq.Common.ok then
            failures := (spec.Common.name ^ ": sequential run failed") :: !failures;
          let paper_row (r : W.row) =
            r.W.job.W.bench = spec.Common.name
            && r.W.job.W.procs = 8
            && r.W.job.W.coherence = C.Local
            && (not r.W.job.W.observed)
            && r.W.res.W.serve = None
          in
          let par =
            match List.find_opt paper_row rows with
            | Some r -> r.W.res.W.cycles
            | None ->
                let r =
                  (W.batch_job ~size ~procs:8 ~coherence:C.Local ~seed spec).W.run
                    ()
                in
                if not r.W.ok then
                  failures :=
                    (spec.Common.name ^ ": 8-processor run failed") :: !failures;
                r.W.cycles
          in
          let speedup = ratio (fi (Common.measured_cycles spec seq)) (fi par) in
          Some (spec.Common.name, speedup, paper))
    w.W.specs

(* --- Per-layer share estimate --------------------------------------------- *)

(* A row's host time split by layer: each layer's count in the row times
   its measured ns/op, as a share of the row's wall time. *)
let shares (layer : string -> float) (r : W.row) =
  let st = Stats.fields r.W.res.W.stats in
  let s k = stat st k in
  let local_derefs =
    s "local_refs" +. s "cacheable_reads" -. s "cacheable_reads_remote"
    +. s "cacheable_writes" -. s "cacheable_writes_remote"
  in
  let remote_cached = s "cacheable_reads_remote" +. s "cacheable_writes_remote" in
  (* one migration leg: half a measured round trip, scaled by how much
     dearer an engine event is at this row's processor count *)
  let leg =
    layer "runtime.ops.migrate_rtt_ns" /. 2.
    *. ratio
         (layer
            (if r.W.job.W.procs > 8 then "runtime.engine.ns_per_event.p62"
             else "runtime.engine.ns_per_event.p8"))
         (layer "runtime.engine.ns_per_event.p8")
  in
  let directory =
    if r.W.job.W.coherence = C.Local then 0.
    else s "cache_misses" *. layer "cache.directory.add_sharer_ns"
  in
  let obs =
    if r.W.job.W.observed then
      (fi r.W.res.W.spans *. layer "span.emit_on_ns")
      +. (local_derefs +. remote_cached) *. layer "monitor.record_ns"
    else fi (W.events r.W.res) *. layer "span.emit_off_ns"
  in
  let ns = r.W.wall *. 1e9 in
  let parts =
    [
      ("runtime", (s "migrations" +. s "returns") *. leg);
      ("ops", local_derefs *. layer "runtime.ops.fast_load_ns");
      ( "cache",
        (remote_cached *. layer "cache.translation.probe_hit_ns")
        +. (s "cacheable_writes" *. layer "cache.write_log.record_ns")
        +. directory );
      ("heap", s "cache_misses" *. layer "heap.memory.blit_line_ns");
      ("obs", obs);
    ]
  in
  let parts = List.map (fun (k, v) -> (k, ratio v ns)) parts in
  parts @ [ ("other", 1. -. Stat.sum (List.map snd parts)) ]

(* --- Output ----------------------------------------------------------------- *)

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let json_metrics ms =
  String.concat ","
    (List.map
       (fun m ->
         Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" m.name (json_float m.value)
           m.unit_)
       ms)

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let stats_json = function
  | p :: _ ->
      String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%S:%d" k v) (total_stats p.rows))
  | [] -> ""

let report_json ~w ~seeds ~passes ~traced_passes ~ms ~correct ~attempted ~failed ~failures ~tables
    ~row_lines ~share_rows =
  let q xs =
    let a, b, c = Stat.quantiles xs in
    Printf.sprintf "[%s,%s,%s]" (json_float a) (json_float b) (json_float c)
  in
  Printf.sprintf
    "{\"schema\":\"perfbench/v1\",\"workload\":%S,\"seeds\":{\"input\":%d,\"arrival\":%d,\"fault\":%d},\"seconds\":%d,\"trace\":%d,\"size\":%S,\"fingerprint\":{%s},\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"failures\":[%s],\"pass_walls\":[%s],\"pass_wall_quartiles\":%s,\"stats\":{%s},\"traced_stats\":{%s},\"table2\":[%s],\"rows\":[%s],\"shares\":[%s],\"metrics\":[%s]}\n"
    w.W.name seeds.W.input seeds.W.arrival seeds.W.fault !seconds !trace
    (if !size = W.Tiny then "tiny" else "full")
    (String.concat ","
       (List.map (fun (k, v) -> Printf.sprintf "%S:%S" k v) (fingerprint ())))
    correct attempted failed
    (String.concat "," (List.map (Printf.sprintf "%S") failures))
    (String.concat "," (List.map (fun p -> json_float (pass_wall p)) passes))
    (q (List.map pass_wall passes))
    (stats_json passes) (stats_json traced_passes)
    (String.concat ","
       (List.map
          (fun (n, s, p) ->
            Printf.sprintf "{\"benchmark\":%S,\"speedup\":%s,\"paper\":%s}" n
              (json_float s) (json_float p))
          tables))
    (String.concat "," row_lines)
    (String.concat ","
       (List.map
          (fun (label, parts) ->
            Printf.sprintf "{\"row\":%S,%s}" label
              (String.concat ","
                 (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k (json_float v)) parts)))
          share_rows))
    (String.concat ","
       (List.map
          (fun m ->
            Printf.sprintf
              "{\"name\":%S,\"value\":%s,\"unit\":%S,\"better\":%S,\"base\":%S}"
              m.name (json_float m.value) m.unit_ m.better m.base)
          ms))

(* --- The run ----------------------------------------------------------------- *)

let alloc_tolerance = 0.01
let setup_samples = 7
let serve_classes = [ "point"; "scan"; "update" ]
let rate_tag r = Printf.sprintf "r%g" r
let p99_limit = 200_000

let main () =
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let pick s = if s >= 0 then s else !seed in
  let seeds =
    { W.input = !seed; arrival = pick !arrival_seed; fault = pick !fault_seed }
  in
  let w =
    match W.make ~size:!size ~seeds !workload with
    | Some w -> w
    | None ->
        Printf.eprintf "perfbench: unknown workload %S (one of: %s)\n" !workload
          (String.concat ", " W.names);
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace takes 0 or 1";
    exit 2
  end;
  let traced = !trace = 1 in
  let stop_workload = Tracer.start ("workload:" ^ w.W.name) in
  let budget = float_of_int (max 1 !seconds) in
  let failures = ref [] in
  let fail msg = failures := msg :: !failures in
  (* Set-up, repeated: after one cold call, [setup_samples] samples, each
     of enough calls to last about 20 ms, each after one reference-kernel
     call.  Figures are per call. *)
  let setups =
    Tracer.with_span "setup" (fun () ->
        let h, b = W.setup ~size:!size ~seeds w in
        let calls = max 1 (int_of_float (ceil (0.02 /. Float.max (h +. b) 1e-6))) in
        List.init setup_samples (fun _ ->
            let r = Calib.time () in
            let h = ref 0. and b = ref 0. in
            for _ = 1 to calls do
              let h', b' = W.setup ~size:!size ~seeds w in
              h := !h +. h';
              b := !b +. b'
            done;
            (r, (!h /. fi calls, !b /. fi calls))))
  in
  let heuristic_s = Stat.median (List.map (fun (_, (h, _)) -> h) setups) in
  let build_s = Stat.median (List.map (fun (_, (_, b)) -> b) setups) in
  let raw_setup_s = Stat.median (List.map (fun (_, (h, b)) -> h +. b) setups) in
  let setup_s =
    raw_setup_s *. Calib.nominal_s /. Stat.median (List.map fst setups)
  in
  (* One untimed warm-up pass, then timed passes for the budget. *)
  let warm = Tracer.with_span "warm-up" (fun () -> run_pass ~traced:false w) in
  let t0 = W.now () in
  let passes = ref [] in
  let timed_budget = if traced then budget /. 2. else budget in
  let rec timed () =
    let untraced = List.filter (fun p -> not p.traced) !passes in
    if List.length untraced < 2 || W.now () -. t0 < timed_budget then begin
      passes := !passes @ [ run_pass ~traced:false w ];
      if traced then
        passes :=
          !passes
          @ [ Tracer.with_span ("pass:" ^ w.W.name) (fun () -> run_pass ~traced:true w) ];
      timed ()
    end
  in
  timed ();
  let passes = !passes in
  let untraced = List.filter (fun p -> not p.traced) passes in
  let traced_passes = List.filter (fun p -> p.traced) passes in
  let first = List.hd untraced in
  (* Checks. *)
  let all_passes = warm :: passes in
  let attempted = ref 0 and failed = ref 0 in
  List.iter
    (fun p ->
      List.iter
        (fun (r : W.row) ->
          incr attempted;
          (match r.W.res.W.serve with
          | Some s ->
              attempted := !attempted + s.W.admitted;
              failed := !failed + (s.W.admitted - s.W.completed)
          | None -> ());
          match W.row_failure r with
          | Some m ->
              (* a serve's incomplete requests are counted above *)
              if r.W.res.W.serve = None then incr failed;
              fail m
          | None -> ())
        p.rows)
    all_passes;
  let sig_of p = List.map W.signature p.rows in
  if List.exists (fun p -> sig_of p <> sig_of warm) passes
  then fail "simulated outputs differ between passes";
  (* Allocation repeats to within a few hundred words per run, not
     exactly: identical runs in one process of OCaml 5.1 allocate
     115,786 to 116,312 minor words for the same MST input.  A pass's
     allocation must stay within [alloc_tolerance] of the median pass. *)
  let allocs = List.map pass_minor passes in
  let alloc_median = Stat.median allocs in
  List.iter
    (fun a ->
      if Float.abs (a -. alloc_median) > alloc_tolerance *. alloc_median then
        fail
          (Printf.sprintf "allocation differs between passes (%.0f vs median %.0f words)"
             a alloc_median))
    allocs;
  let gc = Gc.quick_stat () in
  let top_heap_mb =
    fi gc.Gc.top_heap_words *. fi (Sys.word_size / 8) /. 1048576.
  in
  let tables =
    Tracer.with_span "table2" (fun () ->
        table2 ~size:!size ~seed:!seed w first.rows failures)
  in
  let table2_err =
    ratio
      (Stat.sum (List.map (fun (_, s, p) -> Float.abs (s -. p) /. p) tables))
      (fi (List.length tables))
  in
  let walls = List.map pass_wall untraced in
  let raw_wall_s = Stat.median walls in
  (* Rows by job, over the untraced passes. *)
  let row_across f job =
    List.map
      (fun p -> f (List.find (fun (r : W.row) -> r.W.job.W.label = job.W.label) p.rows))
      untraced
  in
  let row_walls = row_across (fun r -> r.W.wall) in
  (* Each job's median over the passes, summed: one job slowed in one
     pass does not move the figure. *)
  let wall_s =
    Stat.sum (List.map (fun (r : W.row) -> Stat.median (row_across row_cal r.W.job)) first.rows)
  in
  let events = pass_events first in
  let rows_of_first = first.rows in
  (* Observed and serve figures, whichever the workload has. *)
  let observed_wall obs p =
    Stat.sum
      (List.filter_map
         (fun (r : W.row) -> if r.W.job.W.observed = obs then Some r.W.wall else None)
         p.rows)
  in
  let obs_overhead =
    Stat.median
      (List.map (fun p -> ratio (observed_wall true p) (observed_wall false p)) untraced)
  in
  let spans_kept = Stat.sumi (List.map (fun (r : W.row) -> r.W.res.W.spans) rows_of_first) in
  let serves = List.filter_map (fun (r : W.row) -> r.W.res.W.serve) rows_of_first in
  let worst f rate cls =
    List.fold_left
      (fun acc s ->
        if s.W.rate = rate then
          max acc (Option.value ~default:0 (List.assoc_opt cls (f s)))
        else acc)
      0 serves
  in
  let serve_p99 =
    List.fold_left (fun acc c -> max acc (worst (fun s -> s.W.p99) 1.0 c)) 0 serve_classes
  in
  let meets rate =
    let at = List.filter (fun s -> s.W.rate = rate) serves in
    at <> []
    && List.for_all
         (fun s ->
           s.W.completed = s.W.admitted
           && s.W.achieved >= 0.9 *. rate
           && List.for_all (fun (_, p) -> p <= p99_limit) s.W.p99)
         at
  in
  let goodput =
    List.fold_left (fun acc r -> if meets r then Float.max acc r else acc) 0. W.serve_rates
  in
  let completed = Stat.sumi (List.map (fun s -> s.W.completed) serves) in
  let serve_req_per_s =
    Stat.median (List.map (fun p -> ratio (fi completed) (pass_wall p)) untraced)
  in
  let failures = List.rev !failures in
  let correct = failures = [] in
  (* End-to-end metrics. *)
  if not traced then begin
    emit "wall_s" "s"
      "host seconds per pass at the reference kernel's nominal speed: each job's median over the timed passes, summed"
      wall_s;
    emit ~better:"higher" "events_per_s" "1/s"
      "simulated events of one pass / wall_s" (ratio (fi events) wall_s);
    emit "setup_s" "s"
      "host seconds of set-up at the reference kernel's nominal speed, median over repeated set-ups"
      setup_s;
    emit "alloc_words_per_event" "words"
      "minor words allocated in one pass / its simulated events"
      (ratio alloc_median (fi events));
    emit "peak_heap_mb" "MB" "host major-heap high-water mark of the run" top_heap_mb;
    emit "sim_cycles" "cycles" "simulated cycles of one pass, summed over its jobs"
      (fi (pass_cycles first));
    emit "table2_err_p8" "ratio"
      "mean |speedup - paper| / paper over the workload's Table-2 benchmarks at 8 procs"
      table2_err
  end
  else begin
    let layer_names = Layers.all ~k:(if !size = W.Tiny then 100 else 1) in
    let layer =
      List.map
        (fun (name, _, f) -> (name, Tracer.with_span ("layer:" ^ name) f))
        layer_names
    in
    let l name = List.assoc name layer in
    let tp = List.hd traced_passes in
    let st = total_stats tp.rows in
    let s k = stat st k in
    let tev = fi (pass_events tp) in
    List.iter (fun (name, base, _) -> emit name "ns" base (l name)) layer_names;
    let count name key = emit ~better:"lower" name "count" "Stats of one traced pass" (s key) in
    emit "runtime.events" "count" "simulated events of one traced pass" tev;
    count "runtime.migrations" "migrations";
    count "runtime.futures" "futures";
    count "runtime.steals" "steals";
    let avg_chain =
      ratio
        (Stat.sum
           (List.map
              (fun (r : W.row) -> r.W.res.W.report.Olden_runtime.Engine.avg_chain_length)
              tp.rows))
        (fi (List.length tp.rows))
    in
    emit "cache.translation.avg_chain" "entries" "mean over the pass's runs (Engine.report)"
      avg_chain;
    count "cache.hits" "cache_hits";
    count "cache.misses" "cache_misses";
    emit ~better:"higher" "cache.hit_ratio" "ratio" "cache_hits / (cache_hits + cache_misses)"
      (ratio (s "cache_hits") (s "cache_hits" +. s "cache_misses"));
    count "cache.flushes" "cache_flushes";
    count "cache.lines_invalidated" "lines_invalidated";
    count "cache.invalidation_messages" "invalidation_messages";
    count "cache.revalidations" "revalidations";
    count "machine.messages" "messages";
    emit "machine.bytes" "bytes" "Stats of one traced pass" (s "bytes");
    let derefs =
      s "local_refs" +. s "cacheable_reads" +. s "cacheable_writes" +. s "migrations"
    in
    emit "machine.msgs_per_deref" "ratio" "messages / dereferences (local, cached, migrated)"
      (ratio (s "messages") derefs);
    emit ~better:"higher" "machine.utilization" "ratio" "mean of Engine.report utilization"
      (ratio
         (Stat.sum
            (List.map (fun (r : W.row) -> r.W.res.W.report.Olden_runtime.Engine.utilization) tp.rows))
         (fi (List.length tp.rows)));
    count "recovery.retries" "retries";
    emit "recovery.retry_cycles" "cycles" "Stats of one traced pass" (s "retry_cycles");
    count "recovery.replica_messages" "replica_messages";
    count "recovery.failover_messages" "failover_messages";
    emit "recovery.stall_cycles" "cycles" "Stats of one traced pass" (s "recovery_stall_cycles");
    count "recovery.threads_lost" "threads_lost";
    emit ~better:"higher" "serving.admitted" "count" "requests injected in one pass"
      (s "requests_admitted");
    emit ~better:"higher" "serving.completed" "count" "requests completed in one pass"
      (s "requests_completed");
    List.iter
      (fun rate ->
        List.iter
          (fun cls ->
            emit
              (Printf.sprintf "serving.p99_kcyc.%s.%s" cls (rate_tag rate))
              "kcyc" "worst heap's p99 (log2 bucket bound) / 1000"
              (fi (worst (fun s -> s.W.p99) rate cls) /. 1000.);
            emit
              (Printf.sprintf "serving.max_kcyc.%s.%s" cls (rate_tag rate))
              "kcyc" "worst heap's exact maximum / 1000"
              (fi (worst (fun s -> s.W.max) rate cls) /. 1000.))
          serve_classes)
      W.serve_rates;
    emit "serving.build_s" "s" "zero-arrival Serving.run, median over set-ups" build_s;
    let obs_rows = List.filter (fun (r : W.row) -> r.W.job.W.observed) tp.rows in
    let obs_events = Stat.sumi (List.map (fun (r : W.row) -> W.events r.W.res) obs_rows) in
    let spans = Stat.sumi (List.map (fun (r : W.row) -> r.W.res.W.spans) obs_rows) in
    let bare_minor_of (r : W.row) =
      match
        List.find_opt
          (fun (b : W.row) -> b.W.job.W.bench = r.W.job.W.bench && not b.W.job.W.observed)
          tp.rows
      with
      | Some b -> b.W.minor_words
      | None -> r.W.minor_words
    in
    emit "span.spans_per_event" "ratio" "spans kept / events of the observed runs"
      (ratio (fi spans) (fi obs_events));
    emit "span.words_per_span" "words" "(observed - bare minor words) / spans kept"
      (ratio
         (Stat.sum (List.map (fun r -> r.W.minor_words -. bare_minor_of r) obs_rows))
         (fi spans));
    emit "compiler.heuristic_s" "s" "IR models through the heuristic, median over set-ups"
      heuristic_s;
    emit "gc.minor_words_per_event" "words" "minor words / events of one traced pass"
      (ratio (pass_minor tp) tev);
    emit "gc.major_words_per_event" "words" "direct major words / events of one traced pass"
      (ratio (pass_major tp) tev);
    emit "gc.major_collections" "count" "major collections over the whole run"
      (fi gc.Gc.major_collections);
    emit "gc.top_heap_mb" "MB" "host major-heap high-water mark of the run" top_heap_mb;
    emit "obs_overhead_x" "x" "spans+monitor wall / bare wall, same benchmarks, same pass"
      obs_overhead;
    emit "spans_kept" "count" "spans materialized in one pass" (fi spans_kept);
    emit "serve_p99_kcyc" "kcyc" "worst per-class p99 at 1 req/kcyc over both heaps"
      (fi serve_p99 /. 1000.);
    emit ~better:"higher" "serve_goodput_rpk" "req/kcyc"
      "highest fixed rate with p99 <= 200 kcyc, all done, achieved >= 0.9 offered" goodput;
    emit ~better:"higher" "serve_req_per_s" "1/s" "completed requests / serve wall, per pass"
      serve_req_per_s;
    emit "failed_ratio" "ratio" "failed runs and requests / attempted"
      (ratio (fi !failed) (fi !attempted));
    emit "host.raw_wall_s" "s" "host seconds per pass as measured, median" raw_wall_s;
    emit "host.raw_setup_s" "s" "host seconds of set-up as measured, median" raw_setup_s;
    emit "host.ref_kernel_ms" "ms" "reference kernel time before each job, median"
      (1000. *. Stat.median (List.map pass_ref untraced));
    let traced_wall = Stat.median (List.map pass_wall traced_passes) in
    emit "trace.overhead_x" "x" "traced pass wall / untraced pass wall, medians"
      (ratio traced_wall raw_wall_s);
    (* Per-layer shares of host time, summed over the traced pass. *)
    let agg = Hashtbl.create 8 in
    List.iter
      (fun r ->
        List.iter
          (fun (k, v) ->
            Hashtbl.replace agg k
              ((v *. r.W.wall) +. Option.value ~default:0. (Hashtbl.find_opt agg k)))
          (shares l r))
      tp.rows;
    List.iter
      (fun k ->
        emit ("share." ^ k) "ratio" "layer count x its ns/op, over the traced pass wall"
          (ratio (Option.value ~default:0. (Hashtbl.find_opt agg k)) (pass_wall tp)))
      [ "runtime"; "ops"; "cache"; "heap"; "obs"; "other" ]
  end;
  stop_workload [];
  let ms = List.rev !metrics in
  (* Human-readable report. *)
  Printf.printf "perfbench %s  seed=%d  seconds=%d  trace=%d\n" w.W.name !seed !seconds !trace;
  Printf.printf "  workload: %s\n" w.W.why;
  Printf.printf "  host: %s\n"
    (String.concat "  " (List.map (fun (k, v) -> k ^ "=" ^ v) (fingerprint ())));
  let q1, med, q3 = Stat.quantiles walls in
  Printf.printf "  %d timed passes: raw wall median %.4f s  quartiles %.4f .. %.4f s\n"
    (List.length untraced) med q1 q3;
  let q1, med, q3 = Stat.quantiles (List.map pass_cal untraced) in
  Printf.printf "  at reference speed: median %.4f s  quartiles %.4f .. %.4f s\n" med q1 q3;
  Printf.printf "  pass walls: %s\n"
    (String.concat " " (List.map (fun p -> Printf.sprintf "%.3f" (pass_wall p)) untraced));
  Printf.printf "  reference kernel: median %.3f ms per call (nominal %.0f ms)\n"
    (1000. *. Stat.median (List.map pass_ref untraced)) (1000. *. Calib.nominal_s);
  Printf.printf "  %-22s %10s %10s %10s %14s %12s\n" "row" "median s" "q1 s" "q3 s" "sim cycles"
    "events";
  let row_lines =
    List.map
      (fun (r : W.row) ->
        let q1, m, q3 = Stat.quantiles (row_walls r.W.job) in
        Printf.printf "  %-22s %10.4f %10.4f %10.4f %14d %12d\n" r.W.job.W.label m q1 q3
          r.W.res.W.cycles (W.events r.W.res);
        Printf.sprintf
          "{\"row\":%S,\"wall_s\":%s,\"q1\":%s,\"q3\":%s,\"sim_cycles\":%d,\"events\":%d,\"minor_words\":%s,\"spans\":%d}"
          r.W.job.W.label (json_float m) (json_float q1) (json_float q3)
          r.W.res.W.cycles (W.events r.W.res) (json_float r.W.minor_words) r.W.res.W.spans)
      rows_of_first
  in
  List.iter
    (fun (n, s, p) -> Printf.printf "  table2 %-11s speedup %.2f  paper %.2f\n" n s p)
    tables;
  if serves <> [] then
    List.iter
      (fun s ->
        Printf.printf "  serve %-7s @%-4g admitted %d completed %d achieved %.3f  p99 %s  max %s\n"
          s.W.heap s.W.rate s.W.admitted s.W.completed s.W.achieved
          (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) s.W.p99))
          (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) s.W.max)))
      serves;
  if not traced then begin
    Printf.printf "  obs_overhead_x %.4f  spans_kept %d  serve_p99_kcyc %.3f  serve_goodput_rpk %g  serve_req_per_s %.1f  failed_ratio %g\n"
      obs_overhead spans_kept (fi serve_p99 /. 1000.) goodput serve_req_per_s
      (ratio (fi !failed) (fi !attempted))
  end
  else
    Printf.printf "  per-row share of host time (traced pass; other = unexplained):\n";
  let share_rows =
    match traced_passes with
    | [] -> []
    | tp :: _ ->
        let layer_of name = List.assoc name (List.map (fun m -> (m.name, m.value)) ms) in
        List.map (fun (r : W.row) -> (r.W.job.W.label, shares layer_of r)) tp.rows
  in
  List.iter
    (fun (label, parts) ->
      Printf.printf "  %-22s %s\n" label
        (String.concat "  " (List.map (fun (k, v) -> Printf.sprintf "%s %.3f" k v) parts)))
    share_rows;
  List.iter
    (fun m -> Printf.printf "  %-36s %18s %-8s %-6s (%s)\n" m.name (json_float m.value) m.unit_ m.better m.base)
    ms;
  List.iter (fun f -> Printf.printf "  CHECK FAILED: %s\n" f) failures;
  if !report_file <> "" then
    write_file !report_file
      (report_json ~w ~seeds ~passes:untraced ~traced_passes ~ms ~correct ~attempted:!attempted ~failed:!failed
         ~failures ~tables ~row_lines ~share_rows);
  if !spans_file <> "" then write_file !spans_file (Tracer.to_jsonl ());
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n" correct
    (max 1 !attempted) !failed (json_metrics ms);
  exit (if correct then 0 else 1)

let () = main ()
