(* Driver: run Olden benchmarks on the simulated machine and regenerate the
   paper's tables and figures.  Subcommands:

     list          List the benchmarks.
     bench         Run one benchmark once and print its statistics.
     monitor       Run one benchmark with the simulated-time monitor on:
                   interval time-series (JSONL/CSV) + latency quantiles.
     serve         Open-system serving: seeded arrival streams against a
                   persistent heap; throughput, p50/p99/p999 per request
                   class, optional offered-load sweep to the knee.
     trace         Run with event tracing on; print/export the stream.
     spans         Run with causal span tracing on; export olden-spans/v2
                   JSONL and/or Chrome trace JSON with flow arrows.
     explain       Reconstruct and pretty-print the causal chain of the
                   worst-latency dereference episodes (tail exemplars).
     chaos         Sweep fault schedules; every run must verify.
     recovery      Run under a crash schedule; report warm-restart work.
     failover      Run under a fail-stop schedule with home replication;
                   report per-victim promotion work.
     hostperf      Measure the simulator's own host-side throughput.
     profile       Per-site dereference profile (folded stacks output).
     critical-path Longest dependency chain through the run.
     diff          Compare metrics/table/latency snapshots (CI gate).
     speedups      Sequential baseline plus speedups on 1..32 processors.
     table1 | table2 | table3 | fig2 | fig3 | fig4 | fig5 | defaults

   Examples:

     olden-run bench treeadd --procs 32 --scale 8 --coherence local
     olden-run monitor health --procs 8 --interval 50000 --out ts.jsonl
     olden-run monitor power --faults crash-mix --all-schemes
     olden-run diff bench/baseline_table2.json BENCH_table2.json --tolerance 0
*)

open Cmdliner
module C = Olden_config
module B = Olden_benchmarks
module Profile = Olden_profile

let ppf = Format.std_formatter

(* --- Common options ----------------------------------------------------- *)

(* --procs is validated by hand, like --domains below: a count the
   machine cannot hold is a one-line usage error (exit 2), not a crash
   part-way through the run. *)
let check_procs n =
  if n < 1 || n > C.max_nprocs then begin
    Format.eprintf "olden-run: --procs must be between 1 and %d (got %d)@."
      C.max_nprocs n;
    exit 2
  end;
  n

let procs_arg ?(doc = "Processor count.") default =
  Term.(
    const check_procs
    $ Arg.(value & opt int default & info [ "p"; "procs" ] ~docv:"P" ~doc))

let procs_t = procs_arg 32

let scale_t =
  Arg.(
    value & opt int 0
    & info [ "s"; "scale" ] ~docv:"S"
        ~doc:"Problem-size divisor (0 = the benchmark's default).")

let coherence_t =
  let parse s =
    match C.coherence_of_string s with
    | Some c -> Ok c
    | None -> Error (`Msg "expected local, global, or bilateral")
  in
  let print ppf c = Format.pp_print_string ppf (C.coherence_to_string c) in
  Arg.(
    value
    & opt (conv (parse, print)) C.Local
    & info [ "c"; "coherence" ] ~docv:"SCHEME"
        ~doc:"Coherence scheme: local, global, or bilateral.")

let policy_t =
  let parse s =
    match C.policy_of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg "expected heuristic, migrate-only, or cache-only")
  in
  let print ppf p = Format.pp_print_string ppf (C.policy_to_string p) in
  Arg.(
    value
    & opt (conv (parse, print)) C.Heuristic
    & info [ "m"; "policy" ] ~docv:"POLICY"
        ~doc:"Mechanism policy: heuristic, migrate-only, or cache-only.")

let domains_t =
  Arg.(
    value & opt int 1
    & info [ "d"; "domains" ] ~docv:"N"
        ~doc:
          "Host OCaml domains for sweep subcommands (chaos, hostperf, \
           serve --sweep): sizes the domain pool that runs independent \
           points concurrently.  Results are byte-identical for any \
           value.")

(* --domains is validated by hand (not via cmdliner's parser) so every
   subcommand shares the one usage-error path: message on stderr, exit 2. *)
let check_domains n =
  if n < 1 then begin
    Format.eprintf "olden-run: --domains must be at least 1 (got %d)@." n;
    exit 2
  end;
  n

let faults_name_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"SCHEDULE"
        ~doc:
          "Inject deterministic network faults: one of drop, delay, dup, \
           outage, flaky-home, mix, crash, crash-mix, failstop, or \
           failstop-mix (see docs/ROBUSTNESS.md).")

let fault_seed_t =
  Arg.(
    value & opt int 1
    & info [ "fault-seed" ] ~docv:"SEED"
        ~doc:"Seed of the fault schedule (same seed = same faults).")

let faults_of ~name ~seed =
  Option.map
    (fun n ->
      match C.Faults.by_name n ~seed with
      | Some f -> f
      | None ->
          Format.eprintf "unknown fault schedule %s; try one of: %s@." n
            (String.concat ", " C.Faults.names);
          exit 2)
    name

(* A fail-stop schedule is only survivable with home-page replication:
   named schedules carrying a death probability imply the default
   replica spec (stride 1, resident threads covered). *)
let replication_for faults =
  match faults with
  | Some f when f.C.failstop > 0. -> Some C.default_replica
  | _ -> None

let name_t =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCHMARK")

let find_spec name =
  match B.Registry.find name with
  | Some s -> s
  | None ->
      Format.eprintf "unknown benchmark %s; try: olden-run list@." name;
      exit 2

(* --- Commands ------------------------------------------------------------ *)

let list_cmd =
  let run () =
    List.iter
      (fun (s : B.Common.spec) ->
        Format.printf "%-11s %-6s %-18s %s@." s.B.Common.name s.B.Common.choice
          s.B.Common.problem s.B.Common.descr)
      B.Registry.specs
  in
  Cmd.v (Cmd.info "list" ~doc:"List the benchmarks.") Term.(const run $ const ())

let sites_t =
  Arg.(
    value & flag
    & info [ "sites" ] ~doc:"Print the per-site traffic profile.")

(* --- Trace / metrics output --------------------------------------------- *)

let trace_file_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write the run's event stream as Chrome trace_event JSON \
           (load in Perfetto or chrome://tracing).")

let jsonl_file_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-jsonl" ] ~docv:"FILE"
        ~doc:"Write the run's event stream as JSON Lines, one event per line.")

let metrics_file_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-json" ] ~docv:"FILE"
        ~doc:
          "Write a machine-readable metrics snapshot (olden-metrics/v1): \
           Stats counters plus per-processor and per-site breakdowns and \
           event-derived histograms.")

let with_out file f =
  let oc =
    try open_out file
    with Sys_error msg ->
      Format.eprintf "olden-run: cannot write output file (%s)@." msg;
      exit 2
  in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

(* Run one benchmark with the trace collector installed when any output
   asks for events; returns the outcome and the (possibly empty) stream. *)
let run_collected (spec : B.Common.spec) cfg ~scale ~want_events =
  (B.Common.hooks ()).record_trace <- want_events;
  Olden_runtime.Site.reset_profiles ();
  let o = spec.B.Common.run cfg ~scale in
  (B.Common.hooks ()).record_trace <- false;
  let events =
    if want_events then Option.value ~default:[||] (B.Common.hooks ()).last_trace
    else [||]
  in
  (o, events)

let write_trace_outputs ~procs ~events ~trace_file ~jsonl_file ~metrics_file
    mk_snapshot =
  Option.iter
    (fun file ->
      with_out file (fun oc ->
          Olden_trace.Chrome_trace.write oc ~nprocs:procs events);
      Format.printf "trace: %s (%d events, Chrome trace_event JSON)@." file
        (Array.length events))
    trace_file;
  Option.iter
    (fun file ->
      with_out file (fun oc -> Olden_trace.Jsonl.write oc events);
      Format.printf "trace: %s (%d events, JSONL)@." file
        (Array.length events))
    jsonl_file;
  Option.iter
    (fun file ->
      with_out file (fun oc ->
          output_string oc
            (Olden_trace.Json.to_pretty_string (mk_snapshot events)));
      Format.printf "metrics: %s@." file)
    metrics_file

let timeline_t =
  Arg.(
    value & flag
    & info [ "t"; "timeline" ]
        ~doc:"Render a text Gantt chart of processor activity.")

let bench_cmd =
  let run name procs scale coherence policy timeline sites trace_file
      jsonl_file metrics_file faults_name fault_seed =
    let spec = find_spec name in
    let scale = if scale = 0 then spec.B.Common.default_scale else scale in
    let faults = faults_of ~name:faults_name ~seed:fault_seed in
    let cfg =
      C.make ~nprocs:procs ~coherence ~policy ?faults
        ?replication:(replication_for faults) ()
    in
    (B.Common.hooks ()).record_timeline <- timeline;
    let want_events =
      Option.is_some trace_file || Option.is_some jsonl_file
      || Option.is_some metrics_file
    in
    let o, events = run_collected spec cfg ~scale ~want_events in
    (B.Common.hooks ()).record_timeline <- false;
    Format.printf "%s on %d processor(s), scale 1/%d, %s coherence, %s policy@."
      spec.B.Common.name procs scale
      (C.coherence_to_string coherence)
      (C.policy_to_string policy);
    Option.iter
      (fun f -> Format.printf "faults: %s@." (C.Faults.to_string f))
      faults;
    Format.printf "result: %s (%s)@." o.B.Common.checksum
      (if o.B.Common.ok then "verified" else "VERIFICATION FAILED");
    Format.printf "cycles: total %s, measured region %s@."
      (B.Common.commas o.B.Common.total_cycles)
      (B.Common.commas (B.Common.measured_cycles spec o));
    Format.printf "%a@." Stats.pp (B.Common.measured_stats spec o);
    (match (timeline, (B.Common.hooks ()).last_timeline) with
    | true, Some chart -> Format.printf "%s" chart
    | _ -> ());
    if sites then begin
      Format.printf "per-site profile (busiest first):@.";
      List.iter
        (fun s -> Format.printf "  %a@." Olden_runtime.Site.pp_profile s)
        (Olden_runtime.Site.profile ())
    end;
    write_trace_outputs ~procs ~events ~trace_file ~jsonl_file ~metrics_file
      (fun events -> B.Common.metrics_snapshot ~events spec ~cfg ~scale o);
    if not o.B.Common.ok then exit 1
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"Run one benchmark once and print its statistics.")
    Term.(
      const run $ name_t $ procs_t $ scale_t $ coherence_t $ policy_t
      $ timeline_t $ sites_t $ trace_file_t $ jsonl_file_t $ metrics_file_t
      $ faults_name_t $ fault_seed_t)

let head_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "head" ] ~docv:"N"
        ~doc:"Also print the first $(docv) raw events.")

let trace_cmd =
  let run name procs scale coherence policy trace_file jsonl_file metrics_file
      head =
    let spec = find_spec name in
    let scale = if scale = 0 then spec.B.Common.default_scale else scale in
    let cfg = C.make ~nprocs:procs ~coherence ~policy () in
    let o, events = run_collected spec cfg ~scale ~want_events:true in
    Format.printf "%s on %d processor(s), scale 1/%d, %s coherence, %s policy@."
      spec.B.Common.name procs scale
      (C.coherence_to_string coherence)
      (C.policy_to_string policy);
    Format.printf "result: %s (%s)@." o.B.Common.checksum
      (if o.B.Common.ok then "verified" else "VERIFICATION FAILED");
    Format.printf "%a"
      (fun ppf -> Olden_trace.Summary.pp ~site_name:B.Common.site_name ?head ppf)
      events;
    write_trace_outputs ~procs ~events ~trace_file ~jsonl_file ~metrics_file
      (fun events -> B.Common.metrics_snapshot ~events spec ~cfg ~scale o);
    if not o.B.Common.ok then exit 1
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run one benchmark with event tracing on and print a digest of the \
          stream; --trace/--trace-jsonl/--metrics-json write exporter files.")
    Term.(
      const run $ name_t $ procs_t $ scale_t $ coherence_t $ policy_t
      $ trace_file_t $ jsonl_file_t $ metrics_file_t $ head_t)

(* --- Profiler subcommands ------------------------------------------------ *)

let header spec ~procs ~scale ~coherence ~policy (o : B.Common.outcome) =
  Format.printf "%s on %d processor(s), scale 1/%d, %s coherence, %s policy@."
    spec.B.Common.name procs scale
    (C.coherence_to_string coherence)
    (C.policy_to_string policy);
  Format.printf "result: %s (%s)@." o.B.Common.checksum
    (if o.B.Common.ok then "verified" else "VERIFICATION FAILED")

(* The profiler's reconciliation: the machine's accounting identity
   (busy + comm + idle = nprocs x makespan, exact by construction), then
   the event-derived site attribution checked against it — cache and
   revalidation stalls must equal the machine's measured comm time
   (exactly, when handler contention is off), and migration in-flight
   time is reported with its restart-busy overlap called out. *)
let pp_reconciliation ppf ~(cfg : C.t) ~makespan entries =
  let busy = Array.fold_left ( + ) 0 (B.Common.hooks ()).last_busy in
  let comm = Array.fold_left ( + ) 0 (B.Common.hooks ()).last_comm in
  let nprocs = cfg.C.nprocs in
  let total = nprocs * makespan in
  let idle = total - busy - comm in
  let pct c =
    if total = 0 then 0. else 100. *. float_of_int c /. float_of_int total
  in
  Format.fprintf ppf
    "accounting: busy %d (%.1f%%) + comm %d (%.1f%%) + idle %d (%.1f%%) = %d \
     = %d procs x makespan %d@."
    busy (pct busy) comm (pct comm) idle (pct idle) (busy + comm + idle)
    nprocs makespan;
  let stall_attributed =
    List.fold_left
      (fun a (e : Profile.Attribution.entry) ->
        a + e.Profile.Attribution.miss_cycles
        + e.Profile.Attribution.revalidate_cycles)
      0 entries
  in
  let inflight, restart_busy =
    List.fold_left
      (fun (infl, busy) (e : Profile.Attribution.entry) ->
        ( infl + e.Profile.Attribution.migration_cycles
          + e.Profile.Attribution.return_cycles,
          busy
          + (e.Profile.Attribution.migrations * cfg.C.costs.C.migrate_recv)
          + (e.Profile.Attribution.returns * cfg.C.costs.C.return_recv) ))
      (0, 0) entries
  in
  Format.fprintf ppf
    "attributed: %d cache/revalidate stall cycles (machine comm: %d), %d \
     migration/return in-flight cycles (of which %d restart-busy)@."
    stall_attributed comm inflight restart_busy;
  Format.fprintf ppf "attributed total: %d cycles = %.1f%% of %d procs x \
                      makespan@."
    (Profile.Attribution.grand_total entries)
    (pct (Profile.Attribution.grand_total entries))
    nprocs

let folded_file_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "folded" ] ~docv:"FILE"
        ~doc:
          "Write folded stacks (flamegraph-collapsed format: \
           \"benchmark;site;component cycles\" per line) to $(docv).")

let top_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "top" ] ~docv:"N" ~doc:"Only print the $(docv) busiest sites.")

let profile_cmd =
  let run name procs scale coherence policy folded top =
    let spec = find_spec name in
    let scale = if scale = 0 then spec.B.Common.default_scale else scale in
    let cfg = C.make ~nprocs:procs ~coherence ~policy () in
    let o, events = run_collected spec cfg ~scale ~want_events:true in
    header spec ~procs ~scale ~coherence ~policy o;
    let entries =
      Profile.Attribution.of_events ~site_name:B.Common.site_name
        ~costs:cfg.C.costs events
    in
    Format.printf "per-site cost attribution (busiest first):@.";
    let shown =
      match top with
      | Some n -> List.filteri (fun i _ -> i < n) entries
      | None -> entries
    in
    Format.printf "%a" Profile.Attribution.pp_table shown;
    pp_reconciliation Format.std_formatter ~cfg ~makespan:o.B.Common.total_cycles
      entries;
    Option.iter
      (fun file ->
        with_out file (fun oc ->
            output_string oc
              (Profile.Attribution.folded ~prefix:spec.B.Common.name entries));
        Format.printf "folded stacks: %s@." file)
      folded;
    if not o.B.Common.ok then exit 1
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run one benchmark with tracing on and print the per-dereference-site \
          cost attribution: migration latency, cache-miss stalls, and \
          return-stub overhead charged back to the sites that caused them, \
          reconciled against the machine's makespan accounting.")
    Term.(
      const run $ name_t $ procs_t $ scale_t $ coherence_t $ policy_t
      $ folded_file_t $ top_t)

let tail_t =
  Arg.(
    value & opt int 12
    & info [ "tail" ] ~docv:"N"
        ~doc:"Print the last $(docv) hops of the critical path (0: none).")

let critical_path_cmd =
  let run name procs scale coherence policy tail =
    let spec = find_spec name in
    let scale = if scale = 0 then spec.B.Common.default_scale else scale in
    let cfg = C.make ~nprocs:procs ~coherence ~policy () in
    let o, events = run_collected spec cfg ~scale ~want_events:true in
    header spec ~procs ~scale ~coherence ~policy o;
    let cp = Profile.Critical_path.analyze events in
    Format.printf "%a"
      (Profile.Critical_path.pp ~site_name:B.Common.site_name ~tail)
      cp;
    let makespan = o.B.Common.total_cycles in
    Format.printf "per-processor breakdown:@.";
    Format.printf "%a"
      (fun ppf rows -> Profile.Critical_path.pp_breakdown ppf ~makespan rows)
      (Profile.Critical_path.breakdown
         ~recovery:(B.Common.hooks ()).last_recovery_stall ~makespan
         ~busy:(B.Common.hooks ()).last_busy ~comm:(B.Common.hooks ()).last_comm ());
    if not o.B.Common.ok then exit 1
  in
  Cmd.v
    (Cmd.info "critical-path"
       ~doc:
         "Run one benchmark with tracing on and analyze the \
          migration/future/steal dependency DAG: the longest chain, its \
          mechanism breakdown, a what-if bound (makespan were migrations \
          free), and per-processor busy/comm/idle accounting.")
    Term.(
      const run $ name_t $ procs_t $ scale_t $ coherence_t $ policy_t $ tail_t)

let tolerance_t =
  Arg.(
    value & opt float 5.0
    & info [ "tolerance" ] ~docv:"PERCENT"
        ~doc:
          "Relative slowdown allowed on the gated cycle metrics before a \
           benchmark counts as regressed.")

let warn_only_t =
  Arg.(
    value & flag
    & info [ "warn-only" ]
        ~doc:"Print regressions but exit 0 anyway (CI pull-request mode).")

let diff_cmd =
  let run base current tolerance warn_only =
    match
      Profile.Snapshot_diff.compare_files ~tolerance:(tolerance /. 100.) ~base
        ~current
    with
    | Error msg ->
        Format.eprintf "olden-run diff: %s@." msg;
        exit 2
    | Ok report ->
        Format.printf "%a" Profile.Snapshot_diff.pp report;
        let failed =
          Profile.Snapshot_diff.regressions report <> []
          || report.Profile.Snapshot_diff.missing <> []
        in
        if failed && not warn_only then exit 1
  in
  let base_t =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"BASELINE")
  in
  let current_t =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"CURRENT")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two metrics snapshots (olden-metrics/v1 or the \
          BENCH_table2.json table) and exit non-zero when a benchmark's \
          cycles regressed beyond the tolerance or its verification broke.")
    Term.(const run $ base_t $ current_t $ tolerance_t $ warn_only_t)

let hostperf_procs_t =
  procs_arg ~doc:"Processor count (the suite's committed baseline uses 8)." 8

let hostperf_cmd =
  let run procs repeats out baseline domains =
    let domains = check_domains domains in
    let report = B.Hostperf.run ~nprocs:procs ~repeats ~domains () in
    Format.printf "%a" B.Hostperf.pp report;
    Option.iter
      (fun file ->
        with_out file (fun oc ->
            output_string oc
              (Olden_trace.Json.to_pretty_string (B.Hostperf.to_json report)));
        Format.printf "host throughput: %s@." file)
      out;
    (* Comparison is advisory by contract: host timing is too noisy to
       gate on, so a slow run warns and still exits 0. *)
    Option.iter
      (fun file ->
        match B.Hostperf.of_file file with
        | Error msg -> Format.eprintf "olden-run hostperf: %s@." msg
        | Ok base ->
            Format.printf "%a" (fun ppf -> B.Hostperf.pp_comparison ppf ~baseline:base)
              report)
      baseline;
    if List.exists (fun (r : B.Hostperf.row) -> not r.B.Hostperf.verified)
         report.B.Hostperf.rows
    then exit 1
  in
  let repeats_t =
    Arg.(
      value & opt int 3
      & info [ "r"; "repeats" ] ~docv:"N"
          ~doc:"Runs per benchmark; the best (minimum) time is reported.")
  in
  let out_t =
    Arg.(
      value
      & opt (some string) (Some "BENCH_hostperf.json")
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the olden-hostperf/v1 JSON report to $(docv).")
  in
  let baseline_t =
    Arg.(
      value
      & opt (some file) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Also print a warn-only wall-clock comparison against a \
             committed hostperf snapshot (never fails: host noise).")
  in
  Cmd.v
    (Cmd.info "hostperf"
       ~doc:
         "Measure the simulator's own host-side throughput over the Table-2 \
          suite: wall-clock per benchmark, simulated cycles/sec and \
          events/sec; writes BENCH_hostperf.json.  Run under dune's release \
          profile for representative numbers.")
    Term.(
      const run $ hostperf_procs_t $ repeats_t $ out_t $ baseline_t
      $ domains_t)

(* --- Chaos harness ------------------------------------------------------- *)

module Check = Olden_check.Invariants

(* One benchmark under one fault schedule: run fault-free first for the
   reference heap digest and checksum, then the faulty runs; each must
   complete, verify, produce the same checksum, pass every invariant, and
   end with the reference heap.

   The matrix runs on a domain pool (--domains): references first (each
   benchmark one point), then every (benchmark, schedule, seed) point as
   an independent job.  All printing happens after the sweeps from
   results in submission order, so stdout is byte-identical for any pool
   size; the pool's own timing summary goes to stderr. *)
let chaos_cmd =
  let run names procs scale schedules seeds coherence policy domains =
    let domains = check_domains domains in
    let specs =
      match names with [] -> B.Registry.specs | names -> List.map find_spec names
    in
    let schedules =
      String.split_on_char ',' schedules
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
    in
    (* resolve schedule names before a long sweep, so typos fail fast *)
    List.iter
      (fun s -> ignore (faults_of ~name:(Some s) ~seed:1))
      schedules;
    let scale_of (spec : B.Common.spec) =
      if scale = 0 then spec.B.Common.default_scale else scale
    in
    (* Phase 1: fault-free references. *)
    let ref_job ~label:_ (spec : B.Common.spec) =
      let cfg = C.make ~nprocs:procs ~coherence ~policy () in
      let digest = ref "" in
      let violations = ref [] in
      (B.Common.hooks ()).inspect_engine <-
        Some
          (fun e ->
            digest := Check.heap_digest e;
            violations := Check.check e);
      Olden_runtime.Site.reset_profiles ();
      let o =
        Fun.protect
          ~finally:(fun () -> (B.Common.hooks ()).inspect_engine <- None)
          (fun () -> spec.B.Common.run cfg ~scale:(scale_of spec))
      in
      let violations =
        List.map
          (fun v -> Format.asprintf "%a" Check.pp_violation v)
          !violations
      in
      (o, !digest, violations)
    in
    let refs, _ =
      Olden.Sweep.run ~domains ref_job
        (List.map
           (fun (spec : B.Common.spec) -> (spec.B.Common.name, spec))
           specs)
    in
    let refs =
      List.map2
        (fun spec (p : _ Olden.Sweep.point) -> (spec, p.Olden.Sweep.value))
        specs refs
    in
    (* Phase 2: the faulty matrix, one pool job per point.  Jobs catch
       their own exceptions (a wedged run is a result, not an abort). *)
    let faulty_job ~label:_ ((spec : B.Common.spec), ref_digest, sched, seed) =
      let faults = Option.get (C.Faults.by_name sched ~seed) in
      let cfg =
        C.make ~nprocs:procs ~coherence ~policy ~faults
          ?replication:(replication_for (Some faults)) ()
      in
      (* each faulty run gets its own flight-recorder path, so a
         failure's post-mortem names the run that produced it *)
      let flight_path =
        Printf.sprintf "flight-%s-%s-%d.dump" spec.B.Common.name sched seed
      in
      (B.Common.hooks ()).flight_path <- flight_path;
      let violations = ref [] in
      let expected_heap =
        if spec.B.Common.heap_stable then Some ref_digest else None
      in
      (B.Common.hooks ()).inspect_engine <-
        Some (fun e -> violations := Check.check ?expected_heap e);
      Olden_runtime.Site.reset_profiles ();
      match
        Fun.protect
          ~finally:(fun () -> (B.Common.hooks ()).inspect_engine <- None)
          (fun () -> spec.B.Common.run cfg ~scale:(scale_of spec))
      with
      | exception e ->
          (* the engine dumped the recorder (with machine state) before
             the failure escaped; a deadlock's message names the path *)
          let flight =
            match e with
            | Olden_runtime.Engine.Deadlock _ -> None
            | _ -> Some flight_path
          in
          Error (Printexc.to_string e, flight)
      | o ->
          Ok
            ( o,
              List.map
                (fun v -> Format.asprintf "%a" Check.pp_violation v)
                !violations )
    in
    let faulty_points =
      List.concat_map
        (fun ((spec : B.Common.spec), (_, digest, _)) ->
          List.concat_map
            (fun sched ->
              List.init seeds (fun i ->
                  let seed = i + 1 in
                  ( Printf.sprintf "%s/%s/seed=%d" spec.B.Common.name sched
                      seed,
                    (spec, digest, sched, seed) )))
            schedules)
        refs
    in
    let faulty, pool = Olden.Sweep.run ~domains faulty_job faulty_points in
    (* Reporting, in submission order. *)
    let runs = ref 0 and failures = ref 0 in
    let fail fmt =
      Format.kasprintf
        (fun msg ->
          incr failures;
          Format.printf "    FAILED: %s@." msg)
        fmt
    in
    let remaining = ref faulty in
    let next () =
      match !remaining with
      | [] -> assert false
      | p :: tl ->
          remaining := tl;
          (p : _ Olden.Sweep.point).Olden.Sweep.value
    in
    List.iter
      (fun ((spec : B.Common.spec), (ref_o, _, ref_violations)) ->
        Format.printf "%s (%d procs, scale 1/%d): fault-free %s cycles@."
          spec.B.Common.name procs (scale_of spec)
          (B.Common.commas ref_o.B.Common.total_cycles);
        if not ref_o.B.Common.ok then
          fail "fault-free run failed verification";
        List.iter (fun v -> fail "fault-free run: %s" v) ref_violations;
        List.iter
          (fun sched ->
            for seed = 1 to seeds do
              incr runs;
              match next () with
              | Error (msg, flight) ->
                  Format.printf "  %-10s seed=%d wedged@." sched seed;
                  Option.iter
                    (fun path ->
                      Format.printf "    flight recorder: %s@." path)
                    flight;
                  fail "%s" msg
              | Ok (o, violations) ->
                  let s = o.B.Common.total_stats in
                  Format.printf
                    "  %-10s seed=%d %s cycles drops=%d delays=%d dups=%d \
                     retries=%d fallbacks=%d crashes=%d failstops=%d@."
                    sched seed
                    (B.Common.commas o.B.Common.total_cycles)
                    s.Stats.msg_drops s.Stats.msg_delays s.Stats.msg_duplicates
                    s.Stats.retries s.Stats.migration_fallbacks s.Stats.crashes
                    s.Stats.failstops;
                  if not o.B.Common.ok then fail "verification failed";
                  if not (String.equal o.B.Common.checksum ref_o.B.Common.checksum)
                  then
                    fail "checksum %s differs from fault-free %s"
                      o.B.Common.checksum ref_o.B.Common.checksum;
                  List.iter (fun v -> fail "%s" v) violations
            done)
          schedules)
      refs;
    Format.printf "chaos: %d faulty run(s), %d failure(s)@." !runs !failures;
    if domains > 1 then Format.eprintf "%a@." Olden.Sweep.pp_stats pool;
    if !failures > 0 then exit 1
  in
  let names_t = Arg.(value & pos_all string [] & info [] ~docv:"BENCHMARK") in
  let chaos_procs_t = procs_arg 8 in
  let schedules_t =
    Arg.(
      value
      & opt string "drop,delay,dup"
      & info [ "schedules" ] ~docv:"LIST"
          ~doc:
            "Comma-separated fault schedules to sweep (drop, delay, dup, \
             outage, flaky-home, mix, crash, crash-mix, failstop, \
             failstop-mix).")
  in
  let seeds_t =
    Arg.(
      value & opt int 2
      & info [ "seeds" ] ~docv:"N" ~doc:"Fault seeds per schedule (1..N).")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Sweep fault schedules over the benchmarks (default: all of Table \
          2): each faulty run must complete, verify, reproduce the \
          fault-free checksum and final heap, and pass the coherence \
          invariant checker.")
    Term.(
      const run $ names_t $ chaos_procs_t $ scale_t $ schedules_t $ seeds_t
      $ coherence_t $ policy_t $ domains_t)

(* Shared JSON envelope of the recovery and failover reports
   (olden-recovery/v1): the archivable form chaos CI uploads instead of
   scraping stdout.  [totals] and [rows] are kind-specific. *)
let recovery_report_json ~kind ~(spec : B.Common.spec) ~procs ~scale
    ~coherence ~faults ~totals ~rows =
  Olden.Json.Obj
    [
      ("schema", Olden.Json.String "olden-recovery/v1");
      ("kind", Olden.Json.String kind);
      ("benchmark", Olden.Json.String spec.B.Common.name);
      ("procs", Olden.Json.Int procs);
      ("scale", Olden.Json.Int scale);
      ("coherence", Olden.Json.String (C.coherence_to_string coherence));
      ("faults", Olden.Json.String (C.Faults.to_string faults));
      ("totals", Olden.Json.Obj totals);
      ("rows", Olden.Json.List rows);
    ]

let report_out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE"
        ~doc:"Write the report as JSON (olden-recovery/v1).")

(* One benchmark under a crash schedule, reporting the warm-restart work:
   which processors crashed, how much cached state each lost and rebuilt,
   how many recovery announcements went out, and the stall each restart
   cost the victim. *)
let recovery_cmd =
  let run name procs scale coherence policy faults_name fault_seed out =
    let spec = find_spec name in
    let scale = if scale = 0 then spec.B.Common.default_scale else scale in
    let faults =
      match
        faults_of
          ~name:(Some (Option.value faults_name ~default:"crash"))
          ~seed:fault_seed
      with
      | Some f -> f
      | None -> assert false
    in
    if faults.C.crash <= 0. then
      Format.eprintf
        "warning: schedule has no crash probability; try --faults crash@.";
    let cfg =
      C.make ~nprocs:procs ~coherence ~policy ~faults
        ?replication:(replication_for (Some faults)) ()
    in
    let rows = ref [] in
    (B.Common.hooks ()).inspect_engine <-
      Some
        (fun e ->
          match Olden_runtime.Engine.recovery e with
          | Some r -> rows := Olden.Recovery.report r
          | None -> ());
    Olden_runtime.Site.reset_profiles ();
    let o =
      Fun.protect
        ~finally:(fun () -> (B.Common.hooks ()).inspect_engine <- None)
        (fun () -> spec.B.Common.run cfg ~scale)
    in
    header spec ~procs ~scale ~coherence ~policy o;
    Format.printf "faults: %s@." (C.Faults.to_string faults);
    let s = o.B.Common.total_stats in
    Format.printf
      "crashes: %d total, %d cached page(s) lost, %d recovery message(s), \
       %d victim stall cycle(s)@."
      s.Stats.crashes s.Stats.pages_lost_in_crash s.Stats.recovery_messages
      s.Stats.recovery_stall_cycles;
    (match !rows with
    | [] -> Format.printf "no processor crashed under this schedule/seed@."
    | rows ->
        Format.printf "%-5s %8s %11s %14s %11s %12s@." "proc" "crashes"
          "pages-lost" "pages-refetch" "recov-msgs" "stall-cycles";
        List.iter
          (fun (r : Olden.Recovery.proc_report) ->
            Format.printf "p%-4d %8d %11d %14d %11d %12d@."
              r.Olden.Recovery.proc r.Olden.Recovery.crashes
              r.Olden.Recovery.pages_lost r.Olden.Recovery.pages_refetched
              r.Olden.Recovery.recovery_messages
              r.Olden.Recovery.stall_cycles)
          rows);
    Option.iter
      (fun file ->
        let json =
          recovery_report_json ~kind:"recovery" ~spec ~procs ~scale
            ~coherence ~faults
            ~totals:
              [
                ("crashes", Olden.Json.Int s.Stats.crashes);
                ("pages_lost", Olden.Json.Int s.Stats.pages_lost_in_crash);
                ( "recovery_messages",
                  Olden.Json.Int s.Stats.recovery_messages );
                ( "stall_cycles",
                  Olden.Json.Int s.Stats.recovery_stall_cycles );
              ]
            ~rows:
              (List.map
                 (fun (r : Olden.Recovery.proc_report) ->
                   Olden.Json.Obj
                     [
                       ("proc", Olden.Json.Int r.Olden.Recovery.proc);
                       ("crashes", Olden.Json.Int r.Olden.Recovery.crashes);
                       ( "pages_lost",
                         Olden.Json.Int r.Olden.Recovery.pages_lost );
                       ( "pages_refetched",
                         Olden.Json.Int r.Olden.Recovery.pages_refetched );
                       ( "recovery_messages",
                         Olden.Json.Int r.Olden.Recovery.recovery_messages );
                       ( "stall_cycles",
                         Olden.Json.Int r.Olden.Recovery.stall_cycles );
                     ])
                 !rows)
        in
        with_out file (fun oc ->
            output_string oc (Olden.Json.to_pretty_string json));
        Format.printf "report: %s (olden-recovery/v1)@." file)
      out;
    if not o.B.Common.ok then exit 1
  in
  Cmd.v
    (Cmd.info "recovery"
       ~doc:
         "Run one benchmark under a crash schedule (default: crash) and \
          report per-processor warm-restart work: crash counts, cached \
          pages lost and refetched, recovery announcements, and stall \
          cycles.")
    Term.(
      const run $ name_t $ procs_t $ scale_t $ coherence_t $ policy_t
      $ faults_name_t $ fault_seed_t $ report_out_t)

(* One benchmark under a fail-stop schedule with home-page replication,
   reporting the failover work: which processors died and when, which
   backup each promoted, how many home pages moved, and what the
   promotions cost. *)
let failover_cmd =
  let run name procs scale coherence policy faults_name fault_seed out =
    let spec = find_spec name in
    let scale = if scale = 0 then spec.B.Common.default_scale else scale in
    let faults =
      match
        faults_of
          ~name:(Some (Option.value faults_name ~default:"failstop"))
          ~seed:fault_seed
      with
      | Some f -> f
      | None -> assert false
    in
    if faults.C.failstop <= 0. then
      Format.eprintf
        "warning: schedule has no fail-stop probability; try --faults \
         failstop@.";
    let cfg =
      C.make ~nprocs:procs ~coherence ~policy ~faults
        ~replication:C.default_replica ()
    in
    let rows = ref [] in
    (B.Common.hooks ()).inspect_engine <-
      Some
        (fun e ->
          match Olden_runtime.Engine.failover e with
          | Some fo -> rows := Olden.Failover.report fo
          | None -> ());
    Olden_runtime.Site.reset_profiles ();
    let o =
      Fun.protect
        ~finally:(fun () -> (B.Common.hooks ()).inspect_engine <- None)
        (fun () -> spec.B.Common.run cfg ~scale)
    in
    header spec ~procs ~scale ~coherence ~policy o;
    Format.printf "faults: %s@." (C.Faults.to_string faults);
    let s = o.B.Common.total_stats in
    Format.printf
      "fail-stops: %d total, %d home page(s) failed over, %d replica \
       message(s), %d failover message(s), %d thread(s) lost@."
      s.Stats.failstops s.Stats.pages_failed_over s.Stats.replica_messages
      s.Stats.failover_messages s.Stats.threads_lost;
    (match !rows with
    | [] -> Format.printf "no processor died under this schedule/seed@."
    | rows ->
        Format.printf "%-7s %9s %9s %11s %11s %8s %12s %12s@." "victim"
          "died-at" "successor" "pages-moved" "cached-lost" "msgs"
          "threads-lost" "stall-cycles";
        List.iter
          (fun (r : Olden.Failover.proc_report) ->
            Format.printf "p%-6d %9d p%-8d %11d %11d %8d %12d %12d@."
              r.Olden.Failover.victim r.Olden.Failover.died_at
              r.Olden.Failover.successor r.Olden.Failover.pages_failed_over
              r.Olden.Failover.cached_pages_lost r.Olden.Failover.messages
              r.Olden.Failover.threads_lost r.Olden.Failover.stall_cycles)
          rows);
    Option.iter
      (fun file ->
        let json =
          recovery_report_json ~kind:"failover" ~spec ~procs ~scale
            ~coherence ~faults
            ~totals:
              [
                ("failstops", Olden.Json.Int s.Stats.failstops);
                ( "pages_failed_over",
                  Olden.Json.Int s.Stats.pages_failed_over );
                ( "replica_messages",
                  Olden.Json.Int s.Stats.replica_messages );
                ( "failover_messages",
                  Olden.Json.Int s.Stats.failover_messages );
                ("threads_lost", Olden.Json.Int s.Stats.threads_lost);
              ]
            ~rows:
              (List.map
                 (fun (r : Olden.Failover.proc_report) ->
                   Olden.Json.Obj
                     [
                       ("victim", Olden.Json.Int r.Olden.Failover.victim);
                       ("died_at", Olden.Json.Int r.Olden.Failover.died_at);
                       ( "successor",
                         Olden.Json.Int r.Olden.Failover.successor );
                       ( "pages_failed_over",
                         Olden.Json.Int r.Olden.Failover.pages_failed_over );
                       ( "cached_pages_lost",
                         Olden.Json.Int r.Olden.Failover.cached_pages_lost );
                       ("messages", Olden.Json.Int r.Olden.Failover.messages);
                       ( "threads_lost",
                         Olden.Json.Int r.Olden.Failover.threads_lost );
                       ( "stall_cycles",
                         Olden.Json.Int r.Olden.Failover.stall_cycles );
                     ])
                 !rows)
        in
        with_out file (fun oc ->
            output_string oc (Olden.Json.to_pretty_string json));
        Format.printf "report: %s (olden-recovery/v1)@." file)
      out;
    if not o.B.Common.ok then exit 1
  in
  Cmd.v
    (Cmd.info "failover"
       ~doc:
         "Run one benchmark under a fail-stop schedule (default: failstop) \
          with home-page replication and report per-victim failover work: \
          death time, promoted successor, home pages moved, messages, and \
          stall cycles.")
    Term.(
      const run $ name_t $ procs_t $ scale_t $ coherence_t $ policy_t
      $ faults_name_t $ fault_seed_t $ report_out_t)

(* --- Simulated-time monitor ---------------------------------------------- *)

module Mon = Olden.Monitor

(* One monitored run: install the monitor hook around the benchmark and
   hand back the outcome plus the finished (final-window-flushed)
   monitor. *)
let run_monitored (spec : B.Common.spec) cfg ~scale ~interval =
  (B.Common.hooks ()).monitor_interval <- Some interval;
  Olden_runtime.Site.reset_profiles ();
  let o =
    Fun.protect
      ~finally:(fun () -> (B.Common.hooks ()).monitor_interval <- None)
      (fun () -> spec.B.Common.run cfg ~scale)
  in
  match (B.Common.hooks ()).last_monitor with
  | Some m ->
      (B.Common.hooks ()).last_monitor <- None;
      (o, m)
  | None -> assert false

let pp_summary_rows title rows =
  Format.printf "%s@." title;
  Format.printf "  %-14s %10s %12s %9s %9s %9s %9s %11s@." "" "count" "mean"
    "p50" "p90" "p99" "p999" "max";
  List.iter
    (fun (name, (s : Mon.summary)) ->
      Format.printf "  %-14s %10d %12.1f %9d %9d %9d %9d %11d@." name
        s.Mon.count s.Mon.mean s.Mon.p50 s.Mon.p90 s.Mon.p99 s.Mon.p999
        s.Mon.max)
    rows

let monitor_cmd =
  let run name procs scale coherence policy interval out csv_file sites
      all_schemes faults_name fault_seed =
    if interval < 1 then begin
      Format.eprintf "olden-run monitor: --interval must be at least 1@.";
      exit 2
    end;
    let spec = find_spec name in
    let scale = if scale = 0 then spec.B.Common.default_scale else scale in
    let faults = faults_of ~name:faults_name ~seed:fault_seed in
    if all_schemes then begin
      (* the "p99 under faults" view: one monitored run per coherence
         scheme, quantiles side by side *)
      if Option.is_some out || Option.is_some csv_file then
        Format.eprintf
          "note: --out/--csv are ignored with --all-schemes (run a single \
           scheme to export)@.";
      Format.printf
        "%s on %d processor(s), scale 1/%d, %s policy, all schemes@."
        spec.B.Common.name procs scale
        (C.policy_to_string policy);
      Option.iter
        (fun f -> Format.printf "faults: %s@." (C.Faults.to_string f))
        faults;
      Format.printf
        "dereference latency per scheme (simulated cycles, end-to-end):@.";
      Format.printf "  %-10s %-10s %10s %9s %9s %9s %11s@." "scheme" "mech"
        "count" "p50" "p99" "p999" "max";
      let ok = ref true in
      List.iter
        (fun coherence ->
          let cfg =
            C.make ~nprocs:procs ~coherence ~policy ?faults
              ?replication:(replication_for faults) ()
          in
          let o, m = run_monitored spec cfg ~scale ~interval in
          if not o.B.Common.ok then ok := false;
          List.iter
            (fun (mech, (s : Mon.summary)) ->
              Format.printf "  %-10s %-10s %10d %9d %9d %9d %11d@."
                (C.coherence_to_string coherence)
                mech s.Mon.count s.Mon.p50 s.Mon.p99 s.Mon.p999 s.Mon.max)
            (Mon.deref_summaries m))
        [ C.Local; C.Global; C.Bilateral ];
      if not !ok then exit 1
    end
    else begin
      let cfg =
        C.make ~nprocs:procs ~coherence ~policy ?faults
          ?replication:(replication_for faults) ()
      in
      let o, m = run_monitored spec cfg ~scale ~interval in
      header spec ~procs ~scale ~coherence ~policy o;
      Option.iter
        (fun f -> Format.printf "faults: %s@." (C.Faults.to_string f))
        faults;
      Format.printf "monitor: %d window(s) of %s simulated cycles@."
        (List.length (Mon.windows m))
        (B.Common.commas interval);
      pp_summary_rows
        "dereference latency per mechanism (simulated cycles, end-to-end):"
        (Mon.deref_summaries m);
      (match Mon.episode_summaries m with
      | [] -> ()
      | rows -> pp_summary_rows "episode latency:" rows);
      let site_names = Olden_runtime.Site.labels () in
      if sites then begin
        Format.printf "per-site dereference latency (busiest first):@.";
        Mon.site_summaries ~site_names m
        |> List.sort (fun (_, _, _, (a : Mon.summary)) (_, _, _, b) ->
               compare b.Mon.count a.Mon.count)
        |> List.iter (fun (_, label, mech, (s : Mon.summary)) ->
               Format.printf
                 "  %-28s %-9s count=%-8d p50=%-8d p99=%-8d p999=%d@." label
                 mech s.Mon.count s.Mon.p50 s.Mon.p99 s.Mon.p999)
      end;
      let jsonl_header =
        [
          ("benchmark", Olden.Json.String spec.B.Common.name);
          ("choice", Olden.Json.String spec.B.Common.choice);
          ("scale", Olden.Json.Int scale);
          ("coherence", Olden.Json.String (C.coherence_to_string coherence));
          ("policy", Olden.Json.String (C.policy_to_string policy));
          ( "faults",
            match faults with
            | Some f -> Olden.Json.String (C.Faults.to_string f)
            | None -> Olden.Json.Null );
          ("fault_seed", Olden.Json.Int fault_seed);
          ("verified", Olden.Json.Bool o.B.Common.ok);
          ("measured_cycles", Olden.Json.Int (B.Common.measured_cycles spec o));
          ("total_cycles", Olden.Json.Int o.B.Common.total_cycles);
        ]
      in
      Option.iter
        (fun file ->
          with_out file (fun oc ->
              output_string oc
                (Mon.timeseries_jsonl ~site_names ~header:jsonl_header m));
          Format.printf "timeseries: %s (olden-timeseries/v1 JSONL)@." file)
        out;
      Option.iter
        (fun file ->
          with_out file (fun oc -> output_string oc (Mon.csv m));
          Format.printf "timeseries: %s (CSV, one row per window)@." file)
        csv_file;
      if not o.B.Common.ok then exit 1
    end
  in
  let interval_t =
    Arg.(
      value & opt int 50_000
      & info [ "i"; "interval" ] ~docv:"CYCLES"
          ~doc:"Sampling interval in simulated cycles.")
  in
  let out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:
            "Write the interval time-series as olden-timeseries/v1 JSONL \
             (one window per line, windowed deltas, closing latency \
             summary).")
  in
  let csv_file_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:
            "Write the interval time-series as CSV: one row per window, \
             one column per series (every Stats counter, then per-processor \
             busy/comm/idle/recovery-stall).")
  in
  let all_schemes_t =
    Arg.(
      value & flag
      & info [ "all-schemes" ]
          ~doc:
            "Run all three coherence schemes and print their dereference \
             latency quantiles side by side (p99-under-faults comparison).")
  in
  Cmd.v
    (Cmd.info "monitor"
       ~doc:
         "Run one benchmark with the simulated-time monitor on: interval \
          time-series of every counter (JSONL/CSV export) and end-to-end \
          latency histograms with p50/p90/p99/p999 per mechanism, per \
          site, and per episode kind (migrations, returns, retries, crash \
          recoveries).  Deterministic: same seed, byte-identical output.")
    Term.(
      const run $ name_t $ procs_t $ scale_t $ coherence_t $ policy_t
      $ interval_t $ out_t $ csv_file_t $ sites_t $ all_schemes_t
      $ faults_name_t $ fault_seed_t)

(* --- Open-system serving -------------------------------------------------- *)

module Serving = Olden.Serving

let serve_cmd =
  let run heap_arg procs scale profile_name rate duration streams arrival_seed
      mix_str coherence all_schemes policy faults_name fault_seed domains sweep
      out =
    let domains = check_domains domains in
    (* the serving knobs are validated by hand so every bad value leaves
       through the one-line-usage-error path (stderr + exit 2), like the
       other subcommands' hand-checked options *)
    let profile =
      match
        C.Serving.profile_of_string (String.lowercase_ascii profile_name)
      with
      | Some p -> p
      | None ->
          Format.eprintf
            "olden-run serve: unknown --profile %s (expected %s)@."
            profile_name
            (String.concat "|" C.Serving.profile_names);
          exit 2
    in
    if not (rate > 0.) then begin
      Format.eprintf "olden-run serve: --rate must be positive (got %g)@." rate;
      exit 2
    end;
    if duration < 1 then begin
      Format.eprintf
        "olden-run serve: --duration must be at least 1 cycle (got %d)@."
        duration;
      exit 2
    end;
    if streams < 1 then begin
      Format.eprintf
        "olden-run serve: --streams must be at least 1 (got %d)@." streams;
      exit 2
    end;
    let mix =
      match Serving.mix_of_string mix_str with
      | Ok m -> m
      | Error e ->
          Format.eprintf "olden-run serve: %s@." e;
          exit 2
    in
    let heaps =
      match heap_arg with
      | None -> Serving.all_heaps
      | Some h -> (
          match Serving.heap_of_string h with
          | Some h -> [ h ]
          | None ->
              Format.eprintf
                "olden-run serve: unknown heap %s (expected %s)@." h
                (String.concat "|" Serving.heap_names);
              exit 2)
    in
    let faults = faults_of ~name:faults_name ~seed:fault_seed in
    let spec =
      C.Serving.make ~profile ~rate ~duration ~streams ~arrival_seed ()
    in
    let schemes =
      if all_schemes then [ C.Local; C.Global; C.Bilateral ] else [ coherence ]
    in
    let scale = if scale = 0 then 64 else scale in
    Format.printf "serving: %s  procs %d  scale 1/%d  %s policy%s@."
      (C.Serving.to_string spec) procs scale
      (C.policy_to_string policy)
      (match faults with
      | Some f -> "  faults " ^ C.Faults.to_string f
      | None -> "");
    let ok = ref true in
    let rows =
      List.concat_map
        (fun heap ->
          List.map
            (fun coherence ->
              let cfg =
                C.make ~nprocs:procs ~coherence ~policy ?faults
                  ?replication:(replication_for faults) ()
              in
              let r = Serving.run ~scale ~cfg ~spec ~mix heap in
              if not r.Serving.r_ok then ok := false;
              Serving.pp_result ppf r;
              let sweep_data =
                if not sweep then None
                else begin
                  let points, knee =
                    Serving.saturation_sweep ~domains ~scale ~cfg ~spec ~mix
                      heap
                  in
                  List.iter
                    (fun (p : Serving.sweep_point) ->
                      Format.printf
                        "    offered %6.2f/kcy  achieved %6.2f/kcy  p99 %8d@."
                        p.Serving.sw_offered p.Serving.sw_achieved
                        p.Serving.sw_p99)
                    points;
                  (match knee with
                  | Some k ->
                      Format.printf "    saturation knee at %.2f req/kcy@." k
                  | None ->
                      Format.printf
                        "    no saturation knee in the swept range@.");
                  Some (points, knee)
                end
              in
              Serving.result_json ?sweep:sweep_data r)
            schemes)
        heaps
    in
    Option.iter
      (fun file ->
        with_out file (fun oc ->
            output_string oc
              (Olden.Json.to_pretty_string
                 (Olden.Json.Obj
                    [
                      ("schema", Olden.Json.String "olden-serving/v1");
                      ("nprocs", Olden.Json.Int procs);
                      ("scale", Olden.Json.Int scale);
                      ( "faults",
                        match faults with
                        | Some f -> Olden.Json.String (C.Faults.to_string f)
                        | None -> Olden.Json.Null );
                      ("fault_seed", Olden.Json.Int fault_seed);
                      ("benchmarks", Olden.Json.List rows);
                    ])));
        Format.printf "serving snapshot: %s (olden-serving/v1)@." file)
      out;
    if not !ok then exit 1
  in
  let heap_t =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"HEAP"
          ~doc:"Served heap: treeadd, em3d, or health (default: all three).")
  in
  let profile_t =
    Arg.(
      value & opt string "poisson"
      & info [ "profile" ] ~docv:"PROFILE"
          ~doc:"Arrival process: poisson, bursty, or diurnal.")
  in
  let rate_t =
    Arg.(
      value & opt float 2.0
      & info [ "rate" ] ~docv:"R"
          ~doc:"Offered load in requests per 1000 simulated cycles.")
  in
  let duration_t =
    Arg.(
      value & opt int 100_000
      & info [ "duration" ] ~docv:"CYCLES"
          ~doc:"Arrival horizon in simulated cycles.")
  in
  let streams_t =
    Arg.(
      value & opt int 4
      & info [ "streams" ] ~docv:"N"
          ~doc:"Independent arrival streams the offered load is split over.")
  in
  let arrival_seed_t =
    Arg.(
      value & opt int 1
      & info [ "arrival-seed" ] ~docv:"SEED"
          ~doc:
            "Seed of the arrival process (same seed = same arrivals), \
             independent of the workload and fault seeds.")
  in
  let mix_t =
    Arg.(
      value & opt string "point=6,scan=3,update=1"
      & info [ "mix" ] ~docv:"MIX"
          ~doc:
            "Weighted request-class mixture, e.g. point=6,scan=3,update=1; \
             a bare class name means weight 1.")
  in
  let all_schemes_t =
    Arg.(
      value & flag
      & info [ "all-schemes" ]
          ~doc:
            "Serve under all three coherence schemes and report each \
             (throughput and tail latency per scheme).")
  in
  let sweep_t =
    Arg.(
      value & flag
      & info [ "sweep" ]
          ~doc:
            "Offered-load sweep: rerun the serve across a rate ladder and \
             report achieved throughput, worst p99, and the saturation \
             knee.")
  in
  let out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the serving snapshot as olden-serving/v1 JSON.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Open-system serving: drive a persistent Olden heap (TreeAdd tree, \
          EM3D graph, or Health villages) with a seeded open arrival stream \
          (poisson, bursty, or diurnal), each request entering at a seeded \
          ingress processor under the full migrate-vs-cache machinery.  \
          Reports throughput and admission-to-completion p50/p99/p999 per \
          request class from the simulated clock; --sweep locates the \
          saturation knee.  Deterministic: same seeds and config give \
          byte-identical snapshots for any --domains value (the pool size \
          of the --sweep).")
    Term.(
      const run $ heap_t $ procs_t $ scale_t $ profile_t $ rate_t $ duration_t
      $ streams_t $ arrival_seed_t $ mix_t $ coherence_t $ all_schemes_t
      $ policy_t $ faults_name_t $ fault_seed_t $ domains_t $ sweep_t $ out_t)

(* --- Causal spans --------------------------------------------------------- *)

module Span = Olden.Span

let site_label sid =
  match B.Common.site_name sid with
  | Some l -> l
  | None -> Printf.sprintf "site%d" sid

(* The kept spans and the retention record of the last spanned run,
   taken out of the driver hooks. *)
let take_spans () =
  let h = B.Common.hooks () in
  let spans = Option.value ~default:[||] h.last_spans in
  let kept =
    Option.value ~default:{ Span.folds = [||]; exemplars = [] }
      h.last_retention
  in
  h.last_spans <- None;
  h.last_retention <- None;
  (spans, kept)

(* One run with the span collector installed; hands back the outcome, the
   kept spans in emission order, and the folds and exemplars. *)
let run_spanned (spec : B.Common.spec) cfg ~scale =
  (B.Common.hooks ()).record_spans <- true;
  Olden_runtime.Site.reset_profiles ();
  let o =
    Fun.protect
      ~finally:(fun () -> (B.Common.hooks ()).record_spans <- false)
      (fun () -> spec.B.Common.run cfg ~scale)
  in
  let spans, kept = take_spans () in
  (o, spans, kept)

let spans_cmd =
  let run name procs scale coherence policy out chrome head faults_name
      fault_seed =
    let spec = find_spec name in
    let scale = if scale = 0 then spec.B.Common.default_scale else scale in
    let faults = faults_of ~name:faults_name ~seed:fault_seed in
    let cfg =
      C.make ~nprocs:procs ~coherence ~policy ?faults
        ?replication:(replication_for faults) ()
    in
    let o, spans, kept = run_spanned spec cfg ~scale in
    header spec ~procs ~scale ~coherence ~policy o;
    Option.iter
      (fun f -> Format.printf "faults: %s@." (C.Faults.to_string f))
      faults;
    let roots =
      Array.fold_left
        (fun n (s : Span.span) ->
          if Span.is_root s.Span.kind then n + 1 else n)
        0 spans
    in
    Format.printf
      "spans: %d kept, %d root episode(s); %d dereference root(s) folded \
       into %d site counter(s)@."
      (Array.length spans) roots
      (Span.folded kept.Span.folds)
      (Array.length kept.Span.folds);
    (match head with
    | Some n when n > 0 ->
        Array.iteri
          (fun i s ->
            if i < n then
              Format.printf "  %s@." (Span.describe ~site_name:site_label s))
          spans
    | _ -> ());
    Option.iter
      (fun file ->
        with_out file (fun oc ->
            output_string oc (Span.jsonl ~folds:kept.Span.folds spans));
        Format.printf "spans: %s (olden-spans/v2 JSONL)@." file)
      out;
    Option.iter
      (fun file ->
        with_out file (fun oc ->
            output_string oc (Span.chrome_to_string ~nprocs:procs spans));
        Format.printf "spans: %s (Chrome trace_event JSON, flow arrows)@."
          file)
      chrome;
    if not o.B.Common.ok then exit 1
  in
  let out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:
            "Write the span stream as olden-spans/v2 JSONL: a header line, \
             one kept span per line in emission order, then one line per \
             folded (site, mechanism) counter (byte-identical across \
             same-seed runs).")
  in
  let chrome_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:
            "Write the span stream as Chrome trace_event JSON: one track \
             per processor, flow arrows where an episode hops between \
             clock domains (load in Perfetto or chrome://tracing).")
  in
  Cmd.v
    (Cmd.info "spans"
       ~doc:
         "Run one benchmark with causal span tracing on: every dereference \
          opens a root span whose trace context is propagated across \
          migration legs, return stubs, retransmits, and crash replays; \
          exports the stream as olden-spans/v2 JSONL or Chrome trace JSON. \
          Childless local and cache dereference roots are folded into \
          per-site counters unless they are among the worst of their \
          mechanism, so the output stays bounded.")
    Term.(
      const run $ name_t $ procs_t $ scale_t $ coherence_t $ policy_t
      $ out_t $ chrome_t $ head_t $ faults_name_t $ fault_seed_t)

let explain_cmd =
  let run name procs scale coherence policy interval percentile top
      faults_name fault_seed =
    if percentile < 0. || percentile >= 1. then begin
      Format.eprintf "olden-run explain: --percentile must be in [0, 1)@.";
      exit 2
    end;
    let spec = find_spec name in
    let scale = if scale = 0 then spec.B.Common.default_scale else scale in
    let faults = faults_of ~name:faults_name ~seed:fault_seed in
    let cfg =
      C.make ~nprocs:procs ~coherence ~policy ?faults
        ?replication:(replication_for faults) ()
    in
    (* monitor and span collector together: the collector holds the trace
       ids of the worst episodes per mechanism and their causal trees, and
       the monitor's latency histograms give the threshold they must
       reach *)
    (B.Common.hooks ()).monitor_interval <- Some interval;
    (B.Common.hooks ()).record_spans <- true;
    Olden_runtime.Site.reset_profiles ();
    let o =
      Fun.protect
        ~finally:(fun () ->
          (B.Common.hooks ()).monitor_interval <- None;
          (B.Common.hooks ()).record_spans <- false)
        (fun () -> spec.B.Common.run cfg ~scale)
    in
    let m =
      match (B.Common.hooks ()).last_monitor with Some m -> m | None -> assert false
    in
    (B.Common.hooks ()).last_monitor <- None;
    let spans, kept = take_spans () in
    header spec ~procs ~scale ~coherence ~policy o;
    Option.iter
      (fun f -> Format.printf "faults: %s@." (C.Faults.to_string f))
      faults;
    let quantile (e : Span.exemplar) =
      Mon.deref_quantile m (Mon.mech_of_index e.Span.ex_mech) percentile
    in
    (match
       List.filter
         (fun (e : Span.exemplar) -> e.Span.ex_cycles >= quantile e)
         kept.Span.exemplars
     with
    | [] ->
        Format.printf
          "no exemplar at or above the p%g threshold of its mechanism \
           (every retained episode was below the quantile)@."
          (100. *. percentile)
    | exemplars ->
        let shown = List.filteri (fun i _ -> i < top) exemplars in
        Format.printf
          "explaining %d of %d tail exemplar(s) at or above the p%g of \
           their mechanism:@."
          (List.length shown) (List.length exemplars) (100. *. percentile);
        List.iteri
          (fun i (e : Span.exemplar) ->
            Format.printf
              "@.#%d: %s dereference, %d cycles (mechanism p%g = %d), \
               trace %d:%d@."
              (i + 1)
              (Mon.mech_name (Mon.mech_of_index e.Span.ex_mech))
              e.Span.ex_cycles (100. *. percentile) (quantile e)
              e.Span.ex_trace_proc e.Span.ex_trace_seq;
            let buf = Buffer.create 512 in
            Span.explain buf ~site_name:site_label spans
              ~trace_proc:e.Span.ex_trace_proc
              ~trace_seq:e.Span.ex_trace_seq;
            print_string (Buffer.contents buf))
          shown);
    if not o.B.Common.ok then exit 1
  in
  let interval_t =
    Arg.(
      value & opt int 50_000
      & info [ "i"; "interval" ] ~docv:"CYCLES"
          ~doc:"Monitor sampling interval in simulated cycles.")
  in
  let percentile_t =
    Arg.(
      value & opt float 0.99
      & info [ "percentile" ] ~docv:"Q"
          ~doc:
            "Exemplar threshold as a fraction (0.99 = p99, 0.999 = p999): \
             only episodes at or above this quantile of their own \
             mechanism's latency histogram are explained.")
  in
  let explain_top_t =
    Arg.(
      value & opt int 3
      & info [ "top" ] ~docv:"K"
          ~doc:"Explain the worst $(docv) exemplar episodes.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Run one benchmark with the monitor and causal span tracing on, \
          then reconstruct and pretty-print the full causal chain of the \
          worst tail-latency dereference episodes: hop-by-hop send, wire, \
          queue-wait, fault drops and backoff, replay, receive, and \
          service cycles, summing exactly to each episode's end-to-end \
          latency.")
    Term.(
      const run $ name_t $ procs_t $ scale_t $ coherence_t $ policy_t
      $ interval_t $ percentile_t $ explain_top_t $ faults_name_t
      $ fault_seed_t)

let csv_t =
  Arg.(value & flag & info [ "csv" ] ~doc:"Emit comma-separated values.")

let speedups_cmd =
  let run name scale coherence csv =
    let spec = find_spec name in
    let row = B.Suite.speedups ~scale ~coherence spec in
    if csv then begin
      Format.printf "benchmark,choice,seq_cycles,procs,cycles,speedup@.";
      List.iter
        (fun (p, s, o) ->
          Format.printf "%s,%s,%d,%d,%d,%.4f@." spec.B.Common.name
            spec.B.Common.choice row.B.Suite.seq_cycles p
            (B.Common.measured_cycles spec o)
            s)
        row.B.Suite.runs;
      match row.B.Suite.migrate_only_32 with
      | Some m ->
          Format.printf "%s,migrate-only,%d,32,,%.4f@." spec.B.Common.name
            row.B.Suite.seq_cycles m
      | None -> ()
    end
    else Format.printf "%a@." B.Suite.pp_speedup_row row
  in
  Cmd.v
    (Cmd.info "speedups"
       ~doc:"Sequential baseline plus speedups on 1..32 processors.")
    Term.(const run $ name_t $ scale_t $ coherence_t $ csv_t)

let table_cmd name doc f =
  Cmd.v (Cmd.info name ~doc) Term.(const (fun () -> f ppf ()) $ const ())

let table2_cmd =
  let run scale = B.Tables.table2 ~scale ppf () in
  Cmd.v
    (Cmd.info "table2" ~doc:"Regenerate Table 2 (speedups, all benchmarks).")
    Term.(const run $ scale_t)

let table3_cmd =
  let run scale procs = B.Tables.table3 ~scale ~nprocs:procs ppf () in
  Cmd.v
    (Cmd.info "table3" ~doc:"Regenerate Table 3 (caching statistics).")
    Term.(const run $ scale_t $ procs_t)

let main =
  Cmd.group
    (Cmd.info "olden-run" ~version:"1.0"
       ~doc:"Olden (PPoPP 1995) reproduction driver.")
    [
      list_cmd;
      bench_cmd;
      monitor_cmd;
      serve_cmd;
      chaos_cmd;
      recovery_cmd;
      failover_cmd;
      hostperf_cmd;
      trace_cmd;
      spans_cmd;
      explain_cmd;
      profile_cmd;
      critical_path_cmd;
      diff_cmd;
      speedups_cmd;
      table_cmd "table1" "Regenerate Table 1 (benchmark descriptions)."
        B.Tables.table1;
      table2_cmd;
      table3_cmd;
      table_cmd "fig2" "Regenerate Figure 2 (list distributions)."
        (fun ppf () -> B.Tables.figure2 ppf ());
      table_cmd "fig3" "Figure 3 (update matrix example)." B.Tables.figure3;
      table_cmd "fig4" "Figure 4 (TreeAdd's combined affinity)."
        B.Tables.figure4;
      table_cmd "fig5" "Figure 5 (bottleneck detection)." B.Tables.figure5;
      table_cmd "defaults" "Section 4.3 default behaviours." B.Tables.defaults;
      table_cmd "appendixA"
        "Appendix A: kernel cycles under the three coherence schemes."
        (fun ppf () -> B.Tables.appendix_a ppf ());
      table_cmd "breakeven"
        "Break-even path-affinity sweep on the CM-5/NOW/DSM presets."
        (fun ppf () -> B.Breakeven.report ~n:2048 ppf ());
    ]

(* Both failures need a fault schedule, so the run had a flight recorder,
   and the engine dumped it before the exception escaped. *)
let flight_dumped () =
  Format.eprintf "olden-run: flight recorder: %s@."
    (B.Common.hooks ()).flight_path

(* Exit discipline: usage errors (unknown subcommand, bad flag) leave as a
   clean status 2 after cmdliner's usage message, and expected operational
   failures surface as one-line errors rather than backtraces. *)
let () =
  let code =
    try Cmd.eval main with
    | Olden_runtime.Engine.Deadlock msg ->
        Format.eprintf "olden-run: deadlock: %s@." msg;
        1
    | Machine.Undeliverable { dst; klass; attempts } ->
        let line = Machine.undeliverable_to_string ~dst ~klass ~attempts in
        Format.eprintf "olden-run: %s@." line;
        flight_dumped ();
        1
    | Olden_runtime.Engine.Threads_lost msg ->
        Format.eprintf "olden-run: threads lost: %s@." msg;
        flight_dumped ();
        1
    | Failure msg | Sys_error msg ->
        Format.eprintf "olden-run: %s@." msg;
        2
  in
  exit (if code = Cmd.Exit.cli_error then 2 else code)
