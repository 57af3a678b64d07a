(* The four workloads and the pass that runs one of them.

   A workload is a list of jobs; one pass runs every job once, in order,
   and times each call from outside.  A job is one batch benchmark run
   (through the spec's own driver, which verifies against its sequential
   reference) or one open-loop serve ([Serving.run]).  Everything a job
   reports besides its wall time and allocation is simulated, so it must
   repeat exactly from pass to pass. *)

module C = Olden_config
module Common = Olden_benchmarks.Common
module Registry = Olden_benchmarks.Registry
module Hostperf = Olden_benchmarks.Hostperf
module Serving = Olden_serving.Serving
module Engine = Olden_runtime.Engine

let now = Unix.gettimeofday

type size = Full | Tiny

(* The workload's seeds: benchmark inputs, serve arrivals, fault schedule. *)
type seeds = { input : int; arrival : int; fault : int }

(* What one serve at one offered rate reports, per request class. *)
type serve = {
  rate : float;  (** offered, requests per 1000 cycles *)
  heap : string;
  admitted : int;
  completed : int;
  achieved : float;  (** completed per 1000 cycles of arrival horizon *)
  p99 : (string * int) list;  (** per class, cycles (log2 bucket bound) *)
  max : (string * int) list;  (** per class, cycles (exact) *)
}

(* The simulated side of one job: identical on every pass. *)
type result = {
  cycles : int;  (** Table-2 measured cycles, or the serve span *)
  stats : Stats.t;  (** whole-run counters *)
  report : Engine.report;
  checksum : string;
  ok : bool;
  spans : int;  (** spans materialized (0 with spans off) *)
  serve : serve option;
}

type job = {
  label : string;
  bench : string;  (** Table-1 name of the benchmark or served heap *)
  procs : int;
  coherence : C.coherence;
  observed : bool;  (** spans and monitor on *)
  run : unit -> result;
}

(* One timed job of one pass. *)
type row = {
  job : job;
  wall : float;
  ref_wall : float;  (** reference kernel, mean of the calls around the job *)
  minor_words : float;
  major_words : float;
  res : result;
}

let events (r : result) = Hostperf.events_of r.stats

(* The engine of the run just finished, read through the driver hook. *)
let with_report f =
  let h = Common.hooks () in
  let last = ref None in
  h.Common.inspect_engine <- Some (fun e -> last := Some (Engine.report e));
  let v =
    Fun.protect ~finally:(fun () -> h.Common.inspect_engine <- None) f
  in
  match !last with
  | Some r -> (v, r)
  | None -> failwith "perfbench: the run did not reach its engine hook"

(* Monitor interval for observed runs, in simulated cycles. *)
let monitor_interval = 50_000

let batch_scale ~size (spec : Common.spec) =
  match size with
  | Full -> spec.Common.default_scale
  | Tiny -> spec.Common.default_scale * 64

let batch_job ?(observed = false) ~size ~procs ~coherence ~seed
    (spec : Common.spec) =
  let scale = batch_scale ~size spec in
  let cfg = C.make ~nprocs:procs ~coherence ~seed () in
  let scheme =
    if coherence = C.Local then "" else "/" ^ C.coherence_to_string coherence
  in
  let label =
    spec.Common.name ^ scheme ^ if observed then "+spans" else ""
  in
  let run () =
    let h = Common.hooks () in
    if observed then begin
      h.Common.record_spans <- true;
      h.Common.monitor_interval <- Some monitor_interval
    end;
    let o, report =
      Fun.protect
        ~finally:(fun () ->
          h.Common.record_spans <- false;
          h.Common.monitor_interval <- None)
        (fun () -> with_report (fun () -> spec.Common.run cfg ~scale))
    in
    let spans =
      match h.Common.last_spans with Some a -> Array.length a | None -> 0
    in
    h.Common.last_spans <- None;
    h.Common.last_monitor <- None;
    {
      cycles = Common.measured_cycles spec o;
      stats = o.Common.total_stats;
      report;
      checksum = o.Common.checksum;
      ok = o.Common.ok;
      spans;
      serve = None;
    }
  in
  { label; bench = spec.Common.name; procs; coherence; observed; run }

(* --- serve-failstop ------------------------------------------------------ *)

let serve_rates = [ 0.5; 1.0; 2.0 ]
let serve_mix = Result.get_ok (Serving.mix_of_string "point=5,scan=2,update=3")

let serve_cfg seeds =
  C.make ~nprocs:8 ~coherence:C.Global
    ~faults:(C.Faults.failstop_mix ~seed:seeds.fault ())
    ~replication:C.default_replica ~seed:seeds.input ()

let serve_scale = function Full -> 4 | Tiny -> 64
let serve_duration = function Full -> 20_000_000 | Tiny -> 200_000

let serve_job ~size ~seeds heap rate =
  let name = Serving.heap_name heap in
  let duration = serve_duration size in
  let run () =
    let spec =
      C.Serving.make ~profile:C.Serving.Bursty ~rate ~duration ~streams:4
        ~arrival_seed:seeds.arrival ()
    in
    let r, report =
      with_report (fun () ->
          Serving.run ~scale:(serve_scale size) ~cfg:(serve_cfg seeds) ~spec
            ~mix:serve_mix heap)
    in
    let classes = r.Serving.r_classes in
    let serve =
      {
        rate;
        heap = name;
        admitted = r.Serving.r_admitted;
        completed = r.Serving.r_completed;
        achieved =
          float_of_int r.Serving.r_completed *. 1000. /. float_of_int duration;
        p99 = List.map (fun (k, s) -> (k, s.Olden_monitor.Monitor.p99)) classes;
        max = List.map (fun (k, s) -> (k, s.Olden_monitor.Monitor.max)) classes;
      }
    in
    {
      cycles = r.Serving.r_serve_cycles;
      stats = report.Engine.stats;
      report;
      checksum = r.Serving.r_checksum;
      ok = r.Serving.r_ok;
      spans = 0;
      serve = Some serve;
    }
  in
  {
    label = Printf.sprintf "%s@%g" name rate;
    bench = name;
    procs = 8;
    coherence = C.Global;
    observed = false;
    run;
  }

(* Build the served heaps with no arrivals: the serve's set-up cost. *)
let serve_build ~size ~seeds heap =
  let spec =
    C.Serving.make ~rate:0.001 ~duration:1 ~streams:1
      ~arrival_seed:seeds.arrival ()
  in
  ignore
    (Serving.run ~scale:(serve_scale size) ~cfg:(serve_cfg seeds) ~spec
       ~mix:serve_mix heap)

(* --- The workloads -------------------------------------------------------- *)

type t = {
  name : string;
  why : string;
  specs : Common.spec list;  (** benchmarks whose IR set-up compiles *)
  heaps : Serving.heap list;  (** served heaps built during set-up *)
  jobs : job list;
}

let names = [ "suite-p8"; "wide-p62"; "observed-p8"; "serve-failstop" ]

let spec name =
  match Registry.find name with
  | Some s -> s
  | None -> failwith ("perfbench: no benchmark " ^ name)

let make ~size ~seeds name =
  let seed = seeds.input in
  match name with
  | "suite-p8" ->
      let specs = Registry.specs in
      Some
        {
          name;
          why = "the paper's Table-2 configuration: ten benchmarks, 8 procs";
          specs;
          heaps = [];
          jobs =
            List.map
              (batch_job ~size ~procs:8 ~coherence:C.Local ~seed)
              specs;
        }
  | "wide-p62" ->
      let specs = List.map spec [ "TreeAdd"; "Bisort"; "EM3D"; "Health" ] in
      Some
        {
          name;
          why = "62 procs under global and bilateral coherence";
          specs;
          heaps = [];
          jobs =
            List.concat_map
              (fun coherence ->
                List.map (batch_job ~size ~procs:62 ~coherence ~seed) specs)
              [ C.Global; C.Bilateral ];
        }
  | "observed-p8" ->
      let specs = List.map spec [ "TreeAdd"; "EM3D"; "Health" ] in
      Some
        {
          name;
          why = "span collection and monitor on against the same bare runs";
          specs;
          heaps = [];
          jobs =
            List.concat_map
              (fun s ->
                List.map
                  (fun observed ->
                    batch_job ~observed ~size ~procs:8 ~coherence:C.Local
                      ~seed s)
                  [ false; true ])
              specs;
        }
  | "serve-failstop" ->
      let heaps = [ Serving.Em3d; Serving.Health ] in
      Some
        {
          name;
          why = "open-loop serving under fail-stop faults at three rates";
          specs = List.map (fun h -> spec (Serving.heap_name h)) heaps;
          heaps;
          jobs =
            List.concat_map
              (fun h -> List.map (serve_job ~size ~seeds h) serve_rates)
              heaps;
        }
  | _ -> None

(* --- Running ------------------------------------------------------------- *)

(* Set-up before the first pass: compile every IR model through the
   heuristic, then build the served heaps.  Returns the two parts' host
   seconds. *)
let setup ~size ~seeds w =
  let t0 = now () in
  List.iter (fun s -> ignore (Common.sites_of_ir s.Common.ir)) w.specs;
  let t1 = now () in
  List.iter (serve_build ~size ~seeds) w.heaps;
  let t2 = now () in
  (t1 -. t0, t2 -. t1)

let run_job ?(around = fun _ f -> f ()) job =
  around job (fun () ->
      (* every job starts from the same collector state, so the heap's
         high-water mark does not depend on what ran before *)
      Gc.full_major ();
      let ref_before = Calib.time () in
      let q0 = Gc.quick_stat () in
      let m0 = Gc.minor_words () in
      let t0 = now () in
      let res = job.run () in
      let t1 = now () in
      let m1 = Gc.minor_words () in
      let q1 = Gc.quick_stat () in
      let ref_after = Calib.time () in
      {
        job;
        wall = t1 -. t0;
        ref_wall = (ref_before +. ref_after) /. 2.;
        minor_words = m1 -. m0;
        major_words =
          q1.Gc.major_words -. q1.Gc.promoted_words
          -. (q0.Gc.major_words -. q0.Gc.promoted_words);
        res;
      })

let run_pass ?around w = List.map (run_job ?around) w.jobs

(* --- Checks -------------------------------------------------------------- *)

(* Why a row failed its checks, if it did. *)
let row_failure r =
  if not r.res.ok then Some (r.job.label ^ ": verification failed")
  else
    match r.res.serve with
    | Some s when s.completed <> s.admitted ->
        Some
          (Printf.sprintf "%s: %d of %d requests completed" r.job.label
             s.completed s.admitted)
    | _ -> None

(* Everything simulated about a row: it must repeat exactly from pass to
   pass. *)
let signature r =
  let serve =
    match r.res.serve with
    | None -> ""
    | Some s ->
        String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s:%d" k v) (s.p99 @ s.max))
  in
  Printf.sprintf "%s cycles=%d checksum=%s spans=%d %s stats=%s" r.job.label
    r.res.cycles r.res.checksum r.res.spans serve
    (String.concat ","
       (List.map (fun (_, v) -> string_of_int v) (Stats.fields r.res.stats)))
