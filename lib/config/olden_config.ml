(* Machine description and cost model for the simulated CM-5.

   All costs are in cycles of the simulated machine.  The calibration
   anchor, taken from the paper (Section 4, footnote 3), is that a thread
   migration costs about seven times a cache-line miss.  Everything else is
   set to plausible CM-5 magnitudes; the reproduction targets ratios, not
   absolute times. *)

type coherence =
  | Local (* invalidate own cache on migration receipt; no traffic *)
  | Global (* eager release consistency: track sharers, send invalidations *)
  | Bilateral (* per-page timestamps; revalidate suspect pages on first miss *)

type mechanism =
  | Migrate
  | Cache

type policy =
  | Heuristic (* per-site mechanism chosen by the compiler heuristic *)
  | Migrate_only (* force migration at every remote reference (Table 2, last column) *)
  | Cache_only (* force software caching at every remote reference *)

let coherence_to_string = function
  | Local -> "local"
  | Global -> "global"
  | Bilateral -> "bilateral"

let coherence_of_string = function
  | "local" -> Some Local
  | "global" -> Some Global
  | "bilateral" -> Some Bilateral
  | _ -> None

let mechanism_to_string = function
  | Migrate -> "migrate"
  | Cache -> "cache"

let policy_to_string = function
  | Heuristic -> "heuristic"
  | Migrate_only -> "migrate-only"
  | Cache_only -> "cache-only"

let policy_of_string = function
  | "heuristic" -> Some Heuristic
  | "migrate-only" | "migrate_only" | "migrate" -> Some Migrate_only
  | "cache-only" | "cache_only" | "cache" -> Some Cache_only
  | _ -> None

(* Population count of an int bitmask, Kernighan style: one iteration per
   set bit, so line masks (<= 32 bits, usually sparse) and written-processor
   masks pay for what they hold.  The single shared implementation — the
   cache layer's valid masks, write logs, and invalidation accounting all
   count bits through this. *)
let popcount m =
  let rec go m acc = if m = 0 then acc else go (m land (m - 1)) (acc + 1) in
  go m 0

(* Heap geometry (Section 3.2): 2 KB pages, 64 B lines, 32 lines per page,
   1024-bucket translation table, 32-bit words. *)
module Geometry = struct
  let word_bytes = 4
  let line_bytes = 64
  let page_bytes = 2048
  let words_per_line = line_bytes / word_bytes (* 16 *)
  let words_per_page = page_bytes / word_bytes (* 512 *)
  let lines_per_page = page_bytes / line_bytes (* 32 *)
  let hash_buckets = 1024

  let page_of_word w = w / words_per_page
  let line_of_word w = w mod words_per_page / words_per_line
  let line_index_of_word w = w / words_per_line
  let word_offset_in_page w = w mod words_per_page
end

type costs = {
  local_ref : int; (* a plain local load/store *)
  pointer_test : int; (* compiler-inserted locality check on a migrate site *)
  cache_probe : int; (* hash-table lookup + tag/valid check on a cache site *)
  net_latency : int; (* one-way message latency *)
  line_service : int; (* home handler time to service a line fetch *)
  store_service : int; (* home handler time to apply a write-through store *)
  alloc_service : int; (* home handler time for a remote ALLOC *)
  alloc_local : int; (* local allocation cost *)
  migrate_send : int; (* serialize registers + PC + frame and inject *)
  migrate_recv : int; (* install frame, restart thread *)
  return_send : int; (* return stub: registers + return address, no frame *)
  return_recv : int;
  future_spawn : int; (* push continuation on the work list *)
  future_touch : int; (* test + possible block *)
  steal : int; (* pop a continuation from the local work list *)
  cache_flush : int; (* local scheme: invalidate entire cache *)
  invalidate_line : int; (* apply one line invalidation *)
  write_track_nonshared : int; (* Appendix A: 7 instructions *)
  write_track_shared : int; (* Appendix A: 23 instructions *)
  timestamp_service : int; (* bilateral: home compares timestamps *)
  recovery_service : int; (* home handler time to process a recovery notice *)
}

let default_costs =
  {
    local_ref = 1;
    pointer_test = 3;
    cache_probe = 12;
    net_latency = 150;
    line_service = 100;
    store_service = 40;
    alloc_service = 60;
    alloc_local = 10;
    (* One-way migration experienced latency:
       migrate_send + net_latency + migrate_recv = 2800 = 7 * line miss (400).
       Injection is cheap (active messages); the receiver pays to install
       the frame and restart the thread, which also serializes arrivals at
       a hot target. *)
    migrate_send = 250;
    migrate_recv = 2400;
    return_send = 200;
    return_recv = 1050;
    future_spawn = 25;
    future_touch = 8;
    steal = 30;
    cache_flush = 120;
    invalidate_line = 6;
    write_track_nonshared = 7;
    write_track_shared = 23;
    timestamp_service = 60;
    recovery_service = 80;
  }

(* Cost of a full line miss round trip, excluding handler queueing. *)
let miss_round_trip c = (2 * c.net_latency) + c.line_service

(* --- Fault model -------------------------------------------------------- *)

(* The paper assumes the CM-5's reliable active-message network; the
   fault model below removes that assumption.  Every knob is a
   probability per delivery *attempt* (retransmissions draw fresh
   decisions), evaluated deterministically from [fault_seed] and the
   message's sequence number — never from wall clock or global mutable
   state — so a fault schedule is replayable bit-for-bit. *)
type fault_spec = {
  drop : float; (* P(an attempt is lost in the network) *)
  delay : float; (* P(a delivered attempt is delayed) *)
  delay_cycles : int; (* extra latency added to a delayed attempt *)
  duplicate : float; (* P(a delivered message arrives twice) *)
  outage : float; (* P(a handler is down during a given window) *)
  outage_cycles : int; (* length of a handler-outage window *)
  migrate_drop : float option;
      (* override of [drop] for thread-state transfers (migrations and
         returns); lets a chaos schedule target "flaky homes" without
         making cache fetches undeliverable *)
  crash : float; (* P(a processor crashes during a given window) *)
  crash_cycles : int; (* length of a crash-decision window *)
  failstop : float; (* P(a processor dies for good during a given window) *)
  failstop_cycles : int; (* length of a fail-stop-decision window *)
  fault_seed : int; (* schedule selector, independent of the workload seed *)
}

(* Retry protocol: a requester that hears nothing within [timeout] cycles
   retransmits, doubling the wait each time ([backoff]) up to
   [max_timeout].  A migration that fails [max_migration_attempts] times
   gives up and degrades to the caching mechanism; any other message that
   fails [max_attempts] times is undeliverable (the schedule is broken —
   e.g. drop = 1.0 on the cache path). *)
type retry_spec = {
  timeout : int; (* cycles before the first retransmission *)
  backoff : int; (* wait multiplier per retransmission *)
  max_timeout : int; (* cap on the backed-off wait *)
  max_migration_attempts : int; (* then fall back to caching *)
  max_attempts : int; (* then Machine.Undeliverable *)
}

let default_retry =
  {
    timeout = 400; (* about one line-miss round trip *)
    backoff = 2;
    max_timeout = 6400;
    max_migration_attempts = 4;
    max_attempts = 64;
  }

let no_faults =
  {
    drop = 0.;
    delay = 0.;
    delay_cycles = 0;
    duplicate = 0.;
    outage = 0.;
    outage_cycles = 0;
    migrate_drop = None;
    crash = 0.;
    crash_cycles = 0;
    failstop = 0.;
    failstop_cycles = 0;
    fault_seed = 0;
  }

(* Primary–backup home replication: every write-through store applied at
   a home page is mirrored to a deterministically chosen backup,
   [(home + stride) mod nprocs], as a [Fault_plan.Replica]-class message
   under the standard retry/backoff.  With the mirror in place a
   fail-stop death of the home is survivable: failover promotes the
   backup and rewrites the home map (docs/ROBUSTNESS.md).  [threads]
   extends the mirror to resident thread state — with it off, threads
   resident on a fail-stopped processor are lost and the run aborts with
   a deterministic report. *)
type replica_spec = {
  stride : int; (* backup of home h is (h + stride) mod nprocs *)
  threads : bool; (* replicate resident thread state too *)
}

let default_replica = { stride = 1; threads = true }

(* Named fault schedules, for the chaos CLI and tests. *)
module Faults = struct
  let drop ?(p = 0.05) ~seed () = { no_faults with drop = p; fault_seed = seed }

  let delay ?(p = 0.10) ?(cycles = 600) ~seed () =
    { no_faults with delay = p; delay_cycles = cycles; fault_seed = seed }

  let duplicate ?(p = 0.05) ~seed () =
    { no_faults with duplicate = p; fault_seed = seed }

  let outage ?(p = 0.02) ?(cycles = 2000) ~seed () =
    { no_faults with outage = p; outage_cycles = cycles; fault_seed = seed }

  let flaky_home ?(p = 0.9) ~seed () =
    { no_faults with migrate_drop = Some p; fault_seed = seed }

  (* Crash-and-restart: each processor rolls a crash die once per
     [cycles]-long window; a hit wipes its volatile remote-access state
     (translation table, cached frames, write log, suspicion epochs) and
     triggers the warm-restart protocol (docs/ROBUSTNESS.md). *)
  let crash ?(p = 0.02) ?(cycles = 4000) ~seed () =
    { no_faults with crash = p; crash_cycles = cycles; fault_seed = seed }

  (* Fail-stop: each processor rolls a death die once per [cycles]-long
     window; a hit kills it permanently — home pages fail over to the
     replicated backup, the home map is rewritten, and the victim never
     computes again.  Requires [replication] in the config. *)
  let failstop ?(p = 0.02) ?(cycles = 4000) ~seed () =
    { no_faults with failstop = p; failstop_cycles = cycles; fault_seed = seed }

  let mixed ?(p = 0.03) ~seed () =
    {
      no_faults with
      drop = p;
      delay = 2. *. p;
      delay_cycles = 600;
      duplicate = p;
      outage = p /. 2.;
      outage_cycles = 2000;
      fault_seed = seed;
    }

  (* Crashes layered on top of message-level faults: recovery notices
     themselves ride the lossy network and must survive retries. *)
  let crash_mix ?(p = 0.02) ~seed () =
    {
      (mixed ~p:(p /. 2.) ~seed ()) with
      crash = p;
      crash_cycles = 4000;
    }

  (* Fail-stop deaths layered on message faults: replica traffic and
     failover announcements themselves ride the lossy network. *)
  let failstop_mix ?(p = 0.02) ~seed () =
    {
      (mixed ~p:(p /. 2.) ~seed ()) with
      failstop = p;
      failstop_cycles = 4000;
    }

  let names =
    [
      "drop"; "delay"; "dup"; "outage"; "flaky-home"; "mix"; "crash";
      "crash-mix"; "failstop"; "failstop-mix";
    ]

  let by_name name ~seed =
    match name with
    | "drop" -> Some (drop ~seed ())
    | "delay" -> Some (delay ~seed ())
    | "dup" | "duplicate" -> Some (duplicate ~seed ())
    | "outage" -> Some (outage ~seed ())
    | "flaky-home" | "flaky_home" -> Some (flaky_home ~seed ())
    | "mix" | "mixed" -> Some (mixed ~seed ())
    | "crash" -> Some (crash ~seed ())
    | "crash-mix" | "crash_mix" -> Some (crash_mix ~seed ())
    | "failstop" -> Some (failstop ~seed ())
    | "failstop-mix" | "failstop_mix" -> Some (failstop_mix ~seed ())
    | _ -> None

  let to_string f =
    Printf.sprintf
      "drop=%.3f delay=%.3f/%d dup=%.3f outage=%.3f/%d%s%s%s seed=%d" f.drop
      f.delay f.delay_cycles f.duplicate f.outage f.outage_cycles
      (match f.migrate_drop with
      | Some p -> Printf.sprintf " migrate-drop=%.3f" p
      | None -> "")
      (if f.crash > 0. then
         Printf.sprintf " crash=%.3f/%d" f.crash f.crash_cycles
       else "")
      (if f.failstop > 0. then
         Printf.sprintf " failstop=%.3f/%d" f.failstop f.failstop_cycles
       else "")
      f.fault_seed
end

(* Open-system serving knobs: the arrival process and horizon the
   lib/serving driver runs under.  Deliberately a standalone spec rather
   than a field of [t] — serving is a driver concern layered on top of a
   machine config, and a batch run must not depend on (or even see)
   these values. *)
module Serving = struct
  type profile =
    | Poisson (* memoryless arrivals at the offered rate *)
    | Bursty (* Markov-modulated on/off: dense bursts, long quiet gaps *)
    | Diurnal (* the offered rate swings sinusoidally around the mean *)

  let profile_to_string = function
    | Poisson -> "poisson"
    | Bursty -> "bursty"
    | Diurnal -> "diurnal"

  let profile_of_string = function
    | "poisson" -> Some Poisson
    | "bursty" -> Some Bursty
    | "diurnal" -> Some Diurnal
    | _ -> None

  let profile_names = [ "poisson"; "bursty"; "diurnal" ]

  type spec = {
    profile : profile;
    rate : float; (* offered load, requests per 1000 simulated cycles *)
    duration : int; (* arrival horizon in simulated cycles *)
    streams : int; (* independent arrival streams (ingress shards) *)
    arrival_seed : int; (* arrival-process selector, independent of the
                           workload and fault seeds *)
  }

  let make ?(profile = Poisson) ?(rate = 2.0) ?(duration = 100_000)
      ?(streams = 4) ?(arrival_seed = 1) () =
    if not (rate > 0.) then
      invalid_arg "Olden_config.Serving.make: rate must be positive";
    if duration < 1 then
      invalid_arg "Olden_config.Serving.make: duration must be positive";
    if streams < 1 then
      invalid_arg "Olden_config.Serving.make: streams must be at least 1";
    { profile; rate; duration; streams; arrival_seed }

  let default = make ()

  let to_string s =
    Printf.sprintf "%s rate=%.2f/kcy duration=%d streams=%d seed=%d"
      (profile_to_string s.profile)
      s.rate s.duration s.streams s.arrival_seed
end

(* Experienced one-way migration latency, excluding queueing at the target. *)
let migration_latency c = c.migrate_send + c.net_latency + c.migrate_recv

type t = {
  nprocs : int;
  costs : costs;
  coherence : coherence;
  policy : policy;
  handler_contention : bool;
      (* model serialization of active-message handlers at the home node *)
  return_invalidate_refinement : bool;
      (* local scheme: on return, invalidate only lines homed at processors
         the returning thread wrote, instead of flushing *)
  sequential : bool;
      (* baseline mode: one processor, no pointer tests, no future overhead *)
  seed : int;
  faults : fault_spec option;
      (* None: the reliable network the paper assumes — bit-identical to
         runs predating the fault layer *)
  retry : retry_spec; (* consulted only when [faults] is [Some _] *)
  replication : replica_spec option;
      (* None: no home-page mirroring, the seed behaviour.  Some: every
         write-through store is mirrored to the backup so the machine
         survives fail-stop deaths.  Required when [faults] carries a
         non-zero [failstop] probability. *)
}

let default =
  {
    nprocs = 32;
    costs = default_costs;
    coherence = Local;
    policy = Heuristic;
    handler_contention = false;
    return_invalidate_refinement = true;
    sequential = false;
    seed = 0x01de5 land 0xffff;
    faults = None;
    retry = default_retry;
    replication = None;
  }

(* Sets of processors (a write log's written homes, a directory's
   sharers) are bit masks in one OCaml int, so a machine has at most
   this many processors. *)
let max_nprocs = Sys.int_size - 1

let make ?(nprocs = 32) ?(costs = default_costs) ?(coherence = Local)
    ?(policy = Heuristic) ?(handler_contention = false)
    ?(return_invalidate_refinement = true) ?(seed = 42) ?faults
    ?(retry = default_retry) ?replication () =
  if nprocs < 1 || nprocs > max_nprocs then
    invalid_arg
      (Printf.sprintf "Olden_config.make: nprocs %d is outside [1, %d]" nprocs
         max_nprocs);
  (match (faults, replication) with
  | Some f, None when f.failstop > 0. ->
      invalid_arg
        "Olden_config.make: a fail-stop schedule needs ~replication (a dead \
         home is unrecoverable without a mirror)"
  | _ -> ());
  (match replication with
  | Some r when r.stride < 1 ->
      invalid_arg "Olden_config.make: replication stride must be >= 1"
  | _ -> ());
  {
    nprocs;
    costs;
    coherence;
    policy;
    handler_contention;
    return_invalidate_refinement;
    sequential = false;
    seed;
    faults;
    retry;
    replication;
  }

(* The sequential baseline is the same program compiled without Olden:
   one processor, no locality tests, no cache probes, no future machinery. *)
let sequential_of t =
  {
    t with
    nprocs = 1;
    sequential = true;
    costs =
      {
        t.costs with
        pointer_test = 0;
        cache_probe = 0;
        future_spawn = 0;
        future_touch = 0;
        steal = 0;
      };
  }

(* Compiler heuristic parameters (Section 4.3). *)
module Heuristic_params = struct
  let threshold = 0.90
  let default_affinity = 0.70
end

(* Machine presets (Section 7): the mechanism trade-off shifts with the
   platform.  A network of workstations has such a high message latency
   that migration (one move, then local work) is favored; a machine with
   hardware shared-memory support makes misses so cheap that caching is
   favored.  The break-even path-affinity — and hence where the selection
   threshold belongs — follows the migration/miss cost ratio. *)
module Presets = struct
  (* The paper's platform: migration = 7 x miss (Section 4, footnote 3). *)
  let cm5 = default_costs

  (* Network of workstations: millisecond-class software messaging.  The
     fixed per-message software overhead dwarfs per-line service, so a
     migration costs only ~2 x a miss and pays off at much lower
     affinities. *)
  let now =
    {
      default_costs with
      net_latency = 6000;
      line_service = 800;
      store_service = 400;
      migrate_send = 2000;
      migrate_recv = 6000;
      return_send = 1500;
      return_recv = 3000;
    }

  (* Hybrid hardware-DSM (Alewife / FLASH / Typhoon-class): fine-grain
     access control makes a line miss ~40 cycles while moving a thread
     still costs a software trap, so migration = ~35 x a miss and caching
     is almost always right. *)
  let hardware_dsm =
    {
      default_costs with
      pointer_test = 1;
      cache_probe = 2;
      net_latency = 12;
      line_service = 16;
      store_service = 8;
      migrate_send = 200;
      migrate_recv = 1200;
      return_send = 150;
      return_recv = 600;
    }

  let by_name = [ ("cm5", cm5); ("now", now); ("hardware-dsm", hardware_dsm) ]

  (* One-way migration latency over line-miss round trip: the ratio that
     sets the break-even affinity (see Olden_benchmarks.Breakeven). *)
  let migration_miss_ratio c =
    float_of_int (c.migrate_send + c.net_latency + c.migrate_recv)
    /. float_of_int ((2 * c.net_latency) + c.line_service)
end

let pp ppf t =
  Format.fprintf ppf
    "@[<v>nprocs=%d coherence=%s policy=%s contention=%b refinement=%b \
     seq=%b@]"
    t.nprocs
    (coherence_to_string t.coherence)
    (policy_to_string t.policy) t.handler_contention
    t.return_invalidate_refinement t.sequential
