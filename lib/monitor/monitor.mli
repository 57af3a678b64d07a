(** Simulated-clock telemetry: interval time-series and end-to-end
    operation-latency histograms.

    The paper (and our Table-2 pipeline) reports one end-of-run counter
    table per benchmark; this layer watches the run *as simulated time
    passes*.  Two pillars:

    {ol
    {- {b Interval time-series}: at every multiple of a configurable
       simulated-time interval, sample the full {!Stats} record, the
       per-processor busy/comm/idle/recovery-stall cycles, and the
       monitor's own latency registry, and report the {e windowed
       deltas} (activity inside the window, not cumulative totals).
       Serialized as the [olden-timeseries/v1] JSONL schema and as CSV.}
    {- {b End-to-end latency}: the engine, machine, and recovery layers
       record each completed episode — a dereference (entry to
       completion, spanning cache misses, migration round-trips,
       retries, fallbacks, and crash replays), a migration delivery, a
       return-stub delivery, a retry backoff, a crash recovery — into
       log-bucketed {!Metrics} histograms with exact-rank
       p50/p90/p99/p999 quantiles, aggregated per mechanism and per
       dereference site.}}

    Like {!Trace}, the monitor is a single per-domain sink and is
    zero-cost when off: the engine and machine layers capture the
    domain's {!switch} when they are created, and instrumentation sites
    are written

    {[ if Monitor.on t.monitor then Monitor.migration ~cycles ]}

    so with no monitor installed only an already-held ref is read.  The
    two per-operation hooks, {!deref_in} and {!tick}, take the
    switch itself, so recording makes no domain-local lookup either;
    recording allocates nothing once a site's histogram exists.  The
    monitor only {e reads} simulated clocks — it never advances them —
    so monitored runs are cycle-identical to unmonitored ones, and the
    output is a pure function of (program, config, seed): same seed,
    byte-identical JSONL.  Schema reference: docs/OBSERVABILITY.md. *)

module Metrics = Olden_trace.Metrics
module Json = Olden_trace.Json

(** How a dereference episode was ultimately served. *)
type mech =
  | Local  (** same-processor data, or sequential mode *)
  | Cache  (** software caching (hit or miss) at the referencing proc *)
  | Migrate  (** the computation moved to the data's home *)
  | Fallback  (** migration gave up (faults); served by caching *)

val mech_name : mech -> string

val mech_index : mech -> int
(** 0 = local, 1 = cache, 2 = migrate, 3 = fallback — the mechanism
    code spans carry in their [b] payload. *)

val mech_of_index : int -> mech
(** The inverse of {!mech_index}. *)

(** Closures over the running machine, supplied by the driver
    ([Common.execute]); the monitor has no dependency on the machine
    layer, so every layer above [olden_trace] may call into it. *)
type probe = {
  stats : unit -> (string * int) list;
      (** the full [Stats.fields] of the live stats record *)
  busy : unit -> int array;
  comm : unit -> int array;
  recovery_stall : unit -> int array;
}

type t

val create : interval:int -> nprocs:int -> probe:probe -> t
(** A fresh monitor sampling at every [interval] simulated cycles.
    @raise Invalid_argument if [interval < 1]. *)

val interval : t -> int
val nprocs : t -> int

(** {2 The per-domain sink} *)

val install : t -> unit
(** @raise Invalid_argument if a monitor is already installed, or if
    this one was created on another domain. *)

val uninstall : unit -> unit

type switch
(** The calling domain's monitor slot, as a handle that can be tested
    without a domain-local lookup. *)

val switch : unit -> switch
(** The calling domain's switch.  {!install} and {!uninstall} assign
    this same slot, so a switch captured before [install] still sees the
    monitor.  Capture it once, where the instrumented layer is created,
    and use it only on that domain. *)

val on : switch -> bool
(** Whether a monitor is installed: one dereference of the held slot.
    Hot instrumentation sites guard on this so the disabled path
    allocates nothing. *)

val is_on : unit -> bool
(** [on (switch ())]: one [Domain.DLS.get] more, for cold callers that
    hold no switch. *)

(** {2 Instrumentation hooks} (no-ops when no monitor is installed)

    All [cycles] are simulated-clock durations; [tick] carries the
    scheduler's global virtual time, which is monotonically
    non-decreasing across calls. *)

val tick : switch -> int -> unit
(** Advance the window clock of the monitor behind the switch; closes
    every interval window the given time has passed. *)

val deref : sid:int -> mech:mech -> cycles:int -> unit
(** A dereference episode completed: end-to-end latency [cycles], from
    the operation's entry to its completion on whichever processor
    finished it. *)

val deref_in : switch -> sid:int -> mech:mech -> cycles:int -> unit
(** {!deref} into the monitor behind a captured switch. *)

val migration : cycles:int -> unit
(** A migrated computation restarted at its target: [cycles] from
    episode entry at the source to restart at the target. *)

val return_stub : cycles:int -> unit
(** A return stub delivered its value back to the home processor. *)

val retry_wait : cycles:int -> unit
(** A sender finished one backoff wait before retransmitting. *)

val recovery_stall : cycles:int -> unit
(** A crashed processor completed its warm-restart protocol. *)

val request : klass:string -> cycles:int -> unit
(** A served request completed: admission→completion latency [cycles],
    bucketed under its request-class label (from the serving mix
    grammar, e.g. ["point"]).  Adds a per-class dimension to the
    latency exports; sections appear only when at least one request was
    recorded, so batch runs export byte-identical documents. *)

val finish : t -> makespan:int -> unit
(** Close the final (partial) window at [makespan].  Idempotent. *)

(** {2 Windows} *)

type window = {
  w_t0 : int;
  w_t1 : int;  (** the window spans simulated time [[w_t0, w_t1)] *)
  w_stats : (string * int) list;
      (** every [Stats] field, windowed delta, in declaration order *)
  w_procs : (int * int * int * int) array;
      (** per processor: (busy, comm, idle, recovery-stall) deltas.
          Idle is [span - busy - comm] and may go negative in a window
          when a long charge starts inside it; sums over all windows
          reconcile with the end-of-run totals. *)
  w_latency : Json.t;
      (** latency-registry delta entries ({!Metrics.delta_json}) *)
}

val windows : t -> window list
(** Closed windows in time order (only complete after {!finish}). *)

(** {2 Latency summaries} *)

type summary = {
  count : int;
  sum : int;
  min : int;
  max : int;
  mean : float;
  p50 : int;
  p90 : int;
  p99 : int;
  p999 : int;  (** quantiles are {!Metrics.quantile} bucket bounds *)
}

val deref_summaries : t -> (string * summary) list
(** Per mechanism ([local], [cache], [migrate], [fallback] order),
    mechanisms with no episodes omitted. *)

val episode_summaries : t -> (string * summary) list
(** [migration], [return], [retry_wait], [recovery_stall] (in that
    order), kinds with no episodes omitted. *)

val site_summaries :
  ?site_names:(int * string) list -> t -> (int * string * string * summary) list
(** [(sid, label, mech, summary)] sorted by sid then mechanism;
    [site_names] maps sids to labels (e.g. [Site.labels ()]). *)

val request_summaries : t -> (string * summary) list
(** Per request class, sorted by class label; empty outside serving
    runs. *)

val deref_quantile : t -> mech -> float -> int
(** The mechanism's latency quantile ({!Metrics.quantile}): the
    threshold [olden-run explain] holds the span collector's exemplars
    ({!Olden_span.Span.retention}) to. *)

(** {2 Serialization} (docs/OBSERVABILITY.md) *)

val latency_json : ?site_names:(int * string) list -> t -> Json.t
(** [{"deref":[..],"episode":[..],"per_site":[..]}] — the
    [olden-latency/v1] per-run payload.  Serving runs append a
    ["request"] list (one summary per request class); the key is absent
    when no requests were recorded. *)

val timeseries_jsonl :
  ?site_names:(int * string) list ->
  header:(string * Json.t) list ->
  t ->
  string
(** The [olden-timeseries/v1] document: a header line (schema, the
    caller's run-identity fields, interval, nprocs, window count), one
    line per window, and a closing [{"latency_total": ...}] line. *)

val csv : t -> string
(** One row per window, one column per series: [t0], [t1], every
    [Stats] field, then [pN_busy], [pN_comm], [pN_idle],
    [pN_recovery_stall] for each processor.  Header labels pass through
    {!Json.csv_field}, so an odd stat name cannot shift columns. *)

val latency_csv : ?site_names:(int * string) list -> t -> string
(** Latency summaries as CSV: one row per mechanism, episode kind,
    request class (serving runs only), and (site, mech) pair.  Site and
    class labels (and every text field) are quoted through
    {!Json.csv_field} — commas, quotes, or newlines in a label cannot
    corrupt the row. *)
