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

    A monitor belongs to one run: the engine builds it, with a probe of
    its own machine, when it is created with a monitoring interval, and
    hands it to the layers beneath.  It is zero-cost when off: those
    layers hold a [Monitor.t option] and instrumentation sites are
    written

    {[ Option.iter (fun m -> Monitor.migration m ~cycles) t.monitor ]}

    and recording allocates nothing once a site's histogram exists.  The
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

(** Closures over the running machine, supplied by its creator (the
    engine); the monitor has no dependency on the machine layer, so
    every layer above [olden_trace] may call into it. *)
type probe = {
  stats : unit -> (string * int) list;
      (** the full [Stats.fields] of the live stats record *)
  busy : unit -> int array;
  comm : unit -> int array;
  recovery_stall : unit -> int array;
}

type t

val create : interval:int -> nprocs:int -> probe:probe -> t
(** A fresh monitor sampling at every [interval] simulated cycles.  The
    probe is first read when the first window closes, and each window
    reports the change since the previous one, starting from zero: create
    the monitor with the machine it samples.
    @raise Invalid_argument if [interval < 1]. *)

val interval : t -> int
val nprocs : t -> int

(** {2 Instrumentation hooks}

    All [cycles] are simulated-clock durations; [tick] carries the
    scheduler's global virtual time, which is monotonically
    non-decreasing across calls. *)

val tick : t -> int -> unit
(** Advance the window clock; closes every interval window the given
    time has passed. *)

val deref_in : t -> sid:int -> mech:mech -> cycles:int -> unit
(** A dereference episode completed: end-to-end latency [cycles], from
    the operation's entry to its completion on whichever processor
    finished it. *)

val migration : t -> cycles:int -> unit
(** A migrated computation restarted at its target: [cycles] from
    episode entry at the source to restart at the target. *)

val return_stub : t -> cycles:int -> unit
(** A return stub delivered its value back to the home processor. *)

val retry_wait : t -> cycles:int -> unit
(** A sender finished one backoff wait before retransmitting. *)

val recovery_stall : t -> cycles:int -> unit
(** A crashed processor completed its warm-restart protocol. *)

val request : t -> klass:string -> cycles:int -> unit
(** A served request completed: admission→completion latency [cycles],
    bucketed under its request-class label (from the serving mix
    grammar, e.g. ["point"]).  Adds a per-class dimension to the
    latency exports; sections appear only when at least one request was
    recorded, so batch runs export byte-identical documents. *)

(** {2 Lookup forms}

    For callers that hold no monitor handle: {!install} puts a monitor
    in a domain-local slot and {!deref} records into it.  Engines never
    read the slot. *)

val install : t -> unit
val uninstall : unit -> unit

val deref : sid:int -> mech:mech -> cycles:int -> unit
(** {!deref_in} into the installed monitor; a no-op when none is. *)

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
