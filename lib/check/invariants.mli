(** Coherence and delivery invariants over a finished run.

    The fault layer may change {e when} things happen, never {e what}
    state the protocols apply.  After a run completes these checks audit
    that claim: exactly-once delivery (every duplicate suppressed), sane
    fault counters, the busy + comm + idle accounting identity, home
    directory sharer sets consistent with the translation tables, no
    structurally impossible cache entries, fail-stop failover soundness
    (no send ever resolved to a dead processor, every home-map entry
    names a live server, death counters agree across the layers), and —
    given the digest of a fault-free reference run — a structurally
    equal final heap.

    Used by [olden-run chaos] and the chaos test suite; see
    docs/ROBUSTNESS.md. *)

type violation = { rule : string; detail : string }

val pp_violation : Format.formatter -> violation -> unit

val heap_digest : Olden_runtime.Engine.t -> string
(** Digest of the engine's final heap ({!Memory.digest}); feed it back as
    [expected_heap] when checking a faulty run of the same program. *)

val check :
  ?expected_heap:string -> Olden_runtime.Engine.t -> violation list
(** Every applicable invariant; empty means the run is clean.  The
    sharer-set and sharer-epoch checks only apply under the global
    coherence scheme (the epoch check additionally needs an active
    fault schedule, which is when crash tracking exists); the heap
    comparison only runs when [expected_heap] is given.  A non-empty
    result dumps the run's flight recorder, if it has one
    ({!Olden_runtime.Engine.flight_dump}). *)
