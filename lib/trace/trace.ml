(* Structured event tracing for the Olden runtime.

   The engine, the cache system, and the coherence directories emit
   events into the run's emitter, a value the engine is created with
   and hands to the layers beneath it.  Tracing must cost nothing when
   it is off: every emission site is written

     if Trace.on t.trace then Trace.emit t.trace { ... }

   so with no sink the only work done is one field read of a record the
   layer already holds — no event record is ever allocated.

   Events are stamped with simulated time, processor, thread id, and
   dereference-site id.  The engine knows its current thread and site;
   the cache and directory layers run beneath it and pick the stamps up
   from the context set by {!set_thread} / {!set_site} (both writes are
   themselves guarded, so the context costs nothing when tracing is
   off). *)

type kind =
  | Migrate_send of { target : int }
  | Migrate_arrive of { source : int }
  | Return_send of { target : int }
  | Return_arrive of { source : int }
  | Future_spawn of { fid : int }
  | Future_resolve of { fid : int; waiters : int }
  | Future_touch of { fid : int; parked : bool }
  | Steal
  | Cache_hit of { home : int; page : int; line : int }
  | Cache_miss of { home : int; page : int; line : int }
  | Cache_flush of { entries : int }
  | Suspect_all
  | Revalidate of { home : int; page : int; dropped : int }
  | Inval_send of { target : int; page : int }
  | Inval_recv of { source : int; page : int; dropped : int }
  | Dir_write of { page : int; line : int }
  | Dir_release of { page : int; ts : int }
  | Remote_alloc of { home : int; words : int }
  | Phase_mark of string
  | Fault_drop of { dst : int; attempt : int; outage : bool }
  | Fault_delay of { dst : int; cycles : int }
  | Fault_dup of { dst : int }
  | Retry of { dst : int; attempt : int; wait : int }
  | Migrate_fallback of { home : int; attempts : int }
  | Crash of { pages_lost : int }
  | Recover of { homes : int; stall : int }
  | Failstop of { pages_lost : int }
  | Failover of { victim : int; pages : int; homes : int }

type event = {
  time : int;  (* simulated cycles *)
  proc : int;
  tid : int;  (* -1 when no thread applies *)
  site : int;  (* dereference-site id; -1 when no site applies *)
  kind : kind;
}

(* --- The sink ---------------------------------------------------------- *)

(* One run's emitter: the sink and the thread/site context the engine
   deposits for the cache and directory layers beneath it.  A run with
   no sink shares [off], whose context is never written (every write is
   guarded on [on]). *)
type t = {
  on : bool;
  sink : event -> unit;
  mutable cur_tid : int;
  mutable cur_site : int;
}

let off = { on = false; sink = ignore; cur_tid = -1; cur_site = -1 }
let create sink = { on = true; sink; cur_tid = -1; cur_site = -1 }
let on t = t.on
let emit t ev = t.sink ev

(* --- Emitter context --------------------------------------------------- *)

let set_thread t tid = t.cur_tid <- tid
let set_site t site = t.cur_site <- site
let thread t = t.cur_tid
let site t = t.cur_site

(* --- Collector --------------------------------------------------------- *)

module Collector = struct
  (* A grow-only vector (no Dynarray before OCaml 5.2). *)
  type t = { mutable arr : event option array; mutable len : int }

  let create () = { arr = Array.make 1024 None; len = 0 }

  let add c ev =
    if c.len = Array.length c.arr then begin
      let bigger = Array.make (2 * c.len) None in
      Array.blit c.arr 0 bigger 0 c.len;
      c.arr <- bigger
    end;
    c.arr.(c.len) <- Some ev;
    c.len <- c.len + 1

  let length c = c.len

  let events c =
    Array.init c.len (fun i ->
        match c.arr.(i) with Some ev -> ev | None -> assert false)
end

(* --- Names and structured arguments ------------------------------------ *)

let kind_name = function
  | Migrate_send _ -> "migrate_send"
  | Migrate_arrive _ -> "migrate_arrive"
  | Return_send _ -> "return_send"
  | Return_arrive _ -> "return_arrive"
  | Future_spawn _ -> "future_spawn"
  | Future_resolve _ -> "future_resolve"
  | Future_touch _ -> "future_touch"
  | Steal -> "steal"
  | Cache_hit _ -> "cache_hit"
  | Cache_miss _ -> "cache_miss"
  | Cache_flush _ -> "cache_flush"
  | Suspect_all -> "suspect_all"
  | Revalidate _ -> "revalidate"
  | Inval_send _ -> "inval_send"
  | Inval_recv _ -> "inval_recv"
  | Dir_write _ -> "dir_write"
  | Dir_release _ -> "dir_release"
  | Remote_alloc _ -> "remote_alloc"
  | Phase_mark _ -> "phase"
  | Fault_drop _ -> "fault_drop"
  | Fault_delay _ -> "fault_delay"
  | Fault_dup _ -> "fault_dup"
  | Retry _ -> "retry"
  | Migrate_fallback _ -> "migrate_fallback"
  | Crash _ -> "crash"
  | Recover _ -> "recover"
  | Failstop _ -> "failstop"
  | Failover _ -> "failover"

(* Payload fields beyond the common stamps, in a fixed order. *)
let kind_args = function
  | Migrate_send { target } | Return_send { target } ->
      [ ("target", Json.Int target) ]
  | Migrate_arrive { source } | Return_arrive { source } ->
      [ ("source", Json.Int source) ]
  | Future_spawn { fid } -> [ ("fid", Json.Int fid) ]
  | Future_resolve { fid; waiters } ->
      [ ("fid", Json.Int fid); ("waiters", Json.Int waiters) ]
  | Future_touch { fid; parked } ->
      [ ("fid", Json.Int fid); ("parked", Json.Bool parked) ]
  | Steal -> []
  | Cache_hit { home; page; line } | Cache_miss { home; page; line } ->
      [ ("home", Json.Int home); ("page", Json.Int page);
        ("line", Json.Int line) ]
  | Cache_flush { entries } -> [ ("entries", Json.Int entries) ]
  | Suspect_all -> []
  | Revalidate { home; page; dropped } ->
      [ ("home", Json.Int home); ("page", Json.Int page);
        ("dropped", Json.Int dropped) ]
  | Inval_send { target; page } ->
      [ ("target", Json.Int target); ("page", Json.Int page) ]
  | Inval_recv { source; page; dropped } ->
      [ ("source", Json.Int source); ("page", Json.Int page);
        ("dropped", Json.Int dropped) ]
  | Dir_write { page; line } ->
      [ ("page", Json.Int page); ("line", Json.Int line) ]
  | Dir_release { page; ts } ->
      [ ("page", Json.Int page); ("ts", Json.Int ts) ]
  | Remote_alloc { home; words } ->
      [ ("home", Json.Int home); ("words", Json.Int words) ]
  | Phase_mark name -> [ ("name", Json.String name) ]
  | Fault_drop { dst; attempt; outage } ->
      [ ("dst", Json.Int dst); ("attempt", Json.Int attempt);
        ("outage", Json.Bool outage) ]
  | Fault_delay { dst; cycles } ->
      [ ("dst", Json.Int dst); ("cycles", Json.Int cycles) ]
  | Fault_dup { dst } -> [ ("dst", Json.Int dst) ]
  | Retry { dst; attempt; wait } ->
      [ ("dst", Json.Int dst); ("attempt", Json.Int attempt);
        ("wait", Json.Int wait) ]
  | Migrate_fallback { home; attempts } ->
      [ ("home", Json.Int home); ("attempts", Json.Int attempts) ]
  | Crash { pages_lost } | Failstop { pages_lost } ->
      [ ("pages_lost", Json.Int pages_lost) ]
  | Recover { homes; stall } ->
      [ ("homes", Json.Int homes); ("stall", Json.Int stall) ]
  | Failover { victim; pages; homes } ->
      [ ("victim", Json.Int victim); ("pages", Json.Int pages);
        ("homes", Json.Int homes) ]

(* One line per event: the JSONL schema (docs/OBSERVABILITY.md). *)
let event_json ev =
  let stamps =
    [ ("t", Json.Int ev.time); ("proc", Json.Int ev.proc);
      ("tid", Json.Int ev.tid); ("site", Json.Int ev.site);
      ("ev", Json.String (kind_name ev.kind)) ]
  in
  Json.Obj (stamps @ kind_args ev.kind)
