(* Causal span tracing for the Olden runtime.

   Every dereference opens a *root* span identified by a trace id
   (origin processor, per-processor sequence number); the engine and the
   machine layer then emit *child* spans under the run's trace context — the
   current trace id plus the current parent span id — which is saved
   into scheduled-event closures and restored when they run, so
   migration legs, return stubs, retransmits, duplicate-suppressed
   deliveries, recovery messages, and crash replays all land in one
   causal tree even though they execute on other processors' clocks.

   Span kinds split three ways:

   - roots ([Deref], [Return]) — one per episode;
   - hops ([Send] .. [Stall]) — intervals that tile the episode: the
     durations of a root's direct hop children plus a synthesized
     "compute" residual always sum exactly to the episode latency
     (see {!explain});
   - events ([Drop] .. [Crash]) — point or overlapping annotations
     (fault decisions, retries, RPC envelopes) that explain *why* the
     hops took as long as they did.

   Like {!Trace}, emission must cost nothing when off: the run's span
   state is a value the engine is created with and hands to the layers
   beneath it, and every hot site is guarded by [on sp], one field read
   of a record they already hold.  The state has two consumers with
   different cost budgets: the collector (allocates one record per kept
   span, for export, explain and tests) and the flight recorder
   ({!Flight}, a fixed int ring that is allocation-free and can stay on
   for whole chaos runs).  [on] is true when either is attached. *)

module Json = Olden_trace.Json

type kind =
  | Deref (* root: one dereference episode; a = site, b = mechanism *)
  | Return (* root: return stub to origin; a = target proc *)
  | Send (* hop: request marshalling + send occupancy; a = target *)
  | Wire (* hop: network latency *)
  | Penalty (* hop: fault-injected delivery penalty; a = cycles *)
  | Queue (* hop: waiting in the target's event queue *)
  | Replay (* hop: crash-recovery replay before the op re-runs *)
  | Recv (* hop: receive + cache/thread state acquisition *)
  | Service (* hop: running the continuation at the target *)
  | Cache_service (* hop: software-cache service after a fallback *)
  | Stall (* hop: sender stalled by failed delivery; a = penalty, b = attempts *)
  | Drop (* event: message dropped; a = attempt, b = 1 if outage *)
  | Backoff (* event: retry backoff wait; a = attempt, b = wait *)
  | Delay (* event: fault-injected extra latency; a = cycles *)
  | Dup (* event: duplicate delivery suppressed *)
  | Fallback (* event: migration degraded to caching; a = home, b = attempts *)
  | Rpc (* event: one request/reply envelope; a = dst, b = klass code *)
  | Crash (* event: crash + warm restart; a = pages lost, b = homes notified *)
  | Failover (* event: fail-stop promotion; a = pages moved, b = victim *)
  | Request (* root: one served request; a = class code, b = ingress proc *)

type span = {
  trace_proc : int; (* trace id: processor that opened the root... *)
  trace_seq : int; (* ...and its per-processor root sequence number *)
  id : int; (* unique within a run, in emission order of [enter]/[child] *)
  parent : int; (* parent span id; -1 for roots *)
  kind : kind;
  proc : int; (* processor whose clock domain times this span *)
  t0 : int; (* simulated cycles, inclusive *)
  t1 : int; (* simulated cycles; t0 = t1 for point events *)
  a : int; (* kind-specific payload (see above) *)
  b : int;
}

let kind_code = function
  | Deref -> 0
  | Return -> 1
  | Send -> 2
  | Wire -> 3
  | Penalty -> 4
  | Queue -> 5
  | Replay -> 6
  | Recv -> 7
  | Service -> 8
  | Cache_service -> 9
  | Stall -> 10
  | Drop -> 11
  | Backoff -> 12
  | Delay -> 13
  | Dup -> 14
  | Fallback -> 15
  | Rpc -> 16
  | Crash -> 17
  | Failover -> 18
  | Request -> 19

let kind_of_code = function
  | 0 -> Deref
  | 1 -> Return
  | 2 -> Send
  | 3 -> Wire
  | 4 -> Penalty
  | 5 -> Queue
  | 6 -> Replay
  | 7 -> Recv
  | 8 -> Service
  | 9 -> Cache_service
  | 10 -> Stall
  | 11 -> Drop
  | 12 -> Backoff
  | 13 -> Delay
  | 14 -> Dup
  | 15 -> Fallback
  | 16 -> Rpc
  | 17 -> Crash
  | 18 -> Failover
  | 19 -> Request
  | c -> invalid_arg (Printf.sprintf "Span.kind_of_code: %d" c)

let kind_name = function
  | Deref -> "deref"
  | Return -> "return"
  | Send -> "send"
  | Wire -> "wire"
  | Penalty -> "penalty"
  | Queue -> "queue"
  | Replay -> "replay"
  | Recv -> "recv"
  | Service -> "service"
  | Cache_service -> "cache_service"
  | Stall -> "stall"
  | Drop -> "drop"
  | Backoff -> "backoff"
  | Delay -> "delay"
  | Dup -> "dup"
  | Fallback -> "fallback"
  | Rpc -> "rpc"
  | Crash -> "crash"
  | Failover -> "failover"
  | Request -> "request"

(* Hops tile an episode; events annotate it; roots own it. *)
let is_hop = function
  | Send | Wire | Penalty | Queue | Replay | Recv | Service | Cache_service
  | Stall ->
      true
  | Deref | Return | Drop | Backoff | Delay | Dup | Fallback | Rpc | Crash
  | Failover | Request ->
      false

let is_root = function Deref | Return | Request -> true | _ -> false

(* --- Collector ----------------------------------------------------------- *)

(* The export consumer keeps span records in fixed-size chunks: an [add]
   never copies what is already held and never boxes a slot.  [spans]
   blits the chunks into one array of exact size.

   Retention.  Most dereferences are local or software-cache hits that
   complete in place in a few cycles; materializing each as an 11-word
   record is what made the stream unbounded.  So a [Deref] root whose
   mechanism is local or cache, that has a site, and that emitted no
   child span is *folded*: it adds one to its (site, mechanism) counter
   and its cycles to that counter's total, in flat int arrays indexed by
   [sid * 2 + mech] — no allocation, no lookup.  Every other root, and
   every child span, is kept.

   Exemplars.  Per mechanism, a {!Tail} holds the trace ids of the worst
   [Tail.slots] [Deref] roots.  A root that enters its tail is kept even
   when it could fold, so every exemplar names a root in the stream. *)

type fold = { site : int; mech : int; count : int; cycles : int }

type exemplar = {
  ex_mech : int;
  ex_cycles : int;
  ex_trace_proc : int;
  ex_trace_seq : int;
}

type retention = { folds : fold array; exemplars : exemplar list }

(* Keep the worst [slots] episodes: append while there is room, then
   displace the first smallest held entry when a new episode is strictly
   worse.  The first smallest slot is cached ([low]) and found again only
   after a displacement, so a rejected episode costs one comparison. *)
module Tail = struct
  let slots = 16

  type t = {
    cy : int array; (* episode cycles per slot *)
    tp : int array; (* trace proc per slot *)
    ts : int array; (* trace seq per slot *)
    mutable n : int; (* slots in use *)
    mutable low : int; (* the first smallest slot, once [n = slots] *)
  }

  let create () =
    {
      cy = Array.make slots 0;
      tp = Array.make slots 0;
      ts = Array.make slots 0;
      n = 0;
      low = 0;
    }

  let rescan t =
    let low = ref 0 in
    for i = 1 to slots - 1 do
      if t.cy.(i) < t.cy.(!low) then low := i
    done;
    t.low <- !low

  let set t i ~cycles ~tp ~ts =
    t.cy.(i) <- cycles;
    t.tp.(i) <- tp;
    t.ts.(i) <- ts

  (* Whether the episode entered the tail. *)
  let note t ~cycles ~tp ~ts =
    let n = t.n in
    if n = slots then
      cycles > t.cy.(t.low)
      && begin
           set t t.low ~cycles ~tp ~ts;
           rescan t;
           true
         end
    else begin
      set t n ~cycles ~tp ~ts;
      t.n <- n + 1;
      if n + 1 = slots then rescan t;
      true
    end
end

let exemplar_slots = Tail.slots

module Collector = struct
  let chunk_size = 4096

  let blank =
    {
      trace_proc = -1;
      trace_seq = -1;
      id = -1;
      parent = -1;
      kind = Deref;
      proc = -1;
      t0 = 0;
      t1 = 0;
      a = 0;
      b = 0;
    }

  type t = {
    mutable full : span array list; (* filled chunks, newest first *)
    mutable nfull : int;
    mutable cur : span array;
    mutable pos : int; (* next free slot of [cur] *)
    mutable fold_n : int array; (* folded roots, by sid * 2 + mech *)
    mutable fold_cy : int array; (* their summed cycles, same index *)
    tails : Tail.t array; (* exemplar tail per mechanism code *)
  }

  let create () =
    {
      full = [];
      nfull = 0;
      cur = Array.make chunk_size blank;
      pos = 0;
      fold_n = Array.make 512 0;
      fold_cy = Array.make 512 0;
      tails = Array.init 4 (fun _ -> Tail.create ());
    }

  let add c sp =
    if c.pos = chunk_size then begin
      c.full <- c.cur :: c.full;
      c.nfull <- c.nfull + 1;
      c.cur <- Array.make chunk_size blank;
      c.pos <- 0
    end;
    c.cur.(c.pos) <- sp;
    c.pos <- c.pos + 1

  let length c = (c.nfull * chunk_size) + c.pos

  let spans c =
    let out = Array.make (length c) blank in
    List.iteri
      (fun i chunk ->
        Array.blit chunk 0 out ((c.nfull - 1 - i) * chunk_size) chunk_size)
      c.full;
    Array.blit c.cur 0 out (c.nfull * chunk_size) c.pos;
    out

  (* Cold: a site beyond the counters seen so far. *)
  let grow c k =
    let len = max (k + 1) (2 * Array.length c.fold_n) in
    let widen a =
      let w = Array.make len 0 in
      Array.blit a 0 w 0 (Array.length a);
      w
    in
    c.fold_n <- widen c.fold_n;
    c.fold_cy <- widen c.fold_cy

  (* A closing [Deref] root: note it in its mechanism's tail, then fold
     it if the retention rule allows.  True when folded (not kept). *)
  let deref_root c ~tp ~ts ~childless ~t0 ~t1 ~a ~b =
    let cycles = t1 - t0 in
    let held = b >= 0 && b < 4 && Tail.note c.tails.(b) ~cycles ~tp ~ts in
    if held || (not childless) || a < 0 || b < 0 || b > 1 then false
    else begin
      let k = (a * 2) + b in
      if k >= Array.length c.fold_n then grow c k;
      c.fold_n.(k) <- c.fold_n.(k) + 1;
      c.fold_cy.(k) <- c.fold_cy.(k) + cycles;
      true
    end

  let folds c =
    let out = ref [] in
    for k = Array.length c.fold_n - 1 downto 0 do
      if c.fold_n.(k) > 0 then
        out :=
          { site = k / 2; mech = k mod 2; count = c.fold_n.(k);
            cycles = c.fold_cy.(k) }
          :: !out
    done;
    Array.of_list !out

  (* Every held exemplar, worst first, ties broken by trace id. *)
  let exemplars c =
    let out = ref [] in
    Array.iteri
      (fun m (t : Tail.t) ->
        for i = 0 to t.n - 1 do
          out :=
            {
              ex_mech = m;
              ex_cycles = t.cy.(i);
              ex_trace_proc = t.tp.(i);
              ex_trace_seq = t.ts.(i);
            }
            :: !out
        done)
      c.tails;
    List.sort
      (fun a b ->
        if a.ex_cycles <> b.ex_cycles then compare b.ex_cycles a.ex_cycles
        else
          compare
            (a.ex_trace_proc, a.ex_trace_seq)
            (b.ex_trace_proc, b.ex_trace_seq))
      !out

  let retention c = { folds = folds c; exemplars = exemplars c }
end

(* --- The run's span state ------------------------------------------------- *)

(* Everything one run's spans need — the collector, the flight recorder,
   the in-flight trace context, and the per-processor sequence/last-span
   arrays — lives in one record the engine is created with and hands to
   the layers beneath it.  Two engines, on one domain or on several,
   never share it, and a fresh record restarts ids and sequences, so
   same-seed runs export byte-identical spans.  A run with neither
   consumer shares [off], which nothing writes: every write is guarded
   on [on]. *)

type t = {
  on : bool; (* a collector or a flight recorder is attached *)
  collector : Collector.t option;
  flight : Flight.t option;
  mutable next_id : int;
  mutable ctx_tp : int; (* trace id of the episode in flight, -1 when none *)
  mutable ctx_ts : int;
  mutable ctx_parent : int; (* span id new children attach to *)
  mutable root_id : int;
  mutable root_t0 : int;
  mutable root_proc : int;
  mutable root_kind : kind;
  root_seq : int array; (* next trace_seq per processor *)
  last_span : int array; (* last span id emitted per proc *)
}

let create ?collector ?flight ~nprocs () =
  {
    on = collector <> None || flight <> None;
    collector;
    flight;
    next_id = 0;
    ctx_tp = -1;
    ctx_ts = -1;
    ctx_parent = -1;
    root_id = -1;
    root_t0 = 0;
    root_proc = -1;
    root_kind = Deref;
    root_seq = Array.make nprocs 0;
    last_span = Array.make nprocs (-1);
  }

let off = create ~nprocs:0 ()
let on g = g.on

(* --- Trace context ------------------------------------------------------- *)

type saved = {
  s_tp : int;
  s_ts : int;
  s_parent : int;
  s_root : int;
  s_rt0 : int;
  s_rproc : int;
  s_rkind : kind;
}

let no_ctx =
  {
    s_tp = -1;
    s_ts = -1;
    s_parent = -1;
    s_root = -1;
    s_rt0 = 0;
    s_rproc = -1;
    s_rkind = Deref;
  }

let save g =
  {
    s_tp = g.ctx_tp;
    s_ts = g.ctx_ts;
    s_parent = g.ctx_parent;
    s_root = g.root_id;
    s_rt0 = g.root_t0;
    s_rproc = g.root_proc;
    s_rkind = g.root_kind;
  }

let restore g s =
  g.ctx_tp <- s.s_tp;
  g.ctx_ts <- s.s_ts;
  g.ctx_parent <- s.s_parent;
  g.root_id <- s.s_root;
  g.root_t0 <- s.s_rt0;
  g.root_proc <- s.s_rproc;
  g.root_kind <- s.s_rkind

(* [restore g no_ctx], written out: it runs on every root close. *)
let clear g =
  g.ctx_tp <- -1;
  g.ctx_ts <- -1;
  g.ctx_parent <- -1;
  g.root_id <- -1;
  g.root_t0 <- 0;
  g.root_proc <- -1;
  g.root_kind <- Deref

let trace_proc g = g.ctx_tp
let parent g = g.ctx_parent
let root_open g = g.root_id >= 0

let last_span_on g proc =
  if proc < Array.length g.last_span then g.last_span.(proc) else -1

(* --- Emission ----------------------------------------------------------- *)

(* The collector consumer allocates the record; the flight recorder
   stores raw ints.  Guarding each consumer separately keeps the
   flight-only path (chaos runs) allocation-free.  [note] is everything
   but the collector: what a folded root still does. *)
let note g ~tp ~ts ~id ~parent ~kind ~proc ~t0 ~t1 ~a ~b =
  if proc >= 0 && proc < Array.length g.last_span then g.last_span.(proc) <- id;
  match g.flight with
  | Some f ->
      Flight.note f ~tp ~ts ~id ~parent ~kind:(kind_code kind) ~proc ~t0 ~t1
        ~a ~b
  | None -> ()

let keep c ~tp ~ts ~id ~parent ~kind ~proc ~t0 ~t1 ~a ~b =
  Collector.add c
    { trace_proc = tp; trace_seq = ts; id; parent; kind; proc; t0; t1; a; b }

let emit_raw g ~tp ~ts ~id ~parent ~kind ~proc ~t0 ~t1 ~a ~b =
  note g ~tp ~ts ~id ~parent ~kind ~proc ~t0 ~t1 ~a ~b;
  match g.collector with
  | Some c -> keep c ~tp ~ts ~id ~parent ~kind ~proc ~t0 ~t1 ~a ~b
  | None -> ()

let fresh_id g =
  let id = g.next_id in
  g.next_id <- id + 1;
  id

let open_root g ~kind ~proc ~t0 =
  let seq = g.root_seq.(proc) in
  g.root_seq.(proc) <- seq + 1;
  g.ctx_tp <- proc;
  g.ctx_ts <- seq;
  let id = fresh_id g in
  g.root_id <- id;
  g.ctx_parent <- id;
  g.root_t0 <- t0;
  g.root_proc <- proc;
  g.root_kind <- kind

(* A root is childless when no span id was handed out since it opened:
   the local and cache episodes the collector may fold complete in
   place, so nothing else can take an id in between. *)
let close_root g ~t1 ~a ~b =
  let id = g.root_id in
  if id >= 0 then begin
    let tp = g.ctx_tp and ts = g.ctx_ts and kind = g.root_kind in
    let proc = g.root_proc and t0 = g.root_t0 in
    note g ~tp ~ts ~id ~parent:(-1) ~kind ~proc ~t0 ~t1 ~a ~b;
    (match g.collector with
    | None -> ()
    | Some c -> (
        match kind with
        | Deref
          when Collector.deref_root c ~tp ~ts
                 ~childless:(g.next_id = id + 1) ~t0 ~t1 ~a ~b ->
            ()
        | _ -> keep c ~tp ~ts ~id ~parent:(-1) ~kind ~proc ~t0 ~t1 ~a ~b));
    clear g
  end

(* A complete root episode in one shot (used for request roots, emitted
   at completion).  Unlike [open_root]/[close_root] this never touches
   the trace context, so the dereference roots the request's body
   opened and closed on its own clock are unaffected — the request root
   gets its own trace id and stands alone in the stream. *)
let root g ~kind ~proc ~t0 ~t1 ~a ~b =
  let seq = g.root_seq.(proc) in
  g.root_seq.(proc) <- seq + 1;
  emit_raw g ~tp:proc ~ts:seq ~id:(fresh_id g) ~parent:(-1) ~kind ~proc ~t0
    ~t1 ~a ~b

let child_in g ~kind ~proc ~t0 ~t1 ~a ~b =
  emit_raw g ~tp:g.ctx_tp ~ts:g.ctx_ts ~id:(fresh_id g) ~parent:g.ctx_parent
    ~kind ~proc ~t0 ~t1 ~a ~b

(* Nested envelope spans (RPC, crash): reserve the id up front so fault
   events emitted inside attach to it, emit the envelope on exit.
   Usage:  let prev = parent g in let id = enter g in
           ... ; exit_emit g ~id ~prev ~kind ... *)
let enter g =
  let id = fresh_id g in
  g.ctx_parent <- id;
  id

let exit_emit g ~id ~prev ~kind ~proc ~t0 ~t1 ~a ~b =
  g.ctx_parent <- prev;
  emit_raw g ~tp:g.ctx_tp ~ts:g.ctx_ts ~id ~parent:prev ~kind ~proc ~t0 ~t1
    ~a ~b

(* --- Lookup forms -------------------------------------------------------- *)

(* A domain-local slot for callers that hold no span state: [collect]
   fills it for the duration of a thunk, and [is_on]/[child] read it.
   Nothing in the simulator reads it; engines use their own state. *)
let slot = Domain.DLS.new_key (fun () -> ref off)
let is_on () = !(Domain.DLS.get slot).on

let child ~kind ~proc ~t0 ~t1 ~a ~b =
  let g = !(Domain.DLS.get slot) in
  if g.on then child_in g ~kind ~proc ~t0 ~t1 ~a ~b

let collect f =
  let c = Collector.create () in
  let cell = Domain.DLS.get slot in
  let prev = !cell in
  cell := create ~collector:c ~nprocs:1 ();
  Fun.protect
    ~finally:(fun () -> cell := prev)
    (fun () ->
      let result = f () in
      (result, Collector.spans c, Collector.retention c))

(* --- olden-spans/v2 JSONL ------------------------------------------------ *)

let trace_label tp ts = string_of_int tp ^ ":" ^ string_of_int ts

let span_json sp =
  Json.Obj
    [
      ("trace", Json.String (trace_label sp.trace_proc sp.trace_seq));
      ("id", Json.Int sp.id);
      ("parent", Json.Int sp.parent);
      ("kind", Json.String (kind_name sp.kind));
      ("proc", Json.Int sp.proc);
      ("t0", Json.Int sp.t0);
      ("t1", Json.Int sp.t1);
      ("a", Json.Int sp.a);
      ("b", Json.Int sp.b);
    ]

let fold_json f =
  Json.Obj
    [
      ( "fold",
        Json.Obj
          [
            ("site", Json.Int f.site);
            ("mech", Json.String (if f.mech = 0 then "local" else "cache"));
            ("count", Json.Int f.count);
            ("cycles", Json.Int f.cycles);
          ] );
    ]

let folded folds = Array.fold_left (fun n f -> n + f.count) 0 folds

let jsonl ~folds spans =
  let b = Buffer.create 4096 in
  let line j =
    Json.to_buffer b j;
    Buffer.add_char b '\n'
  in
  line
    (Json.Obj
       [
         ("schema", Json.String "olden-spans/v2");
         ("spans", Json.Int (Array.length spans));
         ("folded", Json.Int (folded folds));
       ]);
  Array.iter (fun sp -> line (span_json sp)) spans;
  Array.iter (fun f -> line (fold_json f)) folds;
  Buffer.contents b

(* --- Chrome trace_event export ------------------------------------------ *)

(* Complete ("X") slices, one track per processor, plus flow arrows from
   a parent span's track to each child that runs on a different
   processor — migration legs and return stubs draw as arrows across
   tracks.  Cycles render as microseconds, like {!Chrome_trace}. *)
let chrome_json ~nprocs spans =
  let meta name tid args =
    Json.Obj
      [
        ("name", Json.String name);
        ("ph", Json.String "M");
        ("pid", Json.Int 0);
        ("tid", Json.Int tid);
        ("args", Json.Obj args);
      ]
  in
  let metadata =
    meta "process_name" 0 [ ("name", Json.String "olden spans") ]
    :: List.concat
         (List.init nprocs (fun p ->
              [
                meta "thread_name" p
                  [ ("name", Json.String (Printf.sprintf "proc %d" p)) ];
                meta "thread_sort_index" p [ ("sort_index", Json.Int p) ];
              ]))
  in
  let by_id = Hashtbl.create (Array.length spans) in
  Array.iter (fun sp -> Hashtbl.replace by_id sp.id sp) spans;
  let slice sp =
    Json.Obj
      [
        ("name", Json.String (kind_name sp.kind));
        ("ph", Json.String "X");
        ("ts", Json.Int sp.t0);
        ("dur", Json.Int (sp.t1 - sp.t0));
        ("pid", Json.Int 0);
        ("tid", Json.Int sp.proc);
        ( "args",
          Json.Obj
            [
              ("trace", Json.String (trace_label sp.trace_proc sp.trace_seq));
              ("id", Json.Int sp.id);
              ("parent", Json.Int sp.parent);
              ("a", Json.Int sp.a);
              ("b", Json.Int sp.b);
            ] );
      ]
  in
  let flow ~phase ~id ~ts ~tid extra =
    Json.Obj
      ([
         ("name", Json.String "causal");
         ("cat", Json.String "flow");
         ("ph", Json.String phase);
         ("id", Json.Int id);
         ("ts", Json.Int ts);
         ("pid", Json.Int 0);
         ("tid", Json.Int tid);
       ]
      @ extra)
  in
  let flows = ref [] in
  Array.iter
    (fun sp ->
      if sp.parent >= 0 then
        match Hashtbl.find_opt by_id sp.parent with
        | Some pa when pa.proc <> sp.proc && pa.proc >= 0 && sp.proc >= 0 ->
            flows :=
              flow ~phase:"f" ~id:sp.id ~ts:sp.t0 ~tid:sp.proc
                [ ("bp", Json.String "e") ]
              :: flow ~phase:"s" ~id:sp.id ~ts:(min pa.t1 sp.t0) ~tid:pa.proc []
              :: !flows
        | _ -> ())
    spans;
  let slices = Array.to_list (Array.map slice spans) in
  Json.Obj
    [
      ("traceEvents", Json.List (metadata @ slices @ List.rev !flows));
      ("displayTimeUnit", Json.String "ms");
      ( "otherData",
        Json.Obj
          [
            ("schema", Json.String "olden-spans/v2");
            ("time_unit", Json.String "simulated cycles (shown as us)");
          ] );
    ]

let chrome_to_string ~nprocs spans =
  Json.to_string (chrome_json ~nprocs spans) ^ "\n"

(* --- Episode reconstruction & explain ----------------------------------- *)

type node = { span : span; mutable kids : node list (* reverse order *) }

(* Build the causal tree of one episode, identified by its trace id.
   Returns the root node, or [None] if the trace id never completed a
   root span. *)
let episode_tree spans ~trace_proc ~trace_seq =
  let mine =
    Array.to_list spans
    |> List.filter (fun sp ->
           sp.trace_proc = trace_proc && sp.trace_seq = trace_seq)
  in
  let nodes = List.map (fun sp -> (sp.id, { span = sp; kids = [] })) mine in
  let find id = List.assoc_opt id nodes in
  let root = ref None in
  List.iter
    (fun (_, n) ->
      if n.span.parent < 0 then begin
        if is_root n.span.kind then root := Some n
      end
      else
        match find n.span.parent with
        | Some p -> p.kids <- n :: p.kids
        | None -> ())
    nodes;
  (match !root with
  | Some r ->
      let rec order n =
        n.kids <-
          List.sort
            (fun x y ->
              if x.span.t0 <> y.span.t0 then compare x.span.t0 y.span.t0
              else compare x.span.id y.span.id)
            (List.rev n.kids);
        List.iter order n.kids
      in
      order r
  | None -> ());
  !root

let mech_names = [| "local"; "cache"; "migrate"; "fallback" |]
let klass_names = [| "data"; "migration"; "return"; "recovery"; "replica" |]
let request_class_names = [| "point"; "scan"; "update" |]

let array_name names i =
  if i >= 0 && i < Array.length names then names.(i) else string_of_int i

(* One human line per span kind; [site_name] labels dereference sites. *)
let describe ~site_name sp =
  let dur = sp.t1 - sp.t0 in
  let iv =
    if dur = 0 then Printf.sprintf "@%d" sp.t0
    else Printf.sprintf "[%d, %d] %d cy" sp.t0 sp.t1 dur
  in
  let detail =
    match sp.kind with
    | Deref ->
        Printf.sprintf "site %s mech=%s" (site_name sp.a)
          (array_name mech_names sp.b)
    | Return -> Printf.sprintf "to proc %d" sp.a
    | Send -> Printf.sprintf "to proc %d" sp.a
    | Wire -> "network latency"
    | Penalty -> Printf.sprintf "delivery penalty %d cy" sp.a
    | Queue -> "queued at target"
    | Replay -> "crash-recovery replay"
    | Recv -> "receive + state acquisition"
    | Service -> "continuation at target"
    | Cache_service -> "software-cache service"
    | Stall -> Printf.sprintf "sender stalled %d cy after %d attempts" sp.a sp.b
    | Drop ->
        Printf.sprintf "attempt %d dropped%s" sp.a
          (if sp.b <> 0 then " (outage)" else "")
    | Backoff -> Printf.sprintf "retry backoff %d cy before attempt %d" sp.b sp.a
    | Delay -> Printf.sprintf "delivery delayed %d cy" sp.a
    | Dup -> "duplicate suppressed"
    | Fallback ->
        Printf.sprintf "gave up migrating to home %d after %d attempts" sp.a
          sp.b
    | Rpc -> Printf.sprintf "dst=%d klass=%s" sp.a (array_name klass_names sp.b)
    | Crash -> Printf.sprintf "%d pages lost, %d homes notified" sp.a sp.b
    | Failover ->
        Printf.sprintf "%d home pages promoted after p%d fail-stopped" sp.a
          sp.b
    | Request ->
        Printf.sprintf "class=%s ingress proc %d"
          (array_name request_class_names sp.a)
          sp.b
  in
  Printf.sprintf "%-13s proc %d  %-22s %s" (kind_name sp.kind) sp.proc iv
    detail

(* Pretty-print one episode's full causal chain: the tree, then the hop
   accounting.  Direct hop children tile the root interval; whatever the
   instrumented hops do not cover (pointer tests, local compute) is
   reported as one synthesized "(compute)" residual, so per-hop cycles
   always sum exactly to the episode latency. *)
let explain b ~site_name spans ~trace_proc ~trace_seq =
  match episode_tree spans ~trace_proc ~trace_seq with
  | None ->
      Buffer.add_string b
        (Printf.sprintf "  trace %s: no completed episode recorded\n"
           (trace_label trace_proc trace_seq))
  | Some root ->
      let rsp = root.span in
      let episode = rsp.t1 - rsp.t0 in
      Buffer.add_string b
        (Printf.sprintf "trace %s  span %d  %s\n"
           (trace_label trace_proc trace_seq)
           rsp.id (describe ~site_name rsp));
      let rec pp indent n =
        List.iter
          (fun k ->
            Buffer.add_string b
              (Printf.sprintf "%s%s %s\n" indent
                 (if is_hop k.span.kind then "+" else "*")
                 (describe ~site_name k.span));
            pp (indent ^ "  ") k)
          n.kids
      in
      pp "  " root;
      let hops = List.filter (fun k -> is_hop k.span.kind) root.kids in
      let hop_sum =
        List.fold_left (fun acc k -> acc + (k.span.t1 - k.span.t0)) 0 hops
      in
      let residual = episode - hop_sum in
      Buffer.add_string b "  hop accounting:\n";
      List.iter
        (fun k ->
          Buffer.add_string b
            (Printf.sprintf "    %-13s %8d cy\n"
               (kind_name k.span.kind)
               (k.span.t1 - k.span.t0)))
        hops;
      if residual <> 0 then
        Buffer.add_string b
          (Printf.sprintf "    %-13s %8d cy\n" "(compute)" residual);
      Buffer.add_string b
        (Printf.sprintf "    %-13s %8d cy  (episode %d cy)\n" "total"
           (hop_sum + residual) episode)

(* --- Flight-recorder dump ------------------------------------------------ *)

let render_flight_event ev =
  Printf.sprintf
    "trace=%s id=%d parent=%d kind=%s proc=%d t=[%d, %d] a=%d b=%d"
    (trace_label ev.(0) ev.(1))
    ev.(2) ev.(3)
    (kind_name (kind_of_code ev.(4)))
    ev.(5) ev.(6) ev.(7) ev.(8) ev.(9)

let flight_dump g ~reason ~state =
  Option.map
    (fun f -> Flight.dump f ~reason ~state ~render:render_flight_event)
    g.flight
