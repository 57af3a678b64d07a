(* The complete software-caching subsystem: one translation table per
   processor, one home directory per processor, and the three coherence
   protocols of the paper wired to the machine's cost model.

   Reads and writes here are those the compiler assigned to the *caching*
   mechanism; migration-mechanism references never reach this module. *)

module G = Olden_config.Geometry
module C = Olden_config
module Trace = Olden_trace.Trace

type t = {
  cfg : C.t;
  machine : Machine.t;
  memory : Memory.t;
  tables : Translation.t array;
  directories : Directory.t array;
  trace : Trace.t; (* the run's emitter, guards every emit *)
}

let create cfg machine memory =
  let n = cfg.C.nprocs in
  let trace = (Machine.obs machine).Obs.trace in
  {
    cfg;
    machine;
    memory;
    tables = Array.init n (fun _ -> Translation.create ());
    directories =
      Array.init n (fun home ->
          (* the home's clock stamps the directory's own trace events;
             registration times are tracked only under a fault schedule,
             for the recovery checker's sharer-epoch invariant.  The
             clock reads through the home map: after a fail-stop
             failover the directory is served by the promoted backup,
             so its stamps come from the successor's clock. *)
          Directory.create ~home ~trace
            ~clock:(fun () -> Machine.now machine (Machine.home_of machine home))
            ~track_registrations:(cfg.C.faults <> None) ());
    trace;
  }

let table t proc = t.tables.(proc)
let directory t home = t.directories.(home)
let stats t = Machine.stats t.machine
let coherence t = t.cfg.C.coherence
let costs t = t.cfg.C.costs

(* Stamp an event with [proc]'s clock and the engine-deposited thread /
   site context.  Only ever called under a [Trace.on t.trace] guard. *)
let emit t ~proc kind =
  Trace.emit t.trace
    { Trace.time = Machine.now t.machine proc; proc;
      tid = Trace.thread t.trace; site = Trace.site t.trace; kind }

(* Locate (or allocate, on first touch) the cache entry on [proc] for the
   page containing word [addr] of processor [home]. *)
let entry_for t ~proc ~home ~addr =
  let gpage = (home lsl 16) lor G.page_of_word addr in
  let tbl = t.tables.(proc) in
  let e = Translation.probe tbl gpage in
  if e != Translation.no_entry then e
  else begin
    let s = stats t in
    s.Stats.pages_cached <- s.Stats.pages_cached + 1;
    Translation.insert tbl ~gpage ~home ~page_index:(G.page_of_word addr)
  end

(* Bilateral: a suspect page must be revalidated against its home before
   use; the home answers with the mask of lines written since the copy's
   timestamp. *)
let revalidate t ~proc (e : Translation.entry) =
  let c = costs t in
  ignore
    (Machine.request_reply t.machine ~src:proc ~dst:e.home
       ~service:c.C.timestamp_service);
  let mask, ts =
    Directory.stale_lines t.directories.(e.home) ~page_index:e.page_index
      ~since:e.ts
  in
  let dropped = Translation.invalidate_lines e mask in
  let s = stats t in
  s.Stats.revalidations <- s.Stats.revalidations + 1;
  s.Stats.lines_invalidated <- s.Stats.lines_invalidated + dropped;
  if Trace.on t.trace then
    emit t ~proc
      (Trace.Revalidate { home = e.home; page = e.page_index; dropped });
  e.ts <- ts;
  Translation.clear_suspect t.tables.(proc) e

(* Fetch one line from the home into the local copy. *)
let fetch_line t ~proc (e : Translation.entry) ~line =
  let c = costs t in
  ignore
    (Machine.request_reply t.machine ~src:proc ~dst:e.home
       ~service:c.C.line_service);
  Machine.count_bytes t.machine G.line_bytes;
  let line_index = (e.page_index * G.lines_per_page) + line in
  (* zero-allocation fill: blit straight from the home section *)
  Memory.blit_line t.memory ~proc:e.home ~line_index ~dst:e.data
    ~dst_pos:(line * G.words_per_line);
  Translation.set_line_valid e line;
  (match coherence t with
  | C.Global ->
      (* [at]: the requester's clock (now past the reply), so the stamp
         is comparable with the requester's crash epoch *)
      Directory.add_sharer ~at:(Machine.now t.machine proc)
        t.directories.(e.home) ~page_index:e.page_index ~proc
  | C.Bilateral | C.Local ->
      (* sharers are not tracked, but sharedness drives write-track cost *)
      let p = Directory.get t.directories.(e.home) e.page_index in
      p.Directory.ever_shared <- true);
  let s = stats t in
  s.Stats.cache_misses <- s.Stats.cache_misses + 1;
  if Trace.on t.trace then
    emit t ~proc
      (Trace.Cache_miss { home = e.home; page = e.page_index; line })

(* A read through the caching mechanism on [proc].  The compiler-inserted
   check tests locality first (as cheap as a migration site's test); only
   remote addresses pay the hash-table probe. *)
let read t ~proc gptr ~field =
  let c = costs t in
  Machine.advance t.machine proc c.C.pointer_test;
  let s = stats t in
  s.Stats.cacheable_reads <- s.Stats.cacheable_reads + 1;
  let home = Gptr.proc gptr and addr = Gptr.addr gptr + field in
  if home = proc then begin
    Machine.advance t.machine proc c.C.local_ref;
    Memory.load t.memory gptr field
  end
  else begin
    Machine.advance t.machine proc c.C.cache_probe;
    s.Stats.cacheable_reads_remote <- s.Stats.cacheable_reads_remote + 1;
    let e = entry_for t ~proc ~home ~addr in
    if Translation.is_suspect t.tables.(proc) e then revalidate t ~proc e;
    let line = G.line_of_word addr in
    if Translation.line_valid e line then begin
      s.Stats.cache_hits <- s.Stats.cache_hits + 1;
      if Trace.on t.trace then
        emit t ~proc
          (Trace.Cache_hit { home; page = e.page_index; line })
    end
    else fetch_line t ~proc e ~line;
    Machine.advance t.machine proc c.C.local_ref;
    e.data.(G.word_offset_in_page addr)
  end

(* Primary–backup mirroring: when replication is configured, every store
   applied at a home page is also sent to the page's current backup as a
   [Replica]-class one-way message, so the backup's copy stays
   word-identical to the home's (what makes a fail-stop death of the
   home survivable).  The mirror is pure cost model — the host-level
   section array plays both roles — but the message rides the faulty
   network like any other traffic: drops retry under backoff, and an
   exhausted budget raises [Undeliverable] naming the [replica] class. *)
let mirror_store t ~proc ~home =
  match t.cfg.C.replication with
  | None -> ()
  | Some r ->
      let backup =
        Machine.backup_of t.machine ~stride:r.C.stride ~owner:home
      in
      if backup <> Machine.home_of t.machine home then begin
        let c = costs t in
        ignore
          (Machine.one_way ~klass:Fault_plan.Replica t.machine ~src:proc
             ~dst:backup ~service:c.C.store_service);
        Machine.count_bytes t.machine (G.word_bytes + 8);
        let s = stats t in
        s.Stats.replica_messages <- s.Stats.replica_messages + 1
      end

(* Write-tracking overhead charged by the compiler-inserted code under the
   global and bilateral schemes (Appendix A: 7 cycles for non-shared pages,
   23 for shared ones). *)
let charge_write_tracking t ~proc ~home ~page_index =
  match coherence t with
  | C.Local -> ()
  | C.Global | C.Bilateral ->
      let c = costs t in
      let cost =
        if Directory.is_shared t.directories.(home) page_index then
          c.C.write_track_shared
        else c.C.write_track_nonshared
      in
      Machine.advance t.machine proc cost;
      let s = stats t in
      s.Stats.write_track_cycles <- s.Stats.write_track_cycles + cost

(* A write through the caching mechanism: write-through to the home,
   updating the local copy if the line is cached.  The write is logged in
   the thread's write log for later release processing. *)
let write t ~proc gptr ~field v ~(log : Write_log.t) =
  let c = costs t in
  Machine.advance t.machine proc c.C.pointer_test;
  let s = stats t in
  s.Stats.cacheable_writes <- s.Stats.cacheable_writes + 1;
  let home = Gptr.proc gptr and addr = Gptr.addr gptr + field in
  let page_index = G.page_of_word addr and line = G.line_of_word addr in
  charge_write_tracking t ~proc ~home ~page_index;
  Memory.store t.memory gptr field v;
  let gpage = (home lsl 16) lor page_index in
  Write_log.record log ~gpage ~line ~home;
  (match coherence t with
  | C.Bilateral -> Directory.record_write t.directories.(home) ~page_index ~line
  | C.Global | C.Local -> ());
  if home = proc then begin
    Machine.advance t.machine proc c.C.local_ref;
    mirror_store t ~proc ~home
  end
  else begin
    Machine.advance t.machine proc c.C.cache_probe;
    s.Stats.cacheable_writes_remote <- s.Stats.cacheable_writes_remote + 1;
    (* write-through: a one-way store message; the writer does not block *)
    ignore (Machine.one_way t.machine ~src:proc ~dst:home ~service:c.C.store_service);
    Machine.advance t.machine proc c.C.local_ref;
    Machine.count_bytes t.machine (G.word_bytes + 8);
    mirror_store t ~proc ~home;
    (* keep our own cached copy coherent with our write *)
    let e = Translation.probe t.tables.(proc) ((home lsl 16) lor page_index) in
    if e != Translation.no_entry && Translation.line_valid e line then
      e.data.(G.word_offset_in_page addr) <- v
  end

(* Also used by migration-mechanism writes: coherence must still know about
   them (they are heap writes visible at a release), but they are not
   counted as cacheable. *)
let note_migrate_write t ~proc gptr ~field v ~(log : Write_log.t) =
  let home = Gptr.proc gptr and addr = Gptr.addr gptr + field in
  let page_index = G.page_of_word addr and line = G.line_of_word addr in
  charge_write_tracking t ~proc ~home ~page_index;
  let gpage = (home lsl 16) lor page_index in
  Write_log.record log ~gpage ~line ~home;
  mirror_store t ~proc ~home;
  (* after a failover the writer can be the promoted successor, serving
     [home]'s pages while still holding a cached copy it made back when
     the home was remote.  The release-time invalidation sweeps skip the
     writer itself (its copy is normally updated in place by [write]),
     so keep that copy coherent here the same way — on a healthy machine
     a migration-mechanism write always runs at the home ([home = proc])
     and this does nothing. *)
  if home <> proc then begin
    let e = Translation.probe t.tables.(proc) gpage in
    if e != Translation.no_entry && Translation.line_valid e line then
      e.data.(G.word_offset_in_page addr) <- v
  end;
  match coherence t with
  | C.Bilateral -> Directory.record_write t.directories.(home) ~page_index ~line
  | C.Global | C.Local -> ()

(* --- Coherence events ---------------------------------------------- *)

(* A migration arrives at [proc] (an acquire). *)
let on_migration_received t ~proc =
  let c = costs t in
  let s = stats t in
  match coherence t with
  | C.Local ->
      Machine.advance t.machine proc c.C.cache_flush;
      s.Stats.cache_flushes <- s.Stats.cache_flushes + 1;
      if Trace.on t.trace then
        emit t ~proc
          (Trace.Cache_flush
             { entries = Translation.entry_count t.tables.(proc) });
      Translation.flush t.tables.(proc)
  | C.Bilateral ->
      Machine.advance t.machine proc c.C.cache_flush;
      if Trace.on t.trace then emit t ~proc Trace.Suspect_all;
      Translation.mark_all_suspect t.tables.(proc)
  | C.Global -> ()

(* A migration leaves [proc] carrying thread state with write log [log]
   (a release). *)
let on_migration_sent t ~proc ~(log : Write_log.t) =
  let c = costs t in
  let s = stats t in
  (match coherence t with
  | C.Local -> ()
  | C.Global ->
      (* eager release consistency: invalidate the written lines at every
         sharer of each written page (sharer sets are bitmasks; no List.mem
         on the hot path) *)
      List.iter
        (fun (gpage, mask) ->
          let home = gpage lsr 16 and page_index = gpage land 0xffff in
          let sharers = Directory.sharer_mask t.directories.(home) page_index in
          let rec each sharer rest =
            if rest <> 0 then begin
              (if rest land 1 <> 0 && sharer <> proc then begin
                 ignore
                   (Machine.one_way t.machine ~src:proc ~dst:sharer
                      ~service:c.C.invalidate_line);
                 s.Stats.invalidation_messages <-
                   s.Stats.invalidation_messages + 1;
                 if Trace.on t.trace then
                   emit t ~proc
                     (Trace.Inval_send { target = sharer; page = page_index });
                 let e = Translation.probe t.tables.(sharer) gpage in
                 if e != Translation.no_entry then begin
                   let dropped = Translation.invalidate_lines e mask in
                   s.Stats.lines_invalidated <-
                     s.Stats.lines_invalidated + dropped;
                   if Trace.on t.trace then
                     emit t ~proc:sharer
                       (Trace.Inval_recv
                          { source = proc; page = page_index; dropped })
                 end
               end);
              each (sharer + 1) (rest lsr 1)
            end
          in
          each 0 sharers)
        (Write_log.dirty_pages log);
      Write_log.clear_dirty log
  | C.Bilateral ->
      (* stamp the written pages at their homes so revalidations notice *)
      List.iter
        (fun (gpage, _mask) ->
          let home = gpage lsr 16 and page_index = gpage land 0xffff in
          if home <> proc then begin
            ignore
              (Machine.one_way t.machine ~src:proc ~dst:home
                 ~service:c.C.invalidate_line);
            s.Stats.invalidation_messages <-
              s.Stats.invalidation_messages + 1;
            if Trace.on t.trace then
              emit t ~proc (Trace.Inval_send { target = home; page = page_index })
          end;
          Directory.bump_timestamp t.directories.(home) ~page_index)
        (Write_log.dirty_pages log);
      Write_log.clear_dirty log)

(* A thread returns (return stub) to [proc]; under the local scheme's
   refinement only lines homed at processors the thread wrote need to go
   (Section 3.2). *)
let on_return_received t ~proc ~(log : Write_log.t) =
  let c = costs t in
  let s = stats t in
  match coherence t with
  | C.Local ->
      if t.cfg.C.return_invalidate_refinement then begin
        let written = Write_log.written_mask log in
        let dropped = Translation.invalidate_homes t.tables.(proc) written in
        Machine.advance t.machine proc
          (c.C.invalidate_line * C.popcount written);
        s.Stats.lines_invalidated <- s.Stats.lines_invalidated + dropped;
        if Trace.on t.trace && written <> 0 then
          emit t ~proc
            (Trace.Inval_recv { source = -1; page = -1; dropped })
      end
      else begin
        Machine.advance t.machine proc c.C.cache_flush;
        s.Stats.cache_flushes <- s.Stats.cache_flushes + 1;
        if Trace.on t.trace then
          emit t ~proc
            (Trace.Cache_flush
               { entries = Translation.entry_count t.tables.(proc) });
        Translation.flush t.tables.(proc)
      end
  | C.Bilateral ->
      Machine.advance t.machine proc c.C.cache_flush;
      if Trace.on t.trace then emit t ~proc Trace.Suspect_all;
      Translation.mark_all_suspect t.tables.(proc)
  | C.Global -> ()

(* --- Crash recovery ------------------------------------------------- *)

(* A crash wipes [proc]'s volatile remote-access state: every cached page
   frame and translation entry goes, and the suspicion epoch advances so
   any entry a stale pointer could still reach reads as suspect.  Home
   pages (the write-through source of truth) are untouched.  Returns the
   number of live page entries lost. *)
let drop_processor_state t ~proc =
  let tbl = t.tables.(proc) in
  let lost = Translation.live_entries tbl in
  Translation.flush tbl;
  Translation.mark_all_suspect tbl;
  lost

(* A home learns that sharer [proc] crashed: strike it from every sharer
   mask so the global scheme stops sending it invalidations for copies it
   no longer holds.  Returns the number of pages pruned. *)
let prune_crashed_sharer t ~home ~proc =
  Directory.prune_sharer t.directories.(home) ~proc

let average_chain_length t =
  let n = Array.length t.tables in
  let sum =
    Array.fold_left (fun acc tbl -> acc +. Translation.average_chain_length tbl) 0. t.tables
  in
  sum /. float_of_int n
