(* The operations available to an Olden program.  These are what the Olden
   compiler emits calls to; benchmark kernels are written directly against
   this interface. *)

(* Every operation tries the engine's fast path first: operations that
   cannot suspend the fiber run as plain function calls, and only those
   that must capture it (migrations, parks) — or calls outside any engine
   — pay for performing an effect.  [Engine.Must_perform] is raised before
   any state is mutated, so the two paths compose without double
   charging. *)

let work n =
  try Engine.fast_work n
  with Engine.Must_perform -> Effect.perform (Effects.Work n)

let self () =
  try Engine.fast_self ()
  with Engine.Must_perform -> Effect.perform Effects.Self

let nprocs () =
  try Engine.fast_nprocs ()
  with Engine.Must_perform -> Effect.perform Effects.Nprocs

(* ALLOC: allocate [words] words on processor [proc] (Section 2). *)
let alloc ~proc words =
  try Engine.fast_alloc ~proc words
  with Engine.Must_perform -> Effect.perform (Effects.Alloc (proc, words))

let alloc_local words = alloc ~proc:(self ()) words

(* A heap read/write through dereference site [site]. *)
let load site g field =
  try Engine.fast_load site g field
  with Engine.Must_perform -> Effect.perform (Effects.Load (site, g, field))

let store site g field v =
  try Engine.fast_store site g field v
  with Engine.Must_perform ->
    Effect.perform (Effects.Store (site, g, field, v))

let load_ptr site g field = Value.to_ptr (load site g field)
let load_int site g field = Value.to_int (load site g field)
let load_float site g field = Value.to_float (load site g field)

let store_ptr site g field p = store site g field (Value.Ptr p)
let store_int site g field i = store site g field (Value.Int i)
let store_float site g field f = store site g field (Value.Float f)

(* futurecall / touch (Section 2).  A futurecall always saves its return
   continuation on the work list, so it always performs; a touch of an
   already-resolved future completes immediately on the fast path. *)
let future body = Effect.perform (Effects.Future body)

let touch ?site fut =
  try Engine.fast_touch fut
  with Engine.Must_perform -> Effect.perform (Effects.Touch (site, fut))

(* A procedure-call boundary: Olden's return stub.  If the callee migrated,
   the thread returns to the caller's processor when the call completes;
   if it never migrated, the stub costs nothing.  The engine is looked up
   once: the fiber that resumes after [f] runs under the same engine. *)
let call f =
  match Engine.running () with
  | e ->
      let origin = Engine.seat e in
      let result = f () in
      if Engine.seat e <> origin then Effect.perform (Effects.Return_to origin);
      result
  | exception Engine.Must_perform ->
      let origin = Effect.perform Effects.Self in
      let result = f () in
      if Effect.perform Effects.Self <> origin then
        Effect.perform (Effects.Return_to origin);
      result

(* Measurement boundary: synchronize all processors and mark the time;
   used to separate structure building from the measured kernel. *)
let phase name = Effect.perform (Effects.Phase name)
