(** Interpreter for mini-Olden programs on the simulated machine — the
    end-to-end path of the paper's system: parse, type-check, run the
    selection heuristic, then execute with every dereference going through
    the site the compiler created for it. *)

exception Runtime_error of string

(** Language values: runtime values plus first-class futures. *)
type rvalue =
  | V of Value.t
  | F of Olden_runtime.Effects.fut

type compiled = {
  prog : Olden_compiler.Ast.program;
  selection : Olden_compiler.Heuristic.t;
  tc : Olden_compiler.Typecheck.info;
  sites : (int, Olden_runtime.Site.t * int) Hashtbl.t;
      (** dereference id -> (runtime site, field word offset) *)
}

val compile : ?selection:Olden_compiler.Heuristic.t ->
  Olden_compiler.Ast.program -> compiled
(** Type-check, analyze (unless a selection is supplied), and create one
    runtime site per dereference.
    @raise Olden_compiler.Typecheck.Type_error on an ill-typed program. *)

val compile_source : ?selection:Olden_compiler.Heuristic.t -> string -> compiled

type result = {
  return_value : Value.t;
  output : string;  (** everything [print()]ed *)
  report : Olden_runtime.Engine.report;
}

val run :
  ?entry:string ->
  ?args:Value.t list ->
  ?obs:Obs.sinks ->
  Olden_config.t ->
  compiled ->
  result
(** Execute [entry] (default ["main"]) on the simulated machine,
    recording into the sinks [obs] names ({!Olden_runtime.Engine.create}).
    @raise Runtime_error on dynamic errors (arity, division by zero, ...).
    @raise Olden_runtime.Engine.Null_dereference on a null dereference. *)

val run_source : ?entry:string -> ?args:Value.t list -> Olden_config.t ->
  string -> result
