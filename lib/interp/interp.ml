(* Interpreter for mini-Olden programs on the simulated machine.

   This is the end-to-end path of the paper's system: the heuristic
   analyzes the source and assigns a mechanism to every dereference site;
   the interpreter then executes the program against the Olden runtime,
   with each dereference going through the site the compiler created for
   it.  Per-operation work costs stand in for the instructions lcc would
   have emitted. *)

open Olden_compiler
module Ops = Olden_runtime.Ops
module Site = Olden_runtime.Site
module Engine = Olden_runtime.Engine

exception Runtime_error of string

(* Language values: runtime values plus first-class futures. *)
type rvalue =
  | V of Value.t
  | F of Olden_runtime.Effects.fut

let err fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

let as_value = function
  | V v -> v
  | F _ -> err "future used where a value was expected (missing touch?)"

let as_int r =
  match as_value r with
  | Value.Int i -> i
  | Value.Nil -> 0
  | v -> err "expected int, got %s" (Value.to_string v)

let as_float r =
  match as_value r with
  | Value.Float f -> f
  | Value.Int i -> float_of_int i
  | v -> err "expected float, got %s" (Value.to_string v)

let as_ptr r =
  match as_value r with
  | Value.Ptr p -> p
  | Value.Nil -> Gptr.null
  | v -> err "expected pointer, got %s" (Value.to_string v)

let truthy r =
  match as_value r with
  | Value.Int 0 | Value.Nil -> false
  | Value.Ptr p -> not (Gptr.is_null p)
  | Value.Int _ | Value.Float _ -> true

(* A compiled program: parsed, type-checked, analyzed, with one runtime
   site per dereference. *)
type compiled = {
  prog : Ast.program;
  selection : Heuristic.t;
  tc : Typecheck.info;
  sites : (int, Site.t * int) Hashtbl.t; (* deref id -> site, field offset *)
}

let compile ?selection (prog : Ast.program) : compiled =
  let tc = Typecheck.check prog in
  let selection =
    match selection with Some s -> s | None -> Heuristic.of_program prog
  in
  let sites = Hashtbl.create 64 in
  List.iter
    (fun (d : Analysis.deref_info) ->
      let id = d.Analysis.deref_id in
      match Typecheck.struct_of_deref tc id with
      | None -> () (* dead code never touched by the checker *)
      | Some sname ->
          let offset =
            match Ast.field_offset prog ~sname ~field:d.Analysis.dfield with
            | Some o -> o
            | None -> err "no offset for %s.%s" sname d.Analysis.dfield
          in
          let mech = Heuristic.mechanism_of_site selection id in
          let site =
            Site.make ~mech
              (Printf.sprintf "%s.%s->%s#%d" d.Analysis.deref_func
                 (match d.Analysis.dbase with Some v -> v | None -> "_")
                 d.Analysis.dfield id)
          in
          Hashtbl.replace sites id (site, offset))
    selection.Heuristic.analysis.Analysis.derefs;
  { prog; selection; tc; sites }

let compile_source ?selection src = compile ?selection (Parser.parse_program src)

(* --- Evaluation ------------------------------------------------------ *)

exception Return_exc of rvalue

type frame = (string, rvalue) Hashtbl.t

type state = {
  c : compiled;
  prng : Prng.t;
  out : Buffer.t; (* print() output *)
}

let site_of st (d : Ast.deref) =
  match Hashtbl.find_opt st.c.sites d.Ast.d_id with
  | Some entry -> entry
  | None -> err "dereference site %d was not compiled" d.Ast.d_id

let rec eval st (frame : frame) (e : Ast.expr) : rvalue =
  match e with
  | Ast.Null -> V Value.Nil
  | Ast.Int_lit i -> V (Value.Int i)
  | Ast.Float_lit f -> V (Value.Float f)
  | Ast.Var v -> (
      match Hashtbl.find_opt frame v with
      | Some r -> r
      | None -> err "unbound variable %s" v)
  | Ast.Deref d ->
      let base = as_ptr (eval st frame d.Ast.d_base) in
      let site, offset = site_of st d in
      Ops.work 1;
      V (Ops.load site base offset)
  | Ast.Call (f, args) ->
      let argv = List.map (eval st frame) args in
      (* a call is a return-stub boundary: if the callee migrates, the
         thread comes back here *)
      Ops.call (fun () -> apply st f argv)
  | Ast.Future_call (f, args) ->
      let argv = List.map (eval st frame) args in
      F
        (Ops.future (fun () ->
             as_value (Ops.call (fun () -> apply st f argv))))
  | Ast.Touch e' -> (
      match eval st frame e' with
      | F fut -> V (Ops.touch fut)
      | V v -> V v (* touching a non-future is a no-op, as in Olden *))
  | Ast.Unop (op, e') -> (
      let r = eval st frame e' in
      Ops.work 1;
      match (op, as_value r) with
      | Ast.Neg, Value.Int i -> V (Value.Int (-i))
      | Ast.Neg, Value.Float f -> V (Value.Float (-.f))
      | Ast.Not, _ -> V (Value.of_bool (not (truthy r)))
      | Ast.Neg, v -> err "cannot negate %s" (Value.to_string v))
  | Ast.Binop (op, a, b) -> eval_binop st frame op a b
  | Ast.Alloc_on (sname, pe) ->
      let proc = as_int (eval st frame pe) in
      let words =
        match Ast.struct_words st.c.prog sname with
        | Some w -> w
        | None -> err "unknown struct %s" sname
      in
      let nprocs = Ops.nprocs () in
      let proc = ((proc mod nprocs) + nprocs) mod nprocs in
      V (Value.Ptr (Ops.alloc ~proc words))
  | Ast.Builtin (name, args) -> eval_builtin st frame name args

and eval_binop st frame op a b =
  match op with
  | Ast.And ->
      if truthy (eval st frame a) then V (Value.of_bool (truthy (eval st frame b)))
      else V (Value.of_bool false)
  | Ast.Or ->
      if truthy (eval st frame a) then V (Value.of_bool true)
      else V (Value.of_bool (truthy (eval st frame b)))
  | _ -> (
      let ra = eval st frame a in
      let rb = eval st frame b in
      Ops.work 1;
      let arith fi ff =
        match (as_value ra, as_value rb) with
        | Value.Float _, _ | _, Value.Float _ ->
            V (Value.Float (ff (as_float ra) (as_float rb)))
        | _ -> V (Value.Int (fi (as_int ra) (as_int rb)))
      in
      let compare_vals () =
        match (as_value ra, as_value rb) with
        | Value.Ptr p, Value.Ptr q -> compare (Gptr.compare p q) 0
        | (Value.Ptr _ | Value.Nil), (Value.Ptr _ | Value.Nil) ->
            compare (as_ptr ra) (as_ptr rb)
        | Value.Float _, _ | _, Value.Float _ ->
            compare (as_float ra) (as_float rb)
        | _ -> compare (as_int ra) (as_int rb)
      in
      match op with
      | Ast.Add -> arith ( + ) ( +. )
      | Ast.Sub -> arith ( - ) ( -. )
      | Ast.Mul -> arith ( * ) ( *. )
      | Ast.Div ->
          if
            (match as_value rb with
            | Value.Int 0 -> true
            | Value.Float f -> f = 0.
            | _ -> false)
          then err "division by zero"
          else arith ( / ) ( /. )
      | Ast.Mod -> V (Value.Int (as_int ra mod as_int rb))
      | Ast.Eq -> V (Value.of_bool (compare_vals () = 0))
      | Ast.Ne -> V (Value.of_bool (compare_vals () <> 0))
      | Ast.Lt -> V (Value.of_bool (compare_vals () < 0))
      | Ast.Le -> V (Value.of_bool (compare_vals () <= 0))
      | Ast.Gt -> V (Value.of_bool (compare_vals () > 0))
      | Ast.Ge -> V (Value.of_bool (compare_vals () >= 0))
      | Ast.And | Ast.Or -> assert false)

and eval_builtin st frame name args =
  let argv = List.map (eval st frame) args in
  match (name, argv) with
  | "self", [] -> V (Value.Int (Ops.self ()))
  | "nprocs", [] -> V (Value.Int (Ops.nprocs ()))
  | "rand", [ n ] -> V (Value.Int (Prng.int st.prng (max 1 (as_int n))))
  | "work", [ n ] ->
      Ops.work (max 0 (as_int n));
      V Value.Nil
  | "print", [ r ] ->
      Buffer.add_string st.out (Value.to_string (as_value r));
      Buffer.add_char st.out '\n';
      V Value.Nil
  | _ -> err "bad builtin call %s/%d" name (List.length argv)

and exec_stmt st frame (s : Ast.stmt) : unit =
  match s with
  | Ast.Decl (_, v, init) ->
      let r =
        match init with Some e -> eval st frame e | None -> V Value.Nil
      in
      Ops.work 1;
      Hashtbl.replace frame v r
  | Ast.Assign (v, e) ->
      let r = eval st frame e in
      Ops.work 1;
      if not (Hashtbl.mem frame v) then err "assignment to unbound %s" v;
      Hashtbl.replace frame v r
  | Ast.Field_assign (d, e) ->
      let base = as_ptr (eval st frame d.Ast.d_base) in
      let r = eval st frame e in
      let site, offset = site_of st d in
      Ops.work 1;
      Ops.store site base offset (as_value r)
  | Ast.If (c, th, el) ->
      Ops.work 1;
      if truthy (eval st frame c) then exec_block st frame th
      else exec_block st frame el
  | Ast.While w ->
      let rec loop () =
        Ops.work 1;
        if truthy (eval st frame w.Ast.w_cond) then begin
          exec_block st frame w.Ast.w_body;
          loop ()
        end
      in
      loop ()
  | Ast.Return (Some e) -> raise (Return_exc (eval st frame e))
  | Ast.Return None -> raise (Return_exc (V Value.Nil))
  | Ast.Expr e -> ignore (eval st frame e)

and exec_block st frame b = List.iter (exec_stmt st frame) b

and apply st fname argv : rvalue =
  match Ast.find_func st.c.prog fname with
  | None -> err "unknown function %s" fname
  | Some f ->
      if List.length argv <> List.length f.Ast.f_params then
        err "%s: arity mismatch" fname;
      let frame = Hashtbl.create 8 in
      List.iter2
        (fun (_, p) v -> Hashtbl.replace frame p v)
        f.Ast.f_params argv;
      Ops.work 2 (* call overhead *);
      (try
         exec_block st frame f.Ast.f_body;
         V Value.Nil
       with Return_exc r -> r)

(* --- Entry points ----------------------------------------------------- *)

type result = {
  return_value : Value.t;
  output : string; (* everything print()ed *)
  report : Engine.report;
}

let run ?(entry = "main") ?(args = []) ?obs (cfg : Olden_config.t)
    (c : compiled) : result =
  let st =
    { c; prng = Prng.create cfg.Olden_config.seed; out = Buffer.create 256 }
  in
  let ret = ref Value.Nil in
  let engine = Engine.create ?obs cfg in
  Engine.exec engine (fun () ->
      let argv = List.map (fun v -> V v) args in
      ret := as_value (apply st entry argv));
  { return_value = !ret; output = Buffer.contents st.out; report = Engine.report engine }

let run_source ?entry ?args cfg src = run ?entry ?args cfg (compile_source src)
