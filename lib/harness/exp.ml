(** Shared plumbing for the experiments: compile a workload at a given
    analysis configuration and run it under the instrumented runtime. *)

type compiled_workload = {
  workload : Workloads.Spec.t;
  compiled : Satb_core.Driver.compiled;
}

let compile ?(inline_limit = 100) ?(mode = Satb_core.Analysis.A)
    ?(null_or_same = false) ?(move_down = false) ?(swap = false)
    ?(summaries = false) (w : Workloads.Spec.t) : compiled_workload =
  let prog = Workloads.Spec.parse w in
  let conf =
    {
      Satb_core.Analysis.default_config with
      mode;
      null_or_same;
      move_down;
      swap;
      summaries;
    }
  in
  { workload = w; compiled = Satb_core.Driver.compile ~inline_limit ~conf prog }

(* The verdict -> runtime bridge: every [Jrt.Interp.config] built from
   a [Driver.compiled] comes from {!config} below. *)

let site_key c m pc =
  { Satb_core.Driver.sk_class = c; sk_method = m; sk_pc = pc }

let assumption_to_runtime :
    Satb_core.Driver.assumption -> Jrt.Interp.assumption = function
  | Satb_core.Driver.Single_mutator -> Jrt.Interp.Single_mutator
  | Satb_core.Driver.Retrace_collector -> Jrt.Interp.Retrace_collector
  | Satb_core.Driver.Descending_scan -> Jrt.Interp.Descending_scan
  | Satb_core.Driver.Mode_a -> Jrt.Interp.Mode_a
  | Satb_core.Driver.Closed_world -> Jrt.Interp.Closed_world

let explain_policy_of (compiled : Satb_core.Driver.compiled) :
    Jrt.Interp.explain_policy =
 fun c m pc -> Satb_core.Driver.justification compiled (site_key c m pc)

let config ?(elide = true) ?(guards = false) ?(revoke = true)
    ?(satb_mode = Jrt.Barrier_cost.Conditional) ~gc
    (compiled : Satb_core.Driver.compiled) : Jrt.Interp.config =
  let module D = Satb_core.Driver in
  let hybrid = match gc with Jrt.Runner.Hybrid _ -> true | _ -> false in
  let verdict key : Jrt.Interp.verdict =
    let guards_of of_site =
      List.map assumption_to_runtime (of_site compiled key)
    in
    if hybrid then
      (* split verdicts carry their own guards whatever [guards] says *)
      let del, ins =
        match if elide then D.hybrid_verdict compiled key else `Keep with
        | `Keep -> (false, false)
        | `Elide_deletion -> (true, false)
        | `Elide_insertion -> (false, true)
        | `Elide_both -> (true, true)
      in
      {
        Jrt.Interp.keep with
        v_del_elide = del;
        v_ins_elide = ins;
        v_ins_repair = ins && D.ins_repair_needed compiled key;
        v_del_guards = (if del then guards_of D.site_assumptions else []);
        v_ins_guards = (if ins then guards_of D.ins_site_assumptions else []);
      }
    else
      (* the guard list stays without elision, so [--no-elim] still
         revokes (and reports) what an elided run would *)
      let v_del_guards = if guards then guards_of D.site_assumptions else [] in
      if not elide then { Jrt.Interp.keep with v_del_guards }
      else
        {
          Jrt.Interp.keep with
          v_del_elide = not (D.needs_barrier compiled key);
          v_check =
            (match D.retrace_check compiled key with
            | `Open -> Check_open
            | `Close -> Check_close
            | `None -> No_check);
          v_del_guards;
        }
  in
  {
    Jrt.Interp.default_config with
    verdicts = (fun c m pc -> verdict (site_key c m pc));
    guarded = guards || (elide && hybrid);
    explain =
      (if guards then explain_policy_of compiled else Jrt.Interp.no_explain);
    barrier_flavor = (if hybrid then `Hybrid else `Satb);
    revoke;
    satb_mode;
  }

(** Session-wide default execution engine, so `bench --engine threaded`
    (and the CI both-engines tier-1 lever) can retarget every experiment
    without threading a parameter through each call site. *)
(* initial value honours SATB_ENGINE=threaded so CI can re-run the whole
   tier-1 suite on the compiled engine without touching any test *)
let default_engine : [ `Interp | `Threaded ] ref =
  ref
    (match Sys.getenv_opt "SATB_ENGINE" with
    | Some "threaded" -> `Threaded
    | Some _ | None -> `Interp)

let run ?(gc = Jrt.Runner.No_gc) ?(satb_mode = Jrt.Barrier_cost.Conditional)
    ?(use_policy = true) ?(guards = false) ?(revoke = true) ?chaos
    ?retrace_budget ?(fail_on_thread_error = true) ?(seed = 0) ?quantum
    ?gc_period ?engine ?observer (cw : compiled_workload) : Jrt.Runner.report =
  let engine = match engine with Some e -> e | None -> !default_engine in
  (* Guards are opt-in: several negative soundness tests deliberately run
     unsound policy/collector combinations to show the oracle catching
     them, which wired guards would (correctly) neutralize. *)
  let cfg =
    config ~elide:use_policy ~guards ~revoke ~satb_mode ~gc cw.compiled
  in
  let report =
    Jrt.Runner.run ~cfg ~gc ~engine ~seed ?quantum ?gc_period ?chaos
      ?retrace_budget ?observer cw.compiled.program ~entry:cw.workload.entry
  in
  (if fail_on_thread_error then
     match report.thread_errors with
     | [] -> ()
     | (tid, e) :: _ ->
         Fmt.failwith "workload %s: thread %d died: %s" cw.workload.name tid e);
  report
