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

let policy_of compiled : Jrt.Interp.barrier_policy =
 fun c m pc -> not (Satb_core.Driver.needs_barrier compiled (site_key c m pc))

(* tracing-state-check sites (swap pairs) *)
let retrace_policy_of compiled : Jrt.Interp.retrace_policy =
 fun c m pc ->
  match Satb_core.Driver.retrace_check compiled (site_key c m pc) with
  | `Open -> Jrt.Interp.Check_open
  | `Close -> Jrt.Interp.Check_close
  | `None -> Jrt.Interp.No_check

let assumption_to_runtime :
    Satb_core.Driver.assumption -> Jrt.Interp.assumption = function
  | Satb_core.Driver.Single_mutator -> Jrt.Interp.Single_mutator
  | Satb_core.Driver.Retrace_collector -> Jrt.Interp.Retrace_collector
  | Satb_core.Driver.Descending_scan -> Jrt.Interp.Descending_scan
  | Satb_core.Driver.Mode_a -> Jrt.Interp.Mode_a
  | Satb_core.Driver.Closed_world -> Jrt.Interp.Closed_world

let guard_policy_of compiled : Jrt.Interp.guard_policy =
 fun c m pc ->
  List.map assumption_to_runtime
    (Satb_core.Driver.site_assumptions compiled (site_key c m pc))

let half_policy_of (compiled : Satb_core.Driver.compiled) :
    Jrt.Interp.half_policy =
 fun c m pc ->
  let key = site_key c m pc in
  match Satb_core.Driver.hybrid_verdict compiled key with
  | `Keep -> Jrt.Interp.keep_both
  | (`Elide_deletion | `Elide_insertion | `Elide_both) as hv ->
      let del = hv = `Elide_deletion || hv = `Elide_both in
      let ins = hv = `Elide_insertion || hv = `Elide_both in
      {
        Jrt.Interp.hs_del_elide = del;
        hs_ins_elide = ins;
        hs_ins_repair = ins && Satb_core.Driver.ins_repair_needed compiled key;
        hs_del_guards =
          (if del then
             List.map assumption_to_runtime
               (Satb_core.Driver.site_assumptions compiled key)
           else []);
        hs_ins_guards =
          (if ins then
             List.map assumption_to_runtime
               (Satb_core.Driver.ins_site_assumptions compiled key)
           else []);
      }

let explain_policy_of (compiled : Satb_core.Driver.compiled) :
    Jrt.Interp.explain_policy =
 fun c m pc -> Satb_core.Driver.justification compiled (site_key c m pc)

let config ?(elide = true) ?(guards = false) ?(revoke = true)
    ?(satb_mode = Jrt.Barrier_cost.Conditional) ~gc
    (compiled : Satb_core.Driver.compiled) : Jrt.Interp.config =
  let hybrid = match gc with Jrt.Runner.Hybrid _ -> true | _ -> false in
  {
    Jrt.Interp.default_config with
    policy = (if elide then policy_of compiled else Jrt.Interp.keep_all_policy);
    retrace =
      (if elide then retrace_policy_of compiled
       else Jrt.Interp.no_retrace_checks);
    halves =
      (if elide && hybrid then half_policy_of compiled
       else Jrt.Interp.no_halves);
    barrier_flavor = (if hybrid then `Hybrid else `Satb);
    guards =
      (if guards then guard_policy_of compiled else Jrt.Interp.no_guards);
    explain =
      (if guards then explain_policy_of compiled else Jrt.Interp.no_explain);
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
