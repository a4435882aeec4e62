(** Shared plumbing for the experiments: compile a workload at a given
    analysis configuration and run it under the instrumented runtime. *)

type compiled_workload = {
  workload : Workloads.Spec.t;
  compiled : Satb_core.Driver.compiled;
}

val compile :
  ?inline_limit:int ->
  ?mode:Satb_core.Analysis.mode ->
  ?null_or_same:bool ->
  ?move_down:bool ->
  ?swap:bool ->
  ?summaries:bool ->
  Workloads.Spec.t ->
  compiled_workload

val config :
  ?elide:bool ->
  ?guards:bool ->
  ?revoke:bool ->
  ?satb_mode:Jrt.Barrier_cost.satb_mode ->
  gc:Jrt.Runner.gc_choice ->
  Satb_core.Driver.compiled ->
  Jrt.Interp.config
(** The one bridge from analysis verdicts to a run: every
    [Jrt.Interp.config] built from a compiled program comes from here.
    Each site's {!Jrt.Interp.verdict} is built from its
    [Driver.site_key] alone:
    - The barrier flavor follows [gc]: [`Hybrid] under [Hybrid], [`Satb]
      otherwise.  Under [`Satb] a verdict elides the whole barrier
      ([Driver.needs_barrier]) and carries the swap pairs' tracing-state
      checks; under [`Hybrid] it elides each half on its own
      ([Driver.hybrid_verdict]).
    - [elide] (default on).  Off, every verdict is {!Jrt.Interp.keep},
      except that under [`Satb] with [guards] the guard list stays, so
      an unelided run still revokes and reports what an elided one
      would.
    - [guards] (default off) fills the [`Satb] guard lists and wires
      {!explain_policy_of}, so assumption failures revoke dependent
      elisions and revocation events name the justification.  The
      [`Hybrid] split verdicts carry each half's own guards whatever
      [guards] says.
    - [guarded] is [guards || (elide && gc = Hybrid)]: revocation is
      live exactly when some verdict may carry guards.
    - [revoke:false] keeps the guards wired but ignores their failures. *)

val explain_policy_of : Satb_core.Driver.compiled -> Jrt.Interp.explain_policy
(** Elision provenance: the analysis-side justification of each elided
    site, for revocation events and the profiler's hot-site report. *)

val default_engine : [ `Interp | `Threaded ] ref
(** Session-wide default for {!run}'s [?engine] (initially [`Interp],
    or [`Threaded] when the [SATB_ENGINE=threaded] environment variable
    is set); `bench --engine threaded` flips it so every experiment
    re-runs on the compiled engine without per-call plumbing, and CI
    uses the environment variable to re-run the whole tier-1 suite on
    the compiled engine. *)

val run :
  ?gc:Jrt.Runner.gc_choice ->
  ?satb_mode:Jrt.Barrier_cost.satb_mode ->
  ?use_policy:bool ->
  ?guards:bool ->
  ?revoke:bool ->
  ?chaos:Jrt.Chaos.t ->
  ?retrace_budget:int ->
  ?fail_on_thread_error:bool ->
  ?seed:int ->
  ?quantum:int ->
  ?gc_period:int ->
  ?engine:[ `Interp | `Threaded ] ->
  ?observer:(Jrt.Interp.t -> unit) ->
  compiled_workload ->
  Jrt.Runner.report
(** Run under the instrumented runtime with the {!config} of
    [use_policy] (as [elide]), [guards], [revoke] and [satb_mode].
    Fails on any thread error unless [fail_on_thread_error:false] (chaos
    damage may legitimately kill workload threads).  [guards] is off by
    default because the negative soundness tests depend on unguarded
    runs.  [engine] defaults to {!default_engine}.  [observer] is the
    heap observatory's cycle-end hook, forwarded to {!Jrt.Runner.run}. *)
