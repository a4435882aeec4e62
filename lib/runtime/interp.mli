(** A multi-threaded bytecode interpreter with write-barrier
    instrumentation: per-site execution and pre-null counters (the
    machinery behind the paper's Table 1, including the "potentially
    pre-null" upper bound of §4.2), per-site elision verdicts, the RISC cost
    model, and collector hooks. *)

exception Runtime_bug of string

type site = {
  s_class : Jir.Types.class_name;
  s_method : Jir.Types.method_name;
  s_pc : int;
}

val site_id : site -> string
(** ["Class.method\@pc"] — the site id used in traces, [--explain] output
    and the profiler's attribution rows. *)

type retrace_site = No_check | Check_open | Check_close
(** What the retrace collector's compiler emits at a swap-elided store: a
    tracing-state check that also opens (store 1) or closes (store 2) a
    safepoint-free window around the swap. *)

type assumption =
  | Single_mutator
  | Retrace_collector
  | Descending_scan
  | Mode_a
  | Closed_world
(** The runtime assumptions an elided verdict may depend on; observing
    one false revokes every dependent elision at a safepoint. *)

val string_of_assumption : assumption -> string

type site_stats = {
  st_kind : Jir.Types.store_kind;
  mutable st_elided : bool;
  mutable st_check : retrace_site;
  st_guards : assumption list;
      (** assumptions this site's elision depends on *)
  mutable st_del_elided : bool;
      (** hybrid flavor: the deletion (Yuasa) half was compiled out *)
  mutable st_ins_elided : bool;
      (** hybrid flavor: the insertion (Dijkstra) half was compiled out *)
  st_ins_repair : bool;
      (** insertion-elided destinations join the remark repair set *)
  st_del_guards : assumption list;
  st_ins_guards : assumption list;
  mutable execs : int;
  mutable pre_null_execs : int;
  mutable paid_execs : int;
      (** executions that ran a full barrier (kept, revoked or degraded);
          [execs = paid_execs + elided_execs] always holds — under the
          hybrid flavor a store is elided iff {e both} halves skipped *)
  mutable elided_execs : int;  (** executions that skipped the barrier *)
  mutable del_paid_execs : int;  (** hybrid: deletion halves executed *)
  mutable del_elided_execs : int;  (** hybrid: deletion halves skipped *)
  mutable ins_paid_execs : int;  (** hybrid: insertion halves executed *)
  mutable ins_elided_execs : int;  (** hybrid: insertion halves skipped *)
  mutable barrier_units : int;
      (** modelled RISC units charged at this site (barriers + tracing
          checks); sums to [t.barrier_units] over all sites *)
  mutable revocations : int;
      (** times this site (either half) was patched back *)
}

type verdict = {
  v_del_elide : bool;
      (** the deletion half was compiled out.  Under [`Satb] this is the
          whole barrier; under [`Hybrid] the Yuasa half *)
  v_ins_elide : bool;
      (** [`Hybrid] only: the insertion (Dijkstra) half was compiled out *)
  v_ins_repair : bool;
      (** [`Hybrid] only: insertion-elided destinations join the remark
          repair set (fresh-value proofs need the re-scan) *)
  v_check : retrace_site;
      (** [`Satb] only: the tracing-state check compiled in place of an
          elided barrier (swap pairs under the retrace collector) *)
  v_del_guards : assumption list;
      (** assumptions the deletion half's elision rests on (under
          [`Satb], the site's whole guard set); empty = unconditionally
          sound *)
  v_ins_guards : assumption list;
      (** [`Hybrid] only: the insertion half's own guards *)
}
(** One store site's verdict.  A site materializes from its verdict at
    its first execution ({!site_stats}): a half whose guards already
    failed materializes revoked.  Fields marked [`Hybrid] only are
    ignored under [`Satb], and [v_check] under [`Hybrid].  A hybrid site
    counts as elided only when both halves are. *)

val keep : verdict
(** Every barrier kept, no check, no guards. *)

type explain_policy =
  Jir.Types.class_name -> Jir.Types.method_name -> int -> string option
(** Original justification of a site's elision (analysis-side
    provenance), attached to [revoke.site] telemetry events so a revoked
    site prints why its barrier was removed in the first place. *)

val no_explain : explain_policy

type config = {
  verdicts :
    Jir.Types.class_name -> Jir.Types.method_name -> int -> verdict;
      (** consulted once per site, at materialization; {!default_config}
          returns {!keep} everywhere *)
  guarded : bool;
      (** some verdict may carry guards, so an assumption observed false
          revokes the elisions resting on it; off, {!request_revoke} is
          inert (and guards in the verdicts are only reported) *)
  explain : explain_policy;
  revoke : bool;
      (** honour guard failures by revoking dependent elisions; [false]
          runs open-loop so the oracle can catch what guards would have *)
  satb_mode : Barrier_cost.satb_mode;
  barrier_flavor : [ `Satb | `Hybrid ];
  max_steps : int;
}

val default_config : config

type frame = {
  f_class : Jir.Types.class_name;
  f_meth : Jir.Types.meth;
  mutable pc : int;
  locals : Value.t array;
  mutable ostack : Value.t list;
}

type thread = {
  tid : int;
  mutable frames : frame list;
  mutable finished : bool;
  mutable error : string option;
}

type t = {
  prog : Jir.Program.t;
  heap : Heap.t;
  statics : (Jir.Types.class_name * Jir.Types.field_name, Value.t) Hashtbl.t;
  mutable threads : thread list;
  mutable next_tid : int;
  stats : (site, site_stats) Hashtbl.t;
  cfg : config;
  mutable gc : Gc_hooks.t;
  mutable pacer : Pacer.t option;
      (** pacing controller; admission-controls every allocation and
          drives degraded-mode allocation assists *)
  mutable assist_execs : int;
      (** collector increments run on allocating threads' behalf while
          the pacer was degraded *)
  mutable instr_count : int;
  mutable cost_units : int;
  mutable barrier_units : int;
  mutable barriers_executed : int;
  mutable elided_barrier_execs : int;
  mutable retrace_checks : int;
  mutable in_no_safepoint : bool;
      (** a swap window is open: the scheduler must defer collector work
          until the closing store's check clears this *)
  mutable revoked : assumption list;
  mutable pending_revocations : assumption list;
  mutable revocation_events : int;
  mutable revoked_sites : int;
  mutable guarded_writes : int list;
  mutable swap_degraded : bool;
  mutable degradations : int;
  mutable degraded_swap_execs : int;
  mutable external_paid_execs : int;
      (** chaos-injected external stores that ran a full barrier — no site
          of their own; the profiler attributes them to an "external" row
          so per-site totals still reconcile with the global counters *)
  mutable external_elided_execs : int;
      (** chaos-injected external stores through live guarded elisions *)
  field_index : (Jir.Types.field_ref, int) Hashtbl.t;
  alloc_sites : (site, int) Hashtbl.t;
      (** interned {!Sitemap} ids of allocation sites, cached per program
          point so the allocation fast path does no string formatting *)
  mutable track_heap : bool;
      (** heap observatory armed: elided stores during marking append to
          [elided_write_log] (a single flag test when off) *)
  mutable elided_write_log : (int * int) list;
      (** [(obj, verdict_class)] for stores whose barrier (or a half of
          it) was elided while marking; verdict classes are {!ew_full},
          {!ew_del}, {!ew_ins}, {!ew_both}.  Cleared by
          {!reset_cycle_state}. *)
  mutable barrier_epoch : int;
      (** bumped whenever per-site verdicts may change (revocations
          applied, degraded mode entered, cycle state reset); the
          threaded engine ({!Exec}) stamps each compiled store site with
          the epoch it specialized against and respecializes on mismatch
          — per-site invalidation with no global flush *)
  mutable stack_roots_override : (unit -> (int * int list) list) option;
      (** installed by the threaded engine, which owns the live thread
          stacks; {!thread_roots}/{!roots} consult it so collectors see
          the same root set in the same order under either engine *)
}

exception Jexn of Jir.Types.exn_kind
(** A runtime exception in the interpreted program, caught by handler
    search ([unwind]); shared with the threaded engine so both unwind
    identically. *)

val jthrow : Jir.Types.exn_kind -> 'a

val bugf : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Runtime_bug} with a formatted message — exported so the
    threaded engine reports invariant violations with byte-identical
    diagnostics. *)

val create : ?cfg:config -> Jir.Program.t -> t
val set_collector : t -> Gc_hooks.t -> unit

val set_pacer : t -> Pacer.t -> unit
(** Install the pacing controller; every subsequent allocation passes
    through {!Pacer.before_alloc} (and may raise {!Pacer.Hard_limit}). *)

val request_revoke : t -> assumption -> unit
(** Note an assumption observed false; the revocation is applied at the
    next safepoint.  Deduplicated; inert unless [cfg.guarded] and
    [cfg.revoke] hold. *)

val revocation_pending : t -> bool

val apply_revocations : t -> unit
(** Flip every site depending on a failed assumption back to a full
    barrier and hand the cycle's guarded-write set to the collector for
    snapshot repair.  Must be called at a safepoint. *)

val note_second_mutator : t -> unit
(** A chaos-injected second mutator exists: [Single_mutator] is false. *)

val note_class_load : t -> unit
(** A chaos-injected class load happened: [Closed_world] is false, so
    summary-dependent elisions must revoke. *)

val reset_cycle_state : t -> unit
(** Reset the per-cycle guarded-write set and degradation flag; the
    runner calls this when a marking cycle starts or ends. *)

val set_swap_degraded : t -> unit
(** Enter degraded mode (retrace budget overflow): swap-elided sites
    execute full logging barriers for the remainder of the cycle.  Only
    call at a safepoint. *)

val external_guarded_store :
  t -> obj:int -> idx:int -> v:Value.t -> unit
(** A chaos-injected second mutator's store through a
    [Single_mutator]-guarded elided site: unlogged while such sites are
    live and the assumption unrevoked, a full barrier afterwards. *)

val external_unbarriered_store :
  t -> obj:int -> idx:int -> v:Value.t -> unit
(** A store with no barrier at all (deliberate barrier-skip fault); the
    oracle must catch the damage. *)

val external_alloc : t -> count:int -> unit
(** Chaos-injected allocation ballast: [count] small unreachable objects
    through the normal admission-controlled path, so allocation spikes
    and memory-pressure ramps exercise the pacer exactly like mutator
    pressure (including {!Pacer.Hard_limit}). *)

val spawn_thread : t -> Jir.Types.method_ref -> Value.t list -> thread

val roots : t -> int list
(** All reference values held in thread stacks and statics. *)

val static_roots : t -> int list
(** References held in statics alone — what the hybrid collector marks at
    cycle start (stacks are scanned lazily). *)

val thread_roots : t -> (int * int list) list
(** [(tid, refs held in that thread's frames)] for every thread. *)

val step : t -> thread -> bool
(** Execute one instruction; [false] once the thread has finished. *)

(** {2 Shared barrier machinery (used by the threaded engine)}

    The threaded engine ({!Exec}) compiles each store site to an opcode
    that caches the site's {!site_stats} record and dispatches to one of
    the bodies below, chosen at specialization time from the cached
    verdict.  Every body bumps exactly the counters the interpreter's
    store path would. *)

val site_stats : t -> site -> Jir.Types.store_kind -> site_stats
(** Find or lazily materialize the per-site record (born-revoked
    accounting included) — the same materialization the interpreter
    performs at a site's first execution. *)

val ref_store_barrier_st :
  t -> site_stats -> tid:int -> obj:int -> pre:Value.t -> nv:Value.t -> unit
(** The general barrier body: handles every flavor, retrace checks,
    degraded fallbacks and guarded elisions.  [obj = -1] for statics. *)

val barrier_elided_plain : t -> site_stats -> obj:int -> pre:Value.t -> unit
(** Fused fast path; precondition: [`Satb], elided, no check, no
    guards. *)

val barrier_elided_guarded : t -> site_stats -> obj:int -> pre:Value.t -> unit
(** Fused fast path; precondition: as {!barrier_elided_plain} but
    guarded (joins the repair set while marking). *)

val barrier_hybrid_both_elided :
  t -> site_stats -> obj:int -> pre:Value.t -> unit
(** Fused fast path; precondition: [`Hybrid], both halves elided,
    unguarded, no insertion repair. *)

val barrier_hybrid_del_elided :
  t -> site_stats -> tid:int -> obj:int -> pre:Value.t -> nv:Value.t -> unit
(** Fused fast path; precondition: [`Hybrid], deletion half elided and
    unguarded, insertion half kept. *)

val barrier_hybrid_ins_elided :
  t -> site_stats -> obj:int -> pre:Value.t -> unit
(** Fused fast path; precondition: [`Hybrid], insertion half elided,
    unguarded, no repair, deletion half kept. *)

val allocate : t -> units:int -> (unit -> Heap.obj) -> Heap.obj
(** Allocate through the pacer's admission control (may raise
    {!Pacer.Hard_limit}) and notify the collector — the path both
    engines' [New]/[Newarray] use. *)

(** {2 Heap observatory support}

    Verdict classes of {!t.elided_write_log} entries: which (half of the)
    barrier an elided store skipped, so the float accounting
    ({!Heapscope}) can attribute floating garbage per elision verdict. *)

val ew_full : int
(** Whole barrier elided ([`Satb] flavor). *)

val ew_del : int
(** Hybrid: deletion half elided, insertion half ran. *)

val ew_ins : int
(** Hybrid: insertion half elided, deletion half ran. *)

val ew_both : int
(** Hybrid: both halves elided. *)

val alloc_site : t -> frame -> int
(** Interned {!Sitemap} id of the allocation site at [frame]'s current
    pc, cached per program point (the interpreter's [New]/[Newarray]
    path; the threaded engine interns at compile time instead). *)

type dyn_stats = {
  total_execs : int;
  elided_execs : int;
  pot_pre_null_execs : int;
  field_execs : int;  (** putfield only; statics are counted apart *)
  field_elided : int;
  array_execs : int;
  array_elided : int;
  static_execs : int;  (** putstatic of reference statics (never elided) *)
}

val dyn_stats : t -> dyn_stats
val pp_dyn_stats : dyn_stats Fmt.t
