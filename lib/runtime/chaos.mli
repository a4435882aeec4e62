(** Seeded fault injection for the guard/revocation subsystem: late
    thread spawns, forced marker preemption, mid-cycle heap pressure,
    deliberate barrier skips (oracle self-test), and adversarial
    scheduler pacing.  Deterministic for a given plan; see the
    implementation header for the victim-selection argument. *)

type fault =
  | Late_spawn of { at_instr : int; stores : int }
      (** a second mutator appears at [at_instr], then performs [stores]
          guarded damage stores at later safepoints while marking *)
  | Preempt_marker of { at_alloc : int; skips : int }
      (** withhold [skips] collector increments once the heap reaches
          [at_alloc] allocations *)
  | Heap_pressure of { at_alloc : int }
      (** force an emergency remark of the in-flight cycle *)
  | Barrier_skip of { at_instr : int; victims : int }
      (** unsound by design: sever [victims] snapshot objects with no
          barrier at all — the oracle must catch it *)
  | Class_load of { at_instr : int }
      (** announce a class load at [at_instr]: the closed-world
          assumption behind the callee summaries fails, revoking every
          summary-dependent elision *)
  | Alloc_spike of { at_instr : int; count : int }
      (** allocate [count] ballast objects in one burst at [at_instr] —
          a sudden allocation spike the pacer must absorb *)
  | Mem_pressure of { at_alloc : int; per_safepoint : int; total : int }
      (** from [at_alloc] allocations on, inject [per_safepoint] ballast
          objects at every safepoint until [total] are placed — a
          sustained memory-pressure ramp against the pacer's limits *)

type plan = {
  seed : int;
  faults : fault list;
  quantum : int option;  (** adversarial scheduler pacing override *)
  gc_period : int option;
}

type stats = {
  spawns : int;
  damage_stores : int;
  skipped_barriers : int;
  preempted_increments : int;
  pressure_remarks : int;
  class_loads : int;
  spike_allocs : int;  (** ballast objects injected by allocation spikes *)
  ramp_allocs : int;  (** ballast objects injected by pressure ramps *)
}

type action = { defer_increment : bool; force_remark : bool }
(** What the runner must do at the current safepoint. *)

val no_action : action

type t

val create : plan -> t

val of_seed : int -> plan
(** A deterministic benign plan for [--chaos <seed>]: late spawn plus a
    seed-dependent mix of preemption, heap pressure, class loading,
    allocation spikes, and pacing; never a barrier skip. *)

val plan : t -> plan
val stats : t -> stats

val at_safepoint : t -> Interp.t -> action
(** Run the plan's due faults.  Must be called at a safepoint, before
    {!Interp.apply_revocations} and before the collector increment. *)
