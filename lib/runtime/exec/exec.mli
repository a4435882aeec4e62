(** Direct-threaded execution engine: verified jir methods compile into
    arrays of OCaml closures with preresolved field offsets and static
    cells, barrier-elided stores fused into opcodes specialized per
    verdict half, and guard checks compiled to epoch-stamp comparisons
    ({!Interp.t.barrier_epoch}) so safepoint revocation invalidates
    compiled sites individually, with no global flush.

    The engine executes over the interpreter's own substrate (heap,
    statics, counters, site stats, GC hooks, pacer), so collectors,
    chaos faults and telemetry behave identically under either engine
    and the step-accurate {!Interp} serves as a differential oracle. *)

type t

val create : Interp.t -> t
(** Wrap a machine; installs {!Interp.t.stack_roots_override} so root
    enumeration follows the engine's live stacks in the interpreter's
    exact visit order.  Methods compile lazily on first call/adoption. *)

val slice : t -> Interp.thread -> fuel:int -> int
(** Run up to [fuel] instructions of the given thread (adopting it into
    the engine on first contact — including threads spawned by chaos
    faults mid-run) and return how many executed.  Counter-for-counter
    equivalent to [fuel] iterations of {!Interp.step}.  Propagates
    {!Interp.Runtime_bug} and {!Pacer.Hard_limit} like the interpreter;
    in-program exceptions unwind to handlers internally. *)

val inflight : t -> int
(** Instructions charged by the slice in flight but not yet flushed to
    [instr_count] (0 between slices).  The runner's flight-recorder step
    source adds it, so mid-slice events — including barrier work inside
    fused blocks, whose store sub-ops publish their consumed prefix —
    carry exactly the step the interpreter would have recorded. *)

