(** SATB concurrent marking with the optimistic tracing-state / retrace
    protocol (§4.3 rearrangement support).

    Extends plain SATB ({!Satb_gc}) with per-object tracing state
    ({!Heap.trace_state}) and a {e retrace list}: compiled code at a
    swap-elided store runs a cheap tracing-state check instead of the
    logging barrier ({!Gc_hooks.t.on_unlogged_store}); if the written
    object is not yet fully traced it is enqueued for a whole-object
    re-scan.  Remark may not end before the retrace list reaches a fixed
    point.  Sound only together with the compiler's same-block swap-pair
    contract and the interpreter's safepoint-free swap windows (see the
    implementation's header comment for the full argument).

    Arrays are scanned in bounded chunks, descending — the same contract
    move-down elision relies on.  Every cycle is verified against the
    {!Oracle}. *)

type t

val create :
  ?steps_per_increment:int ->
  ?buffer_capacity:int ->
  ?array_chunk:int ->
  ?retrace_budget:int ->
  ?sweep:bool ->
  Heap.t ->
  roots:(unit -> int list) ->
  t
(** [retrace_budget] bounds retrace-list enqueues per cycle (termination
    watchdog); past it the cycle degrades — swap elision is disabled for
    the remainder and stores fall back to logging.  Default unbounded. *)

val is_marking : t -> bool

val is_degraded : t -> bool
(** The current cycle overflowed its retrace budget; the runner should
    disable swap elision until the cycle ends. *)

val start_cycle : t -> unit
val log_ref_store : t -> obj:int -> pre:Value.t -> unit

val on_unlogged_store : t -> obj:int -> unit
(** The tracing-state check at a swap-elided store: enqueue the object for
    a re-scan unless it is already [Traced] (or was allocated black). *)

val on_revoke : t -> objs:int list -> unit
(** Revocation repair: force a whole-object re-scan of every object
    written through a now-revoked site this cycle, regardless of tracing
    state, bypassing the budget. *)

val on_alloc : t -> Heap.obj -> unit
val step : t -> unit

val quiescent : t -> bool
(** Has the concurrent phase exhausted its visible work?  Pending retrace
    entries count as work: remark may not begin before the retrace fixed
    point. *)

val finish_cycle : t -> Mark.report
(** The remark pause: flush buffer remnants, drain everything to the
    retrace fixed point, verify the snapshot invariant, sweep. *)

val hooks : t -> Gc_hooks.t
val collector : t -> Mark.collector

val enqueued : t -> int
(** Retrace-list enqueues this cycle, the budget's basis. *)

val budget_overflows : t -> int
(** Tracing-state checks this cycle that found the budget exhausted. *)
