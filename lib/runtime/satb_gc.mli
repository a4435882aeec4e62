(** Snapshot-at-the-beginning (SATB) concurrent marking (Yuasa-style, as
    in the Garbage-First collector the paper instruments).

    The collector marks the objects reachable in a logical snapshot taken
    when marking starts; the mutator's barrier logs pre-write values into
    mutator-local buffers handed over when full; objects allocated during
    marking are implicitly marked ("allocated black").  The remark pause
    only drains leftover buffers — the short-pause advantage measured in
    experiment E5.

    Object arrays are scanned incrementally (bounded chunks) and, by
    default, in {e descending} index order — the contract the §4.3
    move-down elision depends on.

    Every cycle is verified against the {!Oracle}: a wrongly removed
    barrier that unlinked an unvisited snapshot object surfaces as a
    violation.  The marking is {!Mark}'s; this module is the barrier
    policy, which {!Retrace_gc} extends. *)

type scan_direction = Mark.scan_direction = Descending | Ascending
type t

val create :
  ?steps_per_increment:int ->
  ?buffer_capacity:int ->
  ?array_chunk:int ->
  ?direction:scan_direction ->
  ?sweep:bool ->
  Heap.t ->
  roots:(unit -> int list) ->
  t

val is_marking : t -> bool
val start_cycle : t -> unit

val log_ref_store : t -> obj:int -> pre:Value.t -> unit
val on_alloc : t -> Heap.obj -> unit
val step : t -> unit

val quiescent : t -> bool
(** Has the concurrent phase exhausted its visible work?  (Mutator-local
    buffer remnants are only seen by {!finish_cycle}.) *)

val finish_cycle : t -> Mark.report
(** The remark pause: flush buffer remnants, drain, verify the snapshot
    invariant, sweep. *)

val hooks : t -> Gc_hooks.t
val collector : t -> Mark.collector

(** {2 Current-cycle counters} (kept until the next {!start_cycle}) *)

val logged : t -> int
val restarts : t -> int
val snapshot_size : t -> int

val local_count : t -> int
(** Entries in the mutator-local buffer, not yet handed over. *)

val handed_over : t -> int
(** Handed-over entries the collector has not processed yet. *)

(** {2 The SATB half of {!Retrace_gc}} *)

val on_core :
  Mark.t -> roots:(unit -> int list) -> buffer_capacity:int -> t

val finish_with :
  t -> fields:(unit -> Mark.fields * Mark.fields * Mark.fields) -> Mark.report
(** {!finish_cycle} with the caller's finish-event fields. *)
