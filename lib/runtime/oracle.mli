(** Synchronous reachability oracle: exact reachable sets used to capture
    the logical snapshot when SATB marking starts and to verify collector
    invariants.  Exists purely to {e check} the algorithms. *)

module Iset : Set.S with type elt = int

val reachable : Heap.t -> int list -> Iset.t

val snapshot_violations : Heap.t -> Iset.t -> int
(** Members of a marking-start snapshot that are dead or unmarked at the
    end of the cycle — the invariant every SATB-family collector (plain
    SATB and the retrace variant) must satisfy. *)

val end_violations : Heap.t -> int list -> int
(** Objects reachable from the roots {e now} that are dead or unmarked —
    the end-of-cycle invariant of the collectors without a snapshot
    (incremental update and hybrid). *)
