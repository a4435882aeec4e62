(** Synchronous reachability oracle: exact reachability used to capture
    the logical snapshot when SATB marking starts and to verify collector
    invariants.  Exists purely to {e check} the algorithms.

    Every query is one traversal: breadth first from the roots, scanning
    reference slots in place, with the visited test an int compare of an
    object's [Heap.stamp] against the heap's [Heap.epoch].  It costs one
    pass over the reachable objects' slots and, once its reused id
    buffers have grown to the largest reachable set, allocates nothing —
    no visited set is built or cleared between cycles. *)

val iter_reachable : Heap.t -> int list -> (Heap.obj -> unit) -> unit
(** [iter_reachable heap roots f] calls [f] once on every object
    reachable from [roots] (roots included, dead objects included), in
    breadth-first order.  Afterwards {!reached} tells exactly those
    objects apart.  [f] must not start another traversal. *)

val reached : Heap.t -> Heap.obj -> bool
(** Did the latest traversal of this heap reach the object? *)

(** {2 The SATB snapshot} *)

type snapshot
(** A reusable buffer of object ids: the reachable set at capture time. *)

val snapshot : unit -> snapshot
(** An empty snapshot. *)

val capture : snapshot -> Heap.t -> int list -> unit
(** Replace the snapshot's contents with the objects reachable from the
    roots now. *)

val snapshot_size : snapshot -> int

(** {2 Checks} *)

val snapshot_violations : Heap.t -> snapshot -> int
(** Members of a marking-start snapshot that are dead or unmarked at the
    end of the cycle — the invariant every SATB-family collector (plain
    SATB and the retrace variant) must satisfy. *)

val end_violations : Heap.t -> int list -> int
(** Objects reachable from the roots {e now} that are dead or unmarked —
    the end-of-cycle invariant of the collectors without a snapshot
    (incremental update and hybrid). *)

(** {2 Sets} *)

module Iset : Set.S with type elt = int

val reachable : Heap.t -> int list -> Iset.t
(** The reachable ids as a set: a fold over {!iter_reachable} for callers
    outside the collectors that want one. *)
