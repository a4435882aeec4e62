(** Concurrent marking with the Go-style hybrid write barrier: Yuasa
    deletion shading on every kept store plus Dijkstra insertion shading
    while the storing thread's stack is still grey.  Stacks are scanned
    lazily, one per collector increment; the final pause re-scans all
    roots once (no re-scan loop) and checks end-reachability like
    {!Incr_gc}.  The marking is {!Mark}'s; this module is the barrier
    policy. *)

type t

val create :
  ?steps_per_increment:int ->
  ?sweep:bool ->
  Heap.t ->
  static_roots:(unit -> int list) ->
  thread_roots:(unit -> (int * int list) list) ->
  t

val is_marking : t -> bool

val stack_grey : t -> tid:int -> bool
(** Has thread [tid]'s stack not yet been scanned this cycle? *)

val start_cycle : t -> unit
(** Mark the static roots and leave every thread stack grey. *)

val log_ref_store : t -> obj:int -> pre:Value.t -> unit
(** Deletion half: shade the overwritten value. *)

val log_ins_store : t -> tid:int -> nv:Value.t -> unit
(** Insertion half: shade [nv] while [tid]'s stack is grey. *)

val on_alloc : t -> Heap.obj -> unit
(** Allocate black during marking. *)

val on_revoke : t -> objs:int list -> unit
(** Re-scan repair: mark and re-gray each destination object. *)

val step : t -> unit
(** One increment: scan a grey stack if any remain, else drain gray. *)

val quiescent : t -> bool

val finish_cycle : t -> Mark.report
(** Final pause: scan remaining grey stacks, one root re-scan, drain,
    end-reachability check, sweep when sound. *)

val hooks : t -> Gc_hooks.t
val collector : t -> Mark.collector
