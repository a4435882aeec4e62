(** Incremental-update ("mostly parallel") concurrent marking with a
    card-marking write barrier — the Boehm-Demers-Shenker-style baseline
    the paper contrasts SATB against (§1).  The final stop-the-world
    pause must rescan roots and dirty cards and trace everything newly
    reachable — including every object allocated during the cycle — which
    is why its pauses dwarf SATB remark pauses (experiment E5).  The
    marking is {!Mark}'s; this module is the card-marking policy. *)

val card_size : int

type t

val create :
  ?steps_per_increment:int ->
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
val finish_cycle : t -> Mark.report
val hooks : t -> Gc_hooks.t
val collector : t -> Mark.collector

val dirty_cards : t -> int
(** Distinct cards dirtied this cycle (kept until the next start). *)
