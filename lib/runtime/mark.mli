(** The tricolor marking core shared by the four collectors: the gray
    stack and its budgeted drain, allocate-black, the cycle start and the
    final pause's drain/oracle/sweep/report tail, and the paired
    [Flight]/[Telemetry] cycle events.  Each collector ({!Satb_gc},
    {!Incr_gc}, {!Retrace_gc}, {!Hybrid_gc}) is a barrier policy over
    one of these.

    Work orders are fixed: the gray stack pops last-in first-out (an
    array's unscanned tail goes back on top of the children its chunk
    shaded), each drain iteration shades one handed-over log entry before
    scanning one gray entry, and whole objects are scanned in ascending
    slot order. *)

type scan_direction = Descending | Ascending

type report = {
  cycle : int;
  marked : int;
  swept : int;
  allocated_during : int;
  increments : int;  (** concurrent mark increments *)
  final_pause_work : int;  (** objects processed inside the final pause *)
  violations : int;  (** oracle-reachable objects left unmarked *)
  logged : int;  (** SATB log entries, dirty cards or barrier shades *)
  retraced : int;  (** forced whole-object re-scans *)
}

type t = {
  heap : Heap.t;
  name : string;  (** the collector name stamped on every event *)
  flight_key : int;  (** [name] interned in the flight recorder *)
  steps_per_increment : int;
  array_chunk : int;
      (** array slots scanned per gray entry; [max_int] scans arrays whole *)
  direction : scan_direction;
      (** object-array scan order; [Descending] is the move-down contract *)
  sweep : bool;
  mutable marking : bool;
  mutable stack : int array;
  mutable top : int;
  mutable log : int list;
      (** handed-over log entries, shaded one per drain iteration *)
  mutable rescan : int list;
      (** objects queued for a whole-object re-scan once the gray stack
          is empty (the retrace list) *)
  mutable boost : int;
      (** mark-budget multiplier; >1 while the pacer is degraded *)
  mutable increments : int;
  mutable allocated_during : int;
  mutable retraced : int;
  mutable cycles : int;
}

type fields = (string * Telemetry.json) list

(** What the runner drives: the mutator-facing hooks plus the cycle
    controls. *)
type collector = {
  hooks : Gc_hooks.t;
  start : unit -> unit;
  quiescent : unit -> bool;
      (** the concurrent phase has exhausted its visible work *)
  finish : unit -> report;  (** the final pause *)
  degraded : unit -> bool;
      (** the cycle overflowed its retrace budget; swap elision must be
          disabled for its remainder *)
}

val create :
  name:string ->
  flight_key:int ->
  steps_per_increment:int ->
  array_chunk:int ->
  direction:scan_direction ->
  sweep:bool ->
  Heap.t ->
  t

val push : t -> int -> unit
(** Gray an object id whatever its mark bit. *)

val shade : t -> origin:int -> int -> unit
(** Mark and gray an unmarked live object, stamping its [Heap.origin_*]
    cause. *)

val shade_children : t -> origin:int -> Heap.obj -> unit
(** Shade every referent of the object, in ascending slot order. *)

val drain : t -> int -> int
(** Process up to the budget in work units; returns the units used. *)

val step : t -> unit
(** One increment: drain [steps_per_increment * boost] units. *)

val quiescent : t -> bool
val on_alloc : t -> Heap.obj -> unit
val on_pressure : t -> degraded:bool -> unit

val start : t -> int list -> snapshot_size:int option -> unit
(** Gray the roots and emit the cycle-start events. *)

val finish :
  t ->
  pause_work:int ->
  logged:int ->
  violations:(unit -> int) ->
  fields:(unit -> fields * fields * fields) ->
  report
(** Drain to empty, count [violations] after the drain, then in one heap
    pass count the marked set, sweep unless a violation was found and
    clear the survivors' marks; emit the cycle-end events.  [pause_work] is the policy's own pause work
    before the drain; [fields] gives its entries of the finish event,
    placed after [marked], [final_pause_work] and [swept] respectively,
    and is only called while telemetry is armed. *)

val hooks :
  t ->
  caps:Gc_hooks.caps ->
  log_ref_store:(obj:int -> pre:Value.t -> unit) ->
  ?log_ins_store:(tid:int -> nv:Value.t -> unit) ->
  ?on_unlogged_store:(obj:int -> unit) ->
  on_revoke:(objs:int list -> unit) ->
  ?on_alloc:(Heap.obj -> unit) ->
  ?on_pressure:(degraded:bool -> unit) ->
  ?step:(unit -> unit) ->
  unit ->
  Gc_hooks.t
(** Package a policy as mutator hooks; omitted hooks are the no-ops and
    the core's [on_alloc]/[on_pressure]/[step]. *)
