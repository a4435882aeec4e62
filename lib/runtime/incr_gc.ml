(** Incremental-update ("mostly-parallel") concurrent marking with a
    card-marking write barrier — the Boehm–Demers–Shenker style baseline
    the paper contrasts SATB against (§1).

    The mutator's barrier merely dirties the card of the object whose field
    was written (≈2 instructions).  The collector traces concurrently from
    a root snapshot; the final stop-the-world pause must then (a) rescan
    the roots, (b) rescan every object on a dirty card, and (c) trace
    everything newly discovered — which includes every object allocated
    during the cycle that became reachable, since incremental update gets
    no "allocated black" guarantee.  That rescan loop is why
    incremental-update final pauses are often an order of magnitude longer
    than SATB remark pauses (§1, §4.5); the measured pause work feeds the
    E5 experiment.

    The marking is {!Mark}'s (arrays scanned whole, in slot order); this
    module is the card-marking policy and the final pause's fixed
    point. *)

module Iset = Oracle.Iset

let card_size = 64

type t = {
  core : Mark.t;
  roots : unit -> int list;
  mutable dirty : Iset.t;  (** dirty card ids *)
  mutable dirtied_total : int;
  mutable force_black : bool;
      (** degraded mode: allocate black (plus a birth-dirtied card, so
          elided stores into the new object are still re-scanned at the
          final pause) instead of the usual allocate-white *)
}

let fk_incr = Flight.intern "incremental-update"

let create ?(steps_per_increment = 64) ?(sweep = true) (heap : Heap.t)
    ~(roots : unit -> int list) : t =
  {
    core =
      Mark.create ~name:"incremental-update" ~flight_key:fk_incr
        ~steps_per_increment ~array_chunk:max_int ~direction:Ascending ~sweep
        heap;
    roots;
    dirty = Iset.empty;
    dirtied_total = 0;
    force_black = false;
  }

let is_marking t = t.core.marking
let dirty_cards t = t.dirtied_total

let start_cycle t =
  t.dirty <- Iset.empty;
  t.dirtied_total <- 0;
  Mark.start t.core (t.roots ()) ~snapshot_size:None

let log_ref_store t ~obj ~pre:_ =
  if t.core.marking && obj >= 0 then begin
    let card = obj / card_size in
    if not (Iset.mem card t.dirty) then begin
      t.dirty <- Iset.add card t.dirty;
      t.dirtied_total <- t.dirtied_total + 1
    end
  end

let on_alloc t (o : Heap.obj) =
  if t.core.marking then begin
    (* allocated white: incremental update must trace new objects *)
    o.born_during_mark <- true;
    t.core.allocated_during <- t.core.allocated_during + 1;
    if t.force_black then begin
      (* Degraded mode: allocate black so the final pause no longer owes
         this object a transitive visit.  Soundness needs its card
         dirtied at birth: stores into a fresh object are prime pre-null
         elision targets, and an elided store dirties nothing — the
         birth-dirty card makes the pause's fixed point re-scan the
         object's final fields regardless. *)
      o.marked <- true;
      o.origin <- Heap.origin_alloc;
      log_ref_store t ~obj:o.id ~pre:Value.Null
    end
  end

let step t = Mark.step t.core
let quiescent t = Mark.quiescent t.core

(** The final stop-the-world pause: alternate root rescans and dirty-card
    rescans until a fixed point, then sweep. *)
let finish_cycle t =
  let c = t.core in
  let pause_work = ref 0 in
  let rounds = ref 0 in
  let changed = ref true in
  while !changed do
    incr rounds;
    (* every object shaded this round is a new gray entry *)
    let grayed = c.top in
    (* rescan roots: they may now reference unmarked (e.g. new) objects *)
    List.iter
      (fun id ->
        incr pause_work;
        Mark.shade c ~origin:Heap.origin_trace id)
      (t.roots ());
    (* rescan marked objects on dirty cards: their fields were updated *)
    let dirty = t.dirty in
    t.dirty <- Iset.empty;
    Iset.iter
      (fun card ->
        let lo = card * card_size in
        let hi = min ((card + 1) * card_size) c.heap.Heap.next_id in
        for id = lo to hi - 1 do
          let o = Heap.get c.heap id in
          if o.marked && not o.dead then begin
            incr pause_work;
            (* kept only because its parent's card was dirtied *)
            Mark.shade_children c ~origin:Heap.origin_log o
          end
        done)
      dirty;
    changed := c.top > grayed;
    pause_work := !pause_work + Mark.drain c max_int
  done;
  Mark.finish c ~pause_work:!pause_work ~logged:t.dirtied_total
    ~violations:(fun () -> Oracle.end_violations c.heap (t.roots ()))
    ~fields:(fun () ->
      ( [ ("dirty_cards", Telemetry.Int t.dirtied_total) ],
        [ ("rescan_rounds", Telemetry.Int !rounds) ],
        [] ))

let hooks t =
  Mark.hooks t.core
    ~caps:
      {
        Gc_hooks.retrace_protocol = false;
        descending_scan = false;
        insertion_half = false;
      }
    ~log_ref_store:(log_ref_store t) ~on_alloc:(on_alloc t)
    (* repair by dirtying the written objects' cards: the final pause's
       dirty-card rescan then re-examines their current fields *)
    ~on_revoke:(fun ~objs ->
      List.iter (fun obj -> log_ref_store t ~obj ~pre:Value.Null) objs)
    ~on_pressure:(fun ~degraded ->
      Mark.on_pressure t.core ~degraded;
      t.force_black <- degraded)
    ()

let collector t =
  {
    Mark.hooks = hooks t;
    start = (fun () -> start_cycle t);
    quiescent = (fun () -> quiescent t);
    finish = (fun () -> finish_cycle t);
    degraded = (fun () -> false);
  }
