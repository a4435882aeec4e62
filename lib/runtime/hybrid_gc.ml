(** Concurrent marking with the Go-style {e hybrid} write barrier
    (Clements–Hudson, Go proposal 17503-eliminate-rescan): on every kept
    reference store the mutator shades the {e old} value (the Yuasa
    deletion half, as in {!Satb_gc}) and {e also} shades the {e new}
    value while the storing thread's stack has not yet been scanned this
    cycle (the Dijkstra insertion half).

    The payoff the hybrid barrier buys in Go is eliminating the final
    stop-the-world stack re-scan: once a stack has been scanned it stays
    black, because any pointer subsequently written {e from} that stack
    into the heap is either already shaded or gets shaded by the
    insertion half of some other, still-grey thread.  We model that with
    lazy per-thread stack scanning — [start_cycle] marks only the static
    roots and leaves every stack grey; each collector increment scans one
    grey stack before draining gray objects; [log_ins_store] consults the
    storing thread's scan state.

    Elision interplay: deletion halves removed by the paper's
    pre-null/null-or-same proofs need no repair (the overwritten slot
    held null or an already-reachable value).  Insertion halves removed
    by the freshness proofs (§2.4 allocation-site facts, summary-proven
    fresh returns) are covered by three layers: objects are allocated
    black during marking ([on_alloc]); destinations of insertion-elided
    stores recorded by the interpreter are handed back through
    [on_revoke] at remark time and re-scanned; and [finish_cycle]
    re-scans every root (statics and all stacks) inside the final pause,
    which also makes static-store insertion elision sound.  Soundness is
    checked like {!Incr_gc}: at the end of the cycle everything reachable
    must be marked.

    The marking is {!Mark}'s (arrays scanned whole, in slot order); this
    module is the two barrier halves, the lazy stack scans and the
    remark repair. *)

type t = {
  core : Mark.t;
  static_roots : unit -> int list;
  thread_roots : unit -> (int * int list) list;
      (** (tid, refs reachable from that thread's frames) *)
  scanned : (int, unit) Hashtbl.t;  (** tids whose stack is black *)
  mutable del_shades : int;
  mutable ins_shades : int;
  mutable stack_scans : int;
}

let fk_hybrid = Flight.intern "hybrid"

let create ?(steps_per_increment = 64) ?(sweep = true) (heap : Heap.t)
    ~(static_roots : unit -> int list)
    ~(thread_roots : unit -> (int * int list) list) : t =
  {
    core =
      Mark.create ~name:"hybrid" ~flight_key:fk_hybrid ~steps_per_increment
        ~array_chunk:max_int ~direction:Ascending ~sweep heap;
    static_roots;
    thread_roots;
    scanned = Hashtbl.create 8;
    del_shades = 0;
    ins_shades = 0;
    stack_scans = 0;
  }

let is_marking t = t.core.marking

(** Has thread [tid]'s stack been scanned (turned black) this cycle?
    Threads the collector has not seen yet are grey by construction. *)
let stack_grey (t : t) ~tid = not (Hashtbl.mem t.scanned tid)

let start_cycle t =
  Hashtbl.reset t.scanned;
  t.del_shades <- 0;
  t.ins_shades <- 0;
  t.stack_scans <- 0;
  (* statics only: every thread stack starts the cycle grey *)
  Mark.start t.core (t.static_roots ()) ~snapshot_size:None

(* shade a barrier operand, reporting whether it was white *)
let shade_operand t v =
  match v with
  | Value.Ref id ->
      let o = Heap.get t.core.heap id in
      let white = (not o.marked) && not o.dead in
      if white then Mark.shade t.core ~origin:Heap.origin_log id;
      white
  | Value.Null | Value.Int _ -> false

(** Deletion half: shade the overwritten value (Yuasa). *)
let log_ref_store t ~obj:_ ~pre =
  if t.core.marking && shade_operand t pre then
    t.del_shades <- t.del_shades + 1

(** Insertion half: shade the stored value while the storing thread's
    stack is still grey (Dijkstra). *)
let log_ins_store t ~tid ~nv =
  if t.core.marking && stack_grey t ~tid && shade_operand t nv then
    t.ins_shades <- t.ins_shades + 1

(** Allocate black: new objects cannot be swept this cycle, which is one
    of the layers insertion-half elision at fresh-store sites rests on. *)
let on_alloc t o = Mark.on_alloc t.core o

(** Remark-time repair: [objs] are destinations of stores whose barrier
    (either half) was elided under assumptions that failed, plus — when
    the runner hands them over — destinations of insertion-elided stores
    executed this cycle.  Re-scan them: mark and re-gray so their current
    fields are traced. *)
let on_revoke t ~objs =
  let c = t.core in
  if c.marking then
    List.iter
      (fun id ->
        if id >= 0 then begin
          let o = Heap.get c.heap id in
          if not o.dead then begin
            c.retraced <- c.retraced + 1;
            if not o.marked then o.origin <- Heap.origin_repair;
            o.marked <- true;
            Mark.push c id
          end
        end)
      objs

(** Scan one grey thread stack, turning it black. *)
let scan_stack t tid refs =
  List.iter (fun id -> Mark.shade t.core ~origin:Heap.origin_trace id) refs;
  Hashtbl.replace t.scanned tid ();
  t.stack_scans <- t.stack_scans + 1

(** One collector increment: scan a grey stack if any remain (lazy stack
    scanning — no stop-the-world stack phase), otherwise drain gray
    objects. *)
let step t =
  let c = t.core in
  if c.marking then begin
    c.increments <- c.increments + 1;
    match
      List.find_opt (fun (tid, _) -> stack_grey t ~tid) (t.thread_roots ())
    with
    | Some (tid, refs) -> scan_stack t tid refs
    | None -> ignore (Mark.drain c (c.steps_per_increment * c.boost))
  end

let quiescent t =
  Mark.quiescent t.core
  && List.for_all (fun (tid, _) -> not (stack_grey t ~tid)) (t.thread_roots ())

(** Final pause: scan any stacks still grey (threads spawned late), then
    re-scan every root — the layer that also covers insertion-elided
    static stores — and drain to a fixed point.  The hybrid barrier's
    whole point is that this pause never grows a re-scan {e loop} the way
    incremental update's does ({!Incr_gc.finish_cycle}): one root pass
    plus a drain suffices. *)
let finish_cycle t =
  let pause_work = ref 0 in
  List.iter
    (fun (tid, refs) ->
      if stack_grey t ~tid then begin
        pause_work := !pause_work + List.length refs;
        scan_stack t tid refs
      end)
    (t.thread_roots ());
  let all_roots () =
    t.static_roots ()
    @ List.concat_map (fun (_, refs) -> refs) (t.thread_roots ())
  in
  List.iter
    (fun id ->
      incr pause_work;
      Mark.shade t.core ~origin:Heap.origin_trace id)
    (all_roots ());
  Mark.finish t.core ~pause_work:!pause_work
    ~logged:(t.del_shades + t.ins_shades)
    ~violations:(fun () -> Oracle.end_violations t.core.heap (all_roots ()))
    ~fields:(fun () ->
      ( [
          ("del_shades", Telemetry.Int t.del_shades);
          ("ins_shades", Telemetry.Int t.ins_shades);
          ("stack_scans", Telemetry.Int t.stack_scans);
        ],
        [ ("rescans", Telemetry.Int t.core.retraced) ],
        [] ))

let hooks t =
  Mark.hooks t.core
    ~caps:
      {
        (* arrays are scanned whole in one gray-drain step: no tracing
           protocol, no direction contract *)
        Gc_hooks.retrace_protocol = false;
        descending_scan = false;
        insertion_half = true;
      }
    ~log_ref_store:(log_ref_store t) ~log_ins_store:(log_ins_store t)
    ~on_revoke:(on_revoke t) ~step:(fun () -> step t) ()

let collector t =
  {
    Mark.hooks = hooks t;
    start = (fun () -> start_cycle t);
    quiescent = (fun () -> quiescent t);
    finish = (fun () -> finish_cycle t);
    degraded = (fun () -> false);
  }
