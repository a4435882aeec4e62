(** SATB concurrent marking with the optimistic tracing-state / retrace
    protocol of the paper's §4.3.

    Plain SATB ({!Satb_gc}) cannot support eliding the barriers of an
    array {e rearrangement} (the pairwise swap in a sort): between the two
    stores of a swap the displaced element lives only in mutator locals,
    so a marker that scans the array inside that window — or that already
    scanned the element's slot — misses it, and no pre-value was logged.

    This collector closes the gap by exposing per-object {e tracing
    state} ({!Heap.trace_state}: untraced / being-traced / traced,
    observable mid-scan for chunked object arrays) and maintaining a
    {e retrace list}.  Compiled code at a swap-elided store executes a
    cheap tracing-state check instead of the logging barrier
    ({!Gc_hooks.t.on_unlogged_store}): if marking is in progress and the
    written object is not yet fully traced, the object is enqueued for a
    whole-object re-scan.  Re-scans run during normal mark increments and
    must reach a fixed point (an empty retrace list) before the remark
    pause may end.

    Soundness additionally relies on two contracts with the compiler and
    scheduler, mirroring a real VM's no-safepoint regions:

    - the analysis only elides swap pairs whose two stores sit in the
      same basic block with only simple non-throwing instructions
      between them ({!Satb_core.Analysis}), and
    - the interpreter marks that window as safepoint-free, so collector
      increments (and hence re-scans and the remark pause) never observe
      a half-completed swap ({!Interp}, {!Runner}).

    Under those contracts every re-scan sees a rearrangement-consistent
    array, and a [Traced] object's current elements are all marked (an
    elided store may only re-store a value loaded from the same array,
    which a completed scan already visited).  Arrays are scanned in
    descending index order, preserving the move-down contract of
    {!Satb_gc}.  Every cycle is verified against the {!Oracle} exactly
    like plain SATB.

    The SATB half (log buffers, snapshot) is {!Satb_gc}'s and the marking
    {!Mark}'s, whose re-scan queue is the retrace list; this module adds
    what fills it — the tracing-state check with its budget watchdog and
    the revocation repair. *)

type t = {
  core : Mark.t;
  satb : Satb_gc.t;  (** the SATB half, over the same core *)
  retrace_budget : int;
      (** max retrace-list enqueues per cycle before the termination
          watchdog degrades the cycle (swap elision falls back to
          logging); [max_int] = unbounded *)
  mutable enqueued : int;  (** retrace enqueues this cycle (budget basis) *)
  mutable budget_overflows : int;
  mutable repair_enqueues : int;
}

(* telemetry: the gc.* counters are the core's; retrace.* this policy's *)
let fk_retrace = Flight.intern "retrace"
let c_enqueues = Telemetry.counter "retrace.enqueues"
let c_repair_enqueues = Telemetry.counter "retrace.repair_enqueues"
let c_budget_overflows = Telemetry.counter "retrace.budget_overflows"

let create ?(steps_per_increment = 64) ?(buffer_capacity = 32)
    ?(array_chunk = 8) ?(retrace_budget = max_int) ?(sweep = true)
    (heap : Heap.t) ~(roots : unit -> int list) : t =
  let core =
    Mark.create ~name:"retrace" ~flight_key:fk_retrace ~steps_per_increment
      ~array_chunk ~direction:Descending ~sweep heap
  in
  {
    core;
    satb = Satb_gc.on_core core ~roots ~buffer_capacity;
    retrace_budget;
    enqueued = 0;
    budget_overflows = 0;
    repair_enqueues = 0;
  }

let is_marking t = t.core.marking
let enqueued t = t.enqueued
let budget_overflows t = t.budget_overflows

(* the budget overflowed this cycle, so swap elision is disabled for its
   remainder (graceful degradation, not an abort) *)
let is_degraded t = is_marking t && t.budget_overflows > 0

(** Begin a cycle.  All tracing states are [Untraced] here —
    {!Mark.finish} reset them at the previous cycle's end, and
    allocation starts objects untraced. *)
let start_cycle t =
  t.enqueued <- 0;
  t.budget_overflows <- 0;
  t.repair_enqueues <- 0;
  Satb_gc.start_cycle t.satb

let log_ref_store t = Satb_gc.log_ref_store t.satb

(* an object already waiting for its re-scan needs no second entry *)
let can_enqueue c obj (o : Heap.obj) =
  (not o.dead) && (not o.born_during_mark) && not (List.mem obj c.Mark.rescan)

(** The tracing-state check compiled at a swap-elided store: nothing was
    logged, so if the object's scan has not provably completed, schedule a
    whole-object re-scan.  Objects allocated during marking are black and
    never scanned, so rearrangements inside them need no retrace. *)
let on_unlogged_store t ~obj =
  let c = t.core in
  if c.marking && obj >= 0 then begin
    let o = Heap.get c.heap obj in
    if o.trace <> Heap.Traced && can_enqueue c obj o then begin
      (* Termination watchdog: past the budget the cycle is marked
         degraded — the runner will disable swap elision for its
         remainder, so no further checks arrive.  The entry itself is
         still enqueued: its store already happened unlogged, and
         dropping it would be unsound. *)
      if t.enqueued >= t.retrace_budget then begin
        t.budget_overflows <- t.budget_overflows + 1;
        Telemetry.incr c_budget_overflows;
        if Telemetry.armed () then
          Telemetry.emit "gc.degraded"
            [
              ("collector", Telemetry.Str c.name);
              ("cycle", Telemetry.Int c.cycles);
              ("enqueued", Telemetry.Int t.enqueued);
              ("budget", Telemetry.Int t.retrace_budget);
            ]
      end;
      t.enqueued <- t.enqueued + 1;
      Telemetry.incr c_enqueues;
      c.rescan <- obj :: c.rescan
    end
  end

(** Snapshot repair after elision revocation: every object written
    through a now-revoked site this cycle gets a whole-object re-scan,
    regardless of tracing state — the revoked sites logged nothing, so a
    completed scan proves nothing about what they overwrote.  Bypasses
    the retrace budget: repair is mandatory. *)
let on_revoke t ~objs =
  let c = t.core in
  if c.marking then
    List.iter
      (fun obj ->
        if obj >= 0 then
          let o = Heap.get c.heap obj in
          if can_enqueue c obj o then begin
            o.trace <- Heap.Untraced;
            t.repair_enqueues <- t.repair_enqueues + 1;
            Telemetry.incr c_repair_enqueues;
            c.rescan <- obj :: c.rescan
          end)
      objs

let on_alloc t o = Mark.on_alloc t.core o
let step t = Mark.step t.core

(** Pending re-scans count as work: remark may not begin before the
    retrace fixed point. *)
let quiescent t = Mark.quiescent t.core

(** The remark pause: flush buffer remnants, drain everything — including
    late retrace entries — to the retrace fixed point, verify the
    snapshot invariant, sweep. *)
let finish_cycle t =
  Satb_gc.finish_with t.satb ~fields:(fun () ->
      ( [
          ("logged", Telemetry.Int (Satb_gc.logged t.satb));
          ("retraces", Telemetry.Int t.core.retraced);
        ],
        [],
        [
          ("budget_overflows", Telemetry.Int t.budget_overflows);
          ("degraded", Telemetry.Bool (t.budget_overflows > 0));
          ("repair_enqueues", Telemetry.Int t.repair_enqueues);
        ] ))

let hooks t =
  Mark.hooks t.core
    ~caps:
      {
        Gc_hooks.retrace_protocol = true;
        descending_scan = true;
        insertion_half = false;
      }
    ~log_ref_store:(log_ref_store t)
    ~on_unlogged_store:(on_unlogged_store t) ~on_revoke:(on_revoke t) ()

let collector t =
  {
    Mark.hooks = hooks t;
    start = (fun () -> start_cycle t);
    quiescent = (fun () -> quiescent t);
    finish = (fun () -> finish_cycle t);
    degraded = (fun () -> is_degraded t);
  }
