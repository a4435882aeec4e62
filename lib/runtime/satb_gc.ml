(** Snapshot-at-the-beginning (SATB) concurrent marking (Yuasa-style, as
    used by the Garbage-First collector the paper instruments).

    The collector marks the objects reachable in a logical snapshot of the
    object graph taken when marking starts.  The mutator's write barrier
    logs the {e pre-write} value of every overwritten reference field, so
    that subgraphs unlinked during marking are still traced.  Objects
    allocated during marking are implicitly marked ("allocated black") and
    need never be examined — the key SATB advantage (§1).

    The final "remark pause" only has to drain the remaining SATB buffers,
    which is why SATB pauses are so much shorter than incremental-update
    pauses (compared in {!Incr_gc}); the pause's work is measured in
    {!Mark.report.final_pause_work}.

    Object arrays are scanned {e incrementally} (in bounded chunks) and in
    {e descending} index order.  The direction is a documented contract
    with the compiler: the §4.3 move-down elision (see
    {!Satb_core.Analysis}) is only sound when the collector's array scan
    direction agrees with the direction of element movement, and delete
    loops move elements toward lower indices.

    Every cycle is checked against the {!Oracle}: a missing barrier that
    actually unlinked an unvisited snapshot object shows up as an invariant
    violation, so running workloads under this collector end-to-end tests
    the {e soundness} of the barrier-removal analysis.

    The marking itself is {!Mark}'s; this module is the barrier policy —
    the log buffers, the snapshot and the restart repair — which
    {!Retrace_gc} reuses. *)

module Iset = Oracle.Iset

type scan_direction = Mark.scan_direction = Descending | Ascending

type t = {
  core : Mark.t;
  roots : unit -> int list;
  buffer_capacity : int;
      (** entries a mutator-local log buffer holds before it is handed to
          the collector; remnants are only visible at the remark pause *)
  mutable local : int list;  (** mutator-local, not yet handed over *)
  mutable local_count : int;
  mutable logged : int;
  mutable snapshot : Iset.t;
  mutable restarts : int;  (** revocation-triggered restarts, this cycle *)
}

let on_core core ~roots ~buffer_capacity =
  {
    core;
    roots;
    buffer_capacity;
    local = [];
    local_count = 0;
    logged = 0;
    snapshot = Iset.empty;
    restarts = 0;
  }

let fk_satb = Flight.intern "satb"
let c_restarts = Telemetry.counter "gc.restarts"

let create ?(steps_per_increment = 64) ?(buffer_capacity = 32)
    ?(array_chunk = 8) ?(direction = Descending) ?(sweep = true)
    (heap : Heap.t) ~(roots : unit -> int list) : t =
  on_core ~roots ~buffer_capacity
    (Mark.create ~name:"satb" ~flight_key:fk_satb ~steps_per_increment
       ~array_chunk ~direction ~sweep heap)

let is_marking t = t.core.marking
let logged t = t.logged
let restarts t = t.restarts
let snapshot_size t = Iset.cardinal t.snapshot
let local_count t = t.local_count
let handed_over t = List.length t.core.log

let take_snapshot t =
  let roots = t.roots () in
  t.snapshot <- Oracle.reachable t.core.heap roots;
  roots

(** Begin a cycle: capture the root set (initial-mark pause) and the
    oracle snapshot used for verification. *)
let start_cycle t =
  t.local <- [];
  t.local_count <- 0;
  t.logged <- 0;
  t.restarts <- 0;
  let roots = take_snapshot t in
  Mark.start t.core roots ~snapshot_size:(Some (snapshot_size t))

let flush t =
  t.core.log <- List.rev_append t.local t.core.log;
  t.local <- [];
  t.local_count <- 0

(** Log the pre-write value into the mutator-local buffer; a full buffer
    is handed to the collector (only then can concurrent marking see its
    entries — exactly how G1's thread-local SATB queues behave). *)
let log_ref_store t ~obj:_ ~pre =
  if t.core.marking then
    match pre with
    | Value.Ref id ->
        t.local <- id :: t.local;
        t.local_count <- t.local_count + 1;
        t.logged <- t.logged + 1;
        if t.local_count >= t.buffer_capacity then flush t
    | Value.Null | Value.Int _ -> ()

let on_alloc t o = Mark.on_alloc t.core o
let step t = Mark.step t.core

(** Snapshot repair after elision revocation.  Plain SATB has no record
    of {e which} pre-values the revoked sites failed to log, so the only
    sound recovery is wholesale: discard the cycle's progress and restart
    the mark against a fresh snapshot taken {e now} — any object whose
    last strong reference was overwritten through a revoked site is no
    longer reachable and so no longer owed a visit. *)
let restart_mark t =
  let c = t.core in
  if c.marking then begin
    Heap.clear_marks c.heap;
    c.top <- 0;
    c.log <- [];
    t.local <- [];
    t.local_count <- 0;
    t.restarts <- t.restarts + 1;
    Telemetry.incr c_restarts;
    List.iter (fun id -> Mark.shade c ~origin:Heap.origin_trace id)
      (take_snapshot t);
    if Telemetry.armed () then
      Telemetry.emit "gc.restart"
        [
          ("collector", Telemetry.Str c.name);
          ("cycle", Telemetry.Int c.cycles);
          ("snapshot_size", Telemetry.Int (snapshot_size t));
        ]
  end

let quiescent t = Mark.quiescent t.core

(** The remark pause: hand over the mutator-local buffer remnants, then
    the core drains, verifies the snapshot invariant and sweeps.  The
    pause's work is bounded by the buffer remnants and their transitive
    unmarked reach — not by heap size or allocation rate, which is the
    SATB advantage measured in experiment E5. *)
let finish_with t ~fields =
  flush t;
  Mark.finish t.core ~pause_work:0 ~logged:t.logged ~fields
    ~violations:(fun () -> Oracle.snapshot_violations t.core.heap t.snapshot)

let finish_cycle t =
  finish_with t ~fields:(fun () ->
      ( [ ("logged", Telemetry.Int t.logged) ],
        [],
        [ ("restarts", Telemetry.Int t.restarts) ] ))

let hooks t =
  Mark.hooks t.core
    ~caps:
      {
        Gc_hooks.retrace_protocol = false;
        descending_scan = t.core.direction = Descending;
        insertion_half = false;
      }
    ~log_ref_store:(log_ref_store t)
    (* no retrace protocol: an unlogged rearranging store is invisible to
       this collector (the negative soundness tests rely on this); repair
       restarts against a fresh snapshot, which subsumes the written ids *)
    ~on_revoke:(fun ~objs:_ -> restart_mark t)
    ()

let collector t =
  {
    Mark.hooks = hooks t;
    start = (fun () -> start_cycle t);
    quiescent = (fun () -> quiescent t);
    finish = (fun () -> finish_cycle t);
    degraded = (fun () -> false);
  }
