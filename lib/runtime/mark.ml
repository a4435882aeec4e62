(** The tricolor marking core shared by the four collectors (see the
    interface for the work orders it fixes).  Every collector marks the
    same way — gray stack, budgeted drain at safepoints, allocate-black,
    a final pause that drains, checks the oracle, sweeps and reports — so
    this module owns all of it together with the cycle events, and the
    collectors ({!Satb_gc}, {!Incr_gc}, {!Retrace_gc}, {!Hybrid_gc}) are
    only their barrier policies. *)

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
  name : string;
  flight_key : int;
  steps_per_increment : int;
  array_chunk : int;
  direction : scan_direction;
  sweep : bool;
  mutable marking : bool;
  mutable stack : int array;
      (** gray stack: an object id, or an array tail pushed as its upper
          slot bound followed by [lnot id] *)
  mutable top : int;
  mutable log : int list;
  mutable rescan : int list;
  mutable boost : int;
  mutable increments : int;
  mutable allocated_during : int;
  mutable retraced : int;
  mutable cycles : int;
}

type fields = (string * Telemetry.json) list

type collector = {
  hooks : Gc_hooks.t;
  start : unit -> unit;
  quiescent : unit -> bool;
  finish : unit -> report;
  degraded : unit -> bool;
}

let create ~name ~flight_key ~steps_per_increment ~array_chunk ~direction
    ~sweep heap =
  {
    heap;
    name;
    flight_key;
    steps_per_increment;
    array_chunk;
    direction;
    sweep;
    marking = false;
    stack = Array.make 64 0;
    top = 0;
    log = [];
    rescan = [];
    boost = 1;
    increments = 0;
    allocated_during = 0;
    retraced = 0;
    cycles = 0;
  }

(* gc.* counters are shared by every collector (the [collector] field of
   the cycle events tells the streams apart); only the retrace policy
   fills the re-scan queue, so the re-scan counter keeps its name *)
let c_cycles = Telemetry.counter "gc.cycles"
let c_violations = Telemetry.counter "gc.violations"
let c_rescans = Telemetry.counter "retrace.rescans"

let push c v =
  if c.top = Array.length c.stack then begin
    let bigger = Array.make (2 * c.top) 0 in
    Array.blit c.stack 0 bigger 0 c.top;
    c.stack <- bigger
  end;
  c.stack.(c.top) <- v;
  c.top <- c.top + 1

let pop c =
  c.top <- c.top - 1;
  c.stack.(c.top)

(* [origin] records why the cycle keeps the object (a [Heap.origin_*]
   constant); first marker wins, children inherit the parent's origin
   while draining, and the float accounting reads the stamps post-sweep *)
let shade c ~origin id =
  let o = Heap.get c.heap id in
  if (not o.marked) && not o.dead then begin
    o.marked <- true;
    o.origin <- origin;
    push c id
  end

let shade_slots c ~origin (vs : Value.t array) lo hi =
  for i = lo to hi do
    match vs.(i) with
    | Value.Ref id -> shade c ~origin id
    | Value.Null | Value.Int _ -> ()
  done

(** Shade every referent of [o], in ascending slot order. *)
let shade_children c ~origin (o : Heap.obj) =
  match o.payload with
  | Heap.Fields vs | Heap.Ref_array vs ->
      shade_slots c ~origin vs 0 (Array.length vs - 1)
  | Heap.Int_array _ -> ()

(* One chunk of an object array whose slots [0..upto] remain (counted
   from the scan's starting end); an unfinished array re-grays its tail,
   a finished one becomes [Traced]. *)
let scan_chunk c (o : Heap.obj) es upto =
  let len = Array.length es in
  let rest =
    match c.direction with
    | Descending ->
        let last = max 0 (upto - c.array_chunk + 1) in
        for i = upto downto last do
          match es.(i) with
          | Value.Ref id -> shade c ~origin:o.origin id
          | Value.Null | Value.Int _ -> ()
        done;
        last - 1
    | Ascending ->
        (* walk upward from the low end; used whole by the collectors
           without a direction contract, chunked only to show that the
           move-down contract matters *)
        let start = len - 1 - upto in
        let stop =
          if c.array_chunk >= len - start then len - 1
          else start + c.array_chunk - 1
        in
        shade_slots c ~origin:o.origin es start stop;
        len - 2 - stop
  in
  if rest >= 0 then begin
    push c rest;
    push c (lnot o.id)
  end
  else o.trace <- Heap.Traced

let scan_entry c v =
  if v >= 0 then begin
    let o = Heap.get c.heap v in
    if not o.dead then
      match o.payload with
      | Heap.Ref_array es ->
          o.trace <- Heap.Being_traced;
          scan_chunk c o es (Array.length es - 1)
      | Heap.Fields _ | Heap.Int_array _ ->
          shade_children c ~origin:o.origin o;
          o.trace <- Heap.Traced
  end
  else
    let upto = pop c in
    let o = Heap.get c.heap (lnot v) in
    match o.payload with
    | Heap.Ref_array es when not o.dead -> scan_chunk c o es upto
    | Heap.Ref_array _ | Heap.Fields _ | Heap.Int_array _ -> ()

(** Process up to [budget] work units; returns the number processed.
    Each iteration shades one handed-over log entry, then scans one gray
    entry — or, once the gray stack is empty, re-scans one queued object
    whole, so at most one scan of an array is ever in flight. *)
let drain c budget =
  let processed = ref 0 in
  while !processed < budget && (c.top > 0 || c.log <> [] || c.rescan <> []) do
    (match c.log with
    | id :: rest ->
        c.log <- rest;
        shade c ~origin:Heap.origin_log id
    | [] -> ());
    if c.top > 0 then begin
      incr processed;
      scan_entry c (pop c)
    end
    else
      match c.rescan with
      | id :: rest ->
          c.rescan <- rest;
          c.retraced <- c.retraced + 1;
          Telemetry.incr c_rescans;
          incr processed;
          let o = Heap.get c.heap id in
          if not o.dead then begin
            (* anything first kept by a re-scan owes its survival to the
               retrace window or a revocation repair, not the snapshot *)
            shade_children c ~origin:Heap.origin_repair o;
            o.trace <- Heap.Traced
          end
      | [] -> ()
  done;
  !processed

let step c =
  if c.marking then begin
    c.increments <- c.increments + 1;
    ignore (drain c (c.steps_per_increment * c.boost))
  end

let quiescent c = c.marking && c.top = 0 && c.log = [] && c.rescan = []

(** Allocate black: implicitly marked, never examined (§1). *)
let on_alloc c (o : Heap.obj) =
  if c.marking then begin
    o.marked <- true;
    o.origin <- Heap.origin_alloc;
    o.born_during_mark <- true;
    c.allocated_during <- c.allocated_during + 1
  end

let on_pressure c ~degraded =
  c.boost <- (if degraded then Gc_hooks.pressure_boost else 1)

(** Begin a cycle: gray [roots] (the initial-mark pause) and announce it;
    [snapshot_size] is the oracle snapshot's size for the SATB family. *)
let start c roots ~snapshot_size =
  assert (not c.marking);
  c.marking <- true;
  c.top <- 0;
  c.log <- [];
  c.rescan <- [];
  c.increments <- 0;
  c.allocated_during <- 0;
  c.retraced <- 0;
  List.iter (fun id -> shade c ~origin:Heap.origin_trace id) roots;
  Flight.record Flight.Mark_start ~a:c.flight_key ~b:c.cycles
    ~c:(Option.value snapshot_size ~default:0);
  if Telemetry.armed () then
    Telemetry.emit "gc.cycle.start"
      ([
         ("collector", Telemetry.Str c.name);
         ("cycle", Telemetry.Int c.cycles);
         ("phase", Telemetry.Str "marking");
       ]
      @
      match snapshot_size with
      | Some n -> [ ("snapshot_size", Telemetry.Int n) ]
      | None -> [])

(** The tail of every final pause: drain to empty, check the oracle, and
    sweep only when the check passed.  [pause_work] is the policy's own
    pause work so far; [fields] gives the policy's entries of the finish
    event, placed after [marked], after [final_pause_work] and after
    [swept], and is only called while telemetry is armed. *)
let finish c ~pause_work ~logged ~violations ~fields =
  assert c.marking;
  let pause_work = pause_work + drain c max_int in
  let violations = violations () in
  let sweep = c.sweep && violations = 0 in
  (* one pass: count the marked, free the unmarked, and clear the mark
     state of the survivors (a swept object keeps its last state) *)
  let marked = ref 0 and swept = ref 0 in
  Heap.iter_live c.heap (fun o ->
      if o.marked then incr marked;
      if sweep && not o.marked then begin
        Heap.free c.heap o;
        incr swept
      end
      else begin
        o.marked <- false;
        o.born_during_mark <- false;
        o.trace <- Heap.Untraced
      end);
  let r =
    {
      cycle = c.cycles;
      marked = !marked;
      swept = !swept;
      allocated_during = c.allocated_during;
      increments = c.increments;
      final_pause_work = pause_work;
      violations;
      logged;
      retraced = c.retraced;
    }
  in
  c.cycles <- c.cycles + 1;
  c.heap.Heap.gc_cycle <- c.heap.Heap.gc_cycle + 1;
  c.marking <- false;
  Telemetry.incr c_cycles;
  Telemetry.incr c_violations ~by:violations;
  Flight.record Flight.Mark_end ~a:c.flight_key ~b:r.cycle ~c:violations;
  if Telemetry.armed () then begin
    let after_marked, after_pause, after_swept = fields () in
    Telemetry.emit "gc.cycle.finish"
      ([
         ("collector", Telemetry.Str c.name);
         ("cycle", Telemetry.Int r.cycle);
         ("phase", Telemetry.Str "idle");
         ("marked", Telemetry.Int r.marked);
       ]
      @ after_marked
      @ [ ("final_pause_work", Telemetry.Int pause_work) ]
      @ after_pause
      @ [ ("swept", Telemetry.Int r.swept) ]
      @ after_swept
      @ [ ("violations", Telemetry.Int violations) ])
  end;
  r

let hooks c ~caps ~log_ref_store ?(log_ins_store = fun ~tid:_ ~nv:_ -> ())
    ?(on_unlogged_store = fun ~obj:_ -> ()) ~on_revoke
    ?(on_alloc = on_alloc c) ?(on_pressure = on_pressure c)
    ?(step = fun () -> step c) () : Gc_hooks.t =
  {
    Gc_hooks.name = c.name;
    caps;
    is_marking = (fun () -> c.marking);
    log_ref_store;
    log_ins_store;
    on_unlogged_store;
    on_revoke;
    on_alloc;
    on_pressure;
    step;
  }
