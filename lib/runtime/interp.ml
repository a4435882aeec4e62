(** A multi-threaded bytecode interpreter with write-barrier
    instrumentation.

    Every reference store (putfield/putstatic of a reference field,
    aastore) is a {e barrier site}.  The interpreter counts, per site, how
    many times it executes and how often the overwritten value was null —
    the instrumentation behind the paper's Table 1, including the
    "potentially pre-null" upper bound (§4.2).  A per-site {e verdict}
    (normally the analysis's) decides which sites' barriers were compiled
    out; executed barriers invoke the active collector's hook and are
    charged to the RISC cost model.

    Threads are deterministic green threads; the {!Runner} module
    interleaves them and the collector. *)

open Jir.Types

exception Runtime_bug of string

let bugf fmt = Fmt.kstr (fun s -> raise (Runtime_bug s)) fmt

(** A barrier site in the compiled (inlined) program. *)
type site = { s_class : class_name; s_method : method_name; s_pc : int }

(** What the retrace collector's compiler emits at a swap-elided store:
    nothing, or a tracing-state check that additionally opens (store 1 of
    the pair) or closes (store 2) a safepoint-free window.  The scheduler
    defers collector work while a window is open, so the collector never
    observes a half-completed swap (see {!Retrace_gc}). *)
type retrace_site = No_check | Check_open | Check_close

(** The runtime assumptions an elided verdict may depend on.  Each elided
    site carries its assumption set (its {e guards}); when an assumption
    is observed false at runtime the dependent sites are {e revoked} —
    atomically flipped back to full barriers at a safepoint, with snapshot
    repair through {!Gc_hooks.t.on_revoke}. *)
type assumption =
  | Single_mutator
  | Retrace_collector
  | Descending_scan
  | Mode_a
  | Closed_world

let string_of_assumption = function
  | Single_mutator -> "single-mutator"
  | Retrace_collector -> "retrace-collector"
  | Descending_scan -> "descending-scan"
  | Mode_a -> "mode-A"
  | Closed_world -> "closed-world"

type site_stats = {
  st_kind : store_kind;
  mutable st_elided : bool;  (** the verdict removed this site's barrier *)
  mutable st_check : retrace_site;
      (** tracing-state check compiled in its place *)
  st_guards : assumption list;
      (** assumptions this site's elision depends on; revocation of any
          flips [st_elided] off *)
  mutable st_del_elided : bool;
      (** hybrid flavor: the deletion (Yuasa) half was compiled out *)
  mutable st_ins_elided : bool;
      (** hybrid flavor: the insertion (Dijkstra) half was compiled out *)
  st_ins_repair : bool;
      (** insertion-elided destinations join the repair set handed to the
          collector at remark (fresh-value proofs need the re-scan; a
          proven-null store does not) *)
  st_del_guards : assumption list;  (** guards of the deletion half alone *)
  st_ins_guards : assumption list;  (** guards of the insertion half alone *)
  mutable execs : int;
  mutable pre_null_execs : int;
  mutable paid_execs : int;
      (** executions that ran a full barrier (kept, revoked or degraded);
          under the hybrid flavor, executions where at least one half ran *)
  mutable elided_execs : int;
      (** executions that skipped the barrier (both halves, under hybrid) *)
  mutable del_paid_execs : int;  (** hybrid: deletion halves executed *)
  mutable del_elided_execs : int;  (** hybrid: deletion halves skipped *)
  mutable ins_paid_execs : int;  (** hybrid: insertion halves executed *)
  mutable ins_elided_execs : int;  (** hybrid: insertion halves skipped *)
  mutable barrier_units : int;
      (** modelled RISC units charged at this site (barriers + checks) *)
  mutable revocations : int;
      (** times this site (either half) was patched back *)
}

(** One store site's verdict, in the two halves of a barrier: the
    deletion half logs the overwritten value (under [`Satb] it is the
    whole barrier), the insertion half shades the stored one ([`Hybrid]
    only).  Each half elides and revokes against its own guards. *)
type verdict = {
  v_del_elide : bool;
  v_ins_elide : bool;
  v_ins_repair : bool;
      (** record insertion-elided destinations for the remark re-scan *)
  v_check : retrace_site;
  v_del_guards : assumption list;
  v_ins_guards : assumption list;
}

let keep =
  {
    v_del_elide = false;
    v_ins_elide = false;
    v_ins_repair = false;
    v_check = No_check;
    v_del_guards = [];
    v_ins_guards = [];
  }

(** Original justification of a site's elision (the analysis-side
    provenance), attached to revocation events so a revoked site can
    print why its barrier was removed in the first place. *)
type explain_policy = class_name -> method_name -> int -> string option

let no_explain : explain_policy = fun _ _ _ -> None

type config = {
  verdicts : class_name -> method_name -> int -> verdict;
  guarded : bool;  (** a guard table was wired: failures may revoke *)
  explain : explain_policy;
  revoke : bool;
      (** honour guard failures by revoking dependent elisions; [false]
          (--no-revoke) runs open-loop so the oracle can demonstrate the
          failure the guards would have caught *)
  satb_mode : Barrier_cost.satb_mode;
  barrier_flavor : [ `Satb | `Hybrid ];
      (** which barrier body executes at non-elided sites: SATB pre-value
          logging (also what the incremental-update collector runs), or
          the fused deletion+insertion hybrid pair *)
  max_steps : int;
}

let default_config =
  {
    verdicts = (fun _ _ _ -> keep);
    guarded = false;
    explain = no_explain;
    revoke = true;
    satb_mode = Barrier_cost.Conditional;
    barrier_flavor = `Satb;
    max_steps = 50_000_000;
  }

type frame = {
  f_class : class_name;
  f_meth : meth;
  mutable pc : int;
  locals : Value.t array;
  mutable ostack : Value.t list;
}

type thread = {
  tid : int;
  mutable frames : frame list;  (** top first *)
  mutable finished : bool;
  mutable error : string option;
}

type t = {
  prog : Jir.Program.t;
  heap : Heap.t;
  statics : (class_name * field_name, Value.t) Hashtbl.t;
  mutable threads : thread list;  (** in spawn order *)
  mutable next_tid : int;
  stats : (site, site_stats) Hashtbl.t;
  cfg : config;
  mutable gc : Gc_hooks.t;
  mutable pacer : Pacer.t option;
      (** pacing controller; admission-controls every allocation and
          drives degraded-mode allocation assists *)
  mutable assist_execs : int;
      (** collector increments run on allocating threads' behalf while
          the pacer was degraded *)
  mutable instr_count : int;
  mutable cost_units : int;  (** bytecode + barrier RISC units *)
  mutable barrier_units : int;
  mutable barriers_executed : int;
  mutable elided_barrier_execs : int;
  mutable retrace_checks : int;  (** executed tracing-state checks *)
  mutable in_no_safepoint : bool;
      (** a swap window is open: collector work must be deferred *)
  mutable revoked : assumption list;  (** assumptions observed false *)
  mutable pending_revocations : assumption list;
      (** guard failures noticed mid-quantum, applied at the next
          safepoint (or synchronously at a [Spawn]) *)
  mutable revocation_events : int;  (** assumptions revoked so far *)
  mutable revoked_sites : int;  (** sites flipped back to full barriers *)
  mutable guarded_writes : int list;
      (** objects written through guarded elided sites this marking
          cycle — the repair set handed to [on_revoke] *)
  mutable swap_degraded : bool;
      (** retrace budget overflowed: swap-elided sites execute full
          barriers for the remainder of the cycle *)
  mutable degradations : int;  (** cycles that entered degraded mode *)
  mutable degraded_swap_execs : int;
      (** stores at swap-elided sites that fell back to full barriers *)
  mutable external_paid_execs : int;
      (** chaos-injected external stores that ran a full barrier; no site
          of their own, attributed to the profiler's "external" row *)
  mutable external_elided_execs : int;
      (** chaos-injected external stores through live guarded elisions *)
  field_index : (field_ref, int) Hashtbl.t;
  alloc_sites : (site, int) Hashtbl.t;
      (** interned {!Sitemap} ids of allocation sites, cached per program
          point so the allocation fast path does no string formatting *)
  mutable track_heap : bool;
      (** heap observatory armed: elided stores during marking append to
          [elided_write_log] (one flag test when off) *)
  mutable elided_write_log : (int * int) list;
      (** [(obj, verdict_class)] for stores whose barrier (or a half of
          it) was elided while marking — lets the float accounting split
          per-verdict; verdict classes are the [ew_*] constants *)
  mutable barrier_epoch : int;
      (** bumped whenever per-site verdicts may change (revocation
          applied, degraded mode entered, cycle state reset); the
          threaded engine stamps each compiled store site with the epoch
          it specialized against and respecializes on mismatch — per-site
          invalidation with no global flush *)
  mutable stack_roots_override : (unit -> (int * int list) list) option;
      (** installed by the threaded engine ({!Exec}), which owns the live
          thread stacks; {!thread_roots} and {!roots} consult it so the
          collectors see the same root set in the same enumeration order
          under either engine *)
}

exception Jexn of exn_kind

let jthrow kind = raise (Jexn kind)

let create ?(cfg = default_config) (prog : Jir.Program.t) : t =
  let statics = Hashtbl.create 64 in
  List.iter
    (fun (c : cls) ->
      List.iter
        (fun fd ->
          Hashtbl.replace statics (c.cname, fd.fd_name)
            (match fd.fd_ty with I -> Value.Int 0 | R -> Value.Null))
        c.statics)
    (Jir.Program.classes prog);
  {
    prog;
    heap = Heap.create ();
    statics;
    threads = [];
    next_tid = 0;
    stats = Hashtbl.create 256;
    cfg;
    gc = Gc_hooks.none;
    pacer = None;
    assist_execs = 0;
    instr_count = 0;
    cost_units = 0;
    barrier_units = 0;
    barriers_executed = 0;
    elided_barrier_execs = 0;
    retrace_checks = 0;
    in_no_safepoint = false;
    revoked = [];
    pending_revocations = [];
    revocation_events = 0;
    revoked_sites = 0;
    guarded_writes = [];
    swap_degraded = false;
    degradations = 0;
    degraded_swap_execs = 0;
    external_paid_execs = 0;
    external_elided_execs = 0;
    field_index = Hashtbl.create 64;
    alloc_sites = Hashtbl.create 64;
    track_heap = false;
    elided_write_log = [];
    barrier_epoch = 0;
    stack_roots_override = None;
  }

let set_collector m gc = m.gc <- gc
let set_pacer m p = m.pacer <- Some p

(* ---- telemetry -------------------------------------------------------- *)

(* Mirrors of the legacy mutable counters above, bumped at exactly the
   same program points so a metrics snapshot reconciles with
   [Interp] statistics to the unit (the invariant the telemetry test
   suite fuzzes).  Module-level handles: a counter bump on the barrier
   hot path is one int-ref increment. *)
let c_barriers = Telemetry.counter "jrt.barriers_executed"
let c_elided = Telemetry.counter "jrt.elided_barrier_execs"
let c_retrace_checks = Telemetry.counter "jrt.retrace_checks"
let c_revocation_events = Telemetry.counter "jrt.revocation_events"
let c_revoked_sites = Telemetry.counter "jrt.revoked_sites"
let c_degradations = Telemetry.counter "jrt.degradations"
let c_degraded_swap = Telemetry.counter "jrt.degraded_swap_execs"
let c_assist_execs = Telemetry.counter "jrt.assist_execs"

let site_id (site : site) : string =
  Printf.sprintf "%s.%s@%d" site.s_class site.s_method site.s_pc

(* ---- heap observatory hooks ------------------------------------------- *)

(* Verdict classes of an elided-write-log entry: which (half of the)
   barrier the store skipped.  Plain ints so the fused fast paths cons a
   two-int tuple and nothing else. *)
let ew_full = 0 (* whole barrier elided ([`Satb] flavor) *)
let ew_del = 1 (* hybrid: deletion half elided, insertion ran *)
let ew_ins = 2 (* hybrid: insertion half elided, deletion ran *)
let ew_both = 3 (* hybrid: both halves elided *)

(* One flag test on the elided fast path when the observatory is off;
   recording is gated on marking because only stores inside a cycle can
   change what that cycle floats. *)
let note_elided_write (m : t) ~(obj : int) (cls : int) : unit =
  if m.track_heap && obj >= 0 && m.gc.is_marking () then
    m.elided_write_log <- (obj, cls) :: m.elided_write_log

(* ---- guards and revocation -------------------------------------------- *)

(** One site patched back to a full barrier: count it, record the flight
    event (site, the guard that actually fired, which half flipped: 0
    whole site / 1 deletion / 2 insertion) and emit [revoke.site] (site,
    guard set and — when the driver wired an explain policy — the
    original justification).  Interning only happens here, on the cold
    revocation path. *)
let revoke_site (m : t) (site : site) (st : site_stats)
    ~(guards : assumption list) ~(failed : assumption list) ~(half : int)
    ~(materialized : bool) : unit =
  m.revoked_sites <- m.revoked_sites + 1;
  Telemetry.incr c_revoked_sites;
  (if Flight.enabled () then
     let prov =
       match List.find_opt (fun a -> List.mem a failed) guards with
       | Some a -> string_of_assumption a
       | None -> "?"
     in
     Flight.record Flight.Revoke_site
       ~a:(Flight.intern (site_id site))
       ~b:(Flight.intern prov) ~c:half);
  if Telemetry.armed () then
    Telemetry.emit "revoke.site"
      ([
         ("site", Telemetry.Str (site_id site));
         ( "guards",
           Telemetry.List
             (List.map
                (fun a -> Telemetry.Str (string_of_assumption a))
                st.st_guards) );
         ("materialized", Telemetry.Bool materialized);
       ]
      @
      match m.cfg.explain site.s_class site.s_method site.s_pc with
      | Some j -> [ ("justification", Telemetry.Str j) ]
      | None -> [])

(** Note an assumption observed false.  The revocation itself happens at
    the next safepoint ({!apply_revocations}); deduplicated, and inert
    unless guards are wired and revocation is enabled. *)
let request_revoke (m : t) (a : assumption) : unit =
  if
    m.cfg.guarded && m.cfg.revoke
    && (not (List.mem a m.revoked))
    && not (List.mem a m.pending_revocations)
  then begin
    m.pending_revocations <- a :: m.pending_revocations;
    Flight.record Flight.Revoke_request
      ~a:(Flight.intern (string_of_assumption a))
      ~b:0 ~c:0;
    Telemetry.emit "revoke.request"
      [ ("assumption", Telemetry.Str (string_of_assumption a)) ]
  end

let revocation_pending (m : t) : bool = m.pending_revocations <> []

(** Atomically flip every site depending on a failed assumption back to a
    full barrier, then hand the cycle's guarded-write set to the
    collector for snapshot repair.  Must run at a safepoint: the runner
    calls it between quanta (never inside a swap window), and [Spawn]
    calls it synchronously before the new thread can run. *)
let apply_revocations (m : t) : unit =
  if m.pending_revocations <> [] then begin
    (* compiled code specialized against the old verdicts is stale *)
    m.barrier_epoch <- m.barrier_epoch + 1;
    let failed = m.pending_revocations in
    m.pending_revocations <- [];
    m.revoked <- failed @ m.revoked;
    m.revocation_events <- m.revocation_events + List.length failed;
    Telemetry.incr c_revocation_events ~by:(List.length failed);
    Flight.record Flight.Revoke_apply ~a:(List.length failed)
      ~b:(List.length m.guarded_writes) ~c:0;
    Telemetry.emit "revoke.apply"
      [
        ( "assumptions",
          Telemetry.List
            (List.map
               (fun a -> Telemetry.Str (string_of_assumption a))
               failed) );
        ("repair_set", Telemetry.Int (List.length m.guarded_writes));
      ];
    let hit guards = List.exists (fun a -> List.mem a failed) guards in
    Hashtbl.iter
      (fun site st ->
        (* each half revokes against its own guard set; a site counts as
           one revocation even if both halves flip together *)
        let del_flip = st.st_del_elided && hit st.st_del_guards in
        let ins_flip = st.st_ins_elided && hit st.st_ins_guards in
        if del_flip || ins_flip then begin
          if del_flip then st.st_del_elided <- false;
          if ins_flip then st.st_ins_elided <- false;
          st.st_elided <- st.st_del_elided && st.st_ins_elided;
          st.st_check <- No_check;
          st.revocations <- st.revocations + 1;
          revoke_site m site st
            ~guards:
              ((if del_flip then st.st_del_guards else [])
              @ if ins_flip then st.st_ins_guards else [])
            ~failed
            ~half:
              (if m.cfg.barrier_flavor = `Satb || (del_flip && ins_flip) then 0
               else if del_flip then 1
               else 2)
            ~materialized:false
        end)
      m.stats;
    (* Repair: every object written through a guarded elided site this
       cycle may have had a pre-value go unlogged; the collector re-scans
       them (retrace) or restarts from a fresh snapshot (plain SATB). *)
    if m.gc.is_marking () then m.gc.on_revoke ~objs:m.guarded_writes;
    m.guarded_writes <- []
  end

(** A chaos-injected second mutator was observed (late-spawn fault): the
    single-mutator assumption is false from here on. *)
let note_second_mutator (m : t) : unit = request_revoke m Single_mutator

(** A chaos-injected class load was observed: the closed-world assumption
    behind the callee summaries is false from here on, so every
    summary-dependent elision must revoke. *)
let note_class_load (m : t) : unit = request_revoke m Closed_world

(** Marking-cycle lifecycle (called by the runner at cycle start/end):
    the guarded-write repair set and the degradation flag are per-cycle. *)
let reset_cycle_state (m : t) : unit =
  m.guarded_writes <- [];
  m.elided_write_log <- [];
  (* leaving degraded mode changes what swap-elided sites execute *)
  if m.swap_degraded then m.barrier_epoch <- m.barrier_epoch + 1;
  m.swap_degraded <- false

(** Enter degraded mode: the retrace budget overflowed, so swap-elided
    sites execute full logging barriers for the rest of the cycle.
    Applied at safepoints only, so it never lands inside a swap window. *)
let set_swap_degraded (m : t) : unit =
  if not m.swap_degraded then begin
    m.barrier_epoch <- m.barrier_epoch + 1;
    m.swap_degraded <- true;
    m.degradations <- m.degradations + 1;
    Telemetry.incr c_degradations;
    Flight.record Flight.Swap_degraded
      ~a:(Flight.intern "retrace-budget-overflow")
      ~b:0 ~c:0;
    Telemetry.emit "runtime.degraded"
      [ ("reason", Telemetry.Str "retrace-budget-overflow") ]
  end

let field_index m fr =
  match Hashtbl.find_opt m.field_index fr with
  | Some i -> i
  | None ->
      let i = Jir.Program.field_index m.prog fr in
      Hashtbl.replace m.field_index fr i;
      i

(** Interned {!Sitemap} id of the allocation site at [fr]'s current pc.
    Cached like {!field_index}: the string is formatted once per program
    point, after which the fast path is one hash lookup. *)
let alloc_site (m : t) (fr : frame) : int =
  let key =
    { s_class = fr.f_class; s_method = fr.f_meth.mname; s_pc = fr.pc }
  in
  match Hashtbl.find_opt m.alloc_sites key with
  | Some id -> id
  | None ->
      let id = Sitemap.intern (site_id key) in
      Hashtbl.replace m.alloc_sites key id;
      id

(** Spawn a thread running [mr] with [args] already evaluated. *)
let spawn_thread (m : t) (mr : method_ref) (args : Value.t list) : thread =
  let meth = Jir.Program.get_method m.prog mr in
  let locals = Array.make meth.max_locals Value.Null in
  List.iteri (fun i v -> locals.(i) <- v) args;
  let th =
    {
      tid = m.next_tid;
      frames =
        [ { f_class = mr.mclass; f_meth = meth; pc = 0; locals; ostack = [] } ];
      finished = false;
      error = None;
    }
  in
  m.next_tid <- m.next_tid + 1;
  (* A second mutator falsifies the single-mutator assumption.  Revoke
     synchronously — [Spawn] is never inside a swap window (the analysis
     only whitelists simple non-throwing instructions there), and the new
     thread may otherwise run up to a full quantum before the next
     safepoint would apply the patch. *)
  if m.threads <> [] then begin
    request_revoke m Single_mutator;
    apply_revocations m
  end;
  m.threads <- m.threads @ [ th ];
  th

(* ---- GC root enumeration ---------------------------------------------- *)

(** Static roots alone — the part of the root set the hybrid collector
    marks at cycle start (stacks are scanned lazily). *)
let static_roots (m : t) : int list =
  let acc = ref [] in
  Hashtbl.iter
    (fun _ v -> match v with Value.Ref id -> acc := id :: !acc | _ -> ())
    m.statics;
  !acc

(** One interpreter thread's stack roots: frames top first, locals in
    index order, then the operand stack top first, prepend-accumulated.
    Marking progress depends on root order, so the threaded engine's
    override must reproduce exactly this enumeration. *)
let interp_stack_roots (th : thread) : int list =
  let acc = ref [] in
  let add = function Value.Ref id -> acc := id :: !acc | Value.Null | Value.Int _ -> () in
  List.iter
    (fun fr ->
      Array.iter add fr.locals;
      List.iter add fr.ostack)
    th.frames;
  !acc

(** Per-thread stack roots: [(tid, refs held in that thread's frames)],
    including finished threads' (empty) frames so the collector sees every
    tid it may have been asked about.  When the threaded engine owns the
    live stacks it installs {!t.stack_roots_override}. *)
let thread_roots (m : t) : (int * int list) list =
  match m.stack_roots_override with
  | Some f -> f ()
  | None -> List.map (fun th -> (th.tid, interp_stack_roots th)) m.threads

(** All reference values currently held in thread stacks and statics —
    list-identical to the historical single-pass enumeration (statics
    first, threads in spawn order, each segment prepend-reversed). *)
let roots (m : t) : int list =
  List.fold_left (fun acc (_, l) -> l @ acc) (static_roots m) (thread_roots m)

(* ---- barrier instrumentation ------------------------------------------ *)

let site_stats (m : t) (site : site) (kind : store_kind) : site_stats =
  match Hashtbl.find_opt m.stats site with
  | Some st -> st
  | None ->
      let v = m.cfg.verdicts site.s_class site.s_method site.s_pc in
      let hybrid = m.cfg.barrier_flavor = `Hybrid in
      (* a half first reached after one of its assumptions was revoked
         materializes already patched *)
      let dead guards = List.exists (fun a -> List.mem a m.revoked) guards in
      let del = v.v_del_elide && not (dead v.v_del_guards) in
      let ins = hybrid && v.v_ins_elide && not (dead v.v_ins_guards) in
      let st =
        {
          st_kind = kind;
          st_elided = del && (ins || not hybrid);
          st_check = (if del && not hybrid then v.v_check else No_check);
          st_guards =
            (if hybrid then
               List.sort_uniq compare (v.v_del_guards @ v.v_ins_guards)
             else v.v_del_guards);
          st_del_elided = del;
          st_ins_elided = ins;
          st_ins_repair = hybrid && v.v_ins_repair;
          st_del_guards = v.v_del_guards;
          st_ins_guards = (if hybrid then v.v_ins_guards else []);
          execs = 0;
          pre_null_execs = 0;
          paid_execs = 0;
          elided_execs = 0;
          del_paid_execs = 0;
          del_elided_execs = 0;
          ins_paid_execs = 0;
          ins_elided_execs = 0;
          barrier_units = 0;
          revocations =
            Bool.to_int
              (del <> v.v_del_elide || ins <> (hybrid && v.v_ins_elide));
        }
      in
      Hashtbl.replace m.stats site st;
      if st.revocations > 0 then
        revoke_site m site st ~guards:st.st_guards ~failed:m.revoked ~half:0
          ~materialized:true;
      st

(** Execute the fused hybrid barrier: deletion and insertion halves run
    (or are skipped) independently.  The site-level [paid_execs] /
    [elided_execs] invariant is preserved — a store counts as elided iff
    {e both} halves were skipped — so the profiler's reconciliation and
    every legacy counter stay exact. *)
let hybrid_store_barrier (m : t) (st : site_stats) ~(tid : int) ~(obj : int)
    ~(pre : Value.t) ~(nv : Value.t) ~(pre_null : bool) : unit =
  let marking = m.gc.is_marking () in
  let charge cost =
    m.barrier_units <- m.barrier_units + cost;
    m.cost_units <- m.cost_units + cost;
    st.barrier_units <- st.barrier_units + cost
  in
  let compiled_out = m.cfg.satb_mode = Barrier_cost.No_barrier in
  (* deletion half (Yuasa): shade the overwritten value *)
  if st.st_del_elided then st.del_elided_execs <- st.del_elided_execs + 1
  else begin
    st.del_paid_execs <- st.del_paid_execs + 1;
    if not compiled_out then begin
      charge (Barrier_cost.hybrid_del_cost ~marking ~pre_null);
      m.gc.log_ref_store ~obj ~pre
    end
  end;
  (* insertion half (Dijkstra): shade the stored value while the storing
     thread's stack is grey; the collector owns the scan-state test *)
  if st.st_ins_elided then st.ins_elided_execs <- st.ins_elided_execs + 1
  else begin
    st.ins_paid_execs <- st.ins_paid_execs + 1;
    if not compiled_out then begin
      charge (Barrier_cost.hybrid_ins_cost ~marking ~stack_grey:true);
      m.gc.log_ins_store ~tid ~nv
    end
  end;
  (* repair set: a guarded deletion elision may have let a pre-value go
     unlogged; an insertion elision under a freshness proof needs its
     destination re-scanned at remark regardless of guards *)
  if
    marking && obj >= 0
    && ((st.st_del_elided && st.st_del_guards <> [])
       || (st.st_ins_elided && (st.st_ins_repair || st.st_ins_guards <> [])))
  then m.guarded_writes <- obj :: m.guarded_writes;
  if m.track_heap then
    if st.st_del_elided && st.st_ins_elided then
      note_elided_write m ~obj ew_both
    else if st.st_del_elided then note_elided_write m ~obj ew_del
    else if st.st_ins_elided then note_elided_write m ~obj ew_ins;
  if st.st_del_elided && st.st_ins_elided then begin
    m.elided_barrier_execs <- m.elided_barrier_execs + 1;
    st.elided_execs <- st.elided_execs + 1;
    Telemetry.incr c_elided
  end
  else begin
    m.barriers_executed <- m.barriers_executed + 1;
    st.paid_execs <- st.paid_execs + 1;
    Telemetry.incr c_barriers
  end

(** Execute the write-barrier protocol for a reference store whose
    {!site_stats} record is already in hand — the general (slow-path)
    body both engines share: the interpreter reaches it through
    {!ref_store_barrier}, the threaded engine calls it directly from
    compiled store opcodes whose cached verdict does not qualify for one
    of the fused fast paths below.  [obj = -1] for static stores; [nv] is
    the value being stored and [tid] the storing thread (both consumed by
    the hybrid flavor only). *)
let ref_store_barrier_st (m : t) (st : site_stats) ~(tid : int) ~(obj : int)
    ~(pre : Value.t) ~(nv : Value.t) : unit =
  st.execs <- st.execs + 1;
  let pre_null = not (Value.is_ref pre) in
  if pre_null then st.pre_null_execs <- st.pre_null_execs + 1;
  if m.cfg.barrier_flavor = `Hybrid then
    hybrid_store_barrier m st ~tid ~obj ~pre ~nv ~pre_null
  else if st.st_elided && not (m.swap_degraded && st.st_check <> No_check) then begin
    m.elided_barrier_execs <- m.elided_barrier_execs + 1;
    st.elided_execs <- st.elided_execs + 1;
    Telemetry.incr c_elided;
    if m.track_heap then note_elided_write m ~obj ew_full;
    (* a write through a guarded site during marking joins the repair
       set: if its guards later fail this cycle, the collector re-scans
       (or re-snapshots) to make up for whatever went unlogged here *)
    if st.st_guards <> [] && obj >= 0 && m.gc.is_marking () then
      m.guarded_writes <- obj :: m.guarded_writes;
    match st.st_check with
    | No_check -> ()
    | (Check_open | Check_close) as check ->
        m.retrace_checks <- m.retrace_checks + 1;
        Telemetry.incr c_retrace_checks;
        let cost = Barrier_cost.tracing_check_units in
        m.barrier_units <- m.barrier_units + cost;
        m.cost_units <- m.cost_units + cost;
        st.barrier_units <- st.barrier_units + cost;
        m.gc.on_unlogged_store ~obj;
        m.in_no_safepoint <- check = Check_open
  end
  else begin
    (* degraded swap sites fall back to the full logging barrier for the
       rest of the cycle (retrace-budget overflow); a close store must
       still dismiss any window its open store created before
       degradation — it cannot have, since degradation is only applied
       at safepoints, but clear defensively *)
    if st.st_elided then begin
      m.degraded_swap_execs <- m.degraded_swap_execs + 1;
      Telemetry.incr c_degraded_swap;
      if st.st_check = Check_close then m.in_no_safepoint <- false
    end;
    m.barriers_executed <- m.barriers_executed + 1;
    st.paid_execs <- st.paid_execs + 1;
    Telemetry.incr c_barriers;
    let cost =
      match m.cfg.barrier_flavor with
      | `Satb ->
          Barrier_cost.satb_cost ~mode:m.cfg.satb_mode
            ~marking:(m.gc.is_marking ()) ~pre_null
      | `Hybrid -> assert false (* handled by [hybrid_store_barrier] *)
    in
    m.barrier_units <- m.barrier_units + cost;
    m.cost_units <- m.cost_units + cost;
    st.barrier_units <- st.barrier_units + cost;
    match m.cfg.satb_mode with
    | Barrier_cost.No_barrier -> ()
    | Barrier_cost.Conditional | Barrier_cost.Always_log ->
        m.gc.log_ref_store ~obj ~pre
  end

(** Site-lookup wrapper used by the tree-walking interpreter: build the
    site key from the current frame, materialize (or find) its stats,
    run the shared barrier body. *)
let ref_store_barrier (m : t) (fr : frame) ~(kind : store_kind) ~(tid : int)
    ~(obj : int) ~(pre : Value.t) ~(nv : Value.t) : unit =
  let site = { s_class = fr.f_class; s_method = fr.f_meth.mname; s_pc = fr.pc } in
  let st = site_stats m site kind in
  ref_store_barrier_st m st ~tid ~obj ~pre ~nv

(* ---- fused fast-path barrier bodies (threaded engine) ------------------ *)

(* The threaded engine ({!Exec}) specializes every compiled store site to
   one of these fused bodies when it (re)materializes the site's verdict.
   Preconditions are established at specialization time and revalidated
   through {!t.barrier_epoch} stamps — never re-checked on the store fast
   path.  Each body is a line-for-line restriction of
   [ref_store_barrier_st] under its precondition, so both engines bump
   exactly the same counters. *)

(** Precondition: [`Satb] flavor, [st_elided], [No_check],
    [st_guards = []]. *)
let barrier_elided_plain (m : t) (st : site_stats) ~(obj : int)
    ~(pre : Value.t) : unit =
  st.execs <- st.execs + 1;
  if not (Value.is_ref pre) then st.pre_null_execs <- st.pre_null_execs + 1;
  m.elided_barrier_execs <- m.elided_barrier_execs + 1;
  st.elided_execs <- st.elided_execs + 1;
  Telemetry.incr c_elided;
  if m.track_heap then note_elided_write m ~obj ew_full

(** Precondition: as {!barrier_elided_plain} but [st_guards <> []]. *)
let barrier_elided_guarded (m : t) (st : site_stats) ~(obj : int)
    ~(pre : Value.t) : unit =
  st.execs <- st.execs + 1;
  if not (Value.is_ref pre) then st.pre_null_execs <- st.pre_null_execs + 1;
  m.elided_barrier_execs <- m.elided_barrier_execs + 1;
  st.elided_execs <- st.elided_execs + 1;
  Telemetry.incr c_elided;
  if m.track_heap then note_elided_write m ~obj ew_full;
  if obj >= 0 && m.gc.is_marking () then
    m.guarded_writes <- obj :: m.guarded_writes

(** Precondition: [`Hybrid] flavor, both halves elided, neither half
    guarded, not [st_ins_repair]. *)
let barrier_hybrid_both_elided (m : t) (st : site_stats) ~(obj : int)
    ~(pre : Value.t) : unit =
  st.execs <- st.execs + 1;
  if not (Value.is_ref pre) then st.pre_null_execs <- st.pre_null_execs + 1;
  st.del_elided_execs <- st.del_elided_execs + 1;
  st.ins_elided_execs <- st.ins_elided_execs + 1;
  m.elided_barrier_execs <- m.elided_barrier_execs + 1;
  st.elided_execs <- st.elided_execs + 1;
  Telemetry.incr c_elided;
  if m.track_heap then note_elided_write m ~obj ew_both

(** Precondition: [`Hybrid] flavor, deletion half elided with no guards,
    insertion half kept. *)
let barrier_hybrid_del_elided (m : t) (st : site_stats) ~(tid : int)
    ~(obj : int) ~(pre : Value.t) ~(nv : Value.t) : unit =
  st.execs <- st.execs + 1;
  if not (Value.is_ref pre) then st.pre_null_execs <- st.pre_null_execs + 1;
  st.del_elided_execs <- st.del_elided_execs + 1;
  st.ins_paid_execs <- st.ins_paid_execs + 1;
  if m.track_heap then note_elided_write m ~obj ew_del;
  if m.cfg.satb_mode <> Barrier_cost.No_barrier then begin
    let cost =
      Barrier_cost.hybrid_ins_cost ~marking:(m.gc.is_marking ())
        ~stack_grey:true
    in
    m.barrier_units <- m.barrier_units + cost;
    m.cost_units <- m.cost_units + cost;
    st.barrier_units <- st.barrier_units + cost;
    m.gc.log_ins_store ~tid ~nv
  end;
  m.barriers_executed <- m.barriers_executed + 1;
  st.paid_execs <- st.paid_execs + 1;
  Telemetry.incr c_barriers

(** Precondition: [`Hybrid] flavor, insertion half elided with no guards
    and not [st_ins_repair], deletion half kept. *)
let barrier_hybrid_ins_elided (m : t) (st : site_stats) ~(obj : int)
    ~(pre : Value.t) : unit =
  st.execs <- st.execs + 1;
  let pre_null = not (Value.is_ref pre) in
  if pre_null then st.pre_null_execs <- st.pre_null_execs + 1;
  st.del_paid_execs <- st.del_paid_execs + 1;
  if m.track_heap then note_elided_write m ~obj ew_ins;
  if m.cfg.satb_mode <> Barrier_cost.No_barrier then begin
    let cost =
      Barrier_cost.hybrid_del_cost ~marking:(m.gc.is_marking ()) ~pre_null
    in
    m.barrier_units <- m.barrier_units + cost;
    m.cost_units <- m.cost_units + cost;
    st.barrier_units <- st.barrier_units + cost;
    m.gc.log_ref_store ~obj ~pre
  end;
  st.ins_elided_execs <- st.ins_elided_execs + 1;
  m.barriers_executed <- m.barriers_executed + 1;
  st.paid_execs <- st.paid_execs + 1;
  Telemetry.incr c_barriers

(* ---- external (chaos-injected) mutator stores ------------------------- *)

(** Does any materialized site still elide its barrier on the strength of
    assumption [a]?  Used by {!external_guarded_store} to decide whether
    a chaos-injected second mutator would be executing guarded elided
    code at all. *)
let has_live_guarded_elisions (m : t) (a : assumption) : bool =
  Hashtbl.fold
    (fun _ st acc ->
      acc
      || (st.st_del_elided && List.mem a st.st_del_guards)
      || (st.st_ins_elided && List.mem a st.st_ins_guards))
    m.stats false

let external_slot_store (m : t) ~(obj : int) ~(idx : int) ~(v : Value.t)
    ~(log : pre:Value.t -> unit) : unit =
  if obj >= 0 && obj < m.heap.Heap.next_id then begin
    let o = Heap.get m.heap obj in
    if not o.Heap.dead then
      let store slots i =
        log ~pre:slots.(i);
        slots.(i) <- v
      in
      match o.Heap.payload with
      | Heap.Ref_array es ->
          if idx >= 0 && idx < Array.length es then store es idx
      | Heap.Fields fs -> if idx >= 0 && idx < Array.length fs then store fs idx
      | Heap.Int_array _ -> ()
  end

(** A store performed by a chaos-injected second mutator through a
    [Single_mutator]-guarded elided site: it takes the unlogged (elided)
    path only while such sites are still live and the assumption stands
    unrevoked — after a revocation the patched code executes the full
    barrier, which is exactly the property the E11 experiment checks. *)
let external_guarded_store (m : t) ~(obj : int) ~(idx : int) ~(v : Value.t) :
    unit =
  let elided =
    (not (List.mem Single_mutator m.revoked))
    && has_live_guarded_elisions m Single_mutator
  in
  external_slot_store m ~obj ~idx ~v ~log:(fun ~pre ->
      if elided then begin
        m.elided_barrier_execs <- m.elided_barrier_execs + 1;
        m.external_elided_execs <- m.external_elided_execs + 1;
        Telemetry.incr c_elided;
        if m.gc.is_marking () then m.guarded_writes <- obj :: m.guarded_writes
      end
      else begin
        m.barriers_executed <- m.barriers_executed + 1;
        m.external_paid_execs <- m.external_paid_execs + 1;
        Telemetry.incr c_barriers;
        m.gc.log_ref_store ~obj ~pre;
        (* tid -1: an external mutator has no scanned stack, so a hybrid
           collector treats it as permanently grey and shades [v] *)
        m.gc.log_ins_store ~tid:(-1) ~nv:v
      end)

(** A store with {e no} barrier at all — the deliberate barrier-skip
    fault.  Nothing is logged and nothing can repair it; the oracle must
    report the resulting snapshot violation (checker-of-the-checker). *)
let external_unbarriered_store (m : t) ~(obj : int) ~(idx : int)
    ~(v : Value.t) : unit =
  external_slot_store m ~obj ~idx ~v ~log:(fun ~pre:_ -> ())

(* ---- interpretation --------------------------------------------------- *)

let pop fr =
  match fr.ostack with
  | v :: rest ->
      fr.ostack <- rest;
      v
  | [] -> bugf "operand stack underflow at %s.%s@%d" fr.f_class fr.f_meth.mname fr.pc

let push fr v = fr.ostack <- v :: fr.ostack

let pop_int fr =
  match pop fr with
  | Value.Int n -> n
  | v -> bugf "expected int, got %a" Value.pp v

let pop_ref_or_null fr =
  match pop fr with
  | (Value.Null | Value.Ref _) as v -> v
  | Value.Int _ -> bugf "expected ref, got int"

let pop_obj m fr =
  match pop_ref_or_null fr with
  | Value.Ref id ->
      let o = Heap.get m.heap id in
      (* a swept object reached through a live reference means the
         collector (or an unsound barrier removal) freed live data *)
      if o.Heap.dead then
        bugf "use-after-free of #%d (%s) at %s.%s@%d" id o.Heap.cls fr.f_class
          fr.f_meth.mname fr.pc;
      o
  | Value.Null -> jthrow Null_deref
  | Value.Int _ -> assert false

let fields_of (o : Heap.obj) =
  match o.payload with
  | Heap.Fields fs -> fs
  | Heap.Ref_array _ | Heap.Int_array _ -> bugf "expected object, got array"

let ref_elems_of (o : Heap.obj) =
  match o.payload with
  | Heap.Ref_array es -> es
  | Heap.Fields _ | Heap.Int_array _ -> bugf "expected object array"

let int_elems_of (o : Heap.obj) =
  match o.payload with
  | Heap.Int_array es -> es
  | Heap.Fields _ | Heap.Ref_array _ -> bugf "expected int array"

(** Allocate and notify the collector.  The pacer (when installed)
    admission-controls the allocation {e before} it happens — so the live
    heap provably never exceeds a hard limit — and, while degraded, makes
    the allocating thread assist: it runs one collector increment on the
    spot, shortening the outstanding mark. *)
let allocate m ~units mk =
  (match m.pacer with
  | None -> ()
  | Some p ->
      Pacer.before_alloc p m.heap ~units;
      if Pacer.degraded p && m.gc.is_marking () && not m.in_no_safepoint
      then begin
        m.gc.step ();
        m.assist_execs <- m.assist_execs + 1;
        Telemetry.incr c_assist_execs;
        Pacer.note_assist p
      end);
  let o = mk () in
  m.gc.on_alloc o;
  o

(** Chaos-injected allocation ballast: [count] small unreachable objects
    (two fields, four heap units each), allocated through the normal
    admission-controlled path so spikes exercise the pacer exactly like
    mutator pressure — including {!Pacer.Hard_limit}. *)
let external_alloc (m : t) ~(count : int) : unit =
  for _ = 1 to count do
    ignore
      (allocate m ~units:4 (fun () ->
           Heap.alloc_object ~site:Sitemap.runtime_site m.heap "chaos.Ballast"
             ~n_fields:2))
  done

(** Unwind after a runtime exception of [kind] raised at the current pc of
    the top frame. *)
let unwind (m : t) (th : thread) (kind : exn_kind) : unit =
  ignore m;
  let matches (h : int handler) =
    match h.kind, kind with
    | Any, _ -> true
    | Bounds, Bounds | Null_deref, Null_deref | Arith, Arith -> true
    | (Bounds | Null_deref | Arith), _ -> false
  in
  let rec go = function
    | [] ->
        th.frames <- [];
        th.finished <- true;
        th.error <- Some (string_of_exn_kind kind)
    | (fr : frame) :: rest -> (
        let candidate =
          List.find_opt
            (fun h -> fr.pc >= h.from_pc && fr.pc < h.to_pc && matches h)
            fr.f_meth.handlers
        in
        match candidate with
        | Some h ->
            fr.ostack <- [];
            fr.pc <- h.target;
            th.frames <- fr :: rest
        | None -> go rest)
  in
  go th.frames

(** Execute one instruction of [th].  Returns [false] once the thread has
    finished. *)
let step (m : t) (th : thread) : bool =
  match th.frames with
  | [] ->
      th.finished <- true;
      false
  | fr :: callers -> (
      m.instr_count <- m.instr_count + 1;
      m.cost_units <- m.cost_units + Barrier_cost.bytecode_units;
      if m.instr_count > m.cfg.max_steps then
        bugf "instruction budget exceeded (%d)" m.cfg.max_steps;
      let code = fr.f_meth.code in
      if fr.pc < 0 || fr.pc >= Array.length code then
        bugf "pc out of range in %s.%s" fr.f_class fr.f_meth.mname;
      let next () = fr.pc <- fr.pc + 1 in
      try
        (match code.(fr.pc) with
        | Iconst n ->
            push fr (Value.Int n);
            next ()
        | Aconst_null ->
            push fr Value.Null;
            next ()
        | Iload i ->
            push fr fr.locals.(i);
            next ()
        | Aload i ->
            push fr fr.locals.(i);
            next ()
        | Istore i | Astore i ->
            fr.locals.(i) <- pop fr;
            next ()
        | Iinc (i, d) ->
            (match fr.locals.(i) with
            | Value.Int n -> fr.locals.(i) <- Value.Int (n + d)
            | v -> bugf "iinc of %a" Value.pp v);
            next ()
        | Ibin op ->
            let b = pop_int fr in
            let a = pop_int fr in
            let r =
              match op with
              | Add -> a + b
              | Sub -> a - b
              | Mul -> a * b
              | Div -> if b = 0 then jthrow Arith else a / b
              | Rem -> if b = 0 then jthrow Arith else a mod b
            in
            push fr (Value.Int r);
            next ()
        | Ineg ->
            push fr (Value.Int (-pop_int fr));
            next ()
        | Dup ->
            let v = pop fr in
            push fr v;
            push fr v;
            next ()
        | Pop ->
            let _ = pop fr in
            next ()
        | Swap ->
            let a = pop fr in
            let b = pop fr in
            push fr a;
            push fr b;
            next ()
        | Goto l -> fr.pc <- l
        | If_i (c, l) ->
            let a = pop_int fr in
            if eval_cond c a 0 then fr.pc <- l else next ()
        | If_icmp (c, l) ->
            let b = pop_int fr in
            let a = pop_int fr in
            if eval_cond c a b then fr.pc <- l else next ()
        | If_null l -> (
            match pop_ref_or_null fr with
            | Value.Null -> fr.pc <- l
            | _ -> next ())
        | If_nonnull l -> (
            match pop_ref_or_null fr with
            | Value.Null -> next ()
            | _ -> fr.pc <- l)
        | If_acmp (want_eq, l) ->
            let b = pop_ref_or_null fr in
            let a = pop_ref_or_null fr in
            if Value.equal a b = want_eq then fr.pc <- l else next ()
        | Getstatic r ->
            push fr (Hashtbl.find m.statics (r.fclass, r.fname));
            next ()
        | Putstatic r ->
            let v = pop fr in
            (if Jir.Types.equal_ty (Jir.Program.static_ty m.prog r) R then
               let pre = Hashtbl.find m.statics (r.fclass, r.fname) in
               ref_store_barrier m fr ~kind:Static_store ~tid:th.tid ~obj:(-1)
                 ~pre ~nv:v);
            Hashtbl.replace m.statics (r.fclass, r.fname) v;
            next ()
        | Getfield r ->
            let o = pop_obj m fr in
            push fr (fields_of o).(field_index m r);
            next ()
        | Putfield r ->
            let v = pop fr in
            let o = pop_obj m fr in
            let fs = fields_of o in
            let idx = field_index m r in
            (if Jir.Types.equal_ty (Jir.Program.field_ty m.prog r) R then
               ref_store_barrier m fr ~kind:Field_store ~tid:th.tid ~obj:o.id
                 ~pre:fs.(idx) ~nv:v);
            fs.(idx) <- v;
            next ()
        | New cn ->
            let c = Jir.Program.get_class m.prog cn in
            let n_fields = List.length c.fields in
            let site = alloc_site m fr in
            let o =
              allocate m ~units:(2 + n_fields) (fun () ->
                  Heap.alloc_object ~site m.heap cn ~n_fields)
            in
            push fr (Value.Ref o.id);
            next ()
        | Newarray ety ->
            let len = pop_int fr in
            if len < 0 then jthrow Bounds;
            let site = alloc_site m fr in
            let o =
              allocate m ~units:(2 + len) (fun () ->
                  match ety with
                  | Elem_ref cn -> Heap.alloc_ref_array ~site m.heap cn ~len
                  | Elem_int -> Heap.alloc_int_array ~site m.heap ~len)
            in
            push fr (Value.Ref o.id);
            next ()
        | Aaload ->
            let i = pop_int fr in
            let o = pop_obj m fr in
            let es = ref_elems_of o in
            if i < 0 || i >= Array.length es then jthrow Bounds;
            push fr es.(i);
            next ()
        | Aastore ->
            let v = pop fr in
            let i = pop_int fr in
            let o = pop_obj m fr in
            let es = ref_elems_of o in
            if i < 0 || i >= Array.length es then jthrow Bounds;
            ref_store_barrier m fr ~kind:Array_store ~tid:th.tid ~obj:o.id
              ~pre:es.(i) ~nv:v;
            es.(i) <- v;
            next ()
        | Iaload ->
            let i = pop_int fr in
            let o = pop_obj m fr in
            let es = int_elems_of o in
            if i < 0 || i >= Array.length es then jthrow Bounds;
            push fr (Value.Int es.(i));
            next ()
        | Iastore ->
            let v = pop_int fr in
            let i = pop_int fr in
            let o = pop_obj m fr in
            let es = int_elems_of o in
            if i < 0 || i >= Array.length es then jthrow Bounds;
            es.(i) <- v;
            next ()
        | Arraylength ->
            let o = pop_obj m fr in
            let len =
              match o.payload with
              | Heap.Ref_array es -> Array.length es
              | Heap.Int_array es -> Array.length es
              | Heap.Fields _ -> bugf "arraylength of non-array"
            in
            push fr (Value.Int len);
            next ()
        | Invoke mr ->
            let callee = Jir.Program.get_method m.prog mr in
            let nargs = List.length callee.params in
            let locals = Array.make callee.max_locals Value.Null in
            for k = nargs - 1 downto 0 do
              locals.(k) <- pop fr
            done;
            let new_frame =
              {
                f_class = mr.mclass;
                f_meth = callee;
                pc = 0;
                locals;
                ostack = [];
              }
            in
            (* fr.pc stays at the call site until the callee returns, so
               exception handler ranges cover the invoke *)
            th.frames <- new_frame :: fr :: callers
        | Spawn mr ->
            let callee = Jir.Program.get_method m.prog mr in
            let nargs = List.length callee.params in
            let args = Array.make nargs Value.Null in
            for k = nargs - 1 downto 0 do
              args.(k) <- pop fr
            done;
            let _ = spawn_thread m mr (Array.to_list args) in
            next ()
        | Return -> (
            match callers with
            | [] ->
                th.frames <- [];
                th.finished <- true
            | caller :: _ ->
                caller.pc <- caller.pc + 1;
                th.frames <- callers)
        | Ireturn | Areturn -> (
            let v = pop fr in
            match callers with
            | [] ->
                th.frames <- [];
                th.finished <- true
            | caller :: _ ->
                push caller v;
                caller.pc <- caller.pc + 1;
                th.frames <- callers));
        not th.finished
      with Jexn kind ->
        unwind m th kind;
        not th.finished)

(* ---- aggregate statistics --------------------------------------------- *)

type dyn_stats = {
  total_execs : int;  (** dynamic reference-store (barrier) executions *)
  elided_execs : int;
  pot_pre_null_execs : int;
      (** executions at sites whose pre-value was never non-null *)
  field_execs : int;  (** putfield only; statics are counted apart *)
  field_elided : int;
  array_execs : int;
  array_elided : int;
  static_execs : int;  (** putstatic of reference statics (never elided) *)
}

let dyn_stats (m : t) : dyn_stats =
  let total = ref 0
  and elided = ref 0
  and pot = ref 0
  and field = ref 0
  and field_e = ref 0
  and array = ref 0
  and array_e = ref 0
  and static_ = ref 0 in
  Hashtbl.iter
    (fun _ st ->
      total := !total + st.execs;
      if st.st_elided then elided := !elided + st.execs;
      if st.pre_null_execs = st.execs then pot := !pot + st.execs;
      match st.st_kind with
      | Field_store ->
          field := !field + st.execs;
          if st.st_elided then field_e := !field_e + st.execs
      | Static_store -> static_ := !static_ + st.execs
      | Array_store ->
          array := !array + st.execs;
          if st.st_elided then array_e := !array_e + st.execs)
    m.stats;
  {
    total_execs = !total;
    elided_execs = !elided;
    pot_pre_null_execs = !pot;
    field_execs = !field;
    field_elided = !field_e;
    array_execs = !array;
    array_elided = !array_e;
    static_execs = !static_;
  }

let pct num den = if den = 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den

let pp_dyn_stats ppf (d : dyn_stats) =
  Fmt.pf ppf
    "barriers: %d execs, %.1f%% elided, %.1f%% potentially pre-null; field %d (%.1f%% elided), array %d (%.1f%% elided), static %d"
    d.total_execs
    (pct d.elided_execs d.total_execs)
    (pct d.pot_pre_null_execs d.total_execs)
    d.field_execs
    (pct d.field_elided d.field_execs)
    d.array_execs
    (pct d.array_elided d.array_execs)
    d.static_execs
