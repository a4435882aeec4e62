(* The repository benchmark: one client, one thread, closed loop.  Each
   job starts only after the previous one finished.  See README.md for
   the workloads, the metrics and the layer each metric belongs to. *)

let now = Telemetry.now_s

(* ---- workloads -------------------------------------------------------- *)

type workload = Analyze_sweep | Run_steady | Gc_stress

let workloads =
  [
    ("analyze-sweep", Analyze_sweep);
    ("run-steady", Run_steady);
    ("gc-stress", Gc_stress);
  ]

(* Soft heap limit of gc-stress, in heap units: below every run program's
   default-goal trigger, so the pacer degrades and marking runs back to
   back with allocation assists. *)
let stress_soft_limit = 48

(* Analysis option sets of analyze-sweep: plain mode A; A with the
   null-or-same extension and callee summaries; A with move-down. *)
let option_sets =
  let a = Satb_core.Analysis.default_config in
  [
    ("A", a);
    ("A+nos+summaries", { a with null_or_same = true; summaries = true });
    ("A+move-down", { a with move_down = true });
  ]

let inline_limits = [ 0; 50; 100; 200 ]

(* compress and mpegaudio store few pointers, so their jobs skip most of
   the barrier path. *)
let run_programs = Array.of_list (Workloads.Registry.table1 @ Workloads.Registry.omitted)

let collectors pacing =
  Jrt.Runner.
    [|
      ("satb", make_satb ~pacing ());
      ("incr", make_incr ~pacing ());
      ("retrace", make_retrace ~pacing ());
      ("hybrid", make_hybrid ~pacing ());
    |]

(* ---- statistics ------------------------------------------------------- *)

(* Nearest-rank quantile of a sorted array. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (q *. float n)) - 1)))

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l = quantile (sorted_of_list l) 0.5

(* Per-layer sums, keyed by metric name. *)
let sums : (string, float) Hashtbl.t = Hashtbl.create 64
let add k v = Hashtbl.replace sums k (v +. Option.value ~default:0. (Hashtbl.find_opt sums k))
let maxi k v = Hashtbl.replace sums k (Float.max v (Option.value ~default:0. (Hashtbl.find_opt sums k)))
let sum k = Option.value ~default:0. (Hashtbl.find_opt sums k)

(* ---- checks ----------------------------------------------------------- *)

let violations (r : Jrt.Runner.report) =
  match r.gc with Some g -> g.total_violations | None -> 0

(* A run job passes when the oracle found no violation, no thread died
   and the hard heap limit never fired. *)
let check_report (r : Jrt.Runner.report) =
  if violations r > 0 then Some (Printf.sprintf "%d oracle violations" (violations r))
  else
    match (r.thread_errors, r.hard_stop) with
    | (tid, e) :: _, _ -> Some (Printf.sprintf "thread %d died: %s" tid e)
    | [], Some d -> Some ("hard stop: " ^ d)
    | [], None -> None

(* Deterministic output-quality metrics, accumulated over the fixed
   reference set of each workload (never over the timed jobs, whose number
   depends on speed). *)
type quality = {
  mutable sites : int;
  mutable elided : int;
  mutable code : int;
  mutable programs : int;
  mutable execs : int;
  mutable elided_execs : int;
  mutable barrier_units : int;
  mutable steps : int;
  mutable pauses : int list;
}

let quality =
  { sites = 0; elided = 0; code = 0; programs = 0; execs = 0; elided_execs = 0;
    barrier_units = 0; steps = 0; pauses = [] }

let note_compiled (c : Satb_core.Driver.compiled) =
  let st = Satb_core.Driver.static_stats c in
  quality.sites <- quality.sites + st.total_sites;
  quality.elided <- quality.elided + st.elided_sites;
  quality.code <- quality.code + Satb_core.Driver.code_size c;
  quality.programs <- quality.programs + 1

let note_run (r : Jrt.Runner.report) =
  quality.execs <- quality.execs + r.dyn.total_execs;
  quality.elided_execs <- quality.elided_execs + r.dyn.elided_execs;
  quality.barrier_units <- quality.barrier_units + r.barrier_units;
  quality.steps <- quality.steps + r.steps;
  match r.gc with
  | Some g -> quality.pauses <- g.final_pause_works @ quality.pauses
  | None -> ()

(* ---- layer calls ------------------------------------------------------ *)

let span = Trace.span
let traced () = !Trace.enabled

let compile ~limit ~conf (spec : Workloads.Spec.t) =
  let prog = span "jir.parse" (fun () -> Workloads.Spec.parse spec) in
  span "jir.verify" (fun () ->
      match Jir.Verifier.verify_program prog with
      | Ok () -> ()
      | Error errs ->
          Fmt.failwith "%s: verifier: %a" spec.name
            Fmt.(list ~sep:comma Jir.Verifier.pp_error) errs);
  let w0 = Gc.minor_words () in
  let compiled =
    span "core.compile" (fun () ->
        Satb_core.Driver.compile ~verify:false ~inline_limit:limit ~conf prog)
  in
  if traced () then begin
    add "core.host_words" (Gc.minor_words () -. w0);
    add "jir.instrs" (float (Jir.Program.total_instr_count prog));
    add "core.instrs_after_inline"
      (float (Jir.Program.total_instr_count compiled.program));
    add "core.inline_ms" (compiled.inline_seconds *. 1e3);
    add "core.summary_ms" (compiled.summary_seconds *. 1e3);
    add "core.analysis_ms" (compiled.analysis_seconds *. 1e3);
    add "core.fixpoint_iters"
      (float
         (List.fold_left
            (fun a (r : Satb_core.Analysis.method_result) -> a + r.iterations)
            0 compiled.results));
    let st = Satb_core.Driver.static_stats compiled in
    add "core.sites" (float st.total_sites);
    add "core.sites_elided" (float st.elided_sites)
  end;
  { Harness.Exp.workload = spec; compiled }

let run ?chaos ?(revoke = true) ~engine ~seed ~gc cw =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let r =
    span "jrt.run" (fun () ->
        Harness.Exp.run ~gc ~guards:true ~revoke ?chaos
          ~fail_on_thread_error:false ~seed ~engine cw)
  in
  if traced () then begin
    let wall = now () -. t0 in
    add "exec.setup_ms" ((wall -. r.loop_s) *. 1e3);
    add "mutator.ms" ((r.loop_s -. r.gc_s) *. 1e3);
    add "gc.ms" (r.gc_s *. 1e3);
    add "loop.ms" (r.loop_s *. 1e3);
    add "mutator.steps" (float r.steps);
    add "mutator.barriers_paid" (float r.machine.barriers_executed);
    add "mutator.barriers_elided" (float r.machine.elided_barrier_execs);
    add "run.host_words" (Gc.minor_words () -. w0);
    (match r.gc with
    | Some g ->
        let total l = float (List.fold_left ( + ) 0 l) in
        add "gc.cycles" (float g.cycles);
        add "gc.mark_increments" (total g.mark_increments);
        add "gc.logged_or_dirtied" (total g.logged_or_dirtied);
        add "gc.retraced" (total g.retraced);
        maxi "gc.pause_work_max" (float (List.fold_left max 0 g.final_pause_works));
        add "oracle.violations" (float g.total_violations)
    | None -> ());
    (match r.pacer with
    | Some p ->
        add "pacer.degraded_cycles" (float p.p_degraded_cycles);
        add "pacer.assists" (float p.p_assists);
        maxi "pacer.max_live_units" (float p.p_max_live_units)
    | None -> ());
    let reach =
      span "oracle.reachable" (fun () ->
          Jrt.Oracle.reachable r.machine.heap (Jrt.Interp.roots r.machine))
    in
    add "oracle.reachable_objs" (float (Jrt.Oracle.Iset.cardinal reach))
  end;
  r

(* ---- set-up, reference checks and the job stream ---------------------- *)

type failure_log = { mutable attempted : int; mutable failed : int }

let log = { attempted = 0; failed = 0 }

let attempt what f =
  log.attempted <- log.attempted + 1;
  match f () with
  | None -> ()
  | Some msg ->
      log.failed <- log.failed + 1;
      if log.failed <= 10 then Printf.printf "FAIL %s: %s\n%!" what msg
  | exception e ->
      log.failed <- log.failed + 1;
      if log.failed <= 10 then
        Printf.printf "FAIL %s: %s\n%!" what (Printexc.to_string e)

type job = unit -> string option

type prepared = {
  configs : int;  (** distinct job configurations *)
  job : int -> int -> job;  (** the job of a configuration and runner seed *)
  setup : unit -> unit;
  references : Random.State.t -> unit;
      (** one run of every distinct configuration, outside the timed loop *)
  control : unit -> string option;
      (** negative control: must be reported as failed *)
}

(* The job stream: configurations are drawn in shuffled rounds, each
   round running every configuration once in an order drawn from the
   seed, and each job gets a runner seed drawn from the same state.  The
   job mix of a run is then the same for every seed; only the order and
   the runner seeds change. *)
let stream n ~seed ~tag =
  let st = Random.State.make [| seed; tag |] in
  let perm = Array.init n Fun.id and pos = ref n in
  fun () ->
    if !pos = n then begin
      for i = n - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let t = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- t
      done;
      pos := 0
    end;
    incr pos;
    (perm.(!pos - 1), Random.State.bits st)

let barrier_skip () =
  Jrt.Chaos.create
    {
      Jrt.Chaos.seed = 1;
      faults = [ Jrt.Chaos.Barrier_skip { at_instr = 200; victims = 2 } ];
      quantum = None;
      gc_period = None;
    }

(* The negative control: an unguarded barrier skip with revocation off,
   on the program the configuration names.  The check must reject it. *)
let control_of cw gc () =
  check_report (run ~chaos:(barrier_skip ()) ~revoke:false ~engine:`Threaded ~seed:1 ~gc cw)

(* What an analyze-sweep job must reproduce: sites, elided sites and
   code size of its configuration's reference compile. *)
let facts (c : Satb_core.Driver.compiled) =
  let st = Satb_core.Driver.static_stats c in
  (st.total_sites, st.elided_sites, Satb_core.Driver.code_size c)

let prepare_analyze () =
  let configs =
    Array.of_list
      (List.concat_map
         (fun spec ->
           List.concat_map
             (fun limit -> List.map (fun opts -> (spec, limit, opts)) option_sets)
             inline_limits)
         Workloads.Registry.table1)
  in
  let reference = Array.make (Array.length configs) None in
  let job k _seed () =
    let spec, limit, (_, conf) = configs.(k) in
    let cw = compile ~limit ~conf spec in
    span "bench.check" (fun () ->
        if reference.(k) = Some (facts cw.compiled) then None
        else Some "verdicts differ from the reference compile")
  in
  {
    configs = Array.length configs;
    job;
    setup =
      (fun () ->
        List.iter
          (fun spec -> ignore (compile ~limit:100 ~conf:Satb_core.Analysis.default_config spec))
          Workloads.Registry.table1);
    references =
      (fun st ->
        Array.iteri
          (fun k ((spec : Workloads.Spec.t), limit, (oname, conf)) ->
            let what = Printf.sprintf "reference %s limit %d %s" spec.name limit oname in
            attempt what (fun () ->
                let cw = compile ~limit ~conf spec in
                reference.(k) <- Some (facts cw.compiled);
                note_compiled cw.compiled;
                let r =
                  run ~engine:`Threaded ~seed:(Random.State.bits st)
                    ~gc:(Jrt.Runner.make_satb ()) cw
                in
                note_run r;
                check_report r))
          configs);
    control =
      (fun () ->
        control_of (compile ~limit:100 ~conf:Satb_core.Analysis.default_config Workloads.Jbb.t)
          (Jrt.Runner.make_satb ()) ());
  }

let prepare_run ~pacing =
  let compiled = ref [||] in
  let gcs = collectors pacing in
  {
    setup =
      (fun () ->
        compiled :=
          Array.map (compile ~limit:100 ~conf:Satb_core.Analysis.default_config) run_programs);
    configs = Array.length run_programs * Array.length gcs;
    job =
      (fun k seed () ->
        let cw = !compiled.(k / Array.length gcs) in
        let _, gc = gcs.(k mod Array.length gcs) in
        let r = run ~engine:`Threaded ~seed ~gc cw in
        span "bench.check" (fun () -> check_report r));
    references =
      (fun st ->
        Array.iter
          (fun (cw : Harness.Exp.compiled_workload) ->
            note_compiled cw.compiled;
            Array.iter
              (fun (gname, gc) ->
                let what = Printf.sprintf "reference %s/%s" cw.workload.name gname in
                attempt what (fun () ->
                    let seed = Random.State.bits st in
                    let ri = run ~engine:`Interp ~seed ~gc cw in
                    let rt = run ~engine:`Threaded ~seed ~gc cw in
                    note_run rt;
                    match Harness.Engines.diff ri rt with
                    | Some m -> Some ("engines diverge: " ^ m)
                    | None -> check_report rt))
              gcs)
          !compiled);
    control =
      (fun () -> control_of !compiled.(0) (snd gcs.(0)) ());
  }

let prepare = function
  | Analyze_sweep -> prepare_analyze ()
  | Run_steady -> prepare_run ~pacing:Jrt.Pacer.default_config
  | Gc_stress ->
      prepare_run
        ~pacing:{ Jrt.Pacer.default_config with soft_limit = Some stress_soft_limit }

(* ---- the timed loop --------------------------------------------------- *)

type loop = {
  mutable jobs : int;
  mutable busy : float;  (** summed job wall time, seconds *)
  mutable times_ms : float list;
  mutable words : float;  (** host minor words *)
}

let new_loop () = { jobs = 0; busy = 0.; times_ms = []; words = 0. }

(* Runs jobs for [seconds].  With [alternate], tracing is switched on for
   every other round, so traced and untraced jobs share the same mix and
   the same drift of the host's speed; the two rates then give the
   tracing overhead.  Returns the untraced and traced accounts. *)
let timed_loop ?(alternate = false) ~seed ~tag ~seconds (p : prepared) =
  let next = stream p.configs ~seed ~tag in
  let plain = new_loop () and traced = new_loop () in
  let deadline = now () +. seconds in
  let n = ref 0 in
  while now () < deadline do
    if alternate && !n mod p.configs = 0 then
      Trace.enabled := !n / p.configs mod 2 = 1;
    let acc = if !Trace.enabled then traced else plain in
    let k, runner_seed = next () in
    let job = p.job k runner_seed in
    Trace.job := !n;
    let gc0 = Gc.quick_stat () and w0 = Gc.minor_words () in
    let t0 = now () in
    attempt (Printf.sprintf "job %d" !n) (fun () -> span "job" job);
    let dt = now () -. t0 in
    let w1 = Gc.minor_words () and gc1 = Gc.quick_stat () in
    acc.jobs <- acc.jobs + 1;
    acc.busy <- acc.busy +. dt;
    acc.times_ms <- (dt *. 1e3) :: acc.times_ms;
    acc.words <- acc.words +. w1 -. w0;
    let pause = Trace.Host_gc.pause_s () in
    Trace.Host_gc.poll ();
    if !Trace.enabled then begin
      add "host_gc.minor_collections" (float (gc1.minor_collections - gc0.minor_collections));
      add "host_gc.major_collections" (float (gc1.major_collections - gc0.major_collections));
      add "host_gc.pause_ms" ((Trace.Host_gc.pause_s () -. pause) *. 1e3)
    end;
    incr n
  done;
  Trace.enabled := false;
  (plain, traced)

let jobs_per_s (l : loop) = float l.jobs /. l.busy

(* ---- metrics ---------------------------------------------------------- *)

let setup_repeats = 11

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (name, unit_, v) ->
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit_)
       metrics)

let pct a b = if b = 0. then 0. else 100. *. a /. b

let end_to_end ~setup_s (l : loop) =
  let sorted = sorted_of_list l.times_ms in
  let n = Array.length sorted in
  Printf.printf "job_ms_p99 over %d jobs, %d beyond it%s\n" n (n - int_of_float (ceil (0.99 *. float n)))
    (if n < 1000 then " (warning: fewer than ten)" else "");
  let st = Gc.quick_stat () in
  [
    ("setup_s", "s", setup_s);
    ("jobs_per_s", "1/s", jobs_per_s l);
    ("job_ms_p50", "ms", quantile sorted 0.5);
    ("job_ms_p99", "ms", quantile sorted 0.99);
    ("host_words_per_job", "words", l.words /. float l.jobs);
    ("peak_heap_mb", "MB",
      float st.top_heap_words *. float (Sys.word_size / 8) /. 1048576.);
    ("static_elim_pct", "%", pct (float quality.elided) (float quality.sites));
    ("dyn_elim_pct", "%", pct (float quality.elided_execs) (float quality.execs));
    ("barrier_units_per_kstep", "units",
      1000. *. float quality.barrier_units /. float (max 1 quality.steps));
    ("code_size", "instrs", float quality.code /. float (max 1 quality.programs));
    ("sim_pause_work_p99", "units",
      quantile (sorted_of_list (List.map float quality.pauses)) 0.99);
  ]

let per_layer ~(untraced : loop) ~(traced : loop) =
  let jobs = float traced.jobs in
  let per k = sum k /. jobs in
  let layers = Trace.by_name () in
  let total name = fst (Option.value ~default:(0., 0.) (Hashtbl.find_opt layers name)) in
  let self name = snd (Option.value ~default:(0., 0.) (Hashtbl.find_opt layers name)) in
  let job_s = total "job" in
  let share names = pct (List.fold_left (fun a n -> a +. self n) 0. names) job_s in
  let ms name = 1e3 *. total name /. jobs in
  let mutator_s = sum "mutator.ms" /. 1e3 in
  [
    ("jir.parse_ms", "ms", ms "jir.parse");
    ("jir.verify_ms", "ms", ms "jir.verify");
    ("jir.instrs", "count", per "jir.instrs");
    ("core.inline_ms", "ms", per "core.inline_ms");
    ("core.instrs_after_inline", "count", per "core.instrs_after_inline");
    ("core.summary_ms", "ms", per "core.summary_ms");
    ("core.analysis_ms", "ms", per "core.analysis_ms");
    ("core.fixpoint_iters", "count", per "core.fixpoint_iters");
    ("core.sites", "count", per "core.sites");
    ("core.sites_elided", "count", per "core.sites_elided");
    ("core.host_words", "words", per "core.host_words");
    ("exec.setup_ms", "ms", per "exec.setup_ms");
    ("mutator.ms", "ms", per "mutator.ms");
    ("mutator.steps", "count", per "mutator.steps");
    ("mutator.steps_per_s", "1/s",
      if mutator_s > 0. then sum "mutator.steps" /. mutator_s else 0.);
    ("mutator.barriers_paid", "count", per "mutator.barriers_paid");
    ("mutator.barriers_elided", "count", per "mutator.barriers_elided");
    ("mutator.host_words_per_step", "words",
      if sum "mutator.steps" > 0. then sum "run.host_words" /. sum "mutator.steps" else 0.);
    ("gc.ms", "ms", per "gc.ms");
    ("gc.loop_share_pct", "%", pct (sum "gc.ms") (sum "loop.ms"));
    ("gc.cycles", "count", per "gc.cycles");
    ("gc.mark_increments", "count", per "gc.mark_increments");
    ("gc.logged_or_dirtied", "count", per "gc.logged_or_dirtied");
    ("gc.retraced", "count", per "gc.retraced");
    ("gc.pause_work_max", "units", sum "gc.pause_work_max");
    ("pacer.degraded_cycles", "count", per "pacer.degraded_cycles");
    ("pacer.assists", "count", per "pacer.assists");
    ("pacer.max_live_units", "units", sum "pacer.max_live_units");
    ("oracle.violations", "count", sum "oracle.violations");
    ("oracle.reachable_ms", "ms", ms "oracle.reachable");
    ("oracle.reachable_objs", "count", per "oracle.reachable_objs");
    ("host_gc.minor_collections", "count", per "host_gc.minor_collections");
    ("host_gc.major_collections", "count", per "host_gc.major_collections");
    ("host_gc.pause_ms", "ms", per "host_gc.pause_ms");
    ("self.jir_pct", "%", share [ "jir.parse"; "jir.verify" ]);
    ("self.core_pct", "%", share [ "core.compile" ]);
    ("self.jrt_pct", "%", share [ "jrt.run" ]);
    ("self.oracle_pct", "%", share [ "oracle.reachable" ]);
    ("self.check_pct", "%", share [ "bench.check" ]);
    ("self.uncovered_pct", "%", share [ "job" ]);
    ("trace.overhead_pct", "%",
      pct (jobs_per_s untraced -. jobs_per_s traced) (jobs_per_s untraced));
  ]

(* ---- main ------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let usage = "bench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME analyze-sweep | run-steady | gc-stress");
      ("--seed", Arg.Set_int seed, "N workload seed (draws the job stream)");
      ("--seconds", Arg.Set_int seconds, "S length of the timed loop");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload " ^ !workload ^ "\n" ^ usage);
        exit 2
  in
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let p = prepare w in
  p.setup ();
  p.references (Random.State.make [| !seed; 0 |]);
  let control = p.control () in
  let control_ok = control <> None in
  Printf.printf "negative control (barrier skip, revocation off): %s\n"
    (match control with
    | Some m -> "reported as failed, as it must be (" ^ m ^ ")"
    | None -> "NOT caught: the checks are vacuous");
  (* Set-up is timed after the reference phase has warmed the host heap,
     so it measures the set-up work rather than the process's start. *)
  let setups =
    List.init setup_repeats (fun _ ->
        let t0 = now () in
        p.setup ();
        now () -. t0)
  in
  let seconds = float !seconds in
  let tag = Hashtbl.hash !workload in
  (let next = stream p.configs ~seed:!seed ~tag in
   let draws = List.init 1000 (fun _ -> let k, s = next () in Printf.sprintf "%d:%d" k s) in
   Printf.printf "job stream: digest of the first 1000 draws %s\n"
     (Digest.to_hex (Digest.string (String.concat "," draws))));
  let metrics =
    if !trace = 0 then
      end_to_end ~setup_s:(median setups) (fst (timed_loop ~seed:!seed ~tag ~seconds p))
    else begin
      Trace.Host_gc.start ();
      let untraced, traced = timed_loop ~alternate:true ~seed:!seed ~tag ~seconds p in
      let dir = "_perfbench" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Printf.sprintf "%s/spans-%s-%d.jsonl" dir !workload !seed in
      Trace.write path;
      Printf.printf "%d spans written to %s\n" (List.length !Trace.spans) path;
      if !Trace.Host_gc.lost > 0 then
        Printf.printf "warning: %d runtime events lost\n" !Trace.Host_gc.lost;
      per_layer ~untraced ~traced
    end
  in
  List.iter (fun (n, u, v) -> Printf.printf "  %-28s %14.4f %s\n" n v u) metrics;
  Printf.printf "fail_rate %.4f (%d failed / %d attempted)\n"
    (float log.failed /. float log.attempted) log.failed log.attempted;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (log.failed = 0 && control_ok) log.attempted log.failed (json_metrics metrics)
