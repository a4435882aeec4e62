(* Tests for the GC pacing controller: goal-mode trigger recomputation,
   the degradation state machine and its exit hysteresis, hard-limit
   admission control (never exceeded, even end-to-end under any
   workload), assist reconciliation with the interpreter's counter, the
   deprecated fixed-mode alias, and the out-of-the-box default pacing
   that must cycle every table-1 workload with no flags at all. *)

module P = Jrt.Pacer

let heap_with ~live =
  let h = Jrt.Heap.create () in
  h.Jrt.Heap.live_units <- live;
  h

let goal_cfg ?soft_limit ?hard_limit g =
  { P.mode = P.Goal g; soft_limit; hard_limit; goal_floor = 64 }

(* --- goal mode: trigger recomputation ---------------------------------- *)

let test_trigger_recomputed () =
  let p = P.create (goal_cfg 2.0) in
  Alcotest.(check int)
    "first-cycle trigger is the floor" 64 (P.trigger_units p);
  P.note_cycle_end p (heap_with ~live:100) ~at_step:1000 ~pause_work:3;
  Alcotest.(check int)
    "trigger = live-at-mark-end x goal" 200 (P.trigger_units p);
  P.note_cycle_end p (heap_with ~live:10) ~at_step:2000 ~pause_work:3;
  Alcotest.(check int)
    "small live clamps back to the floor" 64 (P.trigger_units p);
  Alcotest.(check bool)
    "trigger reached starts a cycle" true
    (P.should_start p (heap_with ~live:64));
  Alcotest.(check bool)
    "below trigger does not" false
    (P.should_start p (heap_with ~live:63))

(* --- degradation: entry, boosted increments, exit hysteresis ----------- *)

let test_degradation_hysteresis () =
  let p = P.create (goal_cfg ~soft_limit:100 1.5) in
  let h = heap_with ~live:50 in
  P.before_alloc p h ~units:10;
  Alcotest.(check bool) "below soft: normal" false (P.degraded p);
  Alcotest.(check int) "no extra increments" 0 (P.at_safepoint p h);
  h.Jrt.Heap.live_units <- 95;
  P.before_alloc p h ~units:10;
  Alcotest.(check bool) "soft limit entered degraded" true (P.degraded p);
  Alcotest.(check bool)
    "degraded forces a cycle start" true (P.should_start p h);
  Alcotest.(check int) "one extra increment while degraded" 1
    (P.at_safepoint p h);
  (* still above 90% of the soft limit at the cycle boundary: no exit *)
  h.Jrt.Heap.live_units <- 95;
  P.note_cycle_end p h ~at_step:1000 ~pause_work:2;
  Alcotest.(check bool)
    "exit needs the hysteresis band, not just < soft" true (P.degraded p);
  (* mid-cycle drop below the band must NOT exit either *)
  h.Jrt.Heap.live_units <- 50;
  Alcotest.(check int)
    "exit only happens at a cycle boundary" 1 (P.at_safepoint p h);
  P.note_cycle_end p h ~at_step:2000 ~pause_work:2;
  Alcotest.(check bool) "cycle end below 90% recovers" false (P.degraded p);
  let s = P.stats p in
  Alcotest.(check int) "one degraded entry" 1 s.P.p_degraded_entries;
  Alcotest.(check bool)
    "degraded cycles recorded" true (s.P.p_degraded_cycles >= 1)

(* --- hard limit: refused before the allocation ------------------------- *)

let test_hard_limit_refuses_pre_alloc () =
  let p = P.create (goal_cfg ~hard_limit:100 1.5) in
  let h = heap_with ~live:99 in
  P.before_alloc p h ~units:1;
  (* exactly at the limit is still admitted: live + units > hard refuses *)
  Alcotest.(check bool)
    "allocation up to the limit is admitted" true
    (match P.state p with P.Normal -> true | _ -> false);
  (try
     P.before_alloc p h ~units:7;
     Alcotest.fail "over-limit allocation was admitted"
   with P.Hard_limit _ -> ());
  let s = P.stats p in
  Alcotest.(check bool)
    "state is hard-stop" true
    (match s.P.p_state with P.Hard_stop -> true | _ -> false);
  Alcotest.(check bool) "diagnostic recorded" true (s.P.p_hard_stop <> None);
  Alcotest.(check bool)
    "peak live never exceeded the limit" true (s.P.p_max_live_units <= 100)

let test_contradictory_configs_refused () =
  let raises f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool)
    "soft >= hard refused" true
    (raises (fun () -> P.create (goal_cfg ~soft_limit:200 ~hard_limit:100 1.5)));
  Alcotest.(check bool)
    "goal <= 1.0 refused" true
    (raises (fun () -> P.create (goal_cfg 1.0)));
  Alcotest.(check bool)
    "negative goal refused" true
    (raises (fun () -> P.create (goal_cfg 0.5)))

let test_alias_and_pacing_refused () =
  Alcotest.check_raises "exact message"
    (Invalid_argument
       "Runner: ~trigger_allocs (deprecated fixed-count alias) and ~pacing \
        are mutually exclusive")
    (fun () ->
      ignore
        (Jrt.Runner.make_satb ~trigger_allocs:8 ~pacing:P.default_config ()))

(* --- end-to-end properties over the real runner ------------------------ *)

let compile w = Harness.Exp.compile ~null_or_same:true w

let pacer_stats (r : Jrt.Runner.report) : P.stats =
  match r.pacer with
  | Some s -> s
  | None -> Alcotest.fail "run has no pacer stats"

let violations (r : Jrt.Runner.report) =
  match r.gc with Some g -> g.total_violations | None -> 0

let gc_of ~pacing = function
  | "satb" -> Jrt.Runner.make_satb ~pacing ()
  | "incr" -> Jrt.Runner.make_incr ~pacing ()
  | "retrace" -> Jrt.Runner.make_retrace ~pacing ()
  | _ -> Jrt.Runner.make_hybrid ~pacing ()

let hard_limit_prop =
  QCheck2.Test.make
    ~name:"hard limit is never exceeded (and stops stay violation-free)"
    ~count:25
    (QCheck2.Gen.triple
       (QCheck2.Gen.oneofl Workloads.Registry.table1)
       (QCheck2.Gen.int_range 80 1200)
       (QCheck2.Gen.oneofl [ "satb"; "incr"; "retrace"; "hybrid" ]))
    (fun (w, hard, coll) ->
      let pacing =
        { P.default_config with
          soft_limit = Some (hard * 6 / 10);
          hard_limit = Some hard;
        }
      in
      let r =
        Harness.Exp.run ~gc:(gc_of ~pacing coll) ~guards:true
          ~fail_on_thread_error:false (compile w)
      in
      let s = pacer_stats r in
      s.P.p_max_live_units <= hard && violations r = 0)

let test_assists_reconcile () =
  List.iter
    (fun coll ->
      (* jbb peaks around 150 live units under this compile; 90 puts the
         whole steady state inside the degradation band *)
      let pacing = { P.default_config with soft_limit = Some 90 } in
      let r =
        Harness.Exp.run ~gc:(gc_of ~pacing coll) ~guards:true
          ~fail_on_thread_error:false (compile Workloads.Jbb.t)
      in
      let s = pacer_stats r in
      Alcotest.(check int)
        (coll ^ ": no violations while degraded") 0 (violations r);
      Alcotest.(check bool)
        (coll ^ ": run degraded, not died") true
        (s.P.p_degraded_cycles > 0 && s.P.p_hard_stop = None);
      Alcotest.(check bool) (coll ^ ": assists ran") true (s.P.p_assists > 0);
      Alcotest.(check int)
        (coll ^ ": pacer assists = interpreter assist execs")
        r.machine.Jrt.Interp.assist_execs s.P.p_assists)
    [ "satb"; "incr"; "retrace"; "hybrid" ]

let test_default_pacing_cycles_every_workload () =
  (* the --gc-trigger default-mismatch fix: with no pacing flags at all,
     every table-1 workload must exercise the collector *)
  List.iter
    (fun (w : Workloads.Spec.t) ->
      let r =
        Harness.Exp.run ~gc:(Jrt.Runner.make_satb ()) (compile w)
      in
      match r.gc with
      | Some g ->
          Alcotest.(check bool)
            (w.name ^ ": default pacing runs a cycle") true (g.cycles >= 1);
          Alcotest.(check int) (w.name ^ ": sound") 0 g.total_violations
      | None -> Alcotest.fail (w.name ^ ": no gc summary"))
    Workloads.Registry.table1

let test_fixed_alias_matches_trigger_allocs () =
  (* the two spellings of legacy pacing — ?trigger_allocs and
     config_of_trigger — must be the same run, bit for bit *)
  let go gc = Harness.Exp.run ~gc (compile Workloads.Db.t) in
  let a = go (Jrt.Runner.make_satb ~trigger_allocs:24 ()) in
  let b =
    go (Jrt.Runner.make_satb ~pacing:(P.config_of_trigger 24) ())
  in
  let summary (r : Jrt.Runner.report) =
    match r.gc with
    | Some g -> (r.steps, g.cycles, g.final_pause_works, g.pause_steps)
    | None -> (r.steps, 0, [], [])
  in
  Alcotest.(check bool) "identical reports" true (summary a = summary b);
  (try
     ignore
       (Jrt.Runner.make_satb ~trigger_allocs:24
          ~pacing:P.default_config ());
     Alcotest.fail "trigger_allocs + pacing accepted"
   with Invalid_argument _ -> ())

let tests =
  [
    Alcotest.test_case "goal mode recomputes the trigger at mark end" `Quick
      test_trigger_recomputed;
    Alcotest.test_case "degradation enters at soft limit, exits with \
                        hysteresis" `Quick test_degradation_hysteresis;
    Alcotest.test_case "hard limit refuses the allocation before it happens"
      `Quick test_hard_limit_refuses_pre_alloc;
    Alcotest.test_case "contradictory configs are refused" `Quick
      test_contradictory_configs_refused;
    Alcotest.test_case "trigger alias and pacing are refused together"
      `Quick test_alias_and_pacing_refused;
    QCheck_alcotest.to_alcotest hard_limit_prop;
    Alcotest.test_case "assists reconcile with the interpreter counter"
      `Quick test_assists_reconcile;
    Alcotest.test_case "default pacing cycles every table-1 workload" `Quick
      test_default_pacing_cycles_every_workload;
    Alcotest.test_case "fixed-mode alias reproduces --gc-trigger runs" `Quick
      test_fixed_alias_matches_trigger_allocs;
  ]
