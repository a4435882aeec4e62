(* Characterization of the verdict -> runtime path: when revocation is
   live, and what the flight recorder says about each revoked site.

   - Liveness: SATB (plain and retrace collector) and hybrid, guards
     on/off, elision on/off, all on db with every analysis extension and
     the same late-spawn fault.  Revocation fires only when a guard table
     is wired (guards on, or hybrid split verdicts, which carry their own
     guards); an unelided run can still revoke an assumption but flips no
     site back.
   - Flight [Revoke_site] half codes: 0 for an SATB revocation (the whole
     barrier), 1 and 2 for a deletion-half and an insertion-half
     revocation under hybrid, and the timeline history strings built from
     them. *)

let cw =
  lazy
    (Harness.Exp.compile ~null_or_same:true ~move_down:true ~swap:true
       ~summaries:true Workloads.Db.t)

let late_spawn ?(at_instr = 1000) () =
  Jrt.Chaos.create
    {
      Jrt.Chaos.seed = 1;
      faults = [ Jrt.Chaos.Late_spawn { at_instr; stores = 2 } ];
      quantum = None;
      gc_period = None;
    }

let name_of = function
  | `Satb -> "satb"
  | `Retrace -> "retrace"
  | `Hybrid -> "hybrid"

let gc_of = function
  | `Satb -> Jrt.Runner.make_satb ~trigger_allocs:24 ()
  | `Retrace -> Jrt.Runner.make_retrace ~trigger_allocs:24 ()
  | `Hybrid -> Jrt.Runner.make_hybrid ~trigger_allocs:24 ()

let run ?at_instr ?engine ~flavor ~guards ~elide () =
  let r =
    Harness.Exp.run ~gc:(gc_of flavor) ~use_policy:elide ~guards
      ~chaos:(late_spawn ?at_instr ()) ~fail_on_thread_error:false ~seed:1
      ?engine (Lazy.force cw)
  in
  r.Jrt.Runner.machine

(* (flavor, guards, elide) -> (revocation_events, revoked_sites) *)
let liveness =
  [
    ((`Satb, false, false), (0, 0));
    ((`Satb, false, true), (0, 0));
    ((`Satb, true, false), (2, 0));
    ((`Satb, true, true), (2, 2));
    ((`Retrace, false, false), (0, 0));
    ((`Retrace, false, true), (0, 0));
    ((`Retrace, true, false), (1, 0));
    ((`Retrace, true, true), (1, 2));
    ((`Hybrid, false, false), (0, 0));
    ((`Hybrid, false, true), (3, 2));
    ((`Hybrid, true, false), (3, 0));
    ((`Hybrid, true, true), (3, 2));
  ]

let test_revocation_liveness () =
  List.iter
    (fun ((flavor, guards, elide), (events, sites)) ->
      let m = run ~flavor ~guards ~elide () in
      let name =
        Printf.sprintf "%s guards=%b elide=%b" (name_of flavor) guards elide
      in
      Alcotest.(check int)
        (name ^ ": revocation_events")
        events m.Jrt.Interp.revocation_events;
      Alcotest.(check int)
        (name ^ ": revoked_sites") sites m.Jrt.Interp.revoked_sites)
    liveness

(* Revoke_site events of the run that just finished, as (site, half),
   in recording order *)
let revoke_site_events () =
  List.filter_map
    (fun (e : Flight.ev) ->
      if e.k = Flight.Revoke_site then Some (Flight.str_of e.a, e.c)
      else None)
    (Flight.events ())

(* site -> timeline history, for sites with one.  The flight checks run
   on the interpreter, whose histories hold revocations only (the
   threaded engine adds respecialization entries). *)
let site_histories () =
  match Flight.parse_dump (Flight.dump_json ~reason:"test") with
  | Error e -> Alcotest.failf "dump does not parse: %s" e
  | Ok d ->
      List.filter_map
        (fun (s : Flight.site_life) ->
          if s.sl_history = "-" then None else Some (s.sl_site, s.sl_history))
        (Flight.timeline_of d).tl_sites

let check_flight name ~events ~histories =
  Alcotest.(check (list (pair string int)))
    (name ^ ": revoke.site half codes")
    events (revoke_site_events ());
  Alcotest.(check (list (pair string string)))
    (name ^ ": timeline histories")
    histories (site_histories ())

(* [Test_hybrid.run_split_halves]: sites whose split verdict materialized
   after its guard failed take the born-revoked path, which records the
   whole site (half 0); the others flip one half at the safepoint *)
let split_born =
  [ "Main.pass@26"; "Main.pass@32"; "Main.snapshot@3"; "Main.snapshot@15" ]

let split_live =
  [
    "Main.main@29";
    "Main.bindKeys@8";
    "Main.main@6";
    "Main.main@22";
    "Main.bindKeys@5";
    "Main.bindKeys@2";
    "Main.main@3";
  ]

let split_histories ~live ~born =
  List.sort compare
    (List.map (fun s -> (s, live)) split_live
    @ List.map2
        (fun s step -> (s, Printf.sprintf "revoked@%d (%s)" step born))
        split_born [ 2190; 2196; 30428; 30440 ])

let test_half_codes () =
  (* plain SATB: the spawn precedes the swap sites' first execution, so
     they materialize already revoked *)
  ignore (run ~engine:`Interp ~flavor:`Satb ~guards:true ~elide:true ());
  check_flight "satb born-revoked"
    ~events:[ ("Main.main@111", 0); ("Main.main@117", 0) ]
    ~histories:
      [
        ("Main.main@111", "revoked@2285 (single-mutator)");
        ("Main.main@117", "revoked@2291 (single-mutator)");
      ];
  (* retrace (SATB flavor): a later spawn flips live swap sites *)
  ignore
    (run ~at_instr:5000 ~engine:`Interp ~flavor:`Retrace ~guards:true
       ~elide:true ());
  check_flight "retrace live flip"
    ~events:[ ("Main.main@117", 0); ("Main.main@111", 0) ]
    ~histories:
      [
        ("Main.main@111", "revoked@5015 (single-mutator)");
        ("Main.main@117", "revoked@5015 (single-mutator)");
      ];
  ignore
    (Test_hybrid.run_split_halves
       [ Jrt.Chaos.Late_spawn { at_instr = 1000; stores = 2 } ]);
  check_flight "hybrid deletion half"
    ~events:
      (List.map (fun s -> (s, 1)) split_live
      @ List.map (fun s -> (s, 0)) split_born)
    ~histories:
      (split_histories ~live:"revoked@1024 (single-mutator del-half)"
         ~born:"single-mutator");
  ignore
    (Test_hybrid.run_split_halves [ Jrt.Chaos.Class_load { at_instr = 800 } ]);
  check_flight "hybrid insertion half"
    ~events:
      (List.map (fun s -> (s, 2)) split_live
      @ List.map (fun s -> (s, 0)) split_born)
    ~histories:
      (split_histories ~live:"revoked@800 (closed-world ins-half)"
         ~born:"closed-world")

let tests =
  [
    Alcotest.test_case "revocation liveness matrix" `Quick
      test_revocation_liveness;
    Alcotest.test_case "flight revoke-site half codes" `Quick test_half_codes;
  ]
