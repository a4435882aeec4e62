(* Unit tests for the mutator/collector hook contract (Gc_hooks): which
   collectors honour on_unlogged_store, what the capability bits say,
   and how the hooks behave while the collector is idle. *)

let mk_heap_with_objs n =
  let heap = Jrt.Heap.create () in
  let objs =
    List.init n (fun _ -> (Jrt.Heap.alloc_object heap "T" ~n_fields:2).id)
  in
  (heap, objs)

let roots_of objs () = objs

(* --- none ------------------------------------------------------------- *)

let test_none_hooks () =
  let h = Jrt.Gc_hooks.none in
  Alcotest.(check bool) "never marking" false (h.is_marking ());
  (* every hook is a no-op; in particular the tracing-state check and the
     revocation repair must be safely ignorable *)
  h.log_ref_store ~obj:0 ~pre:Jrt.Value.Null;
  h.on_unlogged_store ~obj:0;
  h.on_revoke ~objs:[ 0; 1; 2 ];
  h.step ();
  Alcotest.(check bool) "still not marking" false (h.is_marking ());
  (* [none] vacuously satisfies every capability: it never marks, so no
     elision can ever be observed by a scan *)
  Alcotest.(check bool) "caps.retrace" true h.caps.retrace_protocol;
  Alcotest.(check bool) "caps.descending" true h.caps.descending_scan

(* --- plain SATB ------------------------------------------------------- *)

let test_satb_ignores_unlogged () =
  let heap, objs = mk_heap_with_objs 3 in
  let t = Jrt.Satb_gc.create heap ~roots:(roots_of objs) in
  let h = Jrt.Satb_gc.hooks t in
  Alcotest.(check bool) "no retrace protocol" false h.caps.retrace_protocol;
  Alcotest.(check bool) "descending by default" true h.caps.descending_scan;
  Jrt.Satb_gc.start_cycle t;
  let logged_before = Jrt.Satb_gc.logged t in
  h.on_unlogged_store ~obj:(List.hd objs);
  Alcotest.(check int) "nothing logged" logged_before (Jrt.Satb_gc.logged t)

let test_satb_ascending_caps () =
  let heap, objs = mk_heap_with_objs 1 in
  let t =
    Jrt.Satb_gc.create ~direction:Jrt.Satb_gc.Ascending heap
      ~roots:(roots_of objs)
  in
  let h = Jrt.Satb_gc.hooks t in
  Alcotest.(check bool)
    "ascending scan forfeits the cap" false h.caps.descending_scan

let test_satb_idle_contracts () =
  let heap, objs = mk_heap_with_objs 2 in
  let t = Jrt.Satb_gc.create heap ~roots:(roots_of objs) in
  let h = Jrt.Satb_gc.hooks t in
  Alcotest.(check bool) "idle" false (h.is_marking ());
  (* stepping, logging and revoking while idle must all be no-ops *)
  h.step ();
  h.log_ref_store ~obj:(List.hd objs) ~pre:Jrt.Value.Null;
  h.on_revoke ~objs;
  Alcotest.(check bool) "still idle" false (h.is_marking ());
  Alcotest.(check int) "no restarts while idle" 0 (Jrt.Satb_gc.restarts t);
  Jrt.Satb_gc.start_cycle t;
  Alcotest.(check bool) "marking after start" true (h.is_marking ())

let test_satb_revoke_restarts_mark () =
  let heap, objs = mk_heap_with_objs 2 in
  let t = Jrt.Satb_gc.create heap ~roots:(roots_of objs) in
  let h = Jrt.Satb_gc.hooks t in
  Jrt.Satb_gc.start_cycle t;
  h.on_revoke ~objs:[ List.hd objs ];
  Alcotest.(check int) "one restart" 1 (Jrt.Satb_gc.restarts t);
  Alcotest.(check bool) "still marking" true (h.is_marking ())

(* --- incremental update (card marking) -------------------------------- *)

let test_incr_ignores_unlogged () =
  let heap, objs = mk_heap_with_objs 3 in
  let t = Jrt.Incr_gc.create heap ~roots:(roots_of objs) in
  let h = Jrt.Incr_gc.hooks t in
  Alcotest.(check bool) "no retrace protocol" false h.caps.retrace_protocol;
  Alcotest.(check bool) "no descending contract" false h.caps.descending_scan;
  Jrt.Incr_gc.start_cycle t;
  let dirtied = Jrt.Incr_gc.dirty_cards t in
  h.on_unlogged_store ~obj:(List.hd objs);
  Alcotest.(check int) "no card dirtied" dirtied (Jrt.Incr_gc.dirty_cards t)

let test_incr_idle_contracts () =
  let heap, objs = mk_heap_with_objs 2 in
  let t = Jrt.Incr_gc.create heap ~roots:(roots_of objs) in
  let h = Jrt.Incr_gc.hooks t in
  Alcotest.(check bool) "idle" false (h.is_marking ());
  h.step ();
  h.on_revoke ~objs;
  Alcotest.(check bool) "still idle" false (h.is_marking ());
  Alcotest.(check int) "no cards dirtied while idle" 0 (Jrt.Incr_gc.dirty_cards t);
  Jrt.Incr_gc.start_cycle t;
  Alcotest.(check bool) "marking after start" true (h.is_marking ());
  (* under incremental update, revocation repair dirties the written
     objects so the marker re-examines them *)
  h.on_revoke ~objs;
  Alcotest.(check bool) "repair dirtied cards" true (Jrt.Incr_gc.dirty_cards t > 0)

(* --- retrace ----------------------------------------------------------- *)

let test_retrace_caps_and_idle () =
  let heap, objs = mk_heap_with_objs 2 in
  let t = Jrt.Retrace_gc.create heap ~roots:(roots_of objs) in
  let h = Jrt.Retrace_gc.hooks t in
  Alcotest.(check bool) "retrace protocol" true h.caps.retrace_protocol;
  Alcotest.(check bool) "descending scan" true h.caps.descending_scan;
  Alcotest.(check bool) "idle" false (h.is_marking ());
  Alcotest.(check bool) "not degraded" false (Jrt.Retrace_gc.is_degraded t);
  (* the tracing-state check outside a marking cycle must not enqueue *)
  h.on_unlogged_store ~obj:(List.hd objs);
  h.on_revoke ~objs;
  h.step ();
  Alcotest.(check bool) "still idle" false (h.is_marking ());
  Alcotest.(check int) "no retrace entries" 0 (Jrt.Retrace_gc.enqueued t)

let test_retrace_budget_watchdog () =
  let heap, objs = mk_heap_with_objs 4 in
  let t =
    Jrt.Retrace_gc.create ~retrace_budget:1 heap ~roots:(roots_of objs)
  in
  let h = Jrt.Retrace_gc.hooks t in
  Jrt.Retrace_gc.start_cycle t;
  (* first enqueue is within budget; the second trips the watchdog but is
     still enqueued — dropping it would be unsound *)
  (match objs with
  | a :: b :: _ ->
      h.on_unlogged_store ~obj:a;
      Alcotest.(check bool) "within budget" false (Jrt.Retrace_gc.is_degraded t);
      h.on_unlogged_store ~obj:b;
      Alcotest.(check bool) "degraded" true (Jrt.Retrace_gc.is_degraded t);
      Alcotest.(check int) "both entries kept" 2 (Jrt.Retrace_gc.enqueued t)
  | _ -> assert false);
  (* the cycle's finish event reports the degradation *)
  Telemetry.set_recording true;
  Fun.protect
    (fun () -> ignore (Jrt.Retrace_gc.finish_cycle t))
    ~finally:(fun () -> Telemetry.set_recording false);
  let finish =
    List.find
      (fun (e : Telemetry.event) -> e.ev_kind = "gc.cycle.finish")
      (List.rev (Telemetry.events ()))
  in
  Alcotest.(check bool) "report degraded" true
    (List.assoc "degraded" finish.ev_fields = Telemetry.Bool true);
  Alcotest.(check bool) "overflow counted" true
    (Jrt.Retrace_gc.budget_overflows t > 0);
  (* the degraded flag describes a cycle; it clears once the cycle ends *)
  Alcotest.(check bool)
    "cleared after cycle" false (Jrt.Retrace_gc.is_degraded t)

let tests =
  [
    Alcotest.test_case "none: all hooks are no-ops" `Quick test_none_hooks;
    Alcotest.test_case "satb: ignores on_unlogged_store" `Quick
      test_satb_ignores_unlogged;
    Alcotest.test_case "satb: ascending scan drops the cap" `Quick
      test_satb_ascending_caps;
    Alcotest.test_case "satb: idle step/log/revoke are no-ops" `Quick
      test_satb_idle_contracts;
    Alcotest.test_case "satb: on_revoke restarts the mark" `Quick
      test_satb_revoke_restarts_mark;
    Alcotest.test_case "incr: ignores on_unlogged_store" `Quick
      test_incr_ignores_unlogged;
    Alcotest.test_case "incr: idle contracts, repair dirties" `Quick
      test_incr_idle_contracts;
    Alcotest.test_case "retrace: caps and idle contracts" `Quick
      test_retrace_caps_and_idle;
    Alcotest.test_case "retrace: budget watchdog degrades" `Quick
      test_retrace_budget_watchdog;
  ]
