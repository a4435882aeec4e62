(* The flagship end-to-end soundness property (DESIGN.md §5):

   For every workload and every collector, under adversarial
   mutator/collector interleavings, running with the analysis-directed
   barrier-elision policy must preserve the collector's oracle invariant —
   for the SATB family every object reachable when marking started is
   marked when it finishes; for incremental update and hybrid everything
   reachable when it finishes is marked.  A single wrongly-removed barrier
   shows up as a violation (see the elide-all negative test in
   Test_gc). *)

type collector = {
  label : string;  (** test-name prefix; SATB keeps its original name *)
  choice : int -> Jrt.Pacer.config -> Jrt.Runner.gc_choice;
  elide : bool;
      (** run the analysis's elision verdicts.  Off for incremental
          update: pre-null elision is SATB-specific, and a card-marking
          collector must hear about initializing stores into
          already-scanned objects (Test_gc's "incr breaks under satb
          policy" shows mtrt losing objects), so it runs every barrier. *)
}

let collectors =
  [
    { label = "SATB"; elide = true;
      choice = (fun steps_per_increment pacing ->
        Jrt.Runner.Satb { steps_per_increment; pacing }) };
    { label = "incremental-update"; elide = false;
      choice = (fun steps_per_increment pacing ->
        Jrt.Runner.Incr { steps_per_increment; pacing }) };
    { label = "retrace"; elide = true;
      choice = (fun steps_per_increment pacing ->
        Jrt.Runner.Retrace { steps_per_increment; pacing }) };
    { label = "hybrid"; elide = true;
      choice = (fun steps_per_increment pacing ->
        Jrt.Runner.Hybrid { steps_per_increment; pacing }) };
  ]

let run_one (w : Workloads.Spec.t) c ~null_or_same ~seed ~quantum
    ~gc_period ~steps ~trigger =
  let cw = Harness.Exp.compile ~null_or_same w in
  let r =
    Harness.Exp.run
      ~gc:(c.choice steps (Jrt.Pacer.config_of_trigger trigger))
      ~use_policy:c.elide ~seed ~quantum ~gc_period cw
  in
  match r.gc with
  | Some g -> g.total_violations
  | None -> Alcotest.fail "expected gc summary"

(* schedule parameters derived from a seed, exploring many interleavings *)
let params_of_seed seed =
  let quantum = 1 + (seed * 7 mod 97) in
  let gc_period = 1 + (seed * 13 mod 61) in
  let steps = 1 + (seed * 5 mod 40) in
  let trigger = 8 + (seed * 11 mod 80) in
  (quantum, gc_period, steps, trigger)

let prop_workload_sound c (w : Workloads.Spec.t) ~null_or_same =
  QCheck2.Test.make
    ~name:
      (Printf.sprintf "%s invariant: %s%s" c.label w.name
         (if null_or_same then " (+null-or-same)" else ""))
    ~count:12
    (QCheck2.Gen.int_range 1 10_000)
    (fun seed ->
      let quantum, gc_period, steps, trigger = params_of_seed seed in
      run_one w c ~null_or_same ~seed ~quantum ~gc_period ~steps ~trigger
      = 0)

let tests =
  List.map QCheck_alcotest.to_alcotest
    (List.concat_map
       (fun c ->
         List.concat_map
           (fun w ->
             (* without elision the null-or-same variant would rerun the
                same property *)
             List.map
               (fun null_or_same -> prop_workload_sound c w ~null_or_same)
               (if c.elide then [ false; true ] else [ false ]))
           Workloads.Registry.all)
       collectors)
