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

(* Pre-null verdicts are exact claims: every execution of a site elided
   as [Pre_null_field] or [Pre_null_array] must overwrite null.  Checked
   on the interpreter under SATB for every bundled workload, plain and
   with null-or-same plus summaries, and on the ⊤-length probe of
   Test_array_analysis (whose second store overwrites the first). *)
let pre_null_sites (w : Workloads.Spec.t) ~null_or_same =
  let cw = Harness.Exp.compile ~null_or_same ~summaries:null_or_same w in
  let r = Harness.Exp.run ~gc:(Jrt.Runner.make_satb ()) ~engine:`Interp cw in
  Hashtbl.fold
    (fun (site : Jrt.Interp.site) (st : Jrt.Interp.site_stats) acc ->
      match
        Satb_core.Driver.verdict cw.compiled
          { sk_class = site.s_class; sk_method = site.s_method;
            sk_pc = site.s_pc }
      with
      | Some { v_reason = Pre_null_field | Pre_null_array; _ } ->
          (Jrt.Interp.site_id site, st.pre_null_execs, st.execs) :: acc
      | Some _ | None -> acc)
    r.machine.Jrt.Interp.stats []

let check_pre_null_exact (w : Workloads.Spec.t) ~null_or_same =
  let sites = pre_null_sites w ~null_or_same in
  List.iter
    (fun (id, pre_null, execs) ->
      Alcotest.(check int)
        (Printf.sprintf "%s%s %s: pre-null execs" w.name
           (if null_or_same then " +nos+summaries" else "")
           id)
        execs pre_null)
    sites;
  List.length sites

let test_pre_null_exact_workloads () =
  let n =
    List.fold_left
      (fun n w ->
        n
        + check_pre_null_exact w ~null_or_same:false
        + check_pre_null_exact w ~null_or_same:true)
      0 Workloads.Registry.all
  in
  Alcotest.(check bool) "some pre-null sites executed" true (n > 0)

let test_pre_null_exact_top_length_probe () =
  let probe =
    {
      Workloads.Spec.name = "top-length-probe";
      description = "two stores at one unknown index of a ⊤-length array";
      paper_row = None;
      src = Test_array_analysis.top_length_probe;
      entry = Workloads.Spec.main_entry;
    }
  in
  ignore (check_pre_null_exact probe ~null_or_same:false)

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
  @ [
      Alcotest.test_case "pre-null verdicts exact on every workload" `Quick
        test_pre_null_exact_workloads;
      Alcotest.test_case "pre-null verdicts exact on the ⊤-length probe"
        `Quick test_pre_null_exact_top_length_probe;
    ]
