(* Characterization of the barrier-removal analysis: for every bundled
   workload, four analysis configurations and four inline limits, print
   each method's fixpoint iteration count and one line per
   reference-store site (pc, kind, deletion and insertion verdict with
   reason).  The output is diffed against analysis_golden.expected, so a
   change to the abstract state's representation or to the solver that
   moves any verdict — or the number of block visits it takes to reach
   the fixed point — shows up here. *)

module A = Satb_core.Analysis

let configs =
  let base = A.default_config in
  [
    ("A", base);
    ("A+nos+summaries", { base with null_or_same = true; summaries = true });
    ("A+move-down", { base with move_down = true });
    ("A+swap+move-down", { base with swap = true; move_down = true });
  ]

let limits = [ 0; 50; 100; 200 ]

let string_of_kind : Jir.Types.store_kind -> string = function
  | Field_store -> "field"
  | Array_store -> "array"
  | Static_store -> "static"

let print_site (v : A.verdict) =
  Printf.printf "    pc %d %s del %s %s ins %s %s\n" v.v_pc
    (string_of_kind v.v_kind)
    (if v.v_elide then "elide" else "keep")
    (A.string_of_reason v.v_reason)
    (if v.v_ins_elide then "elide" else "keep")
    (A.string_of_ins_reason v.v_ins_reason)

let () =
  List.iter
    (fun (w : Workloads.Spec.t) ->
      let prog = Workloads.Spec.parse w in
      List.iter
        (fun (label, conf) ->
          List.iter
            (fun inline_limit ->
              let c = Satb_core.Driver.compile ~inline_limit ~conf prog in
              Printf.printf "== %s %s limit %d\n" w.name label inline_limit;
              List.iter
                (fun (r : A.method_result) ->
                  Printf.printf "  %s.%s iters %d\n" r.mr_class r.mr_method
                    r.iterations;
                  List.iter print_site r.verdicts)
                c.results)
            limits)
        configs)
    Workloads.Registry.all
