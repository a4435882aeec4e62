(* Targeted tests for the array analysis (paper §3): null ranges, stride
   inference, and the §3.6 safety rules. *)

let compile ?(inline_limit = 100) ?(mode = Satb_core.Analysis.A) src =
  let prog = Jir.Parser.parse_linked src in
  let conf = { Satb_core.Analysis.default_config with mode } in
  Satb_core.Driver.compile ~inline_limit ~conf prog

let elide_flags compiled ~meth =
  List.concat_map
    (fun (r : Satb_core.Analysis.method_result) ->
      if String.equal r.mr_method meth then
        List.map (fun (v : Satb_core.Analysis.verdict) -> v.v_elide) r.verdicts
      else [])
    compiled.Satb_core.Driver.results

let check name ?mode src ~meth expected =
  Alcotest.(check (list bool)) name expected
    (elide_flags (compile ?mode src) ~meth)

let hdr =
  {|
class T
  field ref f
  method void <init> (ref) locals 1 ctor
    return
  end
end
|}

(* upward in-order fill: the paper's expand example, minus the copy *)
let upward_fill =
  hdr
  ^ {|
class Main
  static ref sink
  method void m (int) locals 2
    iload 0
    anewarray T
    astore 1
    iconst 0
    istore 0
  loop:
    iload 0
    aload 1
    arraylength
    if_icmpge fin
    aload 1
    iload 0
    getstatic Main.sink
    aastore
    iinc 0 1
    goto loop
  fin:
    return
  end
end
|}

let test_upward_fill_elided () =
  check "upward in-order fill" upward_fill ~meth:"m" [ true ]

let test_downward_fill_elided () =
  (* fills from the top end: the Up_to range contracts downward *)
  check "downward fill"
    (hdr
   ^ {|
class Main
  static ref sink
  method void m () locals 2
    iconst 8
    anewarray T
    astore 1
    aload 1
    arraylength
    iconst 1
    isub
    istore 0
  loop:
    iload 0
    iflt fin
    aload 1
    iload 0
    getstatic Main.sink
    aastore
    iinc 0 -1
    goto loop
  fin:
    return
  end
end
|})
    ~meth:"m" [ true ]

let test_stride_two_kept () =
  (* skipping indices: contract loses the range, stores keep barriers *)
  check "stride-2 fill kept"
    (hdr
   ^ {|
class Main
  static ref sink
  method void m () locals 2
    iconst 8
    anewarray T
    astore 1
    iconst 0
    istore 0
  loop:
    iload 0
    iconst 8
    if_icmpge fin
    aload 1
    iload 0
    getstatic Main.sink
    aastore
    iinc 0 2
    goto loop
  fin:
    return
  end
end
|})
    ~meth:"m" [ false ]

let test_hashed_index_kept () =
  check "hashed index kept"
    (hdr
   ^ {|
class Main
  static ref sink
  method void m () locals 2
    iconst 8
    anewarray T
    astore 1
    iconst 0
    istore 0
  loop:
    iload 0
    iconst 8
    if_icmpge fin
    aload 1
    iload 0
    iconst 5
    imul
    iconst 8
    irem
    getstatic Main.sink
    aastore
    iinc 0 1
    goto loop
  fin:
    return
  end
end
|})
    ~meth:"m" [ false ]

let test_single_store_at_zero () =
  check "single store at 0"
    (hdr
   ^ {|
class Main
  static ref sink
  method void m () locals 1
    iconst 4
    anewarray T
    astore 0
    aload 0
    iconst 0
    getstatic Main.sink
    aastore
    aload 0
    iconst 0
    getstatic Main.sink
    aastore
    return
  end
end
|})
    ~meth:"m" [ true; false ]
(* the second store at index 0 overwrites the first *)

let test_escaped_array_kept () =
  check "escaped array"
    (hdr
   ^ {|
class Main
  static ref arr
  static ref sink
  method void m () locals 1
    iconst 4
    anewarray T
    astore 0
    aload 0
    putstatic Main.arr
    aload 0
    iconst 0
    getstatic Main.sink
    aastore
    return
  end
end
|})
    ~meth:"m" [ false; false ]

let test_bounds_handler_disables_array_elision () =
  (* §3.6 footnote: methods catching bounds exceptions get no array
     elision (but field elision still applies) *)
  check "bounds handler"
    (hdr
   ^ {|
class Main
  static ref sink
  method void m () locals 1
  t0:
    iconst 4
    anewarray T
    astore 0
    aload 0
    iconst 0
    getstatic Main.sink
    aastore
  t1:
    return
  h:
    return
    catch bounds t0 t1 h
  end
end
|})
    ~meth:"m" [ false ]

let test_arith_handler_does_not_disable () =
  check "unrelated handler"
    (hdr
   ^ {|
class Main
  static ref sink
  method void m () locals 1
  t0:
    iconst 4
    anewarray T
    astore 0
    aload 0
    iconst 0
    getstatic Main.sink
    aastore
  t1:
    return
  h:
    return
    catch arith t0 t1 h
  end
end
|})
    ~meth:"m" [ true ]

let test_mode_f_keeps_array_stores () =
  check "mode F" ~mode:Satb_core.Analysis.F upward_fill ~meth:"m" [ false ]

let test_expand_example_full () =
  (* the paper's §3.1 example end to end: symbolic length 2*c0 *)
  let compiled = compile Workloads.Micro.expand_src in
  Alcotest.(check (list bool)) "expand loop store" [ true ]
    (elide_flags compiled ~meth:"expand")

let test_two_arrays_independent () =
  (* b's null range collapses after a store at an unknown index; a's
     in-order fill is unaffected.  Note the first unknown-index store into
     the *fully null* fresh b elides too — every slot is null. *)
  check "two arrays tracked independently"
    (hdr
   ^ {|
class Main
  static ref sink
  method void m (int) locals 3
    iconst 4
    anewarray T
    astore 1
    iconst 4
    anewarray T
    astore 2
    aload 1
    iconst 0
    getstatic Main.sink
    aastore
    aload 2
    iload 0
    getstatic Main.sink
    aastore
    aload 2
    iload 0
    getstatic Main.sink
    aastore
    aload 1
    iconst 1
    getstatic Main.sink
    aastore
    return
  end
end
|})
    ~meth:"m" [ true; true; false; true ]
(* a[0] elide; b[i] into fully-null b: elide; b[i] again: range lost,
   keep; a[1] continues in order: elide *)

let test_length_via_argument_unknown () =
  (* array length is an opaque constant unknown from an argument array *)
  check "length from argument"
    (hdr
   ^ {|
class Main
  static ref sink
  method void m (ref) locals 3
    aload 0
    arraylength
    anewarray T
    astore 1
    iconst 0
    istore 2
  loop:
    iload 2
    aload 1
    arraylength
    if_icmpge fin
    aload 1
    iload 2
    getstatic Main.sink
    aastore
    iinc 2 1
    goto loop
  fin:
    return
  end
end
|})
    ~meth:"m" [ true ]

let test_aaload_does_not_contract () =
  (* reading elements must not affect the null range *)
  check "aaload neutral"
    (hdr
   ^ {|
class Main
  static ref sink
  method void m () locals 2
    iconst 4
    anewarray T
    astore 0
    aload 0
    iconst 2
    aaload
    pop
    aload 0
    iconst 0
    getstatic Main.sink
    aastore
    return
  end
end
|})
    ~meth:"m" [ true ]

(* An array whose length is read from a static has the null range
   [0..⊤].  Two stores at the same unknown index: the second overwrites
   the first, so it must keep its barrier.  (The first keeps its barrier
   too: with an unknown length the range has no provable upper end.)
   Shared with the dynamic pre-null exactness test in Test_soundness. *)
let top_length_probe =
  hdr
  ^ {|
class Main
  static int n
  static int k
  static ref sink
  method void main () locals 1
    iconst 4
    putstatic Main.n
    iconst 1
    putstatic Main.k
    new T
    dup
    invoke T.<init>
    putstatic Main.sink
    getstatic Main.n
    anewarray T
    astore 0
    aload 0
    getstatic Main.k
    getstatic Main.sink
    aastore
    aload 0
    getstatic Main.k
    getstatic Main.sink
    aastore
    return
  end
end
|}

let test_top_length_same_index_kept () =
  (* the putstatic (never elided), then both aastores *)
  check "unknown length, same unknown index twice" top_length_probe
    ~meth:"main" [ false; false; false ]

let test_int_array_stores_have_no_barrier () =
  let compiled =
    compile
      (hdr
     ^ {|
class Main
  method void m () locals 1
    iconst 4
    inewarray
    astore 0
    aload 0
    iconst 0
    iconst 7
    iastore
    return
  end
end
|})
  in
  Alcotest.(check (list bool)) "no ref-store sites" []
    (elide_flags compiled ~meth:"m")

let tests =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("upward fill elided", test_upward_fill_elided);
      ("downward fill elided", test_downward_fill_elided);
      ("stride-2 kept", test_stride_two_kept);
      ("hashed index kept", test_hashed_index_kept);
      ("store at 0 then overwrite", test_single_store_at_zero);
      ("escaped array kept", test_escaped_array_kept);
      ("bounds handler disables", test_bounds_handler_disables_array_elision);
      ("unrelated handler neutral", test_arith_handler_does_not_disable);
      ("mode F keeps arrays", test_mode_f_keeps_array_stores);
      ("paper expand example", test_expand_example_full);
      ("two arrays independent", test_two_arrays_independent);
      ("length via argument unknown", test_length_via_argument_unknown);
      ("aaload neutral", test_aaload_does_not_contract);
      ("int arrays barrier-free", test_int_array_stores_have_no_barrier);
      ("⊤ length, same ⊤ index kept", test_top_length_same_index_kept);
    ]
