(* Unit and property tests for null ranges (paper §3.2-3.3, §3.6). *)

module I = Satb_core.Intval
module R = Satb_core.Intrange

let rng : R.t Alcotest.testable = Alcotest.testable R.pp R.equal

let c = I.const
let c0 = I.of_const_unknown 0
let v0 = I.of_var_unknown 0

let full lo hi = R.Full (c lo, c hi)

(* ---- of_new_array ------------------------------------------------------ *)

let test_new_array () =
  Alcotest.check rng "fresh array of length 8" (full 0 7)
    (R.of_new_array (c 8));
  Alcotest.check rng "fresh array of symbolic length"
    (R.Full (c 0, I.add_const (-1) (I.scale 2 c0)))
    (R.of_new_array (I.scale 2 c0))

(* ---- contract (§3.3) --------------------------------------------------- *)

let test_contract_full_low_end () =
  Alcotest.check rng "store at lo" (full 1 7) (R.contract (full 0 7) (c 0))

let test_contract_full_high_end () =
  Alcotest.check rng "store at hi" (full 0 6) (R.contract (full 0 7) (c 7))

let test_contract_full_middle_loses_all () =
  (* the deliberately conservative heuristic: stores not at either end
     lose all information — this is also what makes the §3.6 overflow
     argument work *)
  Alcotest.check rng "store in the middle" R.Empty
    (R.contract (full 0 7) (c 3))

let test_contract_full_provably_outside () =
  Alcotest.check rng "store below keeps range" (full 2 7)
    (R.contract (full 2 7) (c 0));
  Alcotest.check rng "store above keeps range" (full 0 5)
    (R.contract (full 0 5) (c 7))

let test_contract_from () =
  Alcotest.check rng "store at lo of half-open" (R.From (I.add_const 1 v0))
    (R.contract (R.From v0) v0);
  Alcotest.check rng "store provably below" (R.From (I.add_const 2 v0))
    (R.contract (R.From (I.add_const 2 v0)) v0);
  Alcotest.check rng "unknown store loses all" R.Empty
    (R.contract (R.From v0) c0)

let test_contract_up_to () =
  Alcotest.check rng "store at hi"
    (R.Up_to (I.add_const (-1) v0))
    (R.contract (R.Up_to v0) v0);
  Alcotest.check rng "store provably above" (R.Up_to (c 3))
    (R.contract (R.Up_to (c 3)) (c 9));
  Alcotest.check rng "unknown store loses all" R.Empty
    (R.contract (R.Up_to v0) c0)

let test_contract_empty () =
  Alcotest.check rng "empty stays empty" R.Empty (R.contract R.Empty (c 0))

let test_contract_symbolic_equality () =
  (* index and bound share a variable unknown: equality is provable *)
  let lo = I.add_const 2 v0 in
  Alcotest.check rng "symbolic store at lo"
    (R.From (I.add_const 3 v0))
    (R.contract (R.From lo) lo)

(* ---- mem (elision judgment) -------------------------------------------- *)

let test_mem () =
  let len8 = c 8 in
  Alcotest.(check bool) "0 in [0..7] (len 8)" true
    (R.mem (full 0 7) (c 0) ~len:len8);
  Alcotest.(check bool) "7 in [0..7]" true (R.mem (full 0 7) (c 7) ~len:len8);
  Alcotest.(check bool) "not in empty" false (R.mem R.Empty (c 0) ~len:len8);
  Alcotest.(check bool) "v in [v..]" true (R.mem (R.From v0) v0 ~len:I.top);
  Alcotest.(check bool) "v+1 in [v..]" true
    (R.mem (R.From v0) (I.add_const 1 v0) ~len:I.top);
  Alcotest.(check bool) "v-1 not in [v..]" false
    (R.mem (R.From v0) (I.add_const (-1) v0) ~len:I.top);
  Alcotest.(check bool) "v in [..v]" true (R.mem (R.Up_to v0) v0 ~len:I.top);
  Alcotest.(check bool) "v+1 not in [..v]" false
    (R.mem (R.Up_to v0) (I.add_const 1 v0) ~len:I.top)

let test_mem_full_upper_bound_via_length () =
  (* [v .. 2c0-1] with length 2c0: the upper bound need not be proved
     because a successful store is bounds-checked (§3.1 example) *)
  let len = I.scale 2 c0 in
  let r = R.Full (v0, I.add_const (-1) len) in
  Alcotest.(check bool) "v in [v..len-1]" true (R.mem r v0 ~len);
  (* but with an unrelated upper bound, no proof *)
  let r' = R.Full (v0, c0) in
  Alcotest.(check bool) "v not provably in [v..c0]" false (R.mem r' v0 ~len)

(* ---- merge (§3.5) ------------------------------------------------------ *)

let fresh_ctx () = I.Ctx.create (I.Gen.create ())

let test_merge_same_shape () =
  let ctx = fresh_ctx () in
  (* the §3.5 example: Full(0, 2c0-1) ⊔ Full(1, 2c0-1) = Full(v, 2c0-1) *)
  let hi = I.add_const (-1) (I.scale 2 c0) in
  let m =
    R.merge ctx ~len1:(I.scale 2 c0) ~len2:(I.scale 2 c0)
      (R.Full (c 0, hi)) (R.Full (c 1, hi))
  in
  match m with
  | R.Full (I.Lin { var = Some (1, _); consts = []; base = 0 }, hi') ->
      Alcotest.(check bool) "upper bound preserved" true (I.equal hi hi')
  | other -> Alcotest.failf "unexpected merge result %a" R.pp other

let test_merge_empty_absorbs () =
  let ctx = fresh_ctx () in
  Alcotest.check rng "empty ⊔ x" R.Empty
    (R.merge ctx ~len1:I.top ~len2:I.top R.Empty (full 0 7));
  Alcotest.check rng "x ⊔ empty" R.Empty
    (R.merge ctx ~len1:I.top ~len2:I.top (full 0 7) R.Empty)

let test_merge_promotes_full_to_from () =
  (* Full(lo, len-1) ≡ From lo when merged against a half-open range *)
  let ctx = fresh_ctx () in
  let m =
    R.merge ctx ~len1:(c 8) ~len2:(c 8) (full 2 7) (R.From (c 2))
  in
  Alcotest.check rng "promoted" (R.From (c 2)) m

let test_merge_promotes_full_to_up_to () =
  let ctx = fresh_ctx () in
  let m =
    R.merge ctx ~len1:(c 8) ~len2:(c 8) (full 0 5) (R.Up_to (c 5))
  in
  Alcotest.check rng "promoted" (R.Up_to (c 5)) m

let test_merge_incompatible_shapes () =
  let ctx = fresh_ctx () in
  Alcotest.check rng "From ⊔ Up_to = Empty" R.Empty
    (R.merge ctx ~len1:I.top ~len2:I.top (R.From (c 0)) (R.Up_to (c 5)));
  (* Full against From without the length promotion also collapses *)
  Alcotest.check rng "unpromotable Full" R.Empty
    (R.merge ctx ~len1:(c 100) ~len2:(c 100) (full 0 5) (R.From (c 0)))

let test_merge_flat () =
  Alcotest.check rng "flat equal" (full 0 7) (R.merge_flat (full 0 7) (full 0 7));
  Alcotest.check rng "flat unequal" R.Empty
    (R.merge_flat (full 0 7) (full 1 7))

(* ---- properties -------------------------------------------------------- *)

(* soundness skeleton for contract on concrete ranges: model a concrete
   array of n cells and check that abstract contract over-approximates the
   concrete "still null" set *)
let prop_contract_concrete_soundness =
  QCheck2.Test.make ~name:"contract sound on concrete full ranges"
    ~count:500
    QCheck2.Gen.(pair (int_range 0 10) (int_range 0 10))
    (fun (n, ind) ->
      QCheck2.assume (n > 0 && ind < n);
      (* concrete: cells [0,n), all null, store at ind *)
      let abstract = R.contract (R.of_new_array (c n)) (c ind) in
      (* every index ≠ ind that the abstract range claims null must indeed
         be null: check via mem on each concrete index *)
      List.for_all
        (fun j ->
          if R.mem abstract (c j) ~len:(c n) then j <> ind else true)
        (List.init n Fun.id))

let prop_mem_empty_never =
  QCheck2.Test.make ~name:"mem on Empty is false" ~count:200 Gen.lin_intval
    (fun i -> not (R.mem R.Empty i ~len:I.top))

let prop_merge_flat_equal_or_empty =
  QCheck2.Test.make ~name:"merge_flat is equal-or-empty" ~count:500
    (QCheck2.Gen.pair Gen.intrange Gen.intrange) (fun (a, b) ->
      let m = R.merge_flat a b in
      if R.equal a b then R.equal m a else R.equal m R.Empty)

let prop_merge_claims_justified_on_both_sides =
  (* whatever the merged range claims (via mem with concrete values) must
     be claimed by both inputs when everything is concrete *)
  QCheck2.Test.make ~name:"concrete merge is an intersection" ~count:300
    QCheck2.Gen.(
      tup4 (int_range 0 6) (int_range 0 6) (int_range 0 6) (int_range 0 6))
    (fun (a1, b1, a2, b2) ->
      let n = 8 in
      let len = c n in
      let ctx = fresh_ctx () in
      let r1 = R.Full (c a1, c b1) in
      let r2 = R.Full (c a2, c b2) in
      let m = R.merge ctx ~len1:len ~len2:len r1 r2 in
      List.for_all
        (fun j ->
          if R.mem m (c j) ~len then
            R.mem r1 (c j) ~len && R.mem r2 (c j) ~len
          else true)
        (List.init n Fun.id))

(* ⊤ is an unknown integer, so a ⊤ bound proves nothing about another ⊤:
   an array of unknown length is [Full (0, ⊤)], and two stores at the
   same unknown index must not both land in its null range *)
let test_top_bounds_prove_nothing () =
  let top = I.top in
  let fresh = R.Full (c 0, top) in
  Alcotest.check rng "store at ⊤ into [0..⊤] loses the range" R.Empty
    (R.contract fresh top);
  Alcotest.check rng "store at ⊤ into [⊤..] loses the range" R.Empty
    (R.contract (R.From top) top);
  Alcotest.check rng "store at ⊤ into [..⊤] loses the range" R.Empty
    (R.contract (R.Up_to top) top);
  Alcotest.(check bool) "⊤ upper bound is not len-1 of a ⊤ length" false
    (R.mem fresh top ~len:top);
  Alcotest.(check bool) "literal index, ⊤ length: still unproven" false
    (R.mem fresh (c 2) ~len:top);
  Alcotest.check rng "⊤ upper bound does not promote to From" R.Empty
    (R.promote_like ~len:top (R.From (c 1)) (R.Full (c 1, top)));
  Alcotest.check rng "⊤ lower bound does not promote to Up_to" R.Empty
    (R.promote_like ~len:(c 8) (R.Up_to (c 3)) (R.Full (top, c 3)))

let unit_tests =
  [
    ("of_new_array", test_new_array);
    ("contract full low end", test_contract_full_low_end);
    ("contract full high end", test_contract_full_high_end);
    ("contract middle loses all", test_contract_full_middle_loses_all);
    ("contract provably outside", test_contract_full_provably_outside);
    ("contract from", test_contract_from);
    ("contract up_to", test_contract_up_to);
    ("contract empty", test_contract_empty);
    ("contract symbolic equality", test_contract_symbolic_equality);
    ("mem", test_mem);
    ("mem via length bound", test_mem_full_upper_bound_via_length);
    ("merge same shape", test_merge_same_shape);
    ("merge empty absorbs", test_merge_empty_absorbs);
    ("merge promotes to From", test_merge_promotes_full_to_from);
    ("merge promotes to Up_to", test_merge_promotes_full_to_up_to);
    ("merge incompatible shapes", test_merge_incompatible_shapes);
    ("merge_flat", test_merge_flat);
  ]

let tests =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f) unit_tests
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_contract_concrete_soundness;
        prop_mem_empty_never;
        prop_merge_flat_equal_or_empty;
        prop_merge_claims_justified_on_both_sides;
      ]
  @ [
      Alcotest.test_case "⊤ bounds prove nothing" `Quick
        test_top_bounds_prove_nothing;
    ]
