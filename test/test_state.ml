(* Unit and property tests for the abstract state: merging, escape
   closure, allocation-site retirement, null-or-same fact management. *)

module S = Satb_core.State
module Sym = Satb_core.Refsym
module I = Satb_core.Intval
module F = Satb_core.Field_id

let rs = Sym.Set.of_list
let f_a = F.F ("C", "a")
let f_b = F.F ("C", "b")
let a0 = Sym.recent 0
let b0 = Sym.summary 0
let a1 = Sym.recent 1

let empty_state ~locals : S.t =
  {
    rho = Array.make locals S.Bot;
    stk = [];
    nl = Sym.Set.singleton Sym.Global;
    sigma = S.Sigma.empty;
    len = S.Rmap.empty;
    nr = S.Rmap.empty;
    shift = None;
  }

let state_eq : S.t Alcotest.testable = Alcotest.testable S.pp S.equal

(* ---- lookups ----------------------------------------------------------- *)

let test_lookup_global () =
  let s = empty_state ~locals:1 in
  match S.lookup_field s Sym.Global f_a with
  | S.Ref { refs; _ } ->
      Alcotest.(check bool) "global collapses" true
        (Sym.Set.equal refs (rs [ Sym.Global ]))
  | _ -> Alcotest.fail "expected ref"

let test_lookup_non_tl_is_global () =
  let s = empty_state ~locals:1 in
  let s = { s with nl = Sym.Set.add a0 s.nl } in
  let s = { s with sigma = S.Sigma.add (a0, f_a) S.null_v s.sigma } in
  match S.lookup_field s a0 f_a with
  | S.Ref { refs; _ } ->
      Alcotest.(check bool) "NL lookup gives Global" true
        (Sym.Set.equal refs (rs [ Sym.Global ]))
  | _ -> Alcotest.fail "expected ref"

let test_lookup_recorded () =
  let s = empty_state ~locals:1 in
  let s = { s with sigma = S.Sigma.add (a0, f_a) S.null_v s.sigma } in
  match S.lookup_field s a0 f_a with
  | S.Ref { refs; _ } ->
      Alcotest.(check bool) "definitely null" true (Sym.Set.is_empty refs)
  | _ -> Alcotest.fail "expected ref"

(* ---- escape closure ---------------------------------------------------- *)

let test_escape_transitive () =
  (* a0.a = a1; escaping a0 must also escape a1 (AllNonTL closure) *)
  let s = empty_state ~locals:1 in
  let s =
    { s with sigma = S.Sigma.add (a0, f_a) (S.ref_of (rs [ a1 ])) s.sigma }
  in
  let s = S.all_non_tl s (rs [ a0 ]) in
  Alcotest.(check bool) "a0 escaped" true (Sym.Set.mem a0 s.nl);
  Alcotest.(check bool) "a1 escaped transitively" true (Sym.Set.mem a1 s.nl)

let test_escape_cond_only_when_receiver_escaped () =
  let s = empty_state ~locals:1 in
  let local_store =
    S.all_non_tl_cond s ~objs:(rs [ a0 ]) ~value:(S.ref_of (rs [ a1 ]))
  in
  Alcotest.(check bool) "store into thread-local: no escape" false
    (Sym.Set.mem a1 local_store.nl);
  let s2 = { s with nl = Sym.Set.add a0 s.nl } in
  let escaped_store =
    S.all_non_tl_cond s2 ~objs:(rs [ a0 ]) ~value:(S.ref_of (rs [ a1 ]))
  in
  Alcotest.(check bool) "store into escaped: value escapes" true
    (Sym.Set.mem a1 escaped_store.nl)

let test_escape_args () =
  let s = empty_state ~locals:1 in
  let s = S.escape_args s [ S.ref_of (rs [ a0 ]); S.Int I.top ] in
  Alcotest.(check bool) "ref arg escapes" true (Sym.Set.mem a0 s.nl)

(* ---- retire_site (§2.4 newinstance) ------------------------------------ *)

let test_retire_substitutes_everywhere () =
  let s = empty_state ~locals:2 in
  let s = S.set_local s 0 (S.ref_of (rs [ a0 ])) in
  let s = S.push (S.ref_of (rs [ a0; a1 ])) s in
  let s =
    { s with sigma = S.Sigma.add (a1, f_a) (S.ref_of (rs [ a0 ])) s.sigma }
  in
  let s = { s with nl = Sym.Set.add a0 s.nl } in
  let s = S.retire_site s 0 in
  (match S.local s 0 with
  | S.Ref { refs; _ } ->
      Alcotest.(check bool) "local substituted" true
        (Sym.Set.equal refs (rs [ b0 ]))
  | _ -> Alcotest.fail "expected ref");
  (match s.stk with
  | [ S.Ref { refs; _ } ] ->
      Alcotest.(check bool) "stack substituted" true
        (Sym.Set.equal refs (rs [ b0; a1 ]))
  | _ -> Alcotest.fail "expected one stack slot");
  (match S.Sigma.find_opt (a1, f_a) s.sigma with
  | Some (S.Ref { refs; _ }) ->
      Alcotest.(check bool) "sigma range substituted" true
        (Sym.Set.equal refs (rs [ b0 ]))
  | _ -> Alcotest.fail "expected sigma entry");
  Alcotest.(check bool) "NL substituted" true (Sym.Set.mem b0 s.nl);
  Alcotest.(check bool) "A gone from NL" false (Sym.Set.mem a0 s.nl)

let test_retire_merges_sigma_entries () =
  (* both (A,f) and (B,f) exist: they merge by union *)
  let s = empty_state ~locals:1 in
  let s =
    {
      s with
      sigma =
        S.Sigma.add (a0, f_a) (S.ref_of (rs [ a1 ]))
          (S.Sigma.add (b0, f_a) (S.ref_of (rs [ Sym.Global ])) s.sigma);
    }
  in
  let s = S.retire_site s 0 in
  match S.Sigma.find_opt (b0, f_a) s.sigma with
  | Some (S.Ref { refs; _ }) ->
      Alcotest.(check bool) "merged by union" true
        (Sym.Set.equal refs (rs [ a1; Sym.Global ]))
  | _ -> Alcotest.fail "expected merged entry"

(* ---- merge ------------------------------------------------------------- *)

let gen () = I.Gen.create ()

let test_merge_rho_union () =
  let s1 = S.set_local (empty_state ~locals:1) 0 (S.ref_of (rs [ a0 ])) in
  let s2 = S.set_local (empty_state ~locals:1) 0 (S.ref_of (rs [ a1 ])) in
  let m = S.merge ~gen:(gen ()) s1 s2 in
  match S.local m 0 with
  | S.Ref { refs; _ } ->
      Alcotest.(check bool) "union" true (Sym.Set.equal refs (rs [ a0; a1 ]))
  | _ -> Alcotest.fail "expected ref"

let test_merge_bot_identity () =
  let s1 = S.set_local (empty_state ~locals:1) 0 (S.ref_of (rs [ a0 ])) in
  let s2 = empty_state ~locals:1 in
  let m = S.merge ~gen:(gen ()) s1 s2 in
  Alcotest.check state_eq "⊥ is identity" s1 m

let test_merge_stack_mismatch_raises () =
  let s1 = S.push S.null_v (empty_state ~locals:1) in
  let s2 = empty_state ~locals:1 in
  Alcotest.check_raises "stack mismatch"
    (Invalid_argument "State.merge: operand stack mismatch") (fun () ->
      ignore (S.merge ~gen:(gen ()) s1 s2))

let test_merge_sigma_missing_is_bottom () =
  let s1 =
    {
      (empty_state ~locals:1) with
      sigma = S.Sigma.add (a0, f_a) S.null_v S.Sigma.empty;
    }
  in
  let s2 = empty_state ~locals:1 in
  let m = S.merge ~gen:(gen ()) s1 s2 in
  match S.Sigma.find_opt (a0, f_a) m.sigma with
  | Some (S.Ref { refs; _ }) ->
      Alcotest.(check bool) "kept as definitely null" true
        (Sym.Set.is_empty refs)
  | _ -> Alcotest.fail "expected entry"

let test_merge_nos_survives_via_sigma_null () =
  (* side 1 carries the fact, side 2's σ shows the field null: the fact
     survives the merge (the §4.3 disjunction) *)
  let fact = (a0, f_a) in
  let v1 = S.Ref (S.mk_refinfo ~nos:(S.Nos.singleton fact) (rs [ Sym.Global ])) in
  let v2 = S.Ref (S.mk_refinfo (rs [ Sym.Global ])) in
  let s1 = S.set_local (empty_state ~locals:1) 0 v1 in
  let s2 = S.set_local (empty_state ~locals:1) 0 v2 in
  let s2 = { s2 with sigma = S.Sigma.add fact S.null_v s2.sigma } in
  let m = S.merge ~gen:(gen ()) s1 s2 in
  (match S.local m 0 with
  | S.Ref { nos; _ } ->
      Alcotest.(check bool) "fact survives" true (S.Nos.mem fact nos)
  | _ -> Alcotest.fail "expected ref");
  (* without the σ-null justification it must die *)
  let s2' = S.set_local (empty_state ~locals:1) 0 v2 in
  let m' = S.merge ~gen:(gen ()) s1 s2' in
  match S.local m' 0 with
  | S.Ref { nos; _ } ->
      Alcotest.(check bool) "fact dies" false (S.Nos.mem fact nos)
  | _ -> Alcotest.fail "expected ref"

let test_kill_nos () =
  let fact = (a0, f_a) in
  let other = (a0, f_b) in
  let v = S.Ref (S.mk_refinfo ~nos:(S.Nos.of_list [ fact; other ]) (rs [])) in
  let s = S.set_local (empty_state ~locals:1) 0 v in
  let s = S.kill_nos s [ fact ] in
  match S.local s 0 with
  | S.Ref { nos; _ } ->
      Alcotest.(check bool) "killed" false (S.Nos.mem fact nos);
      Alcotest.(check bool) "other kept" true (S.Nos.mem other nos)
  | _ -> Alcotest.fail "expected ref"

(* ---- sharing: joins and rewrites that change nothing allocate nothing -- *)

let mx = S.Mstatic ("Main", "x")
let my = S.Mstatic ("Main", "y")

(* one value of every kind, and a σ entry, an NR entry and a shift chain *)
let rich_state () : S.t =
  let ep = { S.ep_src = mx; ep_idx = I.const 3; ep_displaced = false } in
  let v =
    S.Ref
      (S.mk_refinfo ~msrc:mx ~eprov:ep
         ~nos:(S.Nos.singleton (a0, f_b))
         (rs [ a0; Sym.Global ]))
  in
  let s = empty_state ~locals:3 in
  let s = S.set_local s 0 v in
  let s = S.set_local s 1 (S.Int (I.of_var_unknown 0)) in
  let s = S.push S.null_v (S.push v s) in
  {
    s with
    sigma = S.Sigma.add (a1, f_a) v (S.Sigma.add (a1, f_b) S.null_v s.sigma);
    len = S.Rmap.add a1 (I.const 8) s.len;
    nr = S.Rmap.add a1 (Satb_core.Intrange.Full (I.const 2, I.const 7)) s.nr;
    shift = Some (mx, I.const 4);
  }

let check_same name s s' = Alcotest.(check bool) name true (s' == s)
let check_rewritten name s s' = Alcotest.(check bool) name false (s' == s)

let test_merge_self_is_identity () =
  let s = rich_state () in
  check_same "merge s s == s" s (S.merge ~gen:(gen ()) s s);
  check_same "merge s (copy of s) == s" s
    (S.merge ~gen:(gen ()) s { s with rho = Array.copy s.rho })

let test_merge_subsumed_is_identity () =
  (* the incoming state adds nothing: fewer symbols, no extra NL *)
  let s1 = S.set_local (empty_state ~locals:1) 0 (S.ref_of (rs [ a0; a1 ])) in
  let s2 = S.set_local (empty_state ~locals:1) 0 (S.ref_of (rs [ a1 ])) in
  check_same "subsumed join returns s1" s1 (S.merge ~gen:(gen ()) s1 s2);
  check_rewritten "growing join builds a new state" s2
    (S.merge ~gen:(gen ()) s2 s1)

let test_merge_top_bounded_nr_still_merges () =
  (* an array of unknown length: [0..⊤] merged with itself keeps no bound
     below ⊤, so it drops to [Empty] — the join must not short-circuit *)
  let s =
    {
      (empty_state ~locals:1) with
      nr = S.Rmap.singleton a1 (Satb_core.Intrange.Full (I.const 0, I.top));
    }
  in
  let m = S.merge ~gen:(gen ()) s s in
  check_rewritten "⊤-bounded range is merged" s m;
  Alcotest.(check bool) "to Empty" true
    (Satb_core.Intrange.equal (S.lookup_nr m a1) Satb_core.Intrange.Empty)

let nos_of (s : S.t) =
  match S.local s 0 with S.Ref ri -> ri.nos | _ -> Alcotest.fail "ref"

let refinfo_of (s : S.t) =
  match S.local s 0 with S.Ref ri -> ri | _ -> Alcotest.fail "ref"

let test_kill_nos_sharing () =
  let s = rich_state () in
  check_same "no locations" s (S.kill_nos s []);
  check_same "no matching fact" s (S.kill_nos s [ (a0, f_a); (a1, f_b) ]);
  let s' = S.kill_nos s [ (a0, f_b) ] in
  check_rewritten "matching fact" s s';
  Alcotest.(check bool) "fact gone" true (S.Nos.is_empty (nos_of s'));
  Alcotest.(check bool) "input untouched" false (S.Nos.is_empty (nos_of s))

let test_kill_must_src_sharing () =
  let s = rich_state () in
  check_same "other source" s (S.kill_must_src s (S.equal_must_src my));
  let s' = S.kill_must_src s (S.equal_must_src mx) in
  check_rewritten "matching source" s s';
  let ri = refinfo_of s' in
  Alcotest.(check bool) "msrc and eprov gone" true
    (ri.msrc = None && ri.eprov = None && s'.shift = None);
  let bare = S.set_local (empty_state ~locals:1) 0 (S.ref_of (rs [ a0 ])) in
  check_same "nothing to kill" bare (S.kill_all_must_src bare);
  check_rewritten "kill all" s (S.kill_all_must_src s)

let test_kill_all_eprov_sharing () =
  let s = rich_state () in
  let s' = S.kill_all_eprov s in
  check_rewritten "provenances present" s s';
  Alcotest.(check bool) "eprov gone" true ((refinfo_of s').eprov = None);
  check_same "none left" s' (S.kill_all_eprov s')

let test_eprov_after_store_sharing () =
  let s = rich_state () in
  check_same "other slot of the same array" s
    (S.eprov_after_store s ~src:(Some mx) ~idx:(I.const 5) ~displace:false);
  let dies =
    S.eprov_after_store s ~src:(Some mx) ~idx:(I.const 3) ~displace:false
  in
  check_rewritten "same slot" s dies;
  Alcotest.(check bool) "fact dies" true ((refinfo_of dies).eprov = None);
  check_rewritten "unknown source" s
    (S.eprov_after_store s ~src:None ~idx:(I.const 5) ~displace:false);
  match
    (refinfo_of
       (S.eprov_after_store s ~src:(Some mx) ~idx:(I.const 3) ~displace:true))
      .eprov
  with
  | Some ep -> Alcotest.(check bool) "displaced" true ep.ep_displaced
  | None -> Alcotest.fail "expected a displaced provenance"

let test_retire_site_sharing () =
  let s = rich_state () in
  check_same "site 2 never mentioned" s (S.retire_site s 2);
  (* R1/A is mentioned only as a σ, Len and NR key *)
  let s1 = S.retire_site s 1 in
  check_rewritten "site 1 keys" s s1;
  Alcotest.(check bool) "σ key moved" true
    (S.Sigma.mem (Sym.summary 1, f_a) s1.sigma
    && not (S.Sigma.mem (a1, f_a) s1.sigma));
  Alcotest.(check bool) "len and nr keys moved" true
    (S.Rmap.mem (Sym.summary 1) s1.len && S.Rmap.mem (Sym.summary 1) s1.nr);
  (* R0/A is mentioned only inside values (refs and a null-or-same fact) *)
  let s0 = S.retire_site s 0 in
  check_rewritten "site 0 values" s s0;
  Alcotest.(check bool) "fact about R0/A dropped" true
    (S.Nos.is_empty (nos_of s0))

(* ---- properties -------------------------------------------------------- *)

let field_id : F.t QCheck2.Gen.t =
  QCheck2.Gen.(
    oneof
      [
        return F.Elems;
        map2
          (fun c f -> F.F (c, f))
          (oneofl [ ""; "A"; "AB"; "B" ])
          (oneofl [ ""; "x"; "xy"; "y" ]);
      ])

let sign n = compare n 0

let prop_refsym_compare_is_stdlib_order =
  QCheck2.Test.make ~name:"Refsym.compare agrees with Stdlib.compare"
    ~count:500 (QCheck2.Gen.pair Gen.refsym Gen.refsym) (fun (a, b) ->
      sign (Sym.compare a b) = sign (Stdlib.compare a b)
      && Bool.equal (Sym.equal a b) (Stdlib.compare a b = 0))

let prop_field_id_compare_is_stdlib_order =
  QCheck2.Test.make ~name:"Field_id.compare agrees with Stdlib.compare"
    ~count:500 (QCheck2.Gen.pair field_id field_id) (fun (a, b) ->
      sign (F.compare a b) = sign (Stdlib.compare a b)
      && Bool.equal (F.equal a b) (Stdlib.compare a b = 0))

(* random states with no ⊤-bounded null range (the one component a
   self-join may change) *)
let gen_state : S.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let msrc = oneofl [ mx; my ] in
  let eprov =
    map3
      (fun ep_src ep_idx ep_displaced -> { S.ep_src; ep_idx; ep_displaced })
      msrc Gen.lin_intval bool
  in
  let nos =
    map S.Nos.of_list (list_size (int_range 0 2) (pair Gen.refsym field_id))
  in
  let refinfo =
    map4
      (fun refs nos msrc eprov -> { S.refs; nos; msrc; eprov })
      Gen.refset nos (opt msrc) (opt eprov)
  in
  let aval =
    frequency
      [
        (1, return S.Bot);
        (1, return S.Clash);
        (3, map (fun i -> S.Int i) Gen.intval);
        (5, map (fun ri -> S.Ref ri) refinfo);
      ]
  in
  let rmap v =
    map
      (List.fold_left (fun m (r, x) -> S.Rmap.add r x m) S.Rmap.empty)
      (list_size (int_range 0 3) (pair Gen.refsym v))
  in
  let* rho = array_size (int_range 0 4) aval in
  let* stk = list_size (int_range 0 3) aval in
  let* nl = Gen.refset in
  let* sigma =
    map
      (List.fold_left (fun m (k, v) -> S.Sigma.add k v m) S.Sigma.empty)
      (list_size (int_range 0 5) (pair (pair Gen.refsym field_id) aval))
  in
  let* len = rmap Gen.intval in
  let* nr = rmap Gen.intrange in
  let* shift = opt (pair msrc Gen.lin_intval) in
  return { S.rho; stk; nl; sigma; len; nr; shift }

let prop_merge_self_shares =
  QCheck2.Test.make ~name:"merge s s == s without ⊤-bounded ranges"
    ~count:300 gen_state (fun s -> S.merge ~gen:(gen ()) s s == s)


let mk_state refs_list : S.t =
  let s = empty_state ~locals:(List.length refs_list) in
  List.fold_left
    (fun (i, s) refs -> (i + 1, S.set_local s i (S.ref_of refs)))
    (0, s) refs_list
  |> snd

let prop_merge_commutative_refs =
  QCheck2.Test.make ~name:"state merge commutes on ref locals" ~count:200
    (QCheck2.Gen.pair Gen.refset Gen.refset) (fun (r1, r2) ->
      let s1 = mk_state [ r1 ] and s2 = mk_state [ r2 ] in
      let m12 = S.merge ~gen:(gen ()) s1 s2 in
      let m21 = S.merge ~gen:(gen ()) s2 s1 in
      match S.local m12 0, S.local m21 0 with
      | S.Ref a, S.Ref b -> Sym.Set.equal a.refs b.refs
      | _ -> false)

let prop_merge_upper_bound =
  QCheck2.Test.make ~name:"merge over-approximates both inputs" ~count:200
    (QCheck2.Gen.pair Gen.refset Gen.refset) (fun (r1, r2) ->
      let s1 = mk_state [ r1 ] and s2 = mk_state [ r2 ] in
      let m = S.merge ~gen:(gen ()) s1 s2 in
      match S.local m 0 with
      | S.Ref a -> Sym.Set.subset r1 a.refs && Sym.Set.subset r2 a.refs
      | _ -> false)

let prop_escape_monotone =
  QCheck2.Test.make ~name:"all_non_tl only grows NL" ~count:200
    (QCheck2.Gen.pair Gen.refset Gen.refset) (fun (nl0, rs') ->
      let s = { (empty_state ~locals:1) with nl = nl0 } in
      let s' = S.all_non_tl s rs' in
      Sym.Set.subset nl0 s'.nl && Sym.Set.subset rs' s'.nl)

let unit_tests =
  [
    ("lookup global", test_lookup_global);
    ("lookup non-thread-local", test_lookup_non_tl_is_global);
    ("lookup recorded", test_lookup_recorded);
    ("escape transitive", test_escape_transitive);
    ("escape conditional", test_escape_cond_only_when_receiver_escaped);
    ("escape args", test_escape_args);
    ("retire substitutes", test_retire_substitutes_everywhere);
    ("retire merges sigma", test_retire_merges_sigma_entries);
    ("merge rho union", test_merge_rho_union);
    ("merge bot identity", test_merge_bot_identity);
    ("merge stack mismatch", test_merge_stack_mismatch_raises);
    ("merge sigma bottom", test_merge_sigma_missing_is_bottom);
    ("merge nos disjunction", test_merge_nos_survives_via_sigma_null);
    ("kill_nos", test_kill_nos);
  ]

let sharing_tests =
  [
    ("merge s s shares s", test_merge_self_is_identity);
    ("subsumed merge shares s1", test_merge_subsumed_is_identity);
    ("⊤-bounded nr still merged", test_merge_top_bounded_nr_still_merges);
    ("kill_nos shares no-ops", test_kill_nos_sharing);
    ("kill_must_src shares no-ops", test_kill_must_src_sharing);
    ("kill_all_eprov shares no-ops", test_kill_all_eprov_sharing);
    ("eprov_after_store shares no-ops", test_eprov_after_store_sharing);
    ("retire_site shares no-ops", test_retire_site_sharing);
  ]

let tests =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f) unit_tests
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_merge_commutative_refs; prop_merge_upper_bound; prop_escape_monotone ]
  @ List.map (fun (n, f) -> Alcotest.test_case n `Quick f) sharing_tests
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_merge_self_shares;
        prop_refsym_compare_is_stdlib_order;
        prop_field_id_compare_is_stdlib_order;
      ]
