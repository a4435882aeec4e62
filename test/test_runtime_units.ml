(* Unit tests for the runtime substrate pieces that the bigger GC and
   interpreter tests exercise only indirectly: heap bookkeeping, the
   reachability oracle, and the barrier cost model. *)

(* ---- Heap -------------------------------------------------------------- *)

let test_heap_alloc_and_zeroing () =
  let h = Jrt.Heap.create () in
  let o = Jrt.Heap.alloc_object h "C" ~n_fields:3 in
  (match o.payload with
  | Jrt.Heap.Fields fs ->
      Alcotest.(check int) "field count" 3 (Array.length fs);
      Array.iter
        (fun v -> Alcotest.(check bool) "null" true (v = Jrt.Value.Null))
        fs
  | _ -> Alcotest.fail "expected object");
  let a = Jrt.Heap.alloc_ref_array h "C" ~len:4 in
  (match a.payload with
  | Jrt.Heap.Ref_array es ->
      Array.iter
        (fun v -> Alcotest.(check bool) "null elem" true (v = Jrt.Value.Null))
        es
  | _ -> Alcotest.fail "expected ref array");
  let ia = Jrt.Heap.alloc_int_array h ~len:2 in
  (match ia.payload with
  | Jrt.Heap.Int_array es ->
      Alcotest.(check (array int)) "zeroed" [| 0; 0 |] es
  | _ -> Alcotest.fail "expected int array");
  Alcotest.(check int) "ids sequential" 2 ia.id;
  Alcotest.(check int) "live count" 3 h.live_count;
  Alcotest.(check int) "total allocated" 3 h.total_allocated

let test_heap_growth () =
  let h = Jrt.Heap.create () in
  for _ = 1 to 3000 do
    ignore (Jrt.Heap.alloc_object h "C" ~n_fields:1)
  done;
  Alcotest.(check int) "3000 live" 3000 h.live_count;
  Alcotest.(check string) "retrievable past initial capacity" "C"
    (Jrt.Heap.get h 2999).cls

let test_heap_free_and_marks () =
  let h = Jrt.Heap.create () in
  let a = Jrt.Heap.alloc_object h "C" ~n_fields:0 in
  let b = Jrt.Heap.alloc_object h "C" ~n_fields:0 in
  a.marked <- true;
  Jrt.Heap.free h b;
  Alcotest.(check int) "one live" 1 h.live_count;
  Alcotest.(check bool) "b dead" true b.dead;
  let seen = ref 0 in
  Jrt.Heap.iter_live h (fun _ -> incr seen);
  Alcotest.(check int) "iter_live skips dead" 1 !seen;
  Jrt.Heap.clear_marks h;
  Alcotest.(check bool) "marks cleared" false a.marked;
  (* double free is idempotent *)
  Jrt.Heap.free h b;
  Alcotest.(check int) "still one live" 1 h.live_count

let test_out_edges () =
  let h = Jrt.Heap.create () in
  let a = Jrt.Heap.alloc_object h "C" ~n_fields:2 in
  let b = Jrt.Heap.alloc_object h "C" ~n_fields:0 in
  (match a.payload with
  | Jrt.Heap.Fields fs ->
      fs.(0) <- Jrt.Value.Ref b.id;
      fs.(1) <- Jrt.Value.Int 7
  | _ -> assert false);
  Alcotest.(check (list int)) "edges" [ b.id ] (Jrt.Heap.out_edges a);
  Alcotest.(check (list int)) "int arrays edgeless" []
    (Jrt.Heap.out_edges (Jrt.Heap.alloc_int_array h ~len:3))

(* ---- Oracle ------------------------------------------------------------ *)

let test_oracle_reachability () =
  let h = Jrt.Heap.create () in
  let mk () = Jrt.Heap.alloc_object h "C" ~n_fields:1 in
  let a = mk () and b = mk () and c = mk () and d = mk () in
  let link x y =
    match x.Jrt.Heap.payload with
    | Jrt.Heap.Fields fs -> fs.(0) <- Jrt.Value.Ref y.Jrt.Heap.id
    | _ -> assert false
  in
  link a b;
  link b c;
  (* d unlinked; cycle c -> a *)
  link c a;
  let set = Jrt.Oracle.reachable h [ a.id ] in
  Alcotest.(check int) "a,b,c reachable" 3 (Jrt.Oracle.Iset.cardinal set);
  Alcotest.(check bool) "d not reachable" false
    (Jrt.Oracle.Iset.mem d.id set);
  Alcotest.(check int) "empty roots" 0
    (Jrt.Oracle.Iset.cardinal (Jrt.Oracle.reachable h []))

(* ---- Oracle traversal against a reference BFS ------------------------- *)

(* The reference: the naive list-and-set BFS the oracle once was. *)
module IS = Set.Make (Int)

let ref_edges h id =
  match (Jrt.Heap.get h id).Jrt.Heap.payload with
  | Jrt.Heap.Fields vs | Jrt.Heap.Ref_array vs ->
      Array.to_list vs
      |> List.filter_map (function Jrt.Value.Ref t -> Some t | _ -> None)
  | Jrt.Heap.Int_array _ -> []

let ref_reachable h roots =
  let rec go seen = function
    | [] -> seen
    | id :: todo ->
        if IS.mem id seen then go seen todo
        else go (IS.add id seen) (ref_edges h id @ todo)
  in
  go IS.empty roots

let ref_unmarked h set =
  IS.fold
    (fun id n ->
      let o = Jrt.Heap.get h id in
      if o.dead || not o.marked then n + 1 else n)
    set 0

type slot = S_null | S_int of int | S_ref of int

(* kind 0: object, 1: ref array, 2: int array (its slots give the length) *)
type obj_spec = { kind : int; slots : slot list; dead : bool; marked : bool }

(* Random heaps: references anywhere (so cycles and self-edges), some
   dead objects, int and ref arrays; two root lists, with duplicates and
   possibly empty. *)
let gen_heap =
  let open QCheck2.Gen in
  let* n = int_range 0 24 in
  let slot =
    if n = 0 then oneof [ return S_null; map (fun i -> S_int i) small_nat ]
    else
      frequency
        [
          (2, return S_null);
          (1, map (fun i -> S_int i) small_nat);
          (5, map (fun i -> S_ref i) (int_bound (n - 1)));
        ]
  in
  let obj =
    let+ kind = int_bound 2
    and+ slots = list_size (int_bound 5) slot
    and+ dead = frequencyl [ (1, true); (4, false) ]
    and+ marked = bool in
    { kind; slots; dead; marked }
  in
  let roots =
    if n = 0 then return [] else list_size (int_bound 6) (int_bound (n - 1))
  in
  let+ objs = list_repeat n obj and+ roots = roots and+ roots2 = roots in
  (objs, roots, roots2)

let build_heap specs =
  let h = Jrt.Heap.create () in
  List.iter
    (fun s ->
      let len = List.length s.slots in
      let o =
        match s.kind with
        | 0 -> Jrt.Heap.alloc_object h "C" ~n_fields:len
        | 1 -> Jrt.Heap.alloc_ref_array h "C" ~len
        | _ -> Jrt.Heap.alloc_int_array h ~len
      in
      (match o.payload with
      | Jrt.Heap.Fields vs | Jrt.Heap.Ref_array vs ->
          List.iteri
            (fun i -> function
              | S_null -> ()
              | S_int k -> vs.(i) <- Jrt.Value.Int k
              | S_ref t -> vs.(i) <- Jrt.Value.Ref t)
            s.slots
      | Jrt.Heap.Int_array es -> List.iteri (fun i _ -> es.(i) <- i) s.slots);
      o.marked <- s.marked;
      if s.dead then Jrt.Heap.free h o)
    specs;
  h

let prop_oracle_matches_reference =
  QCheck2.Test.make ~name:"oracle traversal matches reference BFS" ~count:300
    gen_heap (fun (specs, roots, roots2) ->
      let h = build_heap specs in
      let expect = ref_reachable h roots in
      let visited = ref [] in
      Jrt.Oracle.iter_reachable h roots (fun o -> visited := o.id :: !visited);
      let reached_ok =
        List.for_all
          (fun id ->
            Jrt.Oracle.reached h (Jrt.Heap.get h id) = IS.mem id expect)
          (List.init h.next_id Fun.id)
      in
      let snap = Jrt.Oracle.snapshot () in
      Jrt.Oracle.capture snap h roots;
      (* a traversal between capture and check leaves the snapshot intact *)
      let end_v = Jrt.Oracle.end_violations h roots2 in
      List.sort compare !visited = IS.elements expect
      && reached_ok
      && Jrt.Oracle.Iset.elements (Jrt.Oracle.reachable h roots)
         = IS.elements expect
      && Jrt.Oracle.snapshot_size snap = IS.cardinal expect
      && Jrt.Oracle.snapshot_violations h snap = ref_unmarked h expect
      && end_v = ref_unmarked h (ref_reachable h roots2))

(* Stamps are per heap, and an object allocated after a traversal (or
   past the heap's and the oracle buffers' initial capacity) is unstamped
   until a traversal reaches it. *)
let test_oracle_epochs () =
  let link x y =
    match x.Jrt.Heap.payload with
    | Jrt.Heap.Fields fs -> fs.(0) <- Jrt.Value.Ref y.Jrt.Heap.id
    | _ -> assert false
  in
  let chain h n =
    let objs = List.init n (fun _ -> Jrt.Heap.alloc_object h "C" ~n_fields:1) in
    let rec go = function
      | x :: (y :: _ as rest) ->
          link x y;
          go rest
      | [ _ ] | [] -> ()
    in
    go objs;
    objs
  in
  let count h roots =
    let n = ref 0 in
    Jrt.Oracle.iter_reachable h roots (fun _ -> incr n);
    !n
  in
  let h1 = Jrt.Heap.create () and h2 = Jrt.Heap.create () in
  let c1 = chain h1 3 and c2 = chain h2 2 in
  let a = List.hd c1 and c = List.nth c1 2 in
  let snap = Jrt.Oracle.snapshot () in
  Jrt.Oracle.capture snap h1 [ a.id ];
  Alcotest.(check int) "h1 chain" 3 (count h1 [ a.id ]);
  Alcotest.(check int) "h2 chain" 2 (count h2 [ (List.hd c2).id ]);
  Alcotest.(check bool) "h1 stamps survive a traversal of h2" true
    (List.for_all (Jrt.Oracle.reached h1) c1);
  let d = Jrt.Heap.alloc_object h1 "C" ~n_fields:1 in
  Alcotest.(check bool) "new object unstamped" false (Jrt.Oracle.reached h1 d);
  link c d;
  Alcotest.(check int) "grown heap" 4 (count h1 [ a.id ]);
  Alcotest.(check bool) "new object reached" true (Jrt.Oracle.reached h1 d);
  Alcotest.(check int) "smaller root set" 2 (count h1 [ c.id; c.id ]);
  Alcotest.(check bool) "older stamp no longer counts" false
    (Jrt.Oracle.reached h1 a);
  Alcotest.(check int) "empty roots" 0 (count h1 []);
  Alcotest.(check bool) "nothing reached" false (Jrt.Oracle.reached h1 c);
  let tail = chain h1 3000 in
  link d (List.hd tail);
  Alcotest.(check int) "past initial capacities" 3004 (count h1 [ a.id ]);
  Alcotest.(check int) "snapshot kept its capture" 3
    (Jrt.Oracle.snapshot_size snap)

(* ---- Barrier cost model ------------------------------------------------ *)

let test_satb_costs_match_paper_band () =
  let open Jrt.Barrier_cost in
  (* paper §1: 9-12 RISC instructions when marking is in progress *)
  let active_prenull =
    satb_cost ~mode:Conditional ~marking:true ~pre_null:true
  in
  let active_log =
    satb_cost ~mode:Conditional ~marking:true ~pre_null:false
  in
  Alcotest.(check bool) "active barrier in the 7..12 band" true
    (active_prenull >= 7 && active_log <= 12 && active_log > active_prenull);
  (* idle barrier is just the check *)
  Alcotest.(check int) "idle = flag check" check_marking
    (satb_cost ~mode:Conditional ~marking:false ~pre_null:true);
  (* no-barrier mode is free *)
  Alcotest.(check int) "no-barrier" 0
    (satb_cost ~mode:No_barrier ~marking:true ~pre_null:false);
  (* always-log skips the check *)
  Alcotest.(check int) "always-log saves the check" (active_log - check_marking)
    (satb_cost ~mode:Always_log ~marking:true ~pre_null:false);
  Alcotest.(check bool) "card mark far cheaper" true
    (card_mark_cost < active_prenull)

(* ---- Builder ----------------------------------------------------------- *)

let test_builder_errors () =
  Alcotest.check_raises "locals < params"
    (Jir.Builder.Build_error "method m: 0 locals < 1 params") (fun () ->
      ignore
        (Jir.Builder.create ~name:"m" ~params:[ Jir.Types.I ] ~locals:0 ()));
  let b = Jir.Builder.create ~name:"m" ~params:[] ~locals:0 () in
  Jir.Builder.label b "x";
  Alcotest.check_raises "duplicate label"
    (Jir.Builder.Build_error "method m: duplicate label x") (fun () ->
      Jir.Builder.label b "x");
  Jir.Builder.emit b (Jir.Types.Goto "nowhere");
  Alcotest.check_raises "unresolved label"
    (Jir.Builder.Build_error "method m: undefined label nowhere") (fun () ->
      ignore (Jir.Builder.finish b))

let test_builder_label_resolution () =
  let m =
    Jir.Builder.meth "m" ~params:[] ~locals:1 (fun b ->
        Jir.Builder.emit b (Jir.Types.Goto "end");
        Jir.Builder.label b "end";
        Jir.Builder.emit b Jir.Types.Return)
  in
  Alcotest.(check bool) "goto resolved to pc 1" true
    (m.code.(0) = Jir.Types.Goto 1);
  Alcotest.(check (list (pair int string))) "label recorded" [ (1, "end") ]
    m.labels

let tests =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("heap alloc + zeroing", test_heap_alloc_and_zeroing);
      ("heap growth", test_heap_growth);
      ("heap free + marks", test_heap_free_and_marks);
      ("out edges", test_out_edges);
      ("oracle reachability", test_oracle_reachability);
      ("oracle epochs across heaps and growth", test_oracle_epochs);
      ("barrier costs in paper band", test_satb_costs_match_paper_band);
      ("builder errors", test_builder_errors);
      ("builder label resolution", test_builder_label_resolution);
    ]
  @ [ QCheck_alcotest.to_alcotest prop_oracle_matches_reference ]
