(** Abstract program states for the barrier-removal analyses.

    A state is the paper's tuple ⟨ρ, σ, NL, stk⟩ (§2.1) extended with the
    array-analysis components Len and NR (§3.2) and, for the null-or-same
    extension (§4.3), per-value "null-or-same-as (r, f)" facts.

    - ρ ([rho]) maps local variables to abstract values;
    - [stk] is the abstract operand stack;
    - NL ([nl]) is the set of reference symbols that may be reachable by
      other threads (non-thread-local);
    - σ ([sigma]) maps (reference symbol, field id) to the abstract value
      the field may contain; a reference field mapped to the empty set of
      symbols is {e definitely null};
    - [len] maps array symbols to their symbolic length;
    - [nr] maps object-array symbols to the subrange of indices known to
      hold null. *)

module Rset = Refsym.Set

module Sigma = Map.Make (struct
  type t = Refsym.t * Field_id.t

  let compare (r1, f1) (r2, f2) =
    match Refsym.compare r1 r2 with
    | 0 -> Field_id.compare f1 f2
    | c -> c
end)

module Rmap = Map.Make (Refsym)

(** Null-or-same facts: [(r, f)] ∈ [nos v] means that in every concrete
    state, either [v] equals the current content of field [f] of the object
    named [r], or that content is null.  Either disjunct makes an SATB
    barrier for [r.f ← v] unnecessary (§4.3).  Facts are killed eagerly
    (from every abstract value in the state) whenever the location may be
    written, so a surviving fact always refers to the current content. *)
module Nos = Set.Make (struct
  type t = Refsym.t * Field_id.t

  let compare (r1, f1) (r2, f2) =
    match Refsym.compare r1 r2 with
    | 0 -> Field_id.compare f1 f2
    | c -> c
end)

(** Must-alias value sources, for the §4.3 array-rearrangement extension:
    two values carrying the same source are {e the same concrete
    reference}.  Currently only static fields are tracked (enough for the
    delete-by-shift idiom over a program-global array); the type is a
    variant so finer sources can be added. *)
type must_src = Mstatic of Jir.Types.class_name * Jir.Types.field_name

let equal_must_src (Mstatic (c1, f1)) (Mstatic (c2, f2)) =
  String.equal c1 c2 && String.equal f1 f2

let pp_must_src ppf (Mstatic (c, f)) = Fmt.pf ppf "%s.%s" c f

(** Element provenance, for the §4.3 rearrangement (move-down and swap)
    extensions: the value was loaded from the array identified by
    [ep_src] at index [ep_idx].  While [ep_displaced] is false, no store
    to that array may have touched the slot since, so the value still
    {e is} the current content of [ep_src\[ep_idx\]].  A {e displaced}
    provenance (swap analysis) instead means the slot was just
    overwritten by the first store of a pending swap: the value is no
    longer in the array, but is known to be the unique element displaced
    from [ep_idx]. *)
type eprov = { ep_src : must_src; ep_idx : Intval.t; ep_displaced : bool }

type refinfo = {
  refs : Rset.t;
  nos : Nos.t;
  msrc : must_src option;
      (** this value equals the current content of the source *)
  eprov : eprov option;
}

(** Abstract values: the ⊥ of the RefVal lattice, integer values, or sets
    of reference symbols.  [Clash] covers local-variable slots holding
    different kinds on different paths; the verifier guarantees they are
    never read. *)
type aval = Bot | Clash | Int of Intval.t | Ref of refinfo

type t = {
  rho : aval array;
  stk : aval list;
  nl : Rset.t;
  sigma : aval Sigma.t;
  len : Intval.t Rmap.t;
  nr : Intrange.t Rmap.t;
  shift : (must_src * Intval.t) option;
      (** active move-down chain (§4.3): every slot of the array
          identified by the source at index ≤ the given one currently
          holds null or a value also stored at a lower index *)
}

let mk_refinfo ?msrc ?eprov ?(nos = Nos.empty) refs =
  { refs; nos; msrc; eprov }

let ref_of refs = Ref (mk_refinfo refs)
let null_v = ref_of Rset.empty
let global_v = ref_of (Rset.singleton Refsym.Global)

let pp_aval ppf = function
  | Bot -> Fmt.string ppf "⊥"
  | Clash -> Fmt.string ppf "clash"
  | Int i -> Intval.pp ppf i
  | Ref { refs; _ } ->
      if Rset.is_empty refs then Fmt.string ppf "null" else Rset.pp ppf refs

let pp ppf (s : t) =
  Fmt.pf ppf "@[<v>rho: %a@,stk: %a@,NL: %a@,sigma: %a@,len: %a@,nr: %a@]"
    Fmt.(array ~sep:sp pp_aval)
    s.rho
    Fmt.(list ~sep:sp pp_aval)
    s.stk Rset.pp s.nl
    Fmt.(
      list ~sep:sp (fun ppf ((r, f), v) ->
          pf ppf "%a.%a=%a" Refsym.pp r Field_id.pp f pp_aval v))
    (Sigma.bindings s.sigma)
    Fmt.(
      list ~sep:sp (fun ppf (r, v) ->
          pf ppf "len(%a)=%a" Refsym.pp r Intval.pp v))
    (Rmap.bindings s.len)
    Fmt.(
      list ~sep:sp (fun ppf (r, v) ->
          pf ppf "nr(%a)=%a" Refsym.pp r Intrange.pp v))
    (Rmap.bindings s.nr)

(* ---- equality --------------------------------------------------------- *)

let equal_opt eq a b =
  match a, b with
  | None, None -> true
  | Some x, Some y -> eq x y
  | None, Some _ | Some _, None -> false

let equal_shift (m1, i1) (m2, i2) =
  equal_must_src m1 m2 && Intval.equal i1 i2

let equal_eprov a b =
  equal_must_src a.ep_src b.ep_src
  && Intval.equal a.ep_idx b.ep_idx
  && Bool.equal a.ep_displaced b.ep_displaced

let equal_refinfo a b =
  Rset.equal a.refs b.refs
  && Nos.equal a.nos b.nos
  && equal_opt equal_must_src a.msrc b.msrc
  && equal_opt equal_eprov a.eprov b.eprov

let equal_aval a b =
  a == b
  ||
  match a, b with
  | Bot, Bot | Clash, Clash -> true
  | Int x, Int y -> Intval.equal x y
  | Ref x, Ref y -> equal_refinfo x y
  | (Bot | Clash | Int _ | Ref _), _ -> false

(* components shared by both states need no walk *)
let same eq a b = a == b || eq a b

let equal (a : t) (b : t) =
  a == b
  || same
       (fun r1 r2 ->
         Array.length r1 = Array.length r2 && Array.for_all2 equal_aval r1 r2)
       a.rho b.rho
     && same
          (fun l1 l2 ->
            List.length l1 = List.length l2 && List.for_all2 equal_aval l1 l2)
          a.stk b.stk
     && same Rset.equal a.nl b.nl
     && same (Sigma.equal equal_aval) a.sigma b.sigma
     && same (Rmap.equal Intval.equal) a.len b.len
     && same (Rmap.equal Intrange.equal) a.nr b.nr
     && equal_opt equal_shift a.shift b.shift

(* ---- sharing maps ----------------------------------------------------- *)

(* Maps that hand back their input physically when [f] changes nothing
   (returns its argument), so a rewrite or join that adds no information
   allocates nothing.  Elements are visited left to right, as by
   [Array.map2] and [List.map2]. *)

let map2_array f a1 a2 =
  let n = Array.length a1 in
  let rec scan i =
    if i = n then a1
    else
      let y = f a1.(i) a2.(i) in
      if y == a1.(i) then scan (i + 1)
      else begin
        let b = Array.copy a1 in
        b.(i) <- y;
        for j = i + 1 to n - 1 do
          b.(j) <- f a1.(j) a2.(j)
        done;
        b
      end
  in
  scan 0

let rec map2_list f l1 l2 =
  match l1, l2 with
  | [], [] -> l1
  | x :: t1, y :: t2 ->
      let z = f x y in
      let t = map2_list f t1 t2 in
      if z == x && t == t1 then l1 else z :: t
  | [], _ :: _ | _ :: _, [] -> invalid_arg "State.map2_list"

let map_array f a = map2_array (fun x _ -> f x) a a
let map_list f l = map2_list (fun x _ -> f x) l l

let map_sigma f m =
  Sigma.fold
    (fun k v acc ->
      let v' = f v in
      if v' == v then acc else Sigma.add k v' acc)
    m m

(** [map_values f s] applies [f] to every abstract value of the state: ρ,
    stk and the range of σ.  [f] returns its argument when it changes
    nothing; the components it leaves alone come back physically
    unchanged, and so does [s] when it changes nothing at all. *)
let map_values (f : aval -> aval) (s : t) : t =
  let rho = map_array f s.rho in
  let stk = map_list f s.stk in
  let sigma = map_sigma f s.sigma in
  if rho == s.rho && stk == s.stk && sigma == s.sigma then s
  else { s with rho; stk; sigma }

(** Join of two maps that returns [m1] itself when the join adds nothing.
    Keys only in [m1] stay, keys only in [m2] are added, and common keys
    are joined by [f k a b] — which returns [a] itself when the join
    leaves it unchanged — unless [skip a b].  [f] is called in descending
    key order, the order in which [M.merge] calls its function: value
    joins share one stride-discovery context, so the order is part of the
    result. *)
module Join (M : Map.S) = struct
  let join ~skip f m1 m2 =
    let m = ref m1 and common = ref [] in
    M.iter
      (fun k b ->
        match M.find k m1 with
        | a -> if not (skip a b) then common := (k, a, b) :: !common
        | exception Not_found -> m := M.add k b !m)
      m2;
    List.fold_left
      (fun m (k, a, b) ->
        let v = f k a b in
        if v == a then m else M.add k v m)
      !m !common
end

module Sigma_join = Join (Sigma)
module Rmap_join = Join (Rmap)

(* ---- lookups ---------------------------------------------------------- *)

(** The paper's lookup(σ, r, NL, f): {GlobalRef} for non-thread-local
    references, the recorded abstract value otherwise.  An absent entry
    means the location was never populated on any path reaching here; for
    reference fields we conservatively answer {GlobalRef}. *)
let lookup_field (s : t) (r : Refsym.t) (f : Field_id.t) : aval =
  if Rset.mem r s.nl || Refsym.equal r Refsym.Global then global_v
  else
    match Sigma.find_opt (r, f) s.sigma with
    | Some v -> v
    | None -> global_v

(** Union of reference-field lookups over a receiver set.  Integer fields
    use {!lookup_int_field}. *)
let lookup_ref_field (s : t) (objs : Rset.t) (f : Field_id.t) : refinfo =
  Rset.fold
    (fun r acc ->
      match lookup_field s r f with
      | Ref ri -> { acc with refs = Rset.union acc.refs ri.refs }
      | Bot -> acc
      | Clash | Int _ -> { acc with refs = Rset.add Refsym.Global acc.refs })
    objs (mk_refinfo Rset.empty)

let lookup_int_field (s : t) (objs : Rset.t) (f : Field_id.t) : Intval.t =
  if Rset.is_empty objs then Intval.top
  else
    Rset.fold
      (fun r acc ->
        let v =
          match lookup_field s r f with Int i -> i | Bot | Clash | Ref _ -> Intval.top
        in
        match acc with
        | None -> Some v
        | Some a -> Some (Intval.merge_flat a v))
      objs None
    |> Option.value ~default:Intval.top

(** Array length: sound even for escaped arrays, since lengths are
    immutable. *)
let lookup_len (s : t) (objs : Rset.t) : Intval.t =
  if Rset.is_empty objs then Intval.top
  else
    Rset.fold
      (fun r acc ->
        let v =
          match Rmap.find_opt r s.len with Some l -> l | None -> Intval.top
        in
        match acc with
        | None -> Some v
        | Some a -> Some (Intval.merge_flat a v))
      objs None
    |> Option.value ~default:Intval.top

(** Null range of an array; [Empty] once it may be visible to another
    thread (its elements could be overwritten behind our back). *)
let lookup_nr (s : t) (r : Refsym.t) : Intrange.t =
  if Rset.mem r s.nl then Intrange.Empty
  else
    match Rmap.find_opt r s.nr with Some nr -> nr | None -> Intrange.Empty

(* ---- escape (non-thread-locality) ------------------------------------- *)

(** The paper's AllNonTL(NL, RS, σ): extend NL with [rs] and everything
    transitively reachable from [rs] via σ. *)
let all_non_tl (s : t) (rs : Rset.t) : t =
  let rec close nl frontier =
    match Rset.choose_opt frontier with
    | None -> nl
    | Some r ->
        let frontier = Rset.remove r frontier in
        if Rset.mem r nl then close nl frontier
        else
          let nl = Rset.add r nl in
          let reachable =
            Sigma.fold
              (fun (r', _) v acc ->
                if Refsym.equal r' r then
                  match v with
                  | Ref { refs; _ } -> Rset.union refs acc
                  | Bot | Clash | Int _ -> acc
                else acc)
              s.sigma Rset.empty
          in
          close nl (Rset.union frontier (Rset.diff reachable nl))
  in
  { s with nl = close s.nl rs }

(** Every symbol reachable from [rs] through explicit σ entries, [rs]
    included — the universe of objects a callee can reach from an
    argument.  The same walk as {!all_non_tl}, but nothing is marked
    non-thread-local.  Sound because a thread-local symbol's absent σ
    entries denote never-stored (hence initial, null) locations, and
    entries of non-thread-local members only over-approximate. *)
let reach_closure (s : t) (rs : Rset.t) : Rset.t =
  let rec close seen frontier =
    match Rset.choose_opt frontier with
    | None -> seen
    | Some r ->
        let frontier = Rset.remove r frontier in
        if Rset.mem r seen then close seen frontier
        else
          let seen = Rset.add r seen in
          let reachable =
            Sigma.fold
              (fun (r', _) v acc ->
                if Refsym.equal r' r then
                  match v with
                  | Ref { refs; _ } -> Rset.union refs acc
                  | Bot | Clash | Int _ -> acc
                else acc)
              s.sigma Rset.empty
          in
          close seen (Rset.union frontier (Rset.diff reachable seen))
  in
  close Rset.empty rs

(** AllNonTLCond(NL, RS, val, σ): if any possible receiver is already
    non-thread-local, the stored value (and everything reachable from it)
    escapes. *)
let all_non_tl_cond (s : t) ~(objs : Rset.t) ~(value : aval) : t =
  if Rset.is_empty (Rset.inter objs s.nl) then s
  else
    match value with
    | Ref { refs; _ } -> all_non_tl s refs
    | Bot | Clash | Int _ -> s

(** nAllNonTL over the reference arguments of a call. *)
let escape_args (s : t) (args : aval list) : t =
  let refs =
    List.fold_left
      (fun acc v ->
        match v with
        | Ref { refs; _ } -> Rset.union refs acc
        | Bot | Clash | Int _ -> acc)
      Rset.empty args
  in
  all_non_tl s refs

(* ---- allocation-site symbol recycling (§2.4 newinstance) -------------- *)

let mentions_sym (a : Refsym.t) = function
  | Ref ri ->
      Rset.mem a ri.refs || Nos.exists (fun (r, _) -> Refsym.equal r a) ri.nos
  | Bot | Clash | Int _ -> false

(** Substitute [R_site/A → R_site/B] throughout the state: ρ, stk, NL, the
    domain and range of σ, Len, NR and versions — the paper's rngSubst,
    transfer and replS.  Null-or-same facts naming the site are dropped
    (the name is about to denote a different object).  A state that never
    mentions [R_site/A] is returned as it is. *)
let retire_site (s : t) (site : int) : t =
  let a_sym = Refsym.recent site in
  let b_sym = Refsym.summary site in
  let mentions = mentions_sym a_sym in
  if
    not
      (Rset.mem a_sym s.nl || Rmap.mem a_sym s.len || Rmap.mem a_sym s.nr
      || Array.exists mentions s.rho
      || List.exists mentions s.stk
      || Sigma.exists
           (fun (r, _) v -> Refsym.equal r a_sym || mentions v)
           s.sigma)
  then s
  else
    let subst_set rs =
      if Rset.mem a_sym rs then Rset.add b_sym (Rset.remove a_sym rs) else rs
    in
    let subst_aval = function
      | Ref ri as v ->
          let refs = subst_set ri.refs in
          let nos =
            Nos.filter (fun (r, _) -> not (Refsym.equal r a_sym)) ri.nos
          in
          if refs == ri.refs && nos == ri.nos then v
          else Ref { ri with refs; nos }
      | (Bot | Clash | Int _) as v -> v
    in
    let s = map_values subst_aval s in
    (* fold each (R_site/A, f) entry into (R_site/B, f) *)
    let sigma =
      Sigma.fold
        (fun ((r, f) as key) v acc ->
          if not (Refsym.equal r a_sym) then acc
          else
            let acc = Sigma.remove key acc in
            let merged =
              match Sigma.find_opt (b_sym, f) acc with
              | None -> v
              | Some old -> (
                  match old, v with
                  | Ref a, Ref b ->
                      Ref
                        (mk_refinfo
                           ~nos:(Nos.inter a.nos b.nos)
                           (Rset.union a.refs b.refs))
                  | Int a, Int b -> Int (Intval.merge_flat a b)
                  | Bot, x | x, Bot -> x
                  | _ -> Clash)
            in
            Sigma.add (b_sym, f) merged acc)
        s.sigma s.sigma
    in
    let remap_rmap merge m =
      match Rmap.find_opt a_sym m with
      | None -> m
      | Some v ->
          let m = Rmap.remove a_sym m in
          Rmap.add b_sym
            (match Rmap.find_opt b_sym m with
            | None -> v
            | Some old -> merge old v)
            m
    in
    {
      s with
      nl = subst_set s.nl;
      sigma;
      len = remap_rmap Intval.merge_flat s.len;
      nr = remap_rmap Intrange.merge_flat s.nr;
    }

(* ---- merging (§2.2, §3.5) --------------------------------------------- *)

(** Merge null-or-same facts: a fact survives when on {e each} side either
    it was recorded for the value, or the side's σ shows the location
    definitely null — the "or the field is null" disjunct of §4.3.
    Returns [r1.nos] itself when every fact of both sides is already in
    it and survives. *)
let merge_nos (s1 : t) (s2 : t) (r1 : refinfo) (r2 : refinfo) : Nos.t =
  let candidates =
    if Nos.subset r2.nos r1.nos then r1.nos else Nos.union r1.nos r2.nos
  in
  let side_ok (s : t) (ri : refinfo) ((r, f) : Refsym.t * Field_id.t) =
    Nos.mem (r, f) ri.nos
    || ((not (Rset.mem r s.nl))
       &&
       match Sigma.find_opt (r, f) s.sigma with
       | Some (Ref { refs; _ }) -> Rset.is_empty refs
       | Some (Bot | Clash | Int _) | None -> false)
  in
  Nos.filter (fun c -> side_ok s1 r1 c && side_ok s2 r2 c) candidates

(** Merge must-sources: survives only when identical on both sides. *)
let merge_msrc a b =
  match a, b with
  | Some x, Some y when equal_must_src x y -> a
  | Some _, Some _ | None, _ | _, None -> None

(** Merge element provenances: same array source and same displacement
    status, indices merged as integer state components (they stride with
    loop counters). *)
let merge_eprov ctx a b =
  match a, b with
  | Some e1, Some e2
    when equal_must_src e1.ep_src e2.ep_src
         && Bool.equal e1.ep_displaced e2.ep_displaced -> (
      match Intval.merge ctx e1.ep_idx e2.ep_idx with
      | Intval.Top -> None
      | i -> if i == e1.ep_idx then a else Some { e1 with ep_idx = i })
  | Some _, Some _ | None, _ | _, None -> None

(** Equal values merge to the left one without touching the context:
    value merge is idempotent, and an element provenance never carries a
    ⊤ index (⊤ indices are dropped where provenances are made and
    merged), so no component of an equal pair can change. *)
let merge_aval (ctx : Intval.Ctx.ctx) (s1 : t) (s2 : t) (a : aval) (b : aval)
    : aval =
  if equal_aval a b then a
  else
    match a, b with
    | Bot, x | x, Bot -> x
    | Int x, Int y ->
        let z = Intval.merge ctx x y in
        if z == x then a else Int z
    | Ref x, Ref y ->
        let eprov = merge_eprov ctx x.eprov y.eprov in
        let msrc = merge_msrc x.msrc y.msrc in
        let nos = merge_nos s1 s2 x y in
        let refs =
          if Rset.subset y.refs x.refs then x.refs
          else Rset.union x.refs y.refs
        in
        if refs == x.refs && nos == x.nos && msrc == x.msrc && eprov == x.eprov
        then a
        else Ref { refs; nos; msrc; eprov }
    | Clash, _ | _, Clash -> Clash
    | Int _, Ref _ | Ref _, Int _ -> Clash

(* A ⊤ bound makes even a range merged with itself drop to [Empty]:
   [Intrange.merge] keeps only bounds that merge below ⊤. *)
let top_bounded : Intrange.t -> bool = function
  | Empty -> false
  | Full (lo, hi) -> Intval.is_top lo || Intval.is_top hi
  | From b | Up_to b -> Intval.is_top b

(** Merge two whole states through one shared merge context, so that all
    integer state components (ρ, stk, and NR bounds — §3.5) discover common
    strides.  Components are merged in a fixed order (σ, Len, NR, shift,
    stk, ρ), since the context's discoveries depend on it.  Each component
    the join leaves unchanged is [s1]'s own, and [s1] itself is returned
    when all are.  Raises [Invalid_argument] on operand-stack disagreement,
    which the verifier rules out. *)
let merge ?(widen = false) ~(gen : Intval.Gen.t) (s1 : t) (s2 : t) : t =
  let ctx = Intval.Ctx.create ~widen gen in
  let mav = merge_aval ctx s1 s2 in
  if List.length s1.stk <> List.length s2.stk then
    invalid_arg "State.merge: operand stack mismatch";
  let sigma =
    Sigma_join.join ~skip:( == ) (fun _ a b -> mav a b) s1.sigma s2.sigma
  in
  let len =
    Rmap_join.join ~skip:( == )
      (fun _ a b -> Intval.merge ctx a b)
      s1.len s2.len
  in
  let nr =
    Rmap_join.join
      ~skip:(fun a b -> a == b && not (top_bounded a))
      (fun r a b ->
        let len_of (s : t) =
          match Rmap.find_opt r s.len with Some l -> l | None -> Intval.top
        in
        let m = Intrange.merge ctx ~len1:(len_of s1) ~len2:(len_of s2) a b in
        if Intrange.equal m a then a else m)
      s1.nr s2.nr
  in
  let shift =
    match s1.shift, s2.shift with
    | Some (m1, i1), Some (m2, i2) when equal_must_src m1 m2 -> (
        match Intval.merge ctx i1 i2 with
        | Intval.Top -> None
        | i -> if i == i1 then s1.shift else Some (m1, i))
    | Some _, Some _ | None, _ | _, None -> None
  in
  let stk = map2_list mav s1.stk s2.stk in
  let rho = map2_array mav s1.rho s2.rho in
  let nl = if Rset.subset s2.nl s1.nl then s1.nl else Rset.union s1.nl s2.nl in
  if
    rho == s1.rho && stk == s1.stk && nl == s1.nl && sigma == s1.sigma
    && len == s1.len && nr == s1.nr && shift == s1.shift
  then s1
  else { rho; stk; nl; sigma; len; nr; shift }

(* ---- null-or-same fact invalidation ----------------------------------- *)

(** [kill_nos s locs] removes every null-or-same fact about the locations
    [locs] from every abstract value in the state.  Called whenever a
    location may have been written, so surviving facts always describe the
    current content. *)
let kill_nos (s : t) (locs : (Refsym.t * Field_id.t) list) : t =
  if locs = [] then s
  else
    let live (r, f) =
      not
        (List.exists
           (fun (r', f') -> Refsym.equal r r' && Field_id.equal f f')
           locs)
    in
    map_values
      (function
        | Ref ri as v ->
            let nos = Nos.filter live ri.nos in
            if nos == ri.nos then v else Ref { ri with nos }
        | (Bot | Clash | Int _) as v -> v)
      s

(** Invalidate must-source-derived facts.  [pred m] selects the sources
    to kill; values lose their [msrc]/[eprov], and the active shift chain
    dies if its source matches. *)
let kill_must_src (s : t) (pred : must_src -> bool) : t =
  let s =
    map_values
      (function
        | Ref ri as v ->
            let msrc =
              match ri.msrc with Some m when pred m -> None | o -> o
            in
            let eprov =
              match ri.eprov with
              | Some { ep_src = m; _ } when pred m -> None
              | o -> o
            in
            if msrc == ri.msrc && eprov == ri.eprov then v
            else Ref { ri with msrc; eprov }
        | (Bot | Clash | Int _) as v -> v)
      s
  in
  match s.shift with
  | Some (m, _) when pred m -> { s with shift = None }
  | Some _ | None -> s

(** Kill every must-source fact (conservative barrier for calls, which
    may write any static or array). *)
let kill_all_must_src (s : t) : t = kill_must_src s (fun _ -> true)

(** Kill every element provenance — called after any object-array store,
    since two distinct sources may alias the same concrete array.  (The
    caller re-establishes the shift chain separately when the store
    extended it.) *)
let kill_all_eprov (s : t) : t =
  map_values
    (function
      | Ref ({ eprov = Some _; _ } as ri) -> Ref { ri with eprov = None }
      | (Bot | Clash | Int _ | Ref { eprov = None; _ }) as v -> v)
    s

(** Refine element provenances across an object-array store to index
    [idx] of the array identified by [src].

    A (non-displaced) provenance survives only when its array is
    {e must}-the-same as the stored-to one and its index provably differs
    from [idx] by a nonzero constant — the slot it describes was not
    touched.  Facts about a different or unknown source always die: two
    distinct sources may alias the same concrete array.  Displaced facts
    are consumed by the swap-verdict logic {e before} the store's kill,
    so any still present die here too.

    With [displace], facts whose index provably {e equals} [idx] become
    displaced instead of dying: the store is the first half of a swap,
    and the fact's value is the unique element just pushed out of that
    slot. *)
let eprov_after_store (s : t) ~(src : must_src option) ~(idx : Intval.t)
    ~(displace : bool) : t =
  map_values
    (function
      | Ref ({ eprov = Some ep; _ } as ri) as v -> (
          match src with
          | Some m when equal_must_src ep.ep_src m && not ep.ep_displaced -> (
              if displace && Intval.equal ep.ep_idx idx then
                Ref { ri with eprov = Some { ep with ep_displaced = true } }
              else
                match Intval.to_literal (Intval.sub ep.ep_idx idx) with
                | Some d when d <> 0 -> v
                | Some _ | None -> Ref { ri with eprov = None })
          | Some _ | None -> Ref { ri with eprov = None })
      | (Bot | Clash | Int _ | Ref { eprov = None; _ }) as v -> v)
    s

(* ---- stack and locals helpers ----------------------------------------- *)

exception Analysis_bug of string

let bugf fmt = Fmt.kstr (fun s -> raise (Analysis_bug s)) fmt

let push v s = { s with stk = v :: s.stk }

let pop s =
  match s.stk with
  | v :: stk -> (v, { s with stk })
  | [] -> bugf "abstract stack underflow (verifier should prevent this)"

let pop_int s =
  match pop s with
  | Int i, s -> (i, s)
  | (Bot | Clash), s -> (Intval.top, s)
  | Ref _, _ -> bugf "expected abstract int on stack"

let pop_ref s =
  match pop s with
  | Ref ri, s -> (ri, s)
  | (Bot | Clash), s -> (mk_refinfo (Rset.singleton Refsym.Global), s)
  | Int _, _ -> bugf "expected abstract ref on stack"

let set_local s i v =
  let rho = Array.copy s.rho in
  rho.(i) <- v;
  { s with rho }

let local s i = s.rho.(i)
