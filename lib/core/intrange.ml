(** Null ranges ("IntRanges", paper §3.2-3.3): the subrange of an object
    array's valid indices known to contain null.

    - [Full (lo, hi)] — the closed interval [lo..hi]; used right after
      allocation (the whole index range) and while it contracts from either
      end.
    - [From lo] — all valid indices ≥ lo ("[lo..]").
    - [Up_to hi] — all valid indices ≤ hi ("[..hi]").
    - [Empty] — nothing known null: the {e top} element of the paper's
      lattice ("smaller ranges are larger in the lattice").

    [contract] embodies the paper's deliberately conservative heuristics:
    it only recognizes stores at either end of the uninitialized range and
    drops to [Empty] otherwise.  This conservatism is also what makes the
    §3.6 overflow argument go through: a store site whose barrier was
    eliminated must walk indices one by one, so a wrapped-around index would
    have to pass through a negative value and raise a bounds exception
    first. *)

type t =
  | Empty
  | Full of Intval.t * Intval.t
  | From of Intval.t
  | Up_to of Intval.t

let pp ppf = function
  | Empty -> Fmt.string ppf "[]"
  | Full (lo, hi) -> Fmt.pf ppf "[%a..%a]" Intval.pp lo Intval.pp hi
  | From lo -> Fmt.pf ppf "[%a..]" Intval.pp lo
  | Up_to hi -> Fmt.pf ppf "[..%a]" Intval.pp hi

let equal a b =
  match a, b with
  | Empty, Empty -> true
  | Full (a1, a2), Full (b1, b2) -> Intval.equal a1 b1 && Intval.equal a2 b2
  | From a, From b | Up_to a, Up_to b -> Intval.equal a b
  | (Empty | Full _ | From _ | Up_to _), _ -> false

(** The whole index range of a just-allocated array of length [n]. *)
let of_new_array n = Full (Intval.const 0, Intval.add_const (-1) n)

(** Do two bounds provably denote the same integer?  ⊤ stands for an
    unknown value, so it is equal to nothing — not even another ⊤: two
    unknown indices need not be the same index. *)
let same_bound a b = (not (Intval.is_top a)) && Intval.equal a b

(** [contract r ind] — the null range after a store at index [ind]
    (paper §3.3).  Only stores at either end keep information. *)
let contract (r : t) (ind : Intval.t) : t =
  let eq = same_bound in
  let lt a b = Intval.provably_gt b a in
  match r with
  | Empty -> Empty
  | Full (lo, hi) ->
      if eq ind lo then Full (Intval.add_const 1 lo, hi)
      else if eq ind hi then Full (lo, Intval.add_const (-1) hi)
      else if lt ind lo || lt hi ind then r
      else Empty
  | From lo ->
      if eq ind lo then From (Intval.add_const 1 lo)
      else if lt ind lo then r
      else Empty
  | Up_to hi ->
      if eq ind hi then Up_to (Intval.add_const (-1) hi)
      else if lt hi ind then r
      else Empty

(** [mem r ind ~len] — is a {e successful} store at [ind] provably inside
    the null range?  The runtime bounds check guarantees
    [0 ≤ ind ≤ len-1], so a [Full] range's upper bound need not be proven
    when it equals [len-1] and its lower bound need not be proven when it
    is literally [0]; [From]/[Up_to] need only their one explicit bound. *)
let mem (r : t) (ind : Intval.t) ~(len : Intval.t) : bool =
  let ge = Intval.provably_ge in
  match r with
  | Empty -> false
  | From lo -> ge ind lo
  | Up_to hi -> ge hi ind
  | Full (lo, hi) ->
      (ge ind lo || same_bound lo (Intval.const 0))
      && (ge hi ind || same_bound hi (Intval.add_const (-1) len))

(** Promote a [Full] range to a half-open shape when a bound coincides with
    the end of the array ([Full (0, hi) ≡ Up_to hi];
    [Full (lo, len-1) ≡ From lo]).  [len] is the array's length in the same
    state the range came from. *)
let promote_like ~(len : Intval.t) (shape : t) (r : t) : t =
  match shape, r with
  | From _, Full (lo, hi) ->
      if same_bound hi (Intval.add_const (-1) len) then From lo else Empty
  | Up_to _, Full (lo, hi) ->
      if same_bound lo (Intval.const 0) then Up_to hi else Empty
  | _, _ -> r

(** Merge two null ranges at a control-flow join.  Bounds are merged as
    integer state components through the shared merge context (paper §3.5),
    so they can pick up the same stride variables as loop counters.
    [len1]/[len2] are the array's length in each input state, used to
    promote [Full] ranges to half-open ones when shapes disagree. *)
let merge (ctx : Intval.Ctx.ctx) ~len1 ~len2 (r1 : t) (r2 : t) : t =
  let r1 = promote_like ~len:len1 r2 r1 in
  let r2 = promote_like ~len:len2 r1 r2 in
  let m a b =
    let v = Intval.merge ctx a b in
    if Intval.is_top v then None else Some v
  in
  match r1, r2 with
  | Empty, _ | _, Empty -> Empty
  | Full (lo1, hi1), Full (lo2, hi2) -> (
      match m lo1 lo2, m hi1 hi2 with
      | Some lo, Some hi -> Full (lo, hi)
      | _ -> Empty)
  | From lo1, From lo2 -> (
      match m lo1 lo2 with Some lo -> From lo | None -> Empty)
  | Up_to hi1, Up_to hi2 -> (
      match m hi1 hi2 with Some hi -> Up_to hi | None -> Empty)
  | (Full _ | From _ | Up_to _), _ -> Empty

(** Flat merge (equal or [Empty]); used when collapsing [R_id/A] into
    [R_id/B] at an allocation, where no merge context is threaded. *)
let merge_flat r1 r2 = if equal r1 r2 then r1 else Empty
