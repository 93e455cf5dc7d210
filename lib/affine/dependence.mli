(** The one dependence test: may two accesses to one memref touch the
    same element, and at which distance? Tiling, interchange and fusion
    ([lib/transforms]) and MET's loop distribution ([lib/met]) all decide
    legality with it, each through one predicate below.

    A subscript is a linear form whose dims [0 .. depth-1] are the
    common loops of the two accesses, outermost first, and whose higher
    dims are the access's own other variables (the ivs of loops around
    one access only): the two sides' higher dims are distinct unknowns.
    The answer is [Independent] or, per common loop, the distance from
    the first access's iteration to the second's:

    - both subscripts [k·i + c] in the same common iv [i], same [k]:
      exact, distance [(c_a - c_b) / k], independent when [k] does not
      divide it;
    - both constant: equal, or independent;
    - otherwise a GCD test may prove independence.

    A subscript pair of the third kind that mentions a common loop, or
    a subscript with no linear form, leaves every loop [*]; a loop no
    subscript pins is [*]. *)

open Ir

type dist = Dist of int | Any
type t = Independent | Vector of dist array

(** [test ~depth a b] — the subscripts of two accesses to one array
    ([None]: no linear form). Lists of different lengths give all [*]. *)
val test :
  depth:int -> Affine_expr.linear option list -> Affine_expr.linear option list -> t

(** ["(1, -1, *)"] *)
val to_string : dist array -> string

(** [dims equal common] numbers variables for {!test}'s linear forms:
    the [i]th of [common] is dim [i], any other variable a dim above
    them, numbered on first sight. *)
val dims : ('a -> 'a -> bool) -> 'a list -> 'a -> Affine_expr.t

(** {2 Legality, one predicate per transform}

    Each takes a vector over the common loops, outermost first. A
    component other than [0] before the first position in question
    means the dependence is carried by an outer loop the transform
    keeps, so it constrains nothing. *)

(** [permutable ~band v]: the loops from position [band] on may be
    tiled: every dependence is [>= 0] in each of them. *)
val permutable : band:int -> dist array -> bool

(** [rotatable ~at v]: moving loop [at] innermost (the last position)
    keeps every dependence lexicographically positive. *)
val rotatable : at:int -> dist array -> bool

(** [fusable ~at v]: loop [at], a fusion of a first loop holding the
    first access and a second holding the second, keeps the second's
    iteration at or after the first's: its distance is a [Dist d] with
    [d >= 0]. *)
val fusable : at:int -> dist array -> bool

(** [carried v]: the dependence may join different iterations of the
    last loop within one iteration of the loops around it; [false]
    when it stays within one iteration of the last loop (or never
    meets within one outer iteration). *)
val carried : dist array -> bool

(** {2 Affine IR} *)

(** [ivs_around op] — the ivs of the [affine.for] ops around [op] up to
    its function, outermost first. *)
val ivs_around : Core.op -> Core.value list

(** [violation ?into ~ok (ivs, ops)] — why the loops [ivs] may not be
    transformed, or [None]: the first pair of accesses
    ({!Bounds.access}) to one memref, one of them a store, whose {!test}
    vector over [ivs] fails [ok] (["load %A\[%i, %j + 1\] and store
    %A\[%i + 1, %j\] depend at distance (-1, 1)"]), or the first op under
    [ops] that takes a memref without being an access (a library call:
    the test cannot see its effects). The pairs are those within [ops],
    an access with itself included, or with [into = (ivs', ops')] those
    of an access under [ops] and one under [ops'], whose loops pair
    with [ivs] position by position (a fusion). A reduction's
    accumulator is skipped: a store [X\[s\] = (X\[s\] ⊕ e1) ⊕ e2 …],
    [⊕] one of [addf] or [mulf], paired with itself or with the one load
    of [X] among the tree's leaves when it reads [X\[s\]]. Tiling and
    interchange reorder these under reassociation, which Pluto also
    assumes; a fusion never pairs them, as the load lies in the store's
    own loop. *)
val violation :
  ?into:Core.value list * Core.op list ->
  ok:(dist array -> bool) ->
  Core.value list * Core.op list ->
  string option
