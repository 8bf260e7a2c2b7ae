"""Toric moment-image construction and boundary classification.

A linear plumbing chain with some entry >= 0 is decomposed into L-shapes,
one per consecutive pair, which are glued by the SL(2,Z) matrices
A_j = [[-s_j, -1], [1, 0]].  The glued image determines a sequence of
integer rays; the exact angle they sweep decides tight versus overtwisted,
and the terminal ray r gives the lens pair (cross(w_0, r), r_x) =
(-1)^(n-1) (K(s_1..s_n), K(s_2..s_n)), checked on every chain against the
minors d_j = K(s_1..s_j) the walk carries (``lens_invariant``).  Its k half
is the identity det Q = d_n, so every report ``classify`` returns has
``det_check`` true.

The verdict does not depend on the pivot, and ``classify`` checks that for
every valid pivot at about the cost of one.  With k = min(i, n - 1), pivot
i takes the candidate ray with b_j = 0 at positions j < k and the one with
b_j = s_{j+1} from k on.  Both candidates at position j, the ``_step``
position of each and the wraps along them are functions of s_1..s_(j+1)
alone, and so is every pivot's offset: its exact count c less twice the
wraps along the tail after it.  So the walk keeps one state per prefix, and
one step (``_advance``) takes the state of a prefix to that of the prefix
one entry longer; ``_finish`` reads a chain's verdict off its own state.
``classify`` folds the step along its one chain, and ``survey_walk``
along the survey's prefix tree in preorder, each node stepped once from
its parent's state, which rides on the stack with it (Sedgewick and
Flajolet, An Introduction to the Analysis of Algorithms, ch. 6), so the
chains come out in tuple order and no node of the tree is stepped twice.
Each c must equal b+(Q) - 1, read by Jacobi's rule (Gantmacher, The
Theory of Matrices I, ch. X; Wilkinson, The Algebraic Eigenvalue Problem,
ch. 5) off those minors, which follow their own recurrence d_j = s_j
d_(j-1) - d_(j-2), apart from the ray steps: an identity observed on every
chain tested (lengths up to 60), not proved here.  It rests on two lemmas,
each tested on any chain.
The ray-continuant lemma: the candidate rays of ``_candidate_rays`` have
cross(w_0, head[j]) = (-1)^(j-1) K(s_1..s_(j-1)) and cross(w_0, tail[j]) =
(-1)^j K(s_1..s_(j+1)), j = 1..n-1, so the side of w_0 each lies on is the
sign of a leading minor of Q (K of no entries is 1).  The step lemma: the rays are columns of
products of determinant 1, so cross(head[j-1], head[j]) = 1 and
cross(tail[j-1], tail[j]) = 1, while the junction has cross(head[k-1],
tail[k]) = 1 - s_k s_(k+1), and with no -1 its rays are antiparallel
where that is 0.  So a head or tail step wraps exactly where its position
drops, and no step of a chain without -1 meets two rays that point the
same way.

The survey walks a chain that holds -1 as it stands.  The (-1, -1)
junction rule: where s_k = s_(k+1) = -1, tail[k] = head[k-1], as A_k
(-s_(k+1), 1) = (0, 1), and only pivot k, which s_k = -1 is not, reads
the junction's wrap; so the walk takes its position from head[k-1] and no
wrap, and every other junction is a ``_step`` with its parallel check.
The blow-up lemma: Q(s) = Q(s') + <-1>^r over Z, s' the blow-down of s
after r steps, so b+(Q) and, by the count check c = b+(Q) - 1 run on s
itself, the verdict are those of s', and det Q flips sign once per step.
That the normalized lens pair and the comparisons with pi and 2 pi are
those of s' too is observed, not proved: on every chain of eight survey
sets (lengths 2..6 over -3..2, 2..5 over -4..3, 2..6 over -6..1 and 2..7
over -2..2, each with and without -1) and on random chains.

Every moment polygon, constructed or blown up, is assembled by ``_polygon``:
edge j joins vertices j and j + 1, and the picture is re-read before it is
returned.  The re-read (``_reread``) runs once per polygon, on the int
points and int areas its builder computed over one common denominator D.
``moment_polygon`` computes on such ints from the heights on and only then
makes Fractions, once, for the returned coordinates and areas;
``blow_up_corner`` scales its input once and builds Fractions only for the
values the chop changes, and edges only from the chopped corner on: the
input's edges before it are returned as themselves where edge j joins
vertices j and j + 1.

Results are built past their frozen ``__init__`` by one rule: a report, made
once per chain, gets one ``__dict__`` with its fields in field order; objects
made in bulk (edges, polygons, ``reeb``'s families and currents) get one
``object.__setattr__`` per field, as that ``__init__`` stores them.

Chain positions and pivot indices are 1-based throughout, matching the
notation (s_1, ..., s_n).

One gate checks every chain, once, in this order: a -1 entry raises
MinusOnePresent, length below 2 raises TooShort, and the valid pivots are the
i with s_i >= 0.  Its two front doors return the chain as a tuple, alone
(``_concave_chain``: with no valid pivot, ``classify`` and
``lens_invariant`` raise NotConcaveCase) or with the pivot
(``_check_chain``: a construction given no pivot takes the smallest valid
one, and one given an invalid pivot, or none where there is no valid one,
raises NoNonnegativeEntry).  The ``construct`` command reads --heights before it,
and before the --reduce blow-down.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import Iterator, Optional, Sequence, Tuple

from . import lattice
from .errors import (
    InconsistentInvariant,
    InternalInvariantError,
    MinusOnePresent,
    NonpositiveArea,
    NoNonnegativeEntry,
    NotConcaveCase,
    NotCoprime,
    NotDelzantCorner,
    SizeTooLarge,
    TooShort,
)
from .lattice import Cmp, MatSL2Z, WindingVerdict, _step, cross
from .plumbing import area_vector, as_chain, blow_down, is_negative_definite


def gluing_matrix(s_j: int) -> MatSL2Z:
    """A_j = [[-s_j, -1], [1, 0]], the transformation pasting L_j onto L_{j-1}."""
    return MatSL2Z(-s_j, -1, 1, 0)


def _valid_pivots(s) -> list:
    """The chain gate of the module docstring; returns the valid pivots."""
    if -1 in s:
        raise MinusOnePresent(
            "chain %s contains a -1 sphere; blow it down first" % (s,)
        )
    if len(s) < 2:
        raise TooShort("the L-shape construction needs a chain of length >= 2")
    return [i for i in range(1, len(s) + 1) if s[i - 1] >= 0]


def _concave_chain(s) -> tuple:
    s = as_chain(s)
    if not _valid_pivots(s):
        raise NotConcaveCase(
            "no entry of %s is >= 0; the boundary is not concave" % (s,),
            negative_definite=is_negative_definite(s),
        )
    return s


def _check_chain(s, i: Optional[int]) -> Tuple[tuple, int]:
    s = as_chain(s)
    pivots = _valid_pivots(s)
    if i is None:
        i = min(pivots, default=None)
    if i not in pivots:
        raise NoNonnegativeEntry(
            "pivot %r is not one of the indices %s of %s with s_i >= 0" % (i, pivots, s)
        )
    return s, i


@dataclass(frozen=True)
class Decomposition:
    """L-shape pairs (a_j, b_j), j = 1..n-1, for a chosen pivot."""

    pairs: Tuple[Tuple[int, int], ...]
    pivot: int


def decompose(s: Sequence[int], i: Optional[int] = None) -> Decomposition:
    """Split (s_1, ..., s_n) into the n-1 pairs of the gluing construction.

    For pivot i the pairs are (s_1,0), ..., (s_{i-1},0), (s_i, s_{i+1}),
    (0, s_{i+2}), ..., (0, s_n); the pivot i = n reuses the i = n-1 pattern.
    Every pair has a nonnegative member, so none equals (-1, -1): away from
    the pair at k = min(i, n-1) one member is 0, and that pair holds s_i >= 0.
    """
    s, i = _check_chain(s, i)
    k = min(i, len(s) - 1)
    pairs = []
    for j in range(1, len(s)):
        a = s[j - 1] if j <= k else 0
        b = s[j] if j >= k else 0
        pairs.append((a, b))
    return Decomposition(pairs=tuple(pairs), pivot=i)


def choose_heights(s: Sequence[int], i: Optional[int] = None) -> Tuple[int, ...]:
    """Deterministic corner heights z < 0 satisfying the gluing inequalities.

    z_j is one less than the least of 0 and -s_m z_m over the neighbours m
    already set; the heights left of the pivot are set from the left end,
    those right of it from the right end, and the pivot last.
    """
    return _heights(*_check_chain(s, i))


def _heights(s, i: int) -> Tuple[int, ...]:
    """``choose_heights`` past the gate.  Step k sets z[j] (0-based), j = k left
    of the pivot, then n + i - 2 - k from the right end down; bound[m] is
    -s[m] z[m] once z[m] is set, else 0, and bound[-1] = bound[n] = 0 pad the ends."""
    n, h = len(s), i - 1
    z, bound = [0] * n, [0] * (n + 1)
    for k in range(n):
        j = k if k < h else n + h - 1 - k
        least, b = bound[j - 1], bound[j + 1]
        if b < least:
            least = b
        z[j] = zj = (least if least < 0 else 0) - 1
        bound[j] = -s[j] * zj
    return tuple(z)


def _validate_heights(s, i: int, z, zs) -> None:
    """Refuse heights z that break the gluing construction for pivot i: z < 0,
    and z_j < -s_m z_m for each interior j and neighbour m not nearer the
    pivot.  The tests are homogeneous in z, so they run on zs = D z for any
    D > 0; a refusal prints the value of z."""
    n = len(s)
    if len(z) != n:
        raise NonpositiveArea("heights length %d != chain length %d" % (len(z), n))
    for j, zj in enumerate(zs, start=1):
        if not zj < 0:
            raise NonpositiveArea("height z_%d = %s is not negative" % (j, z[j - 1]))
    for p in range(1, n):  # z_p and z_{p+1} as (j, m), left to right
        j, m = (p + 1, p) if p < i else (p, p + 1)
        if 1 < j < n and not zs[j - 1] < -s[m - 1] * zs[m - 1]:
            raise NonpositiveArea("z_%d violates z_%d < -s_%d z_%d" % (j, j, m, m))


def _positive_areas(s, zs, scale: int = 1) -> list:
    """D a for heights zs = D z, refused unless every area is positive; a
    refusal prints the area a_j itself."""
    out = area_vector(s, zs)
    for j, a in enumerate(out, start=1):
        if not a > 0:
            raise NonpositiveArea("area a_%d = %s is not positive" % (j, Fraction(a, scale)))
    return out


def areas(s: Sequence[int], z: Sequence) -> tuple:
    """Symplectic areas a = -Q z, refused unless every area is positive."""
    return tuple(_positive_areas(as_chain(s), z))


@dataclass(frozen=True)
class RaySequence:
    """Rays of the glued image: w_0 = (1, -s_1), w_j = A_2...A_j (-b_j, 1)."""

    w: Tuple[tuple, ...]
    pivot: int


def _candidate_rays(s) -> Tuple[list, list]:
    """Both candidate rays at every chain position, for all pivots at once.

    With M_j = A_2 ... A_j and M_1 = I, tail[j] = M_{j+1} (1, 0) =
    M_j (-s_{j+1}, 1) is the ray w_j when b_j = s_{j+1}, head[j] = M_j (0, 1)
    the one when b_j = 0, and head[0] = w_0 = (1, -s_1).  The pivot with
    k = min(i, n-1) has the rays head[:k] + tail[k:].  The product is kept
    as four ints.
    """
    head, tail = [(1, -s[0])], [(1, 0)]
    a, b, c, d = 1, 0, 0, 1
    for t in s[1:]:
        head.append((b, d))
        a, b, c, d = b - a * t, -a, d - c * t, -c  # times A_{j+1}
        tail.append((a, c))
    return head, tail


def ray_sequence(s: Sequence[int], i: Optional[int] = None) -> RaySequence:
    dec = decompose(s, i)
    head, tail = _candidate_rays(s)
    k = min(dec.pivot, len(s) - 1)
    rays = tuple(head[:k] + tail[k:])
    for j, (a, b) in enumerate(dec.pairs, start=1):
        if cross(rays[j - 1], rays[j]) != 1 - a * b:
            raise InternalInvariantError(
                "cross(w_%d, w_%d) != 1 - a b for %s" % (j - 1, j, s)
            )
        if gcd(*rays[j]) != 1:
            raise InternalInvariantError("ray %s not primitive" % (rays[j],))
    return RaySequence(w=rays, pivot=dec.pivot)


def boundary_rays(s: Sequence[int], i: Optional[int] = None) -> Tuple[tuple, tuple]:
    """First and last ray; these do not depend on the pivot choice."""
    rays = ray_sequence(s, i).w
    return rays[0], rays[-1]


def lens_invariant(s: Sequence[int]) -> Tuple[int, int]:
    """(k, l) with boundary L(k, l): k >= 0 and l in [0, k), or (0, 1) for k = 0.

    The lens pair of ``classify(s)``: the terminal ray r gives the raw pair
    (cross(w_0, r), r_x) = (-1)^(n-1) (K(s_1..s_n), K(s_2..s_n)), checked on
    every chain, in ints, against the minors d_(n-1), d_n: its k is (-1)^(n-1)
    d_n exactly, and by the unit identity d_(n-1) K(s_2..s_n) - d_n
    K(s_2..s_(n-1)) = 1 its l has (-1)^(n-1) l d_(n-1) = 1 mod k, and = 1
    where k = 0.  That fixes l mod k, so the printed l is checked too.
    """
    return classify(s).lens


def lens_equivalent(a: Tuple[int, int], b: Tuple[int, int]) -> bool:
    """Homeomorphism of lens spaces: k = k' and l' = +-l or +-l^{-1} mod k."""
    ka, la = a
    kb, lb = b
    if ka < 0 or kb < 0:
        raise ValueError("k must be nonnegative")
    if ka != kb:
        return False
    if ka == 0:
        return abs(la) == 1 and abs(lb) == 1
    if ka == 1:
        return True
    if gcd(la, ka) != 1 or gcd(lb, ka) != 1:
        raise NotCoprime("l must be coprime to k = %d" % ka)
    la %= ka
    lb %= ka
    inv = pow(la, -1, ka)
    return lb in {la, (-la) % ka, inv, (-inv) % ka}


class Verdict(Enum):
    TIGHT = "tight"
    OVERTWISTED = "overtwisted"


@dataclass(frozen=True)
class BoundaryReport:
    chain: tuple
    pivot: int
    rays: RaySequence
    winding: WindingVerdict
    verdict: Verdict
    lens: Tuple[int, int]
    det: int  # det Q of ``chain``
    det_check: bool  # true on every report: classify raises where it fails
    cone_is_whole_plane: bool


def classify(s: Sequence[int], reduce: bool = False) -> BoundaryReport:
    """Tight/overtwisted verdict for the concave boundary of a chain.

    The swept-angle criterion is reported for the smallest valid pivot.
    ``classify`` is the walk of the module docstring over the one chain: one
    step per entry gives the exact count c of every valid pivot, and the
    leading minors, which give det Q and b+(Q) and check the lens pair; that
    raising check includes the determinant identity, so ``det_check`` is
    always true.  Every pivot's c must equal b+(Q) - 1, a route whose
    recurrence shares nothing with the ray steps (an
    :class:`InternalInvariantError` flags a difference loudly).
    The report's verdicts are shared immutable instances
    (``lattice.winding_verdict``), and the report and its rays are built
    from their checked fields without the frozen ``__init__``, one
    ``__dict__`` each; the report compares, hashes, copies and pickles as
    one built by the public constructor.
    With ``reduce`` set, -1 entries are blown down first; otherwise they
    raise, so the standing assumption s_j != -1 stays visible to the caller.
    """
    s = _concave_chain(blow_down(s) if reduce else s)
    state, states = None, []
    for j in range(1, len(s) + 1):
        state = _advance(state, s, j)
        states.append(state)
    winding, verdict, lens, det, _, i0 = _finish(s, state)
    k0 = min(i0, len(s) - 1)
    w = tuple([d[4] for d in states[:k0]] + [d[7] for d in states[k0:]])
    # the rays and the report past their frozen __init__, one __dict__ each,
    # its fields in field order
    rays = object.__new__(RaySequence)
    object.__setattr__(rays, "__dict__", {"w": w, "pivot": i0})
    report = object.__new__(BoundaryReport)
    object.__setattr__(report, "__dict__", {
        "chain": s, "pivot": i0, "rays": rays, "winding": winding, "verdict": verdict,
        "lens": lens, "det": det, "det_check": True,  # the lens check raised where it fails
        "cone_is_whole_plane": winding.vs_two_pi is not Cmp.LT,
    })
    return report


def survey_walk(prefix: tuple, n_lo: int, n_hi: int, values) -> Iterator[tuple]:
    """(chain, verdict, winding, lens, det) of each chain that extends the
    tuple ``prefix``, 1..n_hi long, by entries of the increasing ``values``
    to n_lo..n_hi entries (n_lo >= 2), with some entry >= 0, that
    ``classify(chain, reduce=True)`` accepts, in tuple order, det its own.

    The iterative preorder of the chains' prefix tree, a node before its
    children and these in entry order.  The stack holds each node with its
    flag "some entry >= 0", which its children inherit, and its parent's
    state; each node is stepped once from that state, -1 entries in place.
    A node is pushed only where it heads a listed chain, so a range with no
    entry >= 0 takes no step.  The lens and count checks run on every listed
    chain and no report is built; a chain that blows down to one vertex is
    walked and skipped, and only where its signature allows that is it
    blown down to tell.
    """
    grows = max(values, default=-1) >= 0  # an entry past a node can be >= 0
    listed, state = max(prefix) >= 0, None
    if not (listed or grows and len(prefix) < n_hi):
        return
    for j in range(1, len(prefix)):
        state = _advance(state, prefix, j)
    stack, later = [(prefix, listed, state)], values[::-1]
    while stack:
        s, listed, state = stack.pop()
        n = len(s)
        state = _advance(state, s, n)
        if n < n_hi:
            heads = listed or grows and n + 1 < n_hi  # every child heads a listed chain
            stack += [(s + (v,), listed or v >= 0, state) for v in later if heads or v >= 0]
        if listed and n >= n_lo:
            winding, verdict, lens, det, b_plus, _ = _finish(s, state)
            # the blow-up lemma: b-(Q) = n - 1, that is b+ + [det = 0] = 1, where
            # the blow-down is one vertex (one >= 0, as an entry >= 0 only grows)
            if b_plus + (det == 0) == 1 and -1 in s and len(blow_down(s)) < 2:
                continue
            yield s, verdict, winding, lens, det


def _advance(state, s, j: int) -> tuple:
    """The walk's state after s_1..s_j, one node of the prefix tree, from
    ``state``, the one after s_1..s_(j-1) (None at j = 1).

    The state after s_1..s_j is a function of that prefix alone: the
    product M_j = A_2 ... A_j as four ints; head[j - 1] with its ``_step``
    position and the wraps along head[0..j-1]; tail[j - 1] with its position
    and the wraps along tail[1..j-1] (None, None and 0 at j = 1); the offset
    of the junction k = j - 1, before[k] + wrap(head[k-1] -> tail[k]) - (tail
    wraps up to k); (i, offset) of the first valid pivot i < j and of
    the first later one whose offset differs (None where there is none); and
    d_(j-1), d_j and b+ of Q(s_1..s_j), as ``plumbing._inertia`` gives them.
    Pivot k's count is 2 (offset + all tail wraps) + end, so the pivots
    agree exactly when their offsets do.  Positions are measured from w_0 =
    (1, -s_1).  A tail step has cross 1 (the step lemma), so its wrap is a
    drop in position.  Past j = 1 a step is one head ``_step``, one
    junction ``_step`` (none at a (-1, -1) junction) and one minor.
    """
    w0x, w0y = 1, -s[0]
    if j == 1:
        return (1, 0, 0, 1, (w0x, w0y), 0, 0, None, None, 0, None, None, None, 1, s[0], int(s[0] > 0))
    a, b, c, d, head, hp, hw, tail, tp, tw, off, first, other, d0, d1, b_plus = state
    t, u, nxt = s[j - 1], s[j - 2], (b, d)  # nxt = head[j - 1] = M_{j-1} (0, 1)
    a, b, c, d = b - a * t, -a, d - c * t, -c  # M_j = M_{j-1} A_j
    tp0, tail = tp, (a, c)  # tail[j - 1] = M_j (1, 0)
    # the junction k = j - 1; at a (-1, -1) one, tail[k] = head[k-1]
    tp, wrap = (hp, 0) if t == -1 == u else _step(w0x, w0y, head, hp, tail)
    if tp0 is not None:
        tw += tp < tp0
    off = hw + wrap - tw
    hp, wrap = _step(w0x, w0y, head, hp, nxt)
    head, hw = nxt, hw + wrap
    if u >= 0:  # pivot j - 1
        first = first or (j - 1, off)
        if other is None and off != first[1]:
            other = (j - 1, off)
    d0, d1 = d1, t * d1 - d0
    b_plus += d0 * d1 > 0 or d0 == 0
    return (a, b, c, d, head, hp, hw, tail, tp, tw, off, first, other, d0, d1, b_plus)


def _finish(s, state) -> tuple:
    """(winding, verdict, lens pair, det Q, b+(Q), first valid pivot) of a
    chain s with some entry >= 0, from ``state``, the walk's state after
    all of s: the pivot-n case, then the lens check of ``lens_invariant``
    and the count check, on the minors and b+(Q) the state carries."""
    n = len(s)
    tail, tp, tw, off, first, other, d0, det, b_plus = state[7:]
    if s[-1] >= 0 > s[-2]:  # pivot n, where it is not pivot n - 1's twin
        first = first or (n, off)
        if other is None and off != first[1]:
            other = (n, off)
    k, l = s[0] * tail[0] + tail[1], tail[0]  # cross(w_0, r), r_x
    sign = -1 if n % 2 == 0 else 1  # (-1)^(n-1)
    unit = sign * l * d0 - 1  # 0 mod k by the unit identity, and 0 where k = 0
    if k != sign * det or (unit % k if k else unit):
        raise InconsistentInvariant(
            "ray pair (%d, %d) disagrees with continuant pair (d_n, d_(n-1)) = (%d, %d) for %s"
            % (k, l, det, d0, s)
        )
    if k < 0:
        k, l = -k, -l
    # l in [0, k), so L(1, 0) for k = 1; L(0, 1) where k = 0, as l = +-1 there
    lens = (k, l % k) if k else (0, 1)
    end = (tp == 3) - (tp == 0)
    count = 2 * (first[1] + tw) + end
    if count != b_plus - 1 or other:  # the first pivot whose count is not b+(Q) - 1
        i, offset = first if count != b_plus - 1 else other
        raise InternalInvariantError(
            "pivot %d sweep count %d != b+(Q) - 1 = %d for %s"
            % (i, 2 * (offset + tw) + end, b_plus - 1, s)
        )
    verdict = Verdict.OVERTWISTED if count >= 1 else Verdict.TIGHT
    return lattice.winding_verdict(count, tp), verdict, lens, det, b_plus, first[0]

@dataclass(frozen=True)
class PolygonEdge:
    start: int  # vertex indices
    end: int
    self_intersection: int
    area: Fraction


@dataclass(frozen=True)
class MomentPolygon:
    """Glued moment image: corner chain, labeled edges, terminal ray directions.

    The two terminal vertices sit on the rays through -w_0 and -w_last (the
    stored ray directions follow the w-frame, pointing away from the corners).
    """

    vertices: Tuple[Tuple[Fraction, Fraction], ...]
    edges: Tuple[PolygonEdge, ...]
    rays: Tuple[tuple, tuple]


def _check_edge_count(poly: MomentPolygon) -> None:
    """The gate of every reader of a polygon's edges by position: edge j
    joins vertices j and j + 1, so there is one edge fewer than vertices."""
    if len(poly.edges) != len(poly.vertices) - 1:
        raise InternalInvariantError(
            "%d edges for %d vertices" % (len(poly.edges), len(poly.vertices))
        )


def _reread(pts, lengths, s, rays) -> None:
    """The polygon re-read, on ints scaled by one common denominator D.

    Edge j + 1 runs from pts[j] to pts[j + 1] and has the scaled area
    lengths[j] = D a_j.  The boundary is traversed with the image on its
    left, so the inward normal of a sphere edge is the left rotation of its
    direction; the first ray is traversed inward and the last one outward.
    An edge with displacement (dx, dy) has the primitive direction
    (dx, dy) / g and the affine length g / D, g = gcd(dx, dy), so its
    length check is g == D a_j; each normal determinant must equal s_j.
    """
    (r0x, r0y), (r1x, r1y) = rays
    normals = [(r0y, -r0x)]
    for j, ((px, py), (qx, qy), length) in enumerate(zip(pts, pts[1:], lengths), start=1):
        dx, dy = qx - px, qy - py
        g = gcd(dx, dy)
        if not g:
            lattice.primitive((dx, dy))  # raises ZeroVector: a zero-length edge
        if g != length:
            raise InternalInvariantError("edge %d affine length != area" % j)
        normals.append((-dy // g, dx // g))
    normals.append((-r1y, r1x))
    for j, (sj, (ax, ay), (bx, by)) in enumerate(zip(s, normals[2:], normals)):
        det = ax * by - ay * bx
        if det != sj:
            raise InternalInvariantError(
                "normal determinant %d != s_%d = %d" % (det, j + 1, sj)
            )


def _polygon(vertices, s, areas, rays, old=()) -> MomentPolygon:
    """The polygon with edge j from vertex j to j + 1 labeled (s[j], areas[j]).

    For j < len(old), whose labels the caller passes on, edge j is old[j]
    itself where old[j] already joins vertices j and j + 1.  The polygon and
    its new edges are built past their frozen ``__init__``, field by field."""
    new, store = object.__new__, object.__setattr__
    edges = []
    for j, (sj, aj) in enumerate(zip(s, areas)):
        e = old[j] if j < len(old) else None
        if e is None or e.start != j or e.end != j + 1:
            e = new(PolygonEdge)
            store(e, "start", j)
            store(e, "end", j + 1)
            store(e, "self_intersection", sj)
            store(e, "area", aj)
        edges.append(e)
    poly = new(MomentPolygon)
    store(poly, "vertices", vertices)
    store(poly, "edges", tuple(edges))
    store(poly, "rays", rays)
    return poly


def moment_polygon(
    s: Sequence[int], i: Optional[int] = None, z: Optional[Sequence] = None
) -> MomentPolygon:
    """Assemble the glued moment image for pivot i with heights z.

    Vertices are the accumulated-transform images of the per-L-shape edge
    endpoints; edge j carries (self-intersection s_j, area a_j).  The edge
    areas are re-read from the picture (affine lengths, normal determinants)
    as an internal consistency check.

    The heights are scaled once to ints zs = D z over their common
    denominator D (D = 1 for the default int heights), and everything up to
    the re-read is int arithmetic: the height and area checks, the areas
    D a = -Q zs, and the vertices.  The corner M_j (z_j, z_{j+1}) has
    M_j = A_2 ... A_j, whose columns are the candidate rays tail[j - 1] and
    head[j] of ``_candidate_rays``, so D times a vertex is an int combination
    of those rays and of zs.  Fractions are built for the returned
    coordinates and areas only.
    """
    s, i = _check_chain(s, i)
    z = _heights(s, i) if z is None else tuple(Fraction(v) for v in z)
    scale, zs = lattice.scale_to_ints(z)
    _validate_heights(s, i, z, zs)
    lengths = _positive_areas(s, zs, scale)
    head, tail = _candidate_rays(s)
    # the ray-end vertices z_1 w_0 and z_n w_last
    pts = [(zs[0] * head[0][0], zs[0] * head[0][1])]
    for j in range(1, len(s)):
        (ax, ay), (bx, by) = tail[j - 1], head[j]
        pts.append((zs[j - 1] * ax + zs[j] * bx, zs[j - 1] * ay + zs[j] * by))
    pts.append((zs[-1] * tail[-1][0], zs[-1] * tail[-1][1]))
    rays = (head[0], tail[-1])
    _reread(pts, lengths, s, rays)
    vertices = tuple((Fraction(x, scale), Fraction(y, scale)) for x, y in pts)
    return _polygon(vertices, s, [Fraction(l, scale) for l in lengths], rays)


def blow_up_corner(poly: MomentPolygon, vertex: int, size) -> MomentPolygon:
    """Chop the corner at ``vertex`` (0-based), creating a -1 edge of the
    given affine length; both adjacent self-intersections drop by one.

    The corner must be interior (between two sphere edges) and Delzant: the
    primitive edge directions must form a positively oriented Z^2 basis.
    Edge j of the result joins vertices j and j + 1, whatever the indices
    of the input's edges, which must be one fewer than its vertices; an
    input edge before the corner that joins vertices j and j + 1 is edge j
    of the result itself.  The corner check and the re-read run on the
    input scaled to ints once.
    """
    size = Fraction(size)
    _check_edge_count(poly)
    verts, edges = poly.vertices, poly.edges
    if not 1 <= vertex <= len(verts) - 2:
        raise NotDelzantCorner(
            "vertex %d is not an interior corner (valid: 1..%d); the ray-end "
            "vertices are not fixed points" % (vertex, len(verts) - 2)
        )
    if size <= 0:
        raise ValueError("blow-up size must be positive")
    n = 2 * len(verts)
    values = [c for p in verts for c in p] + [e.area for e in edges]
    scale, ints = lattice.scale_to_ints(values + [size])
    pts = list(zip(ints[0:n:2], ints[1:n:2]))
    lengths, cut = ints[n:-1], ints[-1]
    (px, py), (vx, vy), (qx, qy) = pts[vertex - 1 : vertex + 2]
    d_in = lattice.primitive((vx - px, vy - py))
    d_out = lattice.primitive((qx - vx, qy - vy))
    if cross(d_in, d_out) != 1:
        raise NotDelzantCorner(
            "edge directions %s, %s are not a positive Z^2 basis" % (d_in, d_out)
        )
    e_in, e_out = edges[vertex - 1], edges[vertex]
    l_in, l_out = lengths[vertex - 1], lengths[vertex]
    if cut >= l_in or cut >= l_out:
        raise SizeTooLarge(
            "size %s must be smaller than both adjacent lengths %s, %s"
            % (size, e_in.area, e_out.area)
        )
    va = (vx - cut * d_in[0], vy - cut * d_in[1])
    vb = (vx + cut * d_out[0], vy + cut * d_out[1])
    pts[vertex : vertex + 1] = [va, vb]
    lengths[vertex - 1 : vertex + 1] = [l_in - cut, cut, l_out - cut]
    s = [e.self_intersection for e in edges]
    s[vertex - 1 : vertex + 1] = [e_in.self_intersection - 1, -1, e_out.self_intersection - 1]
    _reread(pts, lengths, s, poly.rays)
    new = tuple((Fraction(x, scale), Fraction(y, scale)) for x, y in (va, vb))
    a = [e.area for e in edges]
    a[vertex - 1 : vertex + 1] = [Fraction(l_in - cut, scale), size, Fraction(l_out - cut, scale)]
    return _polygon(verts[:vertex] + new + verts[vertex + 1 :], s, a, poly.rays, edges[: vertex - 1])
