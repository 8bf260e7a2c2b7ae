"""Combinatorial Reeb dynamics on moment curves and ECH index calculators.

The moment curve is modeled as a piecewise-linear itinerary: a CCW-convex
chain of rational points whose first and last vertices sit on the two
bounding rays of the cone.  Closed-orbit families live at the interior
corners only; a corner's open Reeb cone is swept between the 90-degree
clockwise rotations of its incoming and outgoing tangents, and an orbit of
primitive slope m at corner V has action <m, V>.

After the standard Morse-Bott perturbation each family splits into one
elliptic and one positive hyperbolic orbit.  Perturbed actions are exact
pairs (base, epsilon exponent) compared lexicographically; no numeric
epsilon is ever chosen, which keeps the action filtration decidable.  The
Conley-Zehnder index of every elliptic iterate below the action bound is
taken to be 1 (the simple-orbit value extends to iterates as the
perturbation size tends to zero; recorded as a modeling assumption).

Both searches scale exact rationals to ints once over a common denominator
and then compare ints only: the orbit descent scales each corner and the
action bound, keeping the Stern-Brocot traversal order (and so the slope an
:class:`ActionBoundHit` names), and the generator search scales the orbit
actions and the bound, and sorts the orbits on the scaled actions.  The
generator search also packs each entry's sort key into one int, keeps each
node's keys sorted as it extends the node, and sorts its generators on flat
tuples of ints.
Fractions are built only for what is returned: one base action per distinct
scaled action, shared by every family at that action.  Families and currents
are built past their frozen ``__init__``, field by field (``toric``'s rule).
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, inf
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

from .errors import ActionBoundHit, InvalidItinerary, TooManyGenerators, ZeroVector
from .lattice import (
    Cmp,
    WindingVerdict,
    cross,
    dot,
    primitive,
    primitive_of_rational,
    scale_to_ints,
)


def reeb_direction(tangent) -> tuple:
    """Primitive 90-degree clockwise rotation (t_y, -t_x) of the tangent."""
    if (tangent[0], tangent[1]) == (0, 0):
        raise ZeroVector("tangent must be nonzero")
    return primitive((tangent[1], -tangent[0]))


@dataclass(frozen=True)
class ReebItinerary:
    """PL moment curve: anchor, interior corners, anchor.

    ``vertices`` are exact rational points; the first and last lie on the
    rays through ``start_ray`` and ``end_ray`` (positive multiples of the
    stored directions).  Orbit families are carried by the interior
    vertices.
    """

    vertices: Tuple[Tuple[Fraction, Fraction], ...]
    start_ray: tuple
    end_ray: tuple


@dataclass(frozen=True)
class ItineraryViolation:
    kind: str       # "anchor", "transversality", "convexity", "reeb_cone"
    location: int   # vertex or edge index (0-based)
    detail: str


def validate_itinerary(it: ReebItinerary) -> List[ItineraryViolation]:
    """All invariant violations, empty when the itinerary is valid.

    Checks: anchors on their rays; every edge positively transverse to the
    radial rays (cross(V, W - V) > 0, the discrete Q > 0); CCW convex turns
    at interior corners; positive action for both boundary directions of
    every corner's Reeb cone.
    """
    return _walk(it)[0]


def _walk(it: ReebItinerary) -> Tuple[List[ItineraryViolation], list]:
    """The violations of ``validate_itinerary`` and, for each interior corner
    j that turns CCW, (j, r_in, r_out) with its edges' Reeb directions."""
    out: List[ItineraryViolation] = []
    cones = []
    verts = it.vertices
    if len(verts) < 2:
        out.append(ItineraryViolation("anchor", 0, "need at least two vertices"))
        return out, cones
    for loc, ray in ((0, it.start_ray), (len(verts) - 1, it.end_ray)):
        v = verts[loc]
        if cross(v, ray) != 0 or dot(v, ray) <= 0:
            out.append(ItineraryViolation("anchor", loc, "vertex %s not on ray %s" % (v, ray)))
    edges = [
        (verts[j + 1][0] - verts[j][0], verts[j + 1][1] - verts[j][1])
        for j in range(len(verts) - 1)
    ]
    for j, e in enumerate(edges):
        if not cross(verts[j], e) > 0:
            out.append(
                ItineraryViolation("transversality", j, "edge %d has cross(V, W-V) <= 0" % j)
            )
    for j in range(1, len(verts) - 1):
        e_in, e_out = edges[j - 1], edges[j]
        if not cross(e_in, e_out) > 0:
            out.append(
                ItineraryViolation("convexity", j, "turn at vertex %d not CCW in (0, pi)" % j)
            )
            continue
        r_in, r_out = (reeb_direction(primitive_of_rational(e)) for e in (e_in, e_out))
        for r in (r_in, r_out):
            if not dot(r, verts[j]) > 0:
                out.append(
                    ItineraryViolation("reeb_cone", j, "cone direction %s has action <= 0" % (r,))
                )
        cones.append((j, r_in, r_out))
    return out, cones


@dataclass(frozen=True)
class OrbitFamily:
    """Morse-Bott torus of closed orbits: primitive slope at a corner."""

    slope: tuple
    vertex: int
    base_action: Fraction


@dataclass(frozen=True)
class FamilyCount:
    family: OrbitFamily
    max_multiplicity: int


def _cone_primitives(r_in, r_out, v, bound: Fraction, room, budget) -> Tuple[int, int, list, int]:
    """Primitive vectors strictly inside the CCW cone with <m, v> vs bound.

    Stern-Brocot descent on primitivized mediants.  A subcone (u, w) with
    d = cross(u, w) can be pruned once <u,v> + <w,v> > d * bound, since
    every interior lattice vector m = alpha u + beta w has alpha, beta >=
    1/d.  Exact hits <m, v> = bound abort with ActionBoundHit.

    v and the bound are scaled once to ints over a common denominator D, and
    each node carries (u, w, D <u,v>, D <w,v>, d), so the prune and both
    action tests compare ints with no dot or cross product per node.  The mediant u + w
    has gcd g dividing d, and both children have cross d / g; a node with
    d = 1 needs no gcd, as its mediant is already primitive.  The descent
    order, and with it the first exact hit reported, is that of the
    unscaled descent.  Returns (D, D * bound, found, budget) with found
    listing (m, D * <m, v>) for every m of action below the bound, stopping
    as soon as found holds more than ``room`` of them (at once when ``room``
    is negative).  Each subcone split in two spends one of ``budget``, and
    the descent stops where that would leave it below 0 (returned as -1).
    """
    scale, (vx, vy, top) = scale_to_ints((v[0], v[1], bound))
    found = []
    stack = []
    if room >= 0:
        a_in, a_out = r_in[0] * vx + r_in[1] * vy, r_out[0] * vx + r_out[1] * vy
        stack.append((r_in, r_out, a_in, a_out, cross(r_in, r_out)))
    while stack:
        u, w, a_u, a_w, d = stack.pop()
        action = a_u + a_w
        if action > d * top:
            continue
        m = (u[0] + w[0], u[1] + w[1])
        if d > 1:
            g = gcd(*m)
            if g > 1:
                m, action, d = (m[0] // g, m[1] // g), action // g, d // g
        if action == top:
            raise ActionBoundHit(
                "orbit slope %s at vertex %s has action exactly %s" % (m, v, bound)
            )
        if action < top:
            found.append((m, action))
            if len(found) > room:
                break
        budget -= 1
        if budget < 0:
            break
        stack.append((u, m, a_u, action, d))
        stack.append((m, w, action, a_w, d))
    return scale, top, found, budget


def enumerate_orbits(
    it: ReebItinerary, bound, *, max_generators: Optional[int] = None
) -> List[FamilyCount]:
    """All orbit families of base action < bound, with max cover multiplicity.

    For each interior corner, primitive slopes strictly inside the open CCW
    cone between the Reeb directions of the adjacent edges are enumerated by
    Stern-Brocot descent pruned by the action bound.  The multiplicity of a
    family is the largest m with m * base_action < bound, strictly; an exact
    collision with the bound raises :class:`ActionBoundHit`, mirroring the
    nondegeneracy requirement on the bound.

    ``max_generators`` means what it means for ``enumerate_generators`` on
    the families' split orbits.  Each family's two orbits and the empty
    current are generators on their own, so the descent raises that
    search's :class:`TooManyGenerators` as soon as 2 x families + 1 passes
    the cap (before it starts when the cap is 0); of that and an exact hit,
    it raises whichever it meets first.  The cap also bounds the subcones
    the descent splits, over all corners: where it would split more, it
    raises :class:`TooManyGenerators` naming them, as a corner cone of large
    cross can split many subcones for few families or none.  A split with
    cross 1 finds a family, so where every corner is unimodular the family
    rule is met first.
    """
    bound = Fraction(bound)
    if bound <= 0:
        raise ValueError("action bound must be positive")
    violations, cones = _walk(it)
    if violations:
        raise InvalidItinerary(violations)
    room = budget = inf  # the families that fit, and the splits left over all corners
    if max_generators is not None:
        room, budget = (max_generators - 1) // 2, max_generators
    out: List[FamilyCount] = []
    new, store = object.__new__, object.__setattr__
    # per corner scale D, which fixes top = D * bound: per scaled action, its
    # base action and max multiplicity, shared by every family at that action
    shared = {}
    for j, r_in, r_out in cones:
        scale, top, found, budget = _cone_primitives(r_in, r_out, it.vertices[j], bound, room, budget)
        room -= len(found)
        if room < 0:
            break
        if budget < 0:
            raise TooManyGenerators(
                "the orbit descent splits more than %d cones below action %s" % (max_generators, bound)
            )
        found.sort(key=itemgetter(0))  # by slope; a corner's slopes are distinct
        by_action = shared.setdefault(scale, {})
        for slope, action in found:
            held = by_action.get(action)
            if held is None:
                # the multiplicity is ceil(top / action) - 1
                held = by_action[action] = (Fraction(action, scale), -(-top // action) - 1)
            base, mult = held
            family = new(OrbitFamily)
            store(family, "slope", slope)
            store(family, "vertex", j)
            store(family, "base_action", base)
            count = new(FamilyCount)
            store(count, "family", family)
            store(count, "max_multiplicity", mult)
            out.append(count)
    if room < 0:
        raise too_many_generators(max_generators, bound)
    return out


class OrbitKind(Enum):
    ELLIPTIC = "elliptic"
    POSITIVE_HYPERBOLIC = "positive_hyperbolic"
    NEGATIVE_HYPERBOLIC = "negative_hyperbolic"  # never produced here; see j_plus


@dataclass(frozen=True)
class PerturbedOrbit:
    """Nondegenerate orbit after the perturbation.

    ``eps_exponent`` records the sign of the epsilon-order action
    correction: the elliptic orbit sits at the Morse maximum (+1), the
    hyperbolic at the minimum (-1), so A(e) > A(h) within a family under
    the lexicographic (base, exponent) order.
    """

    kind: OrbitKind
    base_action: Fraction
    eps_exponent: int
    cz: int
    family: Optional[OrbitFamily] = None

    @property
    def action_key(self) -> Tuple[Fraction, int]:
        return (self.base_action, self.eps_exponent)


def elliptic_orbit(base_action, family: Optional[OrbitFamily] = None) -> PerturbedOrbit:
    return PerturbedOrbit(OrbitKind.ELLIPTIC, Fraction(base_action), +1, 1, family)


def hyperbolic_orbit(base_action, family: Optional[OrbitFamily] = None) -> PerturbedOrbit:
    return PerturbedOrbit(
        OrbitKind.POSITIVE_HYPERBOLIC, Fraction(base_action), -1, 0, family
    )


def perturb_split(family: OrbitFamily) -> Tuple[PerturbedOrbit, PerturbedOrbit]:
    """Split a Morse-Bott family into its elliptic and positive hyperbolic
    orbits, with CZ(e) = 1 and CZ(h) = 0 in the toric trivialization."""
    return (
        elliptic_orbit(family.base_action, family),
        hyperbolic_orbit(family.base_action, family),
    )


@dataclass(frozen=True)
class ReebCurrent:
    """Finite multiset of perturbed orbits; the empty current is allowed."""

    entries: Tuple[Tuple[PerturbedOrbit, int], ...] = ()

    def __post_init__(self):
        seen = set()
        for orbit, mult in self.entries:
            if mult <= 0:
                raise ValueError("multiplicities must be positive")
            if orbit in seen:
                raise ValueError("orbits in a current must be distinct")
            seen.add(orbit)

    def is_ech_generator(self) -> bool:
        return all(
            mult == 1
            for orbit, mult in self.entries
            if orbit.kind is not OrbitKind.ELLIPTIC
        )

    def action_key(self) -> Tuple[Fraction, int]:
        base = sum((m * o.base_action for o, m in self.entries), Fraction(0))
        eps = sum(m * o.eps_exponent for o, m in self.entries)
        return (base, eps)

    def positive_hyperbolic_ends(self) -> int:
        return sum(
            m for o, m in self.entries if o.kind is OrbitKind.POSITIVE_HYPERBOLIC
        )


def too_many_generators(cap: int, bound: Fraction) -> TooManyGenerators:
    return TooManyGenerators("more than %d ECH generators below action %s" % (cap, bound))


def enumerate_generators(
    orbits: Sequence[PerturbedOrbit], bound, *, max_generators: Optional[int] = None
) -> List[ReebCurrent]:
    """ECH generators of action below the bound, including the empty one.

    Hyperbolic multiplicities are at most one.  The total action is the pair
    (sum of base actions, sum of epsilon exponents) compared to (bound, 0)
    lexicographically: a base total exactly at the bound counts as below
    only when its first-order epsilon correction is negative.  A zero
    epsilon sum also counts as above: the second-order correction of every
    nonempty current is strictly positive, so such a total really exceeds
    the bound.

    All base actions and the bound are scaled once to integers over a
    common denominator, so the orbit sort, the search and the final sort
    compare ints.  The search emits a current and then branches only into
    later orbits (in base-action order) whose action still fits in the room
    left below the bound; each node of the search is an emitted generator.

    Order: generators are sorted by total action, then entry count, then
    sorted entry keys.  An entry's key is the tuple (base action, eps
    exponent, kind, multiplicity) packed into one int, ``rank * span +
    multiplicity``: ``rank`` is the dense rank of the orbit's (scaled
    action, eps exponent, kind) among the orbits', and ``span`` exceeds
    every multiplicity the search can emit, so the packing keeps the tuple
    order and its ties.  The search keeps each node's entry keys in
    ascending order: a child's keys are its node's plus one, which sorts
    last unless the child's orbit shares the key rank of the node's last
    entry and enters at a smaller multiplicity, the one case in which it
    re-sorts them.  Each generator's sort key is the flat int tuple (base
    total, eps total, entry count) + its entry keys, which orders as the
    nested key did (equal counts give equal lengths), and the currents are
    built after the sort.  The sort key ties often, and ties keep the
    emission order, which is lexicographic in the multiplicity vector over
    the orbits sorted by (base action, eps exponent, kind, CZ); orbits that
    tie on that key keep the caller's order, never a hash order.
    Each current lists its entries in that orbit order, which is the order
    the reeb-orbits document prints them in.

    With ``max_generators`` set, the search raises
    :class:`TooManyGenerators` as soon as the generators it has emitted or
    pushed number more than that: every pushed node is emitted later, so the
    raise is exact, and it comes before a node pushes its children.
    """
    bound = Fraction(bound)
    if bound <= 0:
        raise ValueError("action bound must be positive")
    distinct = list(dict.fromkeys(orbits))
    for o in distinct:
        if o.base_action <= 0:
            raise ValueError("orbit actions must be positive")
    _, (top, *actions) = scale_to_ints([bound] + [Fraction(o.base_action) for o in distinct])
    # by (scaled action, eps exponent, kind, CZ): the order of the base
    # actions, compared as ints; orbits that tie keep the caller's order
    keyed = sorted(
        [((action, o.eps_exponent, o.kind.value, o.cz), o) for action, o in zip(actions, distinct)],
        key=itemgetter(0),
    )
    scaled = [key[0] for key, _ in keyed]
    # no multiplicity reaches top // (the smallest action) + 1
    span = top // scaled[0] + 1 if scaled else 1
    cap = sys.maxsize if max_generators is None else max_generators  # no list is longer
    # per orbit: its action, eps exponent, whether it is elliptic, whether
    # it shares its key rank with the orbit before it and, by multiplicity
    # from 0 to the largest the search can give it (at most the cap: a
    # current at multiplicity m comes with those at 1..m-1), its one-entry
    # tuple and its one-key tuple
    rank = {}  # the dense rank of each (scaled action, eps exponent, kind)
    steps = []
    for (action, orbit_eps, kind, _), orbit in keyed:
        t = (action, orbit_eps, kind)
        tied = t in rank  # the orbits come sorted, so t is the last one's
        r = rank.setdefault(t, len(rank))
        elliptic = orbit.kind is OrbitKind.ELLIPTIC
        mults = range(min(top // action, cap) + 1 if elliptic else 2)
        by_mult = [(((orbit, m),), (r * span + m,)) for m in mults]
        steps.append((action, orbit_eps, elliptic, tied, by_mult))

    found = []  # (sort key, entries), in emission order
    # a node: entries, their keys in ascending order, base and eps totals,
    # last orbit index; children are pushed in reverse so that they pop in
    # emission order
    stack = [((), (), 0, 0, -1)]
    if cap < 1:  # the empty generator alone passes it
        raise too_many_generators(max_generators, bound)
    while stack:
        entries, keys, base, eps, last = stack.pop()
        # a flat tuple of ints, which the garbage collector stops tracking
        found.append(((base, eps, len(keys)) + keys, entries))
        room = top - base
        for k in range(last + 1, bisect_right(scaled, room, last + 1)):
            action, orbit_eps, elliptic, tied, by_mult = steps[k]
            most = room // action if elliptic else 1
            if most * action == room and eps + most * orbit_eps >= 0:
                most -= 1  # a total at the bound counts as above it
            if len(found) + len(stack) + most > cap:
                raise too_many_generators(max_generators, bound)
            for mult in range(most, 0, -1):
                entry, key = by_mult[mult]
                child = keys + key
                if tied and key < keys[-1:]:  # only a key of the last one's rank falls below it
                    child = tuple(sorted(child))
                stack.append(
                    (entries + entry, child, base + mult * action, eps + mult * orbit_eps, k)
                )

    found.sort(key=itemgetter(0))
    # past the frozen __init__, whose checks (distinct orbits, each m > 0) hold
    out, new, store = [], object.__new__, object.__setattr__
    for _, entries in found:
        current = new(ReebCurrent)
        store(current, "entries", entries)
        out.append(current)
    return out


@dataclass(frozen=True)
class IndexInput:
    """Relative-class data feeding the index calculators.

    ``c_tau`` and ``q_tau`` (relative Chern number and self-intersection)
    are the caller's responsibility; the constructed plane class has
    c_tau = 1, q_tau = 0.
    """

    c_tau: int
    q_tau: int
    alpha: ReebCurrent
    beta: ReebCurrent


def _cz_sum(current: ReebCurrent, upto_full: bool) -> int:
    # CZ is constant across iterates in this model (CZ(h^k) = 0, CZ(e^k) = 1),
    # so the sum over iterates 1..m (or 1..m-1) is a product
    drop = 0 if upto_full else 1
    return sum((mult - drop) * orbit.cz for orbit, mult in current.entries)


def ech_index(inp: IndexInput) -> int:
    """I = c_tau + Q_tau + sum CZ(alpha iterates) - sum CZ(beta iterates)."""
    return (
        inp.c_tau
        + inp.q_tau
        + _cz_sum(inp.alpha, upto_full=True)
        - _cz_sum(inp.beta, upto_full=True)
    )


def _weight(current: ReebCurrent) -> int:
    total = 0
    for orbit, mult in current.entries:
        if orbit.kind is OrbitKind.ELLIPTIC:
            total += 1
        elif orbit.kind is OrbitKind.POSITIVE_HYPERBOLIC:
            total += mult
        else:
            total += (mult + 1) // 2
    return total


def j_plus(inp: IndexInput) -> Tuple[int, int]:
    """(J_0, J_+): J_0 flips the Chern sign and truncates the CZ sums to the
    (m_i - 1)-st iterate; J_+ adds |alpha| - |beta| with the weights 1 /
    m_i / ceil(m_i / 2) for elliptic / positive / negative hyperbolic."""
    j0 = (
        -inp.c_tau
        + inp.q_tau
        + _cz_sum(inp.alpha, upto_full=False)
        - _cz_sum(inp.beta, upto_full=False)
    )
    return j0, j0 + _weight(inp.alpha) - _weight(inp.beta)


def fredholm_index(
    chi: int, c_tau: int, cz_plus: Sequence[int], cz_minus: Sequence[int]
) -> int:
    """ind = -chi + 2 c_tau + sum CZ(positive ends) - sum CZ(negative ends)."""
    return -chi + 2 * c_tau + sum(cz_plus) - sum(cz_minus)


def parity_check(alpha: ReebCurrent, beta: ReebCurrent, index: int) -> bool:
    """Index parity: (-1)^I must equal (-1)^(positive hyperbolic end count)."""
    eps = alpha.positive_hyperbolic_ends() + beta.positive_hyperbolic_ends()
    return (index - eps) % 2 == 0


def positivity_sign(reeb_slope, boundary_class) -> int:
    """Sign of p b - q a for Reeb slope (p, q) and slice class (a, b).

    Negative marks a homologically forbidden slice class; zero is the
    trivial-cylinder case on a foliated torus.
    """
    if (reeb_slope[0], reeb_slope[1]) == (0, 0):
        raise ZeroVector("Reeb slope must be nonzero")
    p, q = reeb_slope
    a, b = boundary_class
    val = p * b - q * a
    return (val > 0) - (val < 0)


class ContactInvariant(Enum):
    ZERO = "zero"
    NONZERO = "nonzero"
    UNDETERMINED = "undetermined"


class TorsionBound(Enum):
    INFINITE = "infinity"
    POSITIVE = "positive"


@dataclass(frozen=True)
class TorsionReport:
    """ECH contact invariant and algebraic-torsion verdict from the angle."""

    contact_invariant: ContactInvariant
    at: Optional[int]
    at_simp: Optional[TorsionBound]


_BELOW_PI = TorsionReport(ContactInvariant.NONZERO, None, TorsionBound.INFINITE)
_ABOVE_PI = TorsionReport(ContactInvariant.ZERO, 0, None)
_AT_PI = TorsionReport(ContactInvariant.UNDETERMINED, None, TorsionBound.POSITIVE)


def torsion_verdict(w: WindingVerdict) -> TorsionReport:
    """Angle below pi: c nonzero and simple torsion infinite; above pi:
    c = 0 and torsion 0; exactly pi: simple torsion strictly positive.

    The report is one of three shared immutable module constants, chosen
    by ``w.vs_pi``."""
    vs_pi = w.vs_pi
    if vs_pi is Cmp.LT:
        return _BELOW_PI
    return _ABOVE_PI if vs_pi is Cmp.GT else _AT_PI
