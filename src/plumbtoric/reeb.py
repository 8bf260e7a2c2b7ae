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
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

from .errors import ActionBoundHit, InvalidItinerary, TooManyGenerators, ZeroVector
from .lattice import Cmp, WindingVerdict, cross, dot, primitive


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
    out: List[ItineraryViolation] = []
    verts = it.vertices
    if len(verts) < 2:
        out.append(ItineraryViolation("anchor", 0, "need at least two vertices"))
        return out
    for which, (v, ray) in enumerate(
        ((verts[0], it.start_ray), (verts[-1], it.end_ray))
    ):
        loc = 0 if which == 0 else len(verts) - 1
        if cross(v, ray) != 0 or dot(v, ray) <= 0:
            out.append(
                ItineraryViolation(
                    "anchor", loc, "vertex %s not on ray %s" % (v, ray)
                )
            )
    edges = [
        (verts[j + 1][0] - verts[j][0], verts[j + 1][1] - verts[j][1])
        for j in range(len(verts) - 1)
    ]
    for j, e in enumerate(edges):
        if not cross(verts[j], e) > 0:
            out.append(
                ItineraryViolation(
                    "transversality", j, "edge %d has cross(V, W-V) <= 0" % j
                )
            )
    for j in range(1, len(verts) - 1):
        e_in, e_out = edges[j - 1], edges[j]
        if not cross(e_in, e_out) > 0:
            out.append(
                ItineraryViolation("convexity", j, "turn at vertex %d not CCW in (0, pi)" % j)
            )
            continue
        for e in (e_in, e_out):
            r = reeb_direction(primitive_of_rational(e))
            if not dot(r, verts[j]) > 0:
                out.append(
                    ItineraryViolation(
                        "reeb_cone", j, "cone direction %s has action <= 0" % (r,)
                    )
                )
    return out


def primitive_of_rational(v) -> tuple:
    """Primitive integer vector in the direction of a rational vector."""
    fx, fy = Fraction(v[0]), Fraction(v[1])
    d = fx.denominator * fy.denominator  # any common denominator will do
    return primitive((int(fx * d), int(fy * d)))


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


def _cone_primitives(r_in, r_out, v, bound: Fraction, found: list) -> None:
    """Primitive vectors strictly inside the CCW cone with <m, v> vs bound.

    Stern-Brocot descent on primitivized mediants.  A subcone (u, w) with
    d = cross(u, w) can be pruned once <u,v> + <w,v> > d * bound, since
    every interior lattice vector m = alpha u + beta w has alpha, beta >=
    1/d.  Exact hits <m, v> = bound abort with ActionBoundHit.
    """
    stack = [(r_in, r_out)]
    while stack:
        u, w = stack.pop()
        d = cross(u, w)
        if dot(u, v) + dot(w, v) > d * bound:
            continue
        m = primitive((u[0] + w[0], u[1] + w[1]))
        action = dot(m, v)
        if action == bound:
            raise ActionBoundHit(
                "orbit slope %s at vertex %s has action exactly %s" % (m, v, bound)
            )
        if action < bound:
            found.append((m, action))
        stack.append((u, m))
        stack.append((m, w))


def enumerate_orbits(it: ReebItinerary, bound) -> List[FamilyCount]:
    """All orbit families of base action < bound, with max cover multiplicity.

    For each interior corner, primitive slopes strictly inside the open CCW
    cone between the Reeb directions of the adjacent edges are enumerated by
    Stern-Brocot descent pruned by the action bound.  The multiplicity of a
    family is the largest m with m * base_action < bound, strictly; an exact
    collision with the bound raises :class:`ActionBoundHit`, mirroring the
    nondegeneracy requirement on the bound.
    """
    bound = Fraction(bound)
    if bound <= 0:
        raise ValueError("action bound must be positive")
    violations = validate_itinerary(it)
    if violations:
        raise InvalidItinerary(violations)
    verts = it.vertices
    out: List[FamilyCount] = []
    for j in range(1, len(verts) - 1):
        v = verts[j]
        e_in = (verts[j][0] - verts[j - 1][0], verts[j][1] - verts[j - 1][1])
        e_out = (verts[j + 1][0] - verts[j][0], verts[j + 1][1] - verts[j][1])
        r_in = reeb_direction(primitive_of_rational(e_in))
        r_out = reeb_direction(primitive_of_rational(e_out))
        found: list = []
        _cone_primitives(r_in, r_out, v, bound, found)
        found.sort()
        for slope, action in found:
            q = bound / action
            mult = int(q) - 1 if q == int(q) else int(q)
            out.append(
                FamilyCount(
                    family=OrbitFamily(slope=slope, vertex=j, base_action=action),
                    max_multiplicity=mult,
                )
            )
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


EMPTY_CURRENT = ReebCurrent(())


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
    common denominator, so the search and the final sort compare ints.  The
    search emits a current and then branches only into later orbits (in
    base-action order) whose action still fits in the room left below the
    bound; each node of the search is an emitted generator.

    Order: generators are sorted by total action, then entry count, then
    sorted entry keys.  That key ties often, and ties keep the emission
    order, which is lexicographic in the multiplicity vector over the orbits
    sorted by (base action, eps exponent, CZ, kind).

    With ``max_generators`` set, the search raises
    :class:`TooManyGenerators` as soon as it emits one more than that.
    """
    bound = Fraction(bound)
    if bound <= 0:
        raise ValueError("action bound must be positive")
    ordered = sorted(
        set(orbits),
        key=lambda o: (o.base_action, o.eps_exponent, o.cz, o.kind.value),
    )
    for o in ordered:
        if o.base_action <= 0:
            raise ValueError("orbit actions must be positive")
    actions = [Fraction(o.base_action) for o in ordered]
    scale = lcm(bound.denominator, *(a.denominator for a in actions))
    top = bound.numerator * (scale // bound.denominator)
    scaled = [a.numerator * (scale // a.denominator) for a in actions]

    found = []  # (canonical key, current), in emission order
    # a node: entries, their sort keys, base and eps totals, last orbit index;
    # children are pushed in reverse so that they pop in emission order
    stack = [((), (), 0, 0, -1)]
    while stack:
        entries, keys, base, eps, last = stack.pop()
        found.append((((base, eps), len(keys), sorted(keys)), ReebCurrent(entries)))
        if max_generators is not None and len(found) > max_generators:
            raise TooManyGenerators(
                "more than %d ECH generators below action %s" % (max_generators, bound)
            )
        room = top - base
        for k in range(last + 1, bisect_right(scaled, room, last + 1)):
            orbit, action = ordered[k], scaled[k]
            top_mult = room // action if orbit.kind is OrbitKind.ELLIPTIC else 1
            for mult in range(top_mult, 0, -1):
                child_eps = eps + mult * orbit.eps_exponent
                if mult * action == room and child_eps >= 0:
                    continue
                stack.append(
                    (
                        entries + ((orbit, mult),),
                        keys + ((action, orbit.eps_exponent, orbit.kind.value, mult),),
                        base + mult * action,
                        child_eps,
                        k,
                    )
                )

    found.sort(key=itemgetter(0))
    return [current for _, current in found]


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


def torsion_verdict(w: WindingVerdict) -> TorsionReport:
    """Angle below pi: c nonzero and simple torsion infinite; above pi:
    c = 0 and torsion 0; exactly pi: simple torsion strictly positive."""
    if w.vs_pi is Cmp.LT:
        return TorsionReport(ContactInvariant.NONZERO, None, TorsionBound.INFINITE)
    if w.vs_pi is Cmp.GT:
        return TorsionReport(ContactInvariant.ZERO, 0, None)
    return TorsionReport(ContactInvariant.UNDETERMINED, None, TorsionBound.POSITIVE)
