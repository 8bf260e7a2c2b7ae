import copy
import dataclasses
import json
import os
import pickle
import random
import subprocess
import sys
import time
from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import gcd, inf
from pathlib import Path

import pytest
from hypothesis import event, example, given, assume, settings, strategies as st

import plumbtoric
from plumbtoric import docio

from plumbtoric import (
    ActionBoundHit,
    ContactInvariant,
    IndexInput,
    InvalidItinerary,
    MomentPolygon,
    NotDelzantCorner,
    OrbitKind,
    OutputTooLarge,
    PerturbedOrbit,
    PolygonEdge,
    ReebCurrent,
    ReebItinerary,
    SizeTooLarge,
    TooManyGenerators,
    TorsionBound,
    TorsionReport,
    ZeroVector,
    blow_up_corner,
    classify,
    cross,
    dot,
    ech_index,
    elliptic_orbit,
    enumerate_generators,
    enumerate_orbits,
    fredholm_index,
    hyperbolic_orbit,
    j_plus,
    moment_polygon,
    parity_check,
    perturb_split,
    positivity_sign,
    reeb_direction,
    torsion_verdict,
    validate_itinerary,
    winding_compare,
)
from plumbtoric.reeb import FamilyCount, ItineraryViolation, OrbitFamily
from plumbtoric.toric import BoundaryReport, ray_sequence
from plumbtoric.lattice import primitive, primitive_of_rational

GOLDEN = Path(__file__).resolve().parent / "golden"


def F(x):
    return Fraction(x)


def make_itinerary(vertices, start_ray, end_ray):
    return ReebItinerary(
        vertices=tuple((F(x), F(y)) for x, y in vertices),
        start_ray=start_ray,
        end_ray=end_ray,
    )


# the S^1 x S^2 style picture: anchors on the horizontal rays, one corner below
DIP = make_itinerary([(-2, 0), (0, -2), (2, 0)], (-1, 0), (1, 0))


class TestReebDirection:
    def test_horizontal_tangent(self):
        assert reeb_direction((1, 0)) == (0, -1)

    def test_vertical_tangent(self):
        assert reeb_direction((0, 1)) == (1, 0)

    def test_primitivizes(self):
        assert reeb_direction((2, 4)) == (2, -1)

    def test_rejects_zero(self):
        with pytest.raises(ZeroVector):
            reeb_direction((0, 0))

    @given(st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(lambda v: v != (0, 0)))
    def test_is_clockwise_quarter_turn(self, t):
        r = reeb_direction(t)
        assert dot(t, r) == 0
        assert cross(t, r) < 0
        g = gcd(abs(t[0]), abs(t[1]))
        assert r == (t[1] // g, -t[0] // g)


class TestValidateItinerary:
    def test_valid_dip(self):
        assert validate_itinerary(DIP) == []

    def test_transversality_violation(self):
        bad = make_itinerary([(1, 1), (2, 2), (2, 4)], (1, 1), (1, 2))
        kinds = {v.kind for v in validate_itinerary(bad)}
        assert "transversality" in kinds

    def test_convexity_violation(self):
        bad = make_itinerary([(-2, 0), (0, -2), (2, -5)], (-1, 0), (2, -5))
        kinds = {v.kind for v in validate_itinerary(bad)}
        assert "convexity" in kinds

    def test_anchor_violation(self):
        bad = make_itinerary([(-2, 0), (0, -2), (2, 0)], (-1, 0), (1, 1))
        kinds = {v.kind for v in validate_itinerary(bad)}
        assert "anchor" in kinds

    def test_one_vertex(self):
        lone = make_itinerary([(0, -2)], (0, -1), (0, -1))
        assert validate_itinerary(lone) == [
            ItineraryViolation("anchor", 0, "need at least two vertices")
        ]


class TestEnumerateOrbits:
    def test_worked_example(self):
        # corner (0, -2), cone open between (-1, -1) and (1, -1), bound 5
        families = enumerate_orbits(DIP, 5)
        table = {
            fc.family.slope: (fc.family.base_action, fc.max_multiplicity)
            for fc in families
        }
        assert table == {
            (0, -1): (2, 2),
            (1, -2): (4, 1),
            (-1, -2): (4, 1),
        }
        assert all(fc.family.vertex == 1 for fc in families)

    def test_below_minimal_action(self):
        assert enumerate_orbits(DIP, 1) == []

    def test_exact_bound_aborts(self):
        with pytest.raises(ActionBoundHit):
            enumerate_orbits(DIP, 2)

    @pytest.mark.parametrize("bound", [0, F("-1/2")])
    def test_nonpositive_bound(self, bound):
        with pytest.raises(ValueError, match="^action bound must be positive$"):
            enumerate_orbits(DIP, bound)

    def test_invalid_itinerary_rejected(self):
        bad = make_itinerary([(1, 1), (2, 2), (2, 4)], (1, 1), (1, 2))
        with pytest.raises(InvalidItinerary):
            enumerate_orbits(bad, 5)

    def test_generator_cap(self):
        # 7 families lie below 7: their 14 orbits and the empty current are
        # 15 generators on their own
        families = enumerate_orbits(DIP, 7)
        orbits = [o for fc in families for o in perturb_split(fc.family)]
        for cap in range(17):
            if 15 > cap:
                with pytest.raises(TooManyGenerators) as exc:
                    enumerate_orbits(DIP, 7, max_generators=cap)
                with pytest.raises(TooManyGenerators) as search:
                    enumerate_generators(orbits, 7, max_generators=cap)
                assert str(exc.value) == str(search.value)
            else:
                assert enumerate_orbits(DIP, 7, max_generators=cap) == families

    def test_cap_without_corners(self):
        # no corner, no family: only the empty current
        flat = make_itinerary([(-1, -1), (1, -1)], (-1, -1), (1, -1))
        with pytest.raises(TooManyGenerators):
            enumerate_orbits(flat, 7, max_generators=0)
        assert enumerate_orbits(flat, 7, max_generators=1) == []

    def test_cap_and_exact_hit_first_met(self):
        # cap 0 is passed before the descent starts; under cap 1 the first
        # slope the descent meets, (0, -1), has action exactly 2
        with pytest.raises(TooManyGenerators):
            enumerate_orbits(DIP, 2, max_generators=0)
        with pytest.raises(ActionBoundHit):
            enumerate_orbits(DIP, 2, max_generators=1)

    def test_matches_brute_force_small(self):
        bound = F(25) / 2  # non-attainable: all actions here are even integers
        families = enumerate_orbits(DIP, bound)
        v = (F(0), F(-2))
        r_in, r_out = (-1, -1), (1, -1)
        expected = set()
        for mx in range(-30, 31):
            for my in range(-30, 31):
                if (mx, my) == (0, 0) or gcd(abs(mx), abs(my)) != 1:
                    continue
                m = (mx, my)
                if cross(r_in, m) > 0 and cross(m, r_out) > 0 and dot(m, v) < bound:
                    expected.add(m)
        assert {fc.family.slope for fc in families} == expected


def oracle_cone_primitives(r_in, r_out, v, bound: Fraction, found: list, room=inf) -> None:
    """The descent enumerate_orbits ran in Fraction arithmetic before its
    actions were scaled to ints; it stops once found holds more than room
    families.  An exact hit records the cross of its node as ``node_cross``."""
    stack = [(r_in, r_out)]
    while stack:
        u, w = stack.pop()
        d = cross(u, w)
        if dot(u, v) + dot(w, v) > d * bound:
            continue
        m = primitive((u[0] + w[0], u[1] + w[1]))
        action = dot(m, v)
        if action == bound:
            exc = ActionBoundHit(
                "orbit slope %s at vertex %s has action exactly %s" % (m, v, bound)
            )
            exc.node_cross = d
            raise exc
        if action < bound:
            found.append((m, action))
            if len(found) > room:
                return
        stack.append((u, m))
        stack.append((m, w))


def oracle_enumerate_orbits(it: ReebItinerary, bound, max_generators=None):
    """The families below the bound, corner by corner.  With a cap, the
    descent stops with TooManyGenerators as soon as 2 x families + 1 passes
    it; an exact hit met first wins, and records the families found before
    it as ``families``."""
    bound = Fraction(bound)
    if bound <= 0:
        raise ValueError("action bound must be positive")
    violations = validate_itinerary(it)
    if violations:
        raise InvalidItinerary(violations)
    cap = inf if max_generators is None else max_generators
    if cap < 1:
        raise TooManyGenerators("more than %d ECH generators below action %s" % (cap, bound))
    verts = it.vertices
    out = []
    for j in range(1, len(verts) - 1):
        v = verts[j]
        e_in = (verts[j][0] - verts[j - 1][0], verts[j][1] - verts[j - 1][1])
        e_out = (verts[j + 1][0] - verts[j][0], verts[j + 1][1] - verts[j][1])
        r_in = reeb_direction(primitive_of_rational(e_in))
        r_out = reeb_direction(primitive_of_rational(e_out))
        found: list = []
        room = (cap - 1) // 2 - len(out)  # families that still fit under the cap
        try:
            oracle_cone_primitives(r_in, r_out, v, bound, found, room)
        except ActionBoundHit as exc:
            exc.families = len(out) + len(found)
            raise
        if 2 * (len(out) + len(found)) + 1 > cap:
            raise TooManyGenerators("more than %d ECH generators below action %s" % (cap, bound))
        found.sort()
        for slope, action in found:
            mult = -(-bound // action) - 1  # ceil(bound / action) - 1
            out.append(
                FamilyCount(
                    family=OrbitFamily(slope=slope, vertex=j, base_action=action),
                    max_multiplicity=mult,
                )
            )
    return out


def outcome(enumerate_fn, itinerary, bound, **caps):
    try:
        return enumerate_fn(itinerary, bound, **caps)
    except (ActionBoundHit, TooManyGenerators) as exc:
        return "%s: %s" % (type(exc).__name__, exc)


def lower_hull(points):
    """Strictly convex lower hull, left to right (turns counter-clockwise)."""
    hull = []
    for p in sorted(points):
        while len(hull) >= 2 and cross(
            (hull[-1][0] - hull[-2][0], hull[-1][1] - hull[-2][1]),
            (p[0] - hull[-1][0], p[1] - hull[-1][1]),
        ) <= 0:
            hull.pop()
        hull.append(p)
    return hull


SL2Z_STEPS = [(1, 1, 0, 1), (1, -1, 0, 1), (1, 0, 1, 1), (1, 0, -1, 1), (0, -1, 1, 0)]
SL2Z_WORDS = st.lists(st.sampled_from(SL2Z_STEPS), max_size=4)


def sl2z_image(word, itinerary):
    a, b, c, d = 1, 0, 0, 1
    for p, q, r, s in word:
        a, b, c, d = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s

    def image(v):
        return (a * v[0] + b * v[1], c * v[0] + d * v[1])

    return ReebItinerary(
        vertices=tuple(image(v) for v in itinerary.vertices),
        start_ray=image(itinerary.start_ray),
        end_ray=image(itinerary.end_ray),
    )


@st.composite
def rational_itineraries(draw):
    """Convex multi-corner itineraries with rational vertices (denominators
    1-6): the lower hull of points below the axis between anchors on the
    horizontal rays, moved by a seeded SL(2,Z) word."""
    coords = dict(max_denominator=6)
    left = draw(st.fractions(Fraction(1, 2), 5, **coords))
    right = draw(st.fractions(Fraction(1, 2), 5, **coords))
    inner = draw(
        st.lists(
            st.tuples(
                st.fractions(-left, right, **coords).filter(lambda x: -left < x < right),
                st.fractions(-5, Fraction(-1, 3), **coords),
            ),
            min_size=1,
            max_size=6,
        )
    )
    hull = lower_hull([(-left, Fraction(0)), (right, Fraction(0))] + inner)
    flat = ReebItinerary(vertices=tuple(hull), start_ray=(-1, 0), end_ray=(1, 0))
    assert validate_itinerary(flat) == []
    return sl2z_image(draw(SL2Z_WORDS), flat)


DESCENT_BUDGET = 300  # rough cap on the families a drawn case asks for


@st.composite
def itineraries_and_bounds(draw):
    """An itinerary and a bound that is, when possible, the action of a
    primitive slope inside some corner's cone, so that the descent hits it,
    or twice that action, where the multiplicity rule meets the bound; or
    else a bound past some family's action.

    The families below a bound B at a corner V with cone (r_in, r_out) are
    about d B^2 / (2 a b) + B / a + B / b in number, with a, b the actions of
    r_in, r_out and d = cross(r_in, r_out); bounds are kept within
    DESCENT_BUDGET by that count, so that the Fraction oracle stays quick.
    """
    it = draw(rational_itineraries())
    verts = it.vertices
    cones = []
    for j in range(1, len(verts) - 1):
        r_in, r_out = (
            reeb_direction(primitive_of_rational((q[0] - p[0], q[1] - p[1])))
            for p, q in ((verts[j - 1], verts[j]), (verts[j], verts[j + 1]))
        )
        cones.append(
            (j, r_in, r_out, dot(r_in, verts[j]), dot(r_out, verts[j]), cross(r_in, r_out))
        )

    def families(bound):
        return sum(
            d * bound * bound / (2 * a * b) + bound / a + bound / b for *_, a, b, d in cones
        )

    hits = []
    for j, r_in, r_out, *_ in cones:
        for k in (1, 2, 3):
            for l in (1, 2, 3):
                m = primitive((k * r_in[0] + l * r_out[0], k * r_in[1] + l * r_out[1]))
                for cover in (1, 2):  # a slope's action, or its double cover's
                    if families(cover * dot(m, verts[j])) <= DESCENT_BUDGET:
                        hits.append(cover * dot(m, verts[j]))
    if hits and draw(st.booleans()):
        return it, draw(st.sampled_from(hits))
    # past the least of those actions, where there is one, so that some
    # family lies below the bound
    bound = draw(st.fractions(Fraction(1, 6), 6, max_denominator=6).filter(lambda b: b > 0))
    least = min(hits, default=0)
    bound += least
    while families(bound) > DESCENT_BUDGET and bound - least > Fraction(1, 64):
        bound = least + (bound - least) / 2
    return it, bound


def benchmark_curve(half):
    """The symmetric convex integer curve of the geometry benchmark built
    from ``half`` (edge steps (dx, -dy)), on the horizontal rays."""
    width = sum(dx for dx, _ in half)
    points = [(-width, 0)]
    for dx, dy in tuple((dx, -dy) for dx, dy in half) + tuple(reversed(half)):
        points.append((points[-1][0] + dx, points[-1][1] + dy))
    return make_itinerary(points, (-1, 0), (1, 0))


# corner cones of cross 2, 3, 2, 8, 2, 3, 2 and 3, 5, 3, 6, 3, 5, 3
CURVE_A = benchmark_curve(((1, 2), (1, 1), (2, 1)))
CURVE_B = benchmark_curve(((1, 4), (1, 2), (2, 1), (4, 1)))
CURVE_C = benchmark_curve(((1, 3), (2, 3), (3, 2), (3, 1)))
WIDE_CONE_CURVES = [
    pytest.param(curve, seed, id="%s-%s" % (name, seed))
    for name, curve in (("B", CURVE_B), ("C", CURVE_C))
    for seed in (None, 3, 4)
]


def wide_cone_image(curve, seed):
    return curve if seed is None else sl2z_image(drawn_sl2z_word(seed), curve)


def actions_below(itinerary, bound):
    """The distinct family actions below the bound, each a bound that the
    descent hits exactly."""
    return sorted({fc.family.base_action for fc in oracle_enumerate_orbits(itinerary, bound)})


def oracle_hit(itinerary, bound):
    """The oracle's exact hit at a bound that is some family's action."""
    with pytest.raises(ActionBoundHit) as info:
        oracle_enumerate_orbits(itinerary, bound)
    return info.value


class TestDescentOracle:
    """The integer-scaled descent against the Fraction descent it replaced:
    the same families in the same order, or the same first exact hit."""

    @settings(max_examples=150, deadline=None)
    @given(itineraries_and_bounds())
    def test_matches_fraction_descent(self, case):
        it, bound = case
        got = outcome(enumerate_orbits, it, bound)
        expected = outcome(oracle_enumerate_orbits, it, bound)
        assert got == expected
        event("exact hit" if isinstance(got, str) else "families below the bound")
        if isinstance(got, list):
            assert all(type(fc.family.base_action) is Fraction for fc in got + expected)
            assert all(type(fc.max_multiplicity) is int for fc in got)

    def test_wide_cone_crosses(self):
        for curve, crosses in ((CURVE_B, (2, 3, 2, 8, 2, 3, 2)), (CURVE_C, (3, 5, 3, 6, 3, 5, 3))):
            cones = plumbtoric.reeb._walk(curve)[1]
            assert tuple(cross(r_in, r_out) for _, r_in, r_out in cones) == crosses

    @pytest.mark.parametrize("curve, seed", WIDE_CONE_CURVES)
    def test_wide_cone_exact_hits(self, curve, seed):
        """Every action below 121/2 taken as the bound: the first hit in
        descent order, met in subcones of cross 1 and of cross > 1 alike."""
        it = wide_cone_image(curve, seed)
        node_crosses = []
        for bound in actions_below(it, F(121) / 2):
            expected = outcome(oracle_enumerate_orbits, it, bound)
            assert outcome(enumerate_orbits, it, bound) == expected
            node_crosses.append(oracle_hit(it, bound).node_cross)
        assert 1 in node_crosses and max(node_crosses) > 1

    @pytest.mark.parametrize("curve, seed", WIDE_CONE_CURVES)
    def test_wide_cone_generator_caps(self, curve, seed):
        """Caps below the family count, and caps on either side of the
        families an exact hit follows: the same families or the same first
        error as the oracle."""
        it = wide_cone_image(curve, seed)
        bound = F(161) / 2
        count = len(oracle_enumerate_orbits(it, bound))
        for cap in sorted({0, 1, 2, 3, 4, count // 2, count - 1, count, 2 * count, 2 * count + 1}):
            expected = outcome(oracle_enumerate_orbits, it, bound, max_generators=cap)
            got = outcome(enumerate_orbits, it, bound, max_generators=cap)
            assert got == expected
            assert isinstance(got, list) == (2 * count + 1 <= cap)
        firsts = set()
        for bound in actions_below(it, F(121) / 2):
            found = oracle_hit(it, bound).families
            for cap in {2 * found + k for k in (-1, 0, 1, 2)}:
                expected = outcome(oracle_enumerate_orbits, it, bound, max_generators=cap)
                assert outcome(enumerate_orbits, it, bound, max_generators=cap) == expected
                firsts.add(expected.split(":")[0])
        assert firsts == {"ActionBoundHit", "TooManyGenerators"}

    @pytest.mark.parametrize(
        "curve, bound, count",
        [(CURVE_A, F(401) / 2, 1993), (CURVE_B, F(801) / 2, 1939), (CURVE_C, F(801) / 2, 1643)],
        ids=["A", "B", "C"],
    )
    def test_benchmark_curves(self, curve, bound, count):
        """The geometry benchmark's three curves at their bounds.  Every
        corner of an integer curve scales by the bound's denominator, so
        the families share one base action object per distinct action."""
        got = enumerate_orbits(curve, bound)
        assert len(got) == count
        assert got == oracle_enumerate_orbits(curve, bound)
        bases = [fc.family.base_action for fc in got]
        assert len({id(b) for b in bases}) == len(set(bases)) < count // 5

    def test_equal_scaled_actions_at_two_scales(self):
        """Corners of the rational itinerary scale by 4 and by 12 at bound
        85/4, and one scaled int action occurs at both: two base actions."""
        doc = json.loads((GOLDEN / "itinerary_rational.json").read_text())
        it = docio.itinerary_from_doc(doc)
        bound = F(85) / 4
        got = enumerate_orbits(it, bound)
        assert got == oracle_enumerate_orbits(it, bound)
        scales, scaled = {}, {}
        for fc in got:
            j, base = fc.family.vertex, fc.family.base_action
            scales[j] = plumbtoric.lattice.scale_to_ints((*it.vertices[j], bound))[0]
            scaled.setdefault(base * scales[j], set()).add(base)
        assert set(scales.values()) == {4, 12}
        assert max(len(bases) for bases in scaled.values()) == 2

    def test_exact_hit_message_names_fraction_vertex(self):
        it = make_itinerary(
            [(-F(7) / 2, 0), (-3, -F(3) / 2), (-F(3) / 2, -F(8) / 3), (F(1) / 2, -3), (4, 0)],
            (-1, 0),
            (1, 0),
        )
        expected = outcome(oracle_enumerate_orbits, it, F(19) / 2)
        assert expected == (
            "ActionBoundHit: orbit slope (-1, -3) at vertex "
            "(Fraction(-3, 2), Fraction(-8, 3)) has action exactly 19/2"
        )
        assert outcome(enumerate_orbits, it, F(19) / 2) == expected


def descent_splits(it: ReebItinerary, bound) -> list:
    """The subcones the Fraction descent splits at each corner, with no cap."""
    counts = []
    for j in range(1, len(it.vertices) - 1):
        p, v, q = it.vertices[j - 1 : j + 2]
        r_in, r_out = (
            reeb_direction(primitive_of_rational((b[0] - a[0], b[1] - a[1])))
            for a, b in ((p, v), (v, q))
        )
        stack, count = [(r_in, r_out)], 0
        while stack:
            u, w = stack.pop()
            if dot(u, v) + dot(w, v) <= cross(u, w) * bound:
                count += 1
                m = primitive((u[0] + w[0], u[1] + w[1]))
                stack += [(u, m), (m, w)]
        counts.append(count)
    return counts


def wide_cone(k):
    """One corner at (0, -1) between edges of slope -k/2 and k/2: a cone of
    cross about k, whose families at bound 3/2 all have action 1."""
    return make_itinerary(
        [(-F(1) / k, -F(1) / 2), (0, -1), (F(1) / k, -F(1) / 2)], (-1, -k // 2), (1, -k // 2)
    )


class TestSplitBudget:
    """``max_generators`` also bounds the subcones the descent splits, over
    all corners."""

    @pytest.mark.parametrize("bound, families", [(F(7), 7), (F(52) / 3, 43)])
    def test_unimodular_corner_meets_the_family_rule_first(self, bound, families):
        # each split of a cross-1 cone finds a family
        assert descent_splits(DIP, bound) == [families]
        assert len(enumerate_orbits(DIP, bound, max_generators=2 * families + 1)) == families
        message = "^more than %d ECH generators below action %s$" % (2 * families, bound)
        with pytest.raises(TooManyGenerators, match=message):
            enumerate_orbits(DIP, bound, max_generators=2 * families)

    @pytest.mark.parametrize("k, splits", [(10, 23), (20, 47), (50, 135)])
    def test_least_budget_on_a_wide_cone(self, k, splits):
        # more splits than the 2 x families + 1 generators: the cap refuses
        # from one split below their count on
        it, bound = wide_cone(k), F(3) / 2
        families = enumerate_orbits(it, bound)
        assert descent_splits(it, bound) == [splits]
        assert 2 * len(families) + 1 < splits
        assert enumerate_orbits(it, bound, max_generators=splits) == families
        message = "^the orbit descent splits more than %d cones below action 3/2$" % (splits - 1)
        with pytest.raises(TooManyGenerators, match=message):
            enumerate_orbits(it, bound, max_generators=splits - 1)

    def test_budget_shared_by_the_corners(self):
        doc = json.loads((GOLDEN / "itinerary_rational.json").read_text())
        it = docio.itinerary_from_doc(doc)
        bound = F(21) / 2
        counts = descent_splits(it, bound)
        assert max(counts) < sum(counts) - 1  # a budget per corner would not refuse
        families = enumerate_orbits(it, bound)
        assert sum(counts) > 2 * len(families) + 1
        assert enumerate_orbits(it, bound, max_generators=sum(counts)) == families
        with pytest.raises(TooManyGenerators, match="^the orbit descent splits"):
            enumerate_orbits(it, bound, max_generators=sum(counts) - 1)

    @settings(max_examples=100, deadline=None)
    @given(itineraries_and_bounds(), st.integers(-2, 2))
    def test_least_budget_on_drawn_itineraries(self, case, shift):
        # either rule may refuse first; both pass from the larger of the two
        it, bound = case
        try:
            families = enumerate_orbits(it, bound)
        except ActionBoundHit:
            assume(False)
        least = max(sum(descent_splits(it, bound)), 2 * len(families) + 1)
        if shift >= 0:
            assert enumerate_orbits(it, bound, max_generators=least + shift) == families
        else:
            with pytest.raises(TooManyGenerators):
                enumerate_orbits(it, bound, max_generators=least + shift)

    def test_far_vertex_refused(self):
        # a corner cone of cross about 1e400 finds no family at bound 7
        # however long it descends
        doc = json.loads((GOLDEN / "itinerary_far_vertex.json").read_text())
        it = docio.itinerary_from_doc(doc)
        start = time.perf_counter()
        with pytest.raises(TooManyGenerators, match="^the orbit descent splits more than 10000 cones"):
            enumerate_orbits(it, 7, max_generators=10**4)
        assert time.perf_counter() - start < 1.0


class TestPerturbSplit:
    def test_split_data(self):
        family = OrbitFamily(slope=(0, -1), vertex=1, base_action=F(2))
        e, h = perturb_split(family)
        assert e.kind is OrbitKind.ELLIPTIC and h.kind is OrbitKind.POSITIVE_HYPERBOLIC
        assert (e.cz, h.cz) == (1, 0)
        assert (e.eps_exponent, h.eps_exponent) == (1, -1)
        assert h.action_key < e.action_key  # A(e) > A(h), lexicographically


class TestEnumerateGenerators:
    def test_single_pair(self):
        e, h = elliptic_orbit(2), hyperbolic_orbit(2)
        gens = enumerate_generators([h, e], 5)
        kinds = [
            tuple(sorted((o.kind.value[0], m) for o, m in g.entries)) for g in gens
        ]
        assert len(gens) == 5
        assert (("e", 1), ("p", 1)) in kinds  # {h, e}
        assert (("e", 2),) in kinds  # {e^2}; {h, e^2} exceeds the bound

    def test_below_all_actions(self):
        gens = enumerate_generators([hyperbolic_orbit(3), elliptic_orbit(3)], 2)
        assert gens == [ReebCurrent(())]

    @pytest.mark.parametrize("bound", [0, F("-1/2")])
    def test_nonpositive_bound(self, bound):
        with pytest.raises(ValueError, match="^action bound must be positive$"):
            enumerate_generators([elliptic_orbit(2)], bound)

    @pytest.mark.parametrize("action", [0, -2])
    def test_nonpositive_orbit_action(self, action):
        with pytest.raises(ValueError, match="^orbit actions must be positive$"):
            enumerate_generators([elliptic_orbit(2), hyperbolic_orbit(action)], 5)

    def test_two_pairs(self):
        orbits = [
            hyperbolic_orbit(2),
            elliptic_orbit(2),
            hyperbolic_orbit(3),
            elliptic_orbit(3),
        ]
        gens = enumerate_generators(orbits, 4)
        assert len(gens) == 5  # empty, h2, e2, h3, e3
        assert all(len(g.entries) <= 1 for g in gens)

    def test_hyperbolic_multiplicity_capped(self):
        gens = enumerate_generators([hyperbolic_orbit(1)], 10)
        assert max((m for g in gens for _, m in g.entries), default=0) == 1

    @given(st.integers(2, 9), st.integers(3, 20))
    def test_total_action_below_bound(self, base, bound):
        assume(bound % base != 0)
        e, h = elliptic_orbit(base), hyperbolic_orbit(base)
        for g in enumerate_generators([e, h], bound):
            total, eps = g.action_key()
            assert total < bound or (total == bound and eps < 0)
            assert g.is_ech_generator()

    def test_cap_stops_the_search(self):
        orbits = [hyperbolic_orbit(2), elliptic_orbit(2)]
        assert len(enumerate_generators(orbits, 5, max_generators=5)) == 5
        with pytest.raises(TooManyGenerators):
            enumerate_generators(orbits, 5, max_generators=4)

    def test_cap_trips_before_the_work_it_bounds(self):
        # 10**6 + 1 generators lie below this bound, all children of the root
        start = time.perf_counter()
        with pytest.raises(TooManyGenerators, match="^more than 10 ECH generators below action 2000001/2$"):
            enumerate_generators([elliptic_orbit(1)], 10**6 + Fraction(1, 2), max_generators=10)
        assert time.perf_counter() - start < 1

    def test_order_does_not_depend_on_hash_seed(self):
        # the README itinerary at 31/3 has equal-action families, whose orbits
        # tie on (base action, eps exponent, CZ, kind)
        script = (
            "import json\n"
            "from fractions import Fraction\n"
            "from plumbtoric import docio, reeb\n"
            "doc = {'vertices': [['-2', '0'], ['0', '-2'], ['2', '0']],"
            " 'start_ray': [-1, 0], 'end_ray': [1, 0]}\n"
            "bound = Fraction(31, 3)\n"
            "families = reeb.enumerate_orbits(docio.itinerary_from_doc(doc), bound)\n"
            "orbits = [o for fc in families for o in reeb.perturb_split(fc.family)]\n"
            "print(json.dumps([[[o.kind.value, str(o.base_action), o.eps_exponent, o.cz,"
            " o.family.vertex, list(o.family.slope), m] for o, m in g.entries]"
            " for g in reeb.enumerate_generators(orbits, bound)]))\n"
        )
        src = str(Path(plumbtoric.__file__).parents[1])
        listings = []
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            done = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True,
                timeout=120, check=True,
            )
            listings.append(json.loads(done.stdout))
        assert len(listings[0]) == 175
        assert listings[0] == listings[1]


def orbit_order(orbit):
    """The key a current's entries follow, and the reeb-orbits document's."""
    return (orbit.base_action, orbit.eps_exponent, orbit.kind.value, orbit.cz)


def oracle_generators(orbits, bound):
    """The exhaustive recursion enumerate_generators used before pruning: it
    visits multiplicity 0 of every remaining orbit under every generator."""
    bound = Fraction(bound)
    if bound <= 0:
        raise ValueError("action bound must be positive")
    ordered = sorted(dict.fromkeys(orbits), key=orbit_order)
    for o in ordered:
        if o.base_action <= 0:
            raise ValueError("orbit actions must be positive")
    out = []

    def extend(idx: int, chosen, base: Fraction, eps: int) -> None:
        if base > bound:
            return
        if base == bound:
            if eps >= 0:
                return
            out.append(ReebCurrent(tuple(chosen)))
            return  # adding anything else only increases the base total
        if idx == len(ordered):
            out.append(ReebCurrent(tuple(chosen)))
            return
        orbit = ordered[idx]
        max_mult = 1 if orbit.kind is not OrbitKind.ELLIPTIC else None
        mult = 0
        while True:
            if mult == 0:
                extend(idx + 1, chosen, base, eps)
            else:
                chosen.append((orbit, mult))
                extend(
                    idx + 1,
                    chosen,
                    base + mult * orbit.base_action,
                    eps + mult * orbit.eps_exponent,
                )
                chosen.pop()
            mult += 1
            if max_mult is not None and mult > max_mult:
                break
            if base + mult * orbit.base_action > bound:
                break

    extend(0, [], Fraction(0), 0)

    def canonical(c: ReebCurrent):
        entry_keys = sorted(
            (o.base_action, o.eps_exponent, o.kind.value, m) for o, m in c.entries
        )
        return (c.action_key(), len(c.entries), entry_keys)

    out.sort(key=canonical)
    return out


def split_orbits(itinerary, bound):
    return [
        orbit
        for fc in enumerate_orbits(itinerary, bound)
        for orbit in perturb_split(fc.family)
    ]


class TestGeneratorOracle:
    """The pruned search against the exhaustive recursion, order included:
    the order of generators with equal sort keys reaches the CLI output."""

    @pytest.mark.parametrize("k", range(10, 18))
    def test_readme_itinerary(self, k):
        bound = Fraction(3 * k + 1, 3)  # never an action of this itinerary
        orbits = split_orbits(DIP, bound)
        assert enumerate_generators(orbits, bound) == oracle_generators(orbits, bound)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.builds(
                PerturbedOrbit,
                st.sampled_from(OrbitKind),
                st.fractions(min_value=Fraction(1, 2), max_value=5, max_denominator=3),
                st.integers(-2, 2),
                st.integers(0, 2),
            ),
            max_size=7,
        ),
        st.fractions(min_value=Fraction(1, 3), max_value=4, max_denominator=3),
    )
    # the edges of the search's int entry keys: two elliptic orbits with one
    # key rank (they differ only in CZ), each reaching multiplicity 7 =
    # 11/3 // 1/2, the largest the key's span leaves room for
    @example(
        [PerturbedOrbit(OrbitKind.ELLIPTIC, F("1/2"), 1, 2), PerturbedOrbit(OrbitKind.ELLIPTIC, F("1/2"), 1, 0)],
        F("11/3"),
    )
    # a hyperbolic orbit at exactly the bound (below it only by its eps
    # exponent) next to a small elliptic orbit, which sets the span
    @example(
        [PerturbedOrbit(OrbitKind.POSITIVE_HYPERBOLIC, F(3), -1, 0), PerturbedOrbit(OrbitKind.ELLIPTIC, F("1/2"), 1, 1)],
        F(3),
    )
    # orbits that tie on (base, eps) with CZ and kind in opposite orders:
    # the search lists the elliptic one first, by kind before CZ
    @example(
        [PerturbedOrbit(OrbitKind.ELLIPTIC, F(1), 1, 2), PerturbedOrbit(OrbitKind.POSITIVE_HYPERBOLIC, F(1), 1, 0)],
        F(3),
    )
    # an orbit entering below the last key of its rank: {e0: 2, e1: 1} has
    # keys (r + 2, r + 1) until the search re-sorts them, and only sorted
    # do they order it before {e0: 1, e2: 1}, whose totals and count it shares
    @example(
        [
            PerturbedOrbit(OrbitKind.ELLIPTIC, F(1), 1, 0),
            PerturbedOrbit(OrbitKind.ELLIPTIC, F(1), 1, 1),
            PerturbedOrbit(OrbitKind.ELLIPTIC, F(2), 2, 0),
        ],
        F("7/2"),
    )
    def test_random_orbit_sets(self, orbits, bound):
        expected = oracle_generators(orbits, bound)
        got = enumerate_generators(orbits, bound)
        assert got == expected
        for g in got:  # the order the reeb-orbits writer prints
            keys = [orbit_order(o) for o, _ in g.entries]
            assert keys == sorted(keys)
        # the cap counts pushed nodes too, yet trips only past the full count
        assert enumerate_generators(orbits, bound, max_generators=len(expected)) == expected
        with pytest.raises(TooManyGenerators):
            enumerate_generators(orbits, bound, max_generators=len(expected) - 1)


class TestReebCurrentChecks:
    """The search builds its currents without the constructor's checks; the
    public constructor keeps them."""

    def test_rejects_repeated_orbits(self):
        e = elliptic_orbit(2)
        with pytest.raises(ValueError, match="orbits in a current must be distinct"):
            ReebCurrent(((e, 1), (hyperbolic_orbit(2), 1), (elliptic_orbit(2), 2)))

    @pytest.mark.parametrize("mult", [0, -1])
    def test_rejects_nonpositive_multiplicities(self, mult):
        with pytest.raises(ValueError, match="multiplicities must be positive"):
            ReebCurrent(((elliptic_orbit(2), 1), (hyperbolic_orbit(3), mult)))

    def test_search_currents_equal_checked_ones(self):
        bound = Fraction(31, 3)
        gens = enumerate_generators(split_orbits(DIP, bound), bound)
        assert len(gens) > 100
        for g in gens:
            checked = ReebCurrent(g.entries)
            assert g == checked and hash(g) == hash(checked)


def assert_like_public(built, public):
    """``built``, made past the frozen ``__init__``, is the object ``public``
    made by the public constructor from the same fields: the same fields in
    the same order, and it compares, hashes, prints, copies and pickles as
    that object does, and stays frozen."""
    assert type(built) is type(public)
    assert list(vars(built).items()) == list(vars(public).items())
    assert built == public and hash(built) == hash(public) and repr(built) == repr(public)
    for twin in (copy.copy(built), copy.deepcopy(built), pickle.loads(pickle.dumps(built))):
        assert twin == public and hash(twin) == hash(public) and repr(twin) == repr(public)
    assert dataclasses.replace(built) == public
    with pytest.raises(FrozenInstanceError):
        setattr(built, dataclasses.fields(built)[0].name, None)


def public_edge(e):
    return PolygonEdge(e.start, e.end, e.self_intersection, e.area)


def assert_polygon_like_public(poly):
    for e in poly.edges:
        assert_like_public(e, public_edge(e))
    edges = tuple(public_edge(e) for e in poly.edges)
    assert_like_public(poly, MomentPolygon(poly.vertices, edges, poly.rays))


# chains the construction takes, of length 2..6
short_construction_chains = (
    st.lists(st.integers(-4, 3).filter(lambda v: v != -1), min_size=2, max_size=6)
    .map(tuple)
    .filter(lambda s: any(v >= 0 for v in s))
)


class TestResultsBuiltPastInit:
    """classify, enumerate_orbits, enumerate_generators, moment_polygon and
    blow_up_corner build their results without the frozen __init__; each
    result is the object the public constructor builds."""

    @settings(max_examples=100, deadline=None)
    @given(itineraries_and_bounds())
    def test_families(self, case):
        it, bound = case
        try:
            families = enumerate_orbits(it, bound)
        except ActionBoundHit:
            assume(False)
        event("families" if families else "no family")
        for fc in families:
            f = fc.family
            public = OrbitFamily(f.slope, f.vertex, f.base_action)
            assert_like_public(f, public)
            assert_like_public(fc, FamilyCount(public, fc.max_multiplicity))

    @settings(max_examples=100, deadline=None)
    @given(short_construction_chains, st.data())
    def test_polygons(self, s, data):
        pivots = [i for i in range(1, len(s) + 1) if s[i - 1] >= 0]
        poly = moment_polygon(s, data.draw(st.sampled_from(pivots)))
        assert_polygon_like_public(poly)
        corner = data.draw(st.integers(1, len(s) - 1))
        size = data.draw(st.sampled_from([F(1) / 2, F(1) / 3, F(1)]))
        try:
            chopped = blow_up_corner(poly, corner, size)
        except (NotDelzantCorner, SizeTooLarge) as exc:
            event(type(exc).__name__)
            return
        event("blown up")
        assert_polygon_like_public(chopped)

    @settings(max_examples=200, deadline=None)
    @given(short_construction_chains)
    def test_reports(self, s):
        report = classify(s)
        rays = ray_sequence(s, report.pivot)
        assert_like_public(report.rays, rays)
        fields = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
        assert_like_public(report, BoundaryReport(**{**fields, "rays": rays}))

    @settings(max_examples=100, deadline=None)
    @given(itineraries_and_bounds(), st.integers(1, 3))
    def test_currents(self, case, scale):
        it, bound = case
        bound *= scale  # larger bounds give more generators
        try:
            families = enumerate_orbits(it, bound)
        except ActionBoundHit:
            assume(False)
        orbits = [o for fc in families for o in perturb_split(fc.family)]
        while True:  # halve the bound until the generators are few enough to copy each
            try:
                generators = enumerate_generators(orbits, bound, max_generators=500)
                break
            except TooManyGenerators:
                bound /= 2
        event("%d generators" % min(len(generators), 100))
        for g in generators:
            assert_like_public(g, ReebCurrent(g.entries))


def oracle_orbit_doc(orbit):
    return {
        "kind": orbit.kind.value,
        "base_action": docio.format_fraction(orbit.base_action),
        "eps_exponent": orbit.eps_exponent,
        "cz": orbit.cz,
    }


def oracle_current_doc(current):
    """A generator's entries as documents, in the order the reeb-orbits
    document lists them: sorted by (base action, eps exponent, kind), ties in
    the current's order."""
    entries = sorted(
        current.entries, key=lambda om: (om[0].base_action, om[0].eps_exponent, om[0].kind.value)
    )
    return [{**oracle_orbit_doc(o), "multiplicity": m} for o, m in entries]


def oracle_reeb_orbits_text(bound, families, orbits, generators):
    """The reeb-orbits document as a dict of lists, through the indenting
    JSON encoder: how it was written before the fixed-shape writer."""
    doc = {
        "action_bound": docio.format_fraction(bound),
        "families": [
            {
                "vertex": fc.family.vertex,
                "slope": list(fc.family.slope),
                "base_action": docio.format_fraction(fc.family.base_action),
                "max_multiplicity": fc.max_multiplicity,
            }
            for fc in families
        ],
        "orbits": [
            {**oracle_orbit_doc(o), "vertex": o.family.vertex, "slope": list(o.family.slope)}
            for o in orbits
        ],
        "generators": [oracle_current_doc(g) for g in generators],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def writer_and_oracle(itinerary, bound, cap=None):
    families = enumerate_orbits(itinerary, bound)
    orbits = [o for fc in families for o in perturb_split(fc.family)]
    generators = enumerate_generators(orbits, bound, max_generators=cap)
    args = (Fraction(bound), families, orbits, generators)
    return docio.reeb_orbits_text(*args), oracle_reeb_orbits_text(*args)


def drawn_sl2z_word(seed, steps=4):
    rng = random.Random(seed)
    return [rng.choice(SL2Z_STEPS) for _ in range(steps)]


# orbits that tie on (base action, eps exponent) with another kind or CZ, and
# distinct orbits with the same document fields: their families differ, as for
# the equal-base families of slopes (-1, -2) and (1, -2)
tied_orbits = st.lists(
    st.builds(
        PerturbedOrbit,
        st.sampled_from([OrbitKind.ELLIPTIC, OrbitKind.POSITIVE_HYPERBOLIC]),
        st.sampled_from([F(1), F(3) / 2, F(2)]),
        st.sampled_from([-1, 1]),
        st.integers(0, 2),
        st.sampled_from(
            [None] + [OrbitFamily(slope=m, vertex=1, base_action=F(4)) for m in ((-1, -2), (1, -2))]
        ),
    ),
    max_size=7,
)


class TestDocumentWriter:
    """The fixed-shape reeb-orbits writer against the dict document written
    by ``json.dumps(indent=2, sort_keys=True)``, byte for byte."""

    @pytest.mark.parametrize("seed", [None, 1, 2])
    @pytest.mark.parametrize("k", range(18))
    def test_readme_itinerary(self, k, seed):
        itinerary = DIP if seed is None else sl2z_image(drawn_sl2z_word(seed), DIP)
        got, expected = writer_and_oracle(itinerary, Fraction(3 * k + 1, 3))
        assert got == expected

    @settings(max_examples=150, deadline=None)
    @given(itineraries_and_bounds(), st.integers(0, 9))
    def test_random_itineraries(self, case, draw):
        itinerary, bound = case
        below_all = draw == 0
        # vertex denominators are at most 6; larger bounds give more generators
        bound = Fraction(1, 100) if below_all else bound * (1 + draw % 3)
        try:
            got, expected = writer_and_oracle(itinerary, bound, cap=3000)
        except (ActionBoundHit, TooManyGenerators):
            assume(False)
        event("%d generators" % min(got.count("\n    ["), 100))
        assert got == expected
        if below_all:
            assert '"families": [],' in got and '"generators": [\n    []\n  ],' in got

    @pytest.mark.parametrize("bound", [F(7), F(21) / 2, F(37) / 3])
    @pytest.mark.parametrize("name", ["itinerary", "itinerary_image", "itinerary_rational"])
    def test_family_dicts_match_family_texts(self, name, bound):
        # families_to_doc and _FAMILY_TEXT write one shape two ways
        doc = json.loads((GOLDEN / (name + ".json")).read_text())
        families = enumerate_orbits(docio.itinerary_from_doc(doc), bound)
        assert families
        text = docio.reeb_orbits_text(bound, families, [], [])
        assert docio.families_to_doc(families) == json.loads(text)["families"]

    def test_unprintable_family_refused_by_both_writers(self):
        families = [FamilyCount(OrbitFamily((0, -1), 1, Fraction(10**5000, 3)), 1)]
        with pytest.raises(OutputTooLarge):
            docio.families_to_doc(families)
        with pytest.raises(OutputTooLarge):
            docio.reeb_orbits_text(F(1), families, [], [])

    @settings(max_examples=300, deadline=None)
    @given(tied_orbits, st.sampled_from([F(2), F(3), F(7) / 2, F(5)]), st.lists(st.integers(0, 6), max_size=2))
    @example(  # a tie on (base, eps, kind) whose CZ order is not the list order
        [PerturbedOrbit(OrbitKind.ELLIPTIC, F(1), 1, 2), PerturbedOrbit(OrbitKind.ELLIPTIC, F(1), 1, 1)],
        F(3),
        [],
    )
    def test_current_text_on_random_orbit_sets(self, orbits, bound, repeats):
        orbits = orbits + [orbits[i % len(orbits)] for i in repeats if orbits]  # the same object again
        heads = docio._entry_heads(orbits)
        for g in enumerate_generators(orbits, bound):
            expected = json.dumps(oracle_current_doc(g), indent=2, sort_keys=True)
            assert docio.current_to_doc(g, heads) == expected.replace("\n", "\n    ")


def oracle_current_text(current):
    return json.dumps(oracle_current_doc(current), indent=2, sort_keys=True).replace("\n", "\n    ")


# two parses of one current: equal orbits that are distinct objects
PARSED_ENTRIES = [
    {"kind": "elliptic", "base_action": "3/2", "multiplicity": 2},
    {"kind": "positive_hyperbolic", "base_action": "5/2"},
    {"kind": "elliptic", "base_action": "7/2", "cz": 2, "multiplicity": 4},
]


class TestWriterOnBuiltCurrents:
    """The writer on currents the search did not build: entries equal to
    others but distinct objects, and temporary currents freed between
    ``current_to_doc`` calls that share one table, whose entries' ids Python
    may hand on to the next current's entries."""

    def test_parsed_and_constructed_currents(self):
        parsed = [docio.current_from_doc(PARSED_ENTRIES) for _ in range(2)]
        orbits = [o for current in parsed for o, _ in current.entries]
        heads = docio._entry_heads(orbits)
        for current in parsed:
            assert docio.current_to_doc(current, heads) == oracle_current_text(current)
        for _ in range(2):
            for m in range(1, 6):
                for o in orbits:
                    # built anew for each call and freed as soon as it returns
                    got = docio.current_to_doc(ReebCurrent(((o, m),)), heads)
                    assert got == oracle_current_text(ReebCurrent(((o, m),)))
                    if o != orbits[0]:  # the first orbit has the least action
                        pair = ReebCurrent(((orbits[0], m), (o, 7 - m)))
                        assert docio.current_to_doc(pair, heads) == oracle_current_text(pair)

    @pytest.mark.parametrize("bound", [F(5), F(31) / 3])
    def test_document_of_temporary_currents(self, bound):
        orbits = split_orbits(DIP, bound)

        def currents():
            # each entry a new tuple, equal to the entries of earlier currents;
            # the writer holds no current past its own call
            for i, o in enumerate(orbits):
                for m in range(1, 4):
                    later = orbits[(i + m) % len(orbits)]
                    entries = [(o, m)] if later is o else sorted([(o, m), (later, 1)], key=lambda e: orbit_order(e[0]))
                    yield ReebCurrent(tuple(entries))

        families = enumerate_orbits(DIP, bound)
        got = docio.reeb_orbits_text(bound, families, orbits, currents())
        assert got == oracle_reeb_orbits_text(bound, families, orbits, list(currents()))


def oracle_families_to_doc(families):
    """``docio.families_to_doc`` as it was before it formatted each shared
    base action once."""
    return [
        {
            "vertex": fc.family.vertex,
            "slope": docio._vec(fc.family.slope),
            "base_action": docio.format_fraction(fc.family.base_action),
            "max_multiplicity": fc.max_multiplicity,
        }
        for fc in families
    ]


def family(slope, vertex, base, mult=1):
    return FamilyCount(OrbitFamily(slope, vertex, base), mult)


class TestFamiliesToDoc:
    """The family writer, which formats each base action object once per
    call, against the comprehension it replaced: on the search's families,
    on hand-built ones that share or do not share their action objects, and
    on temporary ones freed as soon as the writer has read them, whose
    actions' ids Python may hand on to the next family's action."""

    @pytest.mark.parametrize("seed", [None, 3])
    @pytest.mark.parametrize(
        "curve, bound", [(DIP, F(31) / 3), (CURVE_A, F(101) / 2), (CURVE_C, F(161) / 2)]
    )
    def test_search_families(self, curve, bound, seed):
        families = enumerate_orbits(wide_cone_image(curve, seed), bound)
        assert len({fc.family.base_action for fc in families}) < len(families)
        got = docio.families_to_doc(families)
        assert got == oracle_families_to_doc(families)
        assert [list(d) for d in got] == [list(d) for d in oracle_families_to_doc(families)]

    def test_rational_search_families(self):
        doc = json.loads((GOLDEN / "itinerary_rational.json").read_text())
        families = enumerate_orbits(docio.itinerary_from_doc(doc), F(85) / 4)
        assert any(fc.family.base_action.denominator > 1 for fc in families)
        assert docio.families_to_doc(families) == oracle_families_to_doc(families)

    def test_hand_built_families(self):
        shared = F(7) / 3
        families = [
            family((0, -1), 1, shared, 2),
            family((1, -2), 2, shared, 2),  # one object at two corners
            family((-1, -2), 3, Fraction(14, 6)),  # equal, a distinct object
            family((1, -3), 3, 5),  # an int action
            family((2, -3), 1, Fraction(5)),  # an equal Fraction
            family((1, -1), 2, shared, 2),
        ]
        got = docio.families_to_doc(families)
        assert got == oracle_families_to_doc(families)
        assert [d["base_action"] for d in got] == ["7/3", "7/3", "7/3", "5", "5", "7/3"]
        assert docio.families_to_doc([]) == []

    def test_temporary_families(self):
        def temporary():
            # each family and its action built anew and dropped once read
            for k in range(1, 400):
                yield family((k, -1), k % 3, Fraction(k % 7 + 1, k % 5 + 1), k % 4 + 1)

        for _ in range(2):
            assert docio.families_to_doc(temporary()) == oracle_families_to_doc(temporary())


def current(*entries):
    return ReebCurrent(tuple(entries))


H2 = hyperbolic_orbit(2)
E2 = elliptic_orbit(2)


class TestEchIndex:
    def test_plane_vector(self):
        assert ech_index(IndexInput(1, 0, current((H2, 1)), current())) == 1

    def test_elliptic_end(self):
        assert ech_index(IndexInput(1, 0, current((E2, 1)), current())) == 2

    def test_mixed_ends(self):
        assert ech_index(IndexInput(0, 0, current((E2, 1)), current((H2, 1)))) == 1


class TestJPlus:
    def test_plane_vector(self):
        j0, jp = j_plus(IndexInput(1, 0, current((H2, 1)), current()))
        assert (j0, jp) == (-1, 0)

    def test_weights(self):
        neg = PerturbedOrbit(OrbitKind.NEGATIVE_HYPERBOLIC, F(2), -1, 0)
        _, jp_e3 = j_plus(IndexInput(0, 0, current((E2, 3)), current()))
        _, jp_h1 = j_plus(IndexInput(0, 0, current((H2, 1)), current()))
        _, jp_h2 = j_plus(IndexInput(0, 0, current((H2, 2)), current()))
        _, jp_n5 = j_plus(IndexInput(0, 0, current((neg, 5)), current()))
        # weights: elliptic 1 (plus truncated CZ sum 2), hyperbolic m, ceil(m/2)
        assert jp_e3 == 2 + 1
        assert jp_h1 == 1
        assert jp_h2 == 2
        assert jp_n5 == 3

    def test_additive_under_gluing(self):
        alpha = current((E2, 2), (H2, 1))
        beta = current((E2, 1))
        gamma = current()
        j_ab = j_plus(IndexInput(1, 2, alpha, beta))[1]
        j_bc = j_plus(IndexInput(0, 1, beta, gamma))[1]
        j_ac = j_plus(IndexInput(1, 3, alpha, gamma))[1]
        assert j_ab + j_bc == j_ac


class TestFredholm:
    def test_plane(self):
        assert fredholm_index(1, 1, [0], []) == 1

    def test_elliptic_end(self):
        assert fredholm_index(1, 1, [1], []) == 2

    def test_trivial(self):
        assert fredholm_index(0, 0, [], []) == 0


class TestParity:
    def test_cases(self):
        assert parity_check(current((H2, 1)), current(), 1) is True
        assert parity_check(current((E2, 1)), current(), 2) is True
        assert parity_check(current((E2, 1)), current(), 1) is False

    @given(
        st.integers(-3, 3),
        st.integers(-3, 3),
        st.integers(0, 2),
        st.integers(0, 2),
        st.integers(0, 3),
    )
    def test_consistent_classes_have_even_j_plus(self, c, q, nh_a, nh_b, ne):
        # when the parity identity holds, J+ is even (differential curves)
        alpha_entries = [(hyperbolic_orbit(3 + i), 1) for i in range(nh_a)]
        alpha_entries += [(elliptic_orbit(7 + i), 1 + (i % 2)) for i in range(ne)]
        beta_entries = [(hyperbolic_orbit(17 + i), 1) for i in range(nh_b)]
        inp = IndexInput(c, q, current(*alpha_entries), current(*beta_entries))
        index = ech_index(inp)
        if parity_check(inp.alpha, inp.beta, index):
            assert j_plus(inp)[1] % 2 == 0


class TestPositivity:
    def test_along_orbit(self):
        assert positivity_sign((0, -1), (0, -1)) == 0

    def test_allowed(self):
        assert positivity_sign((0, -1), (1, 0)) == 1

    def test_forbidden(self):
        assert positivity_sign((0, -1), (-1, 0)) == -1

    def test_zero_slope(self):
        with pytest.raises(ZeroVector, match="^Reeb slope must be nonzero$"):
            positivity_sign((0, 0), (1, 0))


class TestTorsionVerdict:
    def test_tight_side(self):
        report = torsion_verdict(classify((-2, 1, 0, -3)).winding)
        assert report.contact_invariant is ContactInvariant.NONZERO
        assert report.at_simp is TorsionBound.INFINITE

    def test_overtwisted_side(self):
        report = torsion_verdict(classify((2, 1, 3)).winding)
        assert report.contact_invariant is ContactInvariant.ZERO
        assert report.at == 0

    def test_half_turn(self):
        report = torsion_verdict(winding_compare([(1, -1), (-1, 1)]))
        assert report.at_simp is TorsionBound.POSITIVE
        assert report.contact_invariant is ContactInvariant.UNDETERMINED

    @pytest.mark.parametrize(
        "rays, expected",
        [
            ([(1, 0), (0, 1)], TorsionReport(ContactInvariant.NONZERO, None, TorsionBound.INFINITE)),
            ([(1, 0), (-1, 1), (0, -1)], TorsionReport(ContactInvariant.ZERO, 0, None)),
            ([(1, -1), (-1, 1)], TorsionReport(ContactInvariant.UNDETERMINED, None, TorsionBound.POSITIVE)),
        ],
        ids=["below_pi", "above_pi", "at_pi"],
    )
    def test_shared_constants(self, rays, expected):
        report = torsion_verdict(winding_compare(rays))
        assert report == expected and hash(report) == hash(expected)
        assert torsion_verdict(winding_compare(rays)) is report
        with pytest.raises(FrozenInstanceError):
            report.at = 1


class TestPlaneFixedVector:
    def test_all_indices_simultaneously(self):
        alpha = current((hyperbolic_orbit(1), 1))
        inp = IndexInput(1, 0, alpha, current())
        assert fredholm_index(1, 1, [0], []) == ech_index(inp) == 1
        assert j_plus(inp)[1] == 0
