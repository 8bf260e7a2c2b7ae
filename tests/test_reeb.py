from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, assume, settings, strategies as st

from plumbtoric import (
    ActionBoundHit,
    ContactInvariant,
    IndexInput,
    InvalidItinerary,
    OrbitKind,
    PerturbedOrbit,
    ReebCurrent,
    ReebItinerary,
    TooManyGenerators,
    TorsionBound,
    ZeroVector,
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
    parity_check,
    perturb_split,
    positivity_sign,
    reeb_direction,
    torsion_verdict,
    validate_itinerary,
    winding_compare,
)
from plumbtoric.reeb import OrbitFamily


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

    def test_invalid_itinerary_rejected(self):
        bad = make_itinerary([(1, 1), (2, 2), (2, 4)], (1, 1), (1, 2))
        with pytest.raises(InvalidItinerary):
            enumerate_orbits(bad, 5)

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


def oracle_generators(orbits, bound):
    """The exhaustive recursion enumerate_generators used before pruning: it
    visits multiplicity 0 of every remaining orbit under every generator."""
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
    def test_random_orbit_sets(self, orbits, bound):
        assert enumerate_generators(orbits, bound) == oracle_generators(orbits, bound)


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


class TestPlaneFixedVector:
    def test_all_indices_simultaneously(self):
        alpha = current((hyperbolic_orbit(1), 1))
        inp = IndexInput(1, 0, alpha, current())
        assert fredholm_index(1, 1, [0], []) == ech_index(inp) == 1
        assert j_plus(inp)[1] == 0
