import math
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, assume, settings, strategies as st

from plumbtoric import (
    Cmp,
    InternalInvariantError,
    Landing,
    MatSL2Z,
    ParallelSameDirection,
    SL2Z_IDENTITY,
    StepClass,
    TooShort,
    WindingVerdict,
    ZeroVector,
    classify,
    continued_fraction,
    cross,
    dot,
    primitive,
    sl2z,
    sl2z_apply,
    sl2z_mul,
    step_class,
    winding_compare,
)
from plumbtoric.docio import swept_degrees_approx
from plumbtoric.lattice import spliced_counts, winding_verdict

nonzero_vec = st.tuples(
    st.integers(-9, 9), st.integers(-9, 9)
).filter(lambda v: v != (0, 0))
small_vec = st.tuples(st.integers(-3, 3), st.integers(-3, 3))  # zero included


def random_sl2z(draw_choices):
    # products of the generators S = [[0,-1],[1,0]] and T^{+-1}
    S = MatSL2Z(0, -1, 1, 0)
    T = MatSL2Z(1, 1, 0, 1)
    Ti = MatSL2Z(1, -1, 0, 1)
    m = SL2Z_IDENTITY
    for c in draw_choices:
        m = sl2z_mul(m, (S, T, Ti)[c])
    return m


sl2z_strategy = st.lists(st.integers(0, 2), max_size=8).map(random_sl2z)


class TestSL2Z:
    def test_gluing_matrix_on_axis(self):
        # A_2 for s_2 = 1 sends (0, 1) to (-1, 0)
        assert sl2z_apply(sl2z(-1, -1, 1, 0), (0, 1)) == (-1, 0)

    def test_identity(self):
        assert sl2z_apply(SL2Z_IDENTITY, (7, -3)) == (7, -3)

    def test_quarter_rotation(self):
        assert sl2z_apply(sl2z(0, -1, 1, 0), (1, 0)) == (0, 1)

    def test_rejects_wrong_determinant(self):
        with pytest.raises(ValueError):
            sl2z(1, 0, 0, -1)

    @given(sl2z_strategy, nonzero_vec, nonzero_vec)
    def test_preserves_cross(self, m, u, v):
        assert m.det() == 1
        assert cross(sl2z_apply(m, u), sl2z_apply(m, v)) == cross(u, v)


class TestPrimitive:
    def test_reduces_by_gcd(self):
        assert primitive((2, 4)) == (1, 2)
        assert primitive((-6, -9)) == (-2, -3)

    def test_rejects_zero(self):
        with pytest.raises(ZeroVector):
            primitive((0, 0))


def cf_oracle(entries):
    # straight Fraction recursion, independent of the integer-pair loop
    value = Fraction(entries[-1])
    for s in reversed(entries[:-1]):
        if value == 0:
            return None
        value = s - 1 / value
    return value


class TestContinuedFraction:
    def test_lens_example(self):
        assert continued_fraction([2, 1, 3]) == Fraction(1, 2)

    def test_single_term(self):
        assert continued_fraction([5]) == 5

    def test_undefined_tail(self):
        assert continued_fraction([3, 1, 1]) is None

    def test_empty(self):
        with pytest.raises(TooShort, match="^continued fraction of an empty sequence$"):
            continued_fraction(())

    @given(st.integers(-9, 9))
    def test_singleton(self, s):
        assert continued_fraction([s]) == s

    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=7))
    def test_matches_fraction_oracle(self, entries):
        assert continued_fraction(entries) == cf_oracle(entries)


class TestStepClass:
    def test_reflex(self):
        assert step_class((1, -2), (-1, 1)) is StepClass.REFLEX

    def test_straight(self):
        # the rays of the pair s_i = s_{i+1} = 1 span exactly a half turn
        assert step_class((1, -1), (-1, 1)) is StepClass.STRAIGHT

    def test_convex(self):
        assert step_class((1, 0), (0, 1)) is StepClass.CONVEX

    def test_rejects_positively_parallel(self):
        with pytest.raises(ParallelSameDirection):
            step_class((1, 1), (2, 2))

    def test_rejects_zero(self):
        with pytest.raises(ZeroVector):
            step_class((0, 0), (1, 0))

    @staticmethod
    def _cross_dot_rule(u, v):
        # the zero/parallel/cross/dot rule, written out on its own
        if (u[0], u[1]) == (0, 0) or (v[0], v[1]) == (0, 0):
            raise ZeroVector("rays must be nonzero")
        c = cross(u, v)
        if c > 0:
            return StepClass.CONVEX
        if c < 0:
            return StepClass.REFLEX
        if dot(u, v) < 0:
            return StepClass.STRAIGHT
        raise ParallelSameDirection("rays %s and %s point the same way" % (u, v))

    @settings(max_examples=300)
    @given(small_vec, small_vec)
    def test_matches_cross_dot_rule(self, u, v):
        def outcome(f):
            try:
                return f(u, v)
            except (ZeroVector, ParallelSameDirection) as exc:
                return type(exc).__name__, str(exc)

        assert outcome(step_class) == outcome(self._cross_dot_rule)

    @given(sl2z_strategy, nonzero_vec, nonzero_vec)
    def test_invariant_under_sl2z(self, m, u, v):
        assume(not (cross(u, v) == 0 and dot(u, v) > 0))
        assert step_class(sl2z_apply(m, u), sl2z_apply(m, v)) is step_class(u, v)


def float_angle_sum(rays):
    total = 0.0
    for u, v in zip(rays, rays[1:]):
        ang = math.atan2(cross(u, v), dot(u, v))
        total += ang if ang > 0 else ang + 2 * math.pi
    return total


valid_ray_sequence = st.lists(nonzero_vec, min_size=2, max_size=6).filter(
    lambda rays: all(
        not (cross(u, v) == 0 and dot(u, v) > 0) for u, v in zip(rays, rays[1:])
    )
)


def _turned_left(rays):
    # each ray after the first, negated if need be to turn CCW from the last
    out = [rays[0]]
    for v in rays[1:]:
        out.append(v if cross(out[-1], v) > 0 else (-v[0], -v[1]))
    return out


# convex steps by construction: only the rare parallel draws are filtered
convex_chains = (
    st.lists(nonzero_vec, min_size=2, max_size=4)
    .filter(lambda rays: all(cross(u, v) != 0 for u, v in zip(rays, rays[1:])))
    .map(_turned_left)
)


class TestWindingCompare:
    def test_below_half_turn(self):
        rays = [(1, 2), (0, 1), (-1, 0), (-1, -1)]
        w = winding_compare(rays)
        assert w.vs_pi is Cmp.LT
        assert abs(swept_degrees_approx(rays) - 161.565) < 1e-2

    def test_beyond_full_turn(self):
        w = winding_compare([(1, -2), (-1, 1), (2, -3)])
        assert w.vs_two_pi is Cmp.GT
        assert w.vs_pi is Cmp.GT

    def test_exact_half_turn(self):
        w = winding_compare([(1, -1), (-1, 1)])
        assert w.vs_pi is Cmp.EQ
        assert w.vs_two_pi is Cmp.LT

    def test_exact_full_turn(self):
        w = winding_compare([(1, 0), (-1, 0), (1, 0)])
        assert w.vs_pi is Cmp.GT
        assert w.vs_two_pi is Cmp.EQ

    def test_needs_two_rays(self):
        from plumbtoric import TooShort

        with pytest.raises(TooShort):
            winding_compare([(1, 0)])

    @given(valid_ray_sequence)
    def test_two_pi_gt_implies_pi_gt(self, rays):
        w = winding_compare(rays)
        if w.vs_two_pi is Cmp.GT:
            assert w.vs_pi is Cmp.GT

    @given(valid_ray_sequence)
    def test_eq_pi_means_antiparallel_end(self, rays):
        w = winding_compare(rays)
        if w.vs_pi is Cmp.EQ:
            u, v = rays[0], rays[-1]
            assert cross(u, v) == 0 and dot(u, v) < 0

    @given(convex_chains)
    def test_convex_chains_match_float_sum(self, rays):
        assert all(cross(u, v) > 0 for u, v in zip(rays, rays[1:]))
        total = float_angle_sum(rays)
        assume(abs(total - math.pi) > 1e-6)
        w = winding_compare(rays)
        assert (w.vs_pi is Cmp.GT) == (total > math.pi)
        assert abs(math.radians(swept_degrees_approx(rays)) - total) < 1e-9

    @given(valid_ray_sequence)
    def test_approx_close_to_float_sum(self, rays):
        assert abs(math.radians(swept_degrees_approx(rays)) - float_angle_sum(rays)) < 1e-9


def oracle_winding(rays):
    # the two-marker count with its self-checks, as the library had it
    if len(rays) < 2:
        raise TooShort("need at least two rays")
    w0x, w0y = rays[0][0], rays[0][1]
    if w0x == 0 and w0y == 0:
        raise ZeroVector("rays must be nonzero")
    crossings = [0, 0]  # [start, antipode]
    final_landing = None
    last = len(rays) - 1
    ux, uy = w0x, w0y
    # cross/dot signs are computed inline: this loop dominates the survey
    for idx in range(1, len(rays)):
        v = rays[idx]
        vx, vy = v[0], v[1]
        if vx == 0 and vy == 0:
            raise ZeroVector("rays must be nonzero")
        c = ux * vy - uy * vx
        if c == 0:
            d = ux * vx + uy * vy
            if d > 0:
                raise ParallelSameDirection(
                    "rays %s and %s point the same way" % ((ux, uy), (vx, vy))
                )
        for which in (0, 1):
            if which:
                mx, my = -w0x, -w0y
            else:
                mx, my = w0x, w0y
            c_um = ux * my - uy * mx
            c_mv = mx * vy - my * vx
            if c > 0:
                inside = c_um > 0 and c_mv > 0
            elif c < 0:
                inside = c_um > 0 or c_mv > 0
            else:
                inside = c_um > 0
            if inside:
                crossings[which] += 1
            elif c_mv == 0 and mx * vx + my * vy > 0:
                if idx == last:
                    final_landing = Landing.START if which == 0 else Landing.ANTIPODE
                else:
                    crossings[which] += 1
        ux, uy = vx, vy
    c = crossings[0] + crossings[1]
    # markers alternate starting with the antipode at angle pi
    if crossings[1] != (c + 1) // 2 or crossings[0] != c // 2:
        raise InternalInvariantError(
            "marker alternation violated: %s for rays %s" % (crossings, rays)
        )
    if final_landing is Landing.ANTIPODE and c % 2 != 0:
        raise InternalInvariantError("antipode landing with odd crossing count")
    if final_landing is Landing.START and c % 2 != 1:
        raise InternalInvariantError("start landing with even crossing count")

    if c >= 1:
        vs_pi = Cmp.GT
    elif final_landing is Landing.ANTIPODE:
        vs_pi = Cmp.EQ
    else:
        vs_pi = Cmp.LT
    if c >= 2:
        vs_two_pi = Cmp.GT
    elif c == 1 and final_landing is Landing.START:
        vs_two_pi = Cmp.EQ
    else:
        vs_two_pi = Cmp.LT
    return WindingVerdict(
        vs_pi=vs_pi,
        vs_two_pi=vs_two_pi,
        crossings_of_start=crossings[0],
        crossings_of_antipode=crossings[1],
        final_landing=final_landing,
    )


def winding_outcome(compare, rays):
    try:
        return compare(rays)
    except (TooShort, ZeroVector, ParallelSameDirection) as exc:
        return type(exc), str(exc)


# small coordinates make zero rays, same-direction steps and exact landings on
# +-w0 frequent; the wider range adds long reflex steps
any_vec = st.one_of(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
)

E, N, W, S = (1, 0), (0, 1), (-1, 0), (0, -1)
LT, EQ, GT = Cmp.LT, Cmp.EQ, Cmp.GT
START, ANTIPODE = Landing.START, Landing.ANTIPODE

# (rays, vs_pi, vs_two_pi, crossings_of_start, crossings_of_antipode, landing)
WRAP_CASES = [
    # two full turns, landing on w0 at an interior step and at the last one
    ([E, N, W, S] * 2 + [E], GT, GT, 1, 2, START),
    # three full turns, then a straight step onto -w0
    ([E, N, W, S] * 3 + [E, W], GT, GT, 3, 3, ANTIPODE),
    # two wraps ending below w0: 990 degrees
    ([E, N, W, S] * 3, GT, GT, 2, 3, None),
    # convex steps inside one half-plane, ending exactly on -w0: a half turn
    ([E, (2, 1), (1, 1), (1, 2), W], EQ, LT, 0, 0, ANTIPODE),
    # the same convex steps in each of two full turns, then onto -w0: 900 degrees
    ([E, (2, 1), (1, 1), N, W, S] * 2 + [E, (1, 1), W], GT, GT, 2, 2, ANTIPODE),
    # interior landing on -w0, then past it and past w0: 405 degrees
    ([E, N, W, S, (1, 1)], GT, GT, 1, 1, None),
    # two reflex steps that stay in the half-plane cross(w0, .) > 0
    ([E, (1, 2), (1, 1), (2, 1)], GT, GT, 2, 2, None),
    # two reflex steps that stay in the half-plane cross(w0, .) < 0
    ([(2, 1), (1, -1), (1, -2), (1, -3)], GT, GT, 2, 3, None),
    # reflex steps onto -w0 at the end: 540 degrees
    ([E, S, W], GT, GT, 1, 1, ANTIPODE),
    # one reflex step and a convex one back onto w0: exactly a full turn
    ([E, S, E], GT, EQ, 0, 1, START),
    # a single reflex step below w0: 270 degrees
    ([E, S], GT, LT, 0, 1, None),
    # w0 off the axes: a straight step, then two full turns back onto -w0
    ([(2, 1)] + [(-2, -1), (1, -3), (2, 1), (-1, 2)] * 2 + [(-2, -1)], GT, GT, 2, 2, ANTIPODE),
]


class TestWindingOracle:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(any_vec, min_size=1, max_size=8))
    def test_matches_oracle(self, rays):
        assert winding_outcome(winding_compare, rays) == winding_outcome(oracle_winding, rays)

    @pytest.mark.parametrize("rays, vs_pi, vs_two_pi, start, antipode, landing", WRAP_CASES)
    def test_multi_wrap_and_landings(self, rays, vs_pi, vs_two_pi, start, antipode, landing):
        w = winding_compare(rays)
        assert (w.vs_pi, w.vs_two_pi) == (vs_pi, vs_two_pi)
        assert (w.crossings_of_start, w.crossings_of_antipode) == (start, antipode)
        assert w.final_landing is landing
        assert w == oracle_winding(rays)

    @pytest.mark.parametrize(
        "rays, error",
        [
            ([(0, 0), E], ZeroVector),
            ([E, N, (0, 0)], ZeroVector),
            ([E, N, (0, 2)], ParallelSameDirection),
            ([E, (3, 0)], ParallelSameDirection),
            ([E, (2, 0), (0, 0)], ParallelSameDirection),
        ],
    )
    def test_error_types_match_oracle(self, rays, error):
        assert winding_outcome(winding_compare, rays)[0] is error
        assert winding_outcome(winding_compare, rays) == winding_outcome(oracle_winding, rays)


def ray_position(w0, v):
    """0 on w0, 1 where cross(w0, v) > 0, 2 on -w0, 3 where cross(w0, v) < 0."""
    side = cross(w0, v)
    return 1 if side > 0 else 3 if side < 0 else 0 if dot(w0, v) > 0 else 2


class TestSplicedCounts:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(any_vec, any_vec), min_size=2, max_size=7), st.data())
    def test_matches_winding_compare(self, pairs, data):
        head, tail = [p[0] for p in pairs], [p[1] for p in pairs]
        ks = sorted(data.draw(st.sets(st.integers(1, len(pairs) - 1), min_size=1)))
        outcomes = [winding_outcome(winding_compare, head[:k] + tail[k:]) for k in ks]
        if any(isinstance(w, tuple) for w in outcomes):
            # the pass reads exactly the steps of the spliced sequences
            with pytest.raises((ZeroVector, ParallelSameDirection)):
                spliced_counts(head, tail, ks)
        else:
            expected = [w.crossings_of_start + w.crossings_of_antipode for w in outcomes]
            counts, last = spliced_counts(head, tail, ks)
            assert counts == expected
            # tail[-1] ends every spliced sequence
            assert last == ray_position(head[0], tail[-1])

    def test_counts_per_switch_point(self):
        # switching at k = 1 takes the tail's extra full turn (675 degrees);
        # switching later takes the head's short path (315 degrees)
        head = [E, (2, 1), (1, 2), N]
        tail = [None, (-1, 1), (1, 1), (1, -1)]
        # every sequence ends on (1, -1), below w0 = E: position 3
        assert spliced_counts(head, tail, [1, 2, 3]) == ([3, 1, 1], 3)
        assert spliced_counts(head, tail, [2]) == ([1], 3)


class TestWindingVerdictShared:
    """``winding_verdict`` returns one shared instance per argument pair,
    equal in every way to the verdict the public constructor builds."""

    @pytest.mark.parametrize("passed", range(6))
    @pytest.mark.parametrize("last", range(4))
    def test_equals_public_constructor(self, passed, last):
        landing = {0: Landing.START, 2: Landing.ANTIPODE}.get(last)
        vs_pi = Cmp.GT if passed else Cmp.EQ if last == 2 else Cmp.LT
        vs_two_pi = Cmp.GT if passed > 1 else Cmp.EQ if (passed, last) == (1, 0) else Cmp.LT
        built = WindingVerdict(vs_pi, vs_two_pi, passed // 2, (passed + 1) // 2, landing)
        shared = winding_verdict(passed, last)
        assert shared == built
        assert hash(shared) == hash(built)
        assert repr(shared) == repr(built)
        assert winding_verdict(passed, last) is shared
        with pytest.raises(FrozenInstanceError):
            shared.vs_pi = Cmp.LT

    def test_cache_stays_bounded(self):
        # (3,) * k is positive definite, so its count is c = b+(Q) - 1 = k - 1:
        # one new argument pair per k, past the cache's size
        maxsize = winding_verdict.cache_info().maxsize
        assert maxsize is not None
        for k in range(2, maxsize + 10):
            w = classify((3,) * k).winding
            assert w.crossings_of_start + w.crossings_of_antipode == k - 1
            assert winding_verdict.cache_info().currsize <= maxsize
