import copy
import dataclasses
import itertools
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings, strategies as st

from plumbtoric import (
    BoundaryReport,
    Cmp,
    InconsistentInvariant,
    InternalInvariantError,
    MomentPolygon,
    PolygonEdge,
    MinusOnePresent,
    NonpositiveArea,
    NoNonnegativeEntry,
    NotConcaveCase,
    NotCoprime,
    NotDelzantCorner,
    PlumbtoricError,
    SizeTooLarge,
    TooShort,
    Verdict,
    ZeroVector,
    areas,
    blow_down,
    blow_up_corner,
    boundary_rays,
    choose_heights,
    classify,
    continued_fraction,
    cross,
    decompose,
    det_intersection,
    lens_equivalent,
    lens_invariant,
    moment_polygon,
    ray_sequence,
)
from plumbtoric import lattice, plumbing, toric
from plumbtoric.plumbing import area_vector

# chains acceptable to the construction: no -1, at least one entry >= 0
construction_chains = (
    st.lists(st.integers(-6, 4).filter(lambda v: v != -1), min_size=2, max_size=8)
    .map(tuple)
    .filter(lambda s: any(v >= 0 for v in s))
)


def pivots_of(s):
    return [i for i in range(1, len(s) + 1) if s[i - 1] >= 0]


class TestDecompose:
    def test_four_vertices(self):
        dec = decompose((-2, 1, 0, -2), 2)
        assert dec.pairs == ((-2, 0), (1, 0), (0, -2))

    def test_two_vertices(self):
        assert decompose((3, -2), 1).pairs == ((3, -2),)

    def test_lens_example(self):
        assert decompose((2, 1, 3), 1).pairs == ((2, 1), (0, 3))

    def test_last_pivot_reuses_previous_pattern(self):
        assert decompose((-2, -3, 4), 3).pairs == ((-2, 0), (-3, 4))
        assert decompose((-2, 3, 4), 3).pairs == decompose((-2, 3, 4), 2).pairs

    def test_errors(self):
        with pytest.raises(TooShort):
            decompose((5,), 1)
        with pytest.raises(MinusOnePresent):
            decompose((-1, 2), 2)
        with pytest.raises(NoNonnegativeEntry):
            decompose((-2, -3), 1)
        with pytest.raises(NoNonnegativeEntry):
            decompose((-2, 3), 3)

    @given(
        st.lists(st.integers(-4, 3).filter(lambda v: v != -1), min_size=2, max_size=8)
        .map(tuple)
        .filter(lambda s: any(v >= 0 for v in s))
    )
    def test_every_pair_has_a_nonnegative_member(self, s):
        for i in pivots_of(s):
            assert all(max(pair) >= 0 for pair in decompose(s, i).pairs), (s, i)

    def test_gate_checks_minus_one_before_length(self):
        for fn in (lambda s: decompose(s, 1), lens_invariant, classify):
            with pytest.raises(MinusOnePresent):
                fn((-1,))


class TestChooseHeights:
    def test_four_vertex_example(self):
        assert choose_heights((-2, 1, 0, -2), 2) == (-1, -3, -3, -1)

    def test_negative_second_entry(self):
        assert choose_heights((3, -2), 1) == (-3, -1)

    def test_nonnegative_pair(self):
        assert choose_heights((2, 3), 1) == (-1, -1)

    @given(construction_chains, st.data())
    def test_satisfies_witness_inequalities(self, s, data):
        from plumbtoric import negative_gs_check

        i = data.draw(st.sampled_from(pivots_of(s)))
        z = choose_heights(s, i)
        assert all(v < 0 for v in z)
        witness = negative_gs_check(s, z)
        assert isinstance(witness, tuple)
        assert witness == areas(s, z)


class TestAreas:
    def test_four_vertex_figure(self):
        assert areas((-2, 1, 0, -2), (-1, -3, -3, -1)) == (1, 7, 4, 1)

    def test_two_vertex_cases(self):
        assert areas((2, 3), (-1, -1)) == (3, 4)
        assert areas((3, -2), (-3, -1)) == (10, 1)

    def test_bad_heights(self):
        with pytest.raises(NonpositiveArea):
            areas((3, -2), (-1, -1))


class TestRaySequence:
    def test_lens_example(self):
        assert ray_sequence((2, 1, 3), 1).w == ((1, -2), (-1, 1), (2, -3))

    def test_four_vertex_example(self):
        assert ray_sequence((-2, 1, 0, -2), 2).w == ((1, 2), (0, 1), (-1, 0), (-1, -1))

    def test_family_endpoints(self):
        first, last = boundary_rays((3, -2, -2), 1)
        assert (first, last) == ((1, -3), (3, 2))

    @given(construction_chains, st.data())
    def test_step_cross_identity(self, s, data):
        i = data.draw(st.sampled_from(pivots_of(s)))
        dec = decompose(s, i)
        rays = ray_sequence(s, i).w
        for j, (a, b) in enumerate(dec.pairs, start=1):
            assert cross(rays[j - 1], rays[j]) == 1 - a * b

    @given(construction_chains)
    def test_boundary_rays_pivot_independent(self, s):
        expected = None
        for i in pivots_of(s):
            pair = boundary_rays(s, i)
            if expected is None:
                expected = pair
            assert pair == expected


class TestClassify:
    def test_figure_triple(self):
        # the -1 end sphere is an exceptional divisor; blow it down first
        assert classify((-2, 1, 0, -1), reduce=True).verdict is Verdict.OVERTWISTED
        assert classify((-2, 1, 0, -2)).verdict is Verdict.TIGHT
        assert classify((-2, 1, 0, -3)).verdict is Verdict.TIGHT

    def test_whole_plane_example(self):
        report = classify((2, 1, 3))
        assert report.verdict is Verdict.OVERTWISTED
        assert report.cone_is_whole_plane
        assert report.winding.vs_two_pi is Cmp.GT

    def test_requires_reduce_flag(self):
        with pytest.raises(MinusOnePresent):
            classify((2, -1, 2))
        assert classify((2, -1, 2), reduce=True).chain == (3, 3)

    def test_not_concave(self):
        # all entries <= -2 is the convex, negative definite regime
        with pytest.raises(NotConcaveCase) as err:
            classify((-2, -2))
        assert err.value.negative_definite is True
        with pytest.raises(NotConcaveCase) as err:
            classify((-3, -2, -5))
        assert err.value.negative_definite is True

    @given(construction_chains)
    def test_det_identity(self, s):
        report = classify(s)
        assert report.det_check and report.det == det_intersection(s)
        r1, r2 = report.rays.w[0], report.rays.w[-1]
        assert det_intersection(s) == (-1) ** (len(s) - 1) * cross(r1, r2)

    @given(construction_chains)
    def test_reversal_preserves_verdict_and_lens_class(self, s):
        rev = tuple(reversed(s))
        a, b = classify(s), classify(rev)
        assert a.verdict is b.verdict
        assert lens_equivalent(a.lens, b.lens)


def sweep_sample(size=400, seed=6):
    """A seeded sample of the criterion-06 chains: entries in [-4, 3] without
    -1, some entry >= 0, lengths 2..6."""
    rng, values, out = random.Random(seed), (-4, -3, -2, 0, 1, 2, 3), []
    while len(out) < size:
        s = tuple(rng.choice(values) for _ in range(rng.randint(2, 6)))
        if any(v >= 0 for v in s):
            out.append(s)
    return out


def public_report(s):
    """The report of s through the public constructor, each field from a
    public function: the rays of the smallest valid pivot and their winding."""
    pivot = pivots_of(s)[0]
    rays = ray_sequence(s, pivot)
    winding = lattice.winding_compare(rays.w)
    return BoundaryReport(
        chain=s,
        pivot=pivot,
        rays=rays,
        winding=winding,
        verdict=Verdict.OVERTWISTED if winding.vs_pi is Cmp.GT else Verdict.TIGHT,
        lens=lens_invariant(s),
        det=det_intersection(s),
        det_check=True,
        cone_is_whole_plane=winding.vs_two_pi is not Cmp.LT,
    )


class TestTrustedReport:
    """classify builds its report past the frozen __init__; the result is
    the report the public constructor builds from the same fields."""

    def test_equals_public_constructor(self):
        for s in sweep_sample():
            report = classify(s)
            built = BoundaryReport(**{f.name: getattr(report, f.name) for f in dataclasses.fields(report)})
            assert report == built == public_report(s)
            assert hash(report) == hash(built) and repr(report) == repr(built)
            assert pickle.loads(pickle.dumps(report)) == report
            assert copy.deepcopy(report) == report
            assert dataclasses.replace(report) == report
            assert dataclasses.replace(report, det=report.det + 1) != report
            with pytest.raises(dataclasses.FrozenInstanceError):
                report.det = 0

    def test_sample_covers_every_verdict(self):
        reports = [classify(s) for s in sweep_sample()]
        assert {r.verdict for r in reports} == set(Verdict)
        assert {r.winding.vs_pi for r in reports} == set(Cmp)
        assert any(r.cone_is_whole_plane for r in reports)


def fold(s):
    """The walk's state after each prefix s_1..s_j, j = 1..n, as ``classify``
    folds ``toric._advance``; the last three fields of each are d_(j-1),
    d_j and b+ of Q(s_1..s_j)."""
    stack = [toric._advance(None, s, 1)]
    for j in range(2, len(s) + 1):
        stack.append(toric._advance(stack[-1], s, j))
    return stack


def sweep_counts(s):
    """Every valid pivot's count from the walk ``classify`` makes: pivot i,
    with k = min(i, n - 1), counts 2 (offset + tail wraps) + end, where the
    offset is the one of the state after s_1..s_(k+1) and the tail wraps and
    the last position are those of the state after all of s."""
    stack = fold(s)
    toric._finish(s, stack[-1])
    tail_pos, tail_wraps = stack[-1][8:10]
    end = (tail_pos == 3) - (tail_pos == 0)
    return [(i, 2 * (stack[min(i, len(s) - 1)][10] + tail_wraps) + end) for i in pivots_of(s)]


def product_rays(s, i):
    """w_0 = (1, -s_1), w_j = A_2...A_j (-b_j, 1) by explicit SL(2,Z) products."""
    k = min(i, len(s) - 1)
    m, rays = lattice.SL2Z_IDENTITY, [(1, -s[0])]
    for j in range(1, len(s)):
        if j >= 2:
            m = lattice.sl2z_mul(m, toric.gluing_matrix(s[j - 1]))
        rays.append(lattice.sl2z_apply(m, (-(s[j] if j >= k else 0), 1)))
    return tuple(rays)


def assert_sweep_matches_winding(s):
    for i, count in sweep_counts(s):
        rays = ray_sequence(s, i).w
        assert rays == product_rays(s, i), (s, i)
        w = lattice.winding_compare(rays)
        assert count == w.crossings_of_start + w.crossings_of_antipode, (s, i)


class TestPivotSweep:
    """The one-pass count of every pivot against winding_compare on its rays,
    which are checked against the explicit matrix products."""

    def test_exhaustive_short_chains(self):
        values = [v for v in range(-4, 4) if v != -1]
        for n in (2, 3, 4):
            for s in itertools.product(values, repeat=n):
                if any(v >= 0 for v in s):
                    assert_sweep_matches_winding(s)

    @given(
        st.lists(st.integers(-5, 5).filter(lambda v: v != -1), min_size=2, max_size=10)
        .map(tuple)
        .filter(lambda s: any(v >= 0 for v in s))
    )
    @settings(max_examples=200)
    def test_long_chains(self, s):
        assert_sweep_matches_winding(s)


class TestStepLemma:
    """The step lemma of the walk: with M_j = A_2 ... A_j of determinant 1,
    head and tail steps have cross 1 and the junction at k has cross
    1 - s_k s_(k+1), so no step of a chain without -1 sees two rays that
    point the same way."""

    @given(st.lists(st.integers(-8, 8).filter(lambda v: v != -1), min_size=2, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_step_crosses(self, s):
        head, tail = toric._candidate_rays(s)
        w0x, w0y = head[0]
        steps = list(zip(head, head[1:])) + list(zip(tail[1:], tail[2:]))
        for u, v in steps:
            assert cross(u, v) == 1, (s, u, v)
        for k in range(1, len(s)):
            u, v = head[k - 1], tail[k]
            assert cross(u, v) == 1 - s[k - 1] * s[k], (s, k)
            if cross(u, v) == 0:
                assert lattice.dot(u, v) < 0, (s, k)  # antiparallel
            steps.append((u, v))
        for u, v in steps:
            lattice._step(w0x, w0y, u, 0, v)  # raises ParallelSameDirection on a same-way pair
        if max(s) >= 0:
            classify(s)


    @given(st.lists(st.one_of(st.just(-1), st.integers(-4, 4)), min_size=2, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_minus_one_junctions(self, s):
        # at a (-1, -1) junction the rays are one ray, tail[k] = head[k-1],
        # whose position the walk reads off the head; every other step keeps
        # its cross and never meets two rays that point the same way
        head, tail = toric._candidate_rays(s)
        w0x, w0y = head[0]
        for k in range(1, len(s)):
            u, v = head[k - 1], tail[k]
            assert cross(u, v) == 1 - s[k - 1] * s[k], (s, k)
            if s[k - 1] == s[k] == -1:
                assert u == v, (s, k)
            else:
                lattice._step(w0x, w0y, u, 0, v)


def jacobi_signature(s):
    """(b+, b-) of Q by Jacobi's rule over the leading minors of the
    reversed chain, 1, K(s_n), K(s_(n-1), s_n), ..., K(s_1..s_n), those of
    Q with its order reversed: a permanence of sign is a positive eigenvalue
    and a change a negative one.  An interior zero takes the sign of the
    minor before it (the next minor is minus the one before it then, so the
    pair around it counts once either way); a final zero is the kernel and
    counts for neither."""
    signs = [1]
    for d in plumbing._minors(s[::-1]):
        signs.append((d > 0) - (d < 0) or signs[-1])
    steps = list(zip(signs, signs[1:]))
    if d == 0:
        steps.pop()
    return sum(a == b for a, b in steps), sum(a != b for a, b in steps)


class TestSignature:
    """The sweep count of every pivot is b+(Q) - 1, read here off the
    minors of the reversed chain, a different nested sequence from the
    forward one classify carries."""

    @given(
        st.lists(st.integers(-8, 8).filter(lambda v: v != -1), min_size=2, max_size=60)
        .map(tuple)
        .filter(lambda s: any(v >= 0 for v in s))
    )
    @settings(max_examples=200, deadline=None)
    def test_sweep_count_is_b_plus_minus_one(self, s):
        b_plus = jacobi_signature(s)[0]
        for i, count in sweep_counts(s):
            assert count == b_plus - 1, (s, i)

    @given(
        st.sampled_from([(-8, 8), (-8, -1)]).flatmap(
            lambda r: st.lists(st.integers(*r), min_size=1, max_size=60)
        )
    )
    @settings(max_examples=200, deadline=None)
    # b+ = 0 with a kernel, so only the det != 0 clause refuses them
    @example((-1, -1))
    @example((-2, -1, -2))
    def test_negative_definite_iff_b_minus_is_n(self, s):
        assert plumbing.is_negative_definite(s) is (jacobi_signature(s)[1] == len(s))

    @pytest.mark.parametrize(
        "s, signature",
        [((1, 1), (1, 0)), ((0, 0), (1, 1)), ((1, 1, 1), (2, 1)), ((-2, -2), (0, 2))],
    )
    def test_zero_minors(self, s, signature):
        # (1, 1) ends on a zero minor (a kernel); (0, 0) and (1, 1, 1) have
        # an interior one, in both directions; b+ is read off the folded state
        assert jacobi_signature(s) == signature
        assert fold(s)[-1][-1] == signature[0]

    @given(st.lists(st.integers(-8, 8), min_size=1, max_size=60).map(tuple))
    @settings(max_examples=200, deadline=None)
    def test_carried_minors(self, s):
        # each prefix state carries d_(j-1), d_j and b+ as _minors and
        # _inertia give them; the last two meet K(s_2..s_n) and K(s_2..s_(n-1))
        # in the unit identity of the lens check; and b+ is the same from
        # either end of the chain (Sylvester's law of inertia)
        for j, state in enumerate(fold(s), start=1):
            d = [1, *plumbing._minors(s[:j])]
            b_plus, d0, d1 = plumbing._inertia(s[:j])
            assert state[-3:] == (d[-2], d[-1], b_plus) == (d0, d1, b_plus), (s, j)
        tails = [0, 1, *plumbing._minors(s[1:])]  # tails[m] = K(s_2..s_m)
        d0, det = fold(s)[-1][-3:-1]
        assert d0 * tails[-1] - det * tails[-2] == 1, s
        assert plumbing._inertia(s)[0] == plumbing._inertia(s[::-1])[0], s


class TestCrossChecksFire:
    """Each internal cross-check of classify raises on bad data."""

    def test_lens_routes(self, monkeypatch):
        # the forward minors of (3, -2, -2) are 3, -7, 11 and its ray pair is
        # (11, 3): det Q = 11 is the k half, and 3 d_2 = -21 = 1 mod 11 the
        # l half; the carried (d_2, d_3) = (-7, 12) breaks only the k half and
        # (-6, 11) only the l half
        assert fold((3, -2, -2))[-1][-3:-1] == (-7, 11)
        real = toric._advance
        for pair in ((-7, 12), (-6, 11)):
            def corrupt(state, s, j, pair=pair):
                new = real(state, s, j)
                return new[:-3] + pair + new[-1:] if j == len(s) else new

            monkeypatch.setattr(toric, "_advance", corrupt)
            with pytest.raises(InconsistentInvariant, match=r"^ray pair \(11, 3\) disagrees"):
                classify((3, -2, -2))
            with pytest.raises(InconsistentInvariant, match=r"^ray pair \(11, 3\) disagrees"):
                lens_invariant((3, -2, -2))

    def test_lens_routes_zero_tail(self, monkeypatch):
        # (3, 0, 0) has no continued fraction, since its inner tails vanish.
        # (r_x + 1, r_y - 3) keeps cross(w_0, r) = 3 r_x + r_y but moves
        # l = r_x, so the terminal ray (-1, 0) becomes (0, -3), which
        # normalizes to (3, 0) in place of (3, 1).
        # The walk's last state carries the ray to the lens check, which
        # lens_invariant and classify both run.
        real = toric._advance

        def corrupt_last(state, s, j):
            new = real(state, s, j)
            if j < len(s):
                return new
            rx, ry = new[7]
            return new[:7] + ((rx + 1, ry - 3),) + new[8:]

        assert lens_invariant((3, 0, 0)) == (3, 1)
        message = r"^ray pair \(-3, 0\) disagrees"
        monkeypatch.setattr(toric, "_advance", corrupt_last)
        with pytest.raises(InconsistentInvariant, match=message):
            lens_invariant((3, 0, 0))
        with pytest.raises(InconsistentInvariant, match=message):
            classify((3, 0, 0))

    def test_lens_routes_zero_k(self, monkeypatch):
        # where k = 0 the l half is exact: (1, 1) has k = d_2 = 0 and d_1 = 1,
        # so its l = -1 is the only value that passes, and d_1 = -1 raises
        real = toric._advance

        def corrupt(state, s, j):
            new = real(state, s, j)
            return new[:-3] + (-1,) + new[-2:] if j == len(s) else new

        assert fold((1, 1))[-1][-3:-1] == (1, 0)
        monkeypatch.setattr(toric, "_advance", corrupt)
        with pytest.raises(InconsistentInvariant, match=r"^ray pair \(0, -1\) disagrees"):
            classify((1, 1))

    def test_pivot_independence(self, monkeypatch):
        # (2, 1, 3) is overtwisted; one wrap less at pivot 2's junction,
        # head[1] -> tail[2], corrupts its count to tight
        real = toric._step
        head, tail = toric._candidate_rays((2, 1, 3))
        assert dict(sweep_counts((2, 1, 3)))[2] == 2

        def corrupt_second(w0x, w0y, u, pu, v):
            p, wrap = real(w0x, w0y, u, pu, v)
            return p, wrap - ((u, v) == (head[1], tail[2]))

        monkeypatch.setattr(toric, "_step", corrupt_second)
        message = "pivot 2 sweep count 0 != b+(Q) - 1 = 2 for (2, 1, 3)"
        with pytest.raises(InternalInvariantError, match=re.escape(message)):
            classify((2, 1, 3))

    @pytest.mark.parametrize("side, pivot", [(0, 2), (1, 1)], ids=["head", "tail"])
    def test_corrupted_ray_sequence(self, monkeypatch, side, pivot):
        # (2, 1, 3): pivot 1 has the rays w0, tail[1], tail[2] and pivot 2
        # has w0, head[1], tail[2] = (2, -3).  (3, -5) lies just clockwise of
        # the last ray, so the pivot fed it sweeps less than a half turn.
        # The walk's steps see (3, -5) wherever they see that ray.
        real = toric._step
        ray = toric._candidate_rays((2, 1, 3))[side][1]

        def corrupt(w0x, w0y, u, pu, v):
            return real(w0x, w0y, (3, -5) if u == ray else u, pu, (3, -5) if v == ray else v)

        monkeypatch.setattr(toric, "_step", corrupt)
        message = "pivot %d sweep count 0 != b+(Q) - 1 = 2 for (2, 1, 3)" % pivot
        with pytest.raises(InternalInvariantError, match=re.escape(message)):
            classify((2, 1, 3))

    def test_sweep_matches_winding_compare(self, monkeypatch):
        # one wrap more at pivot 1's junction, w_0 -> tail[1]
        real = toric._step
        head, tail = toric._candidate_rays((3, -2, -2))

        def corrupt_first(w0x, w0y, u, pu, v):
            p, wrap = real(w0x, w0y, u, pu, v)
            return p, wrap + ((u, v) == (head[0], tail[1]))

        monkeypatch.setattr(toric, "_step", corrupt_first)
        message = "pivot 1 sweep count 2 != b+(Q) - 1 = 0 for (3, -2, -2)"
        with pytest.raises(InternalInvariantError, match=re.escape(message)):
            classify((3, -2, -2))

    def test_last_pivot_checked(self, monkeypatch):
        # (2, -2, 3) has the pivots 1 and 3; pivot 3 takes k = 2, so only its
        # junction head[1] -> tail[2] gets one wrap more
        real = toric._step
        head, tail = toric._candidate_rays((2, -2, 3))

        def corrupt_last(w0x, w0y, u, pu, v):
            p, wrap = real(w0x, w0y, u, pu, v)
            return p, wrap + ((u, v) == (head[1], tail[2]))

        monkeypatch.setattr(toric, "_step", corrupt_last)
        message = "pivot 3 sweep count 3 != b+(Q) - 1 = 1 for (2, -2, 3)"
        with pytest.raises(InternalInvariantError, match=re.escape(message)):
            classify((2, -2, 3))

    def test_signature_sign(self, monkeypatch):
        # the forward minors of (2, 1, 3) are 2, 1, 1, so b+(Q) = 3; a sign
        # test that reads one permanence as a change keeps the minors, and
        # with them the lens check, but leaves b+(Q) = 2 against the sweep's
        # count of 2, whichever step it strikes
        assert [state[-3:] for state in fold((2, 1, 3))] == [(1, 2, 1), (2, 1, 2), (1, 1, 3)]
        real = toric._advance
        message = "pivot 1 sweep count 2 != b+(Q) - 1 = 1 for (2, 1, 3)"
        for j0 in (1, 2, 3):
            def corrupt(state, s, j, j0=j0):
                new = real(state, s, j)
                return new[:-1] + (new[-1] - (j == j0),)

            monkeypatch.setattr(toric, "_advance", corrupt)
            with pytest.raises(InternalInvariantError, match=re.escape(message)):
                classify((2, 1, 3))

    def test_determinant_identity(self, monkeypatch):
        # det Q = (-1)^(n-1) cross(w_0, w_last) is the k half of the lens
        # check: it holds on good data, and shifting the carried det Q alone
        # raises
        for s in ((3, -2, -2), (2, 1, 3), (0, -3, 2, -5)):
            report = classify(s)
            assert report.det_check and report.det == det_intersection(s)
        real = toric._advance

        def shift_det(state, s, j):
            new = real(state, s, j)
            return new[:-2] + (new[-2] + 1, new[-1]) if j == len(s) else new

        monkeypatch.setattr(toric, "_advance", shift_det)
        for s in ((3, -2, -2), (2, 1, 3), (0, -3, 2, -5)):
            with pytest.raises(InconsistentInvariant, match="disagrees with continuant pair"):
                classify(s)

    @pytest.mark.parametrize("s", [(3, -2, -2), (3, 0, 0), (2, 1, 3), (0, -3, 2, -5)])
    def test_one_continuant_pass(self, monkeypatch, s):
        # det Q, the lens check and b+(Q) ride on the walk's one step per
        # entry, with no continuant pass of their own
        real_step, real_minors, calls = toric._advance, plumbing._minors, []

        def counted_step(state, chain, j):
            calls.append("step")
            return real_step(state, chain, j)

        def counted_minors(chain):
            calls.append("minors")
            return real_minors(chain)

        monkeypatch.setattr(toric, "_advance", counted_step)
        monkeypatch.setattr(plumbing, "_minors", counted_minors)
        classify(s)
        assert calls == ["step"] * len(s)


class TestRaySequenceChecksFire:
    """ray_sequence re-checks each glued ray against its pair (a, b); for
    (2, 3) at pivot 1 the rays are w0 = (1, -2) and tail[1] = (-3, 1), with
    cross -5 = 1 - 2 * 3."""

    def corrupt(self, monkeypatch, ray):
        real = toric._candidate_rays

        def corrupt_tail(s):
            head, tail = real(s)
            tail[1] = ray
            return head, tail

        monkeypatch.setattr(toric, "_candidate_rays", corrupt_tail)

    def test_cross(self, monkeypatch):
        self.corrupt(monkeypatch, (-3, 2))
        with pytest.raises(
            InternalInvariantError, match=r"^cross\(w_0, w_1\) != 1 - a b for \(2, 3\)$"
        ):
            ray_sequence((2, 3), 1)

    def test_primitive(self, monkeypatch):
        # tail[1] + 3 w0 keeps the cross but has gcd 5
        self.corrupt(monkeypatch, (0, -5))
        with pytest.raises(InternalInvariantError, match=r"^ray \(0, -5\) not primitive$"):
            ray_sequence((2, 3), 1)


class TestLensInvariant:
    def test_sphere_example(self):
        assert lens_invariant((2, 1, 3)) == (1, 0)

    def test_family_example(self):
        assert lens_invariant((3, -2, -2)) == (11, 3)

    def test_borderline_sphere(self):
        assert lens_invariant((-4, 0, 3)) == (1, 0)

    @given(
        st.lists(st.integers(-6, 6).filter(lambda v: v != -1), min_size=2, max_size=40)
        .map(tuple)
        .filter(lambda s: max(s) >= 0)
    )
    def test_terminal_ray_gives_signed_continuants(self, s):
        sign = (-1) ** (len(s) - 1)
        k, l = sign * det_intersection(s), sign * det_intersection(s[1:])
        w0, r = boundary_rays(s, pivots_of(s)[0])
        assert (cross(w0, r), r[0]) == (k, l)
        cf = continued_fraction(s)
        if cf is not None:
            assert Fraction(k, l) == cf
        if k < 0:
            k, l = -k, -l
        assert lens_invariant(s) == ((0, 1) if k == 0 else (1, 0) if k == 1 else (k, l % k))

    @given(st.lists(st.integers(-8, 8), min_size=2, max_size=40).map(tuple))
    def test_every_candidate_ray_gives_a_signed_continuant(self, s):
        # the ray-continuant lemma behind c = b+(Q) - 1: on any chain, the
        # side of w_0 each candidate ray lies on is the sign of a minor of Q
        head, tail = toric._candidate_rays(s)
        w0, minors = head[0], [1, *plumbing._minors(s)]  # minors[m] = K(s_1..s_m)
        for j in range(1, len(s)):
            assert cross(w0, head[j]) == (-1) ** (j - 1) * minors[j - 1]
            assert cross(w0, tail[j]) == (-1) ** j * minors[j + 1]


class TestLensEquivalent:
    def test_inverse_pair(self):
        assert lens_equivalent((7, 2), (7, 4))  # 2 * 4 = 1 mod 7

    def test_non_equivalent(self):
        assert not lens_equivalent((5, 1), (5, 2))

    def test_translation(self):
        assert lens_equivalent((7, 2), (7, 9))

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            lens_equivalent((6, 3), (6, 1))

    def test_s1_times_s2(self):
        assert lens_equivalent((0, 1), (0, -1))
        assert not lens_equivalent((0, 1), (0, 3))

    def test_different_orders(self):
        assert not lens_equivalent((5, 2), (7, 2))

    def test_negative_order(self):
        with pytest.raises(ValueError, match="^k must be nonnegative$"):
            lens_equivalent((-5, 2), (5, 2))


class TestMomentPolygon:
    def test_two_vertex_example(self):
        poly = moment_polygon((2, 3), 1, (-1, -1))
        assert poly.vertices == ((-1, 2), (-1, -1), (3, -1))
        assert [(e.self_intersection, e.area) for e in poly.edges] == [(2, 3), (3, 4)]
        assert poly.rays == ((1, -2), (-3, 1))

    def test_four_vertex_labels(self):
        poly = moment_polygon((-2, 1, 0, -2), 2, (-1, -3, -3, -1))
        assert [(e.self_intersection, e.area) for e in poly.edges] == [
            (-2, 1),
            (1, 7),
            (0, 4),
            (-2, 1),
        ]

    def test_too_short(self):
        with pytest.raises(TooShort):
            moment_polygon((4,), 1)

    def test_gate_runs_once(self, monkeypatch):
        real, calls = toric._valid_pivots, []
        monkeypatch.setattr(toric, "_valid_pivots", lambda s: calls.append(s) or real(s))
        moment_polygon((-2, 1, 0, -2), 2)
        assert calls == [(-2, 1, 0, -2)]

    def test_rejects_bad_heights(self):
        with pytest.raises(NonpositiveArea):
            moment_polygon((3, -2), 1, (-1, -1))

    def test_default_heights_are_choose_heights(self):
        values = [v for v in range(-4, 4) if v != -1]
        for n in (2, 3, 4):
            for s in itertools.islice(itertools.product(values, repeat=n), 0, None, n - 1):
                for i in pivots_of(s):
                    assert moment_polygon(s, i, choose_heights(s, i)) == moment_polygon(s, i), (s, i)

    @given(construction_chains, st.data())
    @settings(max_examples=40)
    def test_edge_data_matches_areas(self, s, data):
        i = data.draw(st.sampled_from(pivots_of(s)))
        z = choose_heights(s, i)
        poly = moment_polygon(s, i, z)
        assert tuple(e.area for e in poly.edges) == areas(s, z)
        assert tuple(e.self_intersection for e in poly.edges) == s
        assert poly.rays == boundary_rays(s, i)


class TestDefaultPivot:
    CONSTRUCTIONS = (moment_polygon, decompose, choose_heights, ray_sequence, boundary_rays)

    def test_is_the_smallest_valid_pivot(self):
        values = [v for v in range(-4, 4) if v != -1]
        for n in range(2, 6):
            for s in itertools.product(values, repeat=n):
                pivots = pivots_of(s)
                for fn in self.CONSTRUCTIONS:
                    if pivots:
                        assert fn(s) == fn(s, pivots[0]), (fn.__name__, s)
                        continue
                    with pytest.raises(NoNonnegativeEntry) as err:
                        fn(s)
                    assert str(err.value) == (
                        "pivot None is not one of the indices [] of %s with s_i >= 0" % (s,)
                    ), (fn.__name__, s)

    def test_list_chain(self):
        # ray_sequence reads the chain it was given; only decompose normalizes it
        assert ray_sequence([-2, -3, 0, 4]) == ray_sequence((-2, -3, 0, 4), 3)


class TestBlowUpCorner:
    def test_trapezoid_style_chop(self):
        poly = moment_polygon((0, 3), 1)
        chopped = blow_up_corner(poly, 1, Fraction(1, 2))
        labels = [(e.self_intersection, e.area) for e in chopped.edges]
        assert labels[1] == (-1, Fraction(1, 2))
        assert labels[0] == (-1, Fraction(1, 2))
        assert labels[2] == (2, Fraction(7, 2))

    def test_adjacent_self_intersections_drop(self):
        poly = moment_polygon((0, 4), 1)
        chopped = blow_up_corner(poly, 1, Fraction(1, 3))
        assert [e.self_intersection for e in chopped.edges] == [-1, -1, 3]

    def test_size_too_large(self):
        poly = moment_polygon((2, 3), 1, (-1, -1))
        with pytest.raises(SizeTooLarge):
            blow_up_corner(poly, 1, 3)

    def test_ray_corner_rejected(self):
        poly = moment_polygon((2, 3), 1, (-1, -1))
        with pytest.raises(NotDelzantCorner):
            blow_up_corner(poly, 0, Fraction(1, 2))

    @pytest.mark.parametrize("size", [0, Fraction(-1, 2)])
    def test_size_not_positive(self, size):
        with pytest.raises(ValueError, match="^blow-up size must be positive$"):
            blow_up_corner(moment_polygon((0, 3), 1), 1, size)

    def test_corner_not_delzant(self):
        poly = MomentPolygon(
            vertices=((0, 2), (0, 0), (2, 1)),
            edges=(PolygonEdge(0, 1, 0, 2), PolygonEdge(1, 2, 0, 1)),
            rays=((0, 1), (2, 1)),
        )
        with pytest.raises(
            NotDelzantCorner,
            match=r"^edge directions \(0, -1\), \(2, 1\) are not a positive Z\^2 basis$",
        ):
            blow_up_corner(poly, 1, Fraction(1, 2))

    def test_edges_renumbered(self):
        # edge j of the result joins vertices j and j + 1, whatever the
        # indices the input's edges carry
        poly = moment_polygon((-2, 1, 0, -2), 2)
        relabeled = MomentPolygon(
            poly.vertices,
            tuple(PolygonEdge(7, j, e.self_intersection, e.area) for j, e in enumerate(poly.edges)),
            poly.rays,
        )
        chopped = blow_up_corner(relabeled, 2, Fraction(1, 2))
        assert chopped == blow_up_corner(poly, 2, Fraction(1, 2))
        assert [(e.start, e.end) for e in chopped.edges] == [(j, j + 1) for j in range(5)]

    def test_numbered_edges_before_the_corner_reused(self):
        # the input's edges j < corner - 1 join vertices j and j + 1 in the
        # result too, and come back as the very objects; the rest are new
        poly = moment_polygon((-2, 1, 0, -2, 3), 2)
        for corner in range(1, 5):
            chopped = blow_up_corner(poly, corner, Fraction(1, 2))
            assert all(chopped.edges[j] is poly.edges[j] for j in range(corner - 1))
            assert not any(e is f for e in chopped.edges[corner - 1 :] for f in poly.edges)
            assert [(e.start, e.end) for e in chopped.edges] == [(j, j + 1) for j in range(6)]

    @pytest.mark.parametrize("renumbered", [0, 1])
    def test_one_renumbered_edge_before_the_corner(self, renumbered):
        poly = moment_polygon((-2, 1, 0, -2, 3), 2)
        edges = list(poly.edges)
        e = edges[renumbered]
        edges[renumbered] = PolygonEdge(e.end, e.start, e.self_intersection, e.area)
        relabeled = MomentPolygon(poly.vertices, tuple(edges), poly.rays)
        chopped = blow_up_corner(relabeled, 3, Fraction(1, 2))
        assert chopped == blow_up_corner(poly, 3, Fraction(1, 2))
        assert chopped.edges[renumbered] is not edges[renumbered]
        assert chopped.edges[1 - renumbered] is edges[1 - renumbered]
        assert [(e.start, e.end) for e in chopped.edges] == [(j, j + 1) for j in range(6)]

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_edge_count_not_vertex_count_minus_one(self, extra):
        poly = moment_polygon((-2, 1, 0, -2), 2)
        edges = poly.edges[:extra] if extra < 0 else poly.edges + poly.edges[-1:]
        with pytest.raises(InternalInvariantError, match="^%d edges for 5 vertices$" % (4 + extra)):
            blow_up_corner(MomentPolygon(poly.vertices, edges, poly.rays), 2, Fraction(1, 2))

    def test_corner_with_radial_edges(self):
        # both sphere edges of this corner point along rays from the origin
        chopped = blow_up_corner(moment_polygon((3, 3), 1), 1, 2)
        assert [(e.self_intersection, e.area) for e in chopped.edges] == [
            (2, 2),
            (-1, 2),
            (2, 2),
        ]

    @given(construction_chains, st.data())
    @settings(max_examples=60)
    def test_half_edge_blow_up_passes_the_reread(self, s, data):
        i = data.draw(st.sampled_from(pivots_of(s)))
        poly = moment_polygon(s, i)
        for corner in range(1, len(poly.vertices) - 1):
            size = min(poly.edges[corner - 1].area, poly.edges[corner].area) / 2
            try:
                blow_up_corner(poly, corner, size)
            except NotDelzantCorner:
                pass

    def test_reread_rejects_bad_polygons(self):
        poly = moment_polygon((0, 3), 1)
        swapped = MomentPolygon(poly.vertices, poly.edges, poly.rays[::-1])
        with pytest.raises(InternalInvariantError):
            blow_up_corner(swapped, 1, Fraction(1, 2))
        e = poly.edges[1]
        edges = (poly.edges[0], PolygonEdge(e.start, e.end, e.self_intersection, e.area + 1))
        with pytest.raises(InternalInvariantError):
            blow_up_corner(MomentPolygon(poly.vertices, edges, poly.rays), 1, Fraction(1, 2))

    @given(construction_chains, st.data())
    @settings(max_examples=30)
    def test_matches_chain_blow_up(self, s, data):
        i = data.draw(st.sampled_from(pivots_of(s)))
        poly = moment_polygon(s, i)
        corner = data.draw(st.integers(1, len(poly.vertices) - 2))
        chopped = blow_up_corner(poly, corner, Fraction(1, 2))
        labels = tuple(e.self_intersection for e in chopped.edges)
        expected = s[: corner - 1] + (s[corner - 1] - 1, -1, s[corner] - 1) + s[corner + 1 :]
        assert labels == expected
        if labels.count(-1) == 1:
            assert blow_down(labels) == s


def scaled_polygon_data(poly, c):
    return (
        tuple((c * x, c * y) for x, y in poly.vertices),
        tuple((e.start, e.end, e.self_intersection, c * e.area) for e in poly.edges),
        poly.rays,
    )


def polygon_data(poly):
    return scaled_polygon_data(poly, 1)


def blow_up_outcome(poly, corner, size):
    try:
        return blow_up_corner(poly, corner, size)
    except (NotDelzantCorner, SizeTooLarge) as exc:
        return exc


scales = st.fractions(min_value=Fraction(1, 7), max_value=7, max_denominator=7).filter(
    lambda c: c > 0 and c.denominator > 1
)


class TestPolygonHomogeneity:
    """Vertices and areas are linear in the heights, so scaling the heights
    by c > 0 scales the whole picture, and the integer re-read must accept
    it at every common denominator."""

    @given(construction_chains, st.data())
    @settings(max_examples=60)
    def test_scaled_heights_scale_the_polygon(self, s, data):
        i = data.draw(st.sampled_from(pivots_of(s)))
        c = data.draw(scales)
        z = choose_heights(s, i)
        poly = moment_polygon(s, i, z)
        scaled = moment_polygon(s, i, tuple(c * zj for zj in z))
        assert polygon_data(scaled) == scaled_polygon_data(poly, c)
        corner = data.draw(st.integers(1, len(poly.vertices) - 2))
        size = data.draw(
            st.fractions(min_value=Fraction(1, 7), max_value=3, max_denominator=7).filter(
                lambda q: q > 0
            )
        )
        plain = blow_up_outcome(poly, corner, size)
        chopped = blow_up_outcome(scaled, corner, c * size)
        assert type(chopped) is type(plain)
        if isinstance(plain, MomentPolygon):
            assert polygon_data(chopped) == scaled_polygon_data(plain, c)
        elif isinstance(plain, NotDelzantCorner):
            assert str(chopped) == str(plain)


class TestReReadFaults:
    """Injected faults on a polygon whose vertices have common denominator
    12; each keeps its error type and message."""

    S = (-2, 1, 0, -2)
    Z = (Fraction(-1, 2), Fraction(-5, 3), Fraction(-7, 4), Fraction(-2, 3))
    POLY = moment_polygon(S, 2, Z)

    def test_denominator(self):
        denominators = {x.denominator for v in self.POLY.vertices for x in v}
        assert max(denominators) == 12

    def test_area_off_by_one_twelfth(self):
        poly, e = self.POLY, self.POLY.edges[2]
        bad = PolygonEdge(e.start, e.end, e.self_intersection, e.area + Fraction(1, 12))
        off = MomentPolygon(poly.vertices, poly.edges[:2] + (bad,) + poly.edges[3:], poly.rays)
        with pytest.raises(InternalInvariantError, match="^edge 3 affine length != area$"):
            blow_up_corner(off, 3, Fraction(1, 5))
        with pytest.raises(InternalInvariantError, match="^edge 4 affine length != area$"):
            blow_up_corner(off, 1, Fraction(1, 5))

    @pytest.mark.parametrize("corner", [1, 2, 3])
    def test_zero_length_edge(self, corner):
        verts = list(self.POLY.vertices)
        verts[3] = verts[2]
        zero = MomentPolygon(tuple(verts), self.POLY.edges, self.POLY.rays)
        with pytest.raises(ZeroVector, match=r"^\(0, 0\) has no direction$"):
            blow_up_corner(zero, corner, Fraction(1, 5))

    def test_swapped_rays(self):
        swapped = MomentPolygon(self.POLY.vertices, self.POLY.edges, self.POLY.rays[::-1])
        with pytest.raises(InternalInvariantError, match="^normal determinant 1 != s_1 = -2$"):
            blow_up_corner(swapped, 3, Fraction(1, 5))
        with pytest.raises(InternalInvariantError, match="^normal determinant 2 != s_1 = -3$"):
            blow_up_corner(swapped, 1, Fraction(1, 5))

    def test_size_too_large(self):
        with pytest.raises(
            SizeTooLarge, match="^size 2/3 must be smaller than both adjacent lengths 2/3, 47/12$"
        ):
            blow_up_corner(self.POLY, 1, Fraction(2, 3))


# The two-sweep heights from before one rule set every height, and -Q z as
# a product with the intersection matrix: the oracles for TestHeightsOracle
# and TestAreaVectorOracle, and the heights and areas of oracle_moment_polygon.


def oracle_heights(s, i):
    n = len(s)
    z = [None] * n
    if i > 1:
        z[0] = -1
        for j in range(2, i):
            bound = -s[j - 2] * z[j - 2]
            z[j - 1] = min(bound, 0) - 1
    if i < n:
        z[n - 1] = -1
        for j in range(n - 1, i, -1):
            bound = -s[j] * z[j]
            z[j - 1] = min(bound, 0) - 1
    bounds = [0]
    if i > 1:
        bounds.append(-s[i - 2] * z[i - 2])
    if i < n:
        bounds.append(-s[i] * z[i])
    z[i - 1] = min(bounds) - 1
    return tuple(z)


def oracle_area_vector(s, z):
    return [-sum(q * v for q, v in zip(row, z)) for row in plumbing.intersection_matrix(s)]


# chains of the construction up to length 60
long_construction_chains = (
    st.lists(st.integers(-4, 4).filter(lambda v: v != -1), min_size=2, max_size=60)
    .map(tuple)
    .filter(lambda s: any(v >= 0 for v in s))
)


class TestHeightsOracle:
    def test_exhaustive_short_chains(self):
        values = [v for v in range(-4, 5) if v != -1]
        count = 0
        for n in (2, 3, 4, 5):
            for s in itertools.product(values, repeat=n):
                for i in pivots_of(s):
                    assert choose_heights(s, i) == oracle_heights(s, i), (s, i)
                    count += 1
        assert count == 113680

    @given(long_construction_chains, st.data())
    def test_long_chains(self, s, data):
        i = data.draw(st.sampled_from(pivots_of(s)))
        assert choose_heights(s, i) == oracle_heights(s, i)


class TestAreaVectorOracle:
    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=12), st.booleans(), st.data())
    def test_minus_q_z(self, s, rational, data):
        values = st.fractions(-9, 9, max_denominator=6) if rational else st.integers(-9, 9)
        z = data.draw(st.lists(values, min_size=len(s), max_size=len(s)))
        got, want = area_vector(tuple(s), z), oracle_area_vector(s, z)
        assert got == want
        assert {type(a) for a in got} == {Fraction if rational else int}


# The Fraction implementations of moment_polygon and blow_up_corner from
# before the polygon paths ran on scaled ints, kept as the oracle for
# TestPolygonOracle.


def oracle_verify_polygon(poly, s):
    scale, xy = lattice.scale_to_ints([c for p in poly.vertices for c in p])
    xs, ys = xy[0::2], xy[1::2]
    (r0x, r0y), (r1x, r1y) = poly.rays
    normals = [(r0y, -r0x)]
    for j, e in enumerate(poly.edges, start=1):
        dx, dy = xs[e.end] - xs[e.start], ys[e.end] - ys[e.start]
        ux, uy = lattice.primitive((dx, dy))
        g = dx // ux if ux else dy // uy
        if g * e.area.denominator != e.area.numerator * scale:
            raise InternalInvariantError("edge %d affine length != area" % j)
        normals.append((-uy, ux))
    normals.append((-r1y, r1x))
    for j, sj in enumerate(s):
        det = cross(normals[j + 2], normals[j])
        if det != sj:
            raise InternalInvariantError(
                "normal determinant %d != s_%d = %d" % (det, j + 1, sj)
            )


def oracle_polygon(vertices, s, areas, rays):
    edges = tuple(PolygonEdge(j, j + 1, sj, aj) for j, (sj, aj) in enumerate(zip(s, areas)))
    poly = MomentPolygon(vertices=vertices, edges=edges, rays=rays)
    oracle_verify_polygon(poly, s)
    return poly


def oracle_validate_heights(s, i, z):
    n = len(s)
    if len(z) != n:
        raise NonpositiveArea("heights length %d != chain length %d" % (len(z), n))
    for j, zj in enumerate(z, start=1):
        if not zj < 0:
            raise NonpositiveArea("height z_%d = %s is not negative" % (j, zj))
    for j in range(2, min(i, n - 1) + 1):
        if not z[j - 1] < -s[j - 2] * z[j - 2]:
            raise NonpositiveArea("z_%d violates z_%d < -s_%d z_%d" % (j, j, j - 1, j - 1))
    for j in range(max(i, 2), n):
        if not z[j - 1] < -s[j] * z[j]:
            raise NonpositiveArea("z_%d violates z_%d < -s_%d z_%d" % (j, j, j + 1, j + 1))


def oracle_areas(s, z):
    out = oracle_area_vector(s, z)
    for j, a in enumerate(out, start=1):
        if not a > 0:
            raise NonpositiveArea("area a_%d = %s is not positive" % (j, a))
    return tuple(out)


def oracle_moment_polygon(s, i, z=None):
    s = tuple(s)
    toric._check_chain(s, i)
    if z is None:
        z = oracle_heights(s, i)
    z = tuple(Fraction(v) for v in z)
    oracle_validate_heights(s, i, z)
    a = oracle_areas(s, z)
    n = len(s)
    head, tail = toric._candidate_rays(s)
    scale, zs = lattice.scale_to_ints(z)
    pts = [(zs[0] * head[0][0], zs[0] * head[0][1]), (zs[0], zs[1])]
    for j in range(2, n):
        (ax, ay), (bx, by) = tail[j - 1], head[j]
        pts.append((zs[j - 1] * ax + zs[j] * bx, zs[j - 1] * ay + zs[j] * by))
    pts.append((zs[n - 1] * tail[n - 1][0], zs[n - 1] * tail[n - 1][1]))
    vertices = tuple((Fraction(x, scale), Fraction(y, scale)) for x, y in pts)
    return oracle_polygon(vertices, s, a, (head[0], tail[-1]))


def oracle_blow_up_corner(poly, vertex, size):
    size = Fraction(size)
    verts = poly.vertices
    if not 1 <= vertex <= len(verts) - 2:
        raise NotDelzantCorner(
            "vertex %d is not an interior corner (valid: 1..%d); the ray-end "
            "vertices are not fixed points" % (vertex, len(verts) - 2)
        )
    if size <= 0:
        raise ValueError("blow-up size must be positive")
    p, v, q = verts[vertex - 1 : vertex + 2]
    scale, (px, py, vx, vy, qx, qy, cut) = lattice.scale_to_ints((*p, *v, *q, size))
    d_in = lattice.primitive((vx - px, vy - py))
    d_out = lattice.primitive((qx - vx, qy - vy))
    if cross(d_in, d_out) != 1:
        raise NotDelzantCorner(
            "edge directions %s, %s are not a positive Z^2 basis" % (d_in, d_out)
        )
    e_in, e_out = poly.edges[vertex - 1], poly.edges[vertex]
    if size >= e_in.area or size >= e_out.area:
        raise SizeTooLarge(
            "size %s must be smaller than both adjacent lengths %s, %s"
            % (size, e_in.area, e_out.area)
        )
    va = (Fraction(vx - cut * d_in[0], scale), Fraction(vy - cut * d_in[1], scale))
    vb = (Fraction(vx + cut * d_out[0], scale), Fraction(vy + cut * d_out[1], scale))
    s = [e.self_intersection for e in poly.edges]
    a = [e.area for e in poly.edges]
    s[vertex - 1 : vertex + 1] = [e_in.self_intersection - 1, -1, e_out.self_intersection - 1]
    a[vertex - 1 : vertex + 1] = [e_in.area - size, size, e_out.area - size]
    return oracle_polygon(verts[:vertex] + (va, vb) + verts[vertex + 1 :], s, a, poly.rays)


def build_outcome(build, *args):
    """What ``build`` returns, or its error as (type, message)."""
    try:
        return build(*args)
    except PlumbtoricError as exc:
        return type(exc), str(exc)


def assert_same_polygon_outcome(build, oracle, *args):
    got, expected = build_outcome(build, *args), build_outcome(oracle, *args)
    assert got == expected
    if isinstance(got, MomentPolygon):
        values = [c for v in got.vertices for c in v] + [e.area for e in got.edges]
        assert all(type(x) is Fraction for x in values)
    return got


# heights: the defaults, the defaults times a rational, the defaults moved
# a little (so that a height or an area may just fail), or drawn freely
# (negative, zero or positive, int or rational), now and then one too many
# or too few
def drawn_heights(data, s, i):
    kind = data.draw(st.sampled_from(["default", "scaled", "moved", "ints", "rationals"]))
    if kind == "default":
        return None
    if kind in ("scaled", "moved"):
        c = data.draw(st.fractions(Fraction(1, 6), 6, max_denominator=6).filter(lambda c: c > 0))
        z = [c * v for v in choose_heights(s, i)]
        if kind == "moved":
            j = data.draw(st.integers(0, len(s) - 1))
            z[j] += data.draw(st.fractions(-3, 3, max_denominator=6))
        return tuple(z)
    n = len(s) + data.draw(st.sampled_from([0] * 8 + [-1, 1]))
    if kind == "ints":
        return tuple(data.draw(st.lists(st.integers(-9, 1), min_size=n, max_size=n)))
    rationals = st.fractions(-9, 1, max_denominator=6)
    return tuple(data.draw(st.lists(rationals, min_size=n, max_size=n)))


class TestPolygonOracle:
    """moment_polygon and blow_up_corner on scaled ints against the Fraction
    implementations they replaced: an equal polygon, or the same error type
    with the same message."""

    @given(construction_chains, st.data())
    @settings(max_examples=100, deadline=None)
    def test_random_chains_and_heights(self, s, data):
        for i in pivots_of(s):
            z = drawn_heights(data, s, i)
            poly = assert_same_polygon_outcome(moment_polygon, oracle_moment_polygon, s, i, z)
            if not isinstance(poly, MomentPolygon):
                event("refused: %s" % poly[1].split()[0])
                continue
            event("polygon")
            sizes = st.fractions(Fraction(1, 6), 4, max_denominator=6).filter(lambda q: q > 0)
            for corner in range(0, len(poly.vertices)):
                size = data.draw(sizes)
                assert_same_polygon_outcome(blow_up_corner, oracle_blow_up_corner, poly, corner, size)

    def test_exhaustive_short_chains(self):
        values = [v for v in range(-4, 4) if v != -1]
        for n in (2, 3, 4):
            for s in itertools.product(values, repeat=n):
                for i in pivots_of(s):
                    poly = assert_same_polygon_outcome(moment_polygon, oracle_moment_polygon, s, i)
                    assert isinstance(poly, MomentPolygon)
                    for corner in range(1, len(poly.vertices) - 1):
                        assert_same_polygon_outcome(
                            blow_up_corner, oracle_blow_up_corner, poly, corner, Fraction(1, 2)
                        )

    def test_exhaustive_moved_rational_heights(self):
        """Heights over denominator 3 that just pass or just fail a height,
        gluing or area check, on the chains of length 2 and 3."""
        values = [v for v in range(-4, 4) if v != -1]
        refusals = set()
        for n in (2, 3):
            for s in itertools.product(values, repeat=n):
                for i in pivots_of(s):
                    z0 = [Fraction(2, 3) * v for v in choose_heights(s, i)]
                    for j, step in itertools.product(range(n), (-2, 1, 4)):
                        z = z0[:j] + [z0[j] + Fraction(step, 3)] + z0[j + 1 :]
                        got = assert_same_polygon_outcome(
                            moment_polygon, oracle_moment_polygon, s, i, tuple(z)
                        )
                        if not isinstance(got, MomentPolygon):
                            refusals.add(got[1].split()[0])
        assert refusals == {"height", "z_2", "area"}


def _overtwisted_sufficient(s):
    n = len(s)
    for i in range(n):
        if s[i] < 0:
            continue
        if i + 1 < n and (
            s[i] * s[i + 1] >= 2 or (s[i] * s[i + 1] >= 1 and n > 2)
        ):
            return True
        if any(
            abs(i - j) > 1 and (s[j] >= 1 or (s[j] >= 0 and n > 3))
            for j in range(n)
        ):
            return True
        if s[i] == 0 and 0 < i < n - 1:
            t = s[i - 1] + s[i + 1]
            if t >= 1 or (t >= 0 and n > 3):
                return True
    return False


def _tight_sufficient(s):
    n = len(s)
    for i in range(n):
        if s[i] < 0:
            continue
        if all(s[j] <= -2 for j in range(n) if j != i):
            return True
        if (
            s[i] == 0
            and 0 < i < n - 1
            and s[i - 1] + s[i + 1] <= -2
            and all(s[j] <= -2 for j in range(n) if j not in (i, i + 1))
        ):
            return True
    return False


class TestTheoremConsistencySpots:
    def test_overtwisted_cases(self):
        assert classify((3, 3)).verdict is Verdict.OVERTWISTED  # (a): product >= 2
        assert classify((2, -2, 3)).verdict is Verdict.OVERTWISTED  # (b)
        assert classify((-2, 1, 0, -1), reduce=True).verdict is Verdict.OVERTWISTED

    def test_exhaustive_wide_entries_short_chains(self):
        # entries in [-6, 4] without -1, lengths 2..4: the sufficient
        # conditions never disagree with the exact angle
        import itertools

        values = [v for v in range(-6, 5) if v != -1]
        for n in (2, 3, 4):
            for s in itertools.product(values, repeat=n):
                if not any(v >= 0 for v in s):
                    continue
                verdict = classify(s).verdict
                if _overtwisted_sufficient(s):
                    assert verdict is Verdict.OVERTWISTED, s
                if _tight_sufficient(s):
                    assert verdict is Verdict.TIGHT, s

    def test_tight_cases(self):
        assert classify((3, -2, -2)).verdict is Verdict.TIGHT  # (a)
        assert classify((5, -2)).verdict is Verdict.TIGHT

    def test_borderline_family(self):
        assert classify((-2, 0, 1)).verdict is Verdict.TIGHT
        assert lens_invariant((-2, 0, 1)) == (1, 0)

    def test_half_plane_family_instance(self):
        report = classify((-2, -2, 0, 1, -2))
        assert report.rays.w[-1] == (-1, -2)
        assert report.winding.vs_pi is Cmp.EQ
        assert report.verdict is Verdict.TIGHT

    def test_extra_pair_flips_to_overtwisted(self):
        assert classify((-2, -2, 0, 1, -2, -2)).verdict is Verdict.OVERTWISTED

    def test_deep_tight_families(self):
        # borderline families with fixed interior data stay tight
        for n in (2, 3):
            for k in (2, 4):
                for m in (3, 4):
                    for t in (2, 3):
                        assert (
                            classify((-n, -k, 0, k - 1, -m, -t)).verdict
                            is Verdict.TIGHT
                        )
                        chain = (-n, -k, 0, k - 1, -m) + (-2,) * t
                        assert classify(chain).verdict is Verdict.TIGHT
