import time
from fractions import Fraction

import pytest
from hypothesis import given, assume, strategies as st

from plumbtoric import (
    EmptyPlumbing,
    GSViolation,
    MovePreconditionFailed,
    NeumannMove,
    NonpositiveArea,
    TooShort,
    areas,
    blow_down,
    continued_fraction,
    det_intersection,
    intersection_matrix,
    is_negative_definite,
    negative_gs_check,
    neumann_move,
)
from plumbtoric.plumbing import as_chain

chains = st.lists(st.integers(-6, 4), min_size=1, max_size=8).map(tuple)


def det_oracle(matrix):
    """Exact determinant by Fraction Gaussian elimination with pivoting."""
    n = len(matrix)
    m = [[Fraction(v) for v in row] for row in matrix]
    det = Fraction(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for r in range(k + 1, n):
            factor = m[r][k] / m[k][k]
            for c in range(k, n):
                m[r][c] -= factor * m[k][c]
    assert det.denominator == 1
    return int(det)


def leading_minors_oracle(s):
    q = intersection_matrix(s)
    return [
        det_oracle([row[: k + 1] for row in q[: k + 1]]) for k in range(len(s))
    ]


class TestIntersectionMatrix:
    def test_two_vertices(self):
        assert intersection_matrix((2, 3)) == [[2, 1], [1, 3]]

    def test_single_vertex(self):
        assert intersection_matrix((5,)) == [[5]]

    def test_four_vertices(self):
        q = intersection_matrix((-2, 1, 0, -2))
        assert [q[i][i] for i in range(4)] == [-2, 1, 0, -2]
        for i in range(4):
            for j in range(4):
                expected = 1 if abs(i - j) == 1 else (q[i][i] if i == j else 0)
                assert q[i][j] == expected

    @given(chains)
    def test_symmetric(self, s):
        q = intersection_matrix(s)
        n = len(s)
        assert all(q[i][j] == q[j][i] for i in range(n) for j in range(n))


class TestDeterminant:
    def test_lens_example(self):
        assert det_intersection((2, 1, 3)) == 1

    def test_zero_vertex(self):
        assert det_intersection((0,)) == 0

    def test_negative_definite_pair(self):
        assert det_intersection((-2, -2)) == 3

    @given(chains)
    def test_matches_elimination_oracle(self, s):
        assert det_intersection(s) == det_oracle(intersection_matrix(s))


class TestNegativeDefinite:
    def test_examples(self):
        assert is_negative_definite((-2, -2)) is True
        assert is_negative_definite((2, 1, 3)) is False
        assert is_negative_definite((-1,)) is True

    @given(chains)
    def test_matches_sylvester_oracle(self, s):
        minors = leading_minors_oracle(s)
        expected = all(
            (m > 0 if k % 2 else m < 0) for k, m in enumerate(minors)
        )
        assert is_negative_definite(s) is expected


class TestBlowDown:
    def test_interior(self):
        assert blow_down((2, -1, 2)) == (3, 3)
        assert continued_fraction([2, -1, 2]) == continued_fraction([3, 3]) == Fraction(8, 3)

    def test_end(self):
        assert blow_down((-1, 4)) == (5,)

    def test_no_op(self):
        assert blow_down((3, 3)) == (3, 3)

    def test_single_minus_one(self):
        with pytest.raises(EmptyPlumbing):
            blow_down((-1,))

    @staticmethod
    def _blow_down_rightmost(s):
        chain = list(s)
        while -1 in chain:
            if len(chain) == 1:
                raise EmptyPlumbing("empty")
            i = len(chain) - 1 - chain[::-1].index(-1)
            if i > 0:
                chain[i - 1] += 1
            if i + 1 < len(chain):
                chain[i + 1] += 1
            del chain[i]
        return tuple(chain)

    @staticmethod
    def _blow_down_rescan(s):
        # the rescanning blow-down the library had before its one-pass form
        chain = list(as_chain(s))
        while -1 in chain:
            if len(chain) == 1:
                raise EmptyPlumbing("blowing down (-1) leaves an empty plumbing")
            i = chain.index(-1)
            if i > 0:
                chain[i - 1] += 1
            if i + 1 < len(chain):
                chain[i + 1] += 1
            del chain[i]
        return tuple(chain)

    @given(st.lists(st.integers(-3, 2), min_size=1, max_size=12))
    def test_matches_rescanning_oracle(self, entries):
        def outcome(f):
            try:
                return f(tuple(entries))
            except EmptyPlumbing as exc:
                return "EmptyPlumbing: %s" % exc

        assert outcome(blow_down) == outcome(self._blow_down_rescan)

    def test_long_cascade_is_linear(self):
        # every -2 is removed in turn; the rescanning form took seconds here
        s = (3,) + (-2,) * 40000 + (-1, 5)
        start = time.perf_counter()
        assert blow_down(s) == (4, 40006)
        assert time.perf_counter() - start < 1.0

    def test_leftmost_first_is_the_pinned_rule(self):
        # removal order can change the final chain (not the boundary):
        # leftmost-first gives (1, 0) here, rightmost-first gives (0, 0)
        assert blow_down((0, -1, -1)) == (1, 0)
        assert self._blow_down_rightmost((0, -1, -1)) == (0, 0)

    @given(st.lists(st.integers(-4, 4), min_size=2, max_size=8))
    def test_order_preserves_boundary(self, entries):
        from plumbtoric import PreconditionError, lens_equivalent, lens_invariant

        s = tuple(entries)
        try:
            left = blow_down(s)
            right = self._blow_down_rightmost(s)
            lens_left = lens_invariant(left)
            lens_right = lens_invariant(right)
        except PreconditionError:
            assume(False)
        assert lens_equivalent(lens_left, lens_right)

    @given(
        st.lists(st.integers(-4, 4), min_size=2, max_size=6),
        st.data(),
    )
    def test_interior_step_preserves_continued_fraction(self, entries, data):
        # the classical absorb identity [..., a, -1, b, ...] = [..., a+1, b+1, ...];
        # end blow-downs change the value (only the lens class survives them)
        pos = data.draw(st.integers(1, len(entries) - 1))
        planted = entries[:pos] + [-1] + entries[pos:]
        rewritten = (
            entries[: pos - 1]
            + [entries[pos - 1] + 1, entries[pos] + 1]
            + entries[pos + 1 :]
        )
        before = continued_fraction(planted)
        after = continued_fraction(rewritten)
        assume(before is not None and after is not None)
        assert before == after

    def test_end_step_changes_value_but_not_lens_class(self):
        from plumbtoric import lens_equivalent

        # k/l flips from -5/4 to 5/1 across the end blow-down (-1,4) -> (5);
        # the lens spaces L(5,4) and L(5,1) are nonetheless homeomorphic
        assert continued_fraction([-1, 4]) == Fraction(-5, 4)
        assert continued_fraction([5]) == 5
        assert lens_equivalent((5, 4), (5, 1))


class TestNeumannMoves:
    def test_r1_end(self):
        assert neumann_move((-3, -3, 1), NeumannMove.R1_END, 3) == (-3, -4)

    def test_r1_end_mirror(self):
        assert neumann_move((1, 4, -2), NeumannMove.R1_END, 1) == (3, -2)

    def test_r1_mid(self):
        assert neumann_move((2, 1, 3), NeumannMove.R1_MID, 2) == (1, 2)

    def test_r3(self):
        assert neumann_move((1, 2, 0, 3, 1), NeumannMove.R3, 3) == (1, 5, 1)

    def test_preconditions(self):
        with pytest.raises(MovePreconditionFailed):
            neumann_move((2, 1, 3), NeumannMove.R1_END, 2)  # not an end
        with pytest.raises(MovePreconditionFailed):
            neumann_move((2, 2, 3), NeumannMove.R1_MID, 2)  # entry not +1
        with pytest.raises(MovePreconditionFailed):
            neumann_move((1, 0, 3), NeumannMove.R3, 2)  # neighbor is an end
        with pytest.raises(MovePreconditionFailed):
            neumann_move((1, 2, 1, 3, 1), NeumannMove.R3, 3)  # entry not 0

    @pytest.mark.parametrize("s, site", [((1, 0, 3, 1), 2), ((1, 3, 0, 1), 3)])
    def test_r3_next_to_an_end(self, s, site):
        # the 0 entry's neighbor on one side is an end vertex
        with pytest.raises(MovePreconditionFailed):
            neumann_move(s, NeumannMove.R3, site)

    @pytest.mark.parametrize("site", [0, 4])
    def test_site_out_of_range(self, site):
        with pytest.raises(MovePreconditionFailed, match="^site %d out of range 1..3$" % site):
            neumann_move((2, 1, 3), NeumannMove.R1_MID, site)

    def test_unknown_move(self):
        with pytest.raises(MovePreconditionFailed, match="^unknown move 'R1_MID'$"):
            neumann_move((2, 1, 3), "R1_MID", 2)


class TestAsChain:
    def test_empty(self):
        with pytest.raises(TooShort, match="^empty plumbing chain$"):
            as_chain(())

    @pytest.mark.parametrize("entry", [2.0, Fraction(2), True, "2"])
    def test_non_int_entry(self, entry):
        with pytest.raises(TypeError, match="^self-intersection numbers must be integers$"):
            as_chain((3, entry))


class TestNegativeGSCheck:
    def test_four_vertex_witness(self):
        assert negative_gs_check((-2, 1, 0, -2), (-1, -3, -3, -1)) == (1, 7, 4, 1)

    def test_area_violation(self):
        result = negative_gs_check((-2, -2), (-1, -1))
        assert isinstance(result, GSViolation)
        assert result.side == "area" and result.index == 1 and result.value == -1

    def test_zero_area_is_a_violation(self):
        assert negative_gs_check((-2, 0), (-1, -2)) == GSViolation(1, "area", 0)

    def test_zero_chain(self):
        assert negative_gs_check((0, 0), (-1, -1)) == (1, 1)

    def test_areas_share_minus_q_z_but_not_the_contract(self):
        # areas() does not test heights, so it fails where the witness
        # check reports the positive height (test_height_violation)
        with pytest.raises(NonpositiveArea):
            areas((0, 0), (-1, 1))
        for check in (areas, negative_gs_check):
            with pytest.raises(ValueError):
                check((0, 0), (-1,))

    def test_height_violation(self):
        result = negative_gs_check((0, 0), (-1, 1))
        assert isinstance(result, GSViolation)
        assert result.side == "height" and result.index == 2

    def test_zero_height_is_a_violation(self):
        # reported before the zero area a_2 the heights give
        assert negative_gs_check((0, 0), (0, -1)) == GSViolation(1, "height", 0)
