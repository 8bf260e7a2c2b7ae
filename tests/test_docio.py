"""The display-only swept angle: made by the document writer alone, with the
same bits as the float loop ``winding_compare`` used to run beside its exact
count."""

import itertools
import math
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

import plumbtoric as pt
from plumbtoric import docio
from plumbtoric.cli import main

GOLDEN = Path(__file__).parent / "golden"
HUGE = int("3" * 160)  # the rays of HUGE,HUGE have cross and dot past 10^308
SWEEP_VALUES = (-4, -3, -2, 0, 1, 2, 3)  # the criterion-06 set: [-4, 3] without -1


def oracle_swept_degrees(rays):
    # the float half of winding_compare's loop, as the library had it
    u = rays[0]
    approx = 0.0
    atan2 = math.atan2
    two_pi = 2 * math.pi
    for idx in range(1, len(rays)):
        v = rays[idx]
        cross, dot = u[0] * v[1] - u[1] * v[0], u[0] * v[0] + u[1] * v[1]
        try:
            ang = atan2(cross, dot)
        except OverflowError:  # display only; ints past the float range
            big = max(abs(cross), abs(dot))
            ang = atan2(cross / big, dot / big)
        approx += ang if ang > 0 else ang + two_pi
        u = v
    return math.degrees(approx)


component = st.one_of(
    st.integers(-9, 9), st.integers(-(10**160), 10**160), st.integers(-(10**400), 10**400)
)


class TestSweptDegrees:
    def test_huge_rays_take_the_rescale_path(self):
        (u, v) = pt.classify((HUGE, HUGE)).rays.w
        with pytest.raises(OverflowError):
            math.atan2(pt.cross(u, v), pt.dot(u, v))
        assert docio.swept_degrees_approx((u, v)) == 270.0

    @given(st.lists(st.tuples(component, component), min_size=2, max_size=6))
    @example([(1, -HUGE), (-HUGE, 1)])
    @example([(10**400, 1), (1, 10**400), (-1, 0), (0, -(10**170))])
    def test_same_bits_as_the_fused_loop(self, rays):
        assert docio.swept_degrees_approx(rays) == oracle_swept_degrees(rays)

    def test_same_bits_on_sweep_chains(self):
        chains = [
            s
            for n in range(2, 7)
            for s in itertools.product(SWEEP_VALUES, repeat=n)
            if max(s) >= 0
        ]
        for s in random.Random(6).sample(chains, 5000):
            rays = pt.classify(s).rays.w
            assert docio.swept_degrees_approx(rays) == oracle_swept_degrees(rays)


class FloatMade(Exception):
    pass


# the chains of the successful classify golden cases, with their --reduce flag
GOLDEN_CLASSIFY = {
    "classify_tight": ((-2, 1, 0, -2), False),
    "classify_overtwisted": ((2, 1, 3), False),
    "classify_3_-2_-2": ((3, -2, -2), False),
    "classify_reduce": ((2, -1, 2), True),
    "classify_huge_entries": ((HUGE, HUGE), False),
}


def test_only_the_writer_makes_a_float(capsys):
    with mock.patch("math.atan2", side_effect=FloatMade):
        reports = {name: pt.classify(s, reduce) for name, (s, reduce) in GOLDEN_CLASSIFY.items()}
        code = main(["survey", "--n", "2..3", "--range", "-3..1", "--jobs", "1"])
        with pytest.raises(FloatMade):
            docio.report_to_doc(reports["classify_tight"])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / "survey_csv.out").read_text()
    for name, report in reports.items():
        assert docio.dumps(docio.report_to_doc(report)) == (GOLDEN / (name + ".out")).read_text()
