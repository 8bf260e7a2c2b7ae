"""The README's library quick start, run as written: each value its
comments state is asserted here."""

import re
from fractions import Fraction
from pathlib import Path

from plumbtoric import Cmp, ContactInvariant, TorsionBound, Verdict

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start():
    """The names the README's python block defines, after running it."""
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace = {}
    exec(block, namespace)
    return namespace


def test_quick_start_states_what_it_returns():
    ns = quick_start()
    report, pt, docio = ns["report"], ns["pt"], ns["docio"]
    assert report.verdict is Verdict.TIGHT
    assert report.lens == (1, 0)
    assert report.winding.vs_pi is Cmp.LT
    assert report.rays.w == ((1, 2), (0, 1), (-1, 0), (-1, -1))
    assert "%.3f" % docio.swept_degrees_approx(report.rays.w) == "161.565"
    torsion = pt.torsion_verdict(report.winding)
    assert torsion.contact_invariant is ContactInvariant.NONZERO
    assert torsion.at_simp is TorsionBound.INFINITE
    assert [(e.self_intersection, e.area) for e in ns["poly"].edges] == [
        (-2, 1), (1, 7), (0, 4), (-2, 1),
    ]
    families = pt.enumerate_orbits(ns["it"], 5)
    assert [(f.family.slope, f.family.base_action, f.max_multiplicity) for f in families] == [
        ((-1, -2), Fraction(4), 1),
        ((0, -1), Fraction(2), 2),
        ((1, -2), Fraction(4), 1),
    ]


def test_quick_start_polygon_takes_the_smallest_pivot():
    ns = quick_start()
    assert ns["poly"] == ns["pt"].moment_polygon((-2, 1, 0, -2), 2, (-1, -3, -3, -1))
