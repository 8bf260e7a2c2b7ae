"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The exhaustive sweep
(entries in [-4, 3], no -1, some entry >= 0, n <= 6; about 1.4 * 10^5
chains) is computed once and shared by criteria 6, 7, 8 and 13.
"""

import itertools
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from math import gcd

import pytest

import plumbtoric as pt
from plumbtoric import Cmp, NeumannMove, Verdict
from plumbtoric.lattice import sl2z_apply, sl2z

SWEEP_VALUES = (-4, -3, -2, 0, 1, 2, 3)  # [-4, 3] without -1


def _passed(num, detail):
    print("[criterion %02d] PASS: %s" % (num, detail))


# ---------------------------------------------------------------------------
# theorem hypotheses (0-based indices internally)

def overtwisted_hypothesis(s):
    n = len(s)
    for i in range(n):
        if s[i] < 0:
            continue
        if i + 1 < n:
            prod = s[i] * s[i + 1]
            if prod >= 2 or (prod >= 1 and n > 2):
                return True
        for j in range(n):
            if abs(i - j) > 1 and (s[j] >= 1 or (s[j] >= 0 and n > 3)):
                return True
        if s[i] == 0 and 0 < i < n - 1:
            neighbors = s[i - 1] + s[i + 1]
            if neighbors >= 1 or (neighbors >= 0 and n > 3):
                return True
    return False


def tight_hypothesis(s):
    n = len(s)
    for i in range(n):
        if s[i] < 0:
            continue
        if all(s[j] <= -2 for j in range(n) if j != i):
            return True
        if s[i] == 0 and 0 < i < n - 1:
            if s[i - 1] + s[i + 1] <= -2 and all(
                s[j] <= -2 for j in range(n) if j not in (i, i + 1)
            ):
                return True
    return False


@dataclass
class SweepSummary:
    total: int = 0
    duration: float = 0.0
    det_failures: list = field(default_factory=list)
    lens_failures: list = field(default_factory=list)
    pivot_failures: list = field(default_factory=list)
    overtwisted_counterexamples: list = field(default_factory=list)
    tight_counterexamples: list = field(default_factory=list)


@pytest.fixture(scope="module")
def sweep():
    summary = SweepSummary()
    start = time.perf_counter()
    for n in range(2, 7):
        for s in itertools.product(SWEEP_VALUES, repeat=n):
            if not any(v >= 0 for v in s):
                continue
            summary.total += 1
            try:
                report = pt.classify(s)
            except pt.InconsistentInvariant:
                summary.lens_failures.append(s)
                continue
            except pt.InternalInvariantError:
                summary.pivot_failures.append(s)
                continue
            if not report.det_check:
                summary.det_failures.append(s)
            if (
                overtwisted_hypothesis(s)
                and report.verdict is not Verdict.OVERTWISTED
            ):
                summary.overtwisted_counterexamples.append(s)
            if tight_hypothesis(s) and report.verdict is not Verdict.TIGHT:
                summary.tight_counterexamples.append(s)
    summary.duration = time.perf_counter() - start
    return summary


def test_criterion_01_figure_triple():
    # the -1 entry is an exceptional sphere; classification blows it down
    assert pt.classify((-2, 1, 0, -1), reduce=True).verdict is Verdict.OVERTWISTED
    assert pt.classify((-2, 1, 0, -2)).verdict is Verdict.TIGHT
    assert pt.classify((-2, 1, 0, -3)).verdict is Verdict.TIGHT
    _passed(1, "(-2,1,0,-1) overtwisted; (-2,1,0,-2) and (-2,1,0,-3) tight")


def test_criterion_02_four_vertex_example():
    chain, z = (-2, 1, 0, -2), (-1, -3, -3, -1)
    assert pt.areas(chain, z) == (1, 7, 4, 1)
    poly = pt.moment_polygon(chain, 2, z)
    labels = [(e.self_intersection, e.area) for e in poly.edges]
    assert labels == [(-2, 1), (1, 7), (0, 4), (-2, 1)]
    _passed(2, "areas (1,7,4,1) and edge labels ((-2,1),(1,7),(0,4),(-2,1))")


def test_criterion_03_example_213():
    report = pt.classify((2, 1, 3))
    assert pt.boundary_rays((2, 1, 3), 1) == ((1, -2), (2, -3))
    assert pt.lens_equivalent(report.lens, (1, 2))  # L(1,2), i.e. S^3
    assert report.winding.vs_two_pi is Cmp.GT
    assert report.cone_is_whole_plane
    assert report.verdict is Verdict.OVERTWISTED
    torsion = pt.torsion_verdict(report.winding)
    assert torsion.contact_invariant is pt.ContactInvariant.ZERO
    assert torsion.at == 0
    _passed(3, "rays (1,-2),(2,-3); S^3; angle > 2pi; overtwisted; c=0, at=0")


def test_criterion_04_hirzebruch_family():
    checked = 0
    for m in range(0, 6):
        for n in range(1, 7):
            chain = (m,) + (-2,) * n
            report = pt.classify(chain)
            assert report.rays.w[-1] == (n + 1, n)
            k, l = m * n + m + n, n + 1
            if k == 0:
                expected = (0, 1)
            elif k == 1:
                expected = (1, 0)
            else:
                expected = (k, l % k)
            assert report.lens == expected
            assert report.verdict is Verdict.TIGHT
            checked += 1
    _passed(4, "%d chains (m, -2 x n): ray (n+1, n), L(mn+m+n, n+1), tight" % checked)


def test_criterion_05_borderline_families():
    for k in range(2, 7):
        report = pt.classify((-k, 0, k - 1))
        assert report.verdict is Verdict.TIGHT
        assert report.lens == (1, 0)
    for n in range(2, 6):
        for k in range(2, 6):
            chain = (-n, -k, 0, k - 1) + (-2,) * (n - 1)
            report = pt.classify(chain)
            assert report.rays.w[-1] == (-1, -n)
            assert report.winding.vs_pi is Cmp.EQ
            assert report.verdict is Verdict.TIGHT
    for n in (2, 3, 4):
        for k in range(2, 5):
            for t in range(2, 5):
                chain = (-2, -n, -k, 0, k - 1, -3) + (-2,) * t
                verdict = pt.classify(chain).verdict
                if n == 2:
                    assert verdict is Verdict.OVERTWISTED
                else:
                    assert verdict is Verdict.TIGHT
    _passed(5, "(-k,0,k-1) tight S^3; half-plane family EQ pi; deep family split")


def test_criterion_06_det_identity_exhaustive(sweep):
    assert sweep.total == sum(7**n - 3**n for n in range(2, 7))
    assert sweep.det_failures == []
    assert sweep.duration < 10.0, "sweep took %.2f s" % sweep.duration
    _passed(
        6,
        "det Q = (-1)^(n-1) cross(R1, R2) on %d chains in %.2f s"
        % (sweep.total, sweep.duration),
    )


def test_criterion_07_lens_cross_check_never_fires(sweep):
    assert sweep.lens_failures == []
    _passed(
        7,
        "terminal-ray lens pair equals the continuant pair (-1)^(n-1) (K(s), K(s_2..s_n)) "
        "on %d chains" % sweep.total,
    )


def test_criterion_08_theorem_suites(sweep):
    assert sweep.overtwisted_counterexamples == []
    assert sweep.tight_counterexamples == []
    _passed(8, "overtwistedness and tightness hypotheses: zero counterexamples")


# ---------------------------------------------------------------------------
# criterion 9: Neumann moves and blow-downs

B_MID = sl2z(1, 0, -1, 1)
B_MID_INV = sl2z(1, 0, 1, 1)


def _classifiable(s):
    return len(s) >= 2 and -1 not in s and any(v >= 0 for v in s)


def _random_base_chain(rng, length):
    while True:
        s = tuple(rng.choice(SWEEP_VALUES) for _ in range(length))
        if any(v >= 0 for v in s):
            return s


def test_criterion_09_neumann_and_blow_down():
    rng = random.Random(20260808)
    ray_checked = lens_checked = 0
    attempts = 0
    while lens_checked < 1000:
        attempts += 1
        assert attempts < 50000, "generator starved"
        kind = rng.choice(("r1-end", "r1-end-mirror", "r1-mid", "r3"))
        base = _random_base_chain(rng, rng.randint(2, 5))
        if kind == "r1-end":
            pre, site = base + (1,), len(base) + 1
        elif kind == "r1-end-mirror":
            pre, site = (1,) + base, 1
        elif kind == "r1-mid":
            cut = rng.randint(1, len(base) - 1)
            pre, site = base[:cut] + (1,) + base[cut:], cut + 1
        else:
            if len(base) < 4:
                continue
            cut = rng.randint(2, len(base) - 2)
            pre, site = base[:cut] + (0,) + base[cut:], cut + 1
        move = {
            "r1-end": NeumannMove.R1_END,
            "r1-end-mirror": NeumannMove.R1_END,
            "r1-mid": NeumannMove.R1_MID,
            "r3": NeumannMove.R3,
        }[kind]
        post = pt.neumann_move(pre, move, site)
        if not (_classifiable(pre) and _classifiable(post)):
            continue
        assert pt.lens_invariant(pre) == pt.lens_invariant(post)
        lens_checked += 1
        pre_r2 = pt.boundary_rays(pre, next(i for i, v in enumerate(pre, 1) if v >= 0))[1]
        post_r2 = pt.boundary_rays(post, next(i for i, v in enumerate(post, 1) if v >= 0))[1]
        if kind in ("r1-end", "r3") or (kind == "r1-mid" and site >= 3):
            assert post_r2 == (-pre_r2[0], -pre_r2[1])
            ray_checked += 1
        elif kind == "r1-mid" and site == 2:
            expected = sl2z_apply(B_MID_INV, pre_r2)
            assert post_r2 == (-expected[0], -expected[1])
            ray_checked += 1

    blow_checked = 0
    attempts = 0
    while blow_checked < 1000:
        attempts += 1
        assert attempts < 50000, "generator starved"
        base = _random_base_chain(rng, rng.randint(2, 5))
        if not _classifiable(base):
            continue
        planted = list(base)
        for _ in range(rng.randint(1, 3)):
            pos = rng.randint(0, len(planted))
            if pos == 0:
                planted = [-1, planted[0] - 1] + planted[1:]
            elif pos == len(planted):
                planted = planted[:-1] + [planted[-1] - 1, -1]
            else:
                planted = (
                    planted[: pos - 1]
                    + [planted[pos - 1] - 1, -1, planted[pos] - 1]
                    + planted[pos + 1 :]
                )
        reduced = pt.blow_down(tuple(planted))
        if not _classifiable(reduced):
            continue
        assert pt.classify(reduced).verdict is pt.classify(base).verdict
        assert pt.classify(tuple(planted), reduce=True).verdict is pt.classify(base).verdict
        blow_checked += 1
    _passed(
        9,
        "%d move sites preserve the lens pair (%d ray negations); "
        "%d planted blow-downs preserve the verdict"
        % (lens_checked, ray_checked, blow_checked),
    )


def test_criterion_10_plane_index_fixed_vectors():
    alpha = pt.ReebCurrent(((pt.hyperbolic_orbit(1), 1),))
    inp = pt.IndexInput(c_tau=1, q_tau=0, alpha=alpha, beta=pt.ReebCurrent())
    assert pt.ech_index(inp) == 1
    assert pt.fredholm_index(1, 1, [0], []) == 1
    j0, jp = pt.j_plus(inp)
    assert jp == 0
    _passed(10, "ind = I = 1 and J+ = 0 for the constructed plane data")


# ---------------------------------------------------------------------------
# criterion 11: orbit enumeration against a brute-force oracle

def _random_itinerary(rng, bound):
    """Random valid itinerary whose orbits provably fit in the 50-box."""
    while True:
        count = rng.randint(3, 5)
        pts = {}
        for _ in range(count * 3):
            p = (rng.randint(-6, 6), rng.randint(-6, 6))
            if p == (0, 0):
                continue
            pts[pt.primitive(p)] = p
            if len(pts) >= count:
                break
        if len(pts) < count:
            continue
        ordered = sorted(pts.values(), key=lambda p: math.atan2(p[1], p[0]))
        vertices = tuple((Fraction(x), Fraction(y)) for x, y in ordered)
        itinerary = pt.ReebItinerary(
            vertices=vertices,
            start_ray=pt.primitive(ordered[0]),
            end_ray=pt.primitive(ordered[-1]),
        )
        if pt.validate_itinerary(itinerary):
            continue
        # coordinate bound: any orbit m = alpha r_in + beta r_out at V has
        # alpha < L/<r_in, V>, beta < L/<r_out, V>
        fits = True
        for j in range(1, len(vertices) - 1):
            v = vertices[j]
            e_in = (v[0] - vertices[j - 1][0], v[1] - vertices[j - 1][1])
            e_out = (vertices[j + 1][0] - v[0], vertices[j + 1][1] - v[1])
            for e in (e_in, e_out):
                r = pt.reeb_direction(pt.primitive((int(e[0] * 2), int(e[1] * 2))))
                coeff = bound / (r[0] * v[0] + r[1] * v[1])
                if coeff * max(abs(r[0]), abs(r[1])) > 25:
                    fits = False
        if fits:
            return itinerary


def _oracle_families(itinerary, bound):
    found = {}
    verts = itinerary.vertices
    for j in range(1, len(verts) - 1):
        v = verts[j]
        e_in = (v[0] - verts[j - 1][0], v[1] - verts[j - 1][1])
        e_out = (verts[j + 1][0] - v[0], verts[j + 1][1] - v[1])
        r_in = pt.reeb_direction(pt.primitive((int(e_in[0] * 2), int(e_in[1] * 2))))
        r_out = pt.reeb_direction(pt.primitive((int(e_out[0] * 2), int(e_out[1] * 2))))
        for mx in range(-50, 51):
            for my in range(-50, 51):
                if (mx, my) == (0, 0) or gcd(abs(mx), abs(my)) != 1:
                    continue
                if pt.cross(r_in, (mx, my)) <= 0 or pt.cross((mx, my), r_out) <= 0:
                    continue
                action = mx * v[0] + my * v[1]
                if action < bound:
                    q = bound / action
                    mult = int(q) - 1 if q == int(q) else int(q)
                    found[(j, (mx, my))] = (action, mult)
    return found


def test_criterion_11_orbit_enumeration_oracle():
    rng = random.Random(1117)
    for trial in range(100):
        # (3k + 1)/3 is never an integer, so integer-point actions miss it
        bound = Fraction(3 * rng.randint(2, 19) + 1, 3)
        itinerary = _random_itinerary(rng, bound)
        try:
            families = pt.enumerate_orbits(itinerary, bound)
        except pt.ActionBoundHit:
            # vertices are integer points, so rational non-integer bounds
            # cannot be hit; treat as a generation bug
            raise AssertionError("unexpected exact action at bound %s" % bound)
        got = {
            (fc.family.vertex, fc.family.slope): (
                fc.family.base_action,
                fc.max_multiplicity,
            )
            for fc in families
        }
        assert got == _oracle_families(itinerary, bound), "trial %d" % trial
    _passed(11, "100 random itineraries match the 50-box brute-force scan")


# ---------------------------------------------------------------------------
# criterion 12: exact winding versus floats

def _random_ray_sequence(rng):
    while True:
        rays = []
        while len(rays) < rng.randint(2, 5):
            v = (rng.randint(-9, 9), rng.randint(-9, 9))
            if v == (0, 0):
                continue
            if rays and pt.cross(rays[-1], v) == 0 and pt.dot(rays[-1], v) > 0:
                continue
            rays.append(v)
        return rays


def _float_angle_sum(rays):
    total = 0.0
    for u, v in zip(rays, rays[1:]):
        ang = math.atan2(pt.cross(u, v), pt.dot(u, v))
        total += ang if ang > 0 else ang + 2 * math.pi
    return total


def test_criterion_12_winding_exactness():
    rng = random.Random(775)
    compared = 0
    while compared < 10000:
        rays = _random_ray_sequence(rng)
        total = _float_angle_sum(rays)
        if abs(total - math.pi) < 1e-6 or abs(total - 2 * math.pi) < 1e-6:
            continue
        w = pt.winding_compare(rays)
        assert (w.vs_pi is Cmp.GT) == (total > math.pi)
        assert (w.vs_two_pi is Cmp.GT) == (total > 2 * math.pi)
        assert w.vs_pi is not Cmp.EQ and w.vs_two_pi is not Cmp.EQ
        compared += 1

    # constructed exact half turns, where floats cannot be trusted
    def ccw(a, b):
        return -1 if pt.cross(a, b) > 0 else 1

    exact = 0
    while exact < 200:
        w0 = pt.primitive((rng.randint(-9, 9) or 1, rng.randint(-9, 9)))
        middles = {}
        for _ in range(10):
            v = (rng.randint(-9, 9), rng.randint(-9, 9))
            if v != (0, 0) and pt.cross(w0, v) > 0:
                middles[pt.primitive(v)] = v
        if not middles:
            continue
        chosen = sorted(middles.keys(), key=cmp_to_key(ccw))[: rng.randint(1, 3)]
        rays = [w0] + chosen + [(-w0[0], -w0[1])]
        w = pt.winding_compare(rays)
        assert w.vs_pi is Cmp.EQ
        assert w.vs_two_pi is Cmp.LT
        exact += 1
    _passed(12, "10^4 float-safe sequences agree; 200 exact half turns return EQ")


def test_criterion_13_pivot_independence(sweep):
    assert sweep.pivot_failures == []
    _passed(13, "verdict identical across every valid pivot on %d chains" % sweep.total)
