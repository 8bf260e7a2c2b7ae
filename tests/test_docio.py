"""The document writer against oracles of its earlier code: the display-only
swept angle, made by the writer alone with the same bits as the float loop
``winding_compare`` used to run beside its exact count, and the SVG and CSV
writers, with the same bytes as their helper-based versions."""

import csv
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

import plumbtoric as pt
from plumbtoric import cli, docio, toric
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


# ---------------------------------------------------------------------------
# The two bulk writers, pinned against the library's earlier helper-based
# versions: each element is now one % template, with the same bytes.


def _fmt(x):
    return "%.3f" % x


def oracle_render_svg(poly):
    pts = [(float(x), float(y)) for x, y in poly.vertices]
    ray_tips = [(x * 1.45, y * 1.45) for x, y in (pts[0], pts[-1])]
    xs = [p[0] for p in pts + ray_tips] + [0.0]
    ys = [p[1] for p in pts + ray_tips] + [0.0]
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    margin = 0.08 * span
    x0, y1 = min(xs) - margin, max(ys) + margin
    scale = 480.0 / (span + 2 * margin)

    def to_px(p):
        return ((p[0] - x0) * scale, (y1 - p[1]) * scale)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'width="%d" height="%d" viewBox="0 0 %d %d">' % ((480.0,) * 4),
        '<g font-family="monospace" font-size="11">',
    ]
    ox, oy = to_px((0.0, 0.0))
    parts.append(
        '<circle class="origin" cx="%s" cy="%s" r="3" fill="black"/>' % (_fmt(ox), _fmt(oy))
    )
    for tip, cls in ((ray_tips[0], "ray start-ray"), (ray_tips[1], "ray end-ray")):
        tx, ty = to_px(tip)
        parts.append(
            '<line class="%s" x1="%s" y1="%s" x2="%s" y2="%s" '
            'stroke="blue" stroke-dasharray="6,4"/>' % (cls, _fmt(ox), _fmt(oy), _fmt(tx), _fmt(ty))
        )
    for e in poly.edges:
        (ax, ay), (bx, by) = to_px(pts[e.start]), to_px(pts[e.end])
        parts.append(
            '<line class="edge" x1="%s" y1="%s" x2="%s" y2="%s" '
            'stroke="darkorange" stroke-width="2"/>' % (_fmt(ax), _fmt(ay), _fmt(bx), _fmt(by))
        )
        mx, my = (ax + bx) / 2, (ay + by) / 2
        parts.append(
            '<text class="edge-label" x="%s" y="%s">s=%d a=%s</text>'
            % (_fmt(mx + 4), _fmt(my - 4), e.self_intersection, docio.format_fraction(e.area))
        )
    arc = [ray_tips[0]] + pts + [ray_tips[1]]
    arc_pts = " ".join("%s,%s" % tuple(map(_fmt, to_px((0.35 * p[0], 0.35 * p[1])))) for p in arc)
    parts.append(
        '<polyline class="boundary" points="%s" fill="none" stroke="green" '
        'stroke-dasharray="2,3"/>' % arc_pts
    )
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def oracle_survey_to_csv(rows):
    lines = [docio.SURVEY_HEADER, ",".join(docio.SURVEY_COLUMNS)]
    for row in rows:
        lines.append('"%s",%s' % (row[0], ",".join(row[1:])))
    return "\n".join(lines) + "\n"


def sweep_polygons():
    """The first-pivot polygon of every seventh criterion-06 chain; of every
    50th of those also the polygon with heights scaled by 7/3, and of every
    10th a corner blow-up of size 1/2."""
    chains = [
        s for n in range(2, 7) for s in itertools.product(SWEEP_VALUES, repeat=n) if max(s) >= 0
    ]
    for k, s in enumerate(chains[::7]):
        pivot = next(i for i, v in enumerate(s, start=1) if v >= 0)
        try:
            poly = pt.moment_polygon(s, pivot)
        except pt.PreconditionError:
            continue
        yield poly
        if k % 50 == 0:
            yield pt.moment_polygon(s, pivot, [Fraction(7, 3) * h for h in toric._heights(s, pivot)])
        if k % 10 == 0:
            try:
                yield pt.blow_up_corner(poly, 1 + k % (len(s) - 1), Fraction(1, 2))
            except pt.PreconditionError:
                pass


class TestBulkWriters:
    def test_svg_same_bytes_on_sweep_polygons(self):
        count = 0
        for poly in sweep_polygons():
            assert docio.render_svg(poly) == oracle_render_svg(poly)
            count += 1
        assert count >= 20000

    def test_csv_same_bytes_on_survey_rows(self):
        chains = [
            s for n in range(2, 5) for s in itertools.product(range(-3, 3), repeat=n) if max(s) >= 0
        ]
        rows = cli.survey_rows(sorted(chains))
        assert len(rows) > 1000
        text = docio.survey_to_csv(rows)
        assert text == oracle_survey_to_csv(rows)
        # the row f-string names its fields itself, so pin their count
        records = list(csv.reader(text.splitlines()[1:]))
        assert len(records) == len(rows) + 1
        assert {len(r) for r in records} == {len(docio.SURVEY_COLUMNS)}
        assert docio.survey_to_csv([]) == oracle_survey_to_csv([])

    @given(st.lists(st.tuples(*[st.text()] * len(docio.SURVEY_COLUMNS)), max_size=5))
    def test_csv_same_bytes_on_any_strings(self, rows):
        assert docio.survey_to_csv(rows) == oracle_survey_to_csv(rows)


def test_writers_join_edge_j_to_vertices_j_and_j_plus_1():
    # blow_up_corner and polygon_from_doc take edge j to join vertices j and
    # j + 1 whatever indices it stores; so do the SVG and document writers
    poly = pt.moment_polygon((-2, 1, 0, -2), 2)
    relabeled = pt.MomentPolygon(
        poly.vertices,
        tuple(pt.PolygonEdge(7, j, e.self_intersection, e.area) for j, e in enumerate(poly.edges)),
        poly.rays,
    )
    assert docio.render_svg(relabeled) == docio.render_svg(poly)
    doc = docio.polygon_to_doc(relabeled)
    assert doc == docio.polygon_to_doc(poly)
    assert docio.polygon_from_doc(doc) == poly


@pytest.mark.parametrize("extra", [-1, 1], ids=["one_too_few", "one_too_many"])
@pytest.mark.parametrize("writer", [docio.render_svg, docio.polygon_to_doc])
def test_writers_refuse_an_edge_count_off_by_one(writer, extra):
    # edge j joins vertices j and j + 1, so the writers hold a polygon to
    # one edge fewer than vertices, as blow_up_corner and polygon_from_doc do
    poly = pt.moment_polygon((-2, 1, 0, -2), 2)
    edges = poly.edges[:extra] if extra < 0 else poly.edges + poly.edges[-1:]
    bad = pt.MomentPolygon(poly.vertices, edges, poly.rays)
    with pytest.raises(pt.InternalInvariantError, match="^%d edges for 5 vertices$" % (4 + extra)):
        writer(bad)
