"""The document writer against oracles of its earlier code: the display-only
swept angle, made by the writer alone with the same bits as the float loop
``winding_compare`` used to run beside its exact count, and the SVG, CSV and
survey JSON writers, with the same bytes as their helper-based versions."""

import csv
import itertools
import math
import random
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import plumbtoric as pt
from plumbtoric import cli, docio, lattice, toric
from plumbtoric.cli import main

GOLDEN = Path(__file__).parent / "golden"
HUGE = int("3" * 160)  # the rays of HUGE,HUGE have cross and dot past 10^308
SWEEP_VALUES = (-4, -3, -2, 0, 1, 2, 3)  # the criterion-06 set: [-4, 3] without -1
# small integers and ones of up to 4,300 digits, Python's default int-to-str limit
PRINTABLE_INTS = st.one_of(st.integers(-99, 99), st.integers(-(10**4300 - 1), 10**4300 - 1))


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


def oracle_row(chain, verdict, winding, lens, det):
    """The field texts of a survey row in ``SURVEY_COLUMNS`` order, from
    ``toric.survey_walk``'s values, as the row tuple the oracles write."""
    return (
        ",".join(map(str, chain)),
        verdict.value,
        str(lens[0]),
        str(lens[1]),
        winding.vs_pi.value,
        winding.vs_two_pi.value,
        str(det),
        "true",
    )


def oracle_csv_line(row):
    return '"%s",%s\n' % (row[0], ",".join(row[1:]))


def oracle_survey_to_csv(rows):
    lines = [docio.SURVEY_HEADER, ",".join(docio.SURVEY_COLUMNS)]
    return "\n".join(lines) + "\n" + "".join(map(oracle_csv_line, rows))


def oracle_survey_to_json(rows):
    return docio.dumps([dict(zip(docio.SURVEY_COLUMNS, row)) for row in rows])


def chain_fields(chains):
    """``toric.survey_walk``'s values of each chain walked on its own, as
    the prefix tree of the one chain."""
    return [f for s in chains for f in toric.survey_walk(s, len(s), len(s), ())]


def tree_fields(lengths, values):
    """``toric.survey_walk``'s values over every chain n_lo..n_hi long over
    values, one walk of the prefix tree per first entry."""
    n_lo, n_hi = lengths
    return [f for v in values for f in toric.survey_walk((v,), n_lo, n_hi, values)]


def survey_document(fields, form, cuts=()):
    """The survey document the parent writes from the ``survey_row`` texts
    of the walk's values, the rows cut into consecutive parts before each
    index in cuts, as workers return them."""
    bounds = [0, *sorted(cuts), len(fields)]
    parts = ["".join([docio.survey_row(*f, form) for f in fields[a:b]]) for a, b in zip(bounds, bounds[1:])]
    return docio.survey_to_json(parts) if form == "json" else docio.survey_to_csv(parts)


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
        fields = tree_fields((2, 4), range(-3, 3))
        assert len(fields) > 1000
        text = survey_document(fields, "csv")
        assert text == oracle_survey_to_csv([oracle_row(*f) for f in fields])
        # the row f-string names its fields itself, so pin their count
        records = list(csv.reader(text.splitlines()[1:]))
        assert len(records) == len(fields) + 1
        assert {len(r) for r in records} == {len(docio.SURVEY_COLUMNS)}
        assert survey_document([], "csv") == oracle_survey_to_csv([])

    @given(
        st.lists(
            st.tuples(
                st.lists(st.one_of(st.just(-1), st.integers(-4, 4), PRINTABLE_INTS), min_size=2, max_size=8),
                st.sampled_from(toric.Verdict),
                st.builds(lattice.WindingVerdict, st.sampled_from(lattice.Cmp), st.sampled_from(lattice.Cmp),
                          st.just(0), st.just(0), st.none()),
                st.tuples(PRINTABLE_INTS, PRINTABLE_INTS),
                PRINTABLE_INTS,
            ),
            max_size=6,
        ),
        st.lists(st.integers(0, 6), max_size=3),
    )
    @settings(max_examples=200, deadline=None)
    def test_same_bytes_on_any_walk_values(self, fields, cuts):
        # any value the walk could yield, entries, lens and det up to the
        # printable digit limit, negatives included; the rows cut anywhere
        cuts = [min(c, len(fields)) for c in cuts]
        rows = [oracle_row(*f) for f in fields]
        assert survey_document(fields, "csv", cuts) == oracle_survey_to_csv(rows)
        assert survey_document(fields, "json", cuts) == oracle_survey_to_json(rows)

    @pytest.mark.parametrize("form", ["csv", "json"])
    @pytest.mark.parametrize("huge", ["det", "entry"])
    def test_unprintable_row_refused(self, form, huge):
        ((chain, verdict, winding, lens, det),) = toric.survey_walk((0, 1), 2, 2, ())
        if huge == "det":
            det = 10**5000
        else:
            chain = (0, -(10**4999))  # 5,000 digits
        with pytest.raises(pt.OutputTooLarge, match="^output too large to print: "):
            docio.survey_row(chain, verdict, winding, lens, det, form)

    def test_chain_column_from_templates_per_length(self):
        # lengths 1..200 and back again, past the template cache's 64
        # lengths, so that it evicts and refills; tuples and lists, entries
        # of many digits, negatives included
        ((_, verdict, winding, lens, det),) = toric.survey_walk((0, 1), 2, 2, ())
        rng = random.Random(34)
        lengths = [*range(1, 201), *range(200, 0, -1)]
        for k, n in enumerate(lengths):
            chain = [rng.choice([-1, 0, 3, -(10**40) - 7, 10**120, -(10**299) + 1]) for _ in range(n)]
            chain = chain if k % 2 else tuple(chain)
            row = oracle_row(chain, verdict, winding, lens, det)
            assert row[0] == ",".join(map(str, chain))
            assert docio.survey_row(chain, verdict, winding, lens, det, "csv") == oracle_csv_line(row)
            text = docio.survey_row(chain, verdict, winding, lens, det, "json")
            assert docio.survey_to_json([text]) == oracle_survey_to_json([row])
        assert docio._chain_template.cache_info().currsize <= 64

    @pytest.mark.parametrize("form", ["csv", "json"])
    def test_chain_entry_past_the_digit_limit_refused(self, form):
        # one entry of limit + 1 digits in a long chain; limit digits print
        ((_, verdict, winding, lens, det),) = toric.survey_walk((0, 1), 2, 2, ())
        limit = sys.get_int_max_str_digits()
        for chain in ([3] * 99 + [-(10**limit)], (10**limit,) + (0,) * 99):
            with pytest.raises(pt.OutputTooLarge, match="^output too large to print: "):
                docio.survey_row(chain, verdict, winding, lens, det, form)
        chain = [3] * 99 + [-(10 ** (limit - 1))]
        text = docio.survey_row(chain, verdict, winding, lens, det, form)
        assert '"%s"' % ",".join(map(str, chain)) in text

    @given(
        st.lists(
            st.lists(st.one_of(st.just(-1), st.integers(-4, 4)), min_size=2, max_size=10).map(tuple),
            max_size=30,
        ),
        st.lists(st.integers(0, 30), max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_json_same_bytes_on_walk_rows(self, chains, cuts):
        # -1 weighted as one choice in two; the rows cut into parts anywhere,
        # empty parts too
        chains = [c for c in chains if max(c) >= 0]
        fields = chain_fields(chains)
        rows = [oracle_row(*f) for f in fields]
        cuts = [min(c, len(rows)) for c in cuts]
        assert survey_document(fields, "json", cuts) == oracle_survey_to_json(rows)
        assert survey_document(fields, "csv", cuts) == oracle_survey_to_csv(rows)

    def test_empty_json_survey(self, capsys):
        argv = ["survey", "--n", "2..3", "--range", "-3..-2", "--exclude-minus-one", "--format", "json"]
        assert main(argv) == 0
        assert capsys.readouterr().out == oracle_survey_to_json([]) == "[]\n"

    def test_json_jobs_agree_with_fewer_subtrees_than_four_per_worker(self, capsys, monkeypatch):
        # two values and --n 2..5: four prefixes of length 2 for two workers,
        # each subtree's rows one part; the real process pool
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        argv = ["survey", "--n", "2..5", "--range", "0..1", "--exclude-minus-one", "--format", "json"]
        expected = oracle_survey_to_json([oracle_row(*f) for f in tree_fields((2, 5), (0, 1))])
        for jobs in ("1", "2"):
            assert main([*argv, "--jobs", jobs]) == 0
            assert capsys.readouterr() == (expected, "")


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
