"""Stable file formats: JSON documents, the survey table, and SVG rendering.

Exact rationals serialize as "p/q" strings ("p" when the denominator is 1)
so no binary-float drift ever enters a document; floats appear only in
display-only fields suffixed ``_approx``, computed here and held by no
exact type.  All output is deterministic: identical inputs produce
bit-identical documents.  ``report_to_doc`` builds a classify document
whole, its winding and torsion parts included.

Documents are written by ``dumps`` (``json.dumps(indent=2, sort_keys=True)``)
except the two bulk JSON documents, the reeb-orbits listing and the survey,
whose entries can run past 10^5 and are too slow for the indenting
encoder, which is pure Python.  Each is written in its fixed shape, with
the same bytes as ``dumps`` of the document.  ``reeb_orbits_text`` writes
each family straight from its ``FamilyCount``, each split orbit from one
template, and each generator entry once per (orbit, multiplicity) entry
the search shares among its currents, from its orbit's text up to the
multiplicity (one template per orbit, once per call).  Each generator
(``current_to_doc``) joins its entries' texts in the order the current
lists them: ``reeb.enumerate_generators`` decides the orbit order, and
nothing here sorts again.  A survey row is written by ``survey_row``
from one f-string template per format, CSV or JSON, straight from the
walk's values, its chain column from one ``%d`` template per chain length
(``_chain_template``, a cache of 64 lengths); the texts of consecutive
rows concatenate, so survey workers return text and ``survey_to_csv`` and
``survey_to_json`` only join it.  ``families_to_doc`` and
``reeb_orbits_text`` format each distinct base action object once per call.
Each element of the SVG picture is one template with its coordinates in
``%.3f`` fields.  Output with an integer too long to print is refused as
:class:`OutputTooLarge` (``_printable``).
"""

from __future__ import annotations

import functools
import json
import math
import re
import sys
from fractions import Fraction
from typing import Sequence

from . import reeb
from .errors import MalformedDocument, OutputTooLarge
from .reeb import ReebItinerary
from .toric import BoundaryReport, MomentPolygon, PolygonEdge, _check_edge_count

SURVEY_HEADER = "# plumbtoric-survey v1"
SURVEY_COLUMNS = ("s", "verdict", "k", "l", "vs_pi", "vs_2pi", "det", "det_check")
_READ_ERRORS = (KeyError, TypeError, IndexError, ValueError, OverflowError)
_EXPONENT = re.compile(r"[eE]([-+]?\d+)\s*\Z")
_MISPLACED = re.compile(r"\S\s+\S|(?<!\d)_|_(?!\d)")  # inner whitespace, a stray underscore


def _printable(make):
    """``make`` refusing, as :class:`OutputTooLarge`, output with an integer
    past Python's int-to-str digit limit or, in a picture, a value past the
    float range.  Every function here that makes output text is wrapped;
    the values they format raise ValueError or OverflowError for nothing
    else."""

    @functools.wraps(make)
    def made(*args):
        try:
            return make(*args)
        except (ValueError, OverflowError) as exc:
            raise OutputTooLarge("output too large to print: %s" % exc) from None

    return made


def format_fraction(x) -> str:
    """"p/q" for an int or a Fraction in lowest terms, "p" when q is 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def parse_fraction(text) -> Fraction:
    """A document or flag rational; refused unless it can be printed back.

    The grammar is ``Fraction``'s on Python 3.11, on every supported Python:
    whitespace only around the text, and underscores only between two
    digits, which are stripped before ``Fraction`` reads the text (3.10
    reads no underscores, and 3.12 reads spaces around the "/").

    ``Fraction`` builds 10**|exp| for a decimal exponent before anything is
    checked, so the exponent is read off the text first.  One that would
    leave more digits than Python prints is refused at once, and a zero
    mantissa reads as 0 whatever its exponent.
    """
    text = str(text)
    try:
        if _MISPLACED.search(text):
            raise ValueError("whitespace inside the number or an underscore not between digits")
        digits = text.replace("_", "")
        match = _EXPONENT.search(digits)
        if match is None:
            value = Fraction(digits)
        else:
            value = Fraction(digits[: match.start()] + "e0")  # the mantissa p/q
            exp, limit = int(match.group(1)), sys.get_int_max_str_digits()
            if value:
                # |value| >= 10**exp / q and its denominator >= 10**-exp / |p|;
                # bit lengths bound the digits of p and q from above
                p, q = value.numerator, value.denominator
                if limit and max(exp - q.bit_length(), -exp - p.bit_length()) >= limit:
                    raise ValueError("exponent %d leaves more than %d digits" % (exp, limit))
                value *= Fraction(10) ** exp
        format_fraction(value)  # Python's int-to-str digit limit applies
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedDocument("bad rational %r: %s" % (text, exc)) from None
    return value


def parse_int(value) -> int:
    """A document integer: a JSON int or a string ``int()`` accepts, never a
    bool, a float or any other type."""
    try:
        if type(value) not in (int, str):
            raise ValueError("expected a JSON integer")
        return int(value)
    except ValueError as exc:
        raise MalformedDocument("bad integer %r: %s" % (value, exc)) from None


def _vec(v) -> list:
    return [int(v[0]), int(v[1])]


def _pair(v, parse) -> tuple:
    """The two components of a document pair (a ray or a vertex), parsed."""
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise ValueError("expected a pair of components, got %r" % (v,))
    return parse(v[0]), parse(v[1])


def swept_degrees_approx(rays) -> float:
    """The CCW angle, in degrees and for display only, swept by consecutive
    rays: each step's atan2(cross, dot) in (0, 2 pi), after dividing a cross
    or dot past the float range by the larger of the two."""
    total = 0.0
    atan2, two_pi = math.atan2, 2 * math.pi
    for (ux, uy), (vx, vy) in zip(rays, rays[1:]):
        c, d = ux * vy - uy * vx, ux * vx + uy * vy  # cross(u, v), dot(u, v)
        try:
            ang = atan2(c, d)
        except OverflowError:
            big = max(abs(c), abs(d))
            ang = atan2(c / big, d / big)
        total += ang if ang > 0 else ang + two_pi
    return math.degrees(total)


def report_to_doc(report: BoundaryReport) -> dict:
    """The classify document.  Each enum text is read as ``member._value_``,
    the value the member stores: ``member.value`` is a Python-level property,
    about ten times slower, and this runs once per classified chain."""
    rays = report.rays.w  # int pairs, as classify builds them
    w = report.winding
    torsion = reeb.torsion_verdict(w)
    return {
        "chain": list(report.chain),
        "pivot": report.pivot,
        "rays": [[x, y] for x, y in rays],
        "winding": {
            "vs_pi": w.vs_pi._value_,
            "vs_2pi": w.vs_two_pi._value_,
            "crossings_of_start": w.crossings_of_start,
            "crossings_of_antipode": w.crossings_of_antipode,
            "final_landing": None if w.final_landing is None else w.final_landing._value_,
            "swept_degrees_approx": swept_degrees_approx(rays),
        },
        "verdict": report.verdict._value_,
        "lens": {"k": report.lens[0], "l": report.lens[1]},
        "det": report.det,
        "det_check": report.det_check,
        "cone_is_whole_plane": report.cone_is_whole_plane,
        "torsion": {
            "contact_invariant": torsion.contact_invariant._value_,
            "at": torsion.at,
            "at_simp": None if torsion.at_simp is None else torsion.at_simp._value_,
        },
    }


@_printable
def polygon_to_doc(poly: MomentPolygon) -> dict:
    _check_edge_count(poly)
    return {
        "vertices": [[format_fraction(x), format_fraction(y)] for x, y in poly.vertices],
        "edges": [
            {
                "start": j,  # edge j joins vertices j and j + 1, as read back
                "end": j + 1,
                "self_intersection": e.self_intersection,
                "area": format_fraction(e.area),
            }
            for j, e in enumerate(poly.edges)
        ],
        "rays": [_vec(poly.rays[0]), _vec(poly.rays[1])],
    }


def polygon_from_doc(doc: dict) -> MomentPolygon:
    try:
        vertices = tuple(_pair(v, parse_fraction) for v in doc["vertices"])
        edges = tuple(
            PolygonEdge(
                start=parse_int(e["start"]),
                end=parse_int(e["end"]),
                self_intersection=parse_int(e["self_intersection"]),
                area=parse_fraction(e["area"]),
            )
            for e in doc["edges"]
        )
        rays = _pair(doc["rays"], lambda ray: _pair(ray, parse_int))
        if len(edges) != len(vertices) - 1:
            raise ValueError("%d edges for %d vertices" % (len(edges), len(vertices)))
        for j, e in enumerate(edges):  # edge j joins vertices j and j + 1
            if (e.start, e.end) != (j, j + 1):
                raise ValueError("edge %d joins vertices %d and %d" % (j, e.start, e.end))
    except _READ_ERRORS as exc:
        raise MalformedDocument("bad moment-polygon document: %s" % exc) from None
    return MomentPolygon(vertices=vertices, edges=edges, rays=rays)


def itinerary_from_doc(doc: dict) -> ReebItinerary:
    try:
        vertices = tuple(_pair(v, parse_fraction) for v in doc["vertices"])
        start_ray = _pair(doc["start_ray"], parse_int)
        end_ray = _pair(doc["end_ray"], parse_int)
    except _READ_ERRORS as exc:
        raise MalformedDocument("bad itinerary document: %s" % exc) from None
    return ReebItinerary(vertices=vertices, start_ray=start_ray, end_ray=end_ray)


def _action_texts():
    """A formatter that formats each distinct action object once: the
    families at one action share one ``Fraction``, and a split orbit keeps
    its family's.  Its table keeps each action with its text under
    ``id(action)``, so no other object takes that id while it lives."""
    texts = {}

    def text(action) -> str:
        if id(action) not in texts:
            texts[id(action)] = (action, format_fraction(action))
        return texts[id(action)][1]

    return text


@_printable
def families_to_doc(families: Sequence[reeb.FamilyCount]) -> list:
    """The families as documents, each distinct base action object formatted
    once per call (``_action_texts``), even where ``families`` makes each
    family anew."""
    text = _action_texts()
    return [
        {
            "vertex": fc.family.vertex,
            "slope": _vec(fc.family.slope),
            "base_action": text(fc.family.base_action),
            "max_multiplicity": fc.max_multiplicity,
        }
        for fc in families
    ]


def _entry_heads(orbits, text=format_fraction) -> tuple:
    """The writer's entry texts for one document: each orbit's generator-entry
    text up to the multiplicity, its action formatted by ``text``, keyed by
    ``id(orbit)`` (the search's currents hold these very objects, and
    hashing one goes through two Fractions and its family), and an empty
    table that ``current_to_doc`` fills with each entry's whole text."""
    heads = {id(o): _ENTRY_TEXT % (text(o.base_action), o.cz, o.eps_exponent, o.kind.value) for o in orbits}
    return heads, {}


def current_to_doc(current: reeb.ReebCurrent, heads) -> str:
    """One generator's text as it sits in the reeb-orbits document, with
    ``heads`` the ``_entry_heads`` of the orbit list the generator was drawn
    from: its entries' texts joined in the current's order, which
    ``enumerate_generators`` makes the document's.

    Each (orbit, multiplicity) entry tuple's text is made once per ``heads``:
    the search's currents share one tuple per entry.  The table keeps the
    entry with its text under ``id(entry)``, so that no other object can
    take that id while the text is kept, and a lookup checks that it found
    this very entry."""
    if not current.entries:
        return "[]"
    heads, texts = heads
    listed = []
    for entry in current.entries:
        held = texts.get(id(entry))
        if held is None or held[0] is not entry:
            orbit, mult = entry
            held = texts[id(entry)] = (entry, heads[id(orbit)] + str(mult))
        listed.append(held[1])
    return "[\n      %s\n      }\n    ]" % "\n      },\n      ".join(listed)


# one family, split orbit and generator entry (bar its multiplicity) as printed
_FAMILY_TEXT = (
    '{\n      "base_action": "%s",\n      "max_multiplicity": %d,\n      "slope": [\n'
    '        %d,\n        %d\n      ],\n      "vertex": %d\n    }'
)
_ORBIT_TEXT = (
    '{\n      "base_action": "%s",\n      "cz": %d,\n      "eps_exponent": %d,\n'
    '      "kind": "%s",\n      "slope": [\n        %d,\n        %d\n      ],\n'
    '      "vertex": %d\n    }'
)
_ENTRY_TEXT = (
    '{\n        "base_action": "%s",\n        "cz": %d,\n        "eps_exponent": %d,\n'
    '        "kind": "%s",\n        "multiplicity": '
)


def _listing(items) -> str:
    """A list of item texts as ``dumps`` writes it one level down."""
    return "[\n    %s\n  ]" % ",\n    ".join(items) if items else "[]"


@_printable
def reeb_orbits_text(bound, families, orbits, generators) -> str:
    """The reeb-orbits document; each split orbit names its family's corner
    and slope.  The same bytes as ``dumps`` of the document, written in its
    fixed shape: rationals print as "p/q" and the orbit kinds are plain
    words, so no string needs JSON escaping.  Each distinct base action
    object is formatted once per call, for the families, the orbits and the
    generator entries alike (``_action_texts``)."""
    text = _action_texts()
    heads = _entry_heads(orbits, text)
    families_text = [
        _FAMILY_TEXT % (text(fc.family.base_action), fc.max_multiplicity, *fc.family.slope, fc.family.vertex)
        for fc in families
    ]
    orbits_text = [
        _ORBIT_TEXT
        % (text(o.base_action), o.cz, o.eps_exponent, o.kind.value, *o.family.slope, o.family.vertex)
        for o in orbits
    ]
    return '{\n  "action_bound": "%s",\n  "families": %s,\n  "generators": %s,\n  "orbits": %s\n}\n' % (
        format_fraction(bound),
        _listing(families_text),
        _listing([current_to_doc(g, heads) for g in generators]),
        _listing(orbits_text),
    )


def current_from_doc(entries: list) -> reeb.ReebCurrent:
    out = []
    try:
        for e in entries:
            kind = reeb.OrbitKind(e["kind"])
            elliptic = kind is reeb.OrbitKind.ELLIPTIC
            orbit = reeb.PerturbedOrbit(
                kind=kind,
                base_action=parse_fraction(e.get("base_action", "1")),
                eps_exponent=parse_int(e.get("eps_exponent", 1 if elliptic else -1)),
                cz=parse_int(e.get("cz", 1 if elliptic else 0)),
            )
            out.append((orbit, parse_int(e.get("multiplicity", 1))))
        return reeb.ReebCurrent(tuple(out))
    except _READ_ERRORS as exc:
        raise MalformedDocument("bad Reeb-current document: %s" % exc) from None


def index_from_doc(doc: dict) -> tuple:
    """The index-input document as (IndexInput, ends): ends is (chi, cz_plus,
    cz_minus) for the Fredholm index when the document has "chi", else False.
    Its four list fields, when present, must be JSON arrays."""
    try:
        c_tau, q_tau = parse_int(doc["c_tau"]), parse_int(doc["q_tau"])
        lists = [doc.get(key, []) for key in ("alpha", "beta", "cz_plus", "cz_minus")]
        if not all(isinstance(v, list) for v in lists):
            raise ValueError("alpha, beta, cz_plus and cz_minus must be JSON arrays")
        alpha, beta, cz_plus, cz_minus = lists
        inp = reeb.IndexInput(c_tau, q_tau, current_from_doc(alpha), current_from_doc(beta))
        ends = "chi" in doc and (
            parse_int(doc["chi"]),
            [parse_int(v) for v in cz_plus],
            [parse_int(v) for v in cz_minus],
        )
    except _READ_ERRORS as exc:
        raise MalformedDocument("bad index document: %s" % exc) from None
    return inp, ends


# ---------------------------------------------------------------------------
# survey

@functools.lru_cache(maxsize=64)
def _chain_template(n: int) -> str:
    """The chain column of a survey row of n entries, "%d,%d,...,%d", kept
    for at most 64 lengths: ``%d`` prints an int as ``str`` does, under the
    same digit limit."""
    return ",".join(["%d"] * n)


@_printable
def survey_row(chain, verdict, winding, lens, det, form) -> str:
    """The row of an enumerated chain in survey format form, "csv" or
    "json", from ``toric.survey_walk``'s values for the chain itself, -1
    entries and all, written by its format's one template, so that the
    texts of consecutive rows concatenate.  A JSON row is its object as
    ``dumps`` indents it in the list, then ",\n"; no field needs escaping.
    ``det_check`` reads "true": the determinant identity is the k half of
    the one integer lens check, which the walk runs on every chain and
    raises where it fails.  The chain column is ``_chain_template`` of the
    chain's length applied to ``tuple(chain)``."""
    s = _chain_template(len(chain)) % tuple(chain)
    if form == "json":
        return (
            f'  {{\n    "det": "{det}",\n    "det_check": "true",\n    "k": "{lens[0]}",\n'
            f'    "l": "{lens[1]}",\n    "s": "{s}",\n    "verdict": "{verdict._value_}",\n'
            f'    "vs_2pi": "{winding.vs_two_pi._value_}",\n    "vs_pi": "{winding.vs_pi._value_}"\n  }},\n'
        )
    return (
        f'"{s}",{verdict._value_},{lens[0]},{lens[1]},{winding.vs_pi._value_},'
        f"{winding.vs_two_pi._value_},{det},true\n"
    )


_CSV_HEAD = "%s\n%s\n" % (SURVEY_HEADER, ",".join(SURVEY_COLUMNS))


def survey_to_csv(parts: Sequence[str]) -> str:
    """The survey table from the texts of consecutive runs of its
    ``survey_row`` rows, in order: the header, the column names, then the
    parts."""
    return _CSV_HEAD + "".join(parts)


def survey_to_json(parts: Sequence[str]) -> str:
    """The survey JSON document, the same bytes as ``dumps`` of the list of
    row objects, from the texts of consecutive runs of its ``survey_row``
    rows, in order."""
    body = "".join(parts)
    return "[\n%s\n]\n" % body[:-2] if body else "[]\n"


# ---------------------------------------------------------------------------
# SVG rendering

_SVG_SCALE = 480.0
# the picture's elements as printed, every coordinate a %.3f field
_SVG_HEAD = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
    'width="%d" height="%d" viewBox="0 0 %d %d">\n'
    '<g font-family="monospace" font-size="11">\n' % ((_SVG_SCALE,) * 4)
)
_SVG_ORIGIN = '<circle class="origin" cx="%.3f" cy="%.3f" r="3" fill="black"/>\n'
_SVG_RAY = (
    '<line class="ray %s" x1="%.3f" y1="%.3f" x2="%.3f" y2="%.3f" '
    'stroke="blue" stroke-dasharray="6,4"/>\n'
)
_SVG_EDGE = (
    '<line class="edge" x1="%.3f" y1="%.3f" x2="%.3f" y2="%.3f" '
    'stroke="darkorange" stroke-width="2"/>\n'
    '<text class="edge-label" x="%.3f" y="%.3f">s=%d a=%s</text>\n'
)
_SVG_TAIL = (
    '<polyline class="boundary" points="%s" fill="none" stroke="green" '
    'stroke-dasharray="2,3"/>\n</g>\n</svg>\n'
)


@_printable
def render_svg(poly: MomentPolygon) -> str:
    """Deterministic SVG 1.1 picture of a moment polygon.

    Edges are labeled with self-intersection and area, the terminal rays are
    dashed radial lines through the end vertices, the origin is marked, and a
    green piecewise-linear arc sketches the boundary curve transverse to the
    radial rays (display only).  Each vertex is converted to pixels once, and
    each element is written by one template.
    """
    _check_edge_count(poly)
    pts = [(float(x), float(y)) for x, y in poly.vertices]
    ray_tips = [(x * 1.45, y * 1.45) for x, y in (pts[0], pts[-1])]
    xs = [p[0] for p in pts + ray_tips] + [0.0]
    ys = [p[1] for p in pts + ray_tips] + [0.0]
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    margin = 0.08 * span
    x0, y1 = min(xs) - margin, max(ys) + margin
    scale = _SVG_SCALE / (span + 2 * margin)

    def to_px(x, y):
        return (x - x0) * scale, (y1 - y) * scale

    origin = to_px(0.0, 0.0)
    px = [to_px(x, y) for x, y in pts]
    parts = [_SVG_HEAD, _SVG_ORIGIN % origin]
    for (x, y), cls in zip(ray_tips, ("start-ray", "end-ray")):
        parts.append(_SVG_RAY % (cls, *origin, *to_px(x, y)))
    for e, (ax, ay), (bx, by) in zip(poly.edges, px, px[1:]):  # edge j: vertices j, j + 1
        label = ((ax + bx) / 2 + 4, (ay + by) / 2 - 4, e.self_intersection, format_fraction(e.area))
        parts.append(_SVG_EDGE % (ax, ay, bx, by, *label))
    arc = [ray_tips[0]] + pts + [ray_tips[1]]
    parts.append(_SVG_TAIL % " ".join(["%.3f,%.3f" % to_px(0.35 * x, 0.35 * y) for x, y in arc]))
    return "".join(parts)


@_printable
def dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
