"""The golden CLI cases and a harness for them that needs no pytest.

The files under ``tests/golden/`` hold, per case, the exact stdout
(``<name>.out``) and, in ``manifest.json``, the exit status and the
``error.type`` of the stderr record (null on success); for a failing case
the manifest also holds the record's ``error.message``.  Refactors of the
library must reproduce them byte for byte.  With the library on
``PYTHONPATH``, to compare every case with its files (printing, for each
case that differs, its status difference and its first differing stdout
line, and each ``.out`` file or manifest entry that no case names), or to
rewrite the files from the library:

    python tests/golden_cases.py --check
    python tests/golden_cases.py --regenerate

``test_golden.py`` runs the same comparison under pytest, one test per case.
"""

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import zip_longest
from pathlib import Path

from plumbtoric.cli import main

GOLDEN = Path(__file__).parent / "golden"
ITINERARY = str(GOLDEN / "itinerary.json")
INDEX = str(GOLDEN / "index.json")
# rational vertices over denominators 2, 3 and 6, five corners
RATIONAL_ITINERARY = str(GOLDEN / "itinerary_rational.json")
# ITINERARY moved by (2, 1; 1, 1) in SL(2,Z): the same actions, but other
# slopes, so families come out in another order and ties fall elsewhere
IMAGE_ITINERARY = str(GOLDEN / "itinerary_image.json")
# itinerary_rational.json with its fifth vertex's x set to 1e400: a corner
# cone of cross about 1e400, whose descent finds no family at bound 7
FAR_ITINERARY = str(GOLDEN / "itinerary_far_vertex.json")
CAPS = ("PLUMBTORIC_MAX_SURVEY", "PLUMBTORIC_MAX_GENERATORS")

CASES = {
    "classify_tight": ["classify", "--plumbing", "-2,1,0,-2"],
    "classify_overtwisted": ["classify", "--plumbing", "2,1,3"],
    "classify_3_-2_-2": ["classify", "--plumbing", "3,-2,-2"],
    "classify_reduce": ["classify", "--plumbing", "2,-1,2", "--reduce"],
    # the inner tails (0, 0) and 0 vanish, so the continued fraction of this
    # chain is undefined; the lens pair is still checked, on continuants
    "classify_zero_tail": ["classify", "--plumbing", "3,0,0"],
    # rays past 10^308: the display-only swept angle takes its rescale path
    "classify_huge_entries": ["classify", "--plumbing", ",".join(["3" * 160] * 2)],
    # exact landings: a half turn onto -w0 (vs_pi EQ), a full turn back onto
    # w0 (vs_2pi EQ), and onto -w0 again after passing w0 (GT/GT)
    "classify_landing_antipode": ["classify", "--plumbing", "1,1"],
    "classify_landing_start": ["classify", "--plumbing", "1,2,1"],
    "classify_antipode_past_two_pi": ["classify", "--plumbing", "1,2,2,1"],
    "construct_heights": [
        "construct", "--plumbing", "-2,1,0,-2", "--heights", "-1,-3,-3,-1",
    ],
    "construct_svg": ["construct", "--plumbing", "2,3", "--format", "svg"],
    "construct_rational_heights": [
        "construct", "--plumbing", "-2,1,0,-2", "--heights", "-1/2,-5/3,-7/4,-2/3",
    ],
    "construct_rational_svg": [
        "construct", "--plumbing", "3,-2,-2,0,2", "--heights", "-13/2,-10/3,-3/2,-2/3,-1/2",
        "--format", "svg",
    ],
    "construct_five": ["construct", "--plumbing", "3,-2,-2,0,2"],
    "survey_csv": ["survey", "--n", "2..3", "--range", "-3..1"],
    "survey_json_jobs2": [
        "survey", "--n", "2..3", "--range", "-3..1", "--format", "json", "--jobs", "2",
    ],
    # blow-down cascades: 144 chains lose two or more -1s, 117 flip the sign
    # of det (15 of them on det 0, printed 0) and 20 reduce to no boundary
    "survey_cascade_jobs2": ["survey", "--n", "4..5", "--range", "-2..0", "--jobs", "2"],
    "reeb_orbits_5": ["reeb-orbits", "--itinerary", ITINERARY, "--action-bound", "5"],
    "reeb_orbits_31_3": [
        "reeb-orbits", "--itinerary", ITINERARY, "--action-bound", "31/3",
    ],
    # from 37/3 on, generators hold two orbits with equal document fields
    # (equal-base families at slopes (-1, -2) and (1, -2)), so this pins
    # their tie order
    "reeb_orbits_37_3": [
        "reeb-orbits", "--itinerary", ITINERARY, "--action-bound", "37/3",
    ],
    "reeb_orbits_image_31_3": [
        "reeb-orbits", "--itinerary", IMAGE_ITINERARY, "--action-bound", "31/3",
    ],
    # below every action: no families, and the empty current alone
    "reeb_orbits_1": ["reeb-orbits", "--itinerary", ITINERARY, "--action-bound", "1"],
    "reeb_orbits_rational_21_2": [
        "reeb-orbits", "--itinerary", RATIONAL_ITINERARY, "--action-bound", "21/2",
    ],
    # 19/2 is the action of slope (-1, -3) at the corner (-3/2, -8/3)
    "error_reeb_orbits_exact_bound": [
        "reeb-orbits", "--itinerary", RATIONAL_ITINERARY, "--action-bound", "19/2",
    ],
    # the orbit descent splits more cones than the generator cap
    "error_reeb_orbits_split_budget": [
        "reeb-orbits", "--itinerary", FAR_ITINERARY, "--action-bound", "7",
    ],
    "index": ["index", "--input", INDEX],
    "error_minus_one": ["classify", "--plumbing", "2,-1,2"],
    "error_not_concave": ["classify", "--plumbing", "-2,-3"],
    "error_too_short": ["classify", "--plumbing", "5"],
    "error_malformed": ["classify", "--plumbing", "2,x"],
    "error_construct_negative": ["construct", "--plumbing", "-2,-3"],
    "error_construct_pivot": ["construct", "--plumbing", "-2,3", "--pivot", "1"],
    # the height and area refusals print the offending rational value
    "error_construct_rational_height": [
        "construct", "--plumbing", "3,-2", "--heights", "-1/2,1/3",
    ],
    "error_construct_rational_area": [
        "construct", "--plumbing", "3,-2", "--heights", "-1/2,-5/3",
    ],
}


def run_case(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    if not code:
        return out.getvalue(), {"exit": code, "error": None}
    error = json.loads(err.getvalue())["error"]
    return out.getvalue(), {"exit": code, "error": error["type"], "message": error["message"]}


def expected(name):
    """The pinned stdout and status of case ``name``."""
    manifest = json.loads((GOLDEN / "manifest.json").read_text())
    return (GOLDEN / (name + ".out")).read_text(), manifest[name]


def regenerate():
    for var in CAPS:
        os.environ.pop(var, None)
    manifest = {}
    for name, argv in sorted(CASES.items()):
        out, manifest[name] = run_case(argv)
        (GOLDEN / (name + ".out")).write_text(out)
    (GOLDEN / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def first_difference(got, want):
    """Where a case's (stdout, status) ``got`` departs from the pinned
    ``want``: the status difference and the first differing stdout line, by
    its 1-based number, with both versions (None past the end of one); None
    when they agree."""
    (out, status), (want_out, want_status) = got, want
    found = []
    for key in sorted(status.keys() | want_status.keys()):  # exit, error, message
        if status.get(key) != want_status.get(key):
            found.append("%s %r, expected %r" % (key, status.get(key), want_status.get(key)))
    lines = zip_longest(out.splitlines(keepends=True), want_out.splitlines(keepends=True))
    for number, (line, want_line) in enumerate(lines, 1):
        if line != want_line:
            found.append("stdout line %d is %r, expected %r" % (number, line, want_line))
            break
    return "; ".join(found) or None


def orphans() -> list:
    """The ``.out`` files and manifest entries that no case in CASES names,
    such as those a renamed case leaves behind."""
    manifest = json.loads((GOLDEN / "manifest.json").read_text())
    files = sorted(p.name for p in GOLDEN.glob("*.out") if p.stem not in CASES)
    return files + ["manifest entry %s" % name for name in sorted(manifest) if name not in CASES]


def check() -> list:
    """(name, first difference) of each case whose output differs from its
    files."""
    for var in CAPS:
        os.environ.pop(var, None)
    found = [(name, first_difference(run_case(argv), expected(name))) for name, argv in sorted(CASES.items())]
    return [(name, where) for name, where in found if where]


if __name__ == "__main__":
    if sys.argv[1:] == ["--regenerate"]:
        regenerate()
    elif sys.argv[1:] == ["--check"]:
        differ, stale = check(), orphans()
        for name, where in differ:
            print("differs: %s: %s" % (name, where))
        for name in stale:
            print("orphan: %s names no case" % name)
        print("%d of %d golden cases match, %d orphans" % (len(CASES) - len(differ), len(CASES), len(stale)))
        sys.exit(1 if differ or stale else 0)
    else:
        print("usage: golden_cases.py --check | --regenerate", file=sys.stderr)
        sys.exit(2)
