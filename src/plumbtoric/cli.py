"""Command-line front end.

Subcommands: classify, construct, survey, reeb-orbits, index.  Exit status
0 on success, 2 on precondition errors or malformed input (with a
machine-readable error record on stderr), 1 on internal assertion failure.

The survey driver enumerates chains with some entry >= 0 (chains containing
-1 are blown down before classification unless --exclude-minus-one drops
them); the enumeration size is capped by PLUMBTORIC_MAX_SURVEY (default
10^6).  Rows are sorted by the chain tuple, so output does not depend on
the worker count.  The reeb-orbits generator search stops once it passes
PLUMBTORIC_MAX_GENERATORS generators (default 10^5).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Sequence

from . import docio, reeb, toric
from .errors import (
    InternalInvariantError,
    MalformedDocument,
    NoNonnegativeEntry,
    PreconditionError,
    SurveyTooLarge,
    TooManyGenerators,
)

DEFAULT_SURVEY_CAP = 10**6
DEFAULT_GENERATOR_CAP = 10**5


def _parse_int_list(text: str, what: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise MalformedDocument("bad %s %r; expected comma-separated integers" % (what, text))


def _env_cap(name: str, default: int) -> int:
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        cap = int(text)
        if cap < 0:
            raise ValueError
    except ValueError:
        raise MalformedDocument(
            "%s must be a nonnegative integer, got %r" % (name, text)
        ) from None
    return cap


def _parse_range(text: str) -> tuple:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return int(lo), int(hi)
        v = int(text)
        return v, v
    except ValueError:
        raise MalformedDocument("bad range %r; expected LO..HI or a single integer" % text)


def _write_output(text: str, path: Optional[str]) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _cmd_classify(args) -> int:
    chain = _parse_int_list(args.plumbing, "plumbing")
    report = toric.classify(chain, reduce=args.reduce)
    _write_output(docio.dumps(docio.report_to_doc(report)), args.output)
    return 0


def _cmd_construct(args) -> int:
    chain = _parse_int_list(args.plumbing, "plumbing")
    if args.reduce:
        from .plumbing import blow_down

        chain = blow_down(chain)
    if args.pivot is not None:
        pivot = args.pivot
    else:
        nonneg = [i for i in range(1, len(chain) + 1) if chain[i - 1] >= 0]
        if not nonneg:
            raise NoNonnegativeEntry("no entry of %s is >= 0" % (chain,))
        pivot = nonneg[0]
    heights = None
    if args.heights:
        heights = tuple(docio.parse_fraction(h) for h in args.heights.split(","))
    poly = toric.moment_polygon(chain, pivot, heights)
    if args.format == "svg":
        _write_output(docio.render_svg(poly), args.output)
    else:
        _write_output(docio.dumps(docio.polygon_to_doc(poly)), args.output)
    return 0


def _survey_chunk(chains) -> List[tuple]:
    rows = []
    for chain in chains:
        try:
            report = toric.classify(chain, reduce=True)
        except PreconditionError:
            continue  # e.g. reduces below length 2; no classifiable boundary
        rows.append(docio.survey_row(chain, report))
    return rows


def _cmd_survey(args) -> int:
    n_lo, n_hi = _parse_range(args.n)
    v_lo, v_hi = _parse_range(args.range)
    if n_lo < 2 or v_lo > v_hi:
        raise MalformedDocument("survey needs n >= 2 and a nonempty value range")
    if args.jobs < 1:
        raise MalformedDocument("--jobs must be at least 1")
    cap = _env_cap("PLUMBTORIC_MAX_SURVEY", DEFAULT_SURVEY_CAP)
    values = range(v_lo, v_hi + 1)
    total = sum(len(values) ** n for n in range(n_lo, n_hi + 1))
    if total > cap:
        raise SurveyTooLarge(
            "survey of %d chains exceeds cap %d (PLUMBTORIC_MAX_SURVEY)" % (total, cap)
        )
    chains = []
    for n in range(n_lo, n_hi + 1):
        for chain in itertools.product(values, repeat=n):
            if not any(v >= 0 for v in chain):
                continue
            if args.exclude_minus_one and -1 in chain:
                continue
            chains.append(chain)
    if args.jobs > 1 and len(chains) > 1:
        size = max(1, len(chains) // (4 * args.jobs))
        chunks = [chains[i : i + size] for i in range(0, len(chains), size)]
        rows = []
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            for part in pool.map(_survey_chunk, chunks):
                rows.extend(part)
    else:
        rows = _survey_chunk(chains)
    rows.sort(key=lambda r: tuple(int(v) for v in r[0].split(",")))
    if args.format == "json":
        doc = [dict(zip(docio.SURVEY_COLUMNS, row)) for row in rows]
        _write_output(docio.dumps(doc), args.output)
    else:
        _write_output(docio.survey_to_csv(rows), args.output)
    return 0


def _load_json(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedDocument("cannot read document %s: %s" % (path, exc)) from None


def _cmd_reeb_orbits(args) -> int:
    cap = _env_cap("PLUMBTORIC_MAX_GENERATORS", DEFAULT_GENERATOR_CAP)
    itinerary = docio.itinerary_from_doc(_load_json(args.itinerary))
    bound = docio.parse_fraction(args.action_bound)
    if bound <= 0:
        raise MalformedDocument("action bound must be positive, got %s" % bound)
    families = reeb.enumerate_orbits(itinerary, bound)
    orbits = []
    for fc in families:
        orbits.extend(reeb.perturb_split(fc.family))
    try:
        generators = reeb.enumerate_generators(orbits, bound, max_generators=cap)
    except TooManyGenerators as exc:
        raise TooManyGenerators("%s (PLUMBTORIC_MAX_GENERATORS)" % exc) from None
    doc = {
        "action_bound": docio.format_fraction(bound),
        "families": docio.families_to_doc(families),
        "orbits": [
            {
                "kind": o.kind.value,
                "vertex": o.family.vertex,
                "slope": [o.family.slope[0], o.family.slope[1]],
                "base_action": docio.format_fraction(o.base_action),
                "eps_exponent": o.eps_exponent,
                "cz": o.cz,
            }
            for o in orbits
        ],
        "generators": [docio.current_to_doc(g) for g in generators],
    }
    _write_output(docio.dumps(doc), args.output)
    return 0


def _cmd_index(args) -> int:
    doc = _load_json(args.input)
    try:
        inp = reeb.IndexInput(
            c_tau=int(doc["c_tau"]),
            q_tau=int(doc["q_tau"]),
            alpha=docio.current_from_doc(doc.get("alpha", [])),
            beta=docio.current_from_doc(doc.get("beta", [])),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedDocument("bad index document: %s" % exc) from None
    index = reeb.ech_index(inp)
    j0, jp = reeb.j_plus(inp)
    out = {
        "ech_index": index,
        "j0": j0,
        "j_plus": jp,
        "parity_consistent": reeb.parity_check(inp.alpha, inp.beta, index),
    }
    if "chi" in doc:
        out["fredholm_index"] = reeb.fredholm_index(
            int(doc["chi"]),
            inp.c_tau,
            [int(v) for v in doc.get("cz_plus", [])],
            [int(v) for v in doc.get("cz_minus", [])],
        )
    _write_output(docio.dumps(out), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plumbtoric",
        description="Classify concave boundaries of linear plumbings and "
        "compute ECH index data, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="tight/overtwisted verdict for a chain")
    p.add_argument("--plumbing", required=True, help="comma-separated integers")
    p.add_argument("--reduce", action="store_true", help="blow down -1 entries first")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("construct", help="moment polygon for a chain")
    p.add_argument("--plumbing", required=True)
    p.add_argument("--pivot", type=int, default=None, help="1-based index with s_i >= 0")
    p.add_argument("--heights", default=None, help='comma-separated rationals "p/q"')
    p.add_argument("--reduce", action="store_true")
    p.add_argument("--format", choices=("json", "svg"), default="json")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("survey", help="classify every chain in a range")
    p.add_argument("--n", required=True, help="chain length or LO..HI")
    p.add_argument("--range", required=True, help="entry range LO..HI")
    p.add_argument("--exclude-minus-one", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_survey)

    p = sub.add_parser("reeb-orbits", help="orbit families, split orbits, generators")
    p.add_argument("--itinerary", required=True, help="itinerary JSON document")
    p.add_argument("--action-bound", required=True, help='rational bound "p/q"')
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_reeb_orbits)

    p = sub.add_parser("index", help="ECH / J+ / Fredholm index calculators")
    p.add_argument("--input", required=True, help="index-input JSON document")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_index)
    return parser


_VALUE_FLAGS = {"--plumbing", "--heights", "--n", "--range", "--action-bound", "--pivot"}


def _merge_flag_values(argv) -> list:
    # chains like -2,1,0,-2 start with "-"; fold them into --flag=value form
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append("%s=%s" % (tok, argv[i + 1]))
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_flag_values(list(argv)))
    try:
        return args.func(args)
    except PreconditionError as exc:
        record = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
        return 2
    except InternalInvariantError as exc:
        record = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
