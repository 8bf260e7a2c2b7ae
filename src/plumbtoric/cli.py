"""Command-line front end.

Subcommands: classify, construct, survey, reeb-orbits, index.  Exit status
0 on success, 2 on precondition errors, malformed input or bad usage (with
a machine-readable error record on stderr), 1 on internal assertion failure.
Each subcommand returns its text and ``main`` is the one writer, to stdout or
--output; an --output it cannot write exits 2 like a malformed input.

construct without --pivot takes the smallest valid pivot.  It reads
--heights before the --reduce blow-down and the chain gate, so a bad
--heights is refused as MalformedDocument before a chain either refuses.

The survey enumerates the chains with some entry >= 0 (--exclude-minus-one
drops those with -1), whose entries PLUMBTORIC_MAX_SURVEY caps (default
10^6), in one preorder walk of their prefix tree, children in increasing
entry order, so in tuple order with no sort; each node carries on the
preorder's stack whether some entry of it is >= 0, which its children
inherit, so no chain is scanned for it.  ``toric.survey_walk`` takes
one step per entry past the prefix a chain shares with the one before it,
-1 entries in place.  --jobs (at most the CPU count) sends each worker
process prefixes only, at most n_lo long and at least four per worker
where the lengths allow, and each worker enumerates and walks their
subtrees and returns their rows as one text in the requested format
(``docio.survey_row``, whose chain column is one ``%d`` template per
chain length, from a bounded cache); the parent only joins these texts
in prefix order inside the document's head or brackets, so output does
not depend on the worker count.  reeb-orbits refuses once it passes
PLUMBTORIC_MAX_GENERATORS generators (default 10^5), during the orbit
enumeration when the families' orbits alone pass it, and once the orbit
descent splits more cones than that cap.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import re
import sys
from typing import Optional, Sequence

from . import docio, plumbing, reeb, toric
from .errors import (
    InternalInvariantError,
    MalformedDocument,
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


def _cmd_classify(args) -> str:
    chain = _parse_int_list(args.plumbing, "plumbing")
    return docio.dumps(docio.report_to_doc(toric.classify(chain, reduce=args.reduce)))


def _cmd_construct(args) -> str:
    chain = _parse_int_list(args.plumbing, "plumbing")
    heights = None
    if args.heights is not None:
        heights = tuple(docio.parse_fraction(h) for h in args.heights.split(","))
    if args.reduce:
        chain = plumbing.blow_down(chain)
    poly = toric.moment_polygon(chain, args.pivot, heights)  # the chain gate and pivot default
    if args.format == "svg":
        return docio.render_svg(poly)
    return docio.dumps(docio.polygon_to_doc(poly))


def _subtree(task) -> str:
    """For task = (prefix, n_lo, n_hi, values, form), the text in survey
    format form of the rows of the chains that extend prefix, n_lo..n_hi
    long over values, with some entry >= 0, in tuple order: a prefix before
    its extensions, children in entry order."""
    prefix, n_lo, n_hi, values, form = task

    def preorder():
        # each node with its flag "some entry >= 0", which its children inherit
        stack, later = [(prefix, max(prefix, default=-1) >= 0)], values[::-1]
        while stack:
            s, listed = stack.pop()
            if listed and len(s) >= n_lo:
                yield s
            if len(s) < n_hi:
                stack += [(s + (v,), listed or v >= 0) for v in later]

    return "".join([docio.survey_row(*fields, form) for fields in toric.survey_walk(preorder())])


def _cmd_survey(args) -> str:
    n_lo, n_hi = _parse_range(args.n)
    v_lo, v_hi = _parse_range(args.range)
    if n_lo < 2 or n_lo > n_hi or v_lo > v_hi:
        raise MalformedDocument("survey needs n >= 2 and nonempty length and value ranges")
    if args.jobs < 1:
        raise MalformedDocument("--jobs must be at least 1")
    cap = _env_cap("PLUMBTORIC_MAX_SURVEY", DEFAULT_SURVEY_CAP)
    # the cap bounds the entries of all chains, so it also bounds their
    # number (every chain has at least two entries)
    entries = 0
    for n in range(n_lo, n_hi + 1):
        entries += n * (v_hi - v_lo + 1) ** n
        if entries > cap:
            raise SurveyTooLarge(
                "survey has more than %d chain entries (PLUMBTORIC_MAX_SURVEY)" % cap
            )
    values = [v for v in range(v_lo, v_hi + 1) if not (args.exclude_minus_one and v == -1)]
    # the pool forks all its workers at once, so at most one per CPU
    jobs = min(args.jobs, os.cpu_count() or 1)
    depth = next((d for d in range(n_lo) if len(values) ** d >= 4 * jobs), n_lo)
    tasks = [(p, n_lo, n_hi, values, args.format) for p in itertools.product(values, repeat=depth)]
    if jobs > 1 and len(tasks) > 1:
        # only here, so that no other command loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_subtree, tasks))
    else:
        parts = list(map(_subtree, tasks))
    return docio.survey_to_json(parts) if args.format == "json" else docio.survey_to_csv(parts)


def _load_json(path: str) -> dict:
    try:
        with contextlib.nullcontext(sys.stdin) if path == "-" else open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON, UTF-8 or huge ints
        raise MalformedDocument("cannot read document %s: %s" % (path, exc)) from None


def _cmd_reeb_orbits(args) -> str:
    cap = _env_cap("PLUMBTORIC_MAX_GENERATORS", DEFAULT_GENERATOR_CAP)
    itinerary = docio.itinerary_from_doc(_load_json(args.itinerary))
    bound = docio.parse_fraction(args.action_bound)
    if bound <= 0:
        raise MalformedDocument("action bound must be positive, got %s" % bound)
    try:
        families = reeb.enumerate_orbits(itinerary, bound, max_generators=cap)
        orbits = [o for fc in families for o in reeb.perturb_split(fc.family)]
        generators = reeb.enumerate_generators(orbits, bound, max_generators=cap)
    except TooManyGenerators as exc:
        raise TooManyGenerators("%s (PLUMBTORIC_MAX_GENERATORS)" % exc) from None
    return docio.reeb_orbits_text(bound, families, orbits, generators)


def _cmd_index(args) -> str:
    inp, ends = docio.index_from_doc(_load_json(args.input))
    index = reeb.ech_index(inp)
    j0, jp = reeb.j_plus(inp)
    out = {
        "ech_index": index,
        "j0": j0,
        "j_plus": jp,
        "parity_consistent": reeb.parity_check(inp.alpha, inp.beta, index),
    }
    if ends:
        out["fredholm_index"] = reeb.fredholm_index(ends[0], inp.c_tau, *ends[1:])
    return docio.dumps(out)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 2 with a JSON record; subparsers inherit the class."""

    def error(self, message):
        raise MalformedDocument("%s: %s" % (self.prog, message))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    ``main`` call: parsing reads it and writes only the fresh namespace
    each call returns."""
    parser = _Parser(
        prog="plumbtoric",
        description="Classify concave boundaries of linear plumbings and "
        "compute ECH index data, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", default="-", help='output file; "-" (the default) is stdout')

    def command(name, func, help):
        p = sub.add_parser(name, parents=[common], help=help)
        p.set_defaults(func=func)
        return p

    p = command("classify", _cmd_classify, "tight/overtwisted verdict for a chain")
    p.add_argument("--plumbing", required=True, help="comma-separated integers")
    p.add_argument("--reduce", action="store_true", help="blow down -1 entries first")

    p = command("construct", _cmd_construct, "moment polygon for a chain")
    p.add_argument("--plumbing", required=True)
    p.add_argument("--pivot", type=int, default=None, help="1-based index with s_i >= 0")
    p.add_argument("--heights", default=None, help='comma-separated rationals "p/q"')
    p.add_argument("--reduce", action="store_true")
    p.add_argument("--format", choices=("json", "svg"), default="json")

    p = command("survey", _cmd_survey, "classify every chain in a range")
    p.add_argument("--n", required=True, help="chain length or LO..HI")
    p.add_argument("--range", required=True, help="entry range LO..HI")
    p.add_argument("--exclude-minus-one", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = command("reeb-orbits", _cmd_reeb_orbits, "orbit families, split orbits, generators")
    p.add_argument("--itinerary", required=True, help="itinerary JSON document")
    p.add_argument("--action-bound", required=True, help='rational bound "p/q"')

    p = command("index", _cmd_index, "ECH / J+ / Fredholm index calculators")
    p.add_argument("--input", required=True, help="index-input JSON document")
    return parser


def _merge_flag_values(argv) -> list:
    # values like the chain -2,1,0,-2 start with "-"; no option starts with "-"
    # and a digit or ".", so such a token joins the --flag before it
    out = []
    for tok in argv:
        if out and re.fullmatch(r"--\w[\w-]*", out[-1]) and re.match(r"-[\d.]", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(_merge_flag_values(sys.argv[1:] if argv is None else argv))
        text, path = args.func(args), args.output
        try:
            with contextlib.nullcontext(sys.stdout) if path == "-" else open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise MalformedDocument("cannot write output %s: %s" % (path, exc)) from None
        return 0
    except (PreconditionError, InternalInvariantError) as exc:
        record = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
        return 2 if isinstance(exc, PreconditionError) else 1


if __name__ == "__main__":
    sys.exit(main())
