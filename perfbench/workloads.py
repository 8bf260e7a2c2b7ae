"""Inputs, requests and output checks of the four benchmark workloads.

Every workload turns ``--seed`` into an endless stream of cycles.  A cycle is
a list of batches, and a batch is a list of requests whose outputs are
checked together against one digest in ``reference.json``, taken at the seed
commit.  A run stops only at the end of a cycle, so every run measures the
same mix of work whatever its seed.

Requests call public names of plumbtoric only, always through the module
attribute, so that a tracer installed later sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List

SWEEP_VALUES = (-4, -3, -2, 0, 1, 2, 3)  # criterion-06 set: [-4, 3] without -1
BLOCKS = 1064  # the sweep set is dealt round-robin into this many blocks
README_ITINERARY = ((-2, 0), (0, -2), (2, 0))
# halves of symmetric convex integer moment curves: edge steps (dx, -dy)
ORBIT_CURVES = {
    "A": ((1, 2), (1, 1), (2, 1)),
    "B": ((1, 4), (1, 2), (2, 1), (4, 1)),
    "C": ((1, 3), (2, 3), (3, 2), (3, 1)),
}
BLOW_UP_SIZE = Fraction(1, 2)  # the size the test suite chops corners with
# a geometry request carries a quarter block: about 60 requests in 10 s put
# latency_tail_ms firmly on the p75 rung of harness.TAIL_LADDER
REQUESTS_PER_BLOCK = 4
SL2Z_STEPS = ((1, 1, 0, 1), (1, -1, 0, 1), (1, 0, 1, 1), (1, 0, -1, 1), (0, -1, 1, 0))


@dataclass(frozen=True)
class Scale:
    survey_n: str
    survey_range: str
    ech_ks: tuple  # action bounds (3k+1)/3 of one ech-generators cycle
    orbit_bounds: tuple  # (curve, bound) pairs, taken in turn by geometry requests
    trace_classify_blocks: int
    trace_ech_ks: tuple


FULL = Scale(
    survey_n="2..6",
    survey_range="-3..2",
    ech_ks=tuple(range(10, 18)),
    orbit_bounds=(("A", "401/2"), ("B", "801/2"), ("C", "801/2")),
    trace_classify_blocks=24,
    trace_ech_ks=(10, 11, 12, 13, 14),
)
TINY = Scale(
    survey_n="2..3",
    survey_range="-3..2",
    ech_ks=(10,),
    orbit_bounds=(("A", "101/2"),),
    trace_classify_blocks=2,
    trace_ech_ks=(10,),
)


class Failed:
    """Output slot of a request that raised."""

    def __init__(self, exc):
        self.kind = type(exc).__name__
        self.message = str(exc)[:300]

    def __repr__(self):
        return "Failed(%s: %s)" % (self.kind, self.message)


@dataclass
class Batch:
    key: str  # reference entry this batch is checked against
    requests: List[Callable[[], object]]
    check: Callable[[list], bool]
    items_per_request: int


class CliError(Exception):
    pass


# ---------------------------------------------------------------------------
# helpers


def sweep_chains():
    """The criterion-06 set in its fixed enumeration order (136,160 chains)."""
    return [
        s
        for n in range(2, 7)
        for s in itertools.product(SWEEP_VALUES, repeat=n)
        if any(v >= 0 for v in s)
    ]


def canon(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def digest(parts) -> str:
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def parse_range(text):
    lo, _, hi = text.partition("..")
    return int(lo), int(hi or lo)


def survey_size(n_text, range_text):
    """Chains a survey enumerates: every chain with some entry >= 0."""
    n_lo, n_hi = parse_range(n_text)
    v_lo, v_hi = parse_range(range_text)
    values = v_hi - v_lo + 1
    negative = max(0, min(v_hi, -1) - v_lo + 1)
    return sum(values**n - negative**n for n in range(n_lo, n_hi + 1))


def run_cli(cli, argv, stdin_text=None):
    """In-process ``plumbtoric`` command; returns stdout, raises on exit != 0."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
    except SystemExit as exc:
        status = exc.code
    finally:
        sys.stdin = saved
    if status != 0:
        raise CliError("exit %s: %s" % (status, err.getvalue().strip()[:300]))
    return out.getvalue()


def draw_sl2z(rng, steps=4):
    a, b, c, d = 1, 0, 0, 1
    for p, q, r, s in (rng.choice(SL2Z_STEPS) for _ in range(steps)):
        a, b, c, d = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
    return (a, b, c, d)


IDENTITY = (1, 0, 0, 1)


def itinerary_doc(points, rays, t):
    """Itinerary document of the image of an integer curve under t in SL(2,Z).

    Actions <m, V> are invariant when vertices move by t and slopes by its
    inverse transpose, so every image asks for exactly the same search as the
    original; only slopes and their order differ in the output.
    """
    a, b, c, d = t

    def image(p):
        return [a * p[0] + b * p[1], c * p[0] + d * p[1]]

    return {
        "vertices": [[str(x) for x in image(p)] for p in points],
        "start_ray": image(rays[0]),
        "end_ray": image(rays[1]),
    }


def untransform_slopes(rows, t):
    """Map output slopes back to the untransformed curve and sort the rows."""
    a, b, c, d = t
    for row in rows:
        x, y = row["slope"]
        row["slope"] = [a * x + c * y, b * x + d * y]  # t^T undoes t^-T
    rows.sort(key=lambda row: (row["vertex"], row["slope"], row.get("kind", "")))
    return rows


def convex_curve(half):
    """Integer points of the symmetric convex curve built from ``half``."""
    width = sum(dx for dx, _ in half)
    points = [(-width, 0)]
    for dx, dy in tuple((dx, -dy) for dx, dy in half) + tuple(reversed(half)):
        points.append((points[-1][0] + dx, points[-1][1] + dy))
    return tuple(points)


def first_pivot(chain):
    return next(i for i, v in enumerate(chain, start=1) if v >= 0)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Seeded inputs of one workload.

    ``cycles()`` yields the cycles a run measures and ``warmup()`` one small
    cycle that set-up runs before anything is timed.  ``prime()`` is a cycle
    run untimed after set-up, where the first full-size request would
    otherwise be an outlier.
    """

    name = ""

    def __init__(self, pt, reference, seed, scale):
        self.pt = pt
        self.reference = reference  # None: record outputs instead of checking
        self.recorded = {}
        self.rng = random.Random(seed)
        self.scale = scale
        self.stats = Counter()  # output counts gathered by the checks

    def verify(self, table, key, parts, approx=None):
        """Compare a batch's outputs with the reference taken at the seed commit.

        ``parts`` are the exact outputs in a fixed order; ``approx`` is the sum
        of display-only floats, compared within a tolerance.
        """
        value = [digest(parts)] if approx is None else [digest(parts), approx]
        if self.reference is None:
            self.recorded.setdefault(table, {})[str(key)] = value
            return True
        expected = self.reference[table][str(key)]
        if value[0] != expected[0]:
            return False
        return approx is None or math.isclose(
            approx, expected[1], rel_tol=1e-9, abs_tol=1e-6
        )

    def prime(self):
        return []


class SweepBlocks(Workload):
    """Shared by the workloads that draw blocks of the criterion-06 set."""

    def __init__(self, pt, reference, seed, scale):
        super().__init__(pt, reference, seed, scale)
        self.chains = sweep_chains()
        indices = list(range(len(self.chains)))
        self.blocks = []  # chain indices, in the seeded order of requests
        for b in range(BLOCKS):
            members = indices[b::BLOCKS]
            self.rng.shuffle(members)
            self.blocks.append(members)
        self.order = list(range(BLOCKS))
        self.rng.shuffle(self.order)


class ClassifySweep(SweepBlocks):
    name = "classify-sweep"

    def request(self, chain):
        toric, docio = self.pt.toric, self.pt.docio
        return lambda: docio.report_to_doc(toric.classify(chain))

    def batch(self, b):
        members = self.blocks[b]

        def check(outputs):
            if any(isinstance(o, Failed) for o in outputs):
                return False
            parts, approx = [], []
            for _, doc in sorted(zip(members, outputs), key=lambda pair: pair[0]):
                approx.append(doc["winding"].pop("swept_degrees_approx"))
                parts.append(canon(doc))
            return self.verify("classify", b, parts, math.fsum(approx))

        return Batch(str(b), [self.request(self.chains[i]) for i in members], check, 1)

    def cycles(self):
        for b in itertools.cycle(self.order):
            yield [self.batch(b)]

    def slice(self, blocks):
        return [[self.batch(b)] for b in self.order[:blocks]]

    def warmup(self):
        return [self.batch(self.order[-1])]

    def probe(self, chain):
        """Public layers classify reaches only through private helpers."""
        lattice, plumbing, toric = self.pt.lattice, self.pt.plumbing, self.pt.toric
        for i, v in enumerate(chain, start=1):
            if v >= 0:
                lattice.winding_compare(toric.ray_sequence(chain, i).w)
        toric.lens_invariant(chain)
        plumbing.det_intersection(chain)


class SurveyCli(Workload):
    name = "survey-cli"

    def __init__(self, pt, reference, seed, scale):
        super().__init__(pt, reference, seed, scale)
        self.texts = {}  # survey output digest by job count

    def batch(self, jobs, scale=None):
        cli = self.pt.cli
        scale = scale or self.scale
        key = "%s/%s" % (scale.survey_n, scale.survey_range)
        argv = ["survey", "--n", scale.survey_n, "--range", scale.survey_range]
        argv += ["--jobs", str(jobs)]

        def check(outputs):
            text = outputs[0]
            if isinstance(text, Failed):
                return False
            self.stats["rows"] = text.count("\n") - 2  # header comment and columns
            self.texts[jobs] = digest([text.encode()])
            return self.verify("survey", key, [text.encode()])

        chains = survey_size(scale.survey_n, scale.survey_range)
        return Batch(key, [lambda: run_cli(cli, argv)], check, chains)

    def cycles(self):
        while True:
            yield [self.batch(2)]

    def prime(self):
        # the first full survey in a process runs about 20% slower while the
        # heap grows to hold every row; only a full-size survey warms that
        return [self.batch(2)]

    def warmup(self):
        return [self.batch(2, TINY)]


class EchGenerators(Workload):
    name = "ech-generators"

    def batch(self, k, t):
        cli = self.pt.cli
        bound = "%d/3" % (3 * k + 1)
        text = json.dumps(itinerary_doc(README_ITINERARY, ((-1, 0), (1, 0)), t))

        def check(outputs):
            out = outputs[0]
            if isinstance(out, Failed):
                return False
            doc = json.loads(out)
            self.stats["requests"] += 1
            self.stats["generators"] += len(doc["generators"])
            untransform_slopes(doc["families"], t)
            untransform_slopes(doc["orbits"], t)
            return self.verify("reeb_orbits", bound, [canon(doc)])

        argv = ["reeb-orbits", "--itinerary", "-", "--action-bound", bound]
        return Batch(bound, [lambda: run_cli(cli, argv, text)], check, 1)

    def cycle(self, ks):
        """The README itinerary at every bound, and a seed-drawn SL(2,Z) image
        of it at each bound of the upper half, so that the median request
        falls inside a group of equal-sized requests."""
        batches = [self.batch(k, IDENTITY) for k in ks]
        batches += [self.batch(k, draw_sl2z(self.rng)) for k in ks[len(ks) // 2 :]]
        self.rng.shuffle(batches)
        return batches

    def cycles(self):
        while True:
            yield self.cycle(self.scale.ech_ks)

    def slice(self):
        return [self.cycle(self.scale.trace_ech_ks)]

    def warmup(self):
        return [self.batch(TINY.ech_ks[0], IDENTITY)]


class Geometry(SweepBlocks):
    """One request: a quarter block of chains through the polygon path and
    one seed-drawn image of a convex curve through the orbit descent."""

    name = "geometry"

    def chain_request(self, chain, corner):
        toric, docio, errors = self.pt.toric, self.pt.docio, self.pt.errors

        def request():
            poly = toric.moment_polygon(chain, first_pivot(chain))
            out = {"svg": docio.render_svg(poly), "polygon": docio.polygon_to_doc(poly)}
            try:
                blown = toric.blow_up_corner(poly, corner, BLOW_UP_SIZE)
            except errors.NotDelzantCorner:  # documented refusal
                out["blow_up"] = "NotDelzantCorner"
            else:
                out["blow_up"] = docio.polygon_to_doc(blown)
            return out

        return request

    def polygon_path(self, b):
        """Requests for the chains of block b, and the check of their outputs."""
        members = self.blocks[b]
        requests = []
        for i in members:
            chain = self.chains[i]
            requests.append(self.chain_request(chain, 1 + i % (len(chain) - 1)))

        def check(outputs):
            if any(isinstance(o, Failed) for o in outputs):
                return False
            ordered = sorted(zip(members, outputs), key=lambda pair: pair[0])
            self.stats["refused"] += sum(o["blow_up"] == "NotDelzantCorner" for o in outputs)
            return self.verify("geometry", b, [canon(o) for _, o in ordered])

        return requests, check

    def orbit_path(self, curve, bound, t):
        docio, reeb = self.pt.docio, self.pt.reeb
        key = "%s:%s" % (curve, bound)
        doc = itinerary_doc(convex_curve(ORBIT_CURVES[curve]), ((-1, 0), (1, 0)), t)
        limit = Fraction(bound)

        def request():
            itinerary = docio.itinerary_from_doc(doc)
            return docio.families_to_doc(reeb.enumerate_orbits(itinerary, limit))

        def check(outputs):
            rows = outputs[0]
            if isinstance(rows, Failed):
                return False
            self.stats["orbit_requests"] += 1
            self.stats["families"] += len(rows)
            return self.verify("orbit_families", key, [canon(untransform_slopes(rows, t))])

        return [request], check

    def chain_batch(self, b):
        return Batch(str(b), *self.polygon_path(b), items_per_request=1)

    def orbit_batch(self, curve, bound, t):
        return Batch("%s:%s" % (curve, bound), *self.orbit_path(curve, bound, t), items_per_request=1)

    def batch(self, b, curves):
        """Block b split into one request per curve; each request also runs
        the orbit descent on its (curve, bound, t) image."""
        polygons, check_polygons = self.polygon_path(b)
        orbit_paths = [self.orbit_path(*c) for c in curves]
        size = math.ceil(len(polygons) / len(curves))
        requests = []
        for k, ((orbits,), _) in enumerate(orbit_paths):
            part = polygons[k * size : (k + 1) * size]
            requests.append(lambda part=part, orbits=orbits: ([r() for r in part], orbits()))

        def check(outputs):
            if any(isinstance(o, Failed) for o in outputs):
                return False
            docs = [doc for polygon_docs, _ in outputs for doc in polygon_docs]
            checks = [check_polygons(docs)]
            checks += [c([rows]) for (_, c), (_, rows) in zip(orbit_paths, outputs)]
            return all(checks)

        return Batch(str(b), requests, check, 1)

    def cycle(self, draw):
        """One block per curve; every curve serves the same number of requests."""
        slots = itertools.cycle(self.scale.orbit_bounds)
        batches = []
        for _ in self.scale.orbit_bounds:
            curves = [
                (curve, bound, draw_sl2z(self.rng))
                for curve, bound in itertools.islice(slots, REQUESTS_PER_BLOCK)
            ]
            batches.append(self.batch(next(draw), curves))
        return batches

    def cycles(self):
        draw = itertools.cycle(self.order)
        while True:
            yield self.cycle(draw)

    def slice(self):
        return [self.cycle(iter(self.order))]

    def warmup(self):
        curve, bound = TINY.orbit_bounds[0]
        return [self.batch(self.order[-1], [(curve, bound, IDENTITY)] * REQUESTS_PER_BLOCK)]


WORKLOADS = {w.name: w for w in (ClassifySweep, SurveyCli, EchGenerators, Geometry)}
