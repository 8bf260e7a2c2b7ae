"""Per-layer metrics from traced slices of every workload.

A traced run (``--trace 1``) runs a fixed slice of each workload with spans
around the public calls in ``tracing.TRACED`` and derives every per-layer
metric from them, so each traced run reports all layers whatever workload it
names.  The slice of the named workload also runs untraced, first, which
gives ``trace.overhead_ratio``.  Slices are checked against the reference
like any other run.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from harness import Tally, run_cycles
from tracing import REQUEST
from workloads import (
    Batch,
    ClassifySweep,
    EchGenerators,
    Failed,
    Geometry,
    SurveyCli,
    survey_size,
)


class Spans:
    """Span ids by (name, request label), with durations, for one traced run."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.duration = tracer.durations()
        self.ids = defaultdict(list)
        for sid, (nid, rid) in enumerate(zip(tracer.name, tracer.request)):
            if rid >= 0:
                self.ids[tracer.names[nid], tracer.labels[rid]].append(sid)
        self.missing = []  # layers a slice never called

    def median(self, name, *labels, unit=1e3):
        ids = [sid for label in labels for sid in self.ids[name, label]]
        if not ids:
            self.missing.append(name)
            return 0.0
        return statistics.median(self.duration[sid] for sid in ids) / unit

    def count(self, name, label):
        return len(self.ids[name, label])

    def total(self, name, label):
        return sum(self.duration[sid] for sid in self.ids[name, label])

    def per_request(self, name, label):
        """Summed duration of ``name`` inside each request labelled ``label``."""
        sums = {self.tracer.request[sid]: 0 for sid in self.ids[REQUEST, label]}
        for sid in self.ids[name, label]:
            sums[self.tracer.request[sid]] += self.duration[sid]
        return list(sums.values())

    def children_of(self, name, parent, label):
        """Spans called ``name`` whose parent span is called ``parent``."""
        names, tracer = self.tracer.names, self.tracer
        return sum(
            1
            for sid in self.ids[name, label]
            if tracer.parent[sid] >= 0 and names[tracer.name[tracer.parent[sid]]] == parent
        )


def classify_slice(run):
    w = ClassifySweep(run.pt, run.reference, run.seed, run.scale)
    cycles = w.slice(run.scale.trace_classify_blocks)
    blocks = w.order[: run.scale.trace_classify_blocks]
    probe = Batch(
        "probe",
        [lambda s=w.chains[i]: w.probe(s) for b in blocks for i in w.blocks[b]],
        lambda outputs: not any(isinstance(o, Failed) for o in outputs),
        1,
    )
    pair = run.traced(cycles, "classify", paired=run.workload == ClassifySweep.name)
    run.traced([[probe]], "classify-probe")

    def derive(sp):
        label = "classify"
        return {
            "lattice.winding_compare.us": sp.median("lattice.winding_compare", label, "classify-probe"),
            "toric.ray_sequence.us": sp.median("toric.ray_sequence", "classify-probe"),
            "toric.pivots_per_chain": sp.children_of("lattice.winding_compare", "toric.classify", label)
            / max(1, sp.count("toric.classify", label)),
            "toric.lens_invariant.us": sp.median("toric.lens_invariant", "classify-probe"),
            "plumbing.det_intersection.us": sp.median("plumbing.det_intersection", label, "classify-probe"),
            "docio.report_to_doc.us": sp.median("docio.report_to_doc", label),
            "toric.classify.us": sp.median("toric.classify", label),
        }

    return derive, pair


def survey_slice(run):
    w = SurveyCli(run.pt, run.reference, run.seed, run.scale)
    run.untraced([w.prime()])
    jobs2 = run.untraced([[w.batch(2)]])
    pair = run.traced([[w.batch(1)]], "survey", paired=True)
    chains = survey_size(run.scale.survey_n, run.scale.survey_range)
    if w.texts.get(1) is None or w.texts.get(1) != w.texts.get(2):
        run.tally.fail(chains, "survey output differs between --jobs 1 and --jobs 2")
    jobs1_s, jobs2_s = pair[0] / 1e9, jobs2.busy_ns / 1e9

    def derive(sp):
        label = "survey"
        rows = w.stats["rows"]
        return {
            "plumbing.blow_down.us": sp.median("plumbing.blow_down", label),
            "plumbing.blow_down.calls": sp.count("plumbing.blow_down", label),
            "docio.survey_row.us": sp.median("docio.survey_row", label),
            "docio.survey_to_csv.ms": sp.median("docio.survey_to_csv", label, unit=1e6),
            "cli.survey.jobs1_s": jobs1_s,
            "cli.survey.jobs2_s": jobs2_s,
            "cli.survey.parallel_efficiency": jobs1_s / (2 * jobs2_s),
            "cli.survey.rows_per_chain": rows / chains,
            "cli.survey.skipped": chains - rows,
        }

    return derive, pair


def ech_slice(run):
    w = EchGenerators(run.pt, run.reference, run.seed, run.scale)
    cycles = w.slice()
    pair = run.traced(cycles, "ech", paired=run.workload == EchGenerators.name)

    def derive(sp):
        label = "ech"
        return {
            "reeb.enumerate_generators.ms": sp.median("reeb.enumerate_generators", label, unit=1e6),
            "reeb.generators": w.stats["generators"] / max(1, w.stats["requests"]),
            "reeb.enumerate_generators.share": sp.total("reeb.enumerate_generators", label)
            / max(1, sp.total(REQUEST, label)),
            "docio.current_to_doc.ms": statistics.median(sp.per_request("docio.current_to_doc", label))
            / 1e6,
        }

    return derive, pair


def geometry_slice(run):
    w = Geometry(run.pt, run.reference, run.seed, run.scale)
    cycles = w.slice()
    pair = run.traced(cycles, "geometry", paired=run.workload == Geometry.name)

    def derive(sp):
        label = "geometry"
        return {
            "reeb.enumerate_orbits.ms": sp.median("reeb.enumerate_orbits", label, unit=1e6),
            "reeb.families": w.stats["families"] / max(1, w.stats["orbit_requests"]),
            "toric.moment_polygon.us": sp.median("toric.moment_polygon", label),
            "toric.blow_up_corner.us": sp.median("toric.blow_up_corner", label),
            "docio.render_svg.us": sp.median("docio.render_svg", label),
        }

    return derive, pair


SLICES = {
    ClassifySweep.name: classify_slice,
    SurveyCli.name: survey_slice,
    EchGenerators.name: ech_slice,
    Geometry.name: geometry_slice,
}


class TracedRun:
    """State shared by the slices of one traced run."""

    def __init__(self, pt, reference, seed, scale, workload, tracer):
        self.pt, self.reference, self.seed, self.scale = pt, reference, seed, scale
        self.workload = workload
        self.tracer = tracer
        self.tally = Tally()

    def untraced(self, cycles):
        tally = run_cycles(cycles)
        self.tally.absorb(tally)
        return tally

    def traced(self, cycles, label, paired=False):
        """Run every batch with spans; return (untraced, traced) request ns.

        With ``paired`` each batch also runs untraced right next to its
        traced run, before and after it in turn, so that drift of the
        machine's speed cancels out of the overhead ratio.
        """
        untraced_ns = traced_ns = 0
        batches = [batch for cycle in cycles for batch in cycle]
        for i, batch in enumerate(batches):
            for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
                if not with_spans:
                    if paired:
                        untraced_ns += self.untraced([[batch]]).busy_ns
                    continue
                self.tracer.install("plumbtoric")
                try:
                    tally = run_cycles([[batch]], tracer=self.tracer, label=label)
                finally:
                    self.tracer.uninstall()
                self.tally.absorb(tally)
                traced_ns += tally.busy_ns
        return untraced_ns, traced_ns


def measure(pt, reference, seed, scale, workload, tracer):
    """Every per-layer metric, plus the tally of all checked outputs."""
    run = TracedRun(pt, reference, seed, scale, workload, tracer)
    derivations, overhead = [], None
    for name, slice_ in SLICES.items():
        derive, (untraced_ns, traced_ns) = slice_(run)
        derivations.append(derive)
        if name == workload:
            overhead = traced_ns / untraced_ns
    spans = Spans(tracer)
    metrics = {}
    for derive in derivations:
        metrics.update(derive(spans))
    metrics["trace.overhead_ratio"] = overhead
    return metrics, run.tally, sorted(set(spans.missing))
