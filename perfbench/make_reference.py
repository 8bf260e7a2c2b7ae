"""Write perfbench/reference.json from the program in this checkout.

The reference holds a digest of every exact output field of every request
the workloads can make, taken once at the seed commit, so that later runs
detect any change of output.  Regenerate it only on purpose, when a change
of output is intended and has been reviewed:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from harness import environment, import_program, run_cycles
from workloads import BLOCKS, FULL, IDENTITY, TINY, ClassifySweep, EchGenerators, Geometry, SurveyCli


def dump(reference):
    """JSON with one reference entry per line."""
    tables = []
    for table, entries in sorted(reference.items()):
        rows = ",\n".join(
            "%s: %s" % (json.dumps(key), json.dumps(value, sort_keys=True))
            for key, value in sorted(entries.items())
        )
        tables.append("%s: {\n%s\n}" % (json.dumps(table), rows))
    return "{\n%s\n}\n" % ",\n".join(tables)


def main():
    pt = import_program()
    tallies = []

    def run(batches):
        tallies.append(run_cycles([batches]))

    classify = ClassifySweep(pt, None, 0, FULL)
    run([classify.batch(b) for b in range(BLOCKS)])
    geometry = Geometry(pt, None, 0, FULL)
    batches = [geometry.chain_batch(b) for b in range(BLOCKS)]
    for curve, bound in FULL.orbit_bounds + TINY.orbit_bounds:
        batches.append(geometry.orbit_batch(curve, bound, IDENTITY))
    run(batches)
    ech = EchGenerators(pt, None, 0, FULL)
    run([ech.batch(k, IDENTITY) for k in FULL.ech_ks])
    survey = SurveyCli(pt, None, 0, FULL)
    for scale in (FULL, TINY):
        survey.texts.clear()
        run([survey.batch(1, scale), survey.batch(2, scale)])
        if survey.texts[1] != survey.texts[2]:
            sys.exit("survey output differs between --jobs 1 and --jobs 2")
    failures = [f for t in tallies for f in t.failures]
    if failures:
        sys.exit("requests failed: %s" % failures)
    reference = {"environment": environment()}
    for workload in (classify, geometry, ech, survey):
        reference.update(workload.recorded)
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(dump(reference))
    print("wrote %s" % path)


if __name__ == "__main__":
    main()
