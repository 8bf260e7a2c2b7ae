"""Program loading, the closed-loop request runner and result bookkeeping."""

from __future__ import annotations

import importlib
import math
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns
from types import SimpleNamespace

from workloads import Failed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
MODULES = ("cli", "docio", "errors", "lattice", "plumbing", "reeb", "toric")
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0)


class ProgramMissing(Exception):
    pass


def import_program():
    """Import plumbtoric afresh from this checkout's ``src`` directory."""
    init = SRC / "plumbtoric" / "__init__.py"
    if not init.is_file():
        raise ProgramMissing("no plumbtoric package under %s" % SRC)
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for key in [k for k in sys.modules if k == "plumbtoric" or k.startswith("plumbtoric.")]:
        del sys.modules[key]
    importlib.invalidate_caches()
    package = importlib.import_module("plumbtoric")
    if Path(package.__file__).resolve() != init.resolve():
        raise ProgramMissing("plumbtoric was imported from %s" % package.__file__)
    return SimpleNamespace(**{m: importlib.import_module("plumbtoric." + m) for m in MODULES})


@dataclass
class Tally:
    latencies_ns: list = field(default_factory=list)
    items: int = 0  # items in requests whose outputs matched the reference
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)  # first few, for the result file

    def fail(self, items, detail):
        self.failed += items
        if len(self.failures) < 10:
            self.failures.append(detail)

    def absorb(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.extend(other.failures[: 10 - len(self.failures)])

    @property
    def busy_ns(self):
        return sum(self.latencies_ns)


def kernel():
    """Fixed pure-Python work whose duration tracks the machine's speed."""
    total = 0
    for i in range(4000):
        total += i * i % 7
    return total


class Calibration:
    """How fast the machine ran while requests were measured.

    The speed of the shared machine this benchmark was built on drifts by
    +-15% over seconds to minutes, for every process alike.  A fixed kernel
    runs between batches, outside the request timers, for about SHARE of
    the request time.  ``factor`` is the kernel's nominal time over its
    median time in the run: a time multiplied by it reads as at the
    reference speed, which cancels the drift common to kernel and requests.
    """

    NOMINAL_NS = 400_000  # kernel median on the reference machine
    SHARE = 0.05

    def __init__(self):
        self.samples = []

    def run(self, busy_ns):
        spent = 0
        while spent <= busy_ns * self.SHARE:
            t0 = perf_counter_ns()
            kernel()
            self.samples.append(perf_counter_ns() - t0)
            spent += self.samples[-1]

    @property
    def factor(self):
        return self.NOMINAL_NS / statistics.median(self.samples)


def run_cycles(cycles, seconds=math.inf, tracer=None, label="", calibration=None):
    """Closed loop, one client: each request starts when the previous ends.

    Stops at the end of the first cycle that finishes after ``seconds``.
    Outputs are checked between requests, outside the request timer; so
    does the calibration kernel run, when one is given.
    """
    tally = Tally()
    deadline = perf_counter() + seconds
    for cycle in cycles:
        for batch in cycle:
            outputs = []
            for request in batch.requests:
                t0 = perf_counter_ns()
                try:
                    out = request() if tracer is None else tracer.call(label, request)
                except Exception as exc:  # counted as a failed item below
                    out = Failed(exc)
                tally.latencies_ns.append(perf_counter_ns() - t0)
                outputs.append(out)
            if calibration is not None:
                calibration.run(sum(tally.latencies_ns[-len(outputs) :]))
            items = batch.items_per_request * len(batch.requests)
            tally.attempted += items
            if batch.check(outputs):
                tally.items += items
            else:
                errors = [o for o in outputs if isinstance(o, Failed)]
                tally.fail(items, "batch %s: %s" % (batch.key, errors[0] if errors else "output differs from reference"))
        if perf_counter() >= deadline:
            break
    return tally


def tail(sorted_values):
    """Highest ladder percentile with at least ten samples beyond it.

    Returns (percentile, value, samples beyond).  A run too short for that
    takes the highest rung with any sample beyond it, which is steadier than
    the single slowest request, and only then the maximum.
    """
    n = len(sorted_values)
    for least in (10, 1):
        for p in TAIL_LADDER:
            rank = math.ceil(p / 100 * n)
            if n - rank >= least:
                return p, sorted_values[rank - 1], n - rank
    return 100.0, sorted_values[-1], 0


def peak_rss_mb():
    """Peak resident set of this process plus its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


def git_commit():
    """Commit of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    # os.uname, not platform.platform: the latter may fork ``uname -p``,
    # and a forked child would count toward peak_rss_mb
    u = os.uname()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": "%s-%s-%s" % (u.sysname, u.release, u.machine),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
    }
