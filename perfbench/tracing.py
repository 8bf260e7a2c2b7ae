"""In-memory spans around calls to public plumbtoric functions.

A :class:`Tracer` replaces each traced public function, in every plumbtoric
module namespace that binds it under a public name, with a wrapper that
records one span per call: name, start, end, parent span and request id.
Calls the program makes through those names are therefore timed too, while
private helpers are never touched.  ``uninstall`` puts the originals back.

Spans are kept in flat arrays so that a few hundred thousand of them stay
small, and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import perf_counter_ns

# (module, public function) pairs whose calls become spans
TRACED = (
    ("cli", "main"),
    ("lattice", "winding_compare"),
    ("plumbing", "blow_down"),
    ("plumbing", "det_intersection"),
    ("toric", "classify"),
    ("toric", "ray_sequence"),
    ("toric", "lens_invariant"),
    ("toric", "moment_polygon"),
    ("toric", "blow_up_corner"),
    ("reeb", "enumerate_orbits"),
    ("reeb", "perturb_split"),
    ("reeb", "enumerate_generators"),
    ("docio", "report_to_doc"),
    ("docio", "survey_row"),
    ("docio", "survey_to_csv"),
    ("docio", "itinerary_from_doc"),
    ("docio", "families_to_doc"),
    ("docio", "current_to_doc"),
    ("docio", "polygon_to_doc"),
    ("docio", "render_svg"),
    ("docio", "dumps"),
)

REQUEST = "request"  # name of the root span the benchmark opens per request


class Tracer:
    def __init__(self):
        self.names = []  # span name by name id
        self.labels = []  # request label by request id
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.request = array("l")
        self._open = [-1]
        self._current = -1
        self._ids = {}
        self._patches = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _record(self, nid, fn, args, kwargs):
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1])
        self.request.append(self._current)
        self.start.append(0)
        self.end.append(0)
        self._open.append(sid)
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[sid] = perf_counter_ns()
            self.start[sid] = t0
            self._open.pop()

    def call(self, label, fn):
        """Run ``fn()`` as one request with a root span; return its result."""
        self._current = len(self.labels)
        self.labels.append(label)
        try:
            return self._record(self._name_id(REQUEST), fn, (), {})
        finally:
            self._current = -1

    def install(self, package):
        """Wrap every function in TRACED wherever plumbtoric binds it publicly."""
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == package or key.startswith(package + "."))
        ]
        for modname, attr in TRACED:
            fn = getattr(sys.modules["%s.%s" % (package, modname)], attr)
            nid = self._name_id("%s.%s" % (modname, attr))

            def traced(*args, _fn=fn, _nid=nid, **kwargs):
                return self._record(_nid, _fn, args, kwargs)

            functools.update_wrapper(traced, fn)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is fn and not key.startswith("_"):
                        self._patches.append((m, key, fn))
                        setattr(m, key, traced)

    def uninstall(self):
        while self._patches:
            m, key, fn = self._patches.pop()
            setattr(m, key, fn)

    # -- analysis -----------------------------------------------------------

    def durations(self):
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self, durations):
        """Duration minus the time covered by child spans, per span."""
        covered = [0] * len(durations)
        for sid, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += durations[sid]
        return [d - c for d, c in zip(durations, covered)]

    def summary(self):
        """Calls, inclusive and self milliseconds per span name."""
        durations = self.durations()
        selfs = self.self_times(durations)
        out = {}
        for sid, nid in enumerate(self.name):
            row = out.setdefault(self.names[nid], [0, 0, 0])
            row[0] += 1
            row[1] += durations[sid]
            row[2] += selfs[sid]
        return {
            name: {"calls": c, "total_ms": t / 1e6, "self_ms": s / 1e6}
            for name, (c, t, s) in sorted(out.items())
        }

    def write(self, path):
        with gzip.open(path, "wt", newline="") as fh:
            fh.write("span,name,start_ns,end_ns,parent,request,label\n")
            for sid in range(len(self.start)):
                r = self.request[sid]
                fh.write(
                    "%d,%s,%d,%d,%d,%d,%s\n"
                    % (
                        sid,
                        self.names[self.name[sid]],
                        self.start[sid],
                        self.end[sid],
                        self.parent[sid],
                        r,
                        self.labels[r] if r >= 0 else "",
                    )
                )
