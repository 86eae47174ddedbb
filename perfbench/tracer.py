"""Span tracer for the benchmark's traced runs.

`Tracer.install` rebinds each function in `TRACED` to a wrapper that records
one span per call: its name, start, end and parent span.  The rebinding
happens in every loaded `fanbranch` module namespace that holds the function
(so `from .exact_linalg import nullspace_of_int_rows` in `pl_group` is traced
too); methods are rebound on their class.  The package's source is never
touched, and `uninstall` restores every binding.

Spans stay in memory in flat integer arrays and are written out once, at the
end of the run.  A layer's self time is its span's duration minus the time
its child spans cover; calls in one thread nest, so that is the sum of the
children's durations.  Spans do not cross `fork`: a traced sweep must run its
workers in process.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# Public functions traced, by module of definition.  "Class.method" entries
# are rebound on the class.  A name missing from the module (renamed or
# removed by a later change) is reported as absent, not an error.
TRACED = {
    "fan_core": ("fan_from_data", "is_complete", "load_fan"),
    "cover_poset": ("CoverPoset.__init__", "validate_cover", "cover_to_dict",
                    "cover_from_dict"),
    "monodromy": ("spanning_tree", "count_assignments", "assignment_at",
                  "build_cover", "branch_rays", "canonical_class"),
    "pl_group": ("ray_value_system", "per_cell_system", "solve", "group_triviality",
                 "wedge_summands", "is_trivial_function"),
    "exact_linalg": ("nullspace_of_int_rows", "integer_kernel", "hermite_normal_form",
                     "rref", "solve_linear"),
    "klyachko": ("load_bundle", "verify", "necessary_dimension_check", "dual",
                 "chern", "branched_cover_of", "direct_sum", "line_bundle"),
    "cli": ("evaluate_assignment", "SweepRecord.to_json", "run_sweep"),
}


def traced_names() -> list[str]:
    """Every span name the tracer can record, as `<module>.<function>`."""
    return [f"{mod}.{qual}" for mod, quals in TRACED.items() for qual in quals]


def self_times(spans) -> dict[str, tuple[int, int]]:
    """Per span name, (total self time, call count).

    `spans` is a sequence of (name, start, end, parent) with `parent` the
    position of the enclosing span in the sequence, or -1 for a root.
    """
    covered = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, tuple[int, int]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        own, calls = totals.get(name, (0, 0))
        totals[name] = (own + (end - start) - covered[i], calls + 1)
    return totals


class Tracer:
    """Records nested spans around calls into the traced functions."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def wrap(self, name: str, fn):
        """`fn` with a span named `name` recorded around every call."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_of, starts, ends, parents, stack = (
            self.name_of, self.start, self.end, self.parent, self._stack)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_of.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self, package: str = "fanbranch", traced=None) -> None:
        """Rebind the traced functions of the loaded `package` modules."""
        traced = TRACED if traced is None else traced
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for modname, quals in traced.items():
            module = sys.modules.get(f"{package}.{modname}")
            for qual in quals:
                name = f"{modname}.{qual}"
                owner_name, _, attr = qual.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name, None)
                    original = vars(owner).get(attr) if isinstance(owner, type) else None
                    if not callable(original):
                        self.absent.append(name)
                        continue
                    self._rebind(owner, attr, original, self.wrap(name, original))
                    continue
                original = getattr(module, attr, None)
                if not callable(original):
                    self.absent.append(name)
                    continue
                wrapper = self.wrap(name, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._rebind(m, key, original, wrapper)

    def _rebind(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def spans(self) -> list[tuple[str, int, int, int]]:
        names = self.names
        return [(names[n], s, e, p)
                for n, s, e, p in zip(self.name_of, self.start, self.end, self.parent)]

    def root_ns(self) -> int:
        """Time covered by root spans: the part of the run the trace explains."""
        return sum(e - s for s, e, p in zip(self.start, self.end, self.parent) if p < 0)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "name": self.name_of.tolist(),
                "start_ns": self.start.tolist(),
                "end_ns": self.end.tolist(),
                "parent": self.parent.tolist(),
            }, fh, separators=(",", ":"))
