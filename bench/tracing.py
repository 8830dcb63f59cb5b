"""Span tracing of gridevac's public functions, installed from outside.

``Tracer.install`` replaces selected module attributes with wrappers that
record one span per call: name, start, end, parent span and the command
index it belongs to. Spans stay in memory until ``write`` dumps them. The
wrappers look the original up once, so installing and uninstalling leaves the
program's source untouched; ``uninstall`` restores every attribute.

Self time of a span is its duration minus the durations of its direct
children (on one thread, children never overlap).
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# (module attribute path, span name). Several attributes may share one name.
TRACED: List[Tuple[str, str]] = [
    ("cli.main", "cli.main"),
    ("netmodel.parse_network", "netmodel.parse"),
    ("netmodel.parse_scenario", "netmodel.parse"),
    ("netmodel.generate_synthetic_feeder", "netmodel.generate"),
    ("powerflow.solve_pf", "powerflow.solve_pf"),
    ("powerflow.snapshot_for", "powerflow.snapshot_for"),
    ("powerflow.simulate_states", "powerflow.simulate_states"),
    ("cla.GridOracle.node_voltages", "cla.GridOracle.node_voltages"),
    ("cla.draw_samples", "cla.draw_samples"),
    ("cla.compute_targets", "cla.compute_targets"),
    ("cla.fit_cla", "cla.fit_cla"),
    ("cla.save_model", "cla.save_model"),
    ("mathprog.solve_lp", "mathprog.solve_lp"),
    ("mathprog.solve_milp", "mathprog.solve_milp"),
    ("eevc.build_program", "eevc.build_program"),
    ("eevc.decode", "eevc.decode"),
    ("congen.run", "congen.run"),
    ("congen._simulate", "congen.simulate"),
    ("congen.schedule_from_starts", "congen.schedule_from_starts"),
    ("congen.brute_force_oracle", "congen.brute_force_oracle"),
]

SETUP = -1  # command index of spans recorded during set-up

# Power-flow solves counted under these ancestor spans, by metric name.
PF_SCOPES = {"congen.simulate": "congen.simulate.pf_calls",
             "cla.compute_targets": "cla.targets.pf_calls"}


def _count_result(counts: Dict[str, float], name: str, result) -> None:
    """Work counts read from a traced call's return value."""
    if name == "powerflow.solve_pf":
        counts["powerflow.solve_pf.sweeps"] += result.iterations
    elif name == "mathprog.solve_milp":
        counts["mathprog.solve_milp.limit"] += result.status == "limit"
    elif name == "eevc.build_program":
        counts["eevc.vars"] += len(result.variables)
        counts["eevc.binaries"] += len(result.binaries)
        counts["eevc.rows"] += len(result.constraints)
    elif name == "congen.run":
        counts["congen.iterations"] += len(result.trace)
        counts["congen.active_constraints"] += (
            result.trace[-1].n_active_constraints if result.trace else 0)


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self):
        # Each span: [name, start_ns, end_ns, parent index or -1, command].
        self.spans: List[list] = []
        self.counts: Dict[int, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.command = SETUP
        self.enabled = False
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        for path, name in TRACED:
            owner = package
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            extra = _targets_before(name, args)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter_ns(), 0, parent, tracer.command]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                tracer._stack.pop()
            counts = tracer.counts[tracer.command]
            _count_result(counts, name, result)
            if extra is not None:
                requested, cached_before, samples = extra
                new = len(samples._vcache) - cached_before
                counts["cla.targets.requested"] += requested
                counts["cla.targets.cached"] += requested - new
            return result

        return wrapper

    # -- analysis -----------------------------------------------------------

    def command_profile(self, command: int) -> Dict[str, float]:
        """Per-name self seconds and calls, plus ancestor-scoped counts, for
        the spans of one command (or of set-up, ``SETUP``)."""
        idx = [i for i, s in enumerate(self.spans) if s[4] == command]
        child_ns: Dict[int, int] = defaultdict(int)
        for i in idx:
            parent = self.spans[i][3]
            if parent >= 0:
                child_ns[parent] += self.spans[i][2] - self.spans[i][1]
        prof: Dict[str, float] = defaultdict(float)
        for i in idx:
            name, start, end, _, _ = self.spans[i]
            prof[f"{name}.self_s"] += (end - start - child_ns[i]) / 1e9
            prof[f"{name}.calls"] += 1
            if name == "powerflow.solve_pf":
                for anc in self._ancestors(i):
                    if anc in PF_SCOPES:
                        prof[PF_SCOPES[anc]] += 1
        prof.update(self.counts.get(command, {}))
        return prof

    def _ancestors(self, i: int) -> List[str]:
        names = []
        parent = self.spans[i][3]
        while parent >= 0:
            names.append(self.spans[parent][0])
            parent = self.spans[parent][3]
        return names

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "command"],
                       "spans": self.spans,
                       "counts": {str(k): dict(v) for k, v in self.counts.items()}},
                      fh)
            fh.write("\n")


def _targets_before(name: str, args) -> Optional[Tuple[int, int, object]]:
    """For compute_targets: (requested (t, column) pairs, cache size, samples)."""
    if name != "cla.compute_targets":
        return None
    samples, times = args[1], args[3]
    return len(set(times)) * samples.M, len(samples._vcache), samples
