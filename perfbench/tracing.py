"""Traced mode: spans around cubetree's layer boundaries, recorded from outside.

Nothing under ``src/`` knows about tracing.  ``install`` replaces the public
functions and methods listed in ``SPANS`` and ``COUNTERS`` with wrappers.  A
module-level function is replaced in every ``cubetree`` module that holds it,
so names bound by ``from ... import`` are caught too; a call site the
wrappers still miss shows up as ``engine.run.unattributed_s``.

Spans live in memory as four parallel arrays (name id, parent index, start,
end) and are written out once, at the end of the run, by ``Recorder.dump``.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
import time
from array import array
from pathlib import Path

# Span name -> (module, attribute path) of every callable it wraps.  The
# strategy hooks live in `cc` and `dc`; the engine calls them through
# `Engine.strat`, so each hook span covers both variants.
SPANS = {
    "engine.run": [("engine", "Engine.run")],
    "engine.assign_type": [("cc", "assign_type"), ("dc", "assign_type")],
    "engine.act": [("cc", "act"), ("dc", "act")],
    "engine.act_G": [("cc", "act_G"), ("dc", "act_G")],
    "engine.true_path_approx": [("engine", "true_path_approx")],
    "cc.act_N": [("cc", "act_N")],
    "cc.act_M": [("cc", "act_M")],
    "cc.compute_B": [("cc", "compute_B")],
    "cc.extract_isomorphism": [("cc", "extract_isomorphism")],
    "cc.compute_Q": [("cc", "compute_Q")],
    "dc.act_N_mother": [("dc", "act_N_mother")],
    "dc.act_N_daughter": [("dc", "act_N_daughter")],
    "dc.act_U": [("dc", "act_U")],
    "dc.act_M": [("dc", "act_M")],
    "dc.compute_B_pairs": [("dc", "compute_B_pairs")],
    "dc.extract_paths": [("dc", "extract_paths")],
    "dc.modulus_check": [("dc", "modulus_check")],
    "structure.LabelStore.grow": [("structure", "LabelStore.grow")],
    "structure.LabelStore.declare": [("structure", "LabelStore.declare")],
    "structure.LabelStore.top_label": [("structure", "LabelStore.top_label")],
    "structure.LabelStore.label_stamp": [("structure", "LabelStore.label_stamp")],
    "structure.LabelStore.n_sigma": [("structure", "LabelStore.n_sigma")],
    "structure.Snapshot.dump_lines": [("structure", "Snapshot.dump_lines")],
    "adversary.FaithfulGenerator.ingest": [("adversary", "FaithfulGenerator.ingest")],
    "adversary.FactStream.oldest_satisfying": [("adversary", "FactStream.oldest_satisfying")],
    "adversary.FactStream.witnesses_W": [("adversary", "FactStream.witnesses_W")],
    "adversary.FactStream.edge_targets": [("adversary", "FactStream.edge_targets")],
    "adversary.FactStream.holds_within": [("adversary", "FactStream.holds_within")],
    "verify.check_trace_invariants": [("verify", "check_trace_invariants")],
    "verify.invariant.left_kill": [("engine", "check_left_kill")],
    "verify.invariant.n_sigma_definedness": [("verify", "_check_n_sigma_definedness")],
    "verify.invariant.choice_discipline": [("verify", "_check_choice_discipline")],
    "verify.invariant.gamma_lengths": [("verify", "_check_gamma_lengths")],
    "verify.invariant.b_sets": [("verify", "_check_b_sets")],
    "verify.invariant.witness_ages": [("verify", "_check_witness_ages")],
    "verify.check_labeling": [("verify", "check_labeling")],
    "verify.check_isomorphism": [("verify", "check_isomorphism")],
    "cli.run_suite": [("cli", "run_suite")],
    "cli.trace_lines": [("engine", "RunResult.trace_lines")],
    "cli.write_artifacts": [("cli", "write_artifacts")],
}

# Counted but not timed: called too often for a span each.
COUNTERS = {
    "dc.PhiPredicate.holds": [("dc", "PhiPredicate.holds")],
    "structure.format_string": [("structure", "format_string")],
}

# Per-layer metric name -> (unit, better), in report order.  The names are
# those of BENCHMARK.json's `per_layer`; perfbench/README.md gives the
# end-to-end metric and workload each one should move.
PER_LAYER = {}


def _declare(names, unit, better):
    for name in names:
        PER_LAYER[name] = (unit, better)


_declare(["engine.assign_type.calls"], "count", "lower")
_declare(["engine.assign_type.self_s", "engine.act_G.self_s"], "s", "lower")
_declare(["engine.trace_events", "engine.visits"], "count", "lower")
_declare(["engine.stage.p50_ms", "engine.stage.p95_ms"], "ms", "lower")
_declare(["engine.stage_growth_exp"], "1", "lower")
_declare(["engine.run.s", "engine.run.unattributed_s"], "s", "lower")
_declare(["cc.act_M.calls"], "count", "lower")
_declare(["cc.act_M.self_s", "cc.compute_B.self_s"], "s", "lower")
_declare(["cc.act_M.inf_ratio"], "ratio", "higher")
_declare(["cc.B_size.max"], "count", "lower")
_declare(["cc.extract_isomorphism.s", "cc.compute_Q.s"], "s", "lower")
_declare(["dc.act_M.calls"], "count", "lower")
_declare(["dc.act_M.self_s", "dc.compute_B_pairs.self_s"], "s", "lower")
_declare(["dc.act_M.inf_ratio"], "ratio", "higher")
_declare(["dc.act_N_daughter.calls"], "count", "lower")
_declare(["dc.act_N_daughter.self_s"], "s", "lower")
_declare(["dc.PhiPredicate.holds.calls"], "count", "lower")
_declare(["dc.act_U.calls"], "count", "lower")
_declare(["dc.act_U.self_s", "dc.act_N_mother.self_s"], "s", "lower")
_declare(["dc.extract_paths.s", "dc.modulus_check.s"], "s", "lower")
for _fn in ("grow", "declare", "top_label", "label_stamp", "n_sigma"):
    _declare([f"structure.LabelStore.{_fn}.calls"], "count", "lower")
    _declare([f"structure.LabelStore.{_fn}.self_s"], "s", "lower")
_declare(["structure.Snapshot.dump_lines.s"], "s", "lower")
_declare(["structure.format_string.calls"], "count", "lower")
_declare(["adversary.FaithfulGenerator.ingest.calls"], "count", "lower")
_declare(["adversary.FaithfulGenerator.ingest.self_s"], "s", "lower")
_declare(["adversary.facts"], "count", "lower")
for _fn in ("oldest_satisfying", "witnesses_W", "edge_targets", "holds_within"):
    _declare([f"adversary.FactStream.{_fn}.calls"], "count", "lower")
    _declare([f"adversary.FactStream.{_fn}.self_s"], "s", "lower")
_declare(["adversary.oldest_satisfying.hit_ratio"], "ratio", "higher")
_declare([f"verify.invariant.{_inv}.s" for _inv in (
    "left_kill", "n_sigma_definedness", "choice_discipline",
    "gamma_lengths", "b_sets", "witness_ages")], "s", "lower")
_declare(["verify.check_labeling.s", "verify.check_isomorphism.s"], "s", "lower")
_declare(["cli.trace_lines.s", "cli.write_artifacts.s"], "s", "lower")
_declare(["trace.spans"], "count", "lower")
_declare(["trace.overhead_s"], "s", "lower")
# Phase times of the untraced repetitions; run.py explains why they are not
# end-to-end metrics.
_declare(["run_s", "verify_s", "export_s"], "s", "lower")


class Recorder:
    """In-memory span store plus call counters and return-value tallies."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self.tallies: dict[str, float] = {}

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Append a finished span; returns its index."""
        self.name_id.append(self.intern(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1

    def spanned(self, name: str, fn, observe=None):
        """Wrap fn so each call records a span; observe(result) sees the
        return value."""
        nid = self.intern(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(out)
            return out

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def tally(self, key: str, value: float = 1) -> None:
        self.tallies[key] = self.tallies.get(key, 0) + value

    def tally_max(self, key: str, value: float) -> None:
        self.tallies[key] = max(self.tallies.get(key, value), value)

    def __len__(self) -> int:
        return len(self.start)

    def dump(self, out_dir: Path) -> None:
        """Write the spans: a JSON header and the four arrays, in order."""
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "spans.json").write_text(
            json.dumps({"names": self.names, "count": len(self),
                        "arrays": ["name_id:i", "parent:i", "start:d", "end:d"]}),
            encoding="utf-8",
        )
        with open(out_dir / "spans.bin", "wb") as fh:
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)


def load_spans(out_dir: Path) -> Recorder:
    """Read back what Recorder.dump wrote."""
    head = json.loads((out_dir / "spans.json").read_text(encoding="utf-8"))
    rec = Recorder()
    for name in head["names"]:
        rec.intern(name)
    n = head["count"]
    with open(out_dir / "spans.bin", "rb") as fh:
        for arr in (rec.name_id, rec.parent, rec.start, rec.end):
            arr.fromfile(fh, n)
    return rec


def self_times(rec: Recorder) -> list[float]:
    """Each span's duration minus the time its child spans cover.  Spans of
    one thread nest, so the children of a span never overlap."""
    n = len(rec)
    covered = [0.0] * n
    start, end, parent = rec.start, rec.end, rec.parent
    for i in range(n):
        p = parent[i]
        if p >= 0:
            covered[p] += end[i] - start[i]
    return [end[i] - start[i] - covered[i] for i in range(n)]


def aggregate(rec: Recorder) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds `s` and `self_s`."""
    selfs = self_times(rec)
    out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in rec.names}
    for i, nid in enumerate(rec.name_id):
        row = out[rec.names[nid]]
        row["calls"] += 1
        row["s"] += rec.end[i] - rec.start[i]
        row["self_s"] += selfs[i]
    return out


def stage_durations(rec: Recorder) -> list[float]:
    """Seconds per stage, from consecutive act_G end times; the first stage
    is timed from the start of Engine.run.  act_G runs once per stage."""
    run_id = rec._ids.get("engine.run")
    g_id = rec._ids.get("engine.act_G")
    if run_id is None or g_id is None:
        return []
    prev = rec.start[rec.name_id.index(run_id)]
    out = []
    for i, nid in enumerate(rec.name_id):
        if nid == g_id:
            out.append(rec.end[i] - prev)
            prev = rec.end[i]
    return out


def growth_exponent(durations: list[float]) -> float:
    """Least-squares slope of log(stage time) against log(stage) over the
    second half of the run.  1 means stage time grows linearly, so the whole
    run grows as the square of the horizon."""
    h = len(durations)
    pts = [(math.log(k), math.log(d)) for k, d in enumerate(durations, 1)
           if k > h // 2 and d > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def _resolve(module: str, path: str):
    obj = sys.modules[f"cubetree.{module}"]
    *owners, attr = path.split(".")
    for part in owners:
        obj = getattr(obj, part)
    return obj, attr


def _replace(owner, attr: str, make) -> None:
    """Replace owner.attr; for a module-level function, also every binding of
    the same function in the other cubetree modules."""
    original = getattr(owner, attr)
    wrapped = make(original)
    if isinstance(owner, type):
        setattr(owner, attr, wrapped)
        return
    for name, mod in list(sys.modules.items()):
        if name == "cubetree" or name.startswith("cubetree."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def install(rec: Recorder) -> None:
    """Wrap every callable in SPANS and COUNTERS; cubetree must be imported."""
    import cubetree.cli  # noqa: F401  (loads every traced module)

    observers = {
        "cc.act_M": lambda tok: rec.tally("cc.act_M.inf", tok.startswith("i")),
        "dc.act_M": lambda tok: rec.tally("dc.act_M.inf", tok.startswith("i")),
        "cc.compute_B": lambda b: rec.tally_max("cc.B_size.max", len(b)),
        "adversary.FactStream.oldest_satisfying":
            lambda x: rec.tally("adversary.oldest_satisfying.hits", x is not None),
    }
    for name, targets in SPANS.items():
        for module, path in targets:
            owner, attr = _resolve(module, path)
            _replace(owner, attr,
                     lambda fn, name=name: rec.spanned(name, fn, observers.get(name)))
    for name, targets in COUNTERS.items():
        for module, path in targets:
            owner, attr = _resolve(module, path)
            _replace(owner, attr, lambda fn, name=name: rec.counted(name, fn))


def layer_metrics(rec: Recorder, run_counts: dict[str, int]) -> dict[str, float]:
    """Every PER_LAYER metric except trace.overhead_s and the phase times,
    which come from the untraced repetitions.  run_counts holds
    engine.trace_events, engine.visits and adversary.facts, read off the
    finished run.  A layer that did not run reports 0."""
    agg = aggregate(rec)
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out: dict[str, float] = {}
    for metric in PER_LAYER:
        base, _, stat = metric.rpartition(".")
        if base in SPANS and stat in zero:
            out[metric] = agg.get(base, zero)[stat]
    for name in COUNTERS:
        out[f"{name}.calls"] = rec.counts.get(name, 0)
    out.update(run_counts)
    run = agg.get("engine.run", zero)
    out["engine.run.unattributed_s"] = run["self_s"]
    durations = stage_durations(rec)
    if durations:
        out["engine.stage.p50_ms"] = statistics.median(durations) * 1e3
        out["engine.stage.p95_ms"] = (
            statistics.quantiles(durations, n=20)[18] * 1e3
            if len(durations) > 1 else durations[0] * 1e3
        )
    out["engine.stage_growth_exp"] = growth_exponent(durations)
    for variant in ("cc", "dc"):
        calls = agg.get(f"{variant}.act_M", zero)["calls"]
        inf = rec.tallies.get(f"{variant}.act_M.inf", 0)
        out[f"{variant}.act_M.inf_ratio"] = inf / calls if calls else 0.0
    out["cc.B_size.max"] = rec.tallies.get("cc.B_size.max", 0)
    calls = agg.get("adversary.FactStream.oldest_satisfying", zero)["calls"]
    hits = rec.tallies.get("adversary.oldest_satisfying.hits", 0)
    out["adversary.oldest_satisfying.hit_ratio"] = hits / calls if calls else 0.0
    out["trace.spans"] = len(rec)
    return out
