"""Span recorder for the traced run, and the per-layer metrics built from it.

The recorder wraps the public names each tempent module calls across a
module boundary (for example ``tempent.lesche.entropy`` or
``tempent.cli.sweep``) by swapping the module attribute for a wrapper while
the traced phase runs.  Each wrapped call inside a timed op records one span:
name, start, end and parent.  Spans live in flat arrays in memory and are
written once, at the end of the run.  Private helpers (``_power_gap``,
``_entropy_rows``) are not wrapped, so their time stays in the self time of
whichever span called them.

Self time is a span's duration minus the durations of its direct children.
The benchmark is single-threaded, so children never overlap and this equals
the duration minus the part of the interval the children cover.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

import tempent
from workloads import Api

ROOT = "op"
CORE = ("core.entropy", "core.make_dist", "core.generator", "core.max_entropy")
SUBCOMMANDS = ("entropy", "check-axioms", "sweep", "search", "verify-frac")


def _entropy_note(rec, args, kwargs, result):
    p, params = args  # every caller passes (p, params) positionally
    return rec.tag_id((("n", p.n), ("sigma", params.sigma), ("lam", params.lam))), p.n


def _make_dist_note(rec, args, kwargs, result):
    return rec.tag_id((("n", result.n),)), result.n


_RPS_SIG = inspect.signature(tempent.random_pair_search)


def _rps_note(rec, args, kwargs, result):
    bound = _RPS_SIG.bind(*args, **kwargs)
    bound.apply_defaults()
    return rec.tag_id((("n", bound.arguments["n"]),)), bound.arguments["iterations"]


def _sweep_note(rec, args, kwargs, result):
    return 0, len(result)


def _suite_note(rec, args, kwargs, result):
    rec.add("axioms.run_axiom_suite.failed_reports", sum(not r.passed for r in result))
    return rec.tag_id((("n", args[0]),)), sum(r.samples_checked for r in result)


def _quad_note(rec, args, kwargs, result):
    return 0, result.evaluations


# (module, attribute, span name, note) for every cross-module call the
# library makes; a note returns (tag id, value) stored with the span
PATCHES = [
    ("tempent.lesche", "entropy", "core.entropy", _entropy_note),
    ("tempent.lesche", "make_dist", "core.make_dist", _make_dist_note),
    ("tempent.lesche", "generator", "core.generator", None),
    ("tempent.lesche", "max_entropy", "core.max_entropy", None),
    ("tempent.axioms", "entropy", "core.entropy", _entropy_note),
    ("tempent.axioms", "make_dist", "core.make_dist", _make_dist_note),
    ("tempent.axioms", "max_entropy", "core.max_entropy", None),
    ("tempent.axioms", "run_axiom_suite", "axioms.run_axiom_suite", _suite_note),
    ("tempent.cli", "entropy", "core.entropy", _entropy_note),
    ("tempent.cli", "make_dist", "core.make_dist", _make_dist_note),
    ("tempent.cli", "random_pair_search", "lesche.random_pair_search", _rps_note),
    ("tempent.cli", "sweep", "lesche.sweep", _sweep_note),
    (
        "tempent.fracderiv",
        "tempered_derivative_numeric",
        "fracderiv.tempered_derivative_numeric",
        None,
    ),
    (
        "tempent.fracderiv",
        "laplace_singular_quad",
        "fracderiv.laplace_singular_quad",
        _quad_note,
    ),
]


class Recorder:
    """In-memory span store.  Records only while a root op span is open."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.tags: list = [None]
        self._tag_ids: dict = {None: 0}
        self.name = array("i")
        self.parent = array("i")
        self.tag = array("i")
        self.value = array("d")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def tag_id(self, tag) -> int:
        if tag not in self._tag_ids:
            self._tag_ids[tag] = len(self.tags)
            self.tags.append(tag)
        return self._tag_ids[tag]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.tag.append(0)
        self.value.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def op(self):
        """Root span around one timed op; wrapped calls record only inside one."""
        return self.span(ROOT)

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] += amount

    def wrap(self, name: str, fn, note=None):
        nid = self.name_id(name)
        stack = self.stack

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if note is not None:
                self.tag[idx], self.value[idx] = note(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Swap every attribute in PATCHES for its wrapper; restore on exit."""
        saved = []
        try:
            for mod_name, attr, name, note in PATCHES:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(name, fn, note))
            yield
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def save(self, path) -> None:
        """Write every span (times relative to the first one) as a .npz file."""
        start = np.frombuffer(self.start, dtype=float)
        t0 = float(start[0]) if start.size else 0.0
        np.savez_compressed(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            tag=np.frombuffer(self.tag, dtype=np.int32),
            value=np.frombuffer(self.value, dtype=float),
            start=start - t0,
            end=np.frombuffer(self.end, dtype=float) - t0,
            names=np.array(json.dumps(self.names)),
            tags=np.array(json.dumps([dict(t) if t else None for t in self.tags])),
        )


def traced_api(rec: Recorder) -> Api:
    """The benchmark's own entry points into the program, wrapped in spans."""
    return Api(
        make_dist=rec.wrap("core.make_dist", tempent.make_dist, _make_dist_note),
        entropy=rec.wrap("core.entropy", tempent.entropy, _entropy_note),
        random_pair_search=rec.wrap(
            "lesche.random_pair_search", tempent.random_pair_search, _rps_note
        ),
        span=rec.span,
        add=rec.add,
    )


class Summary:
    """Per-name totals over the recorded spans, with self time and ancestry."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        names = rec.names
        n = len(rec.name)
        dur = [e - s for s, e in zip(rec.start, rec.end)]
        child = [0.0] * n
        for i, p in enumerate(rec.parent):
            if p >= 0:
                child[p] += dur[i]
        rps = rec._name_ids.get("lesche.random_pair_search", -2)
        suite = rec._name_ids.get("axioms.run_axiom_suite", -2)
        core = {rec._name_ids[c] for c in CORE if c in rec._name_ids}
        # whether each span lies under a random_pair_search / run_axiom_suite
        # span; parents are always recorded before their children
        in_rps = [False] * n
        in_suite = [False] * n
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.value = defaultdict(float)
        self.under_rps = defaultdict(int)
        self.core_under_suite = 0
        # calls, busy time and value per (name, tag), for the baseline cross-check
        self.by_tag = defaultdict(lambda: [0, 0.0, 0.0])
        for i in range(n):
            nid, p = rec.name[i], rec.parent[i]
            if p >= 0:
                in_rps[i] = in_rps[p] or rec.name[p] == rps
                in_suite[i] = in_suite[p] or rec.name[p] == suite
            name = names[nid]
            self.calls[name] += 1
            self.busy[name] += dur[i]
            self.self_time[name] += dur[i] - child[i]
            self.value[name] += rec.value[i]
            if in_rps[i]:
                self.under_rps[name] += 1
            if in_suite[i] and nid in core:
                self.core_under_suite += 1
            acc = self.by_tag[(name, rec.tags[rec.tag[i]])]
            acc[0] += 1
            acc[1] += dur[i]
            acc[2] += rec.value[i]
        self.ops = self.calls[ROOT]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(s: Summary) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each averaged per traced op unless its unit says otherwise."""
    ops = max(s.ops, 1)
    m: dict[str, tuple[float, str]] = {}

    def per_op(key: str, total: float, unit: str) -> None:
        m[key] = (total / ops, unit)

    def calls_busy(name: str) -> None:
        per_op(f"{name}.calls", s.calls[name], "count/op")
        per_op(f"{name}.busy_s", s.busy[name], "s/op")

    calls_busy("core.entropy")
    elements = s.value["core.entropy"]
    per_op("core.entropy.elements", elements, "count/op")
    m["core.entropy.elements_per_s"] = (_ratio(elements, s.busy["core.entropy"]), "1/s")
    per_op("core.entropy.bytes_computed", 8 * elements, "B/op")
    calls_busy("core.make_dist")
    calls_busy("core.generator")
    per_op("core.max_entropy.calls", s.calls["core.max_entropy"], "count/op")

    rps = "lesche.random_pair_search"
    calls_busy(rps)
    per_op(f"{rps}.self_s", s.self_time[rps], "s/op")
    steps = s.value[rps]
    per_op(f"{rps}.steps", steps, "count/op")
    m[f"{rps}.entropy_calls_per_step"] = (
        _ratio(s.under_rps["core.entropy"], steps),
        "count/step",
    )
    m[f"{rps}.make_dist_calls_per_step"] = (
        _ratio(s.under_rps["core.make_dist"], steps),
        "count/step",
    )

    calls_busy("lesche.sweep")
    per_op("lesche.sweep.rows", s.value["lesche.sweep"], "count/op")

    suite = "axioms.run_axiom_suite"
    calls_busy(suite)
    per_op(f"{suite}.self_s", s.self_time[suite], "s/op")
    per_op(f"{suite}.checks", s.value[suite], "count/op")
    per_op(f"{suite}.core_calls", s.core_under_suite, "count/op")
    per_op(f"{suite}.failed_reports", s.rec.counters[f"{suite}.failed_reports"], "count/op")

    tdn = "fracderiv.tempered_derivative_numeric"
    quad = "fracderiv.laplace_singular_quad"
    calls_busy(tdn)
    calls_busy(quad)
    per_op(f"{quad}.evaluations", s.value[quad], "count/op")
    m[f"{quad}.evaluations_per_point"] = (
        _ratio(s.value[quad], s.calls[tdn]),
        "count/point",
    )

    for sub in SUBCOMMANDS:
        per_op(f"cli.{sub}.busy_s", s.busy[f"cli.{sub}"], "s/op")
        per_op(f"cli.{sub}.self_s", s.self_time[f"cli.{sub}"], "s/op")
    per_op("cli.output_bytes", s.rec.counters["cli.output_bytes"], "B/op")
    return m


# ROADMAP's baseline table (means, +-20%) and how each row is read from spans:
# label, baseline seconds, span name, tag filter, and what the table row
# covers: `count` calls, or `count` hill-climb steps
BASELINE = [
    ("entropy n=1e6 lam=0", 12.9e-3, "core.entropy", {"n": 10**6, "lam": 0.0}, "calls", 1),
    ("entropy n=1e6 lam=1", 31.8e-3, "core.entropy", {"n": 10**6, "lam": 1.0}, "calls", 1),
    ("make_dist n=1e6", 3.0e-3, "core.make_dist", {"n": 10**6}, "calls", 1),
    ("generator, 1000 scalar calls", 14.3e-3, "core.generator", {}, "calls", 1000),
    ("run_axiom_suite n=6 (traced: n=5)", 0.176, "axioms.run_axiom_suite", {"n": 5}, "calls", 1),
    ("random_pair_search 1e4 steps n=3", 0.90, "lesche.random_pair_search", {"n": 3}, "steps", 1e4),
    ("random_pair_search 1e4 steps n=1e4", 3.20, "lesche.random_pair_search", {"n": 10**4}, "steps", 1e4),
    ("tempent verify-frac", 0.210, "cli.verify-frac", {}, "calls", 1),
    ("tempent check-axioms --n 2,5", 0.306, "cli.check-axioms", {}, "calls", 1),
]


def baseline_check(s: Summary, band: float = 0.20) -> list[dict]:
    """Compare traced means with ROADMAP's baseline table; flag rows outside +-band.

    Each row is scaled from the mean traced call or step to what the table
    row covers, so a climb of any length compares.  Rows the workload does
    not reach are left out.
    """
    rows = []
    for label, base, name, want, per, count in BASELINE:
        calls = busy = steps = 0.0
        for (span, tag), (c, b, v) in s.by_tag.items():
            have = dict(tag or ())
            if span == name and all(have.get(k) == x for k, x in want.items()):
                calls, busy, steps = calls + c, busy + b, steps + v
        if not calls:
            continue
        traced = busy / (steps if per == "steps" else calls) * count
        rows.append(
            {
                "layer": label,
                "baseline_s": base,
                "traced_s": traced,
                "ratio": traced / base,
                "outside_band": abs(traced / base - 1.0) > band,
            }
        )
    return rows
