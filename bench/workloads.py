"""The three benchmark workloads.

Each workload builds its inputs from the workload seed, exposes one timed
operation ``op(i)`` and an oracle ``check(i, out)`` that the runner calls
outside the timed region.  The program is reached only through the calls
collected in an ``Api`` object, so the traced run can swap in wrapped
versions without the workload knowing.

  bulk-entropy  make_dist(w) on a 1e6-outcome flat-Dirichlet vector, then
                entropy at each of six (sigma, lam) pairs
  climb         one random_pair_search(n=1e4, delta=0.1) hill climb
  reproduce     one pass over the five README command lines through
                tempent.cli.run, compared byte for byte with reference/
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import tempent
from tempent import cli
from tempent.lesche import family_a_pair, family_b_pair, stability_ratio

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass
class Api:
    """The program entry points a workload calls, plain or traced."""

    make_dist: Callable
    entropy: Callable
    random_pair_search: Callable
    span: Callable  # span(name) -> context manager around a benchmark-level call
    add: Callable  # add(counter, amount) for counts the benchmark itself sees


def plain_api() -> Api:
    return Api(
        make_dist=tempent.make_dist,
        entropy=tempent.entropy,
        random_pair_search=tempent.random_pair_search,
        span=lambda name: contextlib.nullcontext(),
        add=lambda counter, amount: None,
    )


def _op_seed(seed: int, i: int) -> int:
    """Per-op seed derived from the workload seed and the op index."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def direct_entropy(w: np.ndarray, sigma: float, lam: float) -> float:
    """The definition sum_i p_i [(lam - ln p_i)**sigma - lam**sigma], zeros skipped."""
    w = w[w > 0.0]
    return float(np.sum(w * ((lam - np.log(w)) ** sigma - lam**sigma)))


class BulkEntropy:
    """One large vector, the entropy kernel at six parameter pairs per op.

    All six pairs run inside one op: a single pair per op would make the
    latencies bimodal (lam = 1 costs 2-3x lam = 0) and put the median in
    the gap between the two clusters.
    """

    name = "bulk-entropy"
    N = 1_000_000
    PARAMS = [(s, lam) for s in (0.25, 0.5, 1.0) for lam in (0.0, 1.0)]
    # relative agreement with direct_entropy; the library splits the power
    # gap into two cancellation-safe branches, so the last bits may differ
    RTOL = 1e-12

    def __init__(self, seed: int, api: Api):
        self.api = api
        rng = np.random.default_rng(seed)
        w = rng.standard_exponential(self.N)
        w /= w.sum()
        self.w = w
        self.params = [tempent.EntropyParams(s, lam) for s, lam in self.PARAMS]
        self.working_set_bytes = w.nbytes
        self._expected = None  # computed on the first check, never in a timed op

    def op(self, i: int) -> list[float]:
        d = self.api.make_dist(self.w)
        return [self.api.entropy(d, p) for p in self.params]

    def _oracle(self) -> list[tuple[float, float | None]]:
        d = tempent.make_dist(self.w)
        out = []
        for p in self.params:
            exact = tempent.ubriaco_entropy(d, p.sigma) if p.lam == 0.0 else None
            out.append((direct_entropy(self.w, p.sigma, p.lam), exact))
        return out

    def check(self, i: int, out: list[float]) -> bool:
        if self._expected is None:
            self._expected = self._oracle()
        if len(out) != len(self._expected):
            return False
        for value, (ref, exact) in zip(out, self._expected):
            if not abs(value - ref) <= self.RTOL * abs(ref):
                return False
            if exact is not None and value != exact:  # lam = 0: bit-identical
                return False
        return True

    @staticmethod
    def same(a, b) -> bool:
        return a == b


class Climb:
    """One adversarial hill climb at n = 1e4 per op, cycling three parameter pairs."""

    name = "climb"
    N = 10_000
    DELTA = 0.1
    STEPS = 500
    PARAMS = [(1.0, 0.0), (0.5, 1.0), (0.25, 0.0)]

    def __init__(self, seed: int, api: Api):
        self.api = api
        self.seed = seed
        self.params = [tempent.EntropyParams(s, lam) for s, lam in self.PARAMS]
        # both sides of the pair held as float64 vectors
        self.working_set_bytes = 2 * self.N * 8
        self._floors: dict[int, float] = {}

    def _args(self, i: int):
        return self.params[i % len(self.params)], _op_seed(self.seed, i)

    def op(self, i: int):
        params, seed = self._args(i)
        return self.api.random_pair_search(
            self.N, self.DELTA, params, iterations=self.STEPS, seed=seed
        )

    def _floor(self, k: int) -> float:
        """Larger of the family-A and family-B ratios at the same (n, delta, params)."""
        if k not in self._floors:
            p = self.params[k]
            self._floors[k] = max(
                stability_ratio(family_a_pair(self.N, self.DELTA), p).ratio,
                stability_ratio(family_b_pair(self.N, self.DELTA), p).ratio,
            )
        return self._floors[k]

    def check(self, i: int, out) -> bool:
        pair, rec = out
        params, _ = self._args(i)
        return (
            rec.n == self.N
            and rec.delta == self.DELTA
            and rec.s_p == tempent.entropy(pair.p, params)
            and rec.s_p_prime == tempent.entropy(pair.p_prime, params)
            and rec.ratio >= self._floor(i % len(self.params))
        )

    @staticmethod
    def same(a, b) -> bool:
        (pa, ra), (pb, rb) = a, b
        return (
            ra == rb
            and np.array_equal(pa.p.weights, pb.p.weights)
            and np.array_equal(pa.p_prime.weights, pb.p_prime.weights)
        )


def load_reference() -> list[dict]:
    """The README command lines with their recorded exit codes and stdout bytes."""
    commands = json.loads((REFERENCE_DIR / "commands.json").read_text(encoding="utf-8"))
    for c in commands:
        c["stdout"] = (REFERENCE_DIR / f"{c['name']}.stdout").read_bytes()
    return commands


class Reproduce:
    """One pass over the five README command lines, in a seeded order."""

    name = "reproduce"
    # largest array a pass allocates: check-axioms' 10000 x 5 sample matrix
    working_set_bytes = 10_000 * 5 * 8

    def __init__(self, seed: int, api: Api, reference: list[dict] | None = None):
        self.api = api
        self.seed = seed
        self.commands = load_reference() if reference is None else reference

    def op(self, i: int) -> list[tuple[str, int, bytes, str]]:
        order = np.random.default_rng(_op_seed(self.seed, i)).permutation(
            len(self.commands)
        )
        out = []
        for k in order:
            c = self.commands[k]
            stdout, stderr = io.StringIO(), io.StringIO()
            with self.api.span("cli." + c["name"]), contextlib.redirect_stdout(
                stdout
            ), contextlib.redirect_stderr(stderr):
                code = cli.run(c["argv"])
            data = stdout.getvalue().encode("utf-8")
            self.api.add("cli.output_bytes", len(data))
            out.append((c["name"], code, data, stderr.getvalue()))
        return out

    def check(self, i: int, out) -> bool:
        expected = {c["name"]: c for c in self.commands}
        if sorted(name for name, *_ in out) != sorted(expected):
            return False
        return all(
            code == expected[name]["exit_code"]
            and data == expected[name]["stdout"]
            and err == ""
            for name, code, data, err in out
        )

    @staticmethod
    def same(a, b) -> bool:
        return sorted(a) == sorted(b)


WORKLOADS = {w.name: w for w in (BulkEntropy, Climb, Reproduce)}
