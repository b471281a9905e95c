"""tempent benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0

NAME is bulk-entropy, climb or reproduce (see bench/README.md).  One process,
one thread, one caller in a closed loop: the next op starts when the last
one returned.  Each op's output is checked outside its timed interval.

--trace 0 prints the end-to-end metrics: setup_s (median over fresh
interpreters), ops_per_s, op_p50_ms, op_tail_ms and peak_rss_mb, plus
failed_frac on its own line.  --trace 1 runs half the time untraced and half
traced and prints the per-layer metrics.  The last line of stdout is always
one JSON object with the keys correct, attempted, failed and metrics; a
copy with more detail goes to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import re
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import common

common.prepare()
common.import_tempent()
RETAINED_HEAP = common.retain_freed_memory()

import spans  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = common.BENCH_DIR / "out"
SETUP_RUNS = 5
PROBE = common.BENCH_DIR / "setup_probe.py"
CHILD_TIMEOUT_S = 150
PARTS = 3
MIN_PART_OPS = 50


@dataclass
class Loop:
    """What one timed loop saw, one entry per timed op in the order they ran."""

    latencies: list = field(default_factory=list)
    passed: list = field(default_factory=list)
    next_index: int = 0
    last: tuple | None = None  # (index, output) of the last checked op

    @property
    def attempted(self) -> int:
        return len(self.passed)

    @property
    def failed(self) -> int:
        return self.passed.count(False)


def timed_loop(wl, seconds: float, first: int, rec=None) -> Loop:
    """Run ops back to back for `seconds`; time each, then check it untimed."""
    loop = Loop(next_index=first)
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        i = loop.next_index
        loop.next_index += 1
        t0 = perf_counter()
        try:
            with rec.op() if rec is not None else nullcontext():
                out = wl.op(i)
        except Exception:
            loop.passed.append(False)
            traceback.print_exc(file=sys.stderr)
            continue
        finally:
            loop.latencies.append(perf_counter() - t0)
        ok = bool(wl.check(i, out))
        loop.passed.append(ok)
        if ok:
            loop.last = (i, out)
    return loop


def untimed_checks(wl, i: int, out) -> list[bool]:
    """Oracle and determinism for one op: [output checks, rerun is identical]."""
    return [bool(wl.check(i, out)), bool(wl.same(out, wl.op(i)))]


def part_tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with >= 10 samples beyond.

    With 10 or fewer samples there is no such percentile; the maximum is
    returned and its percentile reads 100.
    """
    xs = sorted(latencies)
    k = max(len(xs) - 11, 0) if len(xs) > 10 else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


def split(xs: list, parts: int) -> list[list]:
    """`xs` cut into `parts` runs of consecutive items, as even as possible."""
    cuts = [round(j * len(xs) / parts) for j in range(parts + 1)]
    return [xs[a:b] for a, b in zip(cuts, cuts[1:])]


# The host's speed drifts over seconds, so one slow stretch can set a
# whole-run figure.  ops_per_s and op_tail_ms are therefore taken in PARTS
# consecutive parts of the timed run and reported as the median over the
# parts: a slow stretch must then cover two parts to move them.


def ops_per_s(loop: Loop) -> float:
    """Median over the parts of the run of (ops that passed / their summed latency)."""
    parts = min(PARTS, loop.attempted)
    return statistics.median(
        sum(ok) / sum(lat)
        for ok, lat in zip(split(loop.passed, parts), split(loop.latencies, parts))
    )


def tail(latencies: list[float]) -> tuple[float, float, int, int]:
    """(value, percentile, samples, parts) behind op_tail_ms.

    The run is cut into PARTS parts when each holds at least MIN_PART_OPS
    ops, so that each part's tail stays far above its median, and is one
    part otherwise.  The value is the median of the parts' part_tail(); the
    percentile is the median of theirs.
    """
    n = len(latencies)
    parts = PARTS if n >= PARTS * MIN_PART_OPS else 1
    tails = [part_tail(xs) for xs in split(latencies, parts)]
    value = statistics.median(v for v, _ in tails)
    return value, statistics.median(p for _, p in tails), n, parts


def measure_setup(name: str, seed: int) -> tuple[list[float], list[bool]]:
    """setup_s in SETUP_RUNS fresh interpreters, after one unmeasured import."""
    env = common.child_env()
    subprocess.run(
        [sys.executable, "-c", _import_code()],
        env=env,
        check=True,
        timeout=CHILD_TIMEOUT_S,
        cwd=common.ROOT,
    )
    times, checks = [], []
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(PROBE), name, str(seed)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=CHILD_TIMEOUT_S,
            cwd=common.ROOT,
        )
        wall = perf_counter() - t0
        report = json.loads(proc.stdout.splitlines()[-1])
        times.append(wall - report["excluded_s"])
        checks.append(bool(report["correct"]))
    return times, checks


def _import_code() -> str:
    return f"import sys; sys.path.insert(0, {str(common.SRC)!r}); import tempent"


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def parse_importtime(text: str) -> dict[str, float]:
    """Split `python -X importtime` output into the three setup.* metrics (seconds).

    numpy: cumulative time of the top-level numpy import.  scipy.integrate:
    cumulative time of scipy.integrate plus the scipy package it pulls in.
    tempent self: the self time of tempent and its submodules.
    """
    numpy = scipy = own = 0.0
    for m in _IMPORTTIME.finditer(text):
        self_us, cum_us, name = int(m.group(1)), int(m.group(2)), m.group(4)
        if name == "numpy" and not numpy:
            numpy = cum_us
        elif name in ("scipy", "scipy.integrate"):
            scipy += cum_us
        if name == "tempent" or name.startswith("tempent."):
            own += self_us
    return {
        "setup.import_numpy_s": numpy / 1e6,
        "setup.import_scipy_integrate_s": scipy / 1e6,
        "setup.import_tempent_self_s": own / 1e6,
    }


def measure_imports() -> dict[str, float]:
    """Median over SETUP_RUNS fresh interpreters of each setup.* metric."""
    env = common.child_env()
    cmd = [sys.executable, "-X", "importtime", "-c", _import_code()]
    subprocess.run(cmd, env=env, capture_output=True, check=True, timeout=CHILD_TIMEOUT_S)
    runs = [
        parse_importtime(
            subprocess.run(
                cmd,
                env=env,
                capture_output=True,
                text=True,
                check=True,
                timeout=CHILD_TIMEOUT_S,
            ).stderr
        )
        for _ in range(SETUP_RUNS)
    ]
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    plain = workloads.plain_api()
    setup_times, untimed = ([], []) if traced else measure_setup(name, seed)
    imports = measure_imports() if traced else {}

    wl = workloads.WORKLOADS[name](seed, plain)
    # op 0 warms caches and lazy set-up and is never timed
    untimed += untimed_checks(wl, 0, wl.op(0))

    if not traced:
        loops = [timed_loop(wl, seconds, 1)]
    else:
        untraced = timed_loop(wl, seconds / 2.0, 1)
        rec = spans.Recorder()
        wl.api = spans.traced_api(rec)
        with rec.patched():
            traced_loop = timed_loop(wl, seconds / 2.0, untraced.next_index, rec)
        wl.api = plain
        loops = [untraced, traced_loop]

    if loops[-1].last is not None:
        untimed += untimed_checks(wl, *loops[-1].last)
    # every op run counts: timed ones, setup probes, warm-up and reruns
    attempted = sum(lp.attempted for lp in loops) + len(untimed)
    failed = sum(lp.failed for lp in loops) + untimed.count(False)

    detail: dict = {"failed_frac": (failed / attempted, "frac")}
    if not traced:
        lat = loops[0].latencies
        value, pct, count, parts = tail(lat)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (ops_per_s(loops[0]), "1/s"),
            "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "op_tail_ms": (value * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        detail["op_tail_percentile"] = (pct, "%")
        detail["op_samples"] = (count, "count")
        detail["op_tail_parts"] = (parts, "count")
        detail["setup_runs_s"] = (setup_times, "s")
    else:
        summary = spans.Summary(rec)
        metrics = {key: (v, "s") for key, v in imports.items()}
        metrics.update(spans.layer_metrics(summary))
        base, with_trace = ops_per_s(loops[0]), ops_per_s(loops[1])
        metrics["trace.overhead_frac"] = (1.0 - with_trace / base, "frac")
        detail["traced_ops"] = (summary.ops, "count")
        detail["baseline_check"] = (spans.baseline_check(summary), "")
        OUT_DIR.mkdir(exist_ok=True)
        rec.save(OUT_DIR / f"spans-{name}.npz")

    return {
        "env": {
            **common.describe(name, seed, wl.working_set_bytes),
            "heap_retained": RETAINED_HEAP,
        },
        "detail": detail,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def print_report(name: str, report: dict) -> None:
    print(f"env {json.dumps(report['env'])}")
    for key, (value, unit) in report["detail"].items():
        if key == "baseline_check":
            for row in value:
                flag = "OUTSIDE +-20%" if row["outside_band"] else "within +-20%"
                print(
                    f"{name} baseline {row['layer']}: traced {row['traced_s']:.4g} s"
                    f" vs ROADMAP {row['baseline_s']:.4g} s"
                    f" (x{row['ratio']:.2f}, {flag})"
                )
        else:
            print(f"{name} {key} {value} {unit}")
    for key, m in report["result"]["metrics"].items():
        print(f"{name} {key} {m['value']!r} {m['unit']}")


def run_all(args) -> int:
    """Each workload in its own process (so peak RSS is its own), then one summary."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True,
            text=True,
            timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            common.die(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = m
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)

    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print_report(args.workload, report)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
