"""Command-line front end.

Subcommands:
  entropy       evaluate S(p) for one distribution
  check-axioms  run the axiom suite, emit one CSV row per axiom per n
  sweep         stability ratios over an n-grid, CSV
  search        adversarial high-ratio pair search, CSV
  verify-frac   numeric vs. closed-form fractional derivative grid, CSV

All numeric output is formatted with '%.8g'; CSV is UTF-8 with LF line
endings.  Exit codes: 0 success, 1 a check failed (violation above
threshold or tolerance miss), 2 invalid arguments or domain errors.
Every subcommand is deterministic for a fixed argv (seeded RNG only).
"""

from __future__ import annotations

import argparse
import enum
import sys
from dataclasses import dataclass, field
from typing import Optional

from .core import (
    DimensionMismatch,
    DomainError,
    EntropyParams,
    NegativeWeight,
    SumNotOne,
    TooFewOutcomes,
    entropy,
    make_dist,
)
from . import axioms as ax
from . import fracderiv as fd
from .lesche import Family, random_pair_search, sweep

_USER_ERRORS = (
    DomainError,
    NegativeWeight,
    SumNotOne,
    TooFewOutcomes,
    DimensionMismatch,
)


class Command(enum.Enum):
    ENTROPY = "entropy"
    CHECK_AXIOMS = "check-axioms"
    SWEEP = "sweep"
    SEARCH = "search"
    VERIFY_FRAC = "verify-frac"


@dataclass(frozen=True)
class RunConfig:
    """Parsed, validated invocation state for one subcommand run."""

    command: Command
    params: Optional[EntropyParams]
    n_grid: list = field(default_factory=list)
    delta: float = 0.0
    seed: int = 0
    samples: int = 10_000
    output_path: Optional[str] = None
    control_q: Optional[float] = None
    dist: Optional[tuple] = None
    families: tuple = ()
    iterations: int = 10_000
    tol: float = 1e-6


def _fmt(x) -> str:
    return format(float(x), ".8g")


def _emit(lines: list[str], path: Optional[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number list {text!r}") from exc


def _family_list(text: str) -> list[str]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if part not in ("A", "B"):
            raise argparse.ArgumentTypeError(f"unknown family {part!r} (use A, B)")
        out.append(part)
    return out


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tempent",
        description="Tempered-entropy evaluation, axiom checks, and stability experiments.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_params(p: argparse.ArgumentParser) -> None:
        p.add_argument("--sigma", type=float, required=True, help="order in (0, 1]")
        p.add_argument(
            "--lambda",
            dest="lam",
            type=float,
            default=0.0,
            help="tempering shift >= 0 (default 0)",
        )

    p_ent = sub.add_parser("entropy", help="evaluate S(p) for one distribution")
    add_params(p_ent)
    p_ent.add_argument(
        "--dist",
        type=_float_list,
        required=True,
        help="comma-separated weights, e.g. 0.5,0.5",
    )

    p_ax = sub.add_parser("check-axioms", help="run the axiom suite (CSV)")
    add_params(p_ax)
    p_ax.add_argument("--n", type=_int_list, default=[5], help="comma list of sizes")
    p_ax.add_argument("--samples", type=int, default=10_000)
    p_ax.add_argument("--seed", type=int, default=0)
    p_ax.add_argument("--out", default=None, help="CSV path (default stdout)")

    p_sw = sub.add_parser("sweep", help="stability ratios over an n-grid (CSV)")
    add_params(p_sw)
    p_sw.add_argument("--family", type=_family_list, required=True, help="A, B, or A,B")
    p_sw.add_argument("--delta", type=float, required=True, help="L1 budget")
    p_sw.add_argument("--n", type=_int_list, required=True, help="ascending sizes")
    p_sw.add_argument(
        "--control-renyi",
        dest="control_q",
        type=float,
        default=None,
        metavar="Q",
        help="append Renyi negative-control rows of order Q",
    )
    p_sw.add_argument("--out", default=None)

    p_se = sub.add_parser("search", help="adversarial pair search (CSV)")
    add_params(p_se)
    p_se.add_argument("--delta", type=float, required=True)
    p_se.add_argument("--n", type=_int_list, required=True, help="one size")
    p_se.add_argument("--samples", type=int, default=10_000, help="hill-climb steps")
    p_se.add_argument("--seed", type=int, default=0)
    p_se.add_argument("--out", default=None)

    p_vf = sub.add_parser(
        "verify-frac", help="numeric vs closed-form derivative grid (CSV)"
    )
    p_vf.add_argument(
        "--tol", type=float, default=1e-6, help="relative tolerance (default 1e-6)"
    )
    p_vf.add_argument("--out", default=None)
    return ap


def _cmd_entropy(cfg: RunConfig) -> int:
    value = entropy(make_dist(cfg.dist), cfg.params)
    _emit([_fmt(value)], cfg.output_path)
    return 0


def _cmd_check_axioms(cfg: RunConfig) -> int:
    lines = ["axiom,config,samples,worst_violation,pass"]
    failed = False
    for n in cfg.n_grid:
        config = f"n={n};sigma={_fmt(cfg.params.sigma)};lambda={_fmt(cfg.params.lam)}"
        for rep in ax.run_axiom_suite(
            n, cfg.params, samples=cfg.samples, seed=cfg.seed
        ):
            ok = rep.passed
            failed = failed or not ok
            lines.append(
                ",".join(
                    [
                        rep.axiom.value,
                        config,
                        str(rep.samples_checked),
                        _fmt(rep.worst_violation),
                        "true" if ok else "false",
                    ]
                )
            )
    _emit(lines, cfg.output_path)
    return 1 if failed else 0


_SWEEP_HEADER = "family,n,delta,sigma,lambda,s_p,s_p_prime,ratio"


def _record_row(rec) -> str:
    return ",".join(
        [
            rec.family,
            str(rec.n),
            _fmt(rec.delta),
            _fmt(rec.sigma),
            _fmt(rec.lam),
            _fmt(rec.s_p),
            _fmt(rec.s_p_prime),
            _fmt(rec.ratio),
        ]
    )


def _cmd_sweep(cfg: RunConfig) -> int:
    records = sweep(
        [Family(f) for f in cfg.families],
        cfg.n_grid,
        cfg.delta,
        cfg.params,
        control_q=cfg.control_q,
    )
    _emit([_SWEEP_HEADER] + [_record_row(r) for r in records], cfg.output_path)
    return 0


def _cmd_search(cfg: RunConfig) -> int:
    if len(cfg.n_grid) != 1:
        raise DomainError(f"search takes exactly one n, got {cfg.n_grid}")
    _, record = random_pair_search(
        cfg.n_grid[0],
        cfg.delta,
        cfg.params,
        iterations=cfg.iterations,
        seed=cfg.seed,
    )
    _emit([_SWEEP_HEADER, _record_row(record)], cfg.output_path)
    return 0


# fixed verification grid: p and sigma on interior decimals, four temperings
_VF_PS = [i / 10.0 for i in range(1, 10)]
_VF_SIGMAS = [i / 10.0 for i in range(1, 10)]
_VF_LAMS = [0.0, 0.5, 1.0, 2.0]
_VF_T = -1.0


def _cmd_verify_frac(cfg: RunConfig) -> int:
    lines = ["p,sigma,lambda,t,numeric,closed_form,rel_err"]
    worst_miss = False
    # allowance scales with --tol; the default 1e-6 gives max(1e-6*|ref|, 1e-9)
    abs_floor = cfg.tol * 1e-3
    for p in _VF_PS:
        for sigma in _VF_SIGMAS:
            for lam in _VF_LAMS:
                fp = fd.FracParams(sigma=sigma, lam=lam, p=p, t=_VF_T)
                num = fd.tempered_derivative_numeric(fp)
                ref = fd.closed_form_derivative(fp)
                rel = abs(num - ref) / abs(ref)
                if abs(num - ref) > max(cfg.tol * abs(ref), abs_floor):
                    worst_miss = True
                lines.append(
                    ",".join(
                        [
                            _fmt(p),
                            _fmt(sigma),
                            _fmt(lam),
                            _fmt(_VF_T),
                            _fmt(num),
                            _fmt(ref),
                            _fmt(rel),
                        ]
                    )
                )
    _emit(lines, cfg.output_path)
    return 1 if worst_miss else 0


_DISPATCH = {
    Command.ENTROPY: _cmd_entropy,
    Command.CHECK_AXIOMS: _cmd_check_axioms,
    Command.SWEEP: _cmd_sweep,
    Command.SEARCH: _cmd_search,
    Command.VERIFY_FRAC: _cmd_verify_frac,
}


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    command = Command(args.command)
    params = None
    if command is not Command.VERIFY_FRAC:
        params = EntropyParams(sigma=args.sigma, lam=args.lam)
    n_grid = list(getattr(args, "n", []))
    if hasattr(args, "n") and not n_grid:
        raise DomainError("--n needs at least one size")
    samples = getattr(args, "samples", 10_000)
    if samples <= 0:
        raise DomainError(f"--samples must be positive, got {samples}")
    tol = getattr(args, "tol", 1e-6)
    if not tol > 0.0:
        raise DomainError(f"--tol must be positive, got {tol!r}")
    return RunConfig(
        command=command,
        params=params,
        n_grid=n_grid,
        delta=getattr(args, "delta", 0.0),
        seed=getattr(args, "seed", 0),
        samples=samples,
        output_path=getattr(args, "out", None),
        control_q=getattr(args, "control_q", None),
        dist=tuple(args.dist) if getattr(args, "dist", None) is not None else None,
        families=tuple(getattr(args, "family", ())),
        iterations=samples,
        tol=tol,
    )


def run(argv) -> int:
    """Parse argv (without the program name) and execute one subcommand."""
    try:
        args = _parser().parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _config_from_args(args)
        return _DISPATCH[cfg.command](cfg)
    except fd.ToleranceNotReached as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
