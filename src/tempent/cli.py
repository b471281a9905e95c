"""Command-line front end.

Subcommands:
  entropy       evaluate S(p) for one distribution
  check-axioms  run the axiom suite, emit one CSV row per axiom per n
  sweep         stability ratios over an n-grid, CSV
  search        adversarial high-ratio pair search, CSV
  verify-frac   numeric vs. closed-form fractional derivative grid, CSV

Every data line is one `_row`: a string cell as given, an integer in
full, any other number '%.8g'.  CSV is UTF-8 with LF line endings.  Exit
codes: 0 success, 1 a check failed (violation above threshold or
tolerance miss), 2 invalid arguments or domain errors.
Every subcommand is deterministic for a fixed argv (seeded RNG only).
"""

from __future__ import annotations

import argparse
import functools
import math
import numbers
import sys
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


def _cell(x) -> str:
    """A string as given, an integer in full, anything else '%.8g'.

    numbers.Integral rather than int, so a numpy integer prints in full too.
    """
    if isinstance(x, str):
        return x
    if isinstance(x, numbers.Integral):
        return str(x)
    return format(float(x), ".8g")


def _row(*cells) -> str:
    """One output line: the cells, each written by _cell, joined by commas."""
    return ",".join(map(_cell, cells))


def _emit(lines: list[str], path: Optional[str] = None) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            fh = open(path, "w", encoding="utf-8", newline="")
        except OSError as exc:
            # exit 2, like any bad argument: exit 1 would mean a check failed
            raise DomainError(f"cannot write --out {path}: {exc.strerror}") from None
        with fh:
            fh.write(text)


def _num_list(cast):
    """argparse type: a nonempty comma-separated list of `cast` values."""

    def parse(text: str) -> list:
        try:
            items = [cast(part) for part in map(str.strip, text.split(",")) if part]
        except ValueError as exc:
            msg = f"bad {cast.__name__} list {text!r}"
            raise argparse.ArgumentTypeError(msg) from exc
        if not items:
            raise argparse.ArgumentTypeError(f"need at least one value, got {text!r}")
        return items

    return parse


def _greater_than(cast, bound):
    """argparse type: one finite `cast` value > bound; NaN and inf are rejected."""

    def parse(text: str):
        value = cast(text)
        # `< math.inf` rather than math.isfinite, which overflows on a huge int
        if not bound < value < math.inf:
            raise argparse.ArgumentTypeError(
                f"must be finite and > {bound}, got {text!r}"
            )
        return value

    # argparse names the type in its "invalid <type> value" message
    parse.__name__ = cast.__name__
    return parse


# built once per process: parse_args leaves the parser as it found it
@functools.cache
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
    p_ent.set_defaults(func=_cmd_entropy)
    add_params(p_ent)
    p_ent.add_argument(
        "--dist",
        type=_num_list(float),
        required=True,
        help="comma-separated weights, e.g. 0.5,0.5",
    )

    p_ax = sub.add_parser("check-axioms", help="run the axiom suite (CSV)")
    p_ax.set_defaults(func=_cmd_check_axioms)
    add_params(p_ax)
    p_ax.add_argument(
        "--n", type=_num_list(int), default=[5], help="comma list of sizes"
    )
    p_ax.add_argument("--samples", type=_greater_than(int, 0), default=10_000)
    p_ax.add_argument("--seed", type=_greater_than(int, -1), default=0)
    p_ax.add_argument("--out", default=None, help="CSV path (default stdout)")

    p_sw = sub.add_parser("sweep", help="stability ratios over an n-grid (CSV)")
    p_sw.set_defaults(func=_cmd_sweep)
    add_params(p_sw)
    p_sw.add_argument(
        "--family", type=_num_list(Family), required=True, help="A, B, or A,B"
    )
    p_sw.add_argument("--delta", type=float, required=True, help="L1 budget")
    p_sw.add_argument("--n", type=_num_list(int), required=True, help="ascending sizes")
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
    p_se.set_defaults(func=_cmd_search)
    add_params(p_se)
    p_se.add_argument("--delta", type=float, required=True)
    p_se.add_argument("--n", type=_num_list(int), required=True, help="one size")
    p_se.add_argument(
        "--samples",
        type=_greater_than(int, 0),
        default=10_000,
        help="accepted and validated; has no effect on the result",
    )
    p_se.add_argument("--seed", type=_greater_than(int, -1), default=0)
    p_se.add_argument("--out", default=None)

    p_vf = sub.add_parser(
        "verify-frac", help="numeric vs closed-form derivative grid (CSV)"
    )
    p_vf.set_defaults(func=_cmd_verify_frac)
    p_vf.add_argument(
        "--tol",
        type=_greater_than(float, 0),
        default=1e-6,
        help="relative tolerance (default 1e-6)",
    )
    p_vf.add_argument("--out", default=None)
    return ap


def _params(args: argparse.Namespace) -> EntropyParams:
    return EntropyParams(sigma=args.sigma, lam=args.lam)


def _cmd_entropy(args: argparse.Namespace) -> int:
    value = entropy(make_dist(args.dist), _params(args))
    _emit([_row(value)])
    return 0


def _cmd_check_axioms(args: argparse.Namespace) -> int:
    params = _params(args)
    lines = ["axiom,config,samples,worst_violation,pass"]
    failed = False
    for n in args.n:
        config = f"n={n};sigma={_cell(params.sigma)};lambda={_cell(params.lam)}"
        for rep in ax.run_axiom_suite(n, params, samples=args.samples, seed=args.seed):
            failed = failed or not rep.passed
            cells = (rep.axiom.value, config, rep.samples_checked, rep.worst_violation)
            lines.append(_row(*cells, "true" if rep.passed else "false"))
    _emit(lines, args.out)
    return 1 if failed else 0


_SWEEP_HEADER = "family,n,delta,sigma,lambda,s_p,s_p_prime,ratio"


def _record_row(r) -> str:
    return _row(r.family, r.n, r.delta, r.sigma, r.lam, r.s_p, r.s_p_prime, r.ratio)


def _cmd_sweep(args: argparse.Namespace) -> int:
    records = sweep(
        args.family, args.n, args.delta, _params(args), control_q=args.control_q
    )
    _emit([_SWEEP_HEADER] + [_record_row(r) for r in records], args.out)
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    if len(args.n) != 1:
        raise DomainError(f"search takes exactly one n, got {args.n}")
    _, record = random_pair_search(
        args.n[0],
        args.delta,
        _params(args),
        iterations=args.samples,
        seed=args.seed,
    )
    _emit([_SWEEP_HEADER, _record_row(record)], args.out)
    return 0


# fixed verification grid: p and sigma on interior decimals, four temperings
_VF_PS = [i / 10.0 for i in range(1, 10)]
_VF_SIGMAS = [i / 10.0 for i in range(1, 10)]
_VF_LAMS = [0.0, 0.5, 1.0, 2.0]
_VF_T = -1.0


def _cmd_verify_frac(args: argparse.Namespace) -> int:
    lines = ["p,sigma,lambda,t,numeric,closed_form,rel_err"]
    worst_miss = False
    # allowance scales with --tol; the default 1e-6 gives max(1e-6*|ref|, 1e-9)
    abs_floor = args.tol * 1e-3
    for p in _VF_PS:
        for sigma in _VF_SIGMAS:
            for lam in _VF_LAMS:
                fp = fd.FracParams(sigma=sigma, lam=lam, p=p, t=_VF_T)
                num = fd.tempered_derivative_numeric(fp)
                ref = fd.closed_form_derivative(fp)
                rel = abs(num - ref) / abs(ref)
                if abs(num - ref) > max(args.tol * abs(ref), abs_floor):
                    worst_miss = True
                lines.append(_row(p, sigma, lam, _VF_T, num, ref, rel))
    _emit(lines, args.out)
    return 1 if worst_miss else 0


def run(argv) -> int:
    """Parse argv (without the program name) and execute one subcommand."""
    try:
        args = _parser().parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
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
