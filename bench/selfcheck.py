"""Checks that the benchmark's oracles reject wrong output.

    python3 bench/selfcheck.py

* reproduce: for each README command, a copy of the reference with one byte
  changed makes a timed loop report failed_frac > 0, while the recorded
  reference gives failed_frac == 0.
* bulk-entropy: a value off by one ulp at lam = 0 (bit identity with
  ubriaco_entropy) or by 1e-9 relative at lam = 1 fails the oracle.
* climb: an s_p off by one ulp, or a ratio below the structured families'
  ratios, fails the oracle.

Prints one line per check and exits 1 if any check misbehaves.
"""

from __future__ import annotations

import dataclasses
import sys

import numpy as np

import run  # sets up sys.path and imports tempent from src/
import workloads


def failed_frac(wl) -> float:
    loop = run.timed_loop(wl, seconds=1e-3, first=0)  # exactly one op
    return loop.failed / loop.attempted


def main() -> int:
    results = []

    def expect(label: str, good: bool) -> None:
        results.append(good)
        print(f"{'ok  ' if good else 'FAIL'} {label}")

    plain = workloads.plain_api()
    reference = workloads.load_reference()
    expect(
        "reproduce: recorded reference gives failed_frac == 0",
        failed_frac(workloads.Reproduce(0, plain, reference)) == 0.0,
    )
    for k, cmd in enumerate(reference):
        data = bytearray(cmd["stdout"])
        data[len(data) // 2] ^= 0x01
        changed = [dict(c) for c in reference]
        changed[k]["stdout"] = bytes(data)
        expect(
            f"reproduce: one byte changed in {cmd['name']} gives failed_frac > 0",
            failed_frac(workloads.Reproduce(0, plain, changed)) > 0.0,
        )

    bulk = workloads.BulkEntropy(0, plain)
    values = bulk.op(0)
    expect("bulk-entropy: unchanged values pass", bulk.check(0, values))
    lam0 = bulk.PARAMS.index((0.25, 0.0))
    lam1 = bulk.PARAMS.index((0.25, 1.0))
    off = list(values)
    off[lam0] = float(np.nextafter(off[lam0], np.inf))
    expect("bulk-entropy: one ulp off at lam=0 fails", not bulk.check(0, off))
    off = list(values)
    off[lam1] *= 1.0 + 1e-9
    expect("bulk-entropy: 1e-9 relative off at lam=1 fails", not bulk.check(0, off))

    climb = workloads.Climb(0, plain)
    pair, rec = climb.op(0)
    expect("climb: unchanged record passes", climb.check(0, (pair, rec)))
    bad = dataclasses.replace(rec, s_p=float(np.nextafter(rec.s_p, np.inf)))
    expect("climb: s_p one ulp off fails", not climb.check(0, (pair, bad)))
    bad = dataclasses.replace(rec, ratio=0.0)
    expect("climb: ratio below the family ratios fails", not climb.check(0, (pair, bad)))
    expect("climb: same seed twice gives the same record", climb.same((pair, rec), climb.op(0)))

    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
