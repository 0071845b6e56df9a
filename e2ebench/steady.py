"""Run one workload k times back to back and report the spread per metric.

Usage (from the repository root)::

    python3 e2ebench/steady.py --workload dense-general --runs 10 --seed 1

Run ``i`` uses seed ``--seed + i``, as separate benchmark runs would, with
``run_seconds`` from ``BENCHMARK.json`` and ``--trace 0``.  For every
end-to-end metric the tool prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread ``(q3 - q1) / median``
and that spread against the metric's bound in ``BENCHMARK.json`` -- so the
bounds can be re-derived from its output.  It exits 1 unless every spread
is below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int) -> tuple[dict, float]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"run with seed {seed} exited {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1]), wall


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    results, walls = [], []
    for i in range(args.runs):
        res, wall = one_run(args.workload, args.seed + i)
        results.append(res)
        walls.append(wall)
        print(f"seed {args.seed + i}: correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']} "
              f"wall={wall:.1f}s", flush=True)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"\n{args.workload}: {args.runs} runs, seeds {args.seed}.."
          f"{args.seed + args.runs - 1}, mean run wall {statistics.mean(walls):.1f} s, "
          f"all correct: {all(r['correct'] for r in results)}, "
          f"failed shares: {sorted(shares)}")
    print(f"{'metric':28} {'unit':6} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}  verdict")
    ok = True
    for metric in sorted(SPEC["end_to_end"], key=lambda m: m["name"]):
        name, bound = metric["name"], metric["bound"]
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else float("nan")
        if spread < bound / 3:
            verdict = "ok (< bound/3)"
        elif spread <= bound:
            verdict = "within bound, > bound/3"
            ok = False
        else:
            verdict = "OVER BOUND"
            ok = False
        print(f"{name:28} {metric['unit']:6} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.4f} {bound:>6}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
