"""Whole-solve benchmark: one workload per run, one JSON line of results.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload sparse-lowdeg --seed 1 --seconds 15 --trace 0

Workloads:

* ``sparse-lowdeg`` -- G(n, 8/n) inputs solved in process by
  ``repro.api.solve``; every simulated entry takes the low-degree path.
* ``dense-general`` -- inputs with Delta^2 + 1 > S, solved in process;
  the simulated entries take the general (stage sparsification) path.
* ``serve-mix`` -- ``repro serve`` over HTTP, two closed-loop clients
  sending small repeated specs.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs an
untraced warm-up pass, a traced pass and a second untraced pass, and
prints the per-layer metrics.
The last line of standard output is the result object; progress notes go
to standard error.  ``--scale`` shrinks every input for smoke tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("sparse-lowdeg", "dense-general", "serve-mix")

#: Set-ups per batch run (fresh-interpreter imports + input generation);
#: ``setup_s`` reports their median.
SETUP_REPS = 5
#: What a batch run imports before its first solve.
IMPORTS = "import numpy, scipy.sparse, repro.api, repro.graphs"
#: serve-mix: service start-ups per run; ``setup_s`` reports their median.
SERVICE_STARTS = 5
#: serve-mix: blocks of requests at scale 1 (100 requests each).
SERVE_BLOCKS = 10
#: serve-mix: distinct specs per job name re-solved in process at scale 1.
REFERENCE_PER_ENTRY = 6


def note(msg: str) -> None:
    print(f"[e2ebench] {msg}", file=sys.stderr, flush=True)


def p50(xs):
    return statistics.median(xs)


def p95(xs):
    """Nearest-rank 95th percentile (under 20 samples: the largest)."""
    s = sorted(xs)
    return s[max(0, -(-95 * len(s) // 100) - 1)]


def digest(arr) -> str:
    import numpy as np

    a = np.ascontiguousarray(np.asarray(arr, dtype=np.int64))
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()


def graph_digest(g) -> str:
    return digest(g.edges_u) + digest(g.edges_v) + str(g.n)


class Run:
    """Accumulates operations, check failures and metrics of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.metrics: dict[str, dict] = {}

    def fail(self, msg: str) -> None:
        if len(self.failures) < 20:
            note(f"CHECK FAILED: {msg}")
        self.failures.append(msg)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def result(self) -> dict:
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


# --------------------------------------------------------------------------- #
# Batch workloads: repro.api.solve in process
# --------------------------------------------------------------------------- #


def generate(specs):
    """Build every input graph; returns ``({key: Graph}, seconds)``."""
    from repro.graphs import generators

    t0 = time.perf_counter()
    graphs = {s.key: getattr(generators, s.generator)(**s.kwargs()) for s in specs}
    return graphs, time.perf_counter() - t0


def import_seconds() -> float:
    """Wall time of a fresh interpreter that runs :data:`IMPORTS`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORTS], cwd=ROOT, env=env, check=True)
    return time.perf_counter() - t0


def setup_inputs(run: Run, specs):
    """``SETUP_REPS`` set-ups; all generations must give identical graphs.

    Returns ``(graphs, median set-up seconds, median generation seconds)``.
    A set-up is a fresh interpreter's imports plus one generation of every
    input, since this process can import only once.
    """
    setups, gens, graphs, first = [], [], None, None
    for _ in range(SETUP_REPS):
        imp = import_seconds()
        graphs, dt = generate(specs)
        setups.append(imp + dt)
        gens.append(dt)
        digests = {k: graph_digest(g) for k, g in graphs.items()}
        if first is None:
            first = digests
        elif digests != first:
            run.fail("a generator gave different graphs for the same seed")
    return graphs, p50(setups), p50(gens)


def solve_pass(run: Run, graphs, solves, check_paths: bool, record: list):
    """One pass over the workload's solves.

    Returns ``(seconds, rounds, words)`` summed over the solves.  Each
    output is checked by the independent checker (outside the timed call)
    and its digest, rounds and words are appended to ``record``.
    """
    import oracle
    from repro.api import SolveRequest, solve

    seconds, rounds, words = 0.0, 0, 0
    for s in solves:
        g = graphs[s.graph]
        run.attempted += 1
        t0 = time.perf_counter()
        try:
            res = solve(SolveRequest(problem=s.problem, model=s.model, graph=g))
        except Exception as exc:  # noqa: BLE001 - count it, keep measuring
            run.failed += 1
            run.fail(f"{s.label} raised {type(exc).__name__}: {exc}")
            record.append(None)
            continue
        dt = time.perf_counter() - t0
        seconds += dt
        note(f"  {s.label}: {dt:.3f} s, {res.rounds} rounds, path {res.path}")
        err = oracle.check(s.problem, g.n, g.edges_u, g.edges_v, res.solution)
        if err:
            run.fail(f"{s.label}: {err}")
        if check_paths and s.path is not None and res.path != s.path:
            run.fail(f"{s.label} took the {res.path!r} path, expected {s.path!r}")
        rounds += int(res.rounds)
        words += int(res.words_moved)
        record.append((digest(res.solution), int(res.rounds), int(res.words_moved)))
    return seconds, rounds, words


def run_batch(run: Run, args) -> None:
    import inputs

    specs, solves = inputs.batch_plan(args.workload, args.seed, args.scale)
    graphs, setup_s, gen_s = setup_inputs(run, specs)
    check_paths = args.scale == 1.0
    note(f"set-up {setup_s:.2f} s; {len(solves)} solves per pass")

    records: list[list] = []
    pass_times: list[float] = []
    total_rounds = total_words = 0
    traced = None
    tracer = None
    solving = 0.0
    while True:
        rec: list = []
        # Traced runs: untraced warm-up, traced, untraced -- the traced
        # pass is compared with the warm untraced pass after it.
        trace_this = args.trace and len(pass_times) == 1
        if trace_this:
            from layers import LayerTracer

            tracer = LayerTracer()
            with tracer.traced():
                secs, rounds, words = solve_pass(run, graphs, solves, check_paths, rec)
            traced = secs - tracer.check_time()
            note(f"traced pass {secs:.2f} s")
        else:
            secs, rounds, words = solve_pass(run, graphs, solves, check_paths, rec)
            note(f"pass {len(pass_times) + 1}: {secs:.2f} s")
        if not records:
            total_rounds, total_words = rounds, words
        else:
            for s, a, b in zip(solves, records[0], rec):
                if a is not None and b is not None and a != b:
                    run.fail(f"{s.label}: second solve differs (digest/rounds/words)")
        records.append(rec)
        pass_times.append(secs)
        solving += secs
        if args.trace:
            if len(pass_times) == 3:
                break
        elif len(pass_times) >= 2 and solving >= args.seconds:
            break

    if args.trace:
        run.failures.extend(tracer.failures)
        for name, (value, unit) in tracer.metrics().items():
            run.put(name, value, unit)
        run.put("graphs.generate_s", gen_s, "s")
        run.put("trace.overhead_s", traced - pass_times[2], "s")
        put_serve_layers(run, None, None, None)
        return
    run.put("setup_s", setup_s, "s")
    run.put("solve_s", p50(pass_times), "s")
    run.put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    run.put("rounds", total_rounds, "rounds")
    run.put("words_moved", total_words, "words")
    # A batch workload's *request* is one whole pass: the first pass is the
    # first-time request, later passes re-solve the same inputs.  (A median
    # over the 3-4 registry entries of a pass would land on whichever entry
    # sits in the middle for that seed.)  With 2-3 passes a run, the p95 is
    # the slowest pass.
    run.put("serve_rps", len(pass_times) / solving, "req/s")
    run.put("fresh_p50_ms", 1000 * pass_times[0], "ms")
    run.put("repeat_p50_ms", 1000 * p50(pass_times[1:]), "ms")
    run.put("request_p95_ms", 1000 * p95(pass_times), "ms")


# --------------------------------------------------------------------------- #
# serve-mix: repro serve over HTTP
# --------------------------------------------------------------------------- #


_SERVE_COUNTERS = (
    ("serve.requests", "serve_requests"),
    ("serve.coalesced", "serve_coalesced"),
    ("serve.batch.flushes", "serve_batch_flushes"),
    ("serve.batch.jobs", "serve_batch_jobs"),
    ("runtime.cache.hits", "runtime_cache_hits"),
    ("runtime.cache.misses", "runtime_cache_misses"),
    ("runtime.bytes_shipped", "runtime_bytes_shipped"),
)


def put_serve_layers(run: Run, delta: dict | None, server_p50_ms, lookups) -> None:
    """The service per-layer metrics (zeros on the batch workloads)."""
    delta = delta or {}
    for name, flat in _SERVE_COUNTERS:
        unit = "bytes" if name == "runtime.bytes_shipped" else "count"
        run.put(name, delta.get(flat, 0.0), unit)
    flushes = delta.get("serve_batch_flushes", 0.0)
    run.put("serve.batch.size_mean",
            delta.get("serve_batch_jobs", 0.0) / flushes if flushes else 0.0, "count")
    lookups = lookups or 0.0
    run.put("runtime.cache.lookups", lookups, "count")
    run.put("runtime.cache.hit_ratio",
            delta.get("runtime_cache_hits", 0.0) / lookups if lookups else 0.0, "ratio")
    run.put("serve.server_p50_ms", server_p50_ms or 0.0, "ms")


def server_request_p50_ms(path: str) -> tuple[float, int]:
    """Median ``serve.request`` span duration from the service's JSONL trace."""
    durs = []
    with open(path) as fh:
        for line in fh:
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue
            if rec.get("name") == "serve.request" and rec.get("parent") == 0:
                durs.append(rec["dur"])
    return (1000 * p50(durs) if durs else 0.0), len(durs)


def reference_pass(run: Run, specs, graphs, first_reply, per_entry: int):
    """Re-solve a fixed share of each job's specs in process and compare.

    Returns ``(seconds, rounds, words)`` summed over the re-solves.
    """
    import numpy as np
    import inputs
    from repro.api import SolveRequest, solve
    from repro.runtime.spec import runtime_entry

    taken = {job: 0 for job in inputs.SERVE_ENTRIES}
    total = rounds = words = 0
    for spec in specs:
        if spec.index not in first_reply or taken[spec.job] >= per_entry:
            continue
        taken[spec.job] += 1
        problem, model = runtime_entry(spec.job)
        g = graphs[spec.index]
        run.attempted += 1
        t0 = time.perf_counter()
        try:
            res = solve(SolveRequest(problem=problem, model=model, graph=g))
        except Exception as exc:  # noqa: BLE001
            run.failed += 1
            run.fail(f"in-process {spec.job} raised {type(exc).__name__}: {exc}")
            continue
        total += time.perf_counter() - t0
        rounds += int(res.rounds)
        words += int(res.words_moved)
        payload = first_reply[spec.index]
        served = np.asarray(payload.get("solution"), dtype=np.int64)
        want = np.asarray(res.solution)
        if served.size != want.size or not np.array_equal(served.reshape(want.shape), want):
            run.fail(f"spec {spec.index} ({spec.job}): served solution differs "
                     "from the in-process solve")
        if int(payload["result"]["rounds"]) != int(res.rounds):
            run.fail(f"spec {spec.index} ({spec.job}): served rounds differ")
    return total, rounds, words


def run_serve(run: Run, args) -> None:
    import inputs
    import oracle
    from service import Service, parse_metrics, run_load

    min_blocks = max(1, int(round(SERVE_BLOCKS * args.scale)))
    per_entry = max(1, int(round(REFERENCE_PER_ENTRY * args.scale)))
    specs, order = inputs.serve_plan(args.seed, 4 * min_blocks)
    bodies = [json.dumps(s.body()).encode() for s in specs]
    block_len = inputs.SPECS_PER_BLOCK * inputs.COPIES

    work_root = ROOT / ".e2ebench-work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="serve-", dir=work_root))
    trace_path = str(work / "serve-trace.jsonl") if args.trace else None
    starts = []
    service = None
    try:
        for rep in range(SERVICE_STARTS):
            last = rep == SERVICE_STARTS - 1
            svc = Service(str(SRC), str(work / f"cache-{rep}"),
                          trace_path if last else None)
            starts.append(svc.start())
            if last:
                service = svc
            else:
                svc.stop()
        setup_s = p50(starts)
        note(f"set-up {setup_s:.2f} s (service start-ups {starts})")
        before = parse_metrics(service.get("/metrics"))
        replies, wall = run_load(service.port, bodies, order, block_len,
                                 min_blocks, args.seconds)
        after = parse_metrics(service.get("/metrics"))
    finally:
        if service is not None:
            service.stop()
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    server_p50, spans = (server_request_p50_ms(trace_path) if trace_path else (0.0, 0))
    shutil.rmtree(work, ignore_errors=True)
    try:
        work_root.rmdir()  # only when no other run is using it
    except OSError:
        pass
    note(f"{len(replies)} requests in {wall:.2f} s")

    # Check every reply against its input, built here by the same generator.
    from repro.graphs import generators

    used = sorted({r.spec for r in replies})
    t0 = time.perf_counter()
    graphs = {i: generators.gnp_random_graph(**specs[i].generator_kwargs()) for i in used}
    gen_s = time.perf_counter() - t0
    first_reply = {}
    for r in replies:
        run.attempted += 1
        ok = (not r.error and r.status == 200 and r.payload
              and r.payload.get("ok") and r.payload.get("solution") is not None)
        if not ok:
            run.failed += 1
            run.fail(f"request for spec {r.spec}: status {r.status} {r.error} "
                     f"{(r.payload or {}).get('error', '')}")
            continue
        spec = specs[r.spec]
        problem = spec.job.split("_")[-1]
        g = graphs[r.spec]
        err = oracle.check(problem, g.n, g.edges_u, g.edges_v,
                           r.payload["solution"])
        if err:
            run.fail(f"spec {r.spec} ({spec.job}): {err}")
        if r.first:
            first_reply[r.spec] = r.payload

    delta = {k: after.get(k, 0.0) - before.get(k, 0.0) for k in after}
    sent = len(replies)
    hits = delta.get("runtime_cache_hits", 0.0)
    misses = delta.get("runtime_cache_misses", 0.0)
    coalesced = delta.get("serve_coalesced", 0.0)
    if delta.get("serve_requests", 0.0) != sent:
        run.fail(f"service counted {delta.get('serve_requests')} requests, sent {sent}")
    if hits + misses + coalesced != sent:
        run.fail(f"hits {hits} + misses {misses} + coalesced {coalesced} != {sent} sent")
    if misses != len(used):
        run.fail(f"{misses} cache misses for {len(used)} distinct specs")

    _, rounds, words = reference_pass(run, specs, graphs, first_reply, per_entry)
    fresh = [r.latency for r in replies if r.first]
    repeat = [r.latency for r in replies if not r.first]
    if args.trace:
        from layers import LayerTracer

        tracer = LayerTracer()
        with tracer.traced():
            traced_s, _, _ = reference_pass(run, specs, graphs, first_reply, per_entry)
        warm_s, _, _ = reference_pass(run, specs, graphs, first_reply, per_entry)
        run.failures.extend(tracer.failures)
        for name, (value, unit) in tracer.metrics().items():
            run.put(name, value, unit)
        run.put("graphs.generate_s", gen_s, "s")
        run.put("trace.overhead_s", traced_s - tracer.check_time() - warm_s, "s")
        put_serve_layers(run, delta, server_p50, hits + misses)
        note(f"server p50 from {spans} serve.request spans")
        return
    # The service's own solving time: each distinct spec was solved once
    # by the pool worker, and every reply carries that job's wall time.
    # Only the specs of the first ``min_blocks`` blocks count, so a faster
    # service that sends more blocks in ``--seconds`` does the same work.
    counted = min_blocks * inputs.SPECS_PER_BLOCK
    worker_s = sum(float(p["result"]["wall_time"])
                   for i, p in first_reply.items() if i < counted)
    run.put("setup_s", setup_s, "s")
    run.put("solve_s", worker_s, "s")
    run.put("peak_rss_mb", peak_mb, "MB")
    run.put("rounds", rounds, "rounds")
    run.put("words_moved", words, "words")
    run.put("serve_rps", sent / wall, "req/s")
    run.put("fresh_p50_ms", 1000 * p50(fresh), "ms")
    run.put("repeat_p50_ms", 1000 * p50(repeat), "ms")
    run.put("request_p95_ms", 1000 * p95(fresh + repeat), "ms")


# --------------------------------------------------------------------------- #


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1,
                    help="input seed; the same seed gives the same inputs")
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="least solving time per run (whole passes or blocks)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from a traced pass")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="input size factor (smoke tests use ~0.05)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("REPRO_TRACE", None)
    import numpy  # noqa: F401
    import scipy.sparse  # noqa: F401
    import repro.api  # noqa: F401
    import repro.graphs  # noqa: F401
    import oracle

    run = Run()
    for missed in oracle.self_test():
        run.fail(f"checker self-test accepted a corrupted solution: {missed}")
    if args.workload == "serve-mix":
        run_serve(run, args)
    else:
        run_batch(run, args)
    print(json.dumps(run.result(), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
