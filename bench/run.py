"""Benchmark of skewlaurent: CLI-shaped request mixes over three field families.

    python3 bench/run.py --workload {table_gf,large_gf,qt} --seed N \\
        --seconds S --trace {0,1}

One client in one process sends the four subcommands (decompose, verify,
eval, trace) as in-process requests in a closed loop: each request is
sent when the previous one has returned.  The library is imported from
``src/`` of the checkout this file sits in; process start is not timed.

With ``--trace 0`` the loop repeats whole passes over the seeded request
list for about ``--seconds``, and the last line of output holds the
end-to-end metrics.  A request's latency is its best time over the
passes: a shared host's noise only ever slows a request down, and the
passes spread each request's repeats over the whole run.  With
``--trace 1`` one untraced and one traced pass run over the same list,
and the last line holds the per-layer metrics.  Output checks run outside the timed region either way.
See NOTES.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Set-up is timed in batches of at least SETUP_BATCH_SECONDS, one before
# each pass, so that its samples spread over the run like the latencies;
# at least SETUP_REPEATS builds in all.
SETUP_BATCH_SECONDS = 0.2
SETUP_REPEATS = 5
# Every request runs at least MIN_PASSES times; its best time is its latency.
MIN_PASSES = 2
MICRO_ELEMENTS = 32


client_mod = tracing = None  # set by load_library()


def load_library():
    """Import skewlaurent from this checkout's src/, or exit with status 2.

    The benchmark modules that use the library are imported after it.
    """
    global client_mod, tracing
    if client_mod is not None:
        return
    pkg = SRC / "skewlaurent"
    if not (pkg / "__init__.py").is_file():
        print(f"bench: no skewlaurent sources in {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import skewlaurent

    if Path(skewlaurent.__file__).resolve().parent != pkg.resolve():
        print(f"bench: skewlaurent was imported from {skewlaurent.__file__}", file=sys.stderr)
        sys.exit(2)
    import client
    import tracing as tracing_module

    client_mod, tracing = client, tracing_module


class Loop:
    """Closed-loop runner: latencies per kind, first outputs, failures."""

    def __init__(self, client, reqs):
        self.client = client
        self.reqs = reqs
        self.first = [None] * len(reqs)
        self.runs = [0] * len(reqs)  # executions per request
        self.repeat_failures = [0] * len(reqs)
        self.times = [[] for _ in reqs]  # seconds per execution
        self.errors = []

    def run_pass(self):
        """One pass over the request list; returns its summed latency."""
        total = 0.0
        client = self.client
        for i, req in enumerate(self.reqs):
            payload = client.verify_input(req) if req.kind == "verify" else None
            t0 = perf_counter()
            try:
                out = client.run(req, payload)
            except Exception as exc:  # a failed request is counted, the loop goes on
                out = client_mod.Outcome(f"{type(exc).__name__}: {exc}", None, False)
            dt = perf_counter() - t0
            total += dt
            self.times[i].append(dt)
            self.runs[i] += 1
            if self.first[i] is None:
                self.first[i] = out
            elif not out.ok or out.text != self.first[i].text:
                self.repeat_failures[i] += 1
            if not out.ok and len(self.errors) < 5:
                self.errors.append(f"{req.kind} #{req.index}: {out.text[:200]}")
        return total

    def check(self):
        """Check each distinct output; returns (attempted, failed)."""
        failed = 0
        for i, req in enumerate(self.reqs):
            ctx = self.client.ctxs[req.family]
            try:
                good = client_mod.check(ctx, req, self.first[i])
            except Exception as exc:  # a crashing check is a failed output
                good = False
                detail = f": {exc!r}"[:200]
            else:
                detail = ""
            if not good and len(self.errors) < 10:
                self.errors.append(f"check failed: {req.kind} #{req.index}{detail}")
            failed += self.runs[i] if not good else self.repeat_failures[i]
        return sum(self.runs), failed

    def digest(self):
        """SHA-256 over every distinct output, in request order."""
        h = hashlib.sha256()
        for req, out in zip(self.reqs, self.first):
            h.update(f"{req.kind}\n{out.text}\n".encode())
        return h.hexdigest()


def _time_setup(workload, times, min_seconds=SETUP_BATCH_SECONDS):
    """Build every context until min_seconds are spent, at least once.

    Appends each build's time to times and returns the last build.
    """
    spent = 0.0
    while True:
        t0 = perf_counter()
        ctxs = client_mod.build_contexts(workload.families)
        dt = perf_counter() - t0
        times.append(dt)
        spent += dt
        if spent >= min_seconds:
            return ctxs


def _end_to_end(loop, setup_times, peak_kb):
    """Metrics over the distinct requests, each at its best time."""
    metrics = {"setup_s": (statistics.median(setup_times), "s")}
    best = [min(times) for times in loop.times]
    metrics["requests_per_s"] = (len(best) / sum(best), "1/s")
    for kind in gen.KINDS:
        ms = [dt * 1e3 for req, dt in zip(loop.reqs, best) if req.kind == kind]
        metrics[f"{kind}_ms.p50"] = (statistics.median(ms), "ms")
        metrics[f"{kind}_ms.p90"] = (statistics.quantiles(ms, n=10)[-1], "ms")
    metrics["peak_rss_mb"] = (peak_kb / 1024, "MB")
    return metrics


def run_workload(name, seed, seconds, trace, rounds=None, min_passes=MIN_PASSES):
    """Run one workload; returns the result object and report lines.

    rounds and min_passes shrink the run for the smoke test.
    """
    load_library()
    workload = gen.WORKLOADS[name]
    reqs = gen.requests(workload, seed, rounds)
    lines = []
    if not trace:
        setup_times = []
        ctxs = _time_setup(workload, setup_times)
        loop = Loop(client_mod.Client(workload, ctxs), reqs)
        wall = 0.0
        passes = 0
        # Whole passes only, so that every request has as many repeats;
        # stop before a pass that would end past the deadline.
        while passes < min_passes or wall * (passes + 1) / passes <= seconds:
            if passes:
                _time_setup(workload, setup_times)
            t0 = perf_counter()
            loop.run_pass()
            wall += perf_counter() - t0
            passes += 1
            if passes == min_passes:
                # The resident set grows a little with every pass, so it is
                # taken after a fixed amount of work, not after a fixed time.
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        while len(setup_times) < SETUP_REPEATS:
            _time_setup(workload, setup_times, 0)
        attempted, failed = loop.check()
        metrics = _end_to_end(loop, setup_times, peak_kb)
        lines.append(
            f"{name} seed={seed}: {passes} passes of {len(reqs)} requests "
            f"in {wall:.2f} s"
        )
    else:
        ctxs = client_mod.build_contexts(workload.families)
        loop = Loop(client_mod.Client(workload, ctxs), reqs)
        untraced = loop.run_pass()
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced = loop.run_pass()
        attempted, failed = loop.check()
        raw = tracer.metrics()
        raw.update(
            tracing.micro_rows(
                gen.MICRO_FAMILIES,
                lambda fam: gen.element_texts(fam, seed, MICRO_ELEMENTS),
            )
        )
        raw["trace_overhead_ratio"] = traced / untraced
        metrics = {key: (raw[key], unit) for key, unit in tracing.METRIC_UNITS.items()}
        lines.append(
            f"{name} seed={seed}: traced pass {traced:.2f} s, "
            f"untraced pass {untraced:.2f} s"
        )
    lines.append(f"sha256 {name} seed={seed}: {loop.digest()}")
    lines.append(f"failed_ratio {failed / attempted} ({failed} of {attempted} attempted)")
    lines.extend(f"error: {e}" for e in loop.errors)
    lines.extend(f"{key} {value} {unit}" for key, (value, unit) in metrics.items())
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    result, lines = run_workload(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
