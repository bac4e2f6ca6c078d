"""Alternating parent/change pairs of bench/run.py, plus per-family
context builds timed in-process, written as one JSON file.

Usage:

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH.json \
        [--pairs 10] [--seconds 30] [--seed 1] [--workloads table_gf,large_gf,qt]

PARENT_DIR and CHANGE_DIR are two checkouts (for instance two
``git archive`` copies), each with its own ``src/`` and ``bench/``.  Pair
i runs every workload on both sides, the parent first when i is even.
Each side's run is ``python3 bench/run.py --workload W --seed S
--seconds T --trace 0`` in its own directory; the final JSON line is
kept.  After the runs of a pair, each side also times, in a fresh
process, every workload family's ``cli.build_ctx`` (build) and
``client.build_contexts`` of that family alone (set-up: build plus the
witness, order-4 context and sigma - 1 map), the median of --reps calls.

The summary gives, per metric, both medians, the parent's quartiles
(``statistics.quantiles``, n=4), change/parent and the pairs the change
wins (lower is better but for requests_per_s; ties count for neither).
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time

HIGHER_IS_BETTER = {"requests_per_s"}


def time_families(root, reps):
    """{workload: {family spec: {"build_ms", "setup_ms"}}} for the tree at root."""
    sys.path[:0] = [f"{root}/src", f"{root}/bench"]
    import client
    import gen

    cli = client.cli

    def median_ms(fn):
        fn()  # first call outside the timing: imports and caches of the process
        ts = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            ts.append(time.perf_counter() - t0)
        return statistics.median(ts) * 1e3

    out = {}
    for name, workload in gen.WORKLOADS.items():
        rows = out[name] = {}
        for fam in workload.families:
            rows[f"{fam.field} / {fam.sigma}"] = {
                "build_ms": median_ms(lambda: cli.build_ctx(fam.field, fam.sigma)),
                "setup_ms": median_ms(lambda: client.build_contexts((fam,))),
            }
    return out


def run_bench(root, workload, seed, seconds):
    cmd = ["python3", "bench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    lines = res.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    out["sha256"] = next((ln for ln in lines if "sha256" in ln), None)
    out["metrics"] = {k: v["value"] if isinstance(v, dict) else v for k, v in out["metrics"].items()}
    return out


def run_families(root, reps):
    cmd = [sys.executable, __file__, "--families", root, "--reps", str(reps)]
    res = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(res.stdout)


def summarise(p, c, higher=False):
    """Medians, parent quartiles, ratio and wins of paired values p, c."""
    wins = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
    pm, cm = statistics.median(p), statistics.median(c)
    return {
        "parent_median": pm,
        "parent_quartiles": statistics.quantiles(p, n=4)[::2] if len(p) > 1 else [pm, pm],
        "change_median": cm,
        "change_over_parent": cm / pm if pm else None,
        "change_wins": f"{wins}/{len(p)}",
        "parent_runs": p,
        "change_runs": c,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--out")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads", default="table_gf,large_gf,qt")
    ap.add_argument("--reps", type=int, default=200)
    ap.add_argument("--families", help=argparse.SUPPRESS)  # one side's in-process timing
    args = ap.parse_args()
    if args.families:
        print(json.dumps(time_families(args.families, args.reps)))
        return
    sides = {"parent": args.parent, "change": args.change}
    workloads = args.workloads.split(",")
    runs = {w: {"parent": [], "change": []} for w in workloads}
    families = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for w in workloads:
            for side in order:
                r = run_bench(sides[side], w, args.seed, args.seconds)
                r.update(pair=i, order=f"{order[0]} first")
                runs[w][side].append(r)
                print(f"pair {i} {w} {side}: setup_s {r['metrics']['setup_s']:.6f}", flush=True)
        for side in order:
            families[side].append(run_families(sides[side], args.reps))
    summary = {}
    for w in workloads:
        summary[w] = {
            n: summarise(
                *([r["metrics"][n] for r in runs[w][side]] for side in ("parent", "change")),
                higher=n in HIGHER_IS_BETTER,
            )
            for n in runs[w]["parent"][0]["metrics"]
        }
    fam_summary = {}
    for w, rows in families["parent"][0].items():
        fam_summary[w] = {
            fam: {
                col: summarise(*([r[w][fam][col] for r in families[side]] for side in ("parent", "change")))
                for col in cols
            }
            for fam, cols in rows.items()
        }
    doc = {
        "what": (
            f"bench/run.py end-to-end results, seed {args.seed}, {args.pairs} alternating "
            f"pairs of {args.seconds:g} s runs per workload (even pairs run the parent "
            "first), and per-family in-process context build and set-up times (median "
            f"of {args.reps} calls, one fresh process per side and pair)"
        ),
        "command": f"python3 tools/bench_pairs.py PARENT CHANGE --pairs {args.pairs} "
        f"--seconds {args.seconds:g} --seed {args.seed} --reps {args.reps}",
        "host": f"{platform.machine()} Linux, Python {platform.python_version()}",
        "summary": summary,
        "families": fam_summary,
        "runs": runs,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
