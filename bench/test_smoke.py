"""Quick test of the benchmark itself: every workload at minimal size.

    python3 -m pytest -q bench/test_smoke.py
"""

import json
from pathlib import Path

import pytest

import gen
import run

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _small(name, trace=0, seed=1):
    return run.run_workload(name, seed, 0, trace, rounds=3, min_passes=1)


@pytest.mark.parametrize("name", sorted(gen.WORKLOADS))
def test_workload_minimal(name):
    result, lines = _small(name)
    assert result["correct"] and result["failed"] == 0, lines
    assert result["attempted"] == 3 * len(gen.KINDS)
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_tampered_certificate_counts_as_failure(monkeypatch):
    """A verifier that accepts everything lets the tampered certificate through."""
    run.load_library()
    monkeypatch.setattr(run.client_mod.dmod, "verify_certificate", lambda cert: True)
    result, _ = _small("table_gf")
    assert result["failed"] > 0 and not result["correct"]


def test_traced_run_repeats_counts():
    first, lines1 = _small("table_gf", trace=1)
    second, lines2 = _small("table_gf", trace=1)
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == want
    assert first["correct"] and second["correct"]
    exact = [
        k for k in want if k.startswith("decompose.route.") or k.endswith(".calls")
        and k.startswith("field_tower.")
    ]
    assert exact
    for key in exact:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key
    digest = [line for line in lines1 if line.startswith("sha256")]
    assert digest and digest == [line for line in lines2 if line.startswith("sha256")]


def test_request_mix_covers_every_route():
    want = {
        "table_gf": {"DegreeAtLeast5", "Order4Split", "Order4L", "Order4Conjugated"},
        "large_gf": {"DegreeAtLeast5", "Order4Split", "Order4L", "Order4Conjugated"},
        "qt": {"InfiniteWitness"},
    }
    for name, wl in gen.WORKLOADS.items():
        reqs = gen.requests(wl, 7)
        routes = {r.route for r in reqs if r.kind == "decompose"}
        assert routes == want[name]
        for kind in gen.KINDS:
            assert sum(r.kind == kind for r in reqs) == wl.rounds
        tampered = [r for r in reqs if r.kind == "verify" and r.tamper >= 0]
        assert len(tampered) == wl.rounds // gen.TAMPER_EVERY
        assert gen.requests(wl, 7) == reqs
