"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench -q``.

They run the benchmark at a tiny size, so they say nothing about speed:
they show that every named metric is printed with its unit, and that the
output checks can fail.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import workloads

HERE = Path(__file__).resolve().parent
TINY = "0.02"


def benchmark_json() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "workload,trace",
    [(name, 0) for name in sorted(workloads.WORKLOADS)] + [(name, 1) for name in sorted(workloads.WORKLOADS)],
)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", TINY],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    spec = benchmark_json()["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


@pytest.fixture(scope="module")
def tiny_run():
    naps = run.import_naps()
    bench = run.Run(naps, "analytic-readme", 5, trace=False, scale=float(TINY))
    run.measure(bench, seconds=0.0)
    return bench


def recheck(bench) -> int:
    bench.ledger = checks.Ledger()
    bench.check_outputs()
    return bench.ledger.failed


def test_one_flipped_membership_is_a_failure(tiny_run):
    before = recheck(tiny_run)
    alpha = tiny_run.config.alphas[0]
    include0, include1 = tiny_run.batches[alpha]
    index = next(i for i, a, _ in tiny_run.singles if a == alpha)
    flipped = include0.copy()
    flipped[index] = ~flipped[index]
    tiny_run.batches[alpha] = (flipped, include1)
    try:
        assert recheck(tiny_run) > before
        assert tiny_run.ledger.failed_frac > 0
    finally:
        tiny_run.batches[alpha] = (include0, include1)


def test_one_altered_report_byte_is_a_failure(tiny_run):
    before = recheck(tiny_run)
    path = tiny_run.cli_dirs["evaluate"] / "report.json"
    original = path.read_bytes()
    digit = next(i for i, b in enumerate(original) if chr(b).isdigit())
    altered = bytearray(original)
    altered[digit] = ord("7") if altered[digit] != ord("7") else ord("3")
    path.write_bytes(bytes(altered))
    try:
        assert recheck(tiny_run) > before
        assert tiny_run.ledger.failed_frac > 0
    finally:
        path.write_bytes(original)


def test_nan_in_a_report_is_a_failure():
    ledger = checks.Ledger()
    checks.strict_report(ledger, "report", '{"methods": {}, "x": NaN}', {}, [0.1])
    assert ledger.failed == 1


def test_posterior_references_agree_with_closed_forms():
    prior = {"kind": "uniform", "support": {"bounds": [1.0, 10.0]}}
    # With class-1 probability 1 the posterior is exactly 1, whatever the integral.
    assert checks.analytic_reference(0.3, 1.0, prior) == 1.0
    rates = {(y, j): np.full(8, 1.0 + y + j) for y in (0, 1) for j in range(4)}
    probes = checks.toy_probes(rates)
    same = {key: rates[(0, key[1])] for key in rates}  # both classes alike: posterior = prior
    np.testing.assert_allclose(checks.toy_reference(probes, 0.3, [0.25] * 4, same), 0.3, rtol=1e-12)
