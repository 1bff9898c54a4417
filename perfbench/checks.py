"""Output checks of the naps benchmark.

Every timed call and every check is one operation in a ``Ledger``; an
operation that raised or failed its check is a failure, and
``failed_frac`` is failures over operations attempted. The references
here are computed independently of the program's own numerics.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import integrate
from scipy.special import logsumexp
from scipy.stats import poisson

POSTERIOR_TOLERANCE = 1e-7
COVERAGE_MIN_CELL = 200
COVERAGE_SE_FACTOR = 3.0


class Ledger:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return bool(ok)

    def fail(self, name: str, detail: str) -> None:
        self.check(name, False, detail)


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_report(ledger: Ledger, name: str, text: str, methods: dict, alphas) -> dict | None:
    """Parse a report with NaN/Infinity rejected; check it holds every method x alpha.

    ``methods`` maps each configured method name to its kind.
    """
    try:
        data = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        ledger.fail(name + ".strict_json", str(exc))
        return None
    ledger.check(name + ".strict_json", True)
    found = data.get("methods", {})
    missing = [
        f"{method}@{a}"
        for method in sorted(methods)
        for a in alphas
        if repr(float(a)) not in found.get(method, {}).get("alphas", {})
    ]
    ok = set(found) == set(methods) and not missing
    ledger.check(name + ".methods_x_alphas", ok, f"methods {sorted(found)}, missing {missing}")
    return data


def identical_bytes(ledger: Ledger, name: str, a: bytes, b: bytes) -> bool:
    if a == b:
        return ledger.check(name, True)
    at = next((i for i, (p, q) in enumerate(zip(a, b)) if p != q), min(len(a), len(b)))
    return ledger.check(name, False, f"first difference at byte {at} (lengths {len(a)}, {len(b)})")


def _covers(seg: dict, alpha: float) -> tuple[bool, float]:
    n = seg["n"]
    floor = 1.0 - alpha - COVERAGE_SE_FACTOR * math.sqrt(alpha * (1.0 - alpha) / n)
    return seg["coverage"] >= floor, floor


def coverage(ledger: Ledger, data: dict, methods: dict, alphas) -> None:
    """NAPS coverage >= 1 - alpha - 3 SE: marginal, per class, per (class, bin) with n >= 200."""
    for method, kind in sorted(methods.items()):
        if kind != "naps":
            continue
        for alpha in alphas:
            tables = data["methods"][method]["alphas"][repr(float(alpha))]
            segments = [("marginal", tables["marginal"])]
            segments += [(f"y={c}", tables["by_class"][c]) for c in ("0", "1")]
            for c in ("0", "1"):
                segments += [
                    (f"y={c},bin={seg['nu_bin']['index']}", seg)
                    for seg in tables["by_class_nu_bin"][c]
                    if seg["n"] >= COVERAGE_MIN_CELL
                ]
            for label, seg in segments:
                ok, floor = _covers(seg, alpha)
                ledger.check(
                    f"coverage.{method}@{alpha}.{label}",
                    ok,
                    f"coverage {seg['coverage']:.5f} < {floor:.5f} (n={seg['n']})",
                )


def members(include0: bool, include1: bool) -> tuple[int, ...]:
    return tuple(label for label, inc in ((0, include0), (1, include1)) if inc)


def predict_matches_batch(ledger: Ledger, singles, batch) -> None:
    """``singles``: (index, alpha, members) per predict call; ``batch``: alpha -> (include0, include1)."""
    for index, alpha, got in singles:
        include0, include1 = batch[alpha]
        want = members(bool(include0[index]), bool(include1[index]))
        ledger.check("predict_vs_batch", tuple(got) == want, f"point {index} alpha {alpha}: {got} != {want}")


def batch_counts(y, include0, include1) -> dict:
    single0 = include0 & ~include1
    single1 = include1 & ~include0
    return {
        "n": int(len(y)),
        "empty": int(np.sum(~include0 & ~include1)),
        "single_0": int(np.sum(single0)),
        "single_1": int(np.sum(single1)),
        "both": int(np.sum(include0 & include1)),
        "single_0_correct": int(np.sum(single0 & (y == 0))),
        "single_1_correct": int(np.sum(single1 & (y == 1))),
    }


def batch_matches_report(ledger: Ledger, y, batch, data: dict) -> None:
    for alpha, (include0, include1) in batch.items():
        got = batch_counts(np.asarray(y), np.asarray(include0), np.asarray(include1))
        counts = data["methods"]["naps"]["alphas"][repr(float(alpha))]["counts"]
        want = {k: counts.get(k) for k in got}
        ledger.check(f"batch_counts@{alpha}", got == want, f"{got} != {want}")


# ---------------------------------------------------------------------------
# Independent posterior references.
# ---------------------------------------------------------------------------


def analytic_probes() -> np.ndarray:
    return np.linspace(0.005, 0.995, 25)


def analytic_reference(x: float, class1: float, prior: dict) -> float:
    """P(Y=1 | x) by per-point adaptive quadrature over a uniform nuisance prior."""
    if prior["kind"] != "uniform":
        raise ValueError("the quadrature reference covers the uniform training prior")
    lo, hi = prior["support"]["bounds"]

    def f0(nu):
        return nu * math.exp(-nu * x) / -math.expm1(-nu) / (hi - lo)

    f0bar, _ = integrate.quad(f0, lo, hi, epsabs=1e-14, epsrel=1e-13, limit=200)
    f1 = math.exp(x) / math.expm1(1.0)
    return class1 * f1 / (class1 * f1 + (1.0 - class1) * f0bar)


def histogram_probes(n_bins: int) -> np.ndarray:
    return (np.arange(n_bins) + 0.5) / n_bins


def histogram_reference(x: np.ndarray, train_x: np.ndarray, train_y: np.ndarray, n_bins: int) -> np.ndarray:
    """Add-one-smoothed class-1 frequency of the bin holding each x (x inside (0, 1))."""
    bins = np.minimum((np.asarray(train_x) * n_bins).astype(int), n_bins - 1)
    total = np.bincount(bins, minlength=n_bins)
    ones = np.bincount(bins[np.asarray(train_y) == 1], minlength=n_bins)
    probe = (np.asarray(x) * n_bins).astype(int)
    return (ones[probe] + 1.0) / (total[probe] + 2.0)


def toy_probes(rates: dict) -> np.ndarray:
    """Fixed count vectors, two per (class, protocol), drawn from the model itself."""
    rng = np.random.default_rng(20240208)
    return np.vstack([rng.poisson(rates[key], size=(2, len(rates[key]))) for key in sorted(rates)])


def toy_reference(x: np.ndarray, class1: float, weights, rates: dict) -> np.ndarray:
    """P(Y=1 | x) from Poisson log-pmfs, mixed over protocols with log-sum-exp."""
    log_joint = {}
    for y, prior_y in ((0, 1.0 - class1), (1, class1)):
        terms = [
            math.log(w) + poisson.logpmf(x, rates[(y, j)]).sum(axis=-1)
            for j, w in enumerate(weights)
            if w > 0
        ]
        log_joint[y] = math.log(prior_y) + logsumexp(np.vstack(terms), axis=0)
    return np.exp(log_joint[1] - np.logaddexp(log_joint[0], log_joint[1]))


def posterior_matches(ledger: Ledger, name: str, got, want) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    err = float(np.max(np.abs(got - want))) if got.shape == want.shape else math.inf
    ledger.check(name, err <= POSTERIOR_TOLERANCE, f"max abs error {err:.3e} > {POSTERIOR_TOLERANCE:g}")
