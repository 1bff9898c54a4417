"""Rejection cutoffs: one path from (surface, region, alpha, gamma) to a cutoff.

``cutoff_for_region`` reads every cutoff off a fitted rejection surface by
generalized inversion. FPR control at level alpha with a (1 - gamma)
nuisance confidence set inverts at beta = alpha - gamma and takes the
infimum of the per-cell inverses over the cells intersecting the set; TPR
control inverts the opposite label's slice at beta = alpha + gamma and
takes the supremum. The region decides which cutoff comes out:

* the full space, ``full_space_set(space)``: the uniform cutoff (gamma = 0);
* a one-point region ``NuisanceRegion(intervals=((nu0, nu0),))``: the cutoff
  at a pinned nuisance value;
* a provider's confidence set, ``provider.region(y)``: the data-dependent
  cutoff.

For the analytic scenario the same quantities exist in closed form in
x-space; ``analytic_oracle_cutoffs`` computes them by a dense grid sweep
with golden-section refinement and serves as the ground truth the
surface-based path is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, NumericError, SaturationError
from .genmodel import E_MINUS_1, upper_quantile_class0
from .nuisance import NuisanceRegion
from .rejection import RejectionSurface

MODE_FPR = "fpr"
MODE_TPR = "tpr"


@dataclass(frozen=True)
class CutoffRequest:
    """What to control (FPR or TPR) for which label, at which level."""

    null_label: int
    alpha: float
    gamma: float = 0.0
    mode: str = MODE_FPR

    def __post_init__(self):
        if self.null_label not in (0, 1):
            raise ConfigError("null_label must be 0 or 1")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must lie in (0, 1)")
        if self.mode not in (MODE_FPR, MODE_TPR):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if not 0.0 <= self.gamma:
            raise ConfigError("gamma must be nonnegative")
        beta = self.beta
        if not 0.0 < beta < 1.0:
            raise ConfigError(
                f"inversion level beta = {beta} out of (0, 1); "
                f"check gamma <= alpha (FPR) or alpha + gamma < 1 (TPR)"
            )

    @property
    def beta(self) -> float:
        return self.alpha - self.gamma if self.mode == MODE_FPR else self.alpha + self.gamma

    @property
    def slice_label(self) -> int:
        """Which label's rejection-probability slice is inverted."""
        return self.null_label if self.mode == MODE_FPR else 1 - self.null_label


@dataclass(frozen=True)
class CutoffResult:
    """The cutoff and the cells that attain it, in increasing cell order."""

    cutoff: float
    cells: tuple[int, ...]


def cutoff_for_region(
    surface: RejectionSurface, region: NuisanceRegion, request: CutoffRequest
) -> CutoffResult:
    """Optimum of the per-cell generalized inverses over the cells meeting ``region``.

    The surface is piecewise constant across nuisance bins, so evaluating
    every intersecting cell is exact on the representable class. A region
    endpoint on an interior cell edge meets both neighbouring cells, which
    can only widen the search (conservative): a one-point region inside a
    cell gives that cell's ``invert_cell``, one on an edge the optimum of
    both. Any saturated cell raises ``SaturationError`` carrying the
    smallest fitted maximum among the saturated cells.
    """
    if region.is_empty:
        raise NumericError("nuisance confidence set is empty; no cutoff is defined")
    cells = surface.binning.cells_intersecting(region)
    if len(cells) == 0:
        raise NumericError("nuisance confidence set does not intersect the fitted binning")
    y = request.slice_label
    saturated = []
    cand = np.empty(len(cells))
    for i, cell in enumerate(cells):
        try:
            cand[i] = surface.invert_cell(request.beta, y, int(cell))
        except SaturationError:
            saturated.append(int(cell))
    if saturated:
        raise SaturationError(
            f"inversion at beta={request.beta} saturated in cells {saturated} (y={y})",
            attainable_max=float(np.min(surface.values[y, saturated, -1])),
        )
    optimum = float(np.min(cand) if request.mode == MODE_FPR else np.max(cand))
    return CutoffResult(cutoff=optimum, cells=tuple(int(c) for c in cells[cand == optimum]))


# ---------------------------------------------------------------------------
# Closed-form x-space oracles for the analytic scenario.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleCutoffs:
    x0_star: float
    x1_star: float
    arg_nu: float


def class0_cutoff_curve(nu, alpha: float, gamma: float = 0.0) -> np.ndarray:
    """x with P[X >= x | Y=0, nu] = alpha - gamma, elementwise in nu."""
    beta = alpha - gamma
    if beta <= 0.0:
        raise DomainError("alpha - gamma must be positive")
    if beta > 1.0:
        raise DomainError("alpha - gamma must be at most 1")
    return upper_quantile_class0(beta, nu)


def class1_cutoff(alpha: float) -> float:
    """x with P[X <= x | Y=1] = alpha; free of the nuisance parameter."""
    if not 0.0 <= alpha <= 1.0:
        raise DomainError("alpha must lie in [0, 1]")
    return float(np.log1p(alpha * E_MINUS_1))


def _golden_max(fn, lo: float, hi: float, tol: float = 1e-12) -> tuple[float, float]:
    """Golden-section maximization on [lo, hi]; returns (argmax, max)."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    arg = 0.5 * (a + b)
    return arg, fn(arg)


def analytic_oracle_cutoffs(
    alpha: float,
    gamma: float,
    region: NuisanceRegion,
    grid_points: int = 2000,
) -> OracleCutoffs:
    """Closed-form x-space cutoffs for the analytic scenario.

    The class-0 cutoff is the supremum of the closed-form per-nu cutoff over
    the region, found by a dense sweep with golden-section refinement around
    the grid optimum (boundary optima are kept as-is).
    """
    if region.is_empty or not region.intervals:
        raise ConfigError("the analytic oracle needs a nonempty continuous region")
    x1 = class1_cutoff(alpha)

    def curve(nu):
        return class0_cutoff_curve(nu, alpha, gamma)

    best_val = -np.inf
    best_arg = None
    for lo, hi in region.intervals:
        if hi == lo:
            val = float(curve(np.asarray(lo)))
            if val > best_val:
                best_val, best_arg = val, lo
            continue
        grid = np.linspace(lo, hi, grid_points)
        vals = curve(grid)
        k = int(np.argmax(vals))
        if 0 < k < len(grid) - 1:
            arg, val = _golden_max(lambda t: float(curve(np.asarray(t))), grid[k - 1], grid[k + 1])
        else:
            arg, val = float(grid[k]), float(vals[k])
        if val > best_val:
            best_val, best_arg = val, arg
    return OracleCutoffs(x0_star=float(best_val), x1_star=x1, arg_nu=float(best_arg))
