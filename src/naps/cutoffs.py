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
x-space; ``analytic_oracle_cutoffs`` reads them off genmodel's closed-form
quantiles and serves as the ground truth the surface-based path is tested
against. The truncated-exponential family has a monotone likelihood ratio
in x, so the class-0 cutoff curve strictly decreases in nu and its supremum
over a region sits at the region's lowest nu.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, SaturationError
from .genmodel import quantile_class1, upper_quantile_class0
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

    A cell's inverse is its smallest grid cutoff with W >= beta: its row is
    nondecreasing, so the cutoff's index is the count of values below beta,
    one count over the (cells, K) rows. The surface is piecewise constant
    across nuisance bins, so evaluating every intersecting cell is exact on
    the representable class. A region endpoint on an interior cell edge
    meets both neighbouring cells, which can only widen the search
    (conservative): a one-point region inside a cell gives that cell's
    inverse, one on an edge the optimum of both. A row with no value at or
    above beta saturates, raising ``SaturationError`` with the smallest
    fitted maximum among the saturated cells.
    """
    if region.is_empty:
        raise NumericError("nuisance confidence set is empty; no cutoff is defined")
    cells = surface.binning.cells_intersecting(region)
    if len(cells) == 0:
        raise NumericError("nuisance confidence set does not intersect the fitted binning")
    y = request.slice_label
    rows = surface.values[y, cells]
    first = np.sum(rows < request.beta, axis=-1)
    saturated = first == rows.shape[-1]
    if np.any(saturated):
        raise SaturationError(
            f"inversion at beta={request.beta} saturated in cells {cells[saturated].tolist()} (y={y})",
            attainable_max=float(np.min(rows[saturated, -1])),
        )
    cand = surface.grid[first]
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


def analytic_oracle_cutoffs(alpha: float, gamma: float, region: NuisanceRegion) -> OracleCutoffs:
    """Closed-form x-space cutoffs for the analytic scenario.

    The class-1 cutoff is the class-1 alpha quantile. The class-0 cutoff is
    the supremum over the region of the per-nu upper (alpha - gamma)
    quantile. That curve strictly decreases in nu (the family has a
    monotone likelihood ratio in x), so the supremum is the curve at the
    region's lowest nu, the lower end of its first (sorted) interval.
    """
    if region.is_empty or not region.intervals:
        raise ConfigError("the analytic oracle needs a nonempty continuous region")
    lo = region.intervals[0][0]
    x0 = float(upper_quantile_class0(alpha - gamma, lo))
    return OracleCutoffs(x0_star=x0, x1_star=float(quantile_class1(alpha)), arg_nu=float(lo))
