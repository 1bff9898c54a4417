"""Paper-literal references that the tests compare the package against.

``augment`` expands each calibration point i into indicator records
Z_{i,j} = 1{lambda(x_i) <= C_j} over the cutoff grid, and
``fit_rejection_surface`` regresses Z on C by isotonic least squares
(``pool_adjacent_violators``) within each (label, nuisance-bin) cell. That is
the paper's estimate of W(C; y, nu); ``naps.rejection.fit_surface`` computes
the same surface by counting, without building the B * K records.

``lone_fit`` is ``fit_surface`` for one statistic by itself: it sorts the
statistic's values and gathers the calibration rows' (label, cell) codes into
their order, as a two-label fit does once for both labels.

``toy_log_pmf`` is the discrete toy's Poisson log-likelihood, the independent
reference for the toy posterior.

``standard_cutoff`` and ``class_conditional_cutoffs`` calibrate the two
split-conformal baselines by sorting their scores, in any order of the
calibration posterior; ``naps.prediction_sets`` reads the same cutoffs off
the posterior in ascending order, without sorting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from naps import genmodel as gm
from naps.errors import BinningError, ConfigError
from naps.genmodel import Dataset
from naps.prediction_sets import lower_quantile
from naps.rejection import CutoffGrid, NuBinning, RejectionSurface, _calibration_values, fit_surface


def pool_adjacent_violators(values, weights=None) -> np.ndarray:
    """Weighted least-squares isotonic (nondecreasing) regression.

    Classic pool-adjacent-violators: scan left to right, merging adjacent
    blocks whose means violate monotonicity into weighted averages.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or len(values) == 0:
        raise ConfigError("pool_adjacent_violators needs a nonempty 1-d array")
    if weights is None:
        weights = np.ones_like(values)
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != values.shape or np.any(weights <= 0):
            raise ConfigError("weights must be positive and match the values")

    # Blocks as (mean, weight, count) triples on a stack.
    means: list[float] = []
    wsum: list[float] = []
    count: list[int] = []
    for v, w in zip(values, weights):
        means.append(float(v))
        wsum.append(float(w))
        count.append(1)
        while len(means) > 1 and means[-2] > means[-1]:
            m2, w2, c2 = means.pop(), wsum.pop(), count.pop()
            m1, w1, c1 = means.pop(), wsum.pop(), count.pop()
            w = w1 + w2
            means.append((m1 * w1 + m2 * w2) / w)
            wsum.append(w)
            count.append(c1 + c2)
    out = np.empty_like(values)
    pos = 0
    for m, c in zip(means, count):
        out[pos : pos + c] = m
        pos += c
    return out


@dataclass(frozen=True)
class AugmentedRecords:
    """Columnar (y, nu, cutoff, z) records; one row per (sample, grid point)."""

    y: np.ndarray
    nu: np.ndarray
    cutoff: np.ndarray
    z: np.ndarray

    def __len__(self) -> int:
        return len(self.z)


def augment(calibration: Dataset, statistic, grid: CutoffGrid) -> AugmentedRecords:
    """Expand calibration data into indicator records over the cutoff grid.

    Produces exactly B * K records; record (i, j) carries
    Z = 1{lambda(x_i) <= C_j}. The statistic's values are checked as
    ``fit_surface`` checks them.
    """
    lam = _calibration_values(len(calibration), statistic(calibration.x))
    K = len(grid)
    z = (lam[:, None] <= grid.values[None, :]).astype(np.int8).ravel()
    return AugmentedRecords(
        y=np.repeat(calibration.y, K),
        nu=np.repeat(calibration.nu, K),
        cutoff=np.tile(grid.values, len(calibration)),
        z=z,
    )


def fit_rejection_surface(records: AugmentedRecords, binning: NuBinning) -> RejectionSurface:
    """Isotonic fit of the augmented records, cell by cell.

    Every (label, bin) cell that appears must carry records at every grid
    cutoff (augmentation guarantees this); any populated label with an empty
    cell is a binning error.
    """
    grid = np.unique(records.cutoff)
    if len(grid) < 2:
        raise ConfigError("records carry fewer than 2 distinct cutoffs")
    K = len(grid)
    n_cells = binning.n_cells
    cells = binning.cell_index(records.nu)
    col = np.searchsorted(grid, records.cutoff)

    values = np.zeros((2, n_cells, K))
    for y in (0, 1):
        mask = records.y == y
        if not np.any(mask):
            # Label absent from the records entirely: leave a flat-zero slice.
            continue
        flat = cells[mask] * K + col[mask]
        counts = np.bincount(flat, minlength=n_cells * K).reshape(n_cells, K)
        sums = np.bincount(flat, weights=records.z[mask].astype(float), minlength=n_cells * K).reshape(
            n_cells, K
        )
        for cell in range(n_cells):
            if counts[cell].sum() == 0:
                raise BinningError(f"no records in cell (y={y}, bin={cell})")
            if np.any(counts[cell] == 0):
                raise BinningError(f"cell (y={y}, bin={cell}) is missing grid cutoffs")
            means = sums[cell] / counts[cell]
            values[y, cell] = np.clip(pool_adjacent_violators(means, counts[cell]), 0.0, 1.0)
    return RejectionSurface("statistic", binning, grid, values)


def lone_fit(calibration: Dataset, values, grid: CutoffGrid, binning: NuBinning) -> RejectionSurface:
    """``fit_surface`` of one statistic, as label 1's, with the calibration codes gathered into its ascending order."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values)
    code = binning.cell_code(calibration.y, calibration.nu)[order]
    return fit_surface(code, {1: values[order]}, {1: grid}, binning)[1]


def toy_log_pmf(x: np.ndarray, y: int, protocol) -> np.ndarray:
    """Log-probability of count vectors x (n, 8) under (y, protocol)."""
    x = np.asarray(x, dtype=float)
    rates = gm.toy_rates(y, protocol)
    if x.ndim == 1:
        x = x[None, :]
    if rates.ndim == 1:
        rates = rates[None, :]
    return np.sum(x * np.log(rates) - rates - special.gammaln(x + 1.0), axis=-1)


def standard_cutoff(p1, y, alpha: float) -> float:
    """The standard baseline's cutoff: the lower quantile of every point's true-label score, sorted."""
    return lower_quantile(np.sort(np.where(y == 1, p1, 1.0 - p1)), alpha)


def class_conditional_cutoffs(p1, y, alpha: float) -> tuple[float, float]:
    """The class-conditional baseline's cutoffs: each label's lower quantile of its own scores, sorted."""
    if not np.any(y == 0) or not np.any(y == 1):
        raise ConfigError("class-conditional sets need calibration samples of both classes")
    return lower_quantile(np.sort(1.0 - p1[y == 0]), alpha), lower_quantile(np.sort(p1[y == 1]), alpha)
