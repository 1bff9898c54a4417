"""Paper-literal references that the tests compare the package against.

``augment`` expands each calibration point i into indicator records
Z_{i,j} = 1{lambda(x_i) <= C_j} over the cutoff grid, and
``fit_rejection_surface`` regresses Z on C by isotonic least squares
(``pool_adjacent_violators``) within each (label, nuisance-bin) cell. That is
the paper's estimate of W(C; y, nu); ``naps.rejection.fit_surface`` computes
the same surface by counting, without building the B * K records.

``lone_fit`` is ``fit_surface`` for one statistic by itself: it sorts the
statistic's values and gathers the calibration labels and cells into their
order, as a two-label fit does once for both labels.

``toy_log_pmf`` is the discrete toy's Poisson log-likelihood, the independent
reference for the toy posterior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from naps import genmodel as gm
from naps.errors import BinningError, ConfigError
from naps.genmodel import Dataset
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
    return RejectionSurface("statistic", binning, grid, values, metadata={"n_records": len(records)})


def lone_fit(calibration: Dataset, values, grid: CutoffGrid, binning: NuBinning) -> RejectionSurface:
    """``fit_surface`` of one statistic, with the calibration labels and cells gathered into its sorted order."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values)
    cells = binning.cell_index(calibration.nu)
    return fit_surface(calibration.y[order], values[order], grid, binning, cells=cells[order])


def toy_log_pmf(x: np.ndarray, y: int, protocol) -> np.ndarray:
    """Log-probability of count vectors x (n, 8) under (y, protocol)."""
    x = np.asarray(x, dtype=float)
    rates = gm.toy_rates(y, protocol)
    if x.ndim == 1:
        x = x[None, :]
    if rates.ndim == 1:
        rates = rates[None, :]
    return np.sum(x * np.log(rates) - rates - special.gammaln(x + 1.0), axis=-1)
