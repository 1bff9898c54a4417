"""Estimating the rejection probability of a test statistic.

The target object is W(C; y, nu) = P(lambda(X) <= C | y, nu) on a cutoff
grid C_1 < ... < C_K of the statistic's calibration quantiles. The paper's
estimate augments each calibration point i with indicator records
Z_{i,j} = 1{lambda(x_i) <= C_j} and, within each (label, nuisance-bin) cell,
regresses Z on C by isotonic least squares. That fit is each cell's
empirical CDF, which ``fit_surface`` counts in one pass without building the
records; the paper-literal fit is kept in ``tests/reference_fit.py`` as the
tests' reference. Both labels' surfaces are fitted on one calibration set, so
``fit_surface`` takes the calibration cells and the statistic's sorting order
from its caller: ``harness._fit_surfaces`` computes the cells once and sorts
both labels' statistics with one argsort of the posterior.

Smoothness across the nuisance parameter is handled purely by binning, so
the estimate is a per-cell monotone step function in C. Both slices of the
fitted surface double as the classifier's FPR and TPR curves, which is what
the cutoff machinery inverts.

Goodness of fit is checked by the probability integral transform: if the
surface is well estimated, W(lambda(X); y, nu) evaluated on fresh simulator
draws is uniform within every parameter-space bin.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import files
from .errors import BinningError, ConfigError, DomainError, SaturationError
from .genmodel import Dataset, NuisanceSpace

KS_BAND_COEFFICIENT = 1.36  # asymptotic two-sided 95% Kolmogorov-Smirnov band


@dataclass(frozen=True)
class NuBinning:
    """Partition of the nuisance space into cells.

    Continuous spaces use half-open interval bins [e_j, e_{j+1}) with the
    last bin closed; discrete spaces use one cell per category.
    """

    edges: np.ndarray | None = None
    categories: tuple[int, ...] | None = None

    def __post_init__(self):
        if (self.edges is None) == (self.categories is None):
            raise ConfigError("binning needs either edges or categories, not both")
        if self.edges is not None:
            e = np.asarray(self.edges, dtype=float)
            if e.ndim != 1 or len(e) < 2 or not np.all(np.isfinite(e)) or np.any(np.diff(e) <= 0):
                raise ConfigError("bin edges must be finite and strictly increasing with >= 2 entries")
            e.flags.writeable = False

    @classmethod
    def equal_width(cls, lo: float, hi: float, n_bins: int) -> "NuBinning":
        return cls(edges=np.linspace(lo, hi, n_bins + 1))

    @classmethod
    def geometric(cls, lo: float, hi: float, n_bins: int) -> "NuBinning":
        return cls(edges=np.geomspace(lo, hi, n_bins + 1))

    @classmethod
    def discrete(cls, categories) -> "NuBinning":
        return cls(categories=tuple(int(c) for c in categories))

    @classmethod
    def for_space(cls, space: NuisanceSpace, n_bins: int = 20, scheme: str = "equal") -> "NuBinning":
        if space.is_continuous:
            lo, hi = space.bounds
            if scheme == "geometric":
                return cls.geometric(lo, hi, n_bins)
            return cls.equal_width(lo, hi, n_bins)
        return cls.discrete(space.categories)

    @property
    def is_continuous(self) -> bool:
        return self.edges is not None

    @property
    def n_cells(self) -> int:
        return len(self.edges) - 1 if self.is_continuous else len(self.categories)

    def cell_index(self, nu) -> np.ndarray:
        """Cell index per nuisance value; raises if any value (or a NaN) is out of support.

        A continuous cell holds the values from its lower edge up to, not
        including, its upper edge; the support's top end is in the last cell.
        """
        if self.is_continuous:
            nu = np.asarray(nu, dtype=float)
            if nu.size and not (self.edges[0] <= nu.min() and nu.max() <= self.edges[-1]):  # a NaN fails both
                raise DomainError("nuisance value outside the binning support")
            return np.minimum(np.searchsorted(self.edges, nu, side="right") - 1, self.n_cells - 1)
        nu = np.asarray(nu)
        order = np.argsort(self.categories)
        ranked = np.asarray(self.categories)[order]
        pos = np.minimum(np.searchsorted(ranked, nu), len(ranked) - 1)
        unknown = ranked[pos] != nu
        if np.any(unknown):
            raise DomainError(f"unknown nuisance category {nu[unknown][0]}")
        return order[pos]

    def cell_bounds(self, i: int) -> tuple[float, float]:
        if not self.is_continuous:
            raise ConfigError("cell_bounds applies to continuous binnings")
        return float(self.edges[i]), float(self.edges[i + 1])

    def cells_intersecting(self, region) -> np.ndarray:
        """Indices of cells with nonempty intersection with a nuisance region."""
        if region.is_empty:
            return np.array([], dtype=int)
        if self.is_continuous:
            hit = np.zeros(self.n_cells, dtype=bool)
            for lo, hi in region.intervals:
                # Half-open cells; a region endpoint touching a cell edge
                # counts, which can only widen the search (conservative).
                hit |= (self.edges[:-1] <= hi) & (self.edges[1:] >= lo)
            return np.nonzero(hit)[0]
        keep = [i for i, c in enumerate(self.categories) if c in region.categories]
        return np.asarray(keep, dtype=int)


@dataclass(frozen=True)
class CutoffGrid:
    """Strictly sorted cutoffs at which the rejection probability is fitted."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or len(v) < 2 or not np.all(np.isfinite(v)) or np.any(np.diff(v) <= 0):
            raise ConfigError("cutoff grid must be finite and strictly sorted with >= 2 entries")
        v.flags.writeable = False

    def __len__(self) -> int:
        return len(self.values)


def cutoff_grid_from_values(values: np.ndarray, grid_size: int) -> CutoffGrid:
    """Cutoff grid from the empirical distribution of the statistic's values.

    Uses the K mid-quantile levels (j - 0.5) / K with linear interpolation,
    de-duplicated and deterministic. The quantiles are the same bits in any
    order of ``values``; sorted values make their partition cheap.
    """
    if grid_size < 2:
        raise ConfigError("grid_size must be >= 2")
    values = np.asarray(values, dtype=float)
    if len(values) == 0:
        raise ConfigError("statistic is degenerate: cannot build a cutoff grid")
    levels = (np.arange(grid_size) + 0.5) / grid_size
    grid = np.unique(np.quantile(values, levels, method="linear"))
    if len(grid) < 2:
        if values.min() == values.max():
            raise ConfigError("statistic is degenerate: cannot build a cutoff grid")
        raise ConfigError("statistic is too discrete: fewer than 2 distinct grid cutoffs")
    return CutoffGrid(values=grid)


def _calibration_values(calibration: Dataset, values) -> np.ndarray:
    """The statistic on a calibration set: one finite value per sample."""
    if len(calibration) == 0:
        raise ConfigError("calibration dataset is empty")
    lam = np.asarray(values, dtype=float)
    if lam.shape != (len(calibration),):
        raise ConfigError("statistic must return one value per calibration sample")
    if np.any(~np.isfinite(lam)):
        bad = int(np.nonzero(~np.isfinite(lam))[0][0])
        raise ConfigError(f"statistic evaluation failed at calibration sample {bad}")
    return lam


@dataclass(frozen=True)
class RejectionSurface:
    """Fitted monotone step functions W(C; y, nu-bin) on a shared grid.

    ``values[y, cell]`` is nondecreasing over the grid with range in [0, 1].
    Below the first grid point the surface is 0 by convention; above the
    last it stays at the fitted maximum.
    """

    statistic_id: str
    binning: NuBinning
    grid: np.ndarray
    values: np.ndarray  # shape (2, n_cells, K)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        CutoffGrid(values=g)
        v = np.asarray(self.values, dtype=float)
        if v.shape != (2, self.binning.n_cells, len(g)):
            raise ConfigError("surface values must have shape (2, n_cells, len(grid))")
        if not np.all((v >= 0.0) & (v <= 1.0)):
            raise ConfigError("surface values must be finite and inside [0, 1]")
        if np.any(np.diff(v, axis=-1) < -1e-12):
            raise ConfigError("fitted surface must be nondecreasing along the grid")
        g.flags.writeable = False
        v.flags.writeable = False

    def rejection_probability_batch(self, cutoffs, y_arr, nu_arr) -> np.ndarray:
        """Per-sample lookup W(cutoff_i; y_i, nu_i)."""
        cutoffs = np.asarray(cutoffs, dtype=float)
        y_arr = np.asarray(y_arr)
        cells = self.binning.cell_index(nu_arr)
        idx = np.searchsorted(self.grid, cutoffs, side="right") - 1
        below = idx < 0
        out = self.values[y_arr, cells, np.clip(idx, 0, len(self.grid) - 1)]
        out[below] = 0.0
        return out

    def invert_cell(self, beta: float, y: int, cell: int) -> float:
        """Generalized inverse: smallest grid cutoff with W >= beta in one cell."""
        if not 0.0 <= beta <= 1.0:
            raise DomainError("beta must lie in [0, 1]")
        vals = self.values[y, cell]
        pos = int(np.searchsorted(vals, beta, side="left"))
        if pos >= len(vals):
            raise SaturationError(
                f"target level {beta} exceeds the fitted maximum {vals[-1]:.6f} "
                f"in cell (y={y}, bin={cell})",
                attainable_max=float(vals[-1]),
            )
        return float(self.grid[pos])

    def save(self, path) -> None:
        files.write_json(path, self, indent=None)

    @staticmethod
    def load(path) -> "RejectionSurface":
        return files.read_json(path, lambda d: files.parse(RejectionSurface, d), "fitted artifact")


def fit_surface(
    calibration: Dataset,
    values,
    grid: CutoffGrid,
    binning: NuBinning,
    statistic_id: str = "statistic",
    seed: int | None = None,
    *,
    cells: np.ndarray,
    order: np.ndarray,
) -> RejectionSurface:
    """Fit the surface from the statistic's ``values`` on calibration data.

    Equivalent to the paper-literal isotonic fit of the B * K augmented
    records, which ``tests/reference_fit.py`` keeps as the tests' reference,
    but never materializes the records: within a cell, the per-cutoff mean
    of the indicators is the cell's empirical CDF of the statistic, which is
    already nondecreasing and inside [0, 1], so the isotonic fit is the
    identity on it and is skipped. One counting pass fills every CDF: in the
    statistic's sorted order, each sample's column is the first cutoff at or
    above it (K past the last); a ``bincount`` of (label, cell, column),
    cumulated along the columns and divided by each cell's size, gives the
    exact CDFs; an absent label keeps a zero slice. ``values`` must hold one
    finite value per sample.

    ``cells`` is ``binning.cell_index`` of the calibration ``nu``, and
    ``order`` an ordering of the samples that sorts ``values`` (ties in any
    order; any other is a ``ValueError``). The caller computes both because
    a fit of both labels on one calibration set (``harness._fit_surfaces``)
    shares them.
    """
    lam = _calibration_values(calibration, values)
    n_cells, K = binning.n_cells, len(grid)
    ranked = lam[order]
    if np.any(ranked[1:] < ranked[:-1]):
        raise ValueError("order does not sort the statistic's values")
    code = (calibration.y.astype(np.intp) * n_cells + cells) * (K + 1)
    bounds = np.searchsorted(ranked, grid.values, side="right")
    column = np.repeat(np.arange(K + 1), np.diff(bounds, prepend=0, append=len(lam)))  # per sample, sorted order
    counts = np.bincount(code[order] + column, minlength=2 * n_cells * (K + 1)).reshape(2, n_cells, K + 1)
    n = counts.sum(axis=-1)
    for y in (0, 1):
        if n[y].any() and not n[y].all():
            raise BinningError(f"no calibration samples in cell (y={y}, bin={int(np.argmin(n[y]))})")
    fitted = np.cumsum(counts[..., :K], axis=-1) / np.maximum(n, 1)[..., None]
    metadata = {"n_calibration": len(calibration), "grid_size": K, "seed": seed}
    return RejectionSurface(statistic_id, binning, grid.values.copy(), fitted, metadata)


# ---------------------------------------------------------------------------
# Probability-integral-transform diagnostics.
# ---------------------------------------------------------------------------


def ks_distance_uniform(pit: np.ndarray) -> float:
    """Exact Kolmogorov-Smirnov distance of a sample against Uniform(0, 1)."""
    u = np.sort(np.asarray(pit, dtype=float))
    n = len(u)
    if n == 0:
        raise ConfigError("cannot compute a KS distance on an empty sample")
    hi = np.max(np.arange(1, n + 1) / n - u)
    lo = np.max(u - np.arange(0, n) / n)
    return float(max(hi, lo))


def pit_diagnostics(
    surface: RejectionSurface, eval_dataset: Dataset, values, binning: NuBinning
) -> list[dict]:
    """Per-(label, cell) PIT table of the statistic's ``values`` on ``eval_dataset``.

    The bins are the cells of ``binning`` crossed with the two labels, so
    they partition the binning's support; a nuisance value outside it
    raises ``DomainError``. Each bin is one row: ``bin`` (its label), ``n``,
    ``skipped``, ``ks_distance`` against Uniform(0, 1), the 95% KS band
    ``ks_band`` = 1.36 / sqrt(n), ``within_band`` (reported, never enforced
    here) and ``cdf_grid``, the bin's PIT cdf on 100 levels. An empty bin is
    flagged and skipped rather than raising, with ``None`` statistics.
    """
    lam = np.asarray(values, dtype=float)
    pit = surface.rejection_probability_batch(lam, eval_dataset.y, eval_dataset.nu)
    cells = binning.cell_index(eval_dataset.nu)
    levels = np.linspace(0.0, 1.0, 100)
    results = []
    for y in (0, 1):
        for cell in range(binning.n_cells):
            if binning.is_continuous:
                label = "y={},nu=[{:g},{:g})".format(y, *binning.cell_bounds(cell))
            else:
                label = f"y={y},protocols=[{binning.categories[cell]}]"
            mask = (eval_dataset.y == y) & (cells == cell)
            n = int(np.sum(mask))
            row = {"bin": label, "n": n, "skipped": n == 0}
            results.append(row)
            if n == 0:
                warnings.warn(f"PIT bin {label} is empty; skipped")
                row.update(ks_distance=None, ks_band=None, within_band=None, cdf_grid=None)
                continue
            sample = pit[mask]
            ks = ks_distance_uniform(sample)
            band = float(KS_BAND_COEFFICIENT / np.sqrt(n))
            cdf = np.searchsorted(np.sort(sample), levels, side="right") / n
            row.update(ks_distance=ks, ks_band=band, within_band=ks <= band, cdf_grid=cdf.tolist())
    return results
