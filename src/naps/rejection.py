"""Estimating the rejection probability of a test statistic.

The target object is W(C; y, nu) = P(lambda(X) <= C | y, nu) on a cutoff
grid C_1 < ... < C_K of the statistic's calibration quantiles. The paper's
estimate augments each calibration point i with indicator records
Z_{i,j} = 1{lambda(x_i) <= C_j} and, within each (label, nuisance-bin) cell,
regresses Z on C by isotonic least squares. That fit is each cell's
empirical CDF, which ``fit_surface`` counts in one pass without building the
records; the paper-literal fit is kept in ``tests/reference_fit.py`` as the
tests' reference. ``cell_cdfs`` is that count, shared by ``fit_surface`` and
``harness.invariance_check``. The caller sorts the calibration set once
(``harness._fit``), so ``fit_surface`` takes every per-sample input in the
statistic's ascending order, label 0 reads the same arrays reversed, and
each label's cutoff grid comes from the same sorted values.

Smoothness across the nuisance parameter is handled purely by binning, so
the estimate is a per-cell monotone step function in C. Both slices of the
fitted surface double as the classifier's FPR and TPR curves, which
``cutoffs.cutoff_for_region`` inverts, the one place that does.

Goodness of fit is checked by the probability integral transform: if the
surface is well estimated, W(lambda(X); y, nu) evaluated on fresh simulator
draws is uniform within every parameter-space bin.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import files
from .errors import BinningError, ConfigError, DomainError
from .genmodel import Dataset, NuisanceSpace

KS_BAND_COEFFICIENT = 1.36  # asymptotic two-sided 95% Kolmogorov-Smirnov band


def _edge_count(n_bins: int) -> int:
    if n_bins < 1:
        raise ConfigError(f"a nuisance binning needs at least 1 bin, got {n_bins}")
    return n_bins + 1


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
        if self.categories is not None and len(set(self.categories)) != len(self.categories):
            raise ConfigError(f"binning categories must be unique, got {list(self.categories)}")
        if self.edges is not None:
            e = np.asarray(self.edges, dtype=float)
            if e.ndim != 1 or len(e) < 2 or not np.all(np.isfinite(e)) or np.any(np.diff(e) <= 0):
                raise ConfigError("bin edges must be finite and strictly increasing with >= 2 entries")
            e.flags.writeable = False

    @classmethod
    def equal_width(cls, lo: float, hi: float, n_bins: int) -> "NuBinning":
        return cls(edges=np.linspace(lo, hi, _edge_count(n_bins)))

    @classmethod
    def geometric(cls, lo: float, hi: float, n_bins: int) -> "NuBinning":
        return cls(edges=np.geomspace(lo, hi, _edge_count(n_bins)))

    @classmethod
    def discrete(cls, categories) -> "NuBinning":
        return cls(categories=tuple(int(c) for c in categories))

    @classmethod
    def for_space(cls, space: NuisanceSpace, n_bins: int = 20, scheme: str = "equal") -> "NuBinning":
        if space.is_continuous:
            spacing = cls.geometric if scheme == "geometric" else cls.equal_width
            return spacing(*space.bounds, n_bins)
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
        So a value's cell is the number of interior edges at or below it,
        counted in n_cells - 1 branch-free passes over a one-byte-per-row
        accumulator (two bytes past 255 cells). A binary search of unsorted
        values branches on the data: on 200k values (2-vCPU x86 host) it is
        slower up to about 250 edges (21 edges: 7.5 against 1.2 ms) and
        faster past that (301 edges: 15 against 19 ms).
        """
        if self.is_continuous:
            nu = np.asarray(nu, dtype=float)
            if nu.size and not (self.edges[0] <= nu.min() and nu.max() <= self.edges[-1]):  # a NaN fails both
                raise DomainError("nuisance value outside the binning support")
            cells = np.zeros(nu.shape, dtype=np.min_scalar_type(self.n_cells))
            for edge in self.edges[1:-1]:
                cells += nu >= edge
            return cells.astype(np.intp)
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


def cutoff_grid_from_values(ranked: np.ndarray, grid_size: int) -> CutoffGrid:
    """Cutoff grid from the empirical distribution of the statistic's sorted values.

    Uses the K mid-quantile levels (j - 0.5) / K with linear interpolation,
    de-duplicated and deterministic. ``ranked`` must be in ascending order
    (any other is a ``ValueError``), so each quantile interpolates between
    the two values either side of its position (n - 1) * level, as
    ``np.quantile(..., method="linear")`` does, bit for bit, without its
    partition of the values.
    """
    if grid_size < 2:
        raise ConfigError("grid_size must be >= 2")
    ranked = np.asarray(ranked, dtype=float)
    n = len(ranked)
    if n == 0:
        raise ConfigError("statistic is degenerate: cannot build a cutoff grid")
    if np.any(ranked[1:] < ranked[:-1]):
        raise ValueError("cutoff grid values are not in ascending order")
    position = (n - 1) * ((np.arange(grid_size) + 0.5) / grid_size)
    lo = np.floor(position)
    g = position - lo
    lo = lo.astype(np.intp)
    a, b = ranked[lo], ranked[np.minimum(lo + 1, n - 1)]
    # from the nearer neighbour, as np.quantile interpolates: that keeps its bits
    grid = np.unique(np.where(g >= 0.5, b - (b - a) * (1 - g), a + (b - a) * g))
    if len(grid) < 2:
        if ranked[0] == ranked[-1]:
            raise ConfigError("statistic is degenerate: cannot build a cutoff grid")
        raise ConfigError("statistic is too discrete: fewer than 2 distinct grid cutoffs")
    return CutoffGrid(values=grid)


def _calibration_values(n: int, values) -> np.ndarray:
    """The statistic on a calibration set of ``n`` samples, one finite value each; an error names the first bad one."""
    if n == 0:
        raise ConfigError("calibration dataset is empty")
    lam = np.asarray(values, dtype=float)
    if lam.shape != (n,):
        raise ConfigError("statistic must return one value per calibration sample")
    if np.any(~np.isfinite(lam)):
        raise ConfigError(f"statistic evaluation failed at calibration sample {np.flatnonzero(~np.isfinite(lam))[0]}")
    return lam


def cell_cdfs(labels, cells, ranked, grid: np.ndarray, n_cells: int) -> tuple[np.ndarray, np.ndarray]:
    """Each (label, cell)'s empirical CDF on ``grid``, shape (2, n_cells, K), and size, shape (2, n_cells).

    ``ranked`` holds a statistic's values in ascending order (any other is a
    ``ValueError``), ``labels`` and ``cells`` their labels and cells. Each
    value's column is the first cutoff at or above it (K past the last); one
    ``bincount`` of (label, cell, column), cumulated along the columns and
    divided by each cell's size, gives every CDF exactly; an empty cell's is 0.
    """
    if np.any(ranked[1:] < ranked[:-1]):
        raise ValueError("the statistic's values are not in ascending order")
    K = len(grid)
    code = (labels.astype(np.intp) * n_cells + cells) * (K + 1)
    bounds = np.searchsorted(ranked, grid, side="right")
    column = np.repeat(np.arange(K + 1), np.diff(bounds, prepend=0, append=len(ranked)))
    counts = np.bincount(code + column, minlength=2 * n_cells * (K + 1)).reshape(2, n_cells, K + 1)
    n = counts.sum(axis=-1)
    return np.cumsum(counts[..., :K], axis=-1) / np.maximum(n, 1)[..., None], n


@dataclass(frozen=True)
class SurfaceMetadata:
    """What a surface was fitted under: the calibration set's size and seed, and the configured grid size."""

    n_calibration: int
    grid_size: int | None = None
    seed: int | None = None


@dataclass(frozen=True)
class RejectionSurface:
    """Fitted monotone step functions W(C; y, nu-bin) on a shared grid.

    ``values[y, cell]`` is nondecreasing over the grid, with no dip of any
    size, and has range in [0, 1]. Below the first grid point the surface is
    0 by convention; above the last it stays at the fitted maximum.
    """

    statistic_id: str
    binning: NuBinning
    grid: np.ndarray
    values: np.ndarray  # shape (2, n_cells, K)
    metadata: SurfaceMetadata | None = None  # None in a hand-built surface

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        CutoffGrid(values=g)
        v = np.asarray(self.values, dtype=float)
        if v.shape != (2, self.binning.n_cells, len(g)):
            raise ConfigError("surface values must have shape (2, n_cells, len(grid))")
        if not np.all((v >= 0.0) & (v <= 1.0)):
            raise ConfigError("surface values must be finite and inside [0, 1]")
        if np.any(np.diff(v, axis=-1) < 0):
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

    def save(self, path) -> None:
        files.write_json(path, self, indent=None)

    @staticmethod
    def load(path) -> "RejectionSurface":
        return files.read_json(path, lambda d: files.parse(RejectionSurface, d), "fitted artifact")


def fit_surface(
    labels: np.ndarray,
    ranked,
    grid: CutoffGrid,
    binning: NuBinning,
    statistic_id: str = "statistic",
    seed: int | None = None,
    *,
    cells: np.ndarray,
    grid_size: int | None = None,
) -> RejectionSurface:
    """Fit the surface from calibration data: ``ranked`` the statistic's values, ascending, one finite per sample.

    Equivalent to the paper-literal isotonic fit of the B * K augmented
    records, which ``tests/reference_fit.py`` keeps as the tests' reference,
    but never materializes the records: within a cell, the per-cutoff mean
    of the indicators is the cell's empirical CDF of the statistic, which is
    already nondecreasing and inside [0, 1], so the isotonic fit is the
    identity on it, and ``cell_cdfs`` counts it. An absent label keeps a
    zero slice. ``labels`` and ``cells`` (``binning.cell_index`` of the
    calibration ``nu``) are the samples' own, in the order of ``ranked``,
    which also gives the grid: a fit of both labels on one calibration set
    (``harness._fit``) sorts once for both. Its ``SurfaceMetadata`` keeps
    ``seed``, the calibration size and the configured ``grid_size``.
    """
    ranked = _calibration_values(len(labels), ranked)
    fitted, n = cell_cdfs(labels, cells, ranked, grid.values, binning.n_cells)
    for y in (0, 1):
        if n[y].any() and not n[y].all():
            raise BinningError(f"no calibration samples in cell (y={y}, bin={int(np.argmin(n[y]))})")
    metadata = SurfaceMetadata(n_calibration=len(labels), grid_size=grid_size, seed=seed)
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
