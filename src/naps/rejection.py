"""Estimating the rejection probability of a test statistic.

The target object is W(C; y, nu) = P(lambda(X) <= C | y, nu) on a cutoff
grid C_1 < ... < C_K of the statistic's calibration quantiles. The paper's
estimate augments each calibration point i with indicator records
Z_{i,j} = 1{lambda(x_i) <= C_j} and, within each (label, nuisance-bin) cell,
regresses Z on C by isotonic least squares. That fit is each cell's
empirical CDF, which ``fit_surface`` counts for every statistic it is given
in one pass, without building the records; the paper-literal fit is kept in
``tests/reference_fit.py`` as the tests' reference. ``cell_cdfs`` is that
count, shared by ``fit_surface`` and ``harness.invariance_check``. The
caller sorts the calibration set by its posterior once (``harness._fit``):
label 1's statistic ascends along that order and label 0's descends, so the
rows at or below a cutoff are a prefix for label 1 and a suffix for label 0,
and one count of each row's (label, cell) code between those bounds gives
both labels' surfaces. Each label's cutoff grid reads the same sorted values.

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

    def cell_code(self, y, nu) -> np.ndarray:
        """Each row's (label, cell) code ``y * n_cells + cell_index(nu)``, in the narrowest type that holds them all."""
        code = self.cell_index(nu) + self.n_cells * np.asarray(y, dtype=np.intp)
        return code.astype(np.min_scalar_type(2 * self.n_cells - 1))

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


def cell_cdfs(code, statistics: dict, grids: dict, n_cells: int) -> tuple[dict, np.ndarray]:
    """Each (label, cell)'s CDF of each given statistic on its grid, ``{y: shape (2, n_cells, K_y)}``, and size.

    ``code`` holds each row's ``y * n_cells + cell`` and ``statistics[y]``
    its label-y statistic, in one row order along which label 1's statistic
    ascends and label 0's descends. So "statistic <= cutoff" holds on a
    prefix of the rows for label 1 and on a suffix for label 0, whose bounds
    one ``searchsorted`` per grid finds. Every label's bounds cut the rows
    into segments, and one ``bincount`` of (segment, code), cumulated over
    the segments, counts each code before every bound: label 1's counts are
    those, label 0's each size, shape (2, n_cells), less them. Each count
    is divided by its size; an empty (label, cell)'s CDF is 0.
    """
    n = len(code)
    ends = {y: np.searchsorted(v[:: 2 * y - 1], grids[y], side="right") for y, v in statistics.items()}
    bounds = {y: end if y else n - end for y, end in ends.items()}
    cuts = np.unique(np.concatenate([*bounds.values(), [n]]))
    segment = np.repeat(np.arange(len(cuts)) * (2 * n_cells), np.diff(cuts, prepend=0))
    counts = np.bincount(segment + code, minlength=len(cuts) * 2 * n_cells).reshape(len(cuts), 2, n_cells)
    before = np.cumsum(counts, axis=0).transpose(1, 2, 0)
    size = before[..., -1]
    hits = {y: np.take(before, np.searchsorted(cuts, b), axis=-1) for y, b in bounds.items()}
    return {y: (h if y else size[..., None] - h) / np.maximum(size, 1)[..., None] for y, h in hits.items()}, size


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
    code, statistics: dict, grids: dict, binning: NuBinning, statistic_id: str = "statistic",
    seed: int | None = None, *, grid_size: int | None = None,
) -> dict[int, RejectionSurface]:
    """Fit from calibration data the surface ``{y: surface}`` of each label's statistic in ``statistics``, in one count.

    Equivalent to the paper-literal isotonic fit of the B * K augmented
    records, which ``tests/reference_fit.py`` keeps as the tests' reference,
    but never materializes the records: within a cell, the per-cutoff mean
    of the indicators is the cell's empirical CDF of the statistic, which is
    already nondecreasing and inside [0, 1], so the isotonic fit is the
    identity on it, and one ``cell_cdfs`` counts it for every label at once.
    ``code`` is the samples' ``binning.cell_code`` and ``statistics[y]``
    their label-y statistic, one finite value each, in one order along which
    label 1's ascends and label 0's descends (any other is a ``ValueError``):
    ``harness._fit`` sorts the posterior once for both. ``grids[y]`` is
    label y's ``CutoffGrid``. An absent label keeps a zero slice. Surface y
    is named ``f"{statistic_id}-{y}"``; its ``SurfaceMetadata`` keeps
    ``seed``, the calibration size and the configured ``grid_size``.
    """
    statistics = {y: _calibration_values(len(code), values) for y, values in statistics.items()}
    for y, values in statistics.items():
        ascending = values[:: 2 * y - 1]
        if np.any(ascending[1:] < ascending[:-1]):
            raise ValueError(f"label {y}'s statistic is not in {('descending', 'ascending')[y]} order")
    fitted, n = cell_cdfs(code, statistics, {y: grid.values for y, grid in grids.items()}, binning.n_cells)
    for y in (0, 1):
        if n[y].any() and not n[y].all():
            raise BinningError(f"no calibration samples in cell (y={y}, bin={int(np.argmin(n[y]))})")
    metadata = SurfaceMetadata(n_calibration=len(code), grid_size=grid_size, seed=seed)
    return {
        y: RejectionSurface(f"{statistic_id}-{y}", binning, grids[y].values.copy(), cdfs, metadata)
        for y, cdfs in fitted.items()
    }


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
