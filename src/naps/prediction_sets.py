"""Set-valued classifiers: nuisance-aware prediction sets and baselines.

A prediction set is a subset of {0, 1}. The nuisance-aware classifier
includes label y exactly when its Bayes-factor statistic exceeds a cutoff
obtained by inverting the label's rejection surface at alpha - gamma over
the (1 - gamma) nuisance confidence set of the label's provider, which
carries gamma. Baselines cover the standard single-cutoff construction,
class-conditional cutoffs, the cost-weighted point classifier, and a
plug-in variant that calibrates per nuisance bin but selects the bin with a
point estimate of the nuisance parameter (intentionally invalid; it exists
to quantify how badly point estimation fails).

Calibration quantiles use the lower empirical quantile: with n scores, the
level-alpha cutoff is the ceil(alpha * n)-th smallest. This is the
conservative choice for coverage. The standard and class-conditional
baselines are fitted from the calibration posterior in ascending ``p1``
order, as a fitted pipeline keeps it, and sort nothing: ``class_scores``
splits it into each label's ascending scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import files
from .classifier import bayes_factor_with_flags  # noqa: F401  (patched by perfbench/tracing.py)
from .classifier import label_bayes_factors
from .cutoffs import CutoffRequest, cutoff_for_region
from .errors import ConfigError, SaturationError
from .genmodel import Dataset
from .nuisance import NuisanceRegion
from .rejection import NuBinning, RejectionSurface


@dataclass(frozen=True)
class LabelDecision:
    included: bool
    statistic: float
    cutoff: float | None
    saturated: bool = False
    clipped: bool = False


@dataclass(frozen=True)
class PredictionSet:
    """Subset of {0, 1} with the per-label audit trail."""

    members: tuple[int, ...]
    decisions: tuple[LabelDecision, LabelDecision]

    def __contains__(self, label: int) -> bool:
        return label in self.members


def _members(include0: bool, include1: bool) -> tuple[int, ...]:
    out = []
    if include0:
        out.append(0)
    if include1:
        out.append(1)
    return tuple(out)


def lower_quantile(sorted_scores: np.ndarray, alpha: float) -> float:
    """ceil(alpha n)-th smallest of ascending scores (1-based), floored at 1."""
    return float(sorted_scores[_quantile_rank(alpha, len(sorted_scores)) - 1])


def _quantile_rank(alpha: float, n: int) -> int:
    """The 1-based rank of ``lower_quantile`` among n scores: ceil(alpha n), within [1, n]."""
    if n == 0:
        raise ConfigError("cannot take a quantile of zero scores")
    return min(max(int(math.ceil(alpha * n - 1e-9)), 1), n)


def class_scores(p1: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each label's calibration scores in ascending order, split from a ranked posterior.

    ``p1`` is a calibration set's posterior P(Y=1 | x) in ascending order,
    and ``y`` its labels in that order. Label 1's scores are its ``p1`` as
    they stand, and label 0's are its ``1 - p1`` reversed: rounding is
    monotone, so that is their ascending order bit for bit, and nothing is
    sorted. A posterior that is not finite, not inside [0, 1], not ascending
    or not one per label is a ``ConfigError``, as is a label other than 0 or 1.
    """
    p1 = np.asarray(p1, dtype=float)
    y = np.asarray(y)
    if p1.ndim != 1 or p1.shape != y.shape:
        raise ConfigError(f"the calibration posterior needs one value per label, got shapes {p1.shape} and {y.shape}")
    # NaN fails every comparison, so an ascending posterior with both ends in [0, 1] is finite and inside it
    if len(p1) and not (0.0 <= p1[0] and p1[-1] <= 1.0 and np.all(p1[1:] >= p1[:-1])):
        raise ConfigError("the calibration posterior must be finite, inside [0, 1] and in ascending order")
    scores0, scores1 = np.compress(y == 0, p1), np.compress(y == 1, p1)
    if len(scores0) + len(scores1) != len(p1):
        raise ConfigError("calibration labels must be 0 or 1")
    np.subtract(1.0, scores0, out=scores0)
    return scores0[::-1], scores1


# ---------------------------------------------------------------------------
# Nuisance-aware prediction sets.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LabelCutoff:
    """One label's NAPS cutoff at one alpha.

    A saturated inversion (the target level exceeds the fitted maximum of
    W somewhere in the region) gets cutoff -inf, so the label is always
    included (conservative for coverage); ``saturated`` keeps the audit trail.
    """

    cutoff: float
    saturated: bool
    region: NuisanceRegion


@dataclass(frozen=True)
class NapsSetClassifier:
    """Amortized set-valued classifier.

    Surfaces and providers are fitted once and treated as read-only. Label
    y's provider fixes its region (``region(y)``) and its level ``gamma``,
    so each label's cutoff depends only on alpha: it is resolved once per
    alpha and reused for every point. ``predict`` and ``predict_batch``
    evaluate the posterior once per call; ``decide`` applies the cutoffs to
    statistics computed elsewhere.
    """

    model: object
    surfaces: dict[int, RejectionSurface]
    providers: dict[int, object]
    _table: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def cutoff_table(self, alpha: float) -> tuple[LabelCutoff, LabelCutoff]:
        """Per-label cutoffs at alpha, inverted once and then looked up."""
        alpha = float(alpha)
        if alpha not in self._table:
            self._table[alpha] = tuple(self._label_cutoff(y, alpha) for y in (0, 1))
        return self._table[alpha]

    def _label_cutoff(self, y: int, alpha: float) -> LabelCutoff:
        request = CutoffRequest(null_label=y, alpha=alpha, gamma=self.providers[y].gamma)
        region = self.providers[y].region(y)
        try:
            return LabelCutoff(cutoff_for_region(self.surfaces[y], region, request).cutoff, False, region)
        except SaturationError:
            return LabelCutoff(-math.inf, True, region)

    def predict(self, x, alpha: float) -> PredictionSet:
        batch = self.predict_batch(np.asarray([x], dtype=float), alpha)
        return batch.prediction_set(0)

    def predict_batch(self, xs, alpha: float) -> "BatchPredictions":
        """Prediction sets at observations ``xs``."""
        xs = np.asarray(xs, dtype=float)
        statistics = label_bayes_factors(self.model.posterior1(xs), self.model.class1_prior)
        return self.decide(xs, statistics, alpha)

    def decide(self, xs, statistics: dict, alpha: float) -> "BatchPredictions":
        """Prediction sets from precomputed ``{y: (statistic, clipped)}``.

        Includes label y iff its statistic exceeds its cutoff.
        """
        c0, c1 = self.cutoff_table(alpha)
        (stat0, clipped0), (stat1, clipped1) = statistics[0], statistics[1]
        return BatchPredictions(
            x=np.asarray(xs, dtype=float),
            statistic0=stat0,
            statistic1=stat1,
            cutoff0=c0.cutoff,
            cutoff1=c1.cutoff,
            include0=stat0 > c0.cutoff,
            include1=stat1 > c1.cutoff,
            saturated0=c0.saturated,
            saturated1=c1.saturated,
            clipped0=clipped0,
            clipped1=clipped1,
        )


@dataclass(frozen=True)
class BatchPredictions:
    """Columnar batch output with the full audit trail.

    Cutoffs and saturation flags are shared by the whole batch.
    """

    x: np.ndarray
    statistic0: np.ndarray
    statistic1: np.ndarray
    cutoff0: float
    cutoff1: float
    include0: np.ndarray
    include1: np.ndarray
    saturated0: bool
    saturated1: bool
    clipped0: np.ndarray
    clipped1: np.ndarray

    def __len__(self) -> int:
        return len(self.x)

    def prediction_set(self, i: int) -> PredictionSet:
        d0 = LabelDecision(
            bool(self.include0[i]), float(self.statistic0[i]), self.cutoff0,
            self.saturated0, bool(self.clipped0[i]),
        )
        d1 = LabelDecision(
            bool(self.include1[i]), float(self.statistic1[i]), self.cutoff1,
            self.saturated1, bool(self.clipped1[i]),
        )
        return PredictionSet(_members(d0.included, d1.included), (d0, d1))

    def members_column(self) -> list[str]:
        out = []
        for i0, i1 in zip(self.include0, self.include1):
            out.append("01" if (i0 and i1) else ("0" if i0 else ("1" if i1 else "")))
        return out

    def save(self, path) -> None:
        """Delimited text: x, per-label statistics and cutoffs, membership, flags.

        Vector observations (discrete-toy counts) take one column each,
        ``x1..xd``, as in ``Dataset.save``.
        """
        x = self.x.reshape(len(self), -1)
        x_header = ["x"] if self.x.ndim == 1 else [f"x{j + 1}" for j in range(x.shape[1])]
        header = (*x_header, "statistic0", "statistic1", "cutoff0", "cutoff1", "members", "flags")
        members = self.members_column()
        saturated = "saturated" if self.saturated0 or self.saturated1 else ""
        clipped = np.where(self.clipped0 | self.clipped1, "clipped", "").tolist()
        flags = ["|".join(filter(None, (saturated, c, "" if m else "empty"))) for c, m in zip(clipped, members)]
        cutoffs = ",".join(files.FLOAT_FMT % c for c in (self.cutoff0, self.cutoff1))
        row = ",".join([files.FLOAT_FMT] * (x.shape[1] + 2) + [cutoffs, "%s", "%s"])
        files.write_table(path, header, row, (*x.T, self.statistic0, self.statistic1, members, flags))


# ---------------------------------------------------------------------------
# Baselines.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StandardSetsBaseline:
    """Single cutoff on the true-label posterior score, calibrated marginally.

    It keeps each label's calibration scores as ``class_scores`` splits
    them, and takes its cutoff from the two ascending runs as if merged.
    """

    sorted_scores0: np.ndarray
    sorted_scores1: np.ndarray

    def __post_init__(self):
        if len(self.sorted_scores0) + len(self.sorted_scores1) == 0:
            raise ConfigError("standard sets need a nonempty calibration set")

    @classmethod
    def fit(cls, p1: np.ndarray, y: np.ndarray) -> "StandardSetsBaseline":
        """From a calibration set's posterior P(Y=1 | x) ``p1``, ascending, and its labels ``y`` in that order."""
        return cls(*class_scores(p1, y))

    def cutoff(self, alpha: float) -> float:
        """``lower_quantile`` of both labels' scores together: the k-th smallest of two ascending runs.

        Bisection finds how many of the k come from label 0's run: the
        fewest ``i`` whose next label-0 score is not below the last of the
        ``k - i`` label-1 scores taken.
        """
        a, b = self.sorted_scores0, self.sorted_scores1
        k = _quantile_rank(alpha, len(a) + len(b))
        lo, hi = max(0, k - len(b)), min(k, len(a))
        while lo < hi:
            i = (lo + hi) // 2
            if a[i] < b[k - i - 1]:
                lo = i + 1
            else:
                hi = i
        return float(max(a[lo - 1] if lo else -math.inf, b[k - lo - 1] if lo < k else -math.inf))

    def include_batch(self, p1_eval: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
        c = self.cutoff(alpha)
        return (1.0 - p1_eval) > c, p1_eval > c


@dataclass(frozen=True)
class ClassConditionalBaseline:
    """Per-class cutoffs on per-class posterior scores, split by ``class_scores``."""

    sorted_scores0: np.ndarray
    sorted_scores1: np.ndarray

    def __post_init__(self):
        if len(self.sorted_scores0) == 0 or len(self.sorted_scores1) == 0:
            raise ConfigError("class-conditional sets need calibration samples of both classes")

    @classmethod
    def fit(cls, p1: np.ndarray, y: np.ndarray) -> "ClassConditionalBaseline":
        """From a calibration set's posterior P(Y=1 | x) ``p1``, ascending, and its labels ``y`` in that order."""
        return cls(*class_scores(p1, y))

    def cutoffs(self, alpha: float) -> tuple[float, float]:
        return (
            lower_quantile(self.sorted_scores0, alpha),
            lower_quantile(self.sorted_scores1, alpha),
        )

    def include_batch(self, p1_eval: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
        c0, c1 = self.cutoffs(alpha)
        return (1.0 - p1_eval) > c0, p1_eval > c1


@dataclass(frozen=True)
class PlugInConditionalBaseline:
    """Class-conditional cutoffs per nuisance bin, looked up at a point estimate.

    Calibration scores are the nuisance-conditional posteriors evaluated at
    each sample's own posterior-mean nuisance estimate, grouped by the
    sample's true nuisance bin. At prediction time the bin is chosen by the
    estimate instead, which is exactly why this construction undercovers:
    the estimate systematically lands in bins whose score distribution does
    not match the event's true one.
    """

    binning: NuBinning
    cell_scores0: tuple[np.ndarray | None, ...]
    cell_scores1: tuple[np.ndarray | None, ...]

    @classmethod
    def fit(cls, model, calibration: Dataset, binning: NuBinning) -> "PlugInConditionalBaseline":
        if getattr(model, "kind", "") != "analytic-marginal":
            raise ConfigError("the plug-in baseline needs the analytic classifier")
        nu_hat = np.asarray(model.posterior_mean_nu(calibration.x), dtype=float)
        p1_plug = np.asarray(model.posterior1_given_nu(calibration.x, nu_hat), dtype=float)
        cells = binning.cell_index(calibration.nu)
        scores0, scores1 = [], []
        for cell in range(binning.n_cells):
            in_cell = cells == cell
            s0 = np.sort(1.0 - p1_plug[in_cell & (calibration.y == 0)])
            s1 = np.sort(p1_plug[in_cell & (calibration.y == 1)])
            # Bins the calibration nuisance never visits stay unusable; they
            # only matter if a point estimate selects one at prediction time.
            scores0.append(s0 if len(s0) else None)
            scores1.append(s1 if len(s1) else None)
        return cls(binning=binning, cell_scores0=tuple(scores0), cell_scores1=tuple(scores1))

    def include_batch(self, model, xs: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
        nu_hat = np.asarray(model.posterior_mean_nu(xs), dtype=float)
        p1_plug = np.asarray(model.posterior1_given_nu(xs, nu_hat), dtype=float)
        cells = self.binning.cell_index(nu_hat)
        needed = np.unique(cells)
        for c in needed:
            if self.cell_scores0[c] is None or self.cell_scores1[c] is None:
                raise ConfigError(
                    f"plug-in baseline: bin {int(c)} selected by the point estimate "
                    f"has no calibration samples of some class"
                )
        c0 = np.array(
            [lower_quantile(self.cell_scores0[c], alpha) if self.cell_scores0[c] is not None else np.nan
             for c in range(self.binning.n_cells)]
        )
        c1 = np.array(
            [lower_quantile(self.cell_scores1[c], alpha) if self.cell_scores1[c] is not None else np.nan
             for c in range(self.binning.n_cells)]
        )
        return (1.0 - p1_plug) > c0[cells], p1_plug > c1[cells]


def bayes_point_batch(p1_eval: np.ndarray, costs: tuple[float, float] = (1.0, 1.0)) -> np.ndarray:
    """Cost-weighted point classifier: label 1 iff P(Y=1 | x) >= c0 / (c0 + c1).

    Ties break toward label 1 (an arbitrary, documented choice).
    """
    c0, c1 = costs
    if c0 <= 0 or c1 <= 0:
        raise ConfigError("costs must be positive")
    return (p1_eval >= c0 / (c0 + c1)).astype(np.int8)
