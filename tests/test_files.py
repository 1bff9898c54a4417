import copy
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naps
from naps import files, harness
from naps import genmodel as gm
from naps.classifier import load_classifier
from naps.errors import ConfigError, DomainError
from naps.nuisance import NuisanceRegion
from naps.rejection import NuBinning, RejectionSurface, SurfaceMetadata
from test_harness import small_config


METHODS = (*harness.default_methods(), harness.MethodSpec(kind="bayes-point", costs=(1.0, 2.5)))


def small_surface(binning):
    grid = np.array([0.1, 0.2, 0.3])
    values = np.broadcast_to(np.array([0.0, 0.5, 1.0]), (2, binning.n_cells, 3)).copy()
    return RejectionSurface("bayes-factor-0", binning, grid, values, metadata=SurfaceMetadata(n_calibration=7))


ANALYTIC = naps.AnalyticMarginalClassifier(naps.analytic_config(0.3, naps.truncated_gaussian_prior(5.0, 2.0)), 1e-8)
UNIFORM = naps.analytic_config(0.5, gm.uniform_prior())
HISTOGRAM = naps.fit_histogram_classifier(gm.sample_dataset(UNIFORM, 2000, 5), 8, UNIFORM)
ARTIFACTS = [
    naps.uniform_prior(),
    naps.truncated_gaussian_prior(4.0, 0.1),
    gm.discrete_prior((0.1, 0.2, 0.3, 0.4)),
    gm.point_mass_prior(2.5),
    NuBinning.geometric(1.0, 10.0, 5),
    NuBinning.discrete((0, 1, 3)),
    ANALYTIC,
    HISTOGRAM,
    NuisanceRegion(intervals=((1.5, 2.0), (3.0, 4.0))),
    small_surface(NuBinning.equal_width(1.0, 10.0, 2)),
    small_config(methods=METHODS),
]


@pytest.mark.parametrize("artifact", ARTIFACTS, ids=lambda a: type(a).__name__)
def test_parse_inverts_jsonable(artifact):
    data = files.jsonable(artifact)
    again = files.parse(type(artifact), json.loads(json.dumps(data)))
    assert type(again) is type(artifact)
    assert files.jsonable(again) == data


def test_refused_json_payload_leaves_no_file(tmp_path):
    path = tmp_path / "out.json"
    with pytest.raises(ValueError):
        files.write_json(path, {"rows": [{"x0_star": 0.5}, {"x0_star": float("inf")}]})
    assert not path.exists()


def test_method_name_defaults_to_kind():
    method = files.parse(harness.MethodSpec, {"kind": "standard"})
    assert method == harness.MethodSpec(kind="standard", name="standard")


@pytest.mark.parametrize(
    "change, message",
    [
        ({"methods": [{"kind": "naps", "gama_rule": {}}]}, "unknown key ExperimentConfig.methods[0].gama_rule"),
        ({"methods": [{"kind": "naps", "gamma_rule": 0.01}]}, "ExperimentConfig.methods[0].gamma_rule must be an obj"),
        ({"n_calibration": 4000.0}, "ExperimentConfig.n_calibration must be an integer"),
        ({"n_evaluation": True}, "ExperimentConfig.n_evaluation must be an integer"),
        ({"class1_probability": "0.5"}, "ExperimentConfig.class1_probability must be a finite number"),
        ({"alphas": [0.1, None]}, "ExperimentConfig.alphas[1] must be a finite number"),
        ({"train_prior": {"kind": "uniform"}}, "missing key ExperimentConfig.train_prior.support"),
        ({"train_prior": None}, "train_prior"),
        ({"train_prior": {**files.jsonable(naps.uniform_prior()), "sd": 3}}, "prior takes no parameter, got sd"),
        ({"methods": []}, "methods must be at least one"),
    ],
)
def test_parse_names_the_key_path(change, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        harness.ExperimentConfig.from_dict({**files.jsonable(small_config(methods=METHODS)), **change})


def test_parse_checks_arrays_and_fixed_fields():
    data = files.jsonable(HISTOGRAM)
    changes = (
        {"bin_posterior": [0.5, None]}, {"bin_edges": [[0.0, 1.0], [2.0]]}, {"bin_edges": ["0", "1"]},
        {"bin_posterior": [True, *data["bin_posterior"][1:]]},  # np.array would read it as 1.0
    )
    for change in changes:
        with pytest.raises(ConfigError, match="must be a list of finite numbers"):
            files.parse(naps.HistogramClassifier, {**data, **change})
    surface = files.jsonable(small_surface(NuBinning.equal_width(1.0, 10.0, 2)))
    surface["values"][1][1][2] = True
    with pytest.raises(ConfigError, match=re.escape("RejectionSurface.values must be a list of finite numbers")):
        files.parse(RejectionSurface, surface)
    with pytest.raises(ConfigError, match="HistogramClassifier.kind must be 'histogram'"):
        files.parse(naps.HistogramClassifier, {**data, "kind": "analytic-marginal"})


OVERFLOW = "1e999"  # a JSON number that reads as infinite
SURFACE = files.jsonable(small_surface(NuBinning.equal_width(1.0, 10.0, 2)))
CONFIG = files.jsonable(small_config())


@pytest.mark.parametrize(
    "load, data, message",
    [
        (
            RejectionSurface.load, {**SURFACE, "metadata": {"n_calibration": 7, "seed": OVERFLOW}},
            "RejectionSurface.metadata.seed must be an integer",
        ),
        (
            harness.ExperimentConfig.from_json_file, {**CONFIG, "class1_probability": OVERFLOW},
            "class1_probability must be a finite number",
        ),
        (
            harness.ExperimentConfig.from_json_file, {**CONFIG, "alphas": [0.1, OVERFLOW]},
            "ExperimentConfig.alphas[1] must be a finite number",
        ),
    ],
    ids=["surface-metadata", "config-float", "config-float-list"],
)
def test_overflowing_number_raises_config_error(tmp_path, load, data, message):
    path = tmp_path / "file.json"
    path.write_text(json.dumps(data).replace(f'"{OVERFLOW}"', OVERFLOW))
    with pytest.raises(ConfigError, match=re.escape(message)):
        load(str(path))


# --- malformed input: a ConfigError or DomainError, never a bare KeyError, IndexError or TypeError --------

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _slots(value, out):
    """Every (container, key) pair inside a JSON value."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        out.append((value, key))
        _slots(child, out)
    return out


@st.composite
def mutated(draw, valid):
    """``valid`` with one change at any depth: a key or entry dropped, a key added, or a value replaced."""
    data = copy.deepcopy(valid)
    slots = _slots(data, [])
    action = draw(st.sampled_from(["drop", "add", "replace"]))
    if action == "add":
        objects = [data] + [c[k] for c, k in slots if isinstance(c[k], dict)]
        draw(st.sampled_from(objects))[draw(st.text(max_size=8))] = draw(JSON)
    else:
        container, key = draw(st.sampled_from(slots))
        if action == "drop":
            del container[key]
        else:
            container[key] = draw(JSON)
    return data


@settings(max_examples=300, deadline=None)
@given(mutated(files.jsonable(small_config(methods=METHODS))))
def test_malformed_config_raises_config_error(data):
    try:
        harness.ExperimentConfig.from_dict(data)
    except (ConfigError, DomainError):
        pass


ARTIFACT_FILES = [
    (RejectionSurface.load, small_surface(NuBinning.equal_width(1.0, 10.0, 2))),
    (RejectionSurface.load, small_surface(NuBinning.discrete((0, 2)))),
    (load_classifier, ANALYTIC),
    (load_classifier, HISTOGRAM),
]


@settings(max_examples=100, deadline=None)
@given(st.data())
@pytest.mark.parametrize("load, artifact", ARTIFACT_FILES, ids=["surface", "discrete-surface", "analytic", "histogram"])
def test_malformed_artifact_raises_config_error(tmp_path_factory, load, artifact, data):
    path = tmp_path_factory.getbasetemp() / "artifact.json"
    path.write_text(json.dumps(data.draw(mutated(files.jsonable(artifact)))))
    try:
        load(str(path))
    except (ConfigError, DomainError):
        pass
