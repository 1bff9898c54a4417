#!/usr/bin/env python3
"""Benchmark of the naps package: one workload per run, measured from outside.

Run from the repository root:

    python3 perfbench/run.py --workload analytic-readme --seed 1 --seconds 50 --trace 0

The program is imported from ``src/`` of the checkout the script sits in.
Calls are made in a closed loop by one caller: each call starts only after
the previous one returned, and the CLI subprocesses run one at a time.
BLAS/OpenMP pools are pinned to one thread, here and in every child.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
operations a fixed number of times with the naps modules wrapped by
``tracing.py`` and prints the per-layer metrics. The last line of standard
output is one JSON object: correct, attempted, failed and metrics. The
metric names and units are read from ``BENCHMARK.json`` at the repository
root. Everything else the run leaves goes to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import os

THREAD_PINS = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(THREAD_PINS)  # before numpy is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

PREDICT_BLOCK = 1000  # calls per p99 estimate: at least ten beyond the 99th percentile
PREDICT_CALLS = 2 * PREDICT_BLOCK
PREDICT_CHUNK_CALLS = 32  # four rounds, two with the CLI sequence, make 64 chunks: 2048 calls
PREDICT_CHUNK_S = 0.06  # where calls are cheap, this makes about five blocks of PREDICT_BLOCK
MIN_ROUNDS = 4  # every in-process timing gets at least this many samples per run
OVERHEAD_PAIRS = 3
CLI_TIMEOUT_S = 150
CLI_COMMANDS = ("simulate", "fit", "evaluate", "diagnose")


def import_naps():
    """Import naps from this checkout's ``src/``, never from elsewhere."""
    package = SRC / "naps"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no naps sources at {package}")
    sys.path.insert(0, str(SRC))
    import naps
    import naps.cli  # noqa: F401

    if Path(naps.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported naps from {naps.__file__}, expected {package}")
    return naps


class Run:
    """One workload at one seed: inputs, outputs, timings and the ledger."""

    def __init__(self, naps, workload: str, seed: int, trace: bool, scale: float = 1.0):
        self.naps = naps
        self.harness = naps.harness
        self.ledger = checks.Ledger()
        self.samples: dict[str, list[float]] = {}
        self.config_dict = workloads.WORKLOADS[workload](seed)
        if scale != 1.0:
            self.config_dict = workloads.scaled(self.config_dict, scale)
        self.n_predict = PREDICT_CALLS if scale == 1.0 else max(40, int(PREDICT_CALLS * scale))
        self.dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config_path = self.dir / "config.json"
        self.config_path.write_text(json.dumps(self.config_dict, indent=2, sort_keys=True), encoding="utf-8")
        self.config = self.harness.ExperimentConfig.from_dict(self.config_dict)
        self.methods = {m.name: m.kind for m in self.config.methods}
        self.evaluation = naps.genmodel.sample_dataset(
            self.config.generative("target"),
            self.config.n_evaluation,
            self.config.seed,
            stream_base=self.harness.STREAM_EVALUATION,
        )
        self.pipeline = None
        self.report = None
        self._classifier = None
        self.singles: list[tuple[int, float, tuple[int, ...]]] = []
        self.batches: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        self.cli_dirs = {cmd: self.dir / "cli" / cmd for cmd in CLI_COMMANDS}

    # -- timed operations -------------------------------------------------------

    def timed(self, metric: str | None, label: str, fn, *args):
        """Call ``fn``; record its wall time under ``metric``. Returns (seconds, result)."""
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a failed operation is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            self.ledger.fail(label, f"raised {exc!r}")
            return None, None
        elapsed = time.perf_counter() - start
        self.ledger.check(label, True)
        if metric is not None:
            self.samples.setdefault(metric, []).append(elapsed)
        return elapsed, result

    def setup(self) -> None:
        _, pipeline = self.timed("setup_s", "fit_pipeline", self.harness.fit_pipeline, self.config)
        if pipeline is not None:
            self.pipeline = pipeline

    def experiment(self, metric: str = "experiment_s") -> None:
        _, report = self.timed(metric, "run_experiment", self.harness.run_experiment, self.config)
        if report is not None:
            self.report = report

    def evaluate(self) -> None:
        self.timed("evaluate_s", "run_experiment_prefitted", self.harness.run_experiment, self.config, self.pipeline)

    def classifier(self):
        """The README's amortized classifier over the first fitted pipeline."""
        if self._classifier is None:
            provider = self.naps.FullSpaceProvider(space=self.config.train_prior.support)
            self._classifier = self.naps.NapsSetClassifier(
                model=self.pipeline.model, surfaces=self.pipeline.surfaces, providers={0: provider, 1: provider}
            )
        return self._classifier

    def predict_chunk(self, min_calls: int, min_seconds: float = 0.0, tracer=None) -> None:
        """Single-point predictions at successive evaluation points, alpha cycling.

        Runs at least ``min_calls`` calls and at least ``min_seconds``.
        """
        clf = self.classifier()
        alphas, xs = self.config.alphas, self.evaluation.x
        start, calls, latencies = time.perf_counter(), 0, []
        while calls < min_calls or time.perf_counter() - start < min_seconds:
            i = len(self.singles) + calls
            index, alpha = i % len(xs), alphas[i % len(alphas)]
            with self.root(tracer, f"predict#{i}"):
                elapsed, result = self.timed("predict_ms", "predict", clf.predict, xs[index], alpha)
            calls += 1
            if result is not None:
                latencies.append(elapsed * 1e3)
                self.singles.append((index, alpha, result.members))
        if len(latencies) >= PREDICT_CHUNK_CALLS:
            self.samples.setdefault("predict_chunk_p50_ms", []).append(statistics.median(latencies))

    def batch(self, alpha: float) -> None:
        elapsed, result = self.timed(None, "predict_batch", self.classifier().predict_batch, self.evaluation.x, alpha)
        if result is not None:
            self.samples.setdefault("batch_s", []).append(elapsed)
            self.batches[alpha] = (np.asarray(result.include0), np.asarray(result.include1))

    @staticmethod
    def root(tracer, run_id: str):
        return contextlib.nullcontext() if tracer is None else tracer.run(run_id)

    def cli_argv(self, command: str) -> list[str]:
        argv = [command, "--config", str(self.config_path), "--out", str(self.cli_dirs[command])]
        if command == "evaluate":
            argv += ["--models", str(self.cli_dirs["fit"])]
        return argv

    def cli_subprocesses(self, between=None) -> None:
        """The CLI sequence, each command in a fresh interpreter, one at a time.

        ``between()`` runs after each command but the last, outside the timing.
        """
        env = dict(os.environ, PYTHONPATH=str(SRC))
        times = {}
        for k, command in enumerate(CLI_COMMANDS):
            if k and between is not None:
                between()
            argv = [sys.executable, "-m", "naps.cli", *self.cli_argv(command)]
            start = time.perf_counter()
            try:
                proc = subprocess.run(
                    argv, cwd=self.dir, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S
                )
            except subprocess.TimeoutExpired:
                self.ledger.fail(f"cli.{command}", f"no exit within {CLI_TIMEOUT_S} s")
                return
            times[command] = time.perf_counter() - start
            if not self.ledger.check(f"cli.{command}", proc.returncode == 0, f"exit {proc.returncode}"):
                sys.stderr.write(proc.stderr[-2000:])
                return
        for command, elapsed in times.items():
            self.samples.setdefault(f"cli_subprocess.{command}_s", []).append(elapsed)
        self.samples.setdefault("cli_s", []).append(sum(times.values()))

    def cli_in_process(self) -> None:
        """The CLI sequence through ``naps.cli.main``, so that its layers are traced."""
        for command in CLI_COMMANDS:
            _, code = self.timed(f"cli.{command}_s", f"cli.{command}", self.naps.cli.main, self.cli_argv(command))
            if code not in (0, None):
                self.ledger.fail(f"cli.{command}", f"exit {code}")

    def import_time(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        for _ in range(3):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", "import naps.cli"], cwd=self.dir, env=env, capture_output=True,
                timeout=CLI_TIMEOUT_S,
            )
            elapsed = time.perf_counter() - start
            if self.ledger.check("cli.import", proc.returncode == 0, f"exit {proc.returncode}"):
                self.samples.setdefault("cli.import_s", []).append(elapsed)

    # -- output checks ----------------------------------------------------------

    def check_outputs(self) -> None:
        ledger = self.ledger
        alphas = self.config.alphas
        inproc_path = self.dir / "report.json"
        if self.report is None:
            ledger.fail("report", "no in-process report")
            return
        self.report.to_json(inproc_path)
        inproc = inproc_path.read_bytes()
        data = checks.strict_report(ledger, "report", inproc.decode("utf-8"), self.methods, alphas)
        if data is not None:
            checks.coverage(ledger, data, self.methods, alphas)
            if "naps" in self.methods:
                checks.batch_matches_report(ledger, self.evaluation.y, self.batches, data)
        cli_report = self.cli_dirs["evaluate"] / "report.json"
        if cli_report.is_file():
            cli_bytes = cli_report.read_bytes()
            checks.strict_report(ledger, "cli_report", cli_bytes.decode("utf-8"), self.methods, alphas)
            checks.identical_bytes(ledger, "cli_report_bytes", cli_bytes, inproc)
        else:
            ledger.fail("cli_report", "naps evaluate wrote no report.json")
        checks.predict_matches_batch(ledger, self.singles, self.batches)
        self.check_posterior()

    def check_posterior(self) -> None:
        cfg, model = self.config_dict, self.pipeline.model
        gm = self.naps.genmodel
        if cfg["scenario"] == gm.SCENARIO_DISCRETE:
            rates = {(y, j): gm.toy_rates(y, j) for y in (0, 1) for j in range(gm.TOY_N_PROTOCOLS)}
            probes = checks.toy_probes(rates)
            want = checks.toy_reference(probes, cfg["class1_probability"], cfg["train_prior"]["weights"], rates)
        elif cfg["classifier"] == "histogram":
            n_bins = self.config.histogram_bins
            train = gm.sample_dataset(
                self.config.generative("train"), self.config.n_train, self.config.seed,
                stream_base=self.harness.STREAM_TRAIN,
            )
            probes = checks.histogram_probes(n_bins)
            want = checks.histogram_reference(probes, train.x, train.y, n_bins)
        else:
            probes = checks.analytic_probes()
            want = [checks.analytic_reference(x, cfg["class1_probability"], cfg["train_prior"]) for x in probes]
        _, got = self.timed(None, "posterior1_probes", model.posterior1, probes)
        if got is not None:
            checks.posterior_matches(self.ledger, "posterior1_reference", got, want)

    def quality(self) -> dict[str, float]:
        """Readouts of the in-process report that no change is judged on."""
        data = self.report.data["methods"]
        alpha = repr(0.1)
        power = data["naps"]["alphas"][alpha]["marginal"]["power"]
        margins = []
        for name, kind in self.methods.items():
            if kind != "naps":
                continue
            for a in self.config.alphas:
                seg = data[name]["alphas"][repr(float(a))]["marginal"]
                margins.append((seg["coverage"] - (1.0 - a)) / (a * (1.0 - a) / seg["n"]) ** 0.5)
        return {"harness.naps_power": power, "harness.naps_coverage_margin_se": min(margins)}


def round_ops(run: Run, cli, k: int) -> list:
    """Round ``k``: every operation once, ``predict_batch`` three times.

    The batches start at the ``k``-th alpha and cycle through the alphas.
    Repeated operations are spread over the round, the long CLI sequence in
    its middle, so that their samples fall in different stretches of a
    machine whose speed changes every few seconds.
    """
    alphas = run.config.alphas
    b0, b1, b2 = (functools.partial(run.batch, alphas[(k + j) % len(alphas)]) for j in range(3))
    return [run.setup, b0, run.experiment, b1, cli, run.evaluate, b2]


def _name(op) -> str:
    return getattr(op, "__name__", None) or op.func.__name__


def _require_pipeline(run: Run) -> None:
    if run.pipeline is None:
        raise SystemExit("perfbench: fit_pipeline failed; nothing to measure")


def measure(run: Run, seconds: float) -> dict[str, float]:
    """End-to-end metrics, tracing off.

    At least ``MIN_ROUNDS`` rounds run, so that every in-process timing has
    that many samples; more run while another round, as long as the longest
    so far, still ends within ``seconds``. The CLI sequence runs in even
    rounds only: at about 9 s it is the longest operation, and a run with
    more of them would push the benchmark past the time its runs may take
    in all. Two short chunks of single-point predictions follow each
    operation and each CLI command, so that every metric samples the whole
    run.

    The machine is shared and switches every few seconds between a fast
    state and one up to about 1.8x slower. A median over a run's samples
    would jump with the share of the run spent slow, so each timing is the
    fastest of its samples, the one least disturbed by other load: the
    median latency is that of the fastest chunk, and the 99th percentile
    that of the fastest block of at least ``PREDICT_BLOCK`` consecutive
    calls. The CLI sequence is the sum of each command's fastest run. Two
    figures are averages instead: batch throughput is points over the mean
    time of its twelve or more calls, which held steadier over ten runs
    than the fastest call; set-up reports the median of its samples, the
    usual figure for a set-up time.
    """
    def chunk() -> None:
        for _ in range(2):
            run.predict_chunk(PREDICT_CHUNK_CALLS, PREDICT_CHUNK_S)

    cli = functools.partial(run.cli_subprocesses, chunk)
    start, k, longest = time.perf_counter(), 0, 0.0
    while k < MIN_ROUNDS or time.perf_counter() - start + longest <= seconds:
        round_start = time.perf_counter()
        for op in round_ops(run, cli, k):
            if op is cli and k % 2:
                continue
            op()
            _require_pipeline(run)
            chunk()
        longest = max(longest, time.perf_counter() - round_start)
        k += 1
    run.predict_chunk(run.n_predict - len(run.singles))
    run.check_outputs()

    rss_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    run.samples["peak_rss_mb"] = [rss_kib / 1024.0]
    return {
        "setup_s": _median(run, "setup_s"),
        "experiment_s": _fastest(run, "experiment_s"),
        "evaluate_s": _fastest(run, "evaluate_s"),
        "predict_p50_ms": _fastest(run, "predict_chunk_p50_ms"),
        "predict_p99_ms": _fastest_p99_ms(_samples(run, "predict_ms")),
        "batch_points_per_s": len(run.evaluation) / statistics.mean(_samples(run, "batch_s")),
        "cli_s": sum(_fastest(run, f"cli_subprocess.{command}_s") for command in CLI_COMMANDS),
        "peak_rss_mb": run.samples["peak_rss_mb"][0],
    }


def tracing_overhead(run: Run) -> float:
    """Median traced minus median untraced ``run_experiment``, warm, alternating.

    The calls are traced into a tracer of their own, so that the per-layer
    metrics keep covering exactly one round.
    """
    for k in range(2 * OVERHEAD_PAIRS):
        traced = k % 4 in (1, 2)  # untraced, traced, traced, untraced, ...
        tracer = tracing.Tracer()
        if traced:
            tracing.install(tracer, run.naps)
        try:
            run.experiment("traced_experiment_s" if traced else "untraced_experiment_s")
        finally:
            tracer.unpatch()
    return _median(run, "traced_experiment_s") - _median(run, "untraced_experiment_s")


def measure_traced(run: Run) -> dict[str, float]:
    """Per-layer metrics: one round, fixed prediction counts, all traced."""
    tracer = tracing.Tracer()
    tracing.install(tracer, run.naps)
    try:
        ops = round_ops(run, run.cli_in_process, 0)
        per_chunk = -(-run.n_predict // len(ops))
        for k, op in enumerate(ops):
            with run.root(tracer, f"{_name(op)}#{k}"):
                op()
            _require_pipeline(run)
            run.predict_chunk(per_chunk, tracer=tracer)
        if run.report is None:
            raise SystemExit("perfbench: run_experiment failed; nothing to measure")
        with run.root(tracer, "report_write#0"):
            run.report.to_json(run.dir / "report.json")
    finally:
        tracer.unpatch()
    tracer.write(str(run.dir / "spans.jsonl"))
    overhead = tracing_overhead(run)
    run.import_time()
    run.check_outputs()

    metrics = {name + ".self_s": value for name, value in tracer.self_times().items()}
    metrics.update({name: float(value) for name, value in tracer.counts.items()})
    calls = tracer.counts["nuisance.region.calls"]
    distinct = len(tracer.distinct["nuisance.region"])
    metrics["nuisance.region.distinct"] = float(distinct)
    metrics["nuisance.region.useful_frac"] = distinct / calls if calls else 0.0
    metrics.update(run.quality())
    for command in CLI_COMMANDS:
        metrics[f"cli.{command}_s"] = _median(run, f"cli.{command}_s")
    metrics["cli.import_s"] = _median(run, "cli.import_s")
    metrics["trace.overhead_s"] = overhead
    metrics["failed_frac"] = run.ledger.failed_frac
    return metrics


def _samples(run: Run, metric: str) -> list[float]:
    values = run.samples.get(metric)
    if not values:
        raise SystemExit(f"perfbench: no successful sample of {metric}")
    return values


def _median(run: Run, metric: str) -> float:
    return float(statistics.median(_samples(run, metric)))


def _fastest(run: Run, metric: str) -> float:
    return float(min(_samples(run, metric)))


def _fastest_p99_ms(latencies_s: list[float]) -> float:
    """The lowest 99th percentile over blocks of at least PREDICT_BLOCK consecutive calls."""
    blocks = np.array_split(np.asarray(latencies_s), max(1, len(latencies_s) // PREDICT_BLOCK))
    return float(min(np.percentile(block, 99) for block in blocks)) * 1e3


def environment(seed: int) -> dict:
    import numpy
    import scipy

    def command_output(argv, **kwargs):
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=30, **kwargs)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    caches = {}
    for key in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        value = command_output(["getconf", key])
        caches[key.lower()] = int(value) if value and value.isdigit() else None
    # The checkout may not be a git repository; never look above it.
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cache_bytes": caches,
        "thread_pins": THREAD_PINS,
        "git_commit": command_output(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env),
        "seed": seed,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="multiply dataset sizes (self-tests only; measured runs use 1)"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    naps = import_naps()
    run = Run(naps, args.workload, args.seed, bool(args.trace), args.scale)
    metrics = measure_traced(run) if args.trace else measure(run, args.seconds)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise SystemExit(f"perfbench: BENCHMARK.json names metrics this run does not measure: {missing}")

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "scale": args.scale,
        "config": run.config_dict,
        "environment": environment(args.seed),
        "byte_counts": "computed from the sizes of the files written or read, not measured device I/O",
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "samples": {
            name: {
                "n": len(values), "min": min(values), "median": statistics.median(values), "max": max(values),
                "values": values,
            }
            for name, values in sorted(run.samples.items())
        },
        "attempted": run.ledger.attempted,
        "failures": run.ledger.failures,
    }
    (run.dir / "record.json").write_text(json.dumps(record, indent=2, sort_keys=True), encoding="utf-8")
    shutil.rmtree(run.dir / "cli", ignore_errors=True)  # checked already; the datasets are large

    sample_of = {"predict_p50_ms": "predict_chunk_p50_ms", "predict_p99_ms": "predict_ms", "batch_points_per_s": "batch_s"}
    for name, unit in units.items():
        n = len(run.samples.get(sample_of.get(name, name), []))
        print(f"{name:<40} {metrics[name]:>16.6g} {unit:<9} {f'n={n}' if n else ''}")
    print(f"{run.ledger.failed} of {run.ledger.attempted} operations failed (failed_frac {run.ledger.failed_frac:.6g})")
    for failure in run.ledger.failures[:20]:
        print(f"FAILED {failure}")
    print(f"record: {run.dir / 'record.json'}")
    print(
        json.dumps(
            {
                "correct": run.ledger.failed == 0,
                "attempted": run.ledger.attempted,
                "failed": run.ledger.failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
