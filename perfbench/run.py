#!/usr/bin/env python3
"""abelerg benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload is a closed loop with one client: requests run one after
another in this process (``abelerg.cli.main(argv)``), or for ``cold-start``
as ``python -m abelerg`` child processes.  The program sees only the matrix
files written during set-up and argv.  BLAS threads are pinned to one
before numpy loads.

With ``--trace 0`` the last stdout line carries the ``end_to_end`` metrics
named in BENCHMARK.json; with ``--trace 1`` it carries the ``per_layer``
metrics, with each request run untraced and then traced.  Times are
calibrated against a reference probe (see PROBE_NOMINAL_S).  The line
before the result is a JSON ``detail`` record: run environment, wall-clock
values, tail percentile and sample count, failure share and near-boundary
disagreements.  The program is imported from ``src/`` of the checkout;
without it the benchmark exits with code 2 and prints no result.
"""

import os

BLAS_THREADS = "1"
if __name__ == "__main__":   # before numpy loads; children inherit it
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import bisect  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
SPEC_PATH = ROOT / "BENCHMARK.json"

# The host's speed drifts by up to a factor of 1.7 over minutes on a shared
# 2-core VM, far more than a program change should be judged by.  A fixed
# reference probe runs between requests, at most every PROBE_EVERY_S, and
# each measured time is scaled by PROBE_NOMINAL_S / (median of the
# PROBE_WINDOW probes nearest to it).  A reported time thus reads as seconds
# on a host where the probe takes PROBE_NOMINAL_S, about this VM's usual
# speed.  The probe mixes what the workloads do (LAPACK SVDs, small numpy
# calls, plain Python) and is benchmark code, so no program change moves it.
# The detail line also carries the raw wall-clock values.
PROBE_NOMINAL_S = 0.0125
PROBE_EVERY_S = 0.2
PROBE_WINDOW = 5

SETUP_REPEATS = 3
CHILD_REPEATS = 3
CHILD_TIMEOUT_S = 120
TAIL_BEYOND = 10         # samples beyond the reported tail percentile
GL_NODES = 64            # the semigroup command's default --nodes


class SetupError(Exception):
    """The checkout cannot be benchmarked: no program source, bad spec."""


@dataclass
class Outcome:
    started: float   # perf_counter when the request was sent
    latency: float
    text: str        # report bytes, "" when the request failed
    report: dict     # parsed report, None when the request failed
    error: str       # None when the request and its check passed


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def load_program():
    """Import abelerg from this checkout's src/, never from elsewhere."""
    package = SRC / "abelerg"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"no program source at {package}")
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"abelerg.{name}")
               for name in spans.TRACED}
    origin = Path(modules["cli"].__file__).resolve()
    if package.resolve() not in origin.parents:
        raise SetupError(f"abelerg was imported from {origin}, not {package}")
    return modules


def load_spec(workload):
    if not SPEC_PATH.is_file():
        raise SetupError(f"missing {SPEC_PATH.name}")
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    if workload not in [w["name"] for w in spec["workloads"]]:
        raise SetupError(f"workload {workload!r} is not in {SPEC_PATH.name}")
    return spec


def run_child(cmd, timeout=CHILD_TIMEOUT_S):
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=WORKDIR, env=child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)
    return time.perf_counter() - start, proc


# ---------------------------------------------------------------------------
# Host speed calibration


class Calibration:
    """Times a fixed reference probe; see PROBE_NOMINAL_S."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._big = rng.normal(size=(96, 96)) + 1j * rng.normal(size=(96, 96))
        self._small = rng.normal(size=(6, 6)) + 0j
        self.ends = []      # perf_counter at the end of each probe
        self.samples = []   # probe durations

    def probe(self):
        start = time.perf_counter()
        for _ in range(2):
            np.linalg.svd(self._big, compute_uv=False)
        for _ in range(150):
            np.linalg.norm(self._small, 2)
        total = 0
        for i in range(30000):
            total += i * i
        end = time.perf_counter()
        self.ends.append(end)
        self.samples.append(end - start)

    def maybe_probe(self):
        """Probe if PROBE_EVERY_S has passed since the last probe."""
        if not self.ends or \
                time.perf_counter() - self.ends[-1] >= PROBE_EVERY_S:
            self.probe()

    def factor(self, at=None):
        """Multiply a time measured at perf_counter ``at`` by this to get
        reference seconds; ``at=None`` uses every probe of the run."""
        window = self.samples
        if at is not None:
            i = bisect.bisect(self.ends, at)
            lo = max(0, min(i - PROBE_WINDOW // 2,
                            len(self.samples) - PROBE_WINDOW))
            window = self.samples[lo:lo + PROBE_WINDOW]
        return PROBE_NOMINAL_S / statistics.median(window)


# ---------------------------------------------------------------------------
# Executing requests


class InProcess:
    """Requests as ``abelerg.cli.main(argv)`` calls in this process."""

    def __init__(self, modules):
        self.modules = modules
        self.tracer = spans.Tracer()

    def execute(self, request, out_path):
        argv = request.argv + ["--out", str(out_path)]
        cli = self.modules["cli"]   # looked up per call: may be traced
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse rejected the argv
            code = exc.code
        except Exception:  # noqa: BLE001 - a crash is a failed request
            return time.perf_counter() - start, traceback.format_exc()
        latency = time.perf_counter() - start
        return latency, None if code == 0 else f"exit code {code}"

    @contextmanager
    def traced(self):
        self.tracer.install(self.modules)
        try:
            yield
        finally:
            self.tracer.remove()

    def totals(self):
        return self.tracer.totals()


class ChildProcess:
    """Requests as ``python -m abelerg`` processes; traced, as traced_main."""

    def __init__(self):
        self.tracing = False
        self._totals = {}

    def execute(self, request, out_path):
        argv = request.argv + ["--out", str(out_path)]
        totals_path = WORKDIR / "child_totals.json"
        if self.tracing:
            cmd = [sys.executable, str(HERE / "traced_main.py"),
                   str(totals_path), *argv]
        else:
            cmd = [sys.executable, "-m", "abelerg", *argv]
        latency, proc = run_child(cmd)
        if proc.returncode != 0:
            return latency, (f"exit code {proc.returncode}: "
                             f"{proc.stderr.strip()[-500:]}")
        if self.tracing:
            spans.add_totals(self._totals,
                             json.loads(totals_path.read_text("utf-8")))
        return latency, None

    @contextmanager
    def traced(self):
        self.tracing = True
        try:
            yield
        finally:
            self.tracing = False

    def totals(self):
        return self._totals


def run_request(executor, request, out_path):
    started = time.perf_counter()
    latency, error = executor.execute(request, out_path)
    text, report = "", None
    if error is None:
        try:
            text = out_path.read_text(encoding="utf-8")
            report = json.loads(text)
            request.check(report)
        except (OSError, ValueError, KeyError, TypeError,
                workloads.CheckFailed) as exc:
            error = f"{type(exc).__name__}: {exc}"
    return Outcome(started, latency, text, report, error)


def run_pass(executor, requests, calibration):
    reports = WORKDIR / "reports"
    reports.mkdir(exist_ok=True)
    outcomes = []
    for i, req in enumerate(requests):
        calibration.maybe_probe()
        outcomes.append(run_request(executor, req, reports / f"{i}.json"))
    return outcomes


def run_paired(executor, requests, calibration):
    """Each request untraced, then at once traced, so that both see the
    same machine state: (untraced outcomes, traced outcomes).  Both write
    the same --out path, which some reports quote."""
    reports = WORKDIR / "reports"
    reports.mkdir(exist_ok=True)
    untraced, traced = [], []
    for i, req in enumerate(requests):
        calibration.maybe_probe()
        untraced.append(run_request(executor, req, reports / f"{i}.json"))
        with executor.traced():
            traced.append(run_request(executor, req, reports / f"{i}.json"))
    return untraced, traced


# ---------------------------------------------------------------------------
# Set-up


def import_time_child():
    """Seconds to import abelerg.cli in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import abelerg.cli; "
            "print(time.perf_counter() - t)")
    _, proc = run_child([sys.executable, "-c", code])
    if proc.returncode != 0:
        raise SetupError(f"import abelerg failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip())


def set_up(workload, modules, executor, seed, units, calibration):
    """One set-up: import (fresh interpreter), inputs, warm-up requests.

    Warm-up runs the first request of each traffic class in process, and
    only the first request for child processes, whose code paths start
    cold anyway; its time counts toward set-up, never toward the measured
    latencies.
    """
    calibration.probe()
    start = time.perf_counter()
    import_s = import_time_child()
    start_inputs = time.perf_counter()
    inputs = WORKDIR / "inputs"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    requests = workload.build(modules, seed, units, inputs)
    seen = set()
    for req in requests:
        if req.tag in seen or (seen and not workload.in_process):
            continue
        seen.add(req.tag)
        outcome = run_request(executor, req, WORKDIR / "warmup.json")
        if outcome.error is not None:
            raise SetupError(f"warm-up {req.argv} failed: {outcome.error}")
    return requests, start, import_s + time.perf_counter() - start_inputs


# ---------------------------------------------------------------------------
# Metrics


def tail(latencies):
    """The highest percentile with TAIL_BEYOND samples beyond it, that is
    the (TAIL_BEYOND + 1)-th largest latency: (value, percentile, beyond)."""
    ordered = sorted(latencies)
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    return (ordered[index], 100.0 * index / len(ordered),
            len(ordered) - 1 - index)


def peak_rss_mb(in_process):
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def import_profile():
    """import.abelerg_s and import.scipy_linalg_s from -X importtime, and
    startup.interpreter_s, each the median over CHILD_REPEATS interpreters."""
    abelerg_s, scipy_s, bare_s = [], [], []
    for _ in range(CHILD_REPEATS):
        _, proc = run_child([sys.executable, "-X", "importtime", "-c",
                             "import abelerg.cli"])
        if proc.returncode != 0:
            raise SetupError(f"import abelerg failed: {proc.stderr.strip()}")
        rows = []
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cumulative, name = line.split("|")
            rows.append((name[1:], int(cumulative) * 1e-6))
        top = next(name for name, _ in rows if name.strip() == "abelerg")
        depth = len(top) - len(top.lstrip())
        abelerg_s.append(sum(
            value for name, value in rows
            if len(name) - len(name.lstrip()) == depth
            and name.strip().split(".")[0] == "abelerg"))
        scipy_s.append(next(value for name, value in rows
                            if name.strip() == "scipy.linalg"))
        seconds, proc = run_child([sys.executable, "-c", "pass"])
        bare_s.append(seconds)
    return {"import.abelerg_s": statistics.median(abelerg_s),
            "import.scipy_linalg_s": statistics.median(scipy_s),
            "startup.interpreter_s": statistics.median(bare_s)}


def report_counters(requests, outcomes, expm_calls):
    """Per-layer values read from the reports of one pass."""
    panels = fine_nodes = disagreements = 0
    for req, out in zip(requests, outcomes):
        if out.report is None:
            continue
        if req.tag == "semigroup":
            panels += out.report["simpson_panels"]
            # nodes of the returned (finer) rules: Gauss-Laguerre 2m for the
            # average and for the power, Simpson 2 * (2 panels) + 1
            fine_nodes += 4 * GL_NODES + 4 * out.report["simpson_panels"] + 1
        if req.tag == "near-boundary" and not out.report["agree"]:
            disagreements += 1
    return {
        "semigroup.simpson_panels": panels,
        "semigroup.quadrature.useful_ratio":
            fine_nodes / expm_calls if expm_calls else 0.0,
        "certify.near_boundary.disagreements": disagreements,
    }


def environment(seed, nproc):
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def declared(metrics, entries):
    """The metrics BENCHMARK.json declares, in its order, with their units."""
    missing = [m["name"] for m in entries if m["name"] not in metrics]
    if missing:
        raise SetupError(f"no value for declared metrics {missing}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in entries}


def end_to_end(latencies, setups, failed, in_process):
    value, percentile, beyond = tail(latencies)
    metrics = {
        "throughput_rps": (len(latencies) - failed) / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": value,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(in_process),
    }
    return metrics, percentile, beyond


# ---------------------------------------------------------------------------


def seconds_by_class(requests, outcomes):
    out = {}
    for req, o in zip(requests, outcomes):
        count, total = out.get(req.tag, (0, 0.0))
        out[req.tag] = (count + 1, total + o.latency)
    return out


def failures(requests, outcomes):
    return [(req.argv, o.error) for req, o in zip(requests, outcomes)
            if o.error is not None]


def benchmark(args):
    spec = load_spec(args.workload)
    modules = load_program()
    workload = workloads.WORKLOADS[args.workload]
    executor = (InProcess(modules) if workload.in_process
                else ChildProcess())
    units = workload.units(args.seconds)
    calibration = Calibration()

    setups = []
    for _ in range(SETUP_REPEATS):
        requests, started, seconds = set_up(workload, modules, executor,
                                            args.seed, units, calibration)
        setups.append((started, seconds))

    start = time.perf_counter()
    if args.trace:
        outcomes, traced = run_paired(executor, requests, calibration)
    else:
        outcomes, traced = run_pass(executor, requests, calibration), []
    measured_s = time.perf_counter() - start
    latencies = [o.latency for o in outcomes]
    failed = failures(requests, outcomes) + failures(requests, traced)
    attempted = len(outcomes) + len(traced)
    detail = {
        "workload": args.workload, "trace": args.trace,
        "seconds": args.seconds, "units": units, "requests": len(requests),
        "measured_s": measured_s,
        "setup_repeats_s": [seconds for _, seconds in setups],
        "seconds_by_class": seconds_by_class(requests, outcomes),
        "near_boundary_disagreements": report_counters(
            requests, outcomes, 0)["certify.near_boundary.disagreements"],
        "probes": len(calibration.samples),
        "probe_median_s": statistics.median(calibration.samples),
        "environment": environment(args.seed, len(os.sched_getaffinity(0))),
    }
    differing = [req.argv for req, a, b in zip(requests, outcomes, traced)
                 if a.text != b.text]
    for argv in differing:
        print(f"traced report differs: {argv}", file=sys.stderr)
    if args.trace:
        totals = executor.totals()
        untraced_s = sum(latencies)
        traced_s = sum(o.latency for o in traced)
        metrics = dict(totals)
        metrics.update(report_counters(
            requests, traced, totals["linalg.matrix_exponential.calls"]))
        metrics.update(import_profile())
        factor = calibration.factor()
        for entry in spec["per_layer"]:
            if entry["unit"] == "s":
                metrics[entry["name"]] *= factor
        metrics["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
        if workload.in_process:
            detail["trace_self_time_share"] = sum(
                totals[f"{name}.self_s"] for name in spans.SPAN_NAMES
            ) / traced_s
        metrics = declared(metrics, spec["per_layer"])
    else:
        raw, _, _ = end_to_end(latencies, [s for _, s in setups],
                               len(failed), workload.in_process)
        metrics, percentile, beyond = end_to_end(
            [o.latency * calibration.factor(at=o.started) for o in outcomes],
            [s * calibration.factor(at=at) for at, s in setups],
            len(failed), workload.in_process)
        detail["latency_samples"] = len(latencies)
        detail["latency_tail_percentile"] = percentile
        detail["latency_tail_samples_beyond"] = beyond
        detail["wall_clock_metrics"] = raw
        metrics = declared(metrics, spec["end_to_end"])
    detail["failed_share"] = len(failed) / attempted
    for argv, error in failed:
        print(f"FAILED {argv}: {error}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not failed and not differing,
                      "attempted": attempted, "failed": len(failed),
                      "metrics": metrics}))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    WORKDIR.mkdir(exist_ok=True)
    try:
        benchmark(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
