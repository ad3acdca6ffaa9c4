"""rabi2q benchmark: one workload, timed or traced, with its output checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from ``src``.
Workloads, metric names and units are listed in ``BENCHMARK.json``.  Each
workload repeats one ``rabi2q`` command in this process through
``rabi2q.cli.main``, for ``--seconds`` seconds, and checks every call's
output (see ``workloads.py``).  Before any timing, ``rabi2q table1`` must
exit 0.

``--trace 0`` reports the end-to-end metrics: ``setup_s``, the median of
several fresh interpreters importing ``rabi2q.cli``, each scaled to a fixed
machine speed by a reference import of standard-library modules run just
before it; ``call_p50_ms``, the median wall time of the command;
``peak_rss_mb``, this process's peak resident memory.  ``--trace 1`` alternates untraced and traced calls and
reports per-layer metrics, per workload call, from the spans of the traced
ones (see ``tracing.py`` and ``layers.py``), with the import breakdown and
the tracing overhead; it writes the run's spans to ``.bench_out/``.

Program stdout and stderr are captured per call.  Warnings keep the default
filter, reset before each call as a fresh process would have it.  The last
line of stdout is the result as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, GateError  # noqa: E402

MIN_CALLS = 5
SETUP_REPEATS = 7
IMPORT_REPEATS = 3
# On a shared VM the speed of interpreter start-up and import drifts by a
# third over minutes.  Each set-up sample is therefore scaled by a fresh
# interpreter importing these standard-library modules just before it, to
# the speed at which that reference takes REFERENCE_IMPORT_S.
REFERENCE_IMPORT = (
    "import argparse, asyncio, csv, decimal, email.parser, http.client, json, unittest, "
    "xml.etree.ElementTree"
)
REFERENCE_IMPORT_S = 0.18
OUT_DIR = ".bench_out"
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)  # fmt: skip


class Call:
    """One captured run of a ``rabi2q`` command."""

    def __init__(self, cli, argv: list[str], on_warning=None):
        out, err = io.StringIO(), io.StringIO()
        # catch_warnings keeps the filters but clears every module's record
        # of warnings already shown, as in a fresh process.
        with (
            warnings.catch_warnings(),
            contextlib.redirect_stdout(out),
            contextlib.redirect_stderr(err),
        ):
            if on_warning is not None:
                show = warnings.showwarning

                def counted(message, category, *rest):
                    on_warning(category.__name__)
                    show(message, category, *rest)

                warnings.showwarning = counted
            start = time.perf_counter()
            self.code = cli.main(argv)
            self.seconds = time.perf_counter() - start
        self.stdout = out.getvalue()


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_vars": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def fresh_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def fresh_import(env: dict, code: str) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    return time.perf_counter() - start


def setup_once(env: dict) -> tuple[float, float]:
    """Wall time of a fresh interpreter importing ``rabi2q.cli``, raw and
    scaled by the reference import run just before it."""
    reference = fresh_import(env, REFERENCE_IMPORT)
    raw = fresh_import(env, "import rabi2q.cli")
    return raw, raw * REFERENCE_IMPORT_S / reference


def median_line(name: str, seconds: list[float]) -> str:
    return f"{name}: p50 {1e3 * statistics.median(seconds):.3f} ms over {len(seconds)} calls"


class Runner:
    def __init__(self, workload, seed: int, cli):
        self.workload = workload
        self.seed = seed
        self.argv = workload.argv(seed)
        self.cli = cli
        self.calls = 0
        self.failed_calls = 0
        self.rows = 0
        self.failed_rows = 0

    def run(self, on_warning=None) -> Call | None:
        """One call, checked; GateError if its output is wrong.

        A call that exits non-zero returns None, and every row it should
        have produced counts as failed.
        """
        call = Call(self.cli, self.argv, on_warning)
        self.calls += 1
        if call.code != 0:
            self.failed_calls += 1
            self.rows += self.workload.rows
            self.failed_rows += self.workload.rows
            return None
        try:
            rows, failed = self.workload.check(self.seed, call.stdout)
        except (GateError, ValueError, KeyError) as exc:
            self.failed_calls += 1
            raise GateError(f"{self.argv[0]} output: {exc}") from exc
        self.rows += rows
        self.failed_rows += failed
        return call


def timed(runner: Runner, seconds: float, env: dict) -> dict:
    """Repeat the command for ``seconds``, with the set-up samples spread
    evenly through the same window so both see the same machine."""
    runner.run()  # warm-up: fills caches and lazy state before timing
    calls, setups, attempts = [], [], 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(setups) < SETUP_REPEATS and elapsed >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(setup_once(env))
        elif elapsed < seconds or attempts < MIN_CALLS:
            attempts += 1
            call = runner.run()
            if call is not None:
                calls.append(call.seconds)
        else:
            break
    if not calls:
        raise GateError(f"all {attempts} timed calls exited non-zero")
    raw, scaled = zip(*setups)
    print(f"setup: raw median {statistics.median(raw):.4f} s of {[round(s, 4) for s in raw]}")
    print(f"setup_s: scaled median {statistics.median(scaled):.4f} s of {[round(s, 4) for s in scaled]}")
    print(median_line("call", calls))
    return {
        "setup_s": statistics.median(scaled),
        "call_p50_ms": 1e3 * statistics.median(calls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(runner: Runner, seconds: float, env: dict, out_path: Path) -> dict:
    imports = layers.import_breakdown(env, IMPORT_REPEATS)
    tracer = Tracer("rabi2q", layers.HOOKS)
    runner.run()  # warm-up
    plain, spans, per_call, attempts = [], [], [], 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or attempts < MIN_CALLS:
        attempts += 1
        untraced = runner.run()
        shown: dict[str, int] = {}
        first = len(tracer)
        tracer.install()
        try:
            call = runner.run(lambda category: shown.__setitem__(category, shown.get(category, 0) + 1))
        finally:
            tracer.uninstall()
        if untraced is None or call is None:
            continue  # a failed call's time and spans say nothing of the work
        plain.append(untraced.seconds)
        spans.append(call.seconds)
        metrics = layers.call_metrics(tracer.fold(first, len(tracer)))
        for category, metric in layers.WARNING_METRICS.items():
            metrics[metric] = shown.get(category, 0)
        per_call.append(metrics)
    if not per_call:
        raise GateError(f"none of {attempts} untraced and traced pairs both exited 0")
    print(median_line("untraced call", plain))
    print(median_line("traced call", spans))

    metrics = {key: float(np.median([m[key] for m in per_call])) for key in per_call[0]}
    metrics.update(imports)
    metrics["trace.call_p50_ms"] = 1e3 * statistics.median(spans)
    metrics["trace.untraced_call_p50_ms"] = 1e3 * statistics.median(plain)
    metrics["trace.overhead_ratio"] = statistics.median(spans) / statistics.median(plain)
    metrics["failed_frac"] = runner.failed_rows / runner.rows if runner.rows else 0.0
    write_spans(tracer, out_path)
    return metrics


def write_spans(tracer: Tracer, path: Path) -> None:
    """All spans of the run, one array per field, with the name table."""
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path,
        names=np.array(tracer.names),
        name=np.frombuffer(tracer.span_name, dtype=np.int64),
        parent=np.frombuffer(tracer.span_parent, dtype=np.int64),
        start=np.frombuffer(tracer.span_start),
        end=np.frombuffer(tracer.span_end),
        failed=np.array(sorted(tracer.failed), dtype=np.int64),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if not (src / "rabi2q" / "cli.py").is_file():
        print(f"no rabi2q sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from rabi2q import cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"rabi2q was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    print(f"environment: {json.dumps(environment())}")
    runner = Runner(WORKLOADS[args.workload], args.seed, cli)
    print(f"command: rabi2q {' '.join(runner.argv)}")
    env = fresh_env(src)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    correct = True
    metrics: dict[str, float] = {}
    try:
        table1 = Call(cli, ["table1"])
        if table1.code != 0:
            raise GateError(f"table1 exited {table1.code}")
        if args.trace:
            out = root / OUT_DIR / f"spans-{args.workload}.npz"
            metrics = traced(runner, args.seconds, env, out)
        else:
            metrics = timed(runner, args.seconds, env)
    except GateError as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        correct = False
    print(
        f"rows: {runner.rows} attempted, {runner.failed_rows} failed; "
        f"calls: {runner.calls} attempted, {runner.failed_calls} failed"
    )
    if args.trace:
        # A per-layer metric of a function that no longer exists reads 0.
        metrics = {m["name"]: metrics.get(m["name"], 0.0) for m in wanted}
    result = {
        "correct": correct,
        "attempted": max(runner.calls, 1),
        "failed": runner.failed_calls,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        }
        if correct
        else {},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
