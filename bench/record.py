"""Run every workload of BENCHMARK.json over several seeds and summarise.

    python3 bench/record.py --seeds 1-10 --out .bench_out/record.json

Run it from the root of a checkout.  For each workload it makes one untraced
run per seed and reports, per end-to-end metric, the values, their median,
quartiles and spread (interquartile distance over the median, with the
quartiles of ``statistics.quantiles(values, n=4)``), then one traced run at
seed 0 for the per-layer metrics.  The environment line of the first run is
kept with the summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )  # fmt: skip
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: output check failed\n{proc.stderr}")
    env = json.loads(lines[0].removeprefix("environment: "))
    return result, env


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    summary: dict = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            result, env = run(name, seed, spec["run_seconds"], 0)
            summary.setdefault("environment", env)
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        end_to_end = {}
        for metric, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            end_to_end[metric] = {
                "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "values": vals,
            }  # fmt: skip
            print(f"{name} {metric}: median {median:.6g}, spread {(q3 - q1) / median:.4f}", flush=True)
        traced, _ = run(name, 0, spec["run_seconds"], 1)
        per_layer = {metric: entry["value"] for metric, entry in traced["metrics"].items()}
        summary["workloads"][name] = {"end_to_end": end_to_end, "per_layer": per_layer}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
