"""Record the per-layer baseline table in ``baseline.json``.

    python3 perfbench/baseline.py

Runs ``run.py --trace 1`` once per workload at the shipped seed, for twice
the ``run_seconds`` of ``BENCHMARK.json`` so that several traced runs and
untraced runs go into each median, and stores the layer rates the
roadmap tracks (increments/s, Euler leg-steps/s coupled and single-leg,
density points/s on the spline and on the tail series, mollifier cache
build time, time per frozen-distance evaluation, time per
generator-identity evaluation) with every per-layer metric, the machine,
and the SHA-256 of each workload step's effective config, so that later
changes can show both the trajectory and its context.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys

import run
from workloads import WORKLOADS

# roadmap rate -> (workload it is read from, per-layer metric)
RATES = {
    "increments_per_s": ("euler", "stable.sample_increments.rate"),
    "euler_leg_steps_per_s_coupled": (
        "euler", "simulate.simulate_coupled.leg_steps_per_s"),
    "euler_leg_steps_per_s_single_leg": (
        "euler", "simulate.simulate_baseline_average.leg_steps_per_s"),
    "density_spline_points_per_s": ("density", "stable.density_grid.spline_rate"),
    "density_tail_points_per_s": ("density", "stable.density_grid.tail_rate"),
    "mollifier_cache_build_s": ("density", "mollifier.cache_build_s"),
    "frozen_distance_eval_s": ("density", "measures.distance_frozen.per_call_s"),
    "generator_identity_eval_s": (
        "density", "mollifier.certify_komatsu.per_theta_s"),
}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def config_hashes(cli, workload) -> dict:
    """Step label -> SHA-256 of the effective config (shipped file plus the
    benchmark's overrides, at the shipped seed)."""
    out = {}
    for step in workload.steps:
        overrides = [item.split("=", 1) for item in step.overrides]
        cfg = cli.load_config(str(run.ROOT / step.config), overrides)
        text = json.dumps(cfg, sort_keys=True)
        out[step.label] = hashlib.sha256(text.encode()).hexdigest()
    return out


def main() -> int:
    seconds = 2 * json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    sys.path.insert(0, str(run.ROOT / "src"))
    import numpy
    import scipy
    import stablesde.cli as cli

    per_layer, workloads = {}, {}
    for name, workload in WORKLOADS.items():
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", name,
             "--seconds", str(seconds), "--trace", "1"],
            cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"traced run of {name} failed", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        per_layer[name] = {k: v["value"] for k, v in result["metrics"].items()}
        workloads[name] = {"config_sha256": config_hashes(cli, workload),
                           "runs": result["attempted"],
                           "correct": result["correct"]}
    table = {
        "machine": {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
                    "python": platform.python_version(),
                    "numpy": numpy.__version__, "scipy": scipy.__version__},
        "source_sha256": run.source_hash(),
        "seconds": seconds,
        "rates": {rate: {"value": per_layer[w][m], "workload": w, "metric": m}
                  for rate, (w, m) in RATES.items()},
        "workloads": workloads,
        "per_layer": per_layer,
    }
    (run.HERE / "baseline.json").write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
