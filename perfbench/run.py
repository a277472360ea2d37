"""stablesde benchmark: time user runs of the CLI end to end, check their
output bytes, and (traced) break the time down by layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

``--seconds`` defaults to the ``run_seconds`` of ``BENCHMARK.json``.

Run it from the root of a source checkout; it imports ``stablesde`` from
``src/`` and writes only under ``.perfbench/``. Workloads are defined in
``workloads.py``; ``BENCHMARK.json`` names the metrics and their units.

Each measured run is a closed loop of one client: a fresh interpreter
(``child.py``) imports ``stablesde`` and calls ``stablesde.cli.main`` on the
workload's configs, and the next run starts when it has exited. Runs start
until the next one would end after ``--seconds``; at least one always runs.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median time from
the first CLI entry call to the last exit, import excluded), ``setup_s``
(median time from interpreter start to ``import stablesde`` complete, over
every run plus import-only probes that fill the time left after the last
run, at least five samples), ``peak_rss_mb`` (median peak resident memory of
a run) and ``ok_fraction`` (runs that passed the output check / runs
attempted; the complement of the failed fraction, which reads 0 and so
cannot carry a relative bound). ``attempted`` is the number of runs, so it
is also the sample count of the medians.

``--trace 1`` alternates untraced and traced runs and reports the per-layer
metrics of ``spans.summarize`` (medians over traced runs), the process CPU
time of the untraced runs, and ``trace.overhead_s``: the median, over the
traced runs, of a traced ``wall_s`` minus the mean of the untraced runs just
before and after it, so that host speed drifting across the loop cancels.
It fails, exiting 1, if a layer the workload is expected to exercise records
no call, or if any span's self time is negative.

Output check, on every run: every step exits 0, every ``report.json`` row
passes, and the SHA-256 of every output file matches the reference. The
reference is the digest pinned in ``digests.json`` for the workload and seed
(``default`` is the shipped seed); for a seed with no pinned digest it is
the first run's digests for this source tree, kept in ``.perfbench/ref/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
PINNED = HERE / "digests.json"
MIN_SETUP_SAMPLES = 5
RUN_TIMEOUT_S = 120.0


def source_hash() -> str:
    """SHA-256 over the program sources and shipped configs."""
    h = hashlib.sha256()
    for top in ("src", "configs"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode() + b"\0")
                h.update(path.read_bytes())
    return h.hexdigest()


def digest_tree(out: Path) -> dict:
    """Relative path -> SHA-256 of every file under out."""
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def output_problems(out: Path, rcs, reference: dict | None) -> list:
    """Why a run's outputs are not correct; empty when they are."""
    problems = [f"step {i} exited {rc}" for i, rc in enumerate(rcs) if rc != 0]
    for report in sorted(out.rglob("report.json")):
        rows = json.loads(report.read_text())["checks"]
        problems += [f"{report.relative_to(out)}: check {r['check_id']} failed"
                     for r in rows if not r["passed"]]
    if reference is not None:
        got = digest_tree(out)
        for name in sorted(set(got) | set(reference)):
            if got.get(name) != reference.get(name):
                problems.append(f"{name}: digest differs from the reference")
    return problems


class Reference:
    """The digests a workload's outputs must match for one seed."""

    def __init__(self, workload: str, seed_key: str):
        pinned = json.loads(PINNED.read_text()) if PINNED.exists() else {}
        self.digests = pinned.get(workload, {}).get(seed_key)
        self.path = WORK / "ref" / f"{workload}-{seed_key}.json"
        self.source = hashlib.sha256(
            (source_hash() + repr(WORKLOADS[workload])).encode()).hexdigest()
        if self.digests is None and self.path.exists():
            saved = json.loads(self.path.read_text())
            if saved["source"] == self.source:
                self.digests = saved["digests"]

    def adopt(self, out: Path) -> None:
        """Make a run's digests the reference if none is pinned or saved."""
        if self.digests is None:
            self.digests = digest_tree(out)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(json.dumps(
                {"source": self.source, "digests": self.digests}, indent=1))


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(extra: list) -> dict | None:
    """Start child.py, wait for it, and return its result (None on failure)."""
    result = WORK / "result.json"
    result.unlink(missing_ok=True)
    launch = time.time()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), repr(launch), str(result)]
            + extra, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"benchmark process killed after {RUN_TIMEOUT_S} s\n")
        return None
    if proc.returncode != 0 or not result.exists():
        sys.stderr.write(f"benchmark process exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}\n")
        return None
    return json.loads(result.read_text())


def measure(name: str, seed: int | None, seconds: float, trace: bool):
    """Run the closed loop for about ``seconds``; return (run results,
    set-up samples, failed runs, attempted runs)."""
    workload = WORKLOADS[name]
    seed_key = str(seed) if workload.seeded and seed is not None else "default"
    reference = Reference(name, seed_key)
    out = WORK / "out" / name
    deadline = time.perf_counter() + seconds

    sources = (ROOT / "src" / "stablesde").glob("*.py")
    if not all(Path(importlib.util.cache_from_source(str(p))).exists()
               for p in sources):
        if spawn([]) is None:  # byte-compiles the sources, untimed
            raise SystemExit(1)
    setup, runs, durations, failed = [], [], [], 0
    while (len(durations) < 1 + trace
           or time.perf_counter() + statistics.median(durations) <= deadline):
        traced = trace and len(runs) % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        t0 = time.perf_counter()
        res = spawn([name, str(out), "-" if seed is None else str(seed),
                     "1" if traced else "0"])
        durations.append(time.perf_counter() - t0)
        problems = (["benchmark process failed"] if res is None
                    else output_problems(out, res["rcs"], reference.digests))
        if problems:
            failed += 1
            sys.stderr.write(f"{name} run {len(runs)}: " + "; ".join(problems) + "\n")
        else:
            reference.adopt(out)
        if res is not None:
            res["traced"] = traced
            runs.append(res)
            setup.append(res["setup_s"])
        if traced and res is not None:
            shutil.copyfile(WORK / "result.json.spans.json",
                            WORK / f"spans-{name}.json")
    # the time left, too short for another run, takes set-up probes
    while not trace and (len(setup) < MIN_SETUP_SAMPLES or time.perf_counter()
                         + statistics.median(setup) <= deadline):
        probe = spawn([])
        if probe is None:
            raise SystemExit(1)
        setup.append(probe["setup_s"])
    return runs, setup, failed, len(durations)


def coverage_problems(name: str, traced_runs) -> list:
    """Expected layers that recorded no call, and negative self times."""
    problems = []
    for layer in WORKLOADS[name].expected_layers:
        if any(r["trace"][f"{layer}.calls"] == 0 for r in traced_runs):
            problems.append(f"layer {layer} recorded no call on {name}")
    if any(r["trace"]["trace.min_self_s"] < -1e-9 for r in traced_runs):
        problems.append(f"a span on {name} has a negative self time")
    return problems


def trace_overhead(runs) -> float:
    """Median of each traced wall_s minus the mean of its untraced
    neighbours in the loop."""
    diffs = []
    for i, r in enumerate(runs):
        near = [runs[j]["wall_s"] for j in (i - 1, i + 1)
                if 0 <= j < len(runs) and not runs[j]["traced"]]
        if r["traced"] and near:
            diffs.append(r["wall_s"] - statistics.mean(near))
    return statistics.median(diffs)


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "stablesde" / "__init__.py").is_file() \
            or not (ROOT / "configs").is_dir() or not spec_path.is_file():
        print(f"no stablesde source checkout at {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed, passed as --set sim.seed=N "
                             "(default: the shipped seed)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    WORK.mkdir(exist_ok=True)

    runs, setup, failed, attempted = measure(
        args.workload, args.seed, args.seconds, bool(args.trace))
    plain = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    if not plain or (args.trace and not traced):
        print("no run produced measurements", file=sys.stderr)
        return 1

    def median(key, rs):
        return statistics.median(r[key] for r in rs)

    if args.trace:
        problems = coverage_problems(args.workload, traced)
        if problems:
            print("wrap-coverage check failed:\n  " + "\n  ".join(problems),
                  file=sys.stderr)
            return 1
        values = {k: statistics.median(r["trace"][k] for r in traced)
                  for k in traced[0]["trace"]}
        values["process.cpu_s"] = median("cpu_s", plain)
        values["process.cpu_util"] = values["process.cpu_s"] / median("wall_s", plain)
        values["trace.overhead_s"] = trace_overhead(runs)
        declared = spec["per_layer"]
    else:
        values = {"wall_s": median("wall_s", plain),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": median("peak_rss_mb", plain),
                  "ok_fraction": (attempted - failed) / attempted}
        declared = spec["end_to_end"]

    metrics = {}
    for m in declared:
        if m["name"] not in values:
            print(f"BENCHMARK.json metric {m['name']} is not measured",
                  file=sys.stderr)
            return 2
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    for key, m in metrics.items():
        print(f"{key:48s} {m['value']:.6g} {m['unit']}")
    print(f"outputs correct: {failed == 0} ({attempted - failed}/{attempted} runs)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
