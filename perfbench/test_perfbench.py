"""Tests of the benchmark itself: the output gate, the span arithmetic and
the wrapping of layer functions.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _write_outputs(out: Path, passed=True):
    (out / "plotdata").mkdir(parents=True)
    (out / "results.csv").write_text("a,b\n1,2\n")
    (out / "plotdata" / "x.tsv").write_text("# x\ty\n1\t2\n")
    (out / "report.json").write_text(json.dumps(
        {"checks": [{"check_id": "c", "passed": passed}]}))


def test_output_gate_counts_a_perturbed_byte(tmp_path):
    _write_outputs(tmp_path)
    reference = run.digest_tree(tmp_path)
    assert run.output_problems(tmp_path, [0], reference) == []
    data = bytearray((tmp_path / "plotdata" / "x.tsv").read_bytes())
    data[-2] ^= 1
    (tmp_path / "plotdata" / "x.tsv").write_bytes(bytes(data))
    assert run.output_problems(tmp_path, [0], reference) == [
        "plotdata/x.tsv: digest differs from the reference"]


def test_output_gate_counts_missing_files_exit_codes_and_failed_checks(tmp_path):
    _write_outputs(tmp_path, passed=False)
    reference = dict(run.digest_tree(tmp_path), **{"tails.csv": "0" * 64})
    problems = run.output_problems(tmp_path, [0, 1], reference)
    assert "step 1 exited 1" in problems
    assert "report.json: check c failed" in problems
    assert "tails.csv: digest differs from the reference" in problems


def test_measure_counts_a_perturbed_output_byte_as_failed(monkeypatch):
    """A real density run, one byte of its output flipped before the check."""
    check = run.output_problems

    def flip_then_check(out, rcs, reference):
        path = out / "density" / "results.csv"
        data = bytearray(path.read_bytes())
        data[-2] ^= 1
        path.write_bytes(bytes(data))
        return check(out, rcs, reference)

    monkeypatch.setattr(run, "output_problems", flip_then_check)
    runs, _, failed, attempted = run.measure("density", None, 0.0, False)
    assert attempted == failed == len(runs) == 1


def test_self_time_subtracts_the_union_of_children_clipped_to_the_span():
    s = [[0, "a", None, 0.0, 10.0],
         [1, "b", 0, 1.0, 4.0],
         [2, "c", 0, 3.0, 5.0],      # overlaps b: union is [1, 5]
         [3, "d", 0, 9.0, 12.0],     # runs past its parent: clipped to [9, 10]
         [4, "e", 1, 1.0, 2.0]]
    self_s = spans.self_times(s)
    assert self_s == {0: 5.0, 1: 2.0, 2: 2.0, 3: 3.0, 4: 1.0}
    m = spans.summarize(s, {})
    assert m["trace.min_self_s"] >= 0.0 and m["trace.spans"] == 5


def test_per_theta_time_leaves_out_a_nested_cache_build():
    s = [[0, "mollifier.certify_komatsu", None, 0.0, 10.0],
         [1, "stable.generator_apply", 0, 0.0, 8.0],
         [2, "mollifier.cache_build", 1, 0.0, 6.0],
         [3, "stable.generator_apply", 0, 8.0, 10.0]]
    m = spans.summarize(s, {"mollifier.certify_komatsu.thetas": 2})
    assert m["mollifier.certify_komatsu.per_theta_s"] == 2.0
    assert m["stable.generator_apply.per_call_s"] == 2.0
    assert m["mollifier.cache_build_s"] == 6.0


def test_every_declared_per_layer_metric_is_measured():
    produced = set(spans.summarize([], {})) | {
        "process.cpu_s", "process.cpu_util", "trace.overhead_s"}
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert declared <= produced
    for w in WORKLOADS.values():
        for layer in w.expected_layers:
            assert f"{layer}.calls" in produced


def test_trace_overhead_cancels_a_linear_drift():
    walls = [10.0, 10.5, 9.0, 9.5, 8.0]   # host speeds up by 0.5 s a run
    runs = [{"wall_s": w, "traced": i % 2 == 1} for i, w in enumerate(walls)]
    assert run.trace_overhead(runs) == 1.0


def test_coverage_check_reports_a_layer_with_no_calls():
    trace = spans.summarize([], {})
    problems = run.coverage_problems("euler", [{"trace": trace}])
    assert "layer simulate.simulate_coupled recorded no call on euler" in problems


def test_install_patches_every_binding_callers_use():
    code = (
        "import stablesde, stablesde.cli, spans\n"
        "import stablesde.simulate as sim, stablesde.measures as mea, "
        "stablesde.stable as st, stablesde.mollifier as mo\n"
        "orig = st.sample_increments\n"
        "t = spans.Tracer(); spans.install(t)\n"
        "assert sim.sample_increments is not orig\n"
        "assert sim.sample_increments is st.sample_increments\n"
        "assert mea.density_grid is st.density_grid is not None\n"
        "assert mea.density_grid.__wrapped__ is not None\n"
        "assert stablesde.cli.moll.build_mollifier is mo.build_mollifier\n"
        "law = st.make_stable_law(1.5)\n"
        "rs = stablesde.RngStream(1)\n"
        "sim.sample_increments(law, 0.01, (3, 4), rs.substream('x', 0))\n"
        "assert t.counts['stable.sample_increments.increments'] == 12\n"
        "names = [s[1] for s in t.spans]\n"
        "assert names == ['rng.substream', 'stable.sample_increments'], names\n"
    )
    env = dict(run._child_env())
    env["PYTHONPATH"] += ":" + str(run.HERE)
    proc = subprocess.run([sys.executable, "-c", code], cwd=run.ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_seed_reaches_only_the_seeded_steps():
    steps = {step.label: step.argv("out", 7) for step in WORKLOADS["euler"].steps}
    assert steps["converge"][-1] == steps["empirical"][-1] == "sim.seed=7"
    assert not any(a.startswith("sim.seed=") for a in steps["sweep"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_declared_workloads_exist(name):
    assert name in {w["name"] for w in SPEC["workloads"]}
    for step in WORKLOADS[name].steps:
        assert (run.ROOT / step.config).is_file()
