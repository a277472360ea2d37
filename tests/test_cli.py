"""Config-driven CLI: strict parsing, exit codes, deterministic outputs."""

import contextlib
import copy
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablesde import cli, coefficients, mollifier, simulate
from stablesde.cli import _COMMANDS, _SCHEMA, load_config, main
from stablesde.errors import REQUIRED, Checked, ConfigError, DomainError, NumericError
from stablesde.rates import RateBoundSpec, SweepResult, SweepRow
from stablesde.report import validate_report


def write_cfg(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
BASE_SIM = {"T": 1.0, "n_steps": 32, "n_paths": 512, "seed": 11}

TINY_SIM = {"T": 1.0, "n_steps": 4, "n_paths": 16, "seed": 5}
# one small valid config per command; each passes
TINY = {
    "certify-mollifier": {"law": {"alpha": 1.5}, "mollifier": {"eps": 0.1, "delta": 4.0},
                          "certify": {"grid_points": 11, "komatsu_points": 2}},
    "certify-density": {"law": {"alpha": 1.5}},
    "distances": {"law": {"alpha": 1.5},
                  "coefficients": {"name": "drift_bump", "params": {"amp": 0.2}},
                  "distances": {"T": 1.0, "model": "frozen_plain", "time_nodes": 2,
                                "sup_points": 11}},
    "simulate": {"law": {"alpha": 1.5}, "coefficients": {"name": "identical"},
                 "sim": TINY_SIM},
    "sweep": {"law": {"alpha": 1.5}, "sim": TINY_SIM,
              "sweep": {"family": "initial_value", "params": {"gaps": [0.2, 0.1]}}},
    "converge": {"law": {"alpha": 1.5}, "sim": TINY_SIM,
                 "converge": {"family": "drift_mollification",
                              "params": {"n_stop": 2}}},
}


def run_quiet(argv):
    """main(argv) with stdout and stderr captured: (exit code, stderr lines)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    return rc, err.getvalue().splitlines()


class TestPrintBound:
    def test_holder_values(self, capsys):
        rc = main(["print-bound", "--alpha", "1.5", "--eta-tilde", "1.0",
                   "--B", "0.01", "--S", "0.01", "--x0-gap", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "holder" in out
        assert "0.5" in out
        assert "0.10000000000000001" in out

    def test_log_branch_banner(self, capsys):
        rc = main(["print-bound", "--alpha", "1.5", "--eta-tilde",
                   str(1.0 / 1.5), "--B", "0.01", "--S", "0.01",
                   "--x0-gap", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "log" in out
        assert "0.21714724095162588" in out

    def test_violation_exit_code(self, capsys):
        rc = main(["print-bound", "--alpha", "1.5", "--eta-tilde", "1.0",
                   "--B", "1.0", "--S", "0.01", "--x0-gap", "0"])
        assert rc == 3
        assert "assumption" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--eta-tilde", "nan"), ("--B", "nan"), ("--S", "nan"), ("--x0-gap", "nan"),
        ("--x0-gap", "inf"), ("--h", "nan")])
    def test_non_numbers_exit_with_one_line(self, flag, value):
        rc, err = run_quiet(["print-bound", "--alpha", "1.5", "--eta-tilde", "1.0",
                             "--B", "0.01", "--S", "0.01", "--x0-gap", "0",
                             flag, value])
        assert rc == 3
        assert len(err) == 1 and err[0].startswith("domain error: ")

    def test_tail_variant(self, capsys):
        rc = main(["print-bound", "--alpha", "1.5", "--eta-tilde", "1.0",
                   "--B", "0.01", "--S", "0.01", "--x0-gap", "0", "--h", "0.5"])
        assert rc == 0
        assert "tail bound" in capsys.readouterr().out


class TestModuleEntryPoint:
    """python -m stablesde runs the same main, in a fresh interpreter."""

    @pytest.mark.parametrize("args, code, stdout, stderr_lines", [
        (["print-bound", "--alpha", "1.5", "--eta-tilde", "1", "--B", "0.01",
          "--S", "0.01", "--x0-gap", "0"], 0, "bound (C_fit=1) : 0.10000000000000001", 0),
        (["run", "--config", str(CONFIGS / "sweep_jump_bump.json"), "--set", "foo"],
         2, "", 1),
    ])
    def test_python_dash_m(self, args, code, stdout, stderr_lines):
        root = CONFIGS.parent
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        proc = subprocess.run([sys.executable, "-m", "stablesde", *args], cwd=root,
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == code
        assert stdout in proc.stdout
        assert len(proc.stderr.splitlines()) == stderr_lines


class TestConfigParsing:
    def test_unknown_top_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"command": "certify-density",
                                   "law": {"alpha": 1.5}, "bogus": 1})
        assert main(["run", "--config", cfg]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_unknown_nested_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"command": "certify-density",
                                   "law": {"alpha": 1.5, "beta": 0.0}})
        assert main(["run", "--config", cfg]) == 2

    def test_missing_alpha(self, tmp_path):
        cfg = write_cfg(tmp_path, {"command": "certify-density", "law": {}})
        assert main(["run", "--config", cfg]) == 2

    def test_json_syntax_error_reports_position(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"command": "simulate",\n  "law": {alpha: 1.5}}')
        assert main(["run", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_unknown_command(self, tmp_path):
        cfg = write_cfg(tmp_path, {"command": "dance", "law": {"alpha": 1.5}})
        assert main(["run", "--config", cfg]) == 2

    def test_alpha_out_of_range_is_domain_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"command": "certify-density",
                                   "law": {"alpha": 2.3}})
        assert main(["run", "--config", cfg]) == 3
        assert "domain error" in capsys.readouterr().err

    @pytest.mark.parametrize("override, key", [
        ('law.alpha="abc"', "law.alpha"),
        ('sim.n_steps="x"', "sim.n_steps"),
        ("sim.seed=1.5", "sim.seed"),
        ("sim.n_paths=true", "sim.n_paths"),
        ("coefficients.name=drift_shift", "params.shift"),  # shift missing
        ('command="certify-density" certify.alphas=1.5', "certify.alphas"),
        ('command="sweep" sweep.family="initial_value" sweep.h_values=0.1',
         "sweep.h_values"),
        ("coefficients.params=[1]", "coefficients.params"),
        ("output.dir=5", "output.dir"),
    ])
    def test_wrong_typed_or_missing_value_exits_2(self, tmp_path, capsys,
                                                   override, key):
        """override is one or more space-separated --set items."""
        cfg = write_cfg(tmp_path, {
            "command": "simulate", "law": {"alpha": 1.5},
            "coefficients": {"name": "identical", "params": {}},
            "sim": BASE_SIM, "output": {"dir": str(tmp_path / "o")}})
        sets = [arg for item in override.split() for arg in ("--set", item)]
        assert main(["run", "--config", cfg] + sets) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("config error: " + key)

    @pytest.mark.parametrize("command, args, code, needle", [
        ("distances", "--set coefficients.params.widht=2", 2, "widht"),
        ("converge", "--set converge.params.n_stpo=2", 2, "n_stpo"),
        # a key the family sets for each member
        ("sweep", '--set sweep.family="jump_bump" --set sweep.params={"amp":0.1}', 2,
         "amp"),
        ("sweep", '--set sweep.params={"gaps":[0.2],"x0_gap":1}', 2, "x0_gap"),
        ("converge", "--set converge.params.h=0.1", 2, "'h'"),
        # eta_tilde is read from the family, and only jump_kink's sigma_tilde has one
        ("sweep", "--set sweep.eta_tilde=1", 2, "eta_tilde"),
        ("distances", "--set coefficients.params.eta_tilde=0.9", 2, "eta_tilde"),
        ("simulate", "--out {cfg}", 2, "cannot create output directory"),
        # paths are kept by --dump-paths alone, and only simulate writes them
        ("simulate", "--set sim.keep_paths=true", 2, "keep_paths"),
        ("sweep", "--dump-paths", 2, "--dump-paths"),
        # keys that only ever took one value: the first sweep member calibrates,
        # p is (1 + alpha)/2, and the mollifier searches its own window
        ("certify-mollifier", "--set mollifier.rho=0.05", 2, "rho"),
        ("converge", "--set converge.p_exponent=1.25", 2, "p_exponent"),
        ("sweep", "--set sweep.calibration_index=0", 2, "calibration_index"),
        # the certification window is fixed at [-5, 5]
        ("certify-mollifier", "--set certify.grid_lo=-5.0", 2, "grid_lo"),
        ("certify-mollifier", "--set certify.grid_hi=5.0", 2, "grid_hi"),
        # a gaps list sets initial_value's members, so the keys it overrides
        # are errors, not ignored
        ("sweep", "--set sweep.params.n_stop=1", 2, "n_stop"),
        ("sweep", "--set sweep.params.ratio=0.5", 2, "ratio"),
        ("certify-mollifier", "--set certify.grid_points=-1", 3, "certify.grid_points"),
        ("certify-mollifier", "--set certify.komatsu_points=-1", 3,
         "certify.komatsu_points"),
        ("distances", "--set distances.sup_points=0", 3, "distances.sup_points"),
        ("certify-density", "--set certify.alphas=[]", 3, "certify.alphas"),
        ("simulate", "--set sim.seed=" + "9" * 45, 3, "seed"),
        ("distances", "--set coefficients.params.width=0", 3, "width"),
        # the envelope M p0 gives M B and M^(1/alpha) S, so no model reads an M
        ("distances", "--set distances.M=2", 2, "['M']"),
        ("converge", "--set converge.params.h0=0", 3, "scale h"),
        ("sweep", "--set sweep.params.gaps=[]", 3, "perturbation family has no members"),
        # members, and list entries, that would fail only after the ones before them ran
        ("sweep", '--set sweep.family="jump_bump" --set sweep.params={"ratio":1e200,"n_stop":3}',
         3, "overflow a double"),
        ("converge", "--set converge.params.ratio=1e200 --set converge.params.n_stop=3", 3,
         "overflow a double"),
        ("sweep", "--set sweep.h_values=[0.1,-1]", 3, "sweep.h_values entries"),
        ("certify-density", "--set certify.alphas=[1.5,2.5]", 3, "certify.alphas entries"),
        # entries that name check ids: a repeat would write one id twice
        ("certify-density", "--set certify.alphas=[1.5,1.5]", 3,
         "certify.alphas entries must be distinct"),
        ("sweep", "--set sweep.h_values=[0.1,0.1]", 3,
         "sweep.h_values entries must be distinct"),
        ("sweep", "--set sweep.params.gaps=[0.2,0.2]", 3, "two members labelled gap=0.2"),
        ("converge", '--set converge.params={"ratio":1.0,"n_stop":2}', 3,
         "two members labelled h=0.5"),
        # the default sup window x0 -+ 10 is a single point this far out
        ("distances", "--set coefficients.params.x0=1e300", 3, "distances.sup_window"),
        ("converge", "--set converge.params.n_stop=1", 3, "at least 2 family members"),
        ("converge", "--set converge.params.n_start=4 --set converge.params.n_stop=4", 3,
         "at least 2 family members"),
        ("certify-mollifier", "--set mollifier.eps=1e-5 --set mollifier.delta=1.0001", 3,
         "cap violated"),
        (None, "--h 0", 3, "tail threshold h"),
        (None, "--h -1", 3, "tail threshold h"),
        # the config is strict JSON: no NaN or Infinity, in the file or in --set
        ("sweep", "--set sweep.h_values=[NaN]", 2, "NaN"),
        ("simulate", "--set sim.x_clip=Infinity", 2, "Infinity"),
        ("simulate", "--config {nan}", 2, "NaN"),
        # nor a number that overflows a double, written with or without e
        ("simulate", "--set sim.x_clip=1e999", 2, "1e999 overflows"),
        ("distances", "--set distances.T=-1e999", 2, "-1e999 overflows"),
        ("simulate", "--config {big}", 2, "1e999 overflows"),
        pytest.param("distances", "--set distances.T=1" + "0" * 400, 2,
                     "distances.T overflows", id="huge-integer"),
        # the Euler guard's NumericError carries no estimate to print
        ("simulate", "--set sim.x_clip=0.05 --set sim.n_paths=2000 --set sim.n_steps=64 "
                     "--set sim.seed=9", 4, "x_clip=0.05"),
    ])
    def test_bad_input_exits_with_one_line(self, tmp_path, command, args, code,
                                           needle):
        """command None is print-bound with valid values before args."""
        if command is None:
            argv = ["print-bound", "--alpha", "1.5", "--eta-tilde", "1.0", "--B", "0.01",
                    "--S", "0.01", "--x0-gap", "0"]
        else:
            cfg = write_cfg(tmp_path, {"command": command, **TINY[command]})
            argv = ["run", "--config", cfg, "--out", str(tmp_path / "o")]
            args = args.replace("{cfg}", cfg)
            if "{nan}" in args:
                nan_cfg = write_cfg(tmp_path, {"command": command, **TINY[command],
                                               "sim": {**TINY_SIM, "x_clip": math.nan}},
                                    name="nan.json")
                args = args.replace("{nan}", nan_cfg)
            if "{big}" in args:
                big_cfg = write_cfg(tmp_path, {"command": command, **TINY[command],
                                               "sim": {**TINY_SIM, "x_clip": 1e308}},
                                    name="big.json")
                Path(big_cfg).write_text(Path(big_cfg).read_text().replace(
                    "1e+308", "1e999"))
                args = args.replace("{big}", big_cfg)
        rc, err = run_quiet(argv + args.split())
        assert rc == code
        assert len(err) == 1
        assert err[0].startswith({2: "config error: ", 3: "domain error: ",
                                  4: "numeric failure: "}[code])
        assert needle in err[0]
        assert "estimate=None" not in err[0]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, override, code", [
        ("distances", 'coefficients.params.amp="x"', 2),
        ("distances", "coefficients.params.widht=2", 2),
        ("distances", "coefficients.params.width=0", 3),
        ("sweep", "sweep.params.n_stop=1", 2),
        ("converge", "converge.params.h0=0", 3),
        ("distances", 'distances.time_nodes="x"', 2),
        ("sweep", 'sweep={"family":"jump_bump","params":{"ratio":1e200,"n_stop":3}}', 3),
        ("converge", 'converge.params={"ratio":1e200,"n_stop":3}', 3),
        ("sweep", "sweep.h_values=[-1]", 3),
        ("certify-density", "certify.alphas=[1.5,2.5]", 3),
        ("distances", 'distances.model="bogus"', 3),
        ("distances", 'distances.model="frozen_upper"', 3),
        ("distances", "distances.sup_window=[1]", 3),
        ("distances", "distances.sup_window=[1,1]", 3),
        # only an absent window stands for the default one
        ("distances", "distances.sup_window=[]", 3),
        ("distances", 'distances.variant="bogus"', 3),
        ("distances", "distances.sup_window=[-1e308,1e308]", 3),
        ("distances", "coefficients.params.x0=1e300", 3),
        ("distances", "coefficients.params.s1=-2", 3),
        ("sweep", "sweep.params.gaps=[0.2,0.2]", 3),
        # every pair or family a section names is built, also where the
        # command does not read the section
        ("certify-density", "coefficients.name=bogus", 3),
        ("distances", 'distances.model="empirical"', 2),
        # the laws and the mollifier a command builds
        *[(command, "law.alpha=2.3", 3) for command in sorted(TINY)],
        ("certify-density", "certify.alphas=[1.5] law.alpha=2.3", 3),
        ("certify-mollifier", "mollifier.eps=1e-5 mollifier.delta=1.0001", 3),
    ])
    def test_bad_catalog_params_fail_before_any_output(self, tmp_path, command,
                                                       override, code):
        """Catalog params, list entries, laws and the mollifier are checked,
        like every other key, before the output directory is created;
        override is one or more space-separated --set items."""
        cfg = write_cfg(tmp_path, {"command": command, **TINY[command]})
        out = tmp_path / "o"
        sets = [arg for item in override.split() for arg in ("--set", item)]
        rc, err = run_quiet(["run", "--config", cfg, "--out", str(out)] + sets)
        assert rc == code and len(err) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command, section, key", [
        (command, section, key) for command in sorted(TINY)
        for section in TINY[command] for key, (_, default, _) in _SCHEMA[section].items()
        if default is REQUIRED])
    def test_missing_command_key_fails_before_any_output(self, tmp_path, command,
                                                         section, key):
        """A required key that only the command reads is reported, like
        every other key, before the output directory is created."""
        payload = copy.deepcopy({"command": command, **TINY[command]})
        del payload[section][key]
        out = tmp_path / "o"
        rc, err = run_quiet(["run", "--config", write_cfg(tmp_path, payload),
                             "--out", str(out)])
        assert rc == 2 and len(err) == 1
        assert err[0] == f"config error: {section}.{key} must be explicit"
        assert not out.exists()

    def test_empirical_horizon_mismatch_fails_before_any_output(self, tmp_path):
        """Empirical distances average over sim.T, so a distances.T other
        than sim.T is rejected before the output directory is created."""
        cfg = write_cfg(tmp_path, {"command": "distances", **TINY["distances"],
                                   "sim": TINY_SIM})
        out = tmp_path / "o"
        rc, err = run_quiet(["run", "--config", cfg, "--out", str(out), "--set",
                             "distances.model=empirical", "--set", "distances.T=2.0"])
        assert rc == 3 and len(err) == 1 and "sim.T=1" in err[0]
        assert not out.exists()

    def test_one_path_converge_exits_with_one_line(self, tmp_path):
        """converge's standard errors need two paths: one path is a domain
        error, not a NaN in report.json and a numpy warning."""
        cfg = write_cfg(tmp_path, {"command": "converge", **TINY["converge"]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, err = run_quiet(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                                 "--set", "sim.n_paths=1"])
        assert rc == 3
        assert err == ["domain error: convergence experiment needs at least 2 paths, "
                       "got sim.n_paths=1"]

    def test_one_path_empirical_distances_run_without_warning(self, tmp_path):
        """The empirical distances read the means of the baseline-path
        averages alone, which one path gives."""
        cfg = write_cfg(tmp_path, {"command": "distances", **TINY["distances"],
                                   "sim": {**TINY_SIM, "n_paths": 1}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, err = run_quiet(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                                 "--set", "distances.model=empirical"])
        assert rc == 0 and err == []

    @pytest.mark.parametrize("error, code", [(DomainError, 3), (NumericError, 4),
                                             (MemoryError, 4)])
    def test_block_failure_exits_with_one_line(self, tmp_path, monkeypatch,
                                               error, code):
        """An error raised by one path block on a worker thread reaches the
        exit-code handlers like one raised on the main thread."""
        real = simulate.sample_increments

        def fail_last_block(law, dt, n, stream):
            if n[1] == 123:
                raise error("block sampler failed")
            return real(law, dt, n, stream)

        monkeypatch.setattr(simulate, "sample_increments", fail_last_block)
        cfg = write_cfg(tmp_path, {"command": "simulate", **TINY["simulate"]})
        rc, err = run_quiet(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                             "--set", "sim.n_paths=4219"])
        assert rc == code
        assert len(err) == 1 and "block sampler failed" in err[0]
        assert not (tmp_path / "o").exists()

    def test_simulate_digest_pinned(self, tmp_path):
        """The increments digest in simulate's report.json, hashed over two
        blocks in block order (value pinned before the blocks ran on
        threads)."""
        cfg = write_cfg(tmp_path, {
            "command": "simulate", "law": {"alpha": 1.5},
            "coefficients": {"name": "jump_bump", "params": {"amp": 0.3}},
            "sim": {"T": 1.0, "n_steps": 16, "n_paths": 4219, "seed": 2024}})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        params = json.loads((tmp_path / "o" / "report.json").read_text())["params"]
        assert params["digest"] == "0a5809dedf870aeb549840e17960521e"

    def test_config_not_utf8_exits_with_one_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        rc, err = run_quiet(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2 and len(err) == 1
        assert err[0].startswith("config error: ") and str(path) in err[0]

    @pytest.mark.parametrize("command, name, args", [
        ("simulate", "results.csv", []), ("simulate", "report.json", []),
        ("simulate", "tails.csv", []), ("simulate", "plotdata/moment_curve.tsv", []),
        ("simulate", "paths_xt.csv", ["--dump-paths"]),
        ("certify-density", "results.csv", [])])
    def test_unwritable_output_file_exits_with_one_line(self, tmp_path, command, name,
                                                        args):
        """An output file that cannot be written (here: a directory in its
        place) is a config error naming the file, not a traceback."""
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        cfg = write_cfg(tmp_path, {"command": command, **TINY[command]})
        rc, err = run_quiet(["run", "--config", cfg, "--out", str(out)] + args)
        assert rc == 2 and len(err) == 1
        assert err[0] == f"config error: cannot write {out / name}: Is a directory"

    def test_other_os_errors_are_not_write_failures(self, tmp_path, monkeypatch):
        """An OSError raised outside the writers, such as a failed fork, is
        not reported as an output that cannot be written."""
        def no_fork(fn, xs):
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(mollifier, "map_interleaved", no_fork)
        cfg = write_cfg(tmp_path, {"command": "certify-mollifier",
                                   **TINY["certify-mollifier"]})
        with pytest.raises(BlockingIOError):
            run_quiet(["run", "--config", cfg, "--out", str(tmp_path / "o")])

    def test_overflowing_gap_fails_distances_finite_without_warning(self, tmp_path):
        """A jump gap near 1e300 overflows its power: the distances are inf,
        the one row fails, and numpy prints nothing."""
        cfg = write_cfg(tmp_path, {"command": "distances", **TINY["distances"],
                                   "coefficients": {"name": "jump_bump",
                                                    "params": {"amp": 1e300}}})
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, err = run_quiet(["run", "--config", cfg, "--out", str(out)])
        assert rc == 1 and err == []
        rows = json.loads((out / "report.json").read_text())["checks"]
        assert [(r["check_id"], r["passed"]) for r in rows] == [("distances_finite", False)]

    @pytest.mark.parametrize("command, args, code, prefix", [
        ("sweep", '--set sweep.family="jump_bump" --set sweep.params={"amp0":1e300}', 4,
         "numeric failure: "),
        ("certify-mollifier", "--set mollifier.eps=1e200", 3, "domain error: eps above"),
        ("certify-mollifier", "--set mollifier.eps=1e150", 3, "domain error: eps above")])
    def test_overflow_exits_with_one_line(self, tmp_path, command, args, code, prefix):
        cfg = write_cfg(tmp_path, {"command": command, **TINY[command]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, err = run_quiet(["run", "--config", cfg, "--out", str(tmp_path / "o")]
                                + args.split())
        assert rc == code and len(err) == 1 and err[0].startswith(prefix)
        assert not (tmp_path / "o").exists()

    def test_numeric_failure_prints_its_estimate(self, tmp_path, monkeypatch):
        def fail(cfg, out):
            raise NumericError("x", estimate=0.5, error_bound=0.1)

        monkeypatch.setitem(_COMMANDS, "simulate", fail)
        cfg = write_cfg(tmp_path, {"command": "simulate", **TINY["simulate"]})
        rc, err = run_quiet(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 4
        assert err == ["numeric failure: x (estimate=0.5, error_bound=0.1)"]

    def test_number_list_entries_kept_as_written(self, tmp_path):
        """A checked list of numbers is not coerced: integer entries reach
        the report as integers."""
        cfg = write_cfg(tmp_path, {
            "command": "distances", "law": {"alpha": 1.5},
            "coefficients": {"name": "drift_bump", "params": {"amp": 0.2, "s1": 0.05}},
            "distances": {"T": 1.0, "model": "frozen_plain", "time_nodes": 4,
                          "variant": "time_integral", "sup_window": [-5, 5.0],
                          "sup_points": 11},
            "output": {"dir": str(tmp_path / "o")}})
        assert main(["run", "--config", cfg]) == 0
        window = json.loads((tmp_path / "o" / "report.json").read_text())[
            "params"]["sup_window"]
        assert window == [-5, 5.0]
        assert [type(v) for v in window] == [int, float]

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
    def test_shipped_config_loads(self, path):
        """Each shipped config loads (TestPinnedOutputs runs each through its
        command)."""
        assert load_config(str(path), ())["command"] in _COMMANDS

    def test_every_schema_key_has_a_reader(self, tmp_path, monkeypatch):
        """No config key without a reader: the TINY configs, each through
        its command, and run reading output.dir, read every _SCHEMA key."""
        read = set()

        class Recorded(Checked):
            def __getitem__(self, key):
                read.add((self.where, key))
                return super().__getitem__(key)

        def check_section(given, table, where):
            values = Recorded(real(given, table, where))
            values.where = where
            return values

        real = cli.check_section
        monkeypatch.setattr(cli, "check_section", check_section)
        for command in sorted(TINY):
            cfg = write_cfg(tmp_path, {"command": command, **TINY[command]})
            rc, err = run_quiet(["run", "--config", cfg,
                                 "--set", f"output.dir={tmp_path / command}"])
            assert rc == 0 and err == []
        assert read == {(section, key) for section in _SCHEMA for key in _SCHEMA[section]}

    def test_set_overrides(self, tmp_path):
        out = tmp_path / "o1"
        cfg = write_cfg(tmp_path, {"command": "certify-density",
                                   "law": {"alpha": 2.3},
                                   "output": {"dir": str(out)}})
        rc = main(["run", "--config", cfg, "--set", "law.alpha=1.5"])
        assert rc == 0


class TestRunCommands:
    def test_simulate_identical_pair(self, tmp_path):
        out = tmp_path / "sim"
        cfg = write_cfg(tmp_path, {
            "command": "simulate", "law": {"alpha": 1.5},
            "coefficients": {"name": "identical", "params": {}},
            "sim": BASE_SIM, "output": {"dir": str(out)}})
        assert main(["run", "--config", cfg]) == 0
        lines = (out / "results.csv").read_text().strip().splitlines()
        assert lines[0] == "t,mean_q_moment,stderr"
        for row in lines[1:]:
            assert float(row.split(",")[1]) == 0.0
        rep = json.loads((out / "report.json").read_text())
        validate_report(rep)
        assert rep["pass"]

    def test_byte_identical_reruns(self, tmp_path):
        cfg_payload = {
            "command": "simulate", "law": {"alpha": 1.5},
            "coefficients": {"name": "jump_bump", "params": {"amp": 0.2}},
            "sim": BASE_SIM, "output": {"dir": ""}}
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            cfg_payload["output"]["dir"] = str(out)
            cfg = write_cfg(tmp_path, cfg_payload, name=f"{name}.json")
            assert main(["run", "--config", cfg]) == 0
            outs.append((out / "results.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_certify_mollifier(self, tmp_path):
        out = tmp_path / "moll"
        cfg = write_cfg(tmp_path, {
            "command": "certify-mollifier", "law": {"alpha": 1.5},
            "mollifier": {"eps": 0.1, "delta": 4.0},
            "certify": {"grid_points": 401, "komatsu_points": 8},
            "output": {"dir": str(out)}})
        assert main(["run", "--config", cfg]) == 0
        rep = json.loads((out / "report.json").read_text())
        validate_report(rep)
        ids = {c["check_id"] for c in rep["checks"]}
        assert {"psi_unit_mass", "psi_cap", "u_lower_sandwich",
                "u_upper_sandwich", "u_prime_cap",
                "generator_identity_on_support"} <= ids

    def test_distances_command(self, tmp_path):
        out = tmp_path / "dist"
        cfg = write_cfg(tmp_path, {
            "command": "distances", "law": {"alpha": 1.5},
            "coefficients": {"name": "drift_shift", "params": {"shift": 0.3,
                                                               "s1": 0.0}},
            "distances": {"T": 1.0, "model": "frozen_plain", "time_nodes": 16},
            "output": {"dir": str(out)}})
        assert main(["run", "--config", cfg]) == 0
        header, row = (out / "results.csv").read_text().strip().splitlines()
        vals = dict(zip(header.split(","), map(float, row.split(","))))
        assert vals["B"] == pytest.approx(0.3, rel=1e-3)
        assert vals["B_sup"] == pytest.approx(0.3, rel=1e-9)

    def test_plotdata_format(self, tmp_path):
        out = tmp_path / "sim2"
        cfg = write_cfg(tmp_path, {
            "command": "simulate", "law": {"alpha": 1.5},
            "coefficients": {"name": "identical", "params": {}},
            "sim": BASE_SIM, "output": {"dir": str(out)}})
        assert main(["run", "--config", cfg]) == 0
        lines = (out / "plotdata" / "moment_curve.tsv").read_text().splitlines()
        assert lines[0].startswith("#")
        assert all(len(line.split("\t")) == 2 for line in lines[1:])

    def test_sweep_command(self, tmp_path):
        out = tmp_path / "sweep"
        cfg = write_cfg(tmp_path, {
            "command": "sweep", "law": {"alpha": 1.5},
            "sweep": {"family": "initial_value",
                      "params": {"gaps": [0.4, 0.2, 0.1, 0.05]}},
            "sim": {"T": 1.0, "n_steps": 32, "n_paths": 2048, "seed": 3},
            "output": {"dir": str(out)}})
        assert main(["run", "--config", cfg]) == 0
        rep = json.loads((out / "report.json").read_text())
        validate_report(rep)
        assert rep["params"]["slope_D_vs_scale"] == pytest.approx(0.5, abs=0.2)

    def test_sweep_bound_takes_eta_tilde_from_family(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "command": "sweep", "law": {"alpha": 1.5}, "sim": TINY_SIM,
            "sweep": {"family": "jump_kink",
                      "params": {"amp0": 0.2, "n_stop": 2, "eta_tilde": 0.7}}})
        rc, err = run_quiet(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc in (0, 1) and err == []
        params = json.loads((tmp_path / "o" / "report.json").read_text())["params"]
        assert params["eta_tilde"] == 0.7
        assert params["branch"] == "holder"

    def test_near_equal_h_values_give_distinct_check_ids(self, tmp_path):
        """A tail row's id writes h in full, so h values equal to 6 digits
        still name distinct rows."""
        cfg = write_cfg(tmp_path, {"command": "sweep", **TINY["sweep"]})
        rc, err = run_quiet(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                             "--set", "sweep.h_values=[0.1,0.1000001]"])
        assert rc in (0, 1) and err == []
        ids = [c["check_id"] for c in
               json.loads((tmp_path / "o" / "report.json").read_text())["checks"]]
        assert len(ids) == len(set(ids))
        assert {"tail_gap=0.2_h0.1", "tail_gap=0.2_h0.1000001"} <= set(ids)

    def test_near_equal_gaps_give_distinct_check_ids(self, tmp_path):
        """A member's label writes its gap in full, so gaps equal to 6
        digits still name distinct rows."""
        cfg = write_cfg(tmp_path, {"command": "sweep", **TINY["sweep"]})
        rc, err = run_quiet(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                             "--set", "sweep.params.gaps=[0.2,0.2000001]",
                             "--set", "sweep.h_values=[0.1]"])
        assert rc in (0, 1) and err == []
        ids = [c["check_id"] for c in
               json.loads((tmp_path / "o" / "report.json").read_text())["checks"]]
        assert sorted(i for i in ids if i.startswith("tail_")) == [
            "tail_gap=0.2000001_h0.1", "tail_gap=0.2_h0.1"]

    def test_each_catalog_entry_is_built_once(self, tmp_path, monkeypatch):
        """A sweep builds its family, and through it each member pair, once:
        one params check for the family and one per member."""
        calls = []

        def counted(given, table, where):
            calls.append(where)
            return real(given, table, where)

        real = coefficients.check_section
        monkeypatch.setattr(coefficients, "check_section", counted)
        cfg = write_cfg(tmp_path, {"command": "sweep", **TINY["sweep"]})
        rc, err = run_quiet(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc in (0, 1) and err == []
        assert len(calls) == 3

    def test_sweep_with_every_member_flagged_exits_3(self, tmp_path):
        """No member has B < 1 and S < 1, so no row can fit C_fit: one stderr
        line and no output, not a PASS on a constant that no row fitted."""
        cfg = write_cfg(tmp_path, {"command": "sweep", **TINY["sweep"]})
        rc, err = run_quiet(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                             "--set", 'sweep.family="jump_bump"',
                             "--set", 'sweep.params={"amp0":-30,"n_stop":2}'])
        assert rc == 3 and len(err) == 1
        assert err[0].startswith("assumption violated: every member of family 'jump_bump'")
        assert not (tmp_path / "o").exists()

    def test_failed_sweep_rows_give_a_negative_margin(self, tmp_path, monkeypatch):
        """bound_out_of_sample reports margin = bound - value, the bound being
        0 failed rows, also when rows fail."""
        def row(satisfied):
            return SweepRow(label="n", scale=1.0, x0_gap=0.0, B=0.1, S=0.1, D=0.2,
                            D_se=0.0, bound_raw=0.1, bound_value=0.1,
                            satisfied=satisfied, assumption_flag=False)

        result = SweepResult(spec=RateBoundSpec(alpha=1.5, eta_tilde=1.0),
                             rows=[row(True), row(False), row(False)], C_fit=1.0)
        monkeypatch.setattr(cli, "run_sweep", lambda *a, **k: result)
        cfg = write_cfg(tmp_path, {"command": "sweep", **TINY["sweep"]})
        rc, err = run_quiet(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1 and err == []
        checks = json.loads((tmp_path / "o" / "report.json").read_text())["checks"]
        check, = [c for c in checks if c["check_id"] == "bound_out_of_sample"]
        assert check["value"] == 2.0 and not check["passed"]
        assert check["margin"] == -check["value"] < 0

    # distances' distances_finite row writes its bound as Infinity; those
    # bytes are pinned by the benchmark, and the re-pin that mends them
    # flips this mark (ROADMAP item 5)
    @pytest.mark.parametrize("command", [
        pytest.param(c, marks=pytest.mark.xfail(
            strict=True, raises=ConfigError,
            reason="distances_finite writes its bound as Infinity"))
        if c == "distances" else c for c in sorted(TINY)])
    def test_report_is_strict_json(self, tmp_path, command):
        cfg = write_cfg(tmp_path, {"command": command, **TINY[command]})
        rc, err = run_quiet(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 0 and err == []
        rep = json.loads((tmp_path / "o" / "report.json").read_text(),
                         parse_constant=cli._reject_constant)
        validate_report(rep)

    def test_dump_paths(self, tmp_path):
        out = tmp_path / "dp"
        cfg = write_cfg(tmp_path, {
            "command": "simulate", "law": {"alpha": 1.5},
            "coefficients": {"name": "identical", "params": {}},
            "sim": {"T": 0.5, "n_steps": 8, "n_paths": 16, "seed": 4},
            "output": {"dir": str(out)}})
        assert main(["run", "--config", cfg, "--dump-paths"]) == 0
        assert (out / "paths_x.csv").exists()


class TestPinnedOutputs:
    """Shipped configs, resized as the benchmark runs them, reproduce the
    output bytes pinned for it in perfbench/digests.json (read, never
    written here)."""

    ROOT = Path(__file__).resolve().parents[1]
    # step label -> (workload, its --set overrides in perfbench/workloads.py)
    STEPS = {"frozen": ("density", ""), "mollifier": ("density", ""),
             "density": ("density", ""),
             "converge": ("euler", "sim.n_paths=8192 sim.n_steps=200"),
             "empirical": ("euler", "distances.model=empirical sim.T=1.0 "
                                    "sim.n_steps=400 sim.n_paths=20000 sim.seed=2718"),
             "sweep": ("euler", "sweep.params.n_stop=2")}

    @pytest.mark.parametrize("label, config", [
        ("frozen", "configs/distances_drift_bump.json"),
        ("mollifier", "configs/certify_mollifier.json"),
        ("density", "configs/certify_density.json"),
        ("converge", "configs/converge_mollified_drift.json"),
        ("empirical", "configs/distances_drift_bump.json"),
        ("sweep", "configs/sweep_jump_bump.json"),
    ])
    def test_sha256_matches_pin(self, tmp_path, label, config):
        workload, overrides = self.STEPS[label]
        pinned = json.loads((self.ROOT / "perfbench" / "digests.json").read_text())
        want = {name.split("/", 1)[1]: digest for name, digest in
                pinned[workload]["default"].items() if name.startswith(label + "/")}
        sets = [arg for item in overrides.split() for arg in ("--set", item)]
        assert main(["run", "--config", str(self.ROOT / config),
                     "--out", str(tmp_path)] + sets) == 0
        got = {str(p.relative_to(tmp_path)): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.rglob("*")) if p.is_file()}
        assert got == want


# ---------------------------------------------------------------------------
# property: any one-key mutation of a valid config exits cleanly
# ---------------------------------------------------------------------------

_WRONG_TYPE = {float: ["1.5", True, None, [1.0]], int: [1.5, "3", False, None],
               str: [5, True, ["x"], None], dict: [[1], "x", 2],
               list: [1.5, ["a"], [True], {"a": 1}, "x"]}


def _out_of_range(kind, low):
    if kind is list:
        return st.lists(st.floats(1.1, 1.9), max_size=low - 1)
    if kind is int:
        return st.integers(low - 10 ** 6, low - 1)
    return st.one_of(st.just(low), st.floats(max_value=low, allow_nan=False))


def _in_range(kind, low):
    if kind is int:
        base = 0 if low is None else low
        return st.integers(base, base + 3)
    if kind is float:
        if low is None:
            return st.floats(-3.0, 4.0)
        return st.floats(low, low + 4.0, exclude_min=True)
    if kind is list:
        return st.lists(st.floats(-3.0, 3.0), min_size=low or 0, max_size=3)
    if kind is str:
        return st.text("abcdefghijklmnopqrstuvwxyz_-", max_size=8)
    return st.dictionaries(st.sampled_from(["amp", "s0", "n_stop", "gaps", "bogus"]),
                           st.floats(-1.0, 1.0), max_size=2)


_KEYS = [(section, key) for section in _SCHEMA for key in _SCHEMA[section]]


@st.composite
def mutated_configs(draw):
    """(command, config, mutation): one key of a TINY config is replaced by
    an unknown key, a wrong-typed value, NaN or an infinity (which strict
    JSON does not have), a value below its bound or a value in range."""
    command = draw(st.sampled_from(sorted(TINY)))
    cfg = copy.deepcopy({"command": command, **TINY[command]})
    section, key = draw(st.sampled_from(_KEYS))
    kind, _, low = _SCHEMA[section][key]
    kinds = ["unknown", "wrong_type", "non_json", "in_range"] + (
        ["out_of_range"] if low is not None else [])
    mutation = draw(st.sampled_from(kinds))
    node = cfg.setdefault(section, {})
    if mutation == "unknown":
        node[key + "_typo"] = 1.0
    elif mutation == "wrong_type":
        node[key] = draw(st.sampled_from(_WRONG_TYPE[kind]))
    elif mutation == "non_json":
        node[key] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif mutation == "out_of_range":
        node[key] = draw(_out_of_range(kind, low))
    else:
        node[key] = draw(_in_range(kind, low))
    return command, cfg, mutation


class TestMutatedConfigs:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(case=mutated_configs())
    def test_runs_or_exits_with_one_line(self, case):
        command, cfg, mutation = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(cfg))
            rc, err = run_quiet(["run", "--config", str(path), "--out", tmp + "/o"])
        assert rc in (0, 1) or (rc in (2, 3, 4) and len(err) == 1), (rc, err)
        expected = {"unknown": 2, "wrong_type": 2, "non_json": 2, "out_of_range": 3}
        if mutation in expected:
            assert rc == expected[mutation], (rc, err)
