"""Config-driven CLI: strict parsing, exit codes, deterministic outputs."""

import hashlib
import json
from pathlib import Path

import pytest

from stablesde.cli import main
from stablesde.report import validate_report


def write_cfg(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


BASE_SIM = {"T": 1.0, "n_steps": 32, "n_paths": 512, "seed": 11}


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

    def test_tail_variant(self, capsys):
        rc = main(["print-bound", "--alpha", "1.5", "--eta-tilde", "1.0",
                   "--B", "0.01", "--S", "0.01", "--x0-gap", "0", "--h", "0.5"])
        assert rc == 0
        assert "tail bound" in capsys.readouterr().out


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
        ('command="sweep" sweep.family="initial_value" sweep.eta_tilde=1 '
         'sweep.h_values=0.1', "sweep.h_values"),
        ("coefficients.params=[1]", "coefficients.params"),
        ("output.dir=5", "output.dir"),
        ('sim.keep_paths="no"', "sim.keep_paths"),
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
            "sweep": {"family": "initial_value", "eta_tilde": 1.0,
                      "params": {"gaps": [0.4, 0.2, 0.1, 0.05]}},
            "sim": {"T": 1.0, "n_steps": 32, "n_paths": 2048, "seed": 3},
            "output": {"dir": str(out)}})
        assert main(["run", "--config", cfg]) == 0
        rep = json.loads((out / "report.json").read_text())
        validate_report(rep)
        assert rep["params"]["slope_D_vs_scale"] == pytest.approx(0.5, abs=0.2)

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
    """The shipped density configs reproduce the output bytes pinned for the
    benchmark in perfbench/digests.json (read, never written here)."""

    ROOT = Path(__file__).resolve().parents[1]

    @pytest.mark.parametrize("label, config", [
        ("frozen", "configs/distances_drift_bump.json"),
        ("mollifier", "configs/certify_mollifier.json"),
    ])
    def test_sha256_matches_pin(self, tmp_path, label, config):
        pinned = json.loads((self.ROOT / "perfbench" / "digests.json").read_text())
        want = {name.split("/", 1)[1]: digest for name, digest in
                pinned["density"]["default"].items() if name.startswith(label + "/")}
        assert main(["run", "--config", str(self.ROOT / config),
                     "--out", str(tmp_path)]) == 0
        got = {str(p.relative_to(tmp_path)): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.rglob("*")) if p.is_file()}
        assert got == want
