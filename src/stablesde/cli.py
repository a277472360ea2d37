"""Configuration-driven command line.

    stablesde run --config cfg.json [--set key=value ...] [--out DIR]
                  [--dump-paths (simulate only)]
    stablesde print-bound --alpha A --eta-tilde E --B B --S S --x0-gap G [--h H]

The config is strict JSON. _SCHEMA below is the reference for its keys: it
declares each key's type, default and lower bound once, and physical
parameters (alpha, eps, delta, T, seed, ...) have no default. Catalog params
take the same form in coefficients._PARAMS, and errors.check_section checks
both tables. Every key present is checked when the config loads, and never
coerced; run then builds each pair or family a section names, once, also
where the command does not read that section. A command computes all its
results before it writes any file, and the first write creates the output
directory, so only a failed write leaves output behind. Outputs are
results.csv (floats at 17 significant digits), report.json (validated
machine-readable pass/fail rows), and plotdata/*.tsv series.

Exit codes (_EXITS): 0 all checks pass, 1 a check failed, 2 config error
(parse, unknown key, wrong type, missing value, a config file that is not
UTF-8, an output file or directory that cannot be written), 3 domain error
(e.g. a value below its bound), 4 numeric failure or out of memory; 2-4 print
one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import mollifier as moll
from .coefficients import make_family, make_pair
from .errors import (REQUIRED, AssumptionViolation, ConfigError, ConstructionError,
                     DomainError, NumericError, check_section, config_value)
from .measures import (DensityModel, check_sup_args, distance_B, distance_B_sup,
                       distance_S, distance_S_sup)
from .rates import RateBoundSpec, convergence_experiment, run_sweep, tail_bound, theoretical_bound
from .report import (CheckRow, Report, fmt17, validate_report, write_plotdata,
                     write_results_csv, writing)
from .simulate import SimConfig, distance_moment_curve, simulate_coupled, tail_probability
from .stable import (density_total_mass, envelope_comparability_check,
                     make_stable_law, stable_density)

# section -> key -> (kind, default, lower bound), checked by check_section.
# kind list is a list of numbers. Default REQUIRED: the key must be given
# when a command reads it; None: absent means unset, and the reader's own
# default applies.
_SCHEMA = {
    "law": {"alpha": (float, REQUIRED, None)},
    "mollifier": {"eps": (float, REQUIRED, 0.0), "delta": (float, REQUIRED, 1.0)},
    "coefficients": {"name": (str, REQUIRED, None), "params": (dict, {}, None)},
    "sim": {"T": (float, REQUIRED, 0.0), "n_steps": (int, REQUIRED, 1),
            "n_paths": (int, REQUIRED, 1), "seed": (int, REQUIRED, None),
            "x_clip": (float, None, 0.0)},
    "distances": {"model": (str, REQUIRED, None), "time_nodes": (int, None, 2),
                  "sup_window": (list, None, None),
                  "sup_points": (int, 10001, 1),
                  "variant": (str, "time_integral", None), "T": (float, REQUIRED, 0.0)},
    "sweep": {"family": (str, REQUIRED, None), "params": (dict, {}, None),
              "h_values": (list, [], None)},
    "converge": {"family": (str, REQUIRED, None), "params": (dict, {}, None)},
    "certify": {"grid_points": (int, 2001, 1), "komatsu_points": (int, 40, 0),
                "alphas": (list, None, 1)},
    "output": {"dir": (str, "out", None)},
}
# catalog section -> (naming key, builder); once run has built the entry,
# the naming key holds the built pair or family
_CATALOG = {"coefficients": ("name", make_pair), "sweep": ("family", make_family),
            "converge": ("family", make_family)}
_CERTIFY_WINDOW = (-5.0, 5.0)   # x range of the certify-mollifier grid


def _reject_constant(name: str):  # json.loads meets NaN, Infinity or -Infinity
    raise ConfigError(f"{name} is not strict JSON")


def _finite_float(text: str) -> float:  # json.loads meets a number with . or e
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"{text} overflows a double")
    return value


def load_config(path: str, overrides) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8: {exc.reason} at byte {exc.start}")
    try:
        cfg = json.loads(text, parse_constant=_reject_constant,
                         parse_float=_finite_float)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    for key, value in overrides or ():
        _apply_override(cfg, key, value)
    _validate_schema(cfg)
    return cfg


def _apply_override(cfg: dict, dotted: str, raw: str) -> None:
    parts = dotted.split(".")
    node = cfg
    for p in parts[:-1]:
        node = node.setdefault(p, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override path {dotted!r} crosses a non-object")
    try:
        value = json.loads(raw, parse_constant=_reject_constant,
                           parse_float=_finite_float)
    except json.JSONDecodeError:
        value = raw
    node[parts[-1]] = value


def _validate_schema(cfg: dict) -> None:
    """Check every key of cfg against _SCHEMA and replace each section, also
    an absent one, by check_section's Checked result: its typed values (an
    int written for a float becomes a float) and the defaults of its absent
    keys, so that a command reads cfg[section][key], and reading a required
    key that was not given raises ConfigError."""
    unknown = set(cfg) - set(_SCHEMA) - {"command"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    command = config_value(cfg, "command", str)
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}; "
                          f"expected one of {tuple(_COMMANDS)}")
    for section, table in _SCHEMA.items():
        cfg[section] = check_section(cfg.get(section, {}), table, section)


def _given(cfg, section, *keys) -> dict:
    """The keys set (or required), for a constructor with defaults for the rest."""
    return {key: value for key in keys
            if (value := cfg[section][key]) is not None}


def _sim_config(cfg, keep_paths=False) -> SimConfig:
    return SimConfig(**_given(cfg, "sim", *_SCHEMA["sim"]), keep_paths=keep_paths)


def _law(cfg):
    return make_stable_law(cfg["law"]["alpha"])


def _distinct(key: str, values) -> None:
    """The entries of a list that name check ids must not repeat."""
    if len(set(values)) < len(values):
        raise DomainError(f"{key} entries must be distinct, got {values}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_certify_mollifier(cfg, out: Path) -> Report:
    law = _law(cfg)
    m = moll.build_mollifier(law.alpha, cfg["mollifier"]["eps"],
                             cfg["mollifier"]["delta"])
    s = moll.SmoothedDistance(m)
    lo, hi = _CERTIFY_WINDOW
    grid = np.linspace(lo, hi, cfg["certify"]["grid_points"])
    grid = grid[grid != 0.0]
    a_s, b_s = m.support
    nk = cfg["certify"]["komatsu_points"]
    thetas = np.concatenate([np.linspace(a_s * 1.01, b_s * 0.99, nk),
                             [2 * m.eps, -2 * m.eps, 1.0, -1.0, -a_s]])
    reports = [moll.certify_mollifier_shape(m),
               moll.certify_sandwich(s, grid),
               moll.certify_derivative_bound(s, grid),
               moll.certify_komatsu(s, law, thetas)]
    checks = [c for r in reports for c in r.checks]
    xs = np.linspace(-3 * m.eps, 3 * m.eps, 601)
    write_plotdata(out / "plotdata" / "u_prime.tsv", "x", "u_prime", xs, s.u_prime(xs))
    write_results_csv(out / "results.csv",
                      ["check_id", "value", "bound", "margin", "pass"],
                      [[c.check_id, c.value, c.bound, c.margin, str(c.passed)]
                       for c in checks])
    return Report(name="certify-mollifier",
                  params={"alpha": law.alpha, "eps": m.eps, "delta": m.delta,
                          "rho": m.rho},
                  checks=checks, grid={"n_points": int(grid.size), "lo": lo, "hi": hi})


def _cmd_certify_density(cfg, out: Path) -> Report:
    law = _law(cfg)
    alphas = cfg["certify"]["alphas"] or [law.alpha]
    if not all(1.0 < a < 2.0 for a in alphas):
        raise DomainError(f"certify.alphas entries must lie in (1, 2), got {alphas}")
    _distinct("certify.alphas", alphas)
    tail_x = 50.0  # the abscissa where the [0.98, 1.02] ratio band holds
    checks = []
    rows = []
    for alpha in alphas:
        law = make_stable_law(float(alpha))
        mass = density_total_mass(law)
        g0 = stable_density(law, 0.0)
        g0_ref = math.gamma(1.0 + 1.0 / law.alpha) / math.pi
        ratio = stable_density(law, tail_x) / (law.c_alpha * tail_x ** (-1 - law.alpha))
        c_lo, c_hi = envelope_comparability_check(law, np.linspace(-50.0, 50.0, 1001))
        checks.extend([
            CheckRow.within(f"density_mass_a{alpha}",
                            "integral of the density plus analytic tail = 1 +- 1e-5",
                            mass, 1.0, 1e-5),
            CheckRow.within(f"density_center_a{alpha}",
                            "g(0) = Gamma(1 + 1/alpha)/pi +- 1e-6", g0, g0_ref, 1e-6),
            CheckRow(f"density_tail_ratio_a{alpha}",
                     f"g(x) / (c_alpha |x|^(-1-alpha)) in [0.98, 1.02] at |x| = {tail_x:g}",
                     ratio, 1.02, min(1.02 - ratio, ratio - 0.98),
                     0.98 <= ratio <= 1.02),
            CheckRow(f"envelope_band_a{alpha}",
                     "0 < min g/G <= max g/G < inf on the grid",
                     c_lo, c_hi, c_lo, 0.0 < c_lo <= c_hi < float("inf")),
        ])
        rows.append([float(alpha), mass, g0, ratio, c_lo, c_hi])
    write_results_csv(out / "results.csv",
                      ["alpha", "mass", "g0", "tail_ratio", "env_lo", "env_hi"], rows)
    return Report(name="certify-density", params={"alphas": list(alphas)}, checks=checks)


def _cmd_distances(cfg, out: Path) -> Report:
    law = _law(cfg)
    pair = cfg["coefficients"]["name"]
    T = cfg["distances"]["T"]
    mode = cfg["distances"]["model"]
    model = DensityModel(mode=mode, law=law,
                         sim_config=_sim_config(cfg) if mode == "empirical" else None)
    variant = cfg["distances"]["variant"]
    window = check_sup_args(variant, cfg["distances"]["sup_window"], pair.x0)
    n_pts = cfg["distances"]["sup_points"]
    nodes = _given(cfg, "distances", "time_nodes")
    B = distance_B(pair, model, T, **nodes)
    S = distance_S(pair, model, T, **nodes)
    B_inf = distance_B_sup(pair, T, variant=variant, window=window, n_points=n_pts)
    S_inf = distance_S_sup(pair, law.alpha, T, variant=variant, window=window,
                           n_points=n_pts)
    write_results_csv(out / "results.csv", ["B", "S", "B_sup", "S_sup"],
                      [[B, S, B_inf, S_inf]])
    return Report(name="distances",
                  params={"alpha": law.alpha, "pair": pair.label, "T": T,
                          "model": model.mode, "sup_window": list(window),
                          "sup_points": n_pts, "variant": variant},
                  checks=[CheckRow("distances_finite",
                                   "all four coefficient distances are finite",
                                   max(B, S, B_inf, S_inf), float("inf"),
                                   1.0, all(np.isfinite([B, S, B_inf, S_inf])))])


def _cmd_simulate(cfg, out: Path, dump_paths: bool = False) -> Report:
    law = _law(cfg)
    pair = cfg["coefficients"]["name"]
    sim = _sim_config(cfg, keep_paths=dump_paths)
    ens = simulate_coupled(sim, pair, law, digest=True)
    curve = distance_moment_curve(ens, law.alpha - 1.0)
    tails = [tail_probability(ens, h) for h in (0.05, 0.1, 0.2, 0.4, 0.8)]
    write_results_csv(out / "results.csv", ["t", "mean_q_moment", "stderr"],
                      zip(curve.times, curve.mean, curve.stderr))
    write_results_csv(out / "tails.csv", ["h", "prob", "wilson_low", "wilson_high"],
                      [[te.h, te.prob, te.wilson_low, te.wilson_high] for te in tails])
    write_plotdata(out / "plotdata" / "moment_curve.tsv", "t",
                   "mean_q_moment", curve.times, curve.mean)
    if dump_paths:
        for name, leg in zip(("paths_x.csv", "paths_xt.csv"), ens.paths):
            with writing(out / name) as fh:
                np.savetxt(fh, leg, delimiter=",")
    return Report(name="simulate",
                  params={"alpha": law.alpha, "pair": pair.label,
                          "n_paths": sim.n_paths, "n_steps": sim.n_steps,
                          "seed": sim.seed, "T": sim.T, "sup_moment": curve.sup,
                          "digest": ens.increments_digest},
                  checks=[])


def _cmd_sweep(cfg, out: Path) -> Report:
    law = _law(cfg)
    family = cfg["sweep"]["family"]
    sim = _sim_config(cfg)
    h_values = cfg["sweep"]["h_values"]
    if not all(h > 0 for h in h_values):
        raise DomainError(f"sweep.h_values entries must be > 0, got {h_values}")
    _distinct("sweep.h_values", h_values)
    res = run_sweep(family, sim, law, h_values=tuple(map(float, h_values)))
    good = [r for r in res.rows if r.D > 0]
    checks = [CheckRow.at_most("bound_out_of_sample",
                               "D_n <= C_fit * bound_n on non-calibration rows",
                               float(res.out_of_sample_failures), 0.0)]
    checks += [CheckRow.at_most(f"tail_{r.label}_h{te.h!r}",
                                "tail probability with Wilson interval (informational)",
                                te.prob, 1.0,
                                {"h": te.h, "lo": te.wilson_low, "hi": te.wilson_high})
               for r in res.rows for te in r.tails]
    write_results_csv(out / "results.csv",
                      ["label", "scale", "x0_gap", "B", "S", "D", "D_se",
                       "bound_raw", "bound_value", "satisfied", "assumption_flag"],
                      [[str(r.label), r.scale, r.x0_gap, r.B, r.S, r.D, r.D_se,
                        r.bound_raw, r.bound_value, str(r.satisfied),
                        str(r.assumption_flag)] for r in res.rows])
    write_plotdata(out / "plotdata" / "D_vs_scale.tsv", "scale", "D",
                   [r.scale for r in good], [r.D for r in good])
    if all(r.S > 0 for r in res.rows):
        write_plotdata(out / "plotdata" / "S_vs_scale.tsv", "scale", "S",
                       [r.scale for r in res.rows], [r.S for r in res.rows])
    return Report(name="sweep",
                  params={"alpha": law.alpha, "family": family.name,
                          "eta_tilde": res.spec.eta_tilde, "C_fit": res.C_fit,
                          "branch": res.spec.branch,
                          "slope_D_vs_scale": res.slope_D_vs_scale,
                          "slope_S_vs_inverse_scale": res.slope_S_vs_inverse_scale,
                          "seed": sim.seed},
                  checks=checks)


def _cmd_converge(cfg, out: Path) -> Report:
    law = _law(cfg)
    family = cfg["converge"]["family"]
    sim = _sim_config(cfg)
    rep0 = convergence_experiment(family, sim, law)
    n_pairs = len(rep0.pairwise_D)
    checks = [
        CheckRow("cauchy_monotone",
                 "successive coupled distances decrease within 2 SE",
                 float(rep0.pairwise_D[-1]), float(rep0.pairwise_D[0]),
                 float(rep0.pairwise_D[0] - rep0.pairwise_D[-1]),
                 rep0.monotone_within_2se),
        CheckRow.at_most("uniform_lp",
                         "E[sup_t |X|^p] constant across members within 3 SE",
                         rep0.lp_report.max_abs_dev_in_se, 3.0),
    ]
    write_results_csv(out / "results.csv", ["pair", "D", "D_se"],
                      [[f"{i}-{i + 1}", d, se] for i, d, se in
                       zip(range(1, n_pairs + 1), rep0.pairwise_D, rep0.pairwise_se)])
    write_plotdata(out / "plotdata" / "pairwise_D.tsv", "pair_index", "D",
                   np.arange(1, n_pairs + 1), rep0.pairwise_D)
    return Report(name="converge",
                  params={"alpha": law.alpha, "family": family.name,
                          "p": rep0.lp_report.p, "seed": sim.seed,
                          "limit_residual": rep0.limit_residual},
                  checks=checks)


# command -> handler(cfg, output directory): reads every key the command
# uses, builds its objects and computes all its results, and only then
# writes its files into the directory; returns its Report
_COMMANDS = {"certify-mollifier": _cmd_certify_mollifier,
             "certify-density": _cmd_certify_density, "distances": _cmd_distances,
             "simulate": _cmd_simulate, "sweep": _cmd_sweep, "converge": _cmd_converge}


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run(config_path: str, overrides=(), out_dir: str | None = None,
        dump_paths: bool = False) -> int:
    cfg = load_config(config_path, overrides)
    for section, (key, build) in _CATALOG.items():
        if key in cfg[section]:
            cfg[section][key] = build(cfg[section][key], cfg[section]["params"])
    command = cfg["command"]
    if dump_paths and command != "simulate":
        raise ConfigError(f"--dump-paths applies to the simulate command only, "
                          f"not {command!r}")
    out = Path(out_dir or cfg["output"]["dir"])
    rep = (_cmd_simulate(cfg, out, dump_paths=True) if dump_paths
           else _COMMANDS[command](cfg, out))
    rep.to_json(out / "report.json")
    validate_report(json.loads((out / "report.json").read_text()))
    n_fail = sum(not c.passed for c in rep.checks)
    print(f"{command}: {len(rep.checks)} checks, {n_fail} failed -> "
          f"{'PASS' if n_fail == 0 else 'FAIL'}")
    return 0 if n_fail == 0 else 1


def print_bound(alpha: float, eta_tilde: float, B: float, S: float,
                x0_gap: float, h: float | None = None) -> int:
    spec = RateBoundSpec(alpha=alpha, eta_tilde=eta_tilde)
    value = theoretical_bound(spec, x0_gap, B, S)
    tail = None if h is None else tail_bound(spec, x0_gap, B, S, h)
    print(f"branch          : {spec.branch}"
          + ("  (eta_tilde = 1/alpha)" if spec.branch == "log" else ""))
    if spec.branch == "holder":
        print(f"exponent e_B    : {fmt17(spec.exponent_B)}")
        print(f"exponent e_S    : {fmt17(spec.exponent_S)}")
    print(f"gap term        : {fmt17(theoretical_bound(spec, x0_gap, 0.0, 0.0))}")
    print(f"bound (C_fit=1) : {fmt17(value)}")
    if tail is not None:
        print(f"tail bound at h : {fmt17(tail)}")
    return 0


# exception kind -> (exit code, stderr prefix); main reads an error's most derived kind
_EXITS = {ConfigError: (2, "config error"), DomainError: (3, "domain error"),
          AssumptionViolation: (3, "assumption violated"),
          ConstructionError: (3, "domain error"), NumericError: (4, "numeric failure"),
          MemoryError: (4, "out of memory")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="stablesde", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    p_run = sub.add_parser("run", help="run a config-driven experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--dump-paths", action="store_true")
    p_pb = sub.add_parser("print-bound", help="evaluate the rate bound")
    p_pb.add_argument("--alpha", type=float, required=True)
    p_pb.add_argument("--eta-tilde", type=float, required=True)
    p_pb.add_argument("--B", type=float, required=True)
    p_pb.add_argument("--S", type=float, required=True)
    p_pb.add_argument("--x0-gap", type=float, required=True)
    p_pb.add_argument("--h", type=float, default=None)
    args = parser.parse_args(argv)
    try:
        if args.subcommand == "print-bound":
            return print_bound(args.alpha, args.eta_tilde, args.B, args.S,
                               args.x0_gap, args.h)
        for item in args.overrides:
            if "=" not in item:
                raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        return run(args.config, [item.partition("=")[::2] for item in args.overrides],
                   args.out, args.dump_paths)
    except tuple(_EXITS) as exc:
        code, prefix = next(_EXITS[kind] for kind in type(exc).__mro__ if kind in _EXITS)
        suffix = ("" if getattr(exc, "estimate", None) is None
                  and getattr(exc, "error_bound", None) is None else
                  f" (estimate={exc.estimate}, error_bound={exc.error_bound})")
        print(f"{prefix}: {exc}{suffix}", file=sys.stderr)
        return code
