"""Experiment runner: seeded commands over all modules with JSON/CSV reports.

Each command and its flags are defined once, in ``COMMANDS``; the parser and
the dispatch are both built from that table.

Exit codes: 0 for PASS verdicts, 2 for a numerical bound violation, 1 for
usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import numpy as np

from . import operators, propa, quasilocal, randsub, reps, spaces, translations
from .operators import SpaceOperator, dist_to_band_bounds, eps_propagation_radius
from .report import dumps, make_report
from .errors import RoelabError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_space(spec: str) -> spaces.FiniteMetricSpace:
    if spec.startswith("regular:"):
        parts = spec.split(":")
        if len(parts) != 4:
            raise ValueError(f"space {spec!r} must read regular:N:D:SEED")
        _, n, d, seed = parts
        return spaces.random_regular(int(n), int(d), int(seed))
    if spec.startswith("far:"):
        return spaces.far_points(_size(spec))
    if spec.startswith("interval:"):
        return spaces.interval_space(_size(spec))
    if spec.startswith("torus:"):
        return spaces.torus_space(_size(spec))
    return spaces.load_space(spec)


def _size(spec: str) -> int:
    n = int(spec.split(":")[1])
    if n < 1:
        raise ValueError(f"space {spec!r} needs at least one point")
    return n


def _parse_group(spec: str) -> reps.UnitaryRep:
    if spec.startswith("heis:"):
        return reps.heisenberg_rep(int(spec.split(":")[1]))
    if spec.startswith("sym:"):
        return reps.symmetric_standard_rep(int(spec.split(":")[1]))
    if spec.startswith("file:"):
        with open(spec.split(":", 1)[1]) as fh:
            obj = json.load(fh)
        for key in ("table", "matrices"):
            if not isinstance(obj, dict) or key not in obj:
                raise ValueError(f"group file needs a {key!r} field")
        group = reps.TableGroup(np.array(obj["table"]))
        return reps.DenseRep(group, operators.complex_from_pairs(obj["matrices"]))
    raise ValueError(f"unknown group spec {spec!r}")


def _band_contraction(space, R, seed):
    """A seeded contraction of band radius R: complex Gaussian entries (real
    parts drawn first, as n x n draws) on near(R), zero elsewhere, normed
    once by SpaceOperator.normalised. Both draws go through one real buffer,
    and only its band entries are gathered, row-major (an exact-zero draw
    stays listed, as 0)."""
    rng = np.random.default_rng(seed)
    rows, cols = np.nonzero(space.near(R))
    buf = rng.standard_normal((space.n, space.n))
    vals = np.empty(len(rows), np.complex128)
    vals.real = buf[rows, cols]
    vals.imag = rng.standard_normal(out=buf)[rows, cols]
    del buf  # freed before the norm grows its Krylov basis
    return SpaceOperator.normalised(space, operators.Entries((space.n, space.n), rows, cols, vals))


def _operator(cfg, R):
    """The operator of an oper command: the --op file on --space if given,
    else a seeded contraction with band radius R."""
    space = _parse_space(cfg["space"])
    if cfg.get("op"):
        with open(cfg["op"]) as fh:
            return SpaceOperator.from_json(json.load(fh), space)
    return _band_contraction(space, R, cfg["seed"])


# ---------------------------------------------------------------- handlers


def _cmd_space_gen(cfg):
    if len(cfg["regular"]) != 2:
        raise ValueError("--regular takes N,D")
    n, d = cfg["regular"]
    space = spaces.random_regular(n, d, cfg["seed"])
    degrees = space.near(1).sum(axis=1) - 1  # the points within 1, less the point itself
    regular = bool(np.all(degrees == d))
    return {
        "space": space.json_arrays(),
        "degrees_all_equal": regular,
        "diameter": int(space.diameter),
    }, regular


def _cmd_space_kappa(cfg):
    space = _parse_space(cfg["space"])
    kappa, kind = spaces.expansion_kappa(space, cfg["R"], mode=cfg["mode"])
    return {"n": space.n, "R": cfg["R"], "kappa": kappa, "kind": kind}, True


def _cmd_translations_decompose(cfg):
    space = _parse_space(cfg["space"])
    dec = translations.decompose_band(space, cfg["R"])
    N = spaces.growth(space, cfg["R"])
    ok = len(dec.parts) <= 2 * N
    return {
        "decomposition": dec.json_arrays(),
        "part_count": len(dec.parts),
        "cap": 2 * N,
        "within_cap": ok,
    }, ok


def _cmd_oper_eps_prop(cfg):
    u = _operator(cfg, cfg["R"])
    if cfg["mode"] == "exact":
        res = eps_propagation_radius(u, cfg["eps"])
    else:
        res = operators.eps_propagation_brackets(u, [cfg["eps"]], seed=cfg["seed"], budget=cfg["budget"])[0]
    return {
        "eps": cfg["eps"],
        "mode": cfg["mode"],
        "R_lower": res.lower,
        "R_upper": res.upper,
        "witness": res.witness,
        "bracket_ok": bool(res.lower <= res.upper),
    }, bool(res.lower <= res.upper)


def _cmd_oper_band_dist(cfg):
    u = _operator(cfg, cfg["R"] + 2)
    b = dist_to_band_bounds(u, cfg["R"], budget=cfg["budget"], seed=cfg["seed"])
    ok = b.lower <= b.upper + 1e-9
    return {
        "R": cfg["R"],
        "lower": b.lower,
        "upper": b.upper,
        "witness": b.witness,
        "ordered": ok,
    }, ok


def _cmd_reps_irr_check(cfg):
    rep = _parse_group(cfg["group"])
    cert = rep.certificate(seed=cfg["seed"])
    rng = np.random.default_rng(cfg["seed"])
    order, n = rep.group.order, rep.dim
    bound = 1.0 / np.sqrt(n) + 1e-9
    worst = 0.0
    for _ in range(cfg["trials"]):
        alpha = np.exp(2j * np.pi * rng.random(order))
        worst = max(worst, reps.averaged_norm(rep, alpha))
    ok = bool(cert["ok"] and worst <= bound)
    return {
        "group": cfg["group"],
        "dim": n,
        "order": order,
        "certificate": cert,
        "trials": cfg["trials"],
        "max_averaged_norm": worst,
        "bound": bound,
        "verdict": "PASS" if ok else "FAIL",
    }, ok


def _cmd_reps_gap_cert(cfg):
    rep = _parse_group(cfg["group"])
    space = _parse_space(cfg["space"])
    report = reps.gap_certificate(rep, space, cfg["R"])
    return report, report.verdict == "PASS"


def _cmd_randsub_mc(cfg):
    rep = randsub.mc_lemma_random(
        cfg["d"], cfg["n"], cfg["delta"], cfg["c0"], cfg["trials"], cfg["seed"]
    )
    return rep, True


def _cmd_randsub_levy(cfg):
    rep = randsub.levy_median_check(cfg["d"], cfg["delta"], cfg["trials"], cfg["seed"])
    ok = rep.median_ok and rep.mean_square_ok
    return rep, ok


def _cmd_randsub_entropy(cfg):
    log_binomial, H_bound = randsub.entropy_count_bound(cfg["d"], cfg["delta"])
    holds = bool(log_binomial <= H_bound + 1e-9)
    return {
        "d": cfg["d"],
        "delta": cfg["delta"],
        "log_binomial": log_binomial,
        "H_bound": H_bound,
        "holds": holds,
    }, holds


def _build_assembly(cfg):
    family = quasilocal.regular_family(cfg["members"], cfg["degree"], cfg["seed"])
    subs, rejects = quasilocal.select_subspaces(family, cfg["c0"], seed=cfg["seed"])
    assembly = quasilocal.assemble(family, subs, c0=cfg["c0"])
    return assembly, rejects


def _cmd_ql_build(cfg):
    assembly, rejects = _build_assembly(cfg)
    inv = quasilocal.projection_invariants(assembly)
    ok = inv["idempotency_dev"] <= 1e-8 and inv["self_adjoint_dev"] <= 1e-8
    return {
        "members": [m.n for m in assembly.family.members],
        "kappa": assembly.family.kappa,
        "kappa_kind": assembly.family.kappa_kind,
        "c0": cfg["c0"],
        "rejections": rejects,
        "schedule": assembly.schedule,
        "schedule_vacuous": assembly.schedule_vacuous,
        "projection": inv,
    }, ok


def _cmd_ql_profile(cfg):
    assembly, _ = _build_assembly(cfg)
    rows = quasilocal.quasilocality_profile(
        assembly, cfg["eps"], seed=cfg["seed"], budget=cfg["budget"]
    )
    mech = quasilocal.mechanism_check(assembly, cfg["samples"], seed=cfg["seed"])
    lowers = [r["R_lower"] for r in rows]
    uppers = [r["R_upper"] for r in rows]
    monotone = all(a <= b for a, b in zip(lowers, lowers[1:])) and all(
        l <= u for l, u in zip(lowers, uppers)
    )
    ok = monotone and mech["submultiplicative_ok"] and mech["schedule_ok"]
    return {"profile": rows, "mechanism": mech, "monotone": monotone}, ok


def _cmd_ql_witness(cfg):
    assembly, _ = _build_assembly(cfg)
    b = quasilocal.non_band_witness(assembly, cfg["R"], budget=cfg["budget"], seed=cfg["seed"])
    ok = b.lower > 0 and b.lower <= b.upper + 1e-9
    return {"R": cfg["R"], "lower": b.lower, "upper": b.upper, "witness": b.witness}, ok


def _cmd_propa_sz(cfg):
    space = spaces.interval_space(cfg["N"])
    u = _band_contraction(space, cfg["R"], cfg["seed"])
    _, _, report = propa.sz_approximate(u, cfg["eps"], cfg["R"], seed=cfg["seed"])
    return report, report["holds"]


def _cmd_propa_rademacher(cfg):
    space = spaces.interval_space(cfg["N"])
    mu, field = propa.kernel_chain(space, cfg["R"], cfg["delta"])
    u = _band_contraction(space, cfg["R"], cfg["seed"])
    report = propa.rademacher_diagnostics(field, mu, cfg["trials"], cfg["seed"], u=u)
    ok = all(v for k, v in report.items() if k.endswith("_ok"))
    return report, ok


def _cmd_all_smoke(cfg):
    seed = cfg["seed"]
    sub = {}
    ok = True
    for name, handler, sub_cfg in [
        ("space_kappa", _cmd_space_kappa, {"space": f"regular:16:4:{seed}", "R": 1, "mode": "exact"}),
        ("translations", _cmd_translations_decompose, {"space": f"regular:24:3:{seed}", "R": 2}),
        ("irr_check", _cmd_reps_irr_check, {"group": "heis:3", "trials": 25, "seed": seed}),
        (
            "gap_cert",
            _cmd_reps_gap_cert,
            {"group": "heis:5", "space": "far:5", "R": 1},
        ),
        ("levy", _cmd_randsub_levy, {"d": 100, "delta": 0.05, "trials": 400, "seed": seed}),
        ("entropy", _cmd_randsub_entropy, {"d": 100, "delta": 0.1}),
        (
            "sz",
            _cmd_propa_sz,
            {"N": 60, "eps": 0.25, "R": 1, "seed": seed},
        ),
    ]:
        results, good = handler(sub_cfg)
        sub[name] = {"ok": bool(good), "results": results}
        ok = ok and good
    return sub, ok


# ---------------------------------------------------------------- wiring


def _nonempty(values: list) -> list:
    """A list flag's values; an empty list would check nothing and pass."""
    if not values:
        raise argparse.ArgumentTypeError("needs at least one value")
    return values


def _int_list(text):
    return _nonempty([int(t) for t in text.split(",") if t])


def _float_list(text):
    return _nonempty([float(t) for t in text.split(",") if t])


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _int(default):
    return dict(type=int, default=default)


def _count(default):
    """A count of samples, rectangles or points: none would back a verdict with nothing."""
    return dict(type=_positive_int, default=default)


def _float(default):
    return dict(type=float, default=default)


_REQUIRED_INT = dict(type=int, required=True)
_REQUIRED_FLOAT = dict(type=float, required=True)
_SEED = {"--seed": _int(0)}
_SPACE = {"--space": dict(required=True)}
_GROUP = {"--group": dict(required=True)}
_QL = {
    "--members": dict(type=_int_list, default=(16, 32, 64, 128)),
    "--degree": _int(4),
    "--c0": _float(3.0),
    "--seed": _int(2),
}
_COMMON = {
    "--config": dict(help="JSON config file; flags override its values"),
    "--out": dict(help="write the report to this path"),
    "--format": dict(choices=["json", "csv"], default="json"),
}

# "module.action" -> (handler, {flag: argparse keywords}): the one place a
# command is defined. The parser is built once, so no default may be mutable.
COMMANDS = {
    "space.gen": (_cmd_space_gen, {
        "--regular": dict(type=_int_list, required=True, metavar="N,D"), **_SEED,
    }),
    "space.kappa": (_cmd_space_kappa, {
        **_SPACE, "-R": _float(1), "--mode": dict(choices=["exact", "spectral"], default="exact"),
    }),
    "translations.decompose": (_cmd_translations_decompose, {**_SPACE, "-R": _float(1)}),
    "oper.eps-prop": (_cmd_oper_eps_prop, {
        **_SPACE, "--op": {}, "--eps": _REQUIRED_FLOAT,
        "--mode": dict(choices=["exact", "heuristic"], default="heuristic"),
        "-R": _float(1), **_SEED, "--budget": _count(500),
    }),
    "oper.band-dist": (_cmd_oper_band_dist, {
        **_SPACE, "--op": {}, "-R": _float(1), **_SEED, "--budget": _count(500),
    }),
    "reps.irr-check": (_cmd_reps_irr_check, {**_GROUP, "--trials": _count(100), **_SEED}),
    "reps.gap-cert": (_cmd_reps_gap_cert, {**_GROUP, **_SPACE, "-R": _float(1)}),
    "randsub.mc": (_cmd_randsub_mc, {
        "--d": _REQUIRED_INT, "--n": _REQUIRED_INT, "--delta": _REQUIRED_FLOAT,
        "--c0": _float(100.0), "--trials": _count(100), **_SEED,
    }),
    "randsub.levy": (_cmd_randsub_levy, {
        "--d": _REQUIRED_INT, "--delta": _REQUIRED_FLOAT, "--trials": _count(1000), **_SEED,
    }),
    "randsub.entropy": (_cmd_randsub_entropy, {"--d": _REQUIRED_INT, "--delta": _REQUIRED_FLOAT}),
    "ql.build": (_cmd_ql_build, _QL),
    "ql.profile": (_cmd_ql_profile, {
        **_QL, "--eps": dict(type=_float_list, default=(0.5, 0.3, 0.2)),
        "--budget": _count(200), "--samples": _count(200),
    }),
    "ql.witness": (_cmd_ql_witness, {**_QL, "-R": _float(2), "--budget": _count(500)}),
    "propa.sz": (_cmd_propa_sz, {
        "--N": _count(300), "--eps": _float(1e-4), "-R": _float(2), **_SEED,
    }),
    "propa.rademacher": (_cmd_propa_rademacher, {
        "--N": _count(100), "--delta": _float(0.5), "-R": _float(1), "--trials": _count(2000), **_SEED,
    }),
    "all.smoke": (_cmd_all_smoke, _SEED),
}


@functools.cache
def build_parser() -> _Parser:
    """The parser of every command in COMMANDS, built once per process."""
    parser = _Parser(prog="roelab")
    modules = parser.add_subparsers(dest="module", required=True)
    actions = {}
    for command, (_, flags) in COMMANDS.items():
        module, action = command.split(".")
        if module not in actions:
            module_parser = modules.add_parser(module)
            actions[module] = module_parser.add_subparsers(dest="action", required=True)
        sub = actions[module].add_parser(action)
        for flag, kwargs in {**_COMMON, **flags}.items():
            sub.add_argument(flag, **kwargs)
    return parser


def _merge_config(argv: list) -> list:
    """Splice config-file values into argv as flags, so required args may come
    from the file; explicitly passed flags win."""
    if "--config" not in argv[:-1]:  # a trailing --config is argparse's error to report
        return argv
    path = argv[argv.index("--config") + 1]
    with open(path) as fh:
        file_cfg = json.load(fh)
    if not isinstance(file_cfg, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    passed = {a.lstrip("-").replace("-", "_") for a in argv if a.startswith("-")}
    extra = []
    for key, value in file_cfg.items():
        if key in passed:
            continue
        flag = "-R" if key == "R" else "--" + key.replace("_", "-")
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        extra += [flag, str(value)]
    return list(argv) + extra


def _parse_args(argv) -> argparse.Namespace:
    return build_parser().parse_args(_merge_config(list(argv)))


def run(argv) -> tuple:
    """Parse arguments, dispatch, and build the report; returns (report, exit_code)."""
    return _execute(_parse_args(argv))


def _execute(args: argparse.Namespace) -> tuple:
    command = f"{args.module}.{args.action}"
    handler = COMMANDS[command][0]
    cfg = {
        k: v
        for k, v in vars(args).items()
        if k not in ("module", "action", "config", "out", "format") and v is not None
    }
    start = time.monotonic()
    results, ok = handler(cfg)
    wall = time.monotonic() - start
    report = make_report(command, cfg, results, wall)
    return report, (0 if ok else 2)


def _to_csv(results: dict) -> str:
    lines = ["key,value"]

    def walk(prefix, obj):
        if isinstance(obj, dict):
            for k in sorted(obj):
                walk(f"{prefix}.{k}" if prefix else str(k), obj[k])
        elif isinstance(obj, list):
            for i, v in enumerate(obj):
                walk(f"{prefix}[{i}]", v)
        else:
            lines.append(f"{prefix},{obj}")

    walk("", results)
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse_args(argv)
        report, code = _execute(args)
        if args.format == "csv":
            text = _to_csv(report["results"])
        else:
            text = dumps(report)
        # print adds the final newline, so the report text is not copied for it
        if args.out:
            with open(args.out, "w") as fh:
                print(text, file=fh)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (RoelabError, OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
