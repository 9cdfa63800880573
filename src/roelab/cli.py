"""Experiment runner: seeded commands over all modules with JSON/CSV reports.

Exit codes: 0 for PASS verdicts, 2 for a numerical bound violation, 1 for
usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import propa, quasilocal, randsub, reps, spaces, translations
from .operators import SpaceOperator, dist_to_band_bounds, eps_propagation_radius, operator_norm
from .report import make_report
from .errors import RoelabError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_space(spec: str) -> spaces.FiniteMetricSpace:
    if spec.startswith("regular:"):
        _, n, d, seed = spec.split(":")
        return spaces.random_regular(int(n), int(d), int(seed))
    if spec.startswith("far:"):
        return spaces.far_points(int(spec.split(":")[1]))
    if spec.startswith("interval:"):
        return propa.interval_space(int(spec.split(":")[1]))
    if spec.startswith("torus:"):
        return propa.torus_space(int(spec.split(":")[1]))
    return spaces.load_space(spec)


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
        mats = np.array(
            [[[complex(re, im) for re, im in row] for row in m] for m in obj["matrices"]]
        )
        return reps.DenseRep(group, mats)
    raise ValueError(f"unknown group spec {spec!r}")


def _band_contraction(space, R, seed):
    rng = np.random.default_rng(seed)
    n = space.n
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = np.where(space.dist <= R, m, 0.0)
    norm = operator_norm(m)
    return SpaceOperator(space=space, mat=m / norm if norm > 0 else m)


# ---------------------------------------------------------------- handlers


def _cmd_space_gen(cfg):
    n, d = cfg["regular"]
    space = spaces.random_regular(n, d, cfg["seed"])
    degrees = (space.dist == 1).sum(axis=1)
    return {
        "space": space.to_json(),
        "degrees_all_equal": bool(np.all(degrees == d)),
        "diameter": int(space.diameter),
    }, True


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
        "decomposition": dec.to_json(),
        "part_count": len(dec.parts),
        "cap": 2 * N,
        "within_cap": ok,
    }, ok


def _cmd_oper_eps_prop(cfg):
    space = _parse_space(cfg["space"])
    if cfg.get("op"):
        with open(cfg["op"]) as fh:
            u = SpaceOperator.from_json(json.load(fh), space)
    else:
        u = _band_contraction(space, cfg["R"], cfg["seed"])
    res = eps_propagation_radius(
        u, cfg["eps"], mode=cfg["mode"], seed=cfg["seed"], budget=cfg["budget"]
    )
    return {
        "eps": cfg["eps"],
        "mode": res.mode,
        "R_lower": res.lower,
        "R_upper": res.upper,
        "witness": res.witness,
        "bracket_ok": bool(res.lower <= res.upper),
    }, bool(res.lower <= res.upper)


def _cmd_oper_band_dist(cfg):
    space = _parse_space(cfg["space"])
    if cfg.get("op"):
        with open(cfg["op"]) as fh:
            u = SpaceOperator.from_json(json.load(fh), space)
    else:
        u = _band_contraction(space, cfg["R"] + 2, cfg["seed"])
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
    return {
        "d": cfg["d"],
        "delta": cfg["delta"],
        "log_binomial": log_binomial,
        "H_bound": H_bound,
        "holds": bool(log_binomial <= H_bound + 1e-9),
    }, True


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
    space = propa.interval_space(cfg["N"])
    u = _band_contraction(space, cfg["R"], cfg["seed"])
    _, error, report = propa.sz_approximate(u, cfg["eps"], cfg["R"], seed=cfg["seed"])
    return report, report["holds"]


def _cmd_propa_rademacher(cfg):
    space = propa.interval_space(cfg["N"])
    mu = propa.uniform_ball_kernel(space, cfg["R"], cfg["delta"])
    nu = propa.uniform_ball_kernel(space, mu.S, cfg["delta"])
    field = propa.isometry_field(nu)
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

_HANDLERS = {
    "space.gen": _cmd_space_gen,
    "space.kappa": _cmd_space_kappa,
    "translations.decompose": _cmd_translations_decompose,
    "oper.eps-prop": _cmd_oper_eps_prop,
    "oper.band-dist": _cmd_oper_band_dist,
    "reps.irr-check": _cmd_reps_irr_check,
    "reps.gap-cert": _cmd_reps_gap_cert,
    "randsub.mc": _cmd_randsub_mc,
    "randsub.levy": _cmd_randsub_levy,
    "randsub.entropy": _cmd_randsub_entropy,
    "ql.build": _cmd_ql_build,
    "ql.profile": _cmd_ql_profile,
    "ql.witness": _cmd_ql_witness,
    "propa.sz": _cmd_propa_sz,
    "propa.rademacher": _cmd_propa_rademacher,
    "all.smoke": _cmd_all_smoke,
}


def _int_list(text):
    return [int(t) for t in text.split(",") if t]


def _float_list(text):
    return [float(t) for t in text.split(",") if t]


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override its values")
    common.add_argument("--out", help="write the report to this path")
    common.add_argument("--format", choices=["json", "csv"], default="json")

    p = _Parser(prog="roelab")
    sub = p.add_subparsers(dest="module", required=True)

    def add(group, name):
        return group.add_parser(name, parents=[common])

    sp = sub.add_parser("space")
    sps = sp.add_subparsers(dest="action", required=True)
    g = add(sps, "gen")
    g.add_argument("--regular", type=_int_list, required=True, metavar="N,D")
    g.add_argument("--seed", type=int, default=0)
    k = add(sps, "kappa")
    k.add_argument("--space", required=True)
    k.add_argument("-R", type=float, default=1)
    k.add_argument("--mode", choices=["exact", "spectral"], default="exact")

    tr = sub.add_parser("translations")
    trs = tr.add_subparsers(dest="action", required=True)
    d = add(trs, "decompose")
    d.add_argument("--space", required=True)
    d.add_argument("-R", type=float, default=1)

    op = sub.add_parser("oper")
    ops = op.add_subparsers(dest="action", required=True)
    e = add(ops, "eps-prop")
    e.add_argument("--space", required=True)
    e.add_argument("--op")
    e.add_argument("--eps", type=float, required=True)
    e.add_argument("--mode", choices=["exact", "heuristic"], default="heuristic")
    e.add_argument("-R", type=float, default=1)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--budget", type=int, default=500)
    b = add(ops, "band-dist")
    b.add_argument("--space", required=True)
    b.add_argument("--op")
    b.add_argument("-R", type=float, default=1)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--budget", type=int, default=500)

    rp = sub.add_parser("reps")
    rps = rp.add_subparsers(dest="action", required=True)
    ic = add(rps, "irr-check")
    ic.add_argument("--group", required=True)
    ic.add_argument("--trials", type=int, default=100)
    ic.add_argument("--seed", type=int, default=0)
    gc = add(rps, "gap-cert")
    gc.add_argument("--group", required=True)
    gc.add_argument("--space", required=True)
    gc.add_argument("-R", type=float, default=1)

    rs = sub.add_parser("randsub")
    rss = rs.add_subparsers(dest="action", required=True)
    mc = add(rss, "mc")
    mc.add_argument("--d", type=int, required=True)
    mc.add_argument("--n", type=int, required=True)
    mc.add_argument("--delta", type=float, required=True)
    mc.add_argument("--c0", type=float, default=100.0)
    mc.add_argument("--trials", type=int, default=100)
    mc.add_argument("--seed", type=int, default=0)
    lv = add(rss, "levy")
    lv.add_argument("--d", type=int, required=True)
    lv.add_argument("--delta", type=float, required=True)
    lv.add_argument("--trials", type=int, default=1000)
    lv.add_argument("--seed", type=int, default=0)
    en = add(rss, "entropy")
    en.add_argument("--d", type=int, required=True)
    en.add_argument("--delta", type=float, required=True)

    ql = sub.add_parser("ql")
    qls = ql.add_subparsers(dest="action", required=True)
    for name in ("build", "profile", "witness"):
        q = add(qls, name)
        q.add_argument("--members", type=_int_list, default=[16, 32, 64, 128])
        q.add_argument("--degree", type=int, default=4)
        q.add_argument("--c0", type=float, default=3.0)
        q.add_argument("--seed", type=int, default=2)
        if name == "profile":
            q.add_argument("--eps", type=_float_list, default=[0.5, 0.3, 0.2])
            q.add_argument("--budget", type=int, default=200)
            q.add_argument("--samples", type=int, default=200)
        if name == "witness":
            q.add_argument("-R", type=float, default=2)
            q.add_argument("--budget", type=int, default=500)

    pa = sub.add_parser("propa")
    pas = pa.add_subparsers(dest="action", required=True)
    sz = add(pas, "sz")
    sz.add_argument("--N", type=int, default=300)
    sz.add_argument("--eps", type=float, default=1e-4)
    sz.add_argument("-R", type=float, default=2)
    sz.add_argument("--seed", type=int, default=0)
    ra = add(pas, "rademacher")
    ra.add_argument("--N", type=int, default=100)
    ra.add_argument("--delta", type=float, default=0.5)
    ra.add_argument("-R", type=float, default=1)
    ra.add_argument("--trials", type=int, default=2000)
    ra.add_argument("--seed", type=int, default=0)

    al = sub.add_parser("all")
    als = al.add_subparsers(dest="action", required=True)
    sm = add(als, "smoke")
    sm.add_argument("--seed", type=int, default=0)

    return p


def _merge_config(argv: list) -> list:
    """Splice config-file values into argv as flags, so required args may come
    from the file; explicitly passed flags win."""
    if "--config" not in argv[:-1]:  # a trailing --config is argparse's error to report
        return argv
    path = argv[argv.index("--config") + 1]
    with open(path) as fh:
        file_cfg = json.load(fh)
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
    handler = _HANDLERS[command]
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
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse_args(argv)
        report, code = _execute(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (RoelabError, FileNotFoundError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "csv":
        text = _to_csv(report["results"])
    else:
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    print(text, end="")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
