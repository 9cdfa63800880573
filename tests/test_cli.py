import json

import numpy as np
import pytest

from conftest import operator_json
from roelab import operators, randsub, spaces, translations
from roelab.cli import COMMANDS, _band_contraction, _parse_args, _parse_space, _positive_int, build_parser, main, run
from roelab.operators import DENSE_NORM_MAX, SpaceOperator, eps_propagation_brackets, operator_norm
from roelab.propa import sz_approximate
from roelab.report import jsonable, report_diff, results_bytes
from roelab.spaces import interval_space


def run_json(argv, tmp_path, capsys=None):
    report, code = run(argv)
    return report, code


class TestExitCodes:
    def test_pass_is_zero(self):
        _, code = run(["randsub", "entropy", "--d", "50", "--delta", "0.2"])
        assert code == 0

    def test_usage_error_is_one(self, capsys):
        assert main(["space"]) == 1
        assert main(["nonsense"]) == 1
        assert main(["space", "kappa"]) == 1  # missing required --space

    def test_domain_error_is_one(self, capsys):
        # 5 points cannot host a 3-regular graph pairing (odd product)
        assert main(["space", "kappa", "--space", "regular:5:3:0"]) == 1
        assert main(["space", "kappa", "--space", "/no/such/file.json"]) == 1

    def test_bound_violation_is_two(self, tmp_path, capsys):
        # a reducible 2-dimensional representation of the trivial group:
        # the irreducibility certificate must fail and exit with code 2
        fixture = tmp_path / "reducible.json"
        fixture.write_text(
            json.dumps(
                {
                    "table": [[0]],
                    "matrices": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]],
                }
            )
        )
        report, code = run(
            ["reps", "irr-check", "--group", f"file:{fixture}", "--trials", "5"]
        )
        assert code == 2
        assert report["results"]["verdict"] == "FAIL"
        assert not report["results"]["certificate"]["irreducible"]


class TestVerdictsDecidedByTheCommand:
    def test_entropy_exits_two_when_the_bound_fails(self, monkeypatch, capsys):
        monkeypatch.setattr(randsub, "entropy_count_bound", lambda d, delta: (1.0, 0.0))
        assert main(["randsub", "entropy", "--d", "100", "--delta", "0.1"]) == 2
        assert json.loads(capsys.readouterr().out)["results"]["holds"] is False

    def test_decompose_exits_two_when_over_the_cap(self, monkeypatch, capsys):
        # growth forced to 1 wherever it is bound: the greedy partition then
        # exceeds the cap 2, which the command reports instead of raising
        for module in (spaces, translations):
            if hasattr(module, "growth"):
                monkeypatch.setattr(module, "growth", lambda space, R: 1)
        assert main(["translations", "decompose", "--space", "regular:24:3:1", "-R", "2"]) == 2
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["within_cap"] is False and results["cap"] == 2 < results["part_count"]

    def test_space_gen_verdict_is_regularity(self, monkeypatch):
        assert run(["space", "gen", "--regular", "16,3", "--seed", "1"])[1] == 0
        path = spaces.interval_space(16)  # a path is not 3-regular
        monkeypatch.setattr(spaces, "random_regular", lambda n, d, seed: path)
        report, code = run(["space", "gen", "--regular", "16,3", "--seed", "1"])
        assert code == 2 and report["results"]["degrees_all_equal"] is False


class TestMalformedInput:
    FILES = {
        "no_metric.json": {},
        "no_data.json": {"metric": {"kind": "graph"}},
        "not_an_object.json": [1, 2],
        "no_matrices.json": {"table": [[0]]},
        "no_table.json": {"matrices": [[[[1.0, 0.0]]]]},
        "op_no_n.json": {"rows": [[0.0, 0.0]]},
        "op_no_rows.json": {"n": 1},
        "bad_table.json": {
            "table": [[0, 1, 2], [1, 2, 0], [2, 0, 5]],
            "matrices": [[[[1.0, 0.0]]]] * 3,
        },
        "op_bare_rows.json": {"n": 4, "rows": [0.0] * 16},
        "op_text_entry.json": {"n": 4, "rows": [["a", 0]] + [[0, 0]] * 15},
        "op_infinite.json": {"n": 4, "rows": [[float("inf"), 0]] + [[0, 0]] * 15},
        "op_float_n.json": {"n": 2.0, "rows": [[0.0, 0.0]] * 4},
        "op_bool_n.json": {"n": True, "rows": [[0.0, 0.0]]},
        "metric_fractional.json": {"metric": {"kind": "graph", "data": [[0, 1.5], [1.5, 0]]}},
        "metric_infinite.json": {"metric": {"kind": "explicit", "data": [[0, float("inf")], [float("inf"), 0]]}},
        "metric_null.json": {"metric": {"kind": "graph", "data": [[0, None], [None, 0]]}},
        # 2^63 - 1 reads as the float 2^63, which overflowed the int64 cast
        "metric_huge_graph.json": {"metric": {"kind": "graph", "data": [[0, 2 ** 63 - 1], [2 ** 63 - 1, 0]]}},
        "metric_weighted.json": {"metric": {"kind": "weighted", "data": [[0, 1.5], [1.5, 0]]}},
        "group_bare.json": {"table": [[0]], "matrices": [[[1.0]]]},
        "group_1x2.json": {"table": [[0]], "matrices": [[[[1.0, 0.0], [0.0, 0.0]]]]},
        "group_text_table.json": {"table": [[{"e": 0}]], "matrices": [[[[1.0, 0.0]]]]},
        # Z/2 acting as diag(1, +-1): unitary but reducible
        "group_z2_diag.json": {
            "table": [[0, 1], [1, 0]],
            "matrices": [
                [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
            ],
        },
    }
    CASES = [
        ["space", "kappa", "--space", "{dir}/no_metric.json"],
        ["space", "kappa", "--space", "{dir}/no_data.json"],
        ["translations", "decompose", "--space", "{dir}/not_an_object.json"],
        ["reps", "irr-check", "--group", "file:{dir}/no_matrices.json"],
        ["reps", "irr-check", "--group", "file:{dir}/no_table.json"],
        ["reps", "irr-check", "--group", "file:{dir}/not_an_object.json"],
        ["space", "kappa", "--space", "regular:16:4:2", "--mode", "spectral", "-R", "0"],
        ["randsub", "levy", "--config"],
        ["space", "kappa", "--space", "{dir}"],
        ["randsub", "entropy", "--d", "50", "--delta", "0.2", "--out", "{dir}/missing/x.json"],
        ["oper", "eps-prop", "--space", "interval:1", "--eps", "0.1", "--op", "{dir}/op_no_n.json"],
        ["oper", "eps-prop", "--space", "interval:1", "--eps", "0.1", "--op", "{dir}/op_no_rows.json"],
        ["oper", "eps-prop", "--space", "interval:2", "--eps", "0.1", "--op", "{dir}/not_an_object.json"],
        ["reps", "irr-check", "--group", "file:{dir}/bad_table.json"],
        ["oper", "eps-prop", "--eps", "0.1", "--space", "interval:0"],
        ["oper", "eps-prop", "--eps", "0.1", "--space", "torus:0"],
        ["oper", "eps-prop", "--eps", "0.1", "--space", "far:0"],
        ["oper", "eps-prop", "--eps", "0.1", "--space", "interval:-1"],
        ["oper", "eps-prop", "--space", "interval:3", "--eps", "nan"],
        ["oper", "band-dist", "--space", "interval:5", "-R", "nan"],
        ["translations", "decompose", "-R", "nan", "--space", "interval:5"],
        ["reps", "irr-check", "--group", "heis:3", "--trials", "0"],
        ["randsub", "levy", "--trials", "0", "--d", "100", "--delta", "0.1"],
        ["ql", "profile", "--samples", "0"],
        # NaN and negative radii, each row's last two words unique as its test id
        ["space", "kappa", "--space", "interval:5", "-R", "nan", "--mode", "exact"],
        ["oper", "eps-prop", "--space", "interval:5", "-R", "nan", "--eps", "0.1"],
        ["oper", "eps-prop", "--space", "interval:5", "--eps", "0.1", "-R", "-1"],
        ["propa", "rademacher", "-R", "nan", "--N", "20"],
        # infinite radii, whose support radius 2R/delta has no integer ceiling
        ["propa", "sz", "--N", "20", "-R", "inf"],
        # an infinite eps made S = T = 0 and printed a vacuous PASS
        ["propa", "sz", "--eps", "inf"],
        ["propa", "rademacher", "--N", "20", "-R", "infinity"],
        # an infinite delta made S = 0, and the exact comparison overflowed
        ["propa", "rademacher", "--N", "5", "--delta", "inf"],
        # [re, im] files: bare numbers, text, infinity, 1 x 2 matrices, a non-integer table
        ["oper", "eps-prop", "--mode", "exact", "--space", "interval:4", "--eps", "0.1",
         "--op", "{dir}/op_bare_rows.json"],
        ["oper", "eps-prop", "--mode", "exact", "--space", "interval:4", "--eps", "0.1",
         "--op", "{dir}/op_text_entry.json"],
        ["oper", "eps-prop", "--mode", "exact", "--space", "interval:4", "--eps", "0.1",
         "--op", "{dir}/op_infinite.json"],
        ["reps", "irr-check", "--group", "file:{dir}/group_bare.json"],
        ["reps", "irr-check", "--group", "file:{dir}/group_1x2.json"],
        ["reps", "irr-check", "--group", "file:{dir}/group_text_table.json"],
        # a group spec names heis:P, sym:M or file:PATH
        ["reps", "gap-cert", "--space", "far:3", "--group", "nope:3"],
        # the spectral expansion bound reads the unit-distance graph, which far points lack
        ["space", "kappa", "--space", "far:3", "--mode", "spectral"],
        # the gap certificate's closed forms need a unitary irreducible
        ["reps", "gap-cert", "--space", "far:2", "--group", "file:{dir}/group_z2_diag.json"],
        # c0 must be positive; a NaN eps anywhere in a profile's list is rejected
        ["randsub", "mc", "--c0", "nan", "--n", "3", "--delta", "0.2", "--d", "20"],
        ["randsub", "mc", "--d", "20", "--n", "3", "--delta", "0.2", "--c0", "-5"],
        ["ql", "build", "--c0", "nan", "--members", "16,32"],
        # a one-member schedule has no threshold row, yet c0 is still checked
        ["ql", "build", "--members", "16", "--c0", "-1"],
        ["ql", "build", "--members", "16", "--c0", "nan"],
        ["ql", "witness", "--members", "16", "--c0", "-1", "-R", "1"],
        ["ql", "profile", "--eps", "nan", "--members", "8,12,16"],
        ["ql", "profile", "--members", "8,12,16", "--eps", "0.5,-0.1"],
        # every budget, trial, sample and point count is positive
        ["oper", "eps-prop", "--space", "interval:40", "--eps", "0.1", "--budget", "0"],
        ["oper", "eps-prop", "--budget", "-3", "--eps", "0.1", "--space", "interval:40"],
        ["oper", "band-dist", "--budget", "0", "--space", "interval:30"],
        ["ql", "profile", "--members", "8,12,16", "--budget", "-1"],
        ["ql", "witness", "--members", "8,12,16", "--budget", "-2"],
        ["propa", "sz", "--N", "0"],
        ["propa", "sz", "--eps", "0.01", "--N", "-3"],
        ["propa", "rademacher", "--N", "0", "--delta", "0.5"],
        ["randsub", "mc", "--d", "20", "--n", "3", "--delta", "0.2", "--trials", "-1"],
        # a --config file holds a JSON object; an exact expansion scan needs 2 points
        ["propa", "sz", "--config", "{dir}/not_an_object.json"],
        ["space", "kappa", "--mode", "exact", "--space", "far:1"],
        # space files: non-integral graph data, infinity, null, an unknown kind
        ["space", "kappa", "-R", "1", "--space", "{dir}/metric_fractional.json"],
        ["space", "kappa", "-R", "1", "--space", "{dir}/metric_infinite.json"],
        ["space", "kappa", "-R", "1", "--space", "{dir}/metric_null.json"],
        ["space", "kappa", "-R", "1", "--space", "{dir}/metric_weighted.json"],
        ["space", "kappa", "-R", "1", "--space", "{dir}/metric_huge_graph.json"],
        # operator files whose size is not an exact int
        ["oper", "band-dist", "--space", "interval:2", "--op", "{dir}/op_float_n.json"],
        ["oper", "band-dist", "--space", "interval:1", "--op", "{dir}/op_bool_n.json"],
        # the Levy check's delta lies in (0, 1), as in the other randsub bounds
        ["randsub", "levy", "--d", "5", "--delta", "2"],
        # the entropy bound counts delta d >= 1 coordinates
        ["randsub", "entropy", "--delta", "0.5", "--d", "0"],
        # one sample has no standard error
        ["randsub", "levy", "--d", "50", "--delta", "0.1", "--trials", "1"],
        # regular specs name their form: N,D and regular:N:D:SEED
        ["space", "gen", "--regular", "4"],
        ["space", "gen", "--regular", "4,4,4"],
        ["space", "kappa", "--space", "regular:10:3"],
        ["space", "kappa", "--space", "regular:10:3:1:5"],
        # a list flag holds at least one value: an empty list checks nothing
        ["ql", "build", "--members", ","],
        ["ql", "profile", "--members", "8,12,16", "--eps", ","],
        ["space", "gen", "--regular", ","],
    ]

    @pytest.mark.parametrize("argv", CASES, ids=lambda a: " ".join(a[-2:]))
    def test_exit_one_with_one_line(self, argv, tmp_path, capsys):
        for name, obj in self.FILES.items():
            (tmp_path / name).write_text(json.dumps(obj))
        assert main([a.format(dir=tmp_path) for a in argv]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1, err

    @staticmethod
    def _line_with_diagonal(path, diagonal):
        """8 points on a line, with every diagonal entry within METRIC_TOL of 0."""
        x = np.arange(8.0)
        d = np.abs(x[:, None] - x[None, :])
        np.fill_diagonal(d, diagonal)
        path.write_text(json.dumps({"metric": {"kind": "explicit", "data": d.tolist()}}))
        return str(path)

    def test_negative_float_diagonal_is_radius_zero(self, tmp_path, capsys):
        # a -1e-10 diagonal used to be the smallest candidate radius, which
        # near() rejected as negative
        space = self._line_with_diagonal(tmp_path / "line.json", -1e-10)
        assert main(["oper", "eps-prop", "--space", space, "--mode", "exact", "--eps", "0.1", "-R", "1"]) == 0

    def test_positive_float_diagonal_keeps_rectangles_separated(self, tmp_path):
        # with a +1e-10 diagonal, R = 0 used to leave every point far from
        # itself, and A = B = all points passed as a separated rectangle
        space = self._line_with_diagonal(tmp_path / "line.json", 1e-10)
        report, code = run(["oper", "band-dist", "--space", space, "-R", "0", "--seed", "1"])
        witness = report["results"]["witness"]
        assert code == 0
        assert not set(witness["A"]) & set(witness["B"])
        assert witness["separation"] >= 1


class TestParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_count_flags_are_positive(self):
        counts = [
            (command, flag, flags[flag])
            for command, (_, flags) in COMMANDS.items()
            for flag in ("--budget", "--trials", "--samples", "--N")
            if flag in flags
        ]
        assert len(counts) >= 11
        for command, flag, kwargs in counts:
            assert kwargs["type"] is _positive_int, (command, flag)

    def test_defaults_survive_mutation(self):
        # every call parses with the same parser, so a list default would be shared
        first = _parse_args(["ql", "profile"])
        for value in (first.members, first.eps):
            if isinstance(value, list):
                value.append(0)
        second = _parse_args(["ql", "profile"])
        assert list(second.members) == [16, 32, 64, 128]
        assert list(second.eps) == [0.5, 0.3, 0.2]


class TestDeterminism:
    CASES = [
        ["space", "kappa", "--space", "regular:14:3:3", "--mode", "exact"],
        ["translations", "decompose", "--space", "regular:14:3:1", "-R", "2"],
        ["oper", "eps-prop", "--space", "interval:30", "--eps", "0.2", "-R", "2", "--seed", "4"],
        ["oper", "band-dist", "--space", "interval:25", "-R", "2", "--seed", "1", "--budget", "100"],
        ["reps", "irr-check", "--group", "heis:3", "--trials", "20"],
        ["reps", "gap-cert", "--group", "heis:5", "--space", "far:5", "-R", "2"],
        ["randsub", "mc", "--d", "15", "--n", "3", "--delta", "0.2", "--c0", "3", "--trials", "5"],
        ["randsub", "levy", "--d", "100", "--delta", "0.1", "--trials", "200"],
        ["propa", "sz", "--N", "60", "--eps", "0.01", "-R", "1"],
    ]

    @pytest.mark.parametrize("argv", CASES, ids=lambda a: ".".join(a[:2]))
    def test_rerun_byte_identical(self, argv):
        first, code1 = run(argv)
        second, code2 = run(argv)
        assert code1 == code2 == 0
        assert results_bytes(first["results"]) == results_bytes(second["results"])
        assert report_diff(first, second) == []


class TestCommands:
    def test_space_gen_regular(self):
        report, code = run(["space", "gen", "--regular", "12,3", "--seed", "1"])
        assert code == 0
        assert report["results"]["degrees_all_equal"]

    def test_space_roundtrip_through_file(self, tmp_path, capsys):
        out = tmp_path / "space_report.json"
        assert main(["space", "gen", "--regular", "10,3", "--seed", "2", "--out", str(out)]) == 0
        capsys.readouterr()
        space_file = tmp_path / "space.json"
        space_file.write_text(json.dumps(json.loads(out.read_text())["results"]["space"]))
        report, code = run(["space", "kappa", "--space", str(space_file), "--mode", "exact"])
        assert code == 0
        assert report["results"]["kappa"] >= 1.0

    def test_translations_within_cap(self):
        report, code = run(["translations", "decompose", "--space", "regular:16:4:0", "-R", "2"])
        assert code == 0
        assert report["results"]["part_count"] <= report["results"]["cap"]

    def test_gap_cert_fields(self):
        report, code = run(["reps", "gap-cert", "--group", "heis:5", "--space", "far:5", "-R", "2"])
        assert code == 0
        res = report["results"]
        assert res["verdict"] == "PASS"
        assert res["eps_achieved"] == 1.0

    def test_gap_cert_with_a_live_tensor_check(self):
        # the README line: the first golden gap certificate with a check that is not vacuous
        report, code = run(["reps", "gap-cert", "--group", "sym:4", "--space", "torus:6", "-R", "1"])
        assert code == 0
        res = report["results"]
        assert res["verdict"] == "PASS" and res["checks"]["tensor_lower"]
        assert res["vacuous"]["tensor_lower"] is False

    def test_operator_file_input(self, tmp_path):
        from roelab.operators import SpaceOperator
        from roelab.report import jsonable
        from roelab.spaces import interval_space

        sp = interval_space(12)
        space_file = tmp_path / "space.json"
        space_file.write_text(json.dumps(jsonable(sp.json_arrays())))
        rng = np.random.default_rng(0)
        mat = np.where(sp.dist <= 1, rng.standard_normal((12, 12)), 0.0)
        op_file = tmp_path / "op.json"
        op_file.write_text(json.dumps(operator_json(SpaceOperator(space=sp, mat=mat))))
        report, code = run(
            ["oper", "band-dist", "--space", str(space_file), "--op", str(op_file), "-R", "1"]
        )
        assert code == 0
        assert report["results"]["lower"] == 0.0

    # the README config's support covers the interval; at eps = 1e-2 the bound
    # 18 eps^(1/4) = 5.7 exceeds 2 as well
    @pytest.mark.parametrize("argv", [[], ["--N", "200", "--eps", "1e-2", "-R", "1"]])
    def test_sz_reports_vacuity_and_method(self, argv):
        report, code = run(["propa", "sz", *argv])
        assert code == 0
        res = report["results"]
        assert res["vacuous"] is True
        assert res["propagation_check"] == "truncation-tail"

    def test_all_smoke(self):
        report, code = run(["all", "smoke", "--seed", "0"])
        assert code == 0
        assert all(section["ok"] for section in report["results"].values())


class TestConfigAndOutput:
    def test_config_file_supplies_required_args(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d": 80, "delta": 0.1, "trials": 150, "seed": 3}))
        report, code = run(["randsub", "levy", "--config", str(cfg)])
        assert code == 0
        assert report["config"]["d"] == 80

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d": 80, "delta": 0.1, "trials": 150, "seed": 3}))
        report, _ = run(["randsub", "levy", "--config", str(cfg), "--d", "90"])
        assert report["config"]["d"] == 90

    def test_config_list_value(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"members": [8, 12, 16], "seed": 1}))
        report, code = run(["ql", "build", "--config", str(cfg)])
        assert code == 0
        assert report["config"]["members"] == [8, 12, 16]
        assert report["results"]["members"] == [8, 12, 16]

    @pytest.mark.parametrize(
        "flags, members, c0",
        [
            (["--config={cfg}"], [16, 32], 2.5),
            (["--conf", "{cfg}"], [16, 32], 2.5),
            # a flag the user passes wins over the file in any spelling argparse accepts
            (["--config", "{cfg}", "--c0=4"], [16, 32], 4.0),
            (["--config", "{cfg}", "--mem", "16"], [16], 2.5),
        ],
        ids=["equals", "abbreviated", "flag-equals", "flag-abbreviated"],
    )
    def test_config_spellings(self, tmp_path, flags, members, c0):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"members": [16, 32], "c0": 2.5}))
        report, _ = run(["ql", "build"] + [f.format(cfg=cfg) for f in flags])
        assert (report["config"]["members"], report["config"]["c0"]) == (members, c0)

    def test_csv_of_lists(self, capsys):
        code = main(["ql", "build", "--members", "8,12,16", "--format", "csv"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[0] == "key,value"
        assert {"members[0],8", "members[2],16", "rejections[1],0", "schedule[0].k,2"} <= set(lines)

    def test_out_and_csv(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(
            ["randsub", "entropy", "--d", "40", "--delta", "0.25", "--format", "csv", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("holds,") for line in lines)

    def test_json_output_is_valid(self, capsys):
        code = main(["randsub", "entropy", "--d", "40", "--delta", "0.25"])
        captured = capsys.readouterr()
        assert code == 0
        report = json.loads(captured.out)
        assert report["command"] == "randsub.entropy"


class TestImportFootprint:
    def test_cli_import_loads_no_scipy_solvers(self):
        # scipy is a test-only dependency; scipy.sparse alone adds ~0.25 s to every start
        import os
        import subprocess
        import sys

        import roelab

        src = os.path.dirname(os.path.dirname(roelab.__file__))
        code = "import sys, roelab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestBandContraction:
    """The seeded contraction is normed once, and carries that norm."""

    @pytest.mark.parametrize(
        "spec, R, seed",
        [
            *(("interval:150", R, R) for R in (1, 2, 3)),
            ("interval:600", 2, 0),
            ("torus:200", 2, 1),
            ("regular:200:4:3", 1, 2),
            ("interval:100", 2, 5),  # at most DENSE_NORM_MAX: the LAPACK norm
        ],
    )
    def test_carried_norm_is_honest(self, spec, R, seed):
        u = _band_contraction(_parse_space(spec), R, seed)
        assert u._norm is not None
        value, err = u.norm()
        fresh, fresh_err = operator_norm(u.mat, with_err=True)
        assert value <= 1 + 1e-9
        assert fresh - fresh_err <= value + err and value - err <= fresh + fresh_err

    @pytest.mark.parametrize("N, eps, R, seed", [(200, "1e-2", 1, 0), (300, "1e-4", 3, 1), (600, "1e-2", 1, 0)])
    def test_sz_runs_three_lanczos_norms(self, N, eps, R, seed, monkeypatch):
        assert N > DENSE_NORM_MAX
        nonzero = []
        lanczos = operators._lanczos_top

        def counted(e):
            nonzero.append(bool(e.vals.any()))
            return lanczos(e)

        monkeypatch.setattr(operators, "_lanczos_top", counted)
        report, code = run(["propa", "sz", "--N", str(N), "--eps", eps, "-R", str(R), "--seed", str(seed)])
        # where every T-ball is the whole interval (T = 400 and 120000 here, but
        # not T = 400 at N = 600), phi_nu(u) = u and the error matrix is all zero
        error_normed = report["results"]["T"] < N - 1
        assert error_normed is (N == 600)
        # of the three norms, normalising the contraction runs the Lanczos, the
        # truncation tail (no entry outside the band) none, and the error only
        # where some entry of u - phi_nu(u) is nonzero
        assert code == 0 and nonzero == [True] * (1 + error_normed)
        assert (report["results"]["error"] == 0.0) is not error_normed
        monkeypatch.undo()
        space = interval_space(N)
        plain = SpaceOperator(space, _band_contraction(space, R, seed).mat.copy())
        assert plain._norm is None
        _, _, expected = sz_approximate(plain, float(eps), float(R), seed=seed)
        assert results_bytes(report["results"]) == results_bytes(expected)

    @staticmethod
    def _dense_oracle(space, R, seed):
        """The contraction as it was once built: both n x n draws copied into a
        zeroed complex array where near(R), its nonzero entries scanned, and
        the array divided in place by their operator_norm value; returns the
        divided array, the entries regathered from it and the carried pair."""
        rng = np.random.default_rng(seed)
        n = space.n
        band = space.near(R)
        m = np.zeros((n, n), np.complex128)
        buf = rng.standard_normal((n, n))
        np.copyto(m.real, buf, where=band)
        np.copyto(m.imag, rng.standard_normal(out=buf), where=band)
        e = operators.Entries.of(m)
        value, err = operator_norm(e, with_err=True)
        np.divide(m, value, out=m)
        rel = err / value
        pair = (1.0, rel + 2 * n * np.finfo(float).eps * (1 + rel))
        return m, operators.Entries(e.shape, e.rows, e.cols, m[e.rows, e.cols]), pair

    def _assert_matches_the_dense_oracle(self, space, R, seed):
        m, e, pair = self._dense_oracle(space, R, seed)
        u = _band_contraction(space, R, seed)
        assert "mat" not in vars(u)  # built only on first read
        got = u.entries
        assert np.array_equal(got.rows, e.rows) and np.array_equal(got.cols, e.cols)
        assert got.vals.dtype == np.complex128 and got.vals.tobytes() == e.vals.tobytes()
        assert u.mat.tobytes() == m.tobytes() and u.norm() == pair

    @pytest.mark.parametrize(
        "spec, R, seed",
        [("interval:200", 1, 0), ("interval:300", 3, 1), ("interval:600", 2, 2), ("torus:50", 2, 3),
         ("regular:64:4:1", 1, 1)],
    )
    def test_band_drawn_from_the_full_draws(self, spec, R, seed):
        # the contraction gathers the band of the real and then the imaginary n x n draw
        self._assert_matches_the_dense_oracle(_parse_space(spec), R, seed)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("R", range(4))
    @pytest.mark.parametrize("spec", ["interval:150", "torus:40", "regular:24:3:2"])
    def test_band_entries_match_the_dense_construction(self, spec, R, seed):
        self._assert_matches_the_dense_oracle(_parse_space(spec), R, seed)


class TestCommandPaths:
    def test_irr_check_symmetric_group(self):
        report, code = run(["reps", "irr-check", "--group", "sym:4", "--trials", "10"])
        assert code == 0
        res = report["results"]
        assert (res["dim"], res["order"], res["verdict"]) == (3, 24, "PASS")

    def test_profile_eps_list(self):
        report, code = run(["ql", "profile", "--members", "8,12,16", "--eps", "0.5,0.3", "--samples", "20"])
        assert code == 0
        assert report["config"]["eps"] == [0.5, 0.3]
        assert [row["eps"] for row in report["results"]["profile"]] == [0.5, 0.3]


    def test_eps_prop_heuristic_is_the_first_bracket(self):
        argv = ["oper", "eps-prop", "--space", "interval:30", "--eps", "0.2", "-R", "2", "--seed", "4"]
        report, code = run(argv + ["--budget", "80"])
        u = _band_contraction(interval_space(30), 2, 4)
        bracket = eps_propagation_brackets(u, [0.2], seed=4, budget=80)[0]
        res = report["results"]
        assert code == 0 and res["mode"] == "heuristic"
        assert bracket.witness is not None
        assert (res["R_lower"], res["R_upper"], res["witness"]) == (
            bracket.lower, bracket.upper, jsonable(bracket.witness)
        )


class TestQlBuildReport:
    def test_schedule_vacuous_beside_schedule(self):
        report, code = run(["ql", "build", "--members", "8,12,16"])
        assert code == 0
        results = report["results"]
        assert results["schedule_vacuous"] == [True] * len(results["schedule"])
        assert {row["certificate"] for row in results["schedule"]} == {"vacuous"}

    def test_low_c0_rows_are_greedy(self):
        # the README line at c0 = 1.69, whose live rows only the greedy search scores
        report, code = run(["ql", "build", "--members", "16,32,64,128", "--c0", "1.69", "--seed", "2"])
        assert code == 0
        schedule = report["results"]["schedule"]
        assert [(row["k"], row["certificate"]) for row in schedule] == [(2, "greedy"), (3, "vacuous"), (4, "greedy")]
