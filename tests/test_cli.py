import json

import numpy as np
import pytest

from roelab.cli import COMMANDS, _parse_args, _positive_int, build_parser, main, run
from roelab.report import report_diff, results_bytes


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
        ["propa", "rademacher", "--N", "20", "-R", "infinity"],
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
        # the gap certificate's closed forms need a unitary irreducible
        ["reps", "gap-cert", "--space", "far:2", "--group", "file:{dir}/group_z2_diag.json"],
        # c0 must be positive; a NaN eps anywhere in a profile's list is rejected
        ["randsub", "mc", "--c0", "nan", "--n", "3", "--delta", "0.2", "--d", "20"],
        ["randsub", "mc", "--d", "20", "--n", "3", "--delta", "0.2", "--c0", "-5"],
        ["ql", "build", "--c0", "nan", "--members", "16,32"],
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
        # operator files whose size is not an exact int
        ["oper", "band-dist", "--space", "interval:2", "--op", "{dir}/op_float_n.json"],
        ["oper", "band-dist", "--space", "interval:1", "--op", "{dir}/op_bool_n.json"],
        # the Levy check's delta lies in (0, 1), as in the other randsub bounds
        ["randsub", "levy", "--d", "5", "--delta", "2"],
        # the entropy bound counts delta d >= 1 coordinates
        ["randsub", "entropy", "--delta", "0.5", "--d", "0"],
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

    def test_operator_file_input(self, tmp_path):
        from roelab.operators import SpaceOperator
        from roelab.spaces import interval_space
        from roelab.spaces import save_space

        sp = interval_space(12)
        space_file = tmp_path / "space.json"
        save_space(sp, space_file)
        rng = np.random.default_rng(0)
        mat = np.where(sp.dist <= 1, rng.standard_normal((12, 12)), 0.0)
        op_file = tmp_path / "op.json"
        op_file.write_text(json.dumps(SpaceOperator(space=sp, mat=mat).to_json()))
        report, code = run(
            ["oper", "band-dist", "--space", str(space_file), "--op", str(op_file), "-R", "1"]
        )
        assert code == 0
        assert report["results"]["lower"] == 0.0

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


class TestQlBuildReport:
    def test_schedule_vacuous_beside_schedule(self):
        report, code = run(["ql", "build", "--members", "8,12,16"])
        assert code == 0
        results = report["results"]
        assert results["schedule_vacuous"] == [True] * len(results["schedule"])
