"""End-to-end tests of the command-line interface."""

import argparse
import csv
import json
import math
import re
from dataclasses import replace

import pytest

import chaoskit
from chaoskit import cli
from chaoskit.cli import main
from chaoskit.io import load_pair
from chaoskit.mc import DEFAULT_SAMPLES, Estimate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _refuse_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def strict_json(text):
    """json.loads that refuses NaN and Infinity, as strict parsers do."""
    return json.loads(text, parse_constant=_refuse_constant)


# every option of each subcommand: each takes only the options it reads
OPTIONS = {
    "verify": ("--suite", "--dim", "--max-order", "--trials", "--samples", "--seed",
               "--tol-rel", "--output", "-o"),
    "edet": ("--pair", "--k", "--mc", "--samples", "--seed", "--output", "-o"),
    "density": ("--pair", "--tol-abs", "--output", "-o"),
    "mc": ("--pair", "--k", "--dump", "--samples", "--seed", "--output", "-o"),
    "sweep": ("--order", "--dim", "--trials", "--seed", "--tol-rel", "--output", "-o"),
    "gen": ("--order", "--order-g", "--proportional", "--dim", "--seed", "-o"),
}
# the options several subcommands take; a subcommand that does not read one refuses it
SHARED = ("--dim", "--max-order", "--trials", "--samples", "--seed", "--tol-rel", "--tol-abs",
          "--output", "-o")
REFUSED = [(cmd, flag) for cmd, flags in OPTIONS.items() for flag in SHARED if flag not in flags]
BAD_VALUES = {
    "--dim": ("0",),
    "--max-order": ("0",),
    "--trials": ("0",),
    "--samples": ("1",),
    "--seed": ("-1", str(2**128)),
    # an inf tolerance would pass every check and call every density DEGENERATE
    "--tol-rel": ("0", "nan", "inf"),
    "--tol-abs": ("-1", "nan", "inf"),
    "--order": ("0",),
    "--order-g": ("0",),
}
BAD_SLOTS = [(cmd, flag, value) for cmd, flags in OPTIONS.items()
             for flag in flags for value in BAD_VALUES.get(flag, ())]


def base_argv(cmd, pair, tmp_path):
    """A cheap valid invocation of cmd that writes its output under tmp_path."""
    out = ["-o", str(tmp_path / "out.json")]
    return {
        "verify": ["verify", "--suite", "tensor", "--trials", "1", "--max-order", "2", *out],
        "edet": ["edet", "--pair", str(pair), *out],
        "density": ["density", "--pair", str(pair), *out],
        "mc": ["mc", "--pair", str(pair), "--samples", "100", *out],
        "sweep": ["sweep", "--order", "2", "--dim", "2", "--trials", "1", *out],
        "gen": ["gen", "--dim", "2", *out],
    }[cmd]


class TestGen:
    def test_pair_round_trip(self, tmp_path, capsys):
        path = tmp_path / "pair.json"
        code, out, _ = run(
            capsys, "gen", "--dim", "2", "--order", "2",
            "--seed", "5", "-o", str(path),
        )
        assert code == 0
        assert json.loads(out)["seed"] == 5
        pair = load_pair(path)
        assert (pair.dim, pair.n, pair.m) == (2, 2, 2)

    def test_fixed_seed_reproducible(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "gen", "--dim", "2", "--order", "3", "--seed", "9", "-o", str(p1))
        run(capsys, "gen", "--dim", "2", "--order", "3", "--seed", "9", "-o", str(p2))
        assert p1.read_text() == p2.read_text()

    def test_proportional(self, tmp_path, capsys):
        path = tmp_path / "prop.json"
        code, _, _ = run(
            capsys, "gen", "--dim", "2", "--order", "2", "--seed", "3",
            "--proportional", "2.5", "-o", str(path),
        )
        assert code == 0
        pair = load_pair(path)
        import numpy as np

        assert np.allclose(pair.g.coeffs, 2.5 * pair.f.coeffs)

    def test_requires_output_path(self, capsys):
        code, _, err = run(capsys, "gen", "--dim", "2", "--order", "2")
        assert code == 2
        assert "output path" in err

    def test_order_above_the_factorial_cap_exits_2(self, tmp_path, capsys):
        # a pair refuses an order above 20, so no file is written that no
        # command could read
        path = tmp_path / "p.json"
        code, out, err = run(capsys, "gen", "--dim", "1", "--order", "21", "-o", str(path))
        assert code == 2 and out == ""
        assert err == "chaoskit gen: error: factorial argument 21 exceeds cap 20\n"
        assert not path.exists()

    def test_unresolvable_proportional_pair_exits_2(self, tmp_path, capsys):
        # g = 1e300 f has ||g||^2 past a double: no file is written that no command
        # could read
        path = tmp_path / "p.json"
        argv = ("gen", "--dim", "2", "--order", "2", "--proportional", "1e300")
        code, out, err = run(capsys, *argv, "-o", str(path))
        assert code == 2 and out == ""
        assert "scale n! m! ||f||^2 ||g||^2 = inf is outside [1e-300, inf)" in err
        assert not path.exists()

    def test_order_g_checked_before_the_proportional_rule(self, tmp_path, capsys):
        argv = ("gen", "--order-g", "0", "--proportional", "2", "-o", str(tmp_path / "p.json"))
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err == "chaoskit gen: error: --order-g must be >= 1, got 0\n"

    def test_proportional_with_unequal_orders_exits_2(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        argv = ("gen", "--order", "2", "--order-g", "3", "--proportional", "2", "-o", str(path))
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "chaoskit gen: error: --proportional requires equal orders for f and g\n"
        assert not path.exists()

    @pytest.mark.parametrize("cmd", ["gen", "sweep"])
    def test_oversized_dim_exits_2(self, cmd, tmp_path, capsys):
        # each draw would be 1000^4 doubles (7.3 TiB): refused before allocating
        argv = {
            "gen": ["gen", "-o", str(tmp_path / "big.json")],
            "sweep": ["sweep", "--trials", "1"],
        }[cmd]
        code, out, err = run(capsys, *argv, "--dim", "1000", "--order", "4")
        assert code == 2 and out == ""
        assert err == (
            f"chaoskit {cmd}: error: random tensor: dim 1000 and order 4 need "
            "8000000000000 bytes, above the cap of 1073741824 bytes\n"
        )
        assert not (tmp_path / "big.json").exists()

    @pytest.mark.parametrize("cmd", ["gen", "sweep"])
    def test_huge_order_exits_2_on_the_order_alone(self, cmd, tmp_path, capsys):
        # 3^3000000 doubles: refused before the exact power, whose 1.4 million
        # digits no message could print, is formed
        argv = {
            "gen": ["gen", "-o", str(tmp_path / "big.json")],
            "sweep": ["sweep", "--trials", "1"],
        }[cmd]
        code, out, err = run(capsys, *argv, "--dim", "3", "--order", "3000000")
        assert code == 2 and out == ""
        assert err == (
            f"chaoskit {cmd}: error: random tensor: dim 3 and order 3000000 need more "
            "than the cap of 1073741824 bytes\n"
        )
        assert not (tmp_path / "big.json").exists()

    def test_kind_option_refused(self, tmp_path, capsys):
        # gen writes only pair files, the one file format a command reads
        path = tmp_path / "t.json"
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--kind", "tensor", "-o", str(path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --kind tensor" in capsys.readouterr().err
        assert not path.exists()


@pytest.fixture
def pair_file(tmp_path, capsys):
    path = tmp_path / "pair.json"
    run(capsys, "gen", "--dim", "2", "--order", "2", "--seed", "5", "-o", str(path))
    return path


@pytest.fixture
def anchor_file(tmp_path):
    from chaoskit.io import save_pair
    from chaoskit.verify import anchor_pair

    path = tmp_path / "anchor.json"
    save_pair(anchor_pair(), path)
    return path


def scaled_pair_file(tmp_path, s):
    """d = 2, n = m = 2 orbit-layout pair with f = (1, 0.2, -0.3) s and
    g = (0.1, 0.5, 0.7) s; at s = 1 its det C is 4.6476."""
    def component(values):
        indices = ([0, 0], [0, 1], [1, 1])
        entries = [{"index": ix, "value": v * s} for ix, v in zip(indices, values)]
        return {"dim": 2, "order": 2, "symmetric": True, "layout": "orbits", "entries": entries}

    path = tmp_path / f"scaled_{s:g}.json"
    f, g = component((1, 0.2, -0.3)), component((0.1, 0.5, 0.7))
    path.write_text(json.dumps({"dim": 2, "n": 2, "m": 2, "f": f, "g": g}))
    return path


class TestEdet:
    def test_all_orders(self, pair_file, capsys):
        code, out, _ = run(capsys, "edet", "--pair", str(pair_file), "--k", "all")
        assert code == 0
        doc = json.loads(out)
        assert [r["k"] for r in doc["results"]] == [1, 2]
        for r in doc["results"]:
            assert abs(r["closed_form"] - r["symbolic"]) <= 1e-8 * (1 + abs(r["symbolic"]))

    def test_anchor_value(self, anchor_file, capsys):
        code, out, _ = run(capsys, "edet", "--pair", str(anchor_file), "--k", "1")
        doc = json.loads(out)
        assert code == 0
        assert doc["results"][0]["closed_form"] == pytest.approx(12.0)
        assert doc["results"][0]["t0"] == pytest.approx(8.0)

    def test_top_order_is_scaled_covariance(self, anchor_file, capsys):
        code, out, _ = run(capsys, "edet", "--pair", str(anchor_file), "--k", "2")
        doc = json.loads(out)
        assert doc["results"][0]["closed_form"] == pytest.approx(8.0)  # 2!^2 * det C

    def test_all_orders_share_one_table(self, tmp_path, capsys, monkeypatch):
        from chaoskit import malliavin

        path = tmp_path / "p353.json"
        run(capsys, "gen", "--dim", "3", "--order", "5", "--order-g", "3", "-o", str(path))
        built = []
        build = malliavin.ContractionTable.__init__

        def counted(self, pair):
            built.append(pair)
            build(self, pair)

        monkeypatch.setattr(malliavin.ContractionTable, "__init__", counted)
        code, out, _ = run(capsys, "edet", "--pair", str(path), "--k", "all")
        assert code == 0
        assert [r["k"] for r in json.loads(out)["results"]] == [1, 2, 3]
        assert len(built) == 1

    def test_k_out_of_range(self, pair_file, capsys):
        code, _, err = run(capsys, "edet", "--pair", str(pair_file), "--k", "3")
        assert code == 2
        assert err == "chaoskit edet: error: k = 3 out of range [1, 2]\n"

    @pytest.mark.parametrize(
        "k, message",
        [
            ("1,x", "--k must be 'all' or a comma list of integers: '1,x'"),
            (",", "--k must name at least one order"),
        ],
    )
    def test_unparsable_k_list(self, k, message, pair_file, capsys):
        code, out, err = run(capsys, "edet", "--pair", str(pair_file), "--k", k)
        assert code == 2 and out == ""
        assert err == f"chaoskit edet: error: {message}\n"

    def test_k_out_of_range_refused_before_sampling(self, pair_file, capsys, monkeypatch):
        drawn = []
        monkeypatch.setattr(cli, "estimate_expected_det", lambda *a, **kw: drawn.append(a))
        argv = ("edet", "--pair", str(pair_file), "--k", "1,3", "--mc", "--samples", "100")
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "chaoskit edet: error: k = 3 out of range [1, 2]\n"
        assert drawn == []

    def test_with_mc(self, anchor_file, capsys):
        code, out, _ = run(
            capsys, "edet", "--pair", str(anchor_file), "--k", "1", "--mc",
            "--samples", "20000", "--seed", "3",
        )
        doc = json.loads(out)
        mc = doc["results"][0]["mc"]
        assert (mc["samples"], mc["seed"]) == (20000, 3)
        assert abs(mc["mean"] - 12.0) <= 5 * mc["stderr"]

    def test_csv_output(self, pair_file, tmp_path, capsys):
        path = tmp_path / "report.csv"
        code, _, _ = run(
            capsys, "edet", "--pair", str(pair_file), "--output", "csv", "-o", str(path),
        )
        assert code == 0
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert float(rows[0]["closed_form"]) == pytest.approx(float(rows[0]["symbolic"]))

    @pytest.mark.parametrize("s,scale", [(1e-100, "0"), (1e150, "inf")])
    def test_unresolvable_scale_exits_2(self, s, scale, tmp_path, capsys):
        # t0, closed_form and symbolic used to print as underflowed zeros (exit 0)
        # at 1e-100, and to overflow with RuntimeWarnings at 1e150
        code, out, err = run(capsys, "edet", "--pair", str(scaled_pair_file(tmp_path, s)))
        assert code == 2 and out == ""
        assert err == (
            f"chaoskit edet: error: pair: the pair's scale n! m! ||f||^2 ||g||^2 = {scale} "
            "is outside [1e-300, inf), where det C cannot be resolved; rescale f and g\n"
        )

    def test_schema_violation(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2}')
        code, _, err = run(capsys, "edet", "--pair", str(bad))
        assert code == 2
        assert "missing key" in err


class TestDensity:
    def test_generic_pair(self, pair_file, capsys):
        code, out, _ = run(capsys, "density", "--pair", str(pair_file))
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "ABSOLUTELY_CONTINUOUS"
        assert doc["consistent"] is True

    def test_proportional_pair(self, tmp_path, capsys):
        path = tmp_path / "prop.json"
        run(
            capsys, "gen", "--dim", "2", "--order", "2", "--seed", "3",
            "--proportional", "-1.5", "-o", str(path),
        )
        code, out, _ = run(capsys, "density", "--pair", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "DEGENERATE"
        assert all(abs(r["value"]) <= doc["tol_abs"] for r in doc["expected_dets"])

    def test_non_finite_coefficient_rejected(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        run(capsys, "gen", "--dim", "2", "--order", "1", "--seed", "3", "-o", str(path))
        doc = json.loads(path.read_text())
        doc["g"]["entries"][0]["value"] = float("nan")
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "density", "--pair", str(path))
        assert code == 2
        assert out == ""
        assert "tensor entry 0" in err and "not finite" in err

    def test_non_finite_report_exits_2(self, pair_file, capsys, monkeypatch):
        report = cli.mal.density_check(load_pair(pair_file))
        monkeypatch.setattr(cli.mal, "density_check",
                            lambda pair, tol_abs: replace(report, cov_det=float("nan")))
        code, out, err = run(capsys, "density", "--pair", str(pair_file))
        assert code == 2 and out == ""
        assert "report.cov_det is not finite; nothing was written" in err

    def test_inconsistent_report_exits_1(self, anchor_file, capsys):
        # E det = (12, 8): a zero threshold of 10 splits them
        code, out, _ = run(capsys, "density", "--pair", str(anchor_file), "--tol-abs", "10")
        assert code == 1
        assert json.loads(out)["consistent"] is False

    def test_unequal_orders_rejected(self, tmp_path, capsys):
        path = tmp_path / "nm.json"
        run(
            capsys, "gen", "--dim", "2", "--order", "2", "--order-g", "3",
            "--seed", "3", "-o", str(path),
        )
        code, _, err = run(capsys, "density", "--pair", str(path))
        assert code == 2
        assert "equal chaos orders" in err

    @pytest.mark.parametrize("s,scale", [(1e-78, "4.68e-312"), (1e-100, "0"), (1e150, "inf")])
    def test_unresolvable_scale_exits_2(self, s, scale, tmp_path, capsys):
        # below the zero threshold's 1e-300 floor this pair used to read DEGENERATE
        # beside two positive E dets, and at 1e-100 beside zeros that underflowed
        code, out, err = run(capsys, "density", "--pair", str(scaled_pair_file(tmp_path, s)))
        assert code == 2 and out == ""
        assert f"scale n! m! ||f||^2 ||g||^2 = {scale} is outside [1e-300, inf)" in err
        assert "rescale f and g" in err

    def test_unit_scale_is_absolutely_continuous(self, tmp_path, capsys):
        code, out, _ = run(capsys, "density", "--pair", str(scaled_pair_file(tmp_path, 1.0)))
        assert code == 0
        doc = strict_json(out)
        assert doc["verdict"] == "ABSOLUTELY_CONTINUOUS" and doc["consistent"] is True

    def test_zero_component_is_degenerate(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        run(capsys, "gen", "--dim", "2", "--order", "2", "--seed", "3",
            "--proportional", "0", "-o", str(path))
        code, out, _ = run(capsys, "density", "--pair", str(path))
        assert code == 0
        doc = strict_json(out)
        assert doc["verdict"] == "DEGENERATE" and doc["consistent"] is True
        assert doc["cov_det"] == 0.0

    def test_oversized_pair_file_exits_2(self, tmp_path, capsys):
        # each component would be 1000^4 doubles (7.3 TiB): refused before allocating
        path = tmp_path / "huge.json"
        path.write_text(
            '{"dim": 1000, "n": 4, "m": 4,\n'
            ' "f": {"dim": 1000, "order": 4, "symmetric": true, "entries": []},\n'
            ' "g": {"dim": 1000, "order": 4, "symmetric": true, "entries": []}}\n'
        )
        code, out, err = run(capsys, "density", "--pair", str(path))
        assert code == 2 and out == ""
        assert err == (
            "chaoskit density: error: tensor: dim 1000 and order 4 need 8000000000000 "
            "bytes, above the cap of 1073741824 bytes\n"
        )


class TestMc:
    def test_runs_and_reports(self, anchor_file, capsys, tmp_path):
        dump = tmp_path / "raw.csv"
        code, out, _ = run(
            capsys, "mc", "--pair", str(anchor_file), "--k", "1",
            "--samples", "20000", "--seed", "2", "--dump", str(dump),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["closed_form"] == pytest.approx(12.0)
        assert doc["estimate"]["samples"] == 20000
        assert dump.exists()

    @pytest.mark.parametrize("output", ["json", "csv"])
    def test_non_finite_estimate_exits_2(self, output, anchor_file, tmp_path, capsys,
                                         monkeypatch):
        # the CSV form used to print 1,inf,nan,100,0,nan,False and exit 0
        monkeypatch.setattr(cli, "estimate_expected_det",
                            lambda pair, k, n_samples, seed, dump_path: Estimate(
                                math.inf, math.nan, n_samples, seed))
        dest = tmp_path / "report.out"
        code, out, err = run(capsys, "mc", "--pair", str(anchor_file), "--samples", "100",
                             "--output", output, "-o", str(dest))
        assert code == 2 and out == ""
        assert err == ("chaoskit mc: error: report.estimate.mean is not finite; "
                       "nothing was written\n")
        assert not dest.exists()

    @pytest.mark.parametrize("s,scale", [(1e-100, "0"), (1e150, "inf")])
    def test_unresolvable_scale_exits_2_before_sampling(self, s, scale, tmp_path, capsys):
        # at 1e-100 this printed mean 0, stderr 0 and within_4_stderr true (exit 0);
        # at 1e150 it drew every sample before refusing the non-finite mean
        dump = tmp_path / "raw.csv"
        code, out, err = run(capsys, "mc", "--pair", str(scaled_pair_file(tmp_path, s)),
                             "--samples", "20000", "--dump", str(dump))
        assert code == 2 and out == ""
        assert f"scale n! m! ||f||^2 ||g||^2 = {scale} is outside [1e-300, inf)" in err
        assert not dump.exists()

    def test_invalid_k(self, anchor_file, capsys):
        code, _, _ = run(capsys, "mc", "--pair", str(anchor_file), "--k", "9")
        assert code == 2

    def test_seed_range(self, anchor_file, capsys):
        # Philox keeps 128 key bits, so 2**128 would replay seed 0
        argv = ("mc", "--pair", str(anchor_file), "--k", "1", "--samples", "100", "--seed")
        code, out, err = run(capsys, *argv, str(2**128))
        assert code == 2 and out == ""
        assert "--seed" in err
        code, out, _ = run(capsys, *argv, str(2**128 - 1))
        assert code == 0
        assert json.loads(out)["estimate"]["seed"] == 2**128 - 1


class TestSweep:
    def test_order_two(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--order", "2", "--dim", "2", "--trials", "25", "--seed", "4",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["min_ratio"] >= 1.0 - 1e-9
        # n = 2: the sum is empty and (n-1)^2 = 1, so lhs is E det^(1) itself
        # and holds is the bound E det^(1) >= 4 det C
        assert all(row["edet1"] == row["lhs"] and row["holds"] for row in doc["rows"])

    def test_order_five_exercises_second_term(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--order", "5", "--dim", "2", "--trials", "5", "--seed", "4",
        )
        assert code == 0
        from chaoskit.malliavin import expected_det, random_pair

        doc = json.loads(out)
        assert doc["passed"] is True
        # edet1 is in every row, for every n
        for row in doc["rows"]:
            assert row["edet1"] == expected_det(random_pair(2, 5, 5, row["seed"]), 1)

    def test_order_one_rejected(self, capsys):
        code, out, err = run(capsys, "sweep", "--order", "1")
        assert code == 2 and out == ""
        assert err == "chaoskit sweep: error: --order must be >= 2, got 1\n"

    def test_zero_covariance_gives_null_ratio(self, capsys):
        # d = 1: det C = 0 up to rounding, and density calls every trial
        # DEGENERATE, so lhs / rhs is undefined even where rhs rounds above 0
        from chaoskit.malliavin import Verdict, density_check, random_pair

        argv = ("sweep", "--order", "3", "--dim", "1", "--trials", "4", "--seed", "0")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        doc = strict_json(out)
        assert any(row["rhs"] > 0 for row in doc["rows"])
        for row in doc["rows"]:
            pair = random_pair(1, 3, 3, row["seed"])
            assert density_check(pair).verdict is Verdict.DEGENERATE
        assert [row["ratio"] for row in doc["rows"]] == [None] * 4
        assert doc["min_ratio"] is None
        code, out, _ = run(capsys, *argv, "--output", "csv")
        rows = list(csv.DictReader(out.splitlines()))
        assert [row["ratio"] for row in rows] == [""] * 4

    def test_ratio_null_exactly_where_density_calls_det_c_zero(self, capsys):
        from chaoskit.malliavin import Verdict, density_check, random_pair

        for dim in (1, 2):
            argv = ("sweep", "--order", "2", "--dim", str(dim), "--trials", "6")
            code, out, _ = run(capsys, *argv)
            assert code == 0
            for row in strict_json(out)["rows"]:
                pair = random_pair(dim, 2, 2, row["seed"])
                degenerate = density_check(pair).verdict is Verdict.DEGENERATE
                assert (row["ratio"] is None) == degenerate
                if not degenerate:
                    assert row["ratio"] == row["lhs"] / row["rhs"]

    def test_one_det_c_per_trial(self, capsys, monkeypatch):
        # det C and its zero threshold come from one _covariance call per trial
        calls = []
        covariance = cli.mal._covariance
        monkeypatch.setattr(cli.mal, "_covariance",
                            lambda pair: calls.append(pair) or covariance(pair))
        code, _, _ = run(capsys, "sweep", "--order", "3", "--dim", "2", "--trials", "3")
        assert code == 0
        assert len(calls) == 3

    def test_failed_trials_exit_1_and_count_violations(self, capsys, monkeypatch):
        # each failing trial is one violation
        real = cli.mal.covariance_inequality
        monkeypatch.setattr(
            cli.mal, "covariance_inequality",
            lambda pair, tol_rel: replace(real(pair, tol_rel=tol_rel), holds=False),
        )
        code, out, _ = run(capsys, "sweep", "--order", "2", "--dim", "2", "--trials", "2")
        assert code == 1
        doc = strict_json(out)
        assert doc["violations"] == 2 and doc["passed"] is False
        assert [row["holds"] for row in doc["rows"]] == [False] * 2

    def test_min_ratio_null_without_ratios(self, capsys, monkeypatch):
        from chaoskit.malliavin import InequalityResult

        monkeypatch.setattr(cli.mal, "covariance_inequality",
                            lambda pair, tol_rel: InequalityResult(0.0, 0.0, True, 0.0, 0.0,
                                                                   True))
        code, out, _ = run(capsys, "sweep", "--order", "5", "--dim", "1", "--trials", "2")
        assert code == 0
        doc = strict_json(out)
        assert doc["min_ratio"] is None
        assert [row["ratio"] for row in doc["rows"]] == [None, None]


class TestVerify:
    def test_tensor_suite(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "tensor", "--dim", "3", "--max-order", "4",
            "--trials", "5", "--seed", "7",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert all(c["passed"] and c["failed"] == 0 for c in doc["checks"])
        assert all(c["seed"] == 7 for c in doc["checks"])
        assert "tol_abs" not in doc["config"]  # no check reads an absolute tolerance

    def test_dim_one_refused(self, capsys):
        # every check draws d from [2, dim]; dim 1 is refused, not raised to 2
        code, out, err = run(capsys, "verify", "--suite", "tensor", "--dim", "1")
        assert code == 2 and out == ""
        assert "dim must be >= 2, got 1" in err

    @pytest.mark.parametrize("value", ["0", "1", "-3"])
    def test_dim_message_states_the_verify_bound(self, value, capsys):
        code, out, err = run(capsys, "verify", "--suite", "tensor", "--dim", value)
        assert code == 2 and out == ""
        assert err == f"chaoskit verify: error: --dim must be >= 2, got {value}\n"

    def test_max_order_one_runs_every_suite(self, capsys):
        # the top-term check needs n >= 2 and draws it from [2, max(max_order, 2)]
        code, out, err = run(
            capsys, "verify", "--suite", "all", "--seed", "0", "--max-order", "1",
            "--trials", "3", "--samples", "2000",
        )
        assert code == 0, err
        doc = strict_json(out)
        assert doc["passed"] is True and len(doc["checks"]) == 24

    @pytest.mark.parametrize("cmd", ["sweep", "gen"])
    def test_dim_one_allowed_elsewhere(self, cmd, tmp_path, capsys):
        argv = {
            "sweep": ["sweep", "--order", "2", "--trials", "2"],
            "gen": ["gen", "-o", str(tmp_path / "p.json")],
        }[cmd]
        code, _, err = run(capsys, *argv, "--dim", "1")
        assert code == 0, err

    @pytest.mark.parametrize("output", ["json", "csv"])
    def test_no_suite_named_refused(self, capsys, output):
        # a run of no check is not a pass, and has no report row
        code, out, err = run(capsys, "verify", "--suite", ",", "--output", output)
        assert code == 2 and out == ""
        assert err.startswith("chaoskit verify: error: no suite named; choose from")

    def test_unknown_suite(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "nope")
        assert code == 2

    def test_bad_config(self, capsys):
        code, _, _ = run(capsys, "verify", "--trials", "0")
        assert code == 2

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("CHAOSKIT_SEED", "123")
        code, out, _ = run(
            capsys, "verify", "--suite", "tensor", "--trials", "2", "--max-order", "3",
        )
        assert code == 0
        assert json.loads(out)["config"]["seed"] == 123

    def test_explicit_seed_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CHAOSKIT_SEED", "123")
        code, out, _ = run(
            capsys, "verify", "--suite", "tensor", "--trials", "2", "--max-order", "3",
            "--seed", "55",
        )
        assert code == 0
        assert json.loads(out)["config"]["seed"] == 55

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("CHAOSKIT_SEED", "abc")
        code, _, _ = run(capsys, "verify", "--suite", "tensor", "--trials", "2")
        assert code == 2


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"chaoskit {chaoskit.__version__}\n"


class TestOptions:
    def test_help_lists_only_the_options_read(self, capsys):
        for cmd, flags in OPTIONS.items():
            with pytest.raises(SystemExit) as exc:
                main([cmd, "--help"])
            assert exc.value.code == 0
            listed = re.findall(r"^  (-[-\w]+)", capsys.readouterr().out, re.M)
            assert tuple(f for f in listed if f not in ("-h", "--help")) == flags, cmd

    def test_shared_slot_count(self):
        # 6 subcommands x 9 shared options = 54 slots, of which 28 are read
        assert sum(f in SHARED for flags in OPTIONS.values() for f in flags) == 28
        assert len(REFUSED) == 26

    @pytest.mark.parametrize("cmd, flag", REFUSED)
    def test_unread_option_refused(self, cmd, flag, pair_file, tmp_path, capsys):
        value = "json" if flag == "--output" else "5"
        with pytest.raises(SystemExit) as exc:
            main(base_argv(cmd, pair_file, tmp_path) + [flag, value])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd, flag, value", BAD_SLOTS)
    def test_bad_value_names_the_option(self, cmd, flag, value, pair_file, tmp_path, capsys):
        code, out, err = run(capsys, *base_argv(cmd, pair_file, tmp_path), flag, value)
        assert code == 2 and out == ""
        assert f"{flag} must be" in err and value in err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("cmd", sorted(OPTIONS))
    def test_env_seed_read_only_with_seed_option(self, cmd, pair_file, tmp_path, capsys,
                                                 monkeypatch):
        monkeypatch.setenv("CHAOSKIT_SEED", "abc")
        code, _, err = run(capsys, *base_argv(cmd, pair_file, tmp_path))
        # edet draws, and so reads the seed, only with --mc (see TestEdetMcOnly)
        if "--seed" in OPTIONS[cmd] and cmd != "edet":
            assert code == 2
            assert "CHAOSKIT_SEED must be an integer" in err
        else:
            assert code == 0, err


    @pytest.mark.parametrize("value", ["-1", str(2**128)])
    @pytest.mark.parametrize("cmd", [c for c in sorted(OPTIONS) if "--seed" in OPTIONS[c]])
    def test_env_seed_out_of_range_names_the_variable(self, cmd, value, pair_file, tmp_path,
                                                      capsys, monkeypatch):
        # no --seed was given, so the refusal names the variable, not the option
        monkeypatch.setenv("CHAOSKIT_SEED", value)
        mc = ["--mc"] if cmd == "edet" else []
        code, out, err = run(capsys, *base_argv(cmd, pair_file, tmp_path), *mc)
        assert code == 2 and out == ""
        assert err == f"chaoskit {cmd}: error: CHAOSKIT_SEED must be in [0, 2**128), got {value}\n"
        assert not (tmp_path / "out.json").exists()


class TestEnvelope:
    """Every JSON report opens with "command", then "pair" for a report on a
    pair file or "config" for one that draws its own instances."""

    KEYS = {
        "verify": ["command", "config", "checks", "passed"],
        "edet": ["command", "pair", "results"],
        "density": ["command", "pair", "verdict", "cov_det", "tol_abs", "expected_dets",
                    "consistent"],
        "mc": ["command", "pair", "k", "estimate", "closed_form", "abs_error",
               "within_4_stderr"],
        "sweep": ["command", "config", "rows", "min_ratio", "violations", "passed"],
    }

    @pytest.mark.parametrize("cmd", sorted(KEYS))
    def test_top_level_key_order(self, cmd, pair_file, tmp_path, capsys):
        code, _, err = run(capsys, *base_argv(cmd, pair_file, tmp_path))
        assert code == 0, err
        report = json.loads((tmp_path / "out.json").read_text())
        assert list(report) == self.KEYS[cmd]
        assert report["command"] == cmd
        if "pair" in report:
            assert report["pair"] == {"dim": 2, "n": 2, "m": 2}


class TestEdetMcOnly:
    """edet draws samples only with --mc, so --samples and --seed need it."""

    @pytest.mark.parametrize("flag, value", [("--samples", "5"), ("--samples", "100000"),
                                             ("--seed", "3"), ("--seed", "0")])
    def test_option_without_mc_refused(self, flag, value, pair_file, tmp_path, capsys):
        out_path = tmp_path / "out.json"
        code, out, err = run(capsys, "edet", "--pair", str(pair_file), flag, value,
                             "-o", str(out_path))
        assert code == 2 and out == ""
        assert err == f"chaoskit edet: error: {flag} requires --mc\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--samples", "1", "--samples must be >= 2, got 1"),
        ("--seed", "-1", "--seed must be in [0, 2**128), got -1"),
    ])
    @pytest.mark.parametrize("mc", [[], ["--mc"]])
    def test_bad_value_keeps_its_message(self, flag, value, message, mc, pair_file, capsys):
        code, _, err = run(capsys, "edet", "--pair", str(pair_file), *mc, flag, value)
        assert code == 2
        assert err == f"chaoskit edet: error: {message}\n"

    def test_env_seed_read_with_mc(self, pair_file, capsys, monkeypatch):
        monkeypatch.setenv("CHAOSKIT_SEED", "abc")
        code, _, err = run(capsys, "edet", "--pair", str(pair_file), "--mc",
                           "--samples", "100")
        assert code == 2
        assert "CHAOSKIT_SEED must be an integer" in err
        monkeypatch.setenv("CHAOSKIT_SEED", "4")
        code, out, _ = run(capsys, "edet", "--pair", str(pair_file), "--k", "1", "--mc",
                           "--samples", "100")
        assert code == 0
        assert json.loads(out)["results"][0]["mc"]["seed"] == 4

    def test_mc_default_sample_count(self, pair_file, capsys):
        code, out, _ = run(capsys, "edet", "--pair", str(pair_file), "--k", "1", "--mc")
        assert code == 0
        assert json.loads(out)["results"][0]["mc"]["samples"] == DEFAULT_SAMPLES


@pytest.fixture
def parser_builds(monkeypatch):
    """Count the argparse parsers constructed, from an empty parser cache on."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli._build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    yield built


class TestParserBuiltOnce:
    def test_many_calls_one_parser(self, parser_builds, pair_file, tmp_path, capsys,
                                   monkeypatch):
        out = str(tmp_path / "r.json")
        assert run(capsys, "density", "--pair", str(pair_file), "-o", out)[0] == 0
        per_build = len(parser_builds)
        assert per_build == 1 + len(OPTIONS)  # the top-level parser and one per subcommand
        for argv in (["density", "--pair", str(pair_file), "--bogus"], ["edet", "--help"],
                     ["nope"], []):
            with pytest.raises(SystemExit):
                main(argv)
        capsys.readouterr()
        # later calls still parse their own arguments and read the environment
        monkeypatch.setenv("CHAOSKIT_SEED", "31")
        code, outtext, _ = run(capsys, "verify", "--suite", "tensor", "--trials", "1",
                               "--max-order", "2")
        assert code == 0 and json.loads(outtext)["config"]["seed"] == 31
        monkeypatch.setenv("CHAOSKIT_SEED", "abc")
        assert run(capsys, "verify", "--suite", "tensor", "--trials", "1")[0] == 2
        code, outtext, _ = run(capsys, "verify", "--suite", "tensor", "--trials", "1",
                               "--max-order", "2", "--seed", "8")
        assert code == 0 and json.loads(outtext)["config"]["seed"] == 8
        code, outtext, _ = run(capsys, "edet", "--pair", str(pair_file), "--k", "1")
        assert code == 0 and [r["k"] for r in json.loads(outtext)["results"]] == [1]
        assert len(parser_builds) == per_build

    def test_parsed_namespaces_are_independent(self, pair_file, capsys):
        # _validate fills in the seed on the namespace, never on the shared parser
        parser = cli._build_parser()
        first = parser.parse_args(["mc", "--pair", str(pair_file)])
        cli._validate(first)
        assert first.seed == 0
        again = parser.parse_args(["mc", "--pair", str(pair_file)])
        assert again.seed is None and parser is cli._build_parser()
