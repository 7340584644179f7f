import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from concavekit.cli import _build_parser, main


def write(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def parsed_config(argv):
    """The manifest configuration of ``argv``: its parsed arguments but --out and --seed."""
    parsed = vars(_build_parser().parse_args(argv))
    return {k: v for k, v in parsed.items() if k not in ("fn", "command", "out", "seed")}


def src_env():
    """The environment of a subprocess that imports the package from src/."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


@pytest.fixture
def gw_field(tmp_path):
    return write(tmp_path / "gw.json", {"kind": "gauss_weierstrass", "n": 1})


@pytest.fixture
def interval_body(tmp_path):
    return write(tmp_path / "body.json", {"kind": "interval", "a": -1, "b": 1})


@pytest.fixture
def st_domain(tmp_path):
    return write(
        tmp_path / "dom.json",
        {"body": {"kind": "interval", "a": -2, "b": 2}, "t_lo": 0.5, "t_hi": 4.0},
    )


class TestMeans:
    def test_geometric_mean(self, capsys):
        assert main(["means", "--p", "0", "--a", "1", "--b", "4", "--lambda", "0.5"]) == 0
        assert capsys.readouterr().out.strip() == "2.0"

    def test_ell_prints_minus_inf(self, capsys):
        assert main(["means", "--ell", "--p", "3", "--q", "-3"]) == 0
        assert capsys.readouterr().out.strip() == "-inf"

    def test_bad_lambda_is_input_error(self):
        assert main(["means", "--p", "1", "--a", "1", "--b", "2", "--lambda", "2"]) == 2

    @pytest.mark.parametrize(
        "a, lam, message",
        [("-1", "0.5", "mean operands must be nonnegative reals"), ("1", "1.5", "lambda must lie in [0, 1]")],
    )
    def test_refusals_print_their_message(self, a, lam, message, capsys):
        assert main(["means", "--p", "1", "--a", a, "--b", "2", "--lambda", lam]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_exponents_still_read_inf(self, capsys):
        assert main(["means", "--p", "inf", "--a", "1", "--b", "4", "--lambda", "0.5"]) == 0
        assert capsys.readouterr().out.strip() == "4.0"
        assert main(["means", "--ell", "--p", "inf", "--q", "inf"]) == 0
        assert capsys.readouterr().out.strip() == "inf"


class TestMinusInfinityToken:
    """``-inf`` given as its own token is an exponent, as in ``--p=-inf``."""

    @pytest.mark.parametrize("token", ["-inf", "-Infinity"])
    def test_means(self, token, capsys):
        assert main(["means", "--p", token, "--a", "1", "--b", "4", "--lambda", "0.5"]) == 0
        assert capsys.readouterr().out == "1.0\n"

    def test_means_ell(self, capsys):
        # read, then refused by holder_exponent as --q=-inf is: p + q < 0
        errors = []
        for q in (["--q", "-inf"], ["--q=-inf"]):
            assert main(["means", "--ell", "--p", "2", *q]) == 2
            errors.append(capsys.readouterr().err)
        assert errors == ["error: holder_exponent requires p + q >= 0\n"] * 2

    def test_check(self, tmp_path):
        field = write(tmp_path / "field.json", {"kind": "indicator", "body": {"kind": "interval", "a": -1, "b": 1}})
        reports = []
        for p in (["--p", "-inf"], ["--p=-inf"]):
            out = tmp_path / "rep.json"
            assert main(["check", "concavity", "--field", field, *p, "--samples", "200", "--out", str(out)]) == 0
            reports.append(re.sub(r'"wall_time_s": [^,\n}]+', '"wall_time_s": null', out.read_text()))
        assert reports[0] == reports[1]
        report = json.loads(reports[0])
        assert report["manifest"]["config"]["p"] == "-inf" and report["verdict"] == "pass"


class TestFloatOptions:
    """Every float option refuses a non-finite value as a usage error (exit code 2)."""

    # subcommand and option: an argument vector with the option's value as VALUE
    ARGV = {
        "check --alpha": ["check", "parabolic", "--field", "{gw}", "--domain", "{dom}", "--p", "-1", "--alpha=VALUE"],
        "means --a": ["means", "--p", "0", "--a=VALUE", "--b", "4", "--lambda", "0.5"],
        "means --b": ["means", "--p", "0", "--a", "1", "--b=VALUE", "--lambda", "0.5"],
        "means --lambda": ["means", "--p", "0", "--a", "1", "--b", "4", "--lambda=VALUE"],
        "regiomontanus --a": ["regiomontanus", "--a=VALUE", "--b", "4", "--constraint", "{dom}"],
        "regiomontanus --b": ["regiomontanus", "--a", "1", "--b=VALUE", "--constraint", "{dom}"],
    }

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e999"])
    @pytest.mark.parametrize("option", sorted(ARGV))
    def test_non_finite_value_is_usage_error(self, option, value, gw_field, st_domain, capsys):
        argv = [a.format(gw=gw_field, dom=st_domain).replace("VALUE", value) for a in self.ARGV[option]]
        assert main(argv) == 2
        name = option.split()[1]
        assert f"argument {name}: invalid finite_float value: '{value}'" in capsys.readouterr().err


class TestCheck:
    def test_heat_kernel_almost_strict_passes(self, gw_field, st_domain, tmp_path):
        out = tmp_path / "rep.json"
        rc = main(
            [
                "check",
                "parabolic",
                "--field",
                gw_field,
                "--alpha",
                "0.5",
                "--p",
                "-1",
                "--mode",
                "almost-strict",
                "--samples",
                "1500",
                "--seed",
                "3",
                "--domain",
                st_domain,
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["verdict"] == "pass"
        assert rep["manifest"]["command"] == "check"
        assert rep["manifest"]["seed"] == 3

    def test_indicator_strict_maps_to_exit_1(self, tmp_path):
        field = write(
            tmp_path / "ind.json",
            {"kind": "indicator", "body": {"kind": "interval", "a": -1, "b": 1}},
        )
        dom = write(tmp_path / "dom2.json", {"kind": "interval", "a": -2, "b": 2})
        rc = main(
            [
                "check",
                "concavity",
                "--field",
                field,
                "--p",
                "inf",
                "--mode",
                "strict",
                "--samples",
                "800",
                "--seed",
                "1",
                "--domain",
                dom,
            ]
        )
        assert rc == 1

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_is_input_error(self, seed, tmp_path, capsys):
        field = write(tmp_path / "tent.json", {"kind": "tent", "body": {"kind": "interval", "a": -1, "b": 1}})
        assert main(["check", "concavity", "--field", field, "--p", "1", "--seed", seed]) == 2
        assert capsys.readouterr().err == f"error: a seed must be an integer in [0, 2**64), not {seed}\n"

    @pytest.mark.parametrize("wrap", [False, True])
    def test_wrapped_quadrature_slice_keeps_its_strict_verdict(self, wrap, tmp_path, capsys):
        # the default grid's error bar hides the slice's strictness margin;
        # a product of the slice alone has the same values and bar
        disk = {"kind": "ball", "center": [0, 0], "radius": 1}
        gamma = {"kind": "convolution", "kernel": "poisson", "psi": {"kind": "indicator", "body": disk}}
        desc = {"kind": "slice", "field": gamma, "t": 0.3}
        field = write(tmp_path / "f.json", {"kind": "product", "factors": [desc]} if wrap else desc)
        dom = write(tmp_path / "dom.json", {**disk, "radius": 1.5})
        argv = ["check", "concavity", "--field", field, "--p", "-1", "--mode", "strict"]
        assert main(argv + ["--samples", "400", "--domain", dom]) == 1
        out, err = capsys.readouterr()
        assert json.loads(out)["verdict"] == "equality_off_spec"
        assert err == "check: equality_off_spec\n"

    def test_malformed_json_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["check", "concavity", "--field", str(bad), "--p", "1"]) == 2

    def test_sampling_refusal_is_input_error(self, tmp_path, capsys):
        # the indicator of [0, 1] vanishes on the domain [2, 3], so a strict
        # check finds no pair with positive values and refuses
        field = write(
            tmp_path / "ind.json",
            {"kind": "indicator", "body": {"kind": "interval", "a": 0, "b": 1}},
        )
        dom = write(tmp_path / "far.json", {"kind": "interval", "a": 2, "b": 3})
        argv = ["check", "concavity", "--field", field, "--p", "1", "--mode", "strict"]
        assert main(argv + ["--samples", "50", "--domain", dom]) == 2
        assert capsys.readouterr().err.startswith("error: strictness demands positive values")

    def test_determinism_bytewise(self, gw_field, st_domain, tmp_path, capsys):
        args = [
            "check",
            "parabolic",
            "--field",
            gw_field,
            "--alpha",
            "0.5",
            "--p",
            "-1",
            "--mode",
            "plain",
            "--samples",
            "600",
            "--seed",
            "9",
            "--domain",
            st_domain,
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out

        def strip_wall(text):
            d = json.loads(text)
            d["manifest"].pop("wall_time_s")
            return json.dumps(d, sort_keys=True)

        assert strip_wall(first) == strip_wall(second)


class TestConvolve:
    def test_csv_grid(self, interval_body, tmp_path):
        out = tmp_path / "grid.csv"
        rc = main(
            [
                "convolve",
                "--kernel",
                "poisson",
                "--body",
                interval_body,
                "--xgrid=-1:1:3",
                "--tgrid",
                "1:1:1",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("# manifest:")
        assert lines[1] == "x0,t,value,est_error"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 3
        center = [r for r in rows if float(r[0]) == 0.0][0]
        assert float(center[2]) == pytest.approx(0.5, abs=1e-4)
        assert float(center[3]) >= 0

    @pytest.mark.parametrize("kernel", ["gw", "poisson"])
    def test_non_finite_point_is_input_error(self, kernel, interval_body, capsys):
        argv = ["convolve", "--kernel", kernel, "--body", interval_body, "--xgrid=nan:nan:1"]
        assert main(argv + ["--tgrid", "1:1:1"]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body, message",
        [
            ({"kind": "box", "lo": [], "hi": []}, "box bounds must have at least one coordinate"),
            ({"kind": "ball", "center": [], "radius": 1}, "ball center must be a 1-d array of at least one coordinate"),
        ],
        ids=["box", "ball"],
    )
    def test_zero_dimensional_body_is_input_error(self, body, message, tmp_path, capsys):
        argv = ["convolve", "--kernel", "gw", "--body", write(tmp_path / "body.json", body)]
        assert main(argv + ["--xgrid=0:1:2", "--tgrid", "1:1:1"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_manifest_line_is_standard_json_of_the_parsed_arguments(self, interval_body, capsys):
        argv = ["convolve", "--kernel", "gw", "--body", interval_body, "--xgrid=-1:1:3"]
        argv += ["--tgrid", "1:1:1"]
        assert main(argv) == 0
        first = capsys.readouterr().out.split("\n")[0]
        manifest = json.loads(first.removeprefix("# manifest: "), parse_constant=refuse_constant)
        assert manifest["config"] == parsed_config(argv)
        assert manifest["seed"] is None

    GOLDEN = Path(__file__).resolve().parent / "golden" / "convolve_ball.csv"

    def test_wall_time_covers_the_evaluation(self, interval_body, monkeypatch, capsys):
        from concavekit.convolve import ConvolutionField

        evaluate = ConvolutionField.eval_with_error

        def slow(self, x, t):
            time.sleep(0.2)
            return evaluate(self, x, t)

        monkeypatch.setattr(ConvolutionField, "eval_with_error", slow)
        argv = ["convolve", "--kernel", "gw", "--body", interval_body, "--xgrid=-1:1:3"]
        assert main(argv + ["--tgrid", "1:1:1"]) == 0
        manifest = json.loads(capsys.readouterr().out.split("\n")[0].removeprefix("# manifest: "))
        assert manifest["wall_time_s"] >= 0.2

    def test_ball_grid_matches_golden(self, tmp_path, monkeypatch):
        """A 2-d ball grid prints the bytes of tests/golden/convolve_ball.csv.

        Only the manifest's wall time is masked.  After an intended change of
        output, regenerate the file from this test's command and review the
        diff.
        """
        monkeypatch.chdir(tmp_path)
        write(tmp_path / "ball.json", {"kind": "ball", "center": [0.25, -0.5], "radius": 1.0})
        argv = ["convolve", "--kernel", "poisson", "--body", "ball.json"]
        argv += ["--xgrid=-1:1.5:4,-2:1:3", "--tgrid", "0.05:1.25:3", "--out", "grid.csv"]
        assert main(argv) == 0
        text = (tmp_path / "grid.csv").read_text()
        masked = re.sub(r'"wall_time_s": [^,}]+', '"wall_time_s": null', text, count=1)
        assert masked == self.GOLDEN.read_text()


class TestBBL:
    def test_flagship_instance(self, tmp_path, capsys):
        inst = write(
            tmp_path / "inst.json",
            {
                "f0": {"kind": "indicator", "body": {"kind": "interval", "a": 0, "b": 1}},
                "f1": {"kind": "indicator", "body": {"kind": "interval", "a": 2, "b": 4}},
                "ell": 0,
                "lambda": 0.5,
            },
        )
        assert main(["bbl", "--instance", inst]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["lhs"] == pytest.approx(1.5, abs=0.01)
        assert rep["rhs"] == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_boundary_exponent_report_is_standard_json(self, tmp_path, capsys):
        # at ell = -1/n the marginal exponent ell / (1 + n ell) is -inf
        inst = write(tmp_path / "inst.json", {**TestDescriptors.INSTANCE, "ell": -1})
        assert main(["bbl", "--instance", inst]) == 0
        rep = json.loads(capsys.readouterr().out, parse_constant=refuse_constant)
        assert rep["marginal_exponent"] == "-inf"


class TestMaximize:
    def test_problem_file(self, tmp_path, capsys):
        prob = write(
            tmp_path / "prob.json",
            {
                "objective": {"kind": "oracle_p", "a": 1, "b": 4},
                "feasible": {"kind": "box", "lo": [0, 0.5], "hi": [0, 5]},
                "multistart": 4,
            },
        )
        assert main(["maximize", "--problem", prob]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert abs(rep["argmax"][1] - 2.0) < 1e-6
        assert rep["unique"]

    def test_regiomontanus_subcommand(self, tmp_path, capsys):
        cons = write(tmp_path / "cons.json", {"kind": "box", "lo": [0, 0.5], "hi": [0, 5]})
        assert main(["regiomontanus", "--a", "1", "--b", "4", "--constraint", cons]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert abs(rep["argmax"][1] - 2.0) < 1e-6

    def test_regiomontanus_over_a_spacetime_box(self, tmp_path, capsys):
        cons = write(
            tmp_path / "c.json",
            {"kind": "spacetime_box", "body": {"kind": "interval", "a": -1, "b": 1}, "t_lo": 0.5, "t_hi": 3},
        )
        assert main(["regiomontanus", "--a", "1", "--b", "4", "--constraint", cons]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["argmax"] == pytest.approx([1.0, 0.5], abs=1e-6)

    def test_convergence_refusal_is_input_error(self, tmp_path, monkeypatch, capsys):
        from concavekit import optimize

        def refuse(problem):
            raise optimize.ConvergenceError("no start converged")

        monkeypatch.setattr(optimize, "maximize", refuse)
        prob = write(
            tmp_path / "prob.json",
            {"objective": {"kind": "oracle_p", "a": 1, "b": 4},
             "feasible": {"kind": "box", "lo": [0, 0.5], "hi": [0, 5]}},
        )
        assert main(["maximize", "--problem", prob]) == 2
        assert capsys.readouterr().err == "error: no start converged\n"

    def test_time_range_touching_the_fields_interval_is_input_error(self, tmp_path, capsys):
        prob = write(
            tmp_path / "prob.json",
            {"objective": {"kind": "conjugate0", "field": {"kind": "oracle_w", "a": -1, "b": 1}},
             "feasible": {"kind": "spacetime_box", "body": {"kind": "interval", "a": -2, "b": 2},
                          "t_lo": 1.0, "t_hi": 3.0}},
        )
        assert main(["maximize", "--problem", prob]) == 2
        assert capsys.readouterr().err == "error: time outside the field's interval (1.0, inf)\n"

    @pytest.mark.parametrize(
        "lo, hi",
        [([0, 0, 1], [0, 0, 3]), ([0, 1, 0], [0, 3, 0])],
        ids=["time_last", "time_zero"],
    )
    def test_feasible_dimension_mismatch_is_input_error(self, lo, hi, tmp_path, capsys):
        prob = write(
            tmp_path / "prob.json",
            {"objective": {"kind": "oracle_p", "a": 1, "b": 4}, "feasible": {"kind": "box", "lo": lo, "hi": hi}},
        )
        assert main(["maximize", "--problem", prob]) == 2
        err = capsys.readouterr().err
        assert err == "error: a space-time field of dim 1 needs 2 coordinates, but the feasible set has 3\n"

    def test_box_bounds_of_unequal_length_are_input_error(self, tmp_path, capsys):
        prob = write(
            tmp_path / "prob.json",
            {"objective": {"kind": "oracle_p", "a": 1, "b": 4},
             "feasible": {"kind": "box", "lo": [0, 1], "hi": [0, 3, 4]}},
        )
        assert main(["maximize", "--problem", prob]) == 2
        assert capsys.readouterr().err == "error: problem.feasible: box bounds must be 1-d arrays of equal length\n"

    def test_degenerate_picture_is_input_error(self, tmp_path):
        cons = write(tmp_path / "c.json", {"kind": "box", "lo": [0, 0.5], "hi": [0, 5]})
        assert main(["regiomontanus", "--a", "2", "--b", "2", "--constraint", cons]) == 2


class TestDescriptors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "concavity", "--p", "1", "--field", "{bad}"],
            ["check", "concavity", "--p", "1", "--field", "{tent}", "--domain", "{bad}"],
            ["check", "parabolic", "--p", "-1", "--alpha", "0.5", "--field", "{gw}"]
            + ["--domain", "{bad}"],
            ["convolve", "--kernel", "gw", "--body", "{bad}", "--xgrid=-1:1:3", "--tgrid", "1:1:1"],
            ["bbl", "--instance", "{bad}"],
            ["maximize", "--problem", "{bad}"],
            ["maximize", "--problem", "{bad}", "--seed", "3"],
            ["regiomontanus", "--a", "1", "--b", "4", "--constraint", "{bad}"],
        ],
    )
    def test_non_object_descriptor_is_input_error(self, argv, tmp_path, gw_field):
        tent = {"kind": "tent", "body": {"kind": "interval", "a": 0, "b": 1}}
        files = {
            "bad": write(tmp_path / "bad.json", [1, 2]),
            "gw": gw_field,
            "tent": write(tmp_path / "tent.json", tent),
        }
        assert main([a.format(**files) for a in argv]) == 2

    def test_misspelt_field_key_is_input_error(self, tmp_path, capsys):
        body = {"kind": "box", "lo": [0, 0], "hi": [2, 2]}
        tent = write(tmp_path / "tent.json", {"kind": "tent", "body": body, "centre": [0.5, 0.5]})
        assert main(["check", "concavity", "--p", "1", "--field", tent]) == 2
        assert "'centre'" in capsys.readouterr().err

    def test_misspelt_bbl_key_is_input_error(self, tmp_path, capsys):
        inst = {
            "f0": {"kind": "indicator", "body": {"kind": "interval", "a": 0, "b": 1}},
            "f1": {"kind": "indicator", "body": {"kind": "interval", "a": 2, "b": 4}},
            "ell": 0,
            "lambda": 0.5,
            "grid": 64,
        }
        assert main(["bbl", "--instance", write(tmp_path / "inst.json", inst)]) == 2
        assert "'grid'" in capsys.readouterr().err

    def test_misspelt_maximize_key_is_input_error(self, tmp_path, capsys):
        prob = {
            "objective": {"kind": "oracle_p", "a": 1, "b": 4},
            "feasible": {"kind": "box", "lo": [0, 0.5], "hi": [0, 5]},
            "tolerence": 1e-6,
        }
        assert main(["maximize", "--problem", write(tmp_path / "prob.json", prob)]) == 2
        assert "'tolerence'" in capsys.readouterr().err

    def test_missing_objective_names_problem_and_key(self, tmp_path, capsys):
        prob = {"feasible": {"kind": "box", "lo": [0, 0.5], "hi": [0, 5]}}
        assert main(["maximize", "--problem", write(tmp_path / "prob.json", prob)]) == 2
        assert capsys.readouterr().err == "error: a problem descriptor needs the key 'objective'\n"

    def test_wrapper_without_field_names_wrapper_and_key(self, tmp_path, capsys):
        prob = {
            "objective": {"kind": "spacetime_field"},
            "feasible": {"kind": "box", "lo": [0, 0.5], "hi": [0, 5]},
        }
        assert main(["maximize", "--problem", write(tmp_path / "prob.json", prob)]) == 2
        err = capsys.readouterr().err
        assert err == "error: problem.objective: a spacetime_field descriptor needs the key 'field'\n"

    INTERVAL = {"kind": "interval", "a": 0, "b": 1}
    PROBLEM = {
        "objective": {"kind": "oracle_p", "a": 1, "b": 4},
        "feasible": {"kind": "box", "lo": [0, 0.5], "hi": [0, 5]},
    }
    INSTANCE = {
        "f0": {"kind": "indicator", "body": INTERVAL},
        "f1": {"kind": "indicator", "body": {"kind": "interval", "a": 2, "b": 4}},
        "ell": 0,
        "lambda": 0.5,
    }

    @pytest.mark.parametrize(
        "key, value",
        [
            ("tolerance", "1e-6"),
            ("tolerance", None),
            ("multistart", "4"),
            ("multistart", 2.5),
            ("multistart", True),
            ("seed", "7"),
            ("seed", [7]),
        ],
    )
    def test_non_numeric_maximize_option_is_input_error(self, key, value, tmp_path, capsys):
        prob = write(tmp_path / "prob.json", {**self.PROBLEM, key: value})
        assert main(["maximize", "--problem", prob]) == 2
        assert f"problem.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("lambda", [0.5]),
            ("lambda", "0.5"),
            ("ell", [1]),
            ("ell", None),
            ("ell", True),
            ("ell", "one"),
            ("grid_points", "512"),
            ("grid_points", 64.5),
        ],
    )
    def test_non_numeric_bbl_value_is_input_error(self, key, value, tmp_path, capsys):
        inst = write(tmp_path / "inst.json", {**self.INSTANCE, key: value})
        assert main(["bbl", "--instance", inst]) == 2
        assert f"bbl_instance.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, data, where",
        [
            (
                ["convolve", "--kernel", "gw", "--xgrid=-1:1:3", "--tgrid", "1:1:1", "--body"],
                {"kind": "interval", "a": "0", "b": 1},
                "interval.a",
            ),
            (
                ["convolve", "--kernel", "gw", "--xgrid=-1:1:3", "--tgrid", "1:1:1", "--body"],
                {"kind": "interval", "a": 0, "b": True},
                "interval.b",
            ),
            (
                ["check", "parabolic", "--p", "-1", "--alpha", "0.5", "--domain", "{dom}", "--field"],
                {"kind": "gauss_weierstrass", "n": 2.7},
                "gauss_weierstrass.n",
            ),
            (
                ["check", "parabolic", "--p", "-1", "--alpha", "0.5", "--field", "{gw}", "--domain"],
                {"body": {"kind": "interval", "a": -2, "b": 2}, "t_lo": "0.5", "t_hi": 4.0},
                "spacetime_box.t_lo",
            ),
            (
                ["check", "concavity", "--p", "1", "--field"],
                {"kind": "tent", "body": {"kind": "ball", "center": [True, 0], "radius": 1}},
                "ball.center",
            ),
            (
                ["maximize", "--problem"],
                {**PROBLEM, "objective": {"kind": "oracle_p", "a": "1", "b": 4}},
                "oracle_p.a",
            ),
            (
                ["maximize", "--problem"],
                {**PROBLEM, "feasible": {"kind": "box", "lo": ["0", 0.5], "hi": [0, 5]}},
                "box.lo",
            ),
            (
                ["bbl", "--instance"],
                {**INSTANCE, "f1": {"kind": "indicator", "body": INTERVAL, "height": "2"}},
                "indicator.height",
            ),
        ],
    )
    def test_loose_nested_value_is_input_error(
        self, command, data, where, tmp_path, capsys, gw_field, st_domain
    ):
        argv = [a.format(gw=gw_field, dom=st_domain) for a in command]
        assert main([*argv, write(tmp_path / "data.json", data)]) == 2
        assert where in capsys.readouterr().err

    # each file a subcommand reads, with one number written as NUMBER
    NON_FINITE = {
        "check_field": (
            ["check", "concavity", "--p", "1", "--samples", "50", "--field"],
            {"kind": "tent", "body": {"kind": "interval", "a": 0, "b": "NUMBER"}},
        ),
        "check_domain": (
            ["check", "parabolic", "--p", "-1", "--alpha", "0.5", "--field", "{gw}", "--domain"],
            {"body": {"kind": "interval", "a": -2, "b": 2}, "t_lo": 0.5, "t_hi": "NUMBER"},
        ),
        "convolve": (
            ["convolve", "--kernel", "gw", "--xgrid=0:1:2", "--tgrid", "1:1:1", "--body"],
            {"kind": "interval", "a": 0, "b": "NUMBER"},
        ),
        "bbl": (["bbl", "--instance"], {**INSTANCE, "lambda": "NUMBER"}),
        "maximize": (
            ["maximize", "--problem"],
            {**PROBLEM, "feasible": {"kind": "box", "lo": [0, 0.5], "hi": [0, "NUMBER"]}},
        ),
        "regiomontanus": (
            ["regiomontanus", "--a", "1", "--b", "4", "--constraint"],
            {"kind": "box", "lo": [0, 0.5], "hi": [0, "NUMBER"]},
        ),
    }

    @pytest.mark.parametrize(
        "number",
        ["Infinity", "-Infinity", "NaN", "1e999", "-1e999", pytest.param("1" + "0" * 400, id="1e400")],
    )
    @pytest.mark.parametrize("case", sorted(NON_FINITE))
    def test_non_finite_number_is_input_error(self, case, number, tmp_path, capsys, gw_field):
        command, data = self.NON_FINITE[case]
        path = tmp_path / "data.json"
        path.write_text(json.dumps(data).replace('"NUMBER"', number))
        argv = [a.format(gw=gw_field) for a in command]
        assert main([*argv, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_overflowing_exponent_reads_as_inf(self, tmp_path, capsys):
        reports = []
        for ell in ('"inf"', "1e999", "9" * 400):
            path = tmp_path / "inst.json"
            inst = {**self.INSTANCE, "ell": "ELL", "grid_points": 64}
            path.write_text(json.dumps(inst).replace('"ELL"', ell))
            assert main(["bbl", "--instance", str(path)]) == 0
            reports.append(json.loads(capsys.readouterr().out))
            reports[-1]["manifest"].pop("wall_time_s")
        assert reports[0] == reports[1] == reports[2]
        assert reports[0]["marginal_exponent"] == 1.0

    def test_grid_points_beyond_the_float_range_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({**self.INSTANCE, "grid_points": "N"}).replace('"N"', "9" * 400))
        assert main(["bbl", "--instance", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: needs at least 8 grid points")

    def test_integral_float_counts_are_read(self, tmp_path, capsys):
        prob = write(tmp_path / "prob.json", {**self.PROBLEM, "multistart": 4.0, "seed": 7.0})
        assert main(["maximize", "--problem", prob]) == 0
        assert json.loads(capsys.readouterr().out)["starts_converged"] == 4
        inst = write(tmp_path / "inst.json", {**self.INSTANCE, "grid_points": 64.0})
        assert main(["bbl", "--instance", inst]) == 0
        assert json.loads(capsys.readouterr().out)["grid_points"] == 64

    def test_field_objective_needs_no_wrapper(self, tmp_path, capsys):
        prob = {
            "objective": {"kind": "gauss_weierstrass", "n": 1},
            "feasible": {"kind": "box", "lo": [-1, 0.5], "hi": [1, 2]},
            "multistart": 3,
        }
        assert main(["maximize", "--problem", write(tmp_path / "prob.json", prob)]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["argmax"] == pytest.approx([0.0, 0.5], abs=1e-6)


class TestTopLevel:
    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "concavekit" in capsys.readouterr().out

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_python_dash_m_runs_main(self):
        run = lambda *argv: subprocess.run(
            [sys.executable, "-m", "concavekit", *argv],
            env=src_env(),
            capture_output=True,
            timeout=120,
        )
        ok = run("means", "--p", "0", "--a", "1", "--b", "4", "--lambda", "0.5")
        assert ok.returncode == 0 and ok.stdout.decode().strip() == "2.0"
        assert run("frobnicate").returncode == 2

    # after each command, no scipy module may be loaded; the features that
    # need one still load it on first use
    FOOTPRINT = """
import json, sys
import concavekit
from concavekit.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

assert not scipy_modules(), scipy_modules()
for argv, rc in json.loads(sys.argv[1]):
    assert main(argv) == rc, argv
    assert not scipy_modules(), (argv, scipy_modules())
assert abs(concavekit.oracle_W_interval(-1, 1, 0.0, 1.0) - 0.5204998778130465) < 1e-15
assert abs(concavekit.Polytope([[0, 0], [1, 0], [0, 1]]).volume() - 0.5) < 1e-15
print("ok")
"""

    def test_common_commands_load_no_scipy(self, tmp_path):
        interval = {"kind": "interval", "a": -1, "b": 1}
        indicator = write(tmp_path / "ind.json", {"kind": "indicator", "body": interval})
        inst = {
            "f0": {"kind": "indicator", "body": interval},
            "f1": {"kind": "indicator", "body": {"kind": "interval", "a": 0, "b": 3}},
            "ell": 0,
            "lambda": 0.3,
            "grid_points": 64,
        }
        box_problem = {
            "objective": {"kind": "oracle_p", "a": 1, "b": 4},
            "feasible": {"kind": "box", "lo": [-1, 0.5], "hi": [1, 5]},
            "multistart": 4,
        }
        field_problem = {
            "objective": {"kind": "spacetime_field", "field": {"kind": "gauss_weierstrass"}},
            "feasible": {"kind": "spacetime_box", "body": interval, "t_lo": 0.5, "t_hi": 2},
            "multistart": 4,
            "tolerance": 1e-6,
        }
        out = str(tmp_path / "out.json")
        commands = [
            (["means", "--p", "0", "--a", "1", "--b", "4", "--lambda", "0.5"], 0),
            (["bbl", "--instance", write(tmp_path / "inst.json", inst), "--out", out], 0),
            (
                ["check", "concavity", "--field", indicator, "--p", "inf", "--mode", "strict"]
                + ["--samples", "200", "--out", out],
                1,
            ),
            (["maximize", "--problem", write(tmp_path / "box.json", box_problem), "--out", out], 0),
            (["maximize", "--problem", write(tmp_path / "st.json", field_problem), "--out", out], 0),
        ]
        body = write(tmp_path / "body.json", interval)
        for kernel in ("gw", "poisson"):
            grid = ["--xgrid=-2:2:5", "--tgrid", "0.5:1:2", "--out", str(tmp_path / "grid.csv")]
            commands.append((["convolve", "--kernel", kernel, "--body", body] + grid, 0))
        argv = [sys.executable, "-c", self.FOOTPRINT, json.dumps(commands)]
        run = subprocess.run(argv, env=src_env(), capture_output=True, text=True, timeout=120)
        assert run.returncode == 0 and run.stdout.splitlines()[-1] == "ok", run.stderr


BALL_TENT = {"kind": "tent", "body": {"kind": "ball", "center": [0.25, -0.5], "radius": 1.0}}
ST_DOMAIN = {"body": {"kind": "interval", "a": -2, "b": 2}, "t_lo": 0.5, "t_hi": 4.0}
INDICATORS = {
    "f0": {"kind": "indicator", "body": {"kind": "interval", "a": 0, "b": 1}},
    "f1": {"kind": "indicator", "body": {"kind": "interval", "a": 2, "b": 4}},
}
TENTS = {
    "f0": {"kind": "tent", "body": {"kind": "box", "lo": [0, 0], "hi": [1, 2]}},
    "f1": {"kind": "tent", "body": {"kind": "ball", "center": [2, 1], "radius": 1}, "height": 2},
}
ORACLE_P = {"kind": "oracle_p", "a": 1, "b": 4}

# name -> (input files, argv, exit code); argv names the files by their keys
GOLDEN_REPORTS = {
    "check_parabolic_gw": (
        {"field": {"kind": "gauss_weierstrass", "n": 1}, "dom": ST_DOMAIN},
        ["check", "parabolic", "--field", "field", "--alpha", "0.5", "--p", "-1"]
        + ["--mode", "almost-strict", "--samples", "1500", "--seed", "3", "--domain", "dom"],
        0,
    ),
    "check_concavity_tent_plain": (
        {"field": BALL_TENT},
        ["check", "concavity", "--field", "field", "--p", "1", "--samples", "600", "--seed", "5"],
        0,
    ),
    "check_concavity_tent_strict": (
        {"field": BALL_TENT},
        ["check", "concavity", "--field", "field", "--p", "2", "--mode", "strict"]
        + ["--samples", "600", "--seed", "5"],
        1,
    ),
    "bbl_ell_inf": (
        {"inst": {**INDICATORS, "ell": "inf", "lambda": 0.3, "grid_points": 64}},
        ["bbl", "--instance", "inst"],
        0,
    ),
    "bbl_ell_half": (
        {"inst": {**TENTS, "ell": 0.5, "lambda": 0.4, "grid_points": 400}},
        ["bbl", "--instance", "inst"],
        0,
    ),
    "maximize_box": (
        {"prob": {"objective": ORACLE_P, "feasible": {"kind": "box", "lo": [-1, 0.5], "hi": [1, 5]},
                  "multistart": 4}},
        ["maximize", "--problem", "prob"],
        0,
    ),
    "maximize_segment_seed": (
        {"prob": {"objective": ORACLE_P, "feasible": {"kind": "box", "lo": [0, 0.5], "hi": [0, 5]},
                  "multistart": 3, "tolerance": 1e-7}},
        ["maximize", "--problem", "prob", "--seed", "11"],
        0,
    ),
    "regiomontanus_box": (
        {"cons": {"kind": "box", "lo": [0.5, 0.5], "hi": [2, 5]}},
        ["regiomontanus", "--a", "1", "--b", "4", "--constraint", "cons", "--seed", "2"],
        0,
    ),
}


class TestGoldenReports:
    """Each subcommand's JSON report has the bytes of tests/golden/cli_reports.json.

    Only the manifest's wall time is masked.  The golden file maps each case
    to its report; the printed text must equal that report dumped as the CLI
    dumps it.  After an intended change of output, regenerate the file from
    ``_report_text`` of every case and review the diff.
    """

    GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_reports.json"

    @staticmethod
    def _report_text(name, tmp_path, monkeypatch):
        files, argv, rc = GOLDEN_REPORTS[name]
        monkeypatch.chdir(tmp_path)
        for stem, data in files.items():
            write(tmp_path / f"{stem}.json", data)
        argv = [f"{a}.json" if a in files else a for a in argv]
        assert main([*argv, "--out", "report.json"]) == rc
        text = (tmp_path / "report.json").read_text()
        return re.sub(r'"wall_time_s": [^,\n}]+', '"wall_time_s": null', text, count=1)

    @pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
    def test_manifest_config_is_the_parsed_arguments(self, name, tmp_path, monkeypatch):
        manifest = json.loads(self._report_text(name, tmp_path, monkeypatch))["manifest"]
        files, argv, _ = GOLDEN_REPORTS[name]
        argv = [f"{a}.json" if a in files else a for a in argv]
        assert manifest["config"] == parsed_config([*argv, "--out", "report.json"])

    def test_every_case_is_pinned(self):
        assert sorted(json.loads(self.GOLDEN.read_text())) == sorted(GOLDEN_REPORTS)

    @pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
    def test_report_matches_golden(self, name, tmp_path, monkeypatch):
        golden = json.loads(self.GOLDEN.read_text())[name]
        expected = json.dumps(golden, indent=2, sort_keys=True) + "\n"
        assert self._report_text(name, tmp_path, monkeypatch) == expected
