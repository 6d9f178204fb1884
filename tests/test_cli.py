"""End-to-end tests of the command-line interface."""

import argparse
import copy
import dataclasses
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capnet
from capnet import jsonfmt
from capnet.analyze import ErfReport, ShatterReport, erf_profile
from capnet.augment import DecouplingReport
from capnet.cli import SpecError, build_parser, main, parse_network_spec
from capnet.deeplimit import ConvergenceReport, DeepLimitConfig, ResidualGenerator, StabilityError
from capnet.jsonfmt import canonical_dumps


def _write_spec(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _residual_spec(n, L, eps=0.1, v=0.0, dcoef=1.0, top="dirac:100"):
    return {
        "layers": [
            {
                "kind": "residual",
                "n_in": n,
                "n_out": n,
                "weights": f"residual:{eps},{v},{dcoef}",
            }
            for _ in range(L)
        ],
        "top_capacity": top,
    }


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _peak_rss(argv):
    """Exit code, stderr and peak RSS in KiB of ``capnet argv`` in a fresh process.

    A process forked from pytest carries pytest's peak into its ru_maxrss,
    so the command is forked from a small launcher that reads it with wait4.
    """
    launcher = (
        "import os, sys\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    os.execv(sys.executable, [sys.executable, '-m', 'capnet.cli'] + sys.argv[1:])\n"
        "_, status, usage = os.wait4(pid, 0)\n"
        "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
    )
    src = os.path.dirname(os.path.dirname(capnet.__file__))
    done = subprocess.run(
        [sys.executable, "-c", launcher] + argv,
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    code, peak_kib = (int(word) for word in done.stdout.split())
    return code, done.stderr, peak_kib


class TestNu:
    def test_relu_exactly_half(self, capsys):
        code, out = _run(capsys, ["nu", "relu"])
        assert code == 0
        assert json.loads(out) == {"nu": 0.5}

    def test_linear_exactly_one(self, capsys):
        code, out = _run(capsys, ["nu", "linear"])
        assert code == 0
        assert json.loads(out)["nu"] == 1

    def test_abs_exactly_zero(self, capsys):
        code, out = _run(capsys, ["nu", "abs"])
        assert code == 0
        assert json.loads(out)["nu"] == 0

    def test_monte_carlo_agrees_with_closed_form(self, capsys):
        code, out = _run(capsys, ["nu", "leaky_relu:0.2", "--mc", "100000", "--seed", "7"])
        assert code == 0
        doc = json.loads(out)
        assert doc["nu"] == pytest.approx(1.44 / 2.08, rel=1e-12)
        assert abs(doc["nu_hat"] - doc["nu"]) <= 4.0 * doc["stderr"]
        assert doc["n_samples"] == 100000

    def test_monte_carlo_estimate_far_outside_unit_interval_exits_0(self, capsys):
        # |eta| = 100, so 1,000 samples put nu_hat at 1180 with a stderr of 314
        code, out = _run(capsys, ["nu", "pseudo_random:100", "--mc", "1000", "--seed", "355"])
        assert code == 0
        doc = json.loads(out)
        assert doc["nu"] == 0
        assert abs(doc["nu_hat"]) > 1.0 + 3.0 * doc["stderr"]

    def test_unparsable_activation_exits_2(self, capsys):
        assert main(["nu", "bogus"]) == 2

    @pytest.mark.parametrize("sigma", ["nan", "inf", "-inf", "1e200"])
    @pytest.mark.parametrize("command", [["nu"], ["nu", "--mc", "2000"], ["verify", "--activation"]])
    def test_bad_sigma_exits_2(self, capsys, command, sigma):
        # such a sigma used to give "nu_hat": null, a traceback or a message about a matrix
        assert main(command + [f"pseudo_random:{sigma}"]) == 2
        assert f"bad pseudo_random sigma '{sigma}'" in capsys.readouterr().err

    @pytest.mark.parametrize("slope", ["nan", "inf", "-inf", "1e200", "1e154"])
    @pytest.mark.parametrize("command", [["nu"], ["nu", "--mc", "2000"], ["verify", "--activation"]])
    def test_bad_leaky_relu_slope_exits_2(self, capsys, command, slope):
        # nan and inf gave "nu": null, 1e200 an OverflowError and 1e154 a nu of 0
        assert main(command + [f"leaky_relu:{slope}"]) == 2
        assert f"bad leaky_relu slope '{slope}'" in capsys.readouterr().err

    def test_missing_argument_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["nu"])
        assert excinfo.value.code == 2


class TestChain:
    def test_identity_chain_keeps_dirac(self, tmp_path, capsys):
        doc = {
            "layers": [
                {"kind": "dense", "n_in": 9, "n_out": 9, "weights": "uniform:1"}
                for _ in range(4)
            ],
            "top_capacity": "dirac:3",
        }
        code, out = _run(capsys, ["chain", _write_spec(tmp_path, "id.json", doc)])
        assert code == 0
        report = json.loads(out)
        for profile in report["profiles"]:
            assert profile[3] == 1.0
            assert sum(profile) == 1.0

    def test_deep_residual_spreads_to_root_twenty(self, tmp_path, capsys):
        path = _write_spec(tmp_path, "deep.json", _residual_spec(201, 100))
        code, out = _run(capsys, ["chain", path])
        assert code == 0
        final = np.array(json.loads(out)["profiles"][0])
        idx = np.arange(final.size)
        mean = (idx * final).sum() / final.sum()
        std = math.sqrt(((idx - mean) ** 2 * final).sum() / final.sum())
        assert std == pytest.approx(math.sqrt(20.0), rel=0.05)

    def test_totals_constant(self, tmp_path, capsys):
        doc = {
            "layers": [
                {
                    "kind": "dense",
                    "n_in": 6,
                    "n_out": 6,
                    "weights": "random_gaussian:5",
                    "activation": "pseudo_random",
                },
                {
                    "kind": "dense",
                    "n_in": 6,
                    "n_out": 4,
                    "weights": "random_gaussian:9",
                    "activation": "pseudo_random",
                },
            ],
            "top_capacity": [1.0, 0.5, 0.0, 0.25],
        }
        code, out = _run(capsys, ["chain", _write_spec(tmp_path, "dense.json", doc)])
        assert code == 0
        report = json.loads(out)
        assert report["totals"] == pytest.approx([1.75] * 3, abs=1e-12)
        assert report["metadata"]["seeds"] == [5, 9]
        assert len(report["metadata"]["spec_hash"]) == 64

    def test_csv_profile(self, tmp_path, capsys):
        path = _write_spec(tmp_path, "deep.json", _residual_spec(21, 3, top="dirac:10"))
        csv_path = tmp_path / "profile.csv"
        code, _ = _run(capsys, ["chain", path, "--csv", str(csv_path)])
        assert code == 0
        lines = csv_path.read_text().split("\n")
        assert lines[0] == "layer,coordinate,kappa"
        assert lines[-1] == ""
        assert len(lines) == 1 + 4 * 21 + 1
        layer, coordinate, kappa = lines[1].split(",")
        assert (layer, coordinate) == ("0", "0")
        float(kappa)

    def test_byte_identical_runs(self, tmp_path, capsys):
        path = _write_spec(tmp_path, "deep.json", _residual_spec(31, 5, top="dirac:15"))
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["chain", path, "--out", str(out_a)]) == 0
        assert main(["chain", path, "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert out_a.read_bytes().endswith(b"\n")

    def test_spec_round_trip(self):
        doc = _residual_spec(21, 2, top="uniform")
        spec = parse_network_spec(doc)
        again = parse_network_spec(json.loads(canonical_dumps(spec.document)))
        assert again.document == spec.document
        assert again.spec_hash() == spec.spec_hash()

    def test_unstable_eps_exits_1(self, tmp_path, capsys):
        path = _write_spec(tmp_path, "bad.json", _residual_spec(11, 1, eps=0.9, top="uniform"))
        assert main(["chain", path]) == 1

    def test_unstable_eps_names_layer(self, tmp_path, capsys):
        doc = _residual_spec(11, 3, top="uniform")
        doc["layers"][2]["weights"] = "residual:0.9,0.0,1.0"
        assert main(["chain", _write_spec(tmp_path, "bad.json", doc)]) == 1
        assert "layer 2: eps = 0.9" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["0", "-0.1"])
    def test_nonpositive_residual_eps_exits_2(self, tmp_path, capsys, eps):
        path = _write_spec(tmp_path, "bad.json", _residual_spec(11, 1, eps=eps, top="uniform"))
        assert main(["chain", path]) == 2
        assert "layer 0: eps must be positive" in capsys.readouterr().err

    def test_infinite_differential_eps_exits_2_naming_eps(self, tmp_path, capsys):
        # json reads Infinity; (I + inf P o P) / (1 + inf) would be inf/inf
        layer = {"kind": "differential", "n_in": 4, "n_out": 4, "eps": math.inf,
                 "weights": "random_gaussian:3", "activation": "pseudo_random"}
        doc = {"layers": [layer], "top_capacity": "uniform"}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["chain", _write_spec(tmp_path, "bad.json", doc)]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "layer 0: eps must be finite, got inf" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["0.5", True, None, [0.5]])
    def test_non_numeric_differential_eps_exits_2(self, tmp_path, capsys, eps):
        layer = {"kind": "differential", "n_in": 4, "n_out": 4, "eps": eps,
                 "weights": "random_gaussian:3", "activation": "pseudo_random"}
        doc = {"layers": [layer], "top_capacity": "uniform"}
        assert main(["chain", _write_spec(tmp_path, "bad.json", doc)]) == 2
        assert f"layer 0: eps must be a number, got {eps!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"activation": 5}, "activation must be a string, got 5"),
            ({"activation": ["relu"]}, "activation must be a string, got ['relu']"),
            ({"n_in": True, "n_out": True}, "n_in and n_out must be positive integers"),
            ({"weights": "random_gaussian:-1"}, "seed in 'random_gaussian:-1' must be non-negative"),
        ],
    )
    def test_wrongly_typed_field_names_layer(self, tmp_path, capsys, fields, message):
        layer = {"kind": "dense", "n_in": 4, "n_out": 4,
                 "weights": "random_gaussian:3", "activation": "pseudo_random"}
        doc = {"layers": [layer, dict(layer, **fields)], "top_capacity": "uniform"}
        assert main(["chain", _write_spec(tmp_path, "bad.json", doc)]) == 2
        assert f"layer 1: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("params", ["0.1,0,inf", "0.1,nan,1", "0.1,-inf,1"])
    def test_non_finite_residual_parameters_exit_2(self, tmp_path, capsys, params):
        layer = {"kind": "residual", "n_in": 5, "n_out": 5, "weights": f"residual:{params}"}
        doc = {"layers": [layer], "top_capacity": "uniform"}
        assert main(["chain", _write_spec(tmp_path, "bad.json", doc)]) == 2
        assert "layer 0: v = " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "params, message",
        [
            ("nan,0,1", "eps must be positive, got nan"),
            ("0.1,0,1e308", "Dcoef = 1e+308 overflows"),
        ],
    )
    def test_nan_eps_and_overflowing_dcoef_exit_2(self, tmp_path, capsys, params, message):
        layer = {"kind": "residual", "n_in": 5, "n_out": 5, "weights": f"residual:{params}"}
        doc = {"layers": [layer], "top_capacity": "uniform"}
        assert main(["chain", _write_spec(tmp_path, "bad.json", doc)]) == 2
        assert f"layer 0: {message}" in capsys.readouterr().err

    def test_operators_past_spec_budget_exit_2(self, tmp_path, capsys, monkeypatch):
        layer = {"kind": "dense", "n_in": 4, "n_out": 4, "weights": "uniform:1"}
        # room for three 4 x 4 operators: the fourth layer is refused before it is built
        monkeypatch.setattr("capnet.cli._SPEC_OPERATOR_BUDGET_BYTES", 3 * 4 * 4 * 8)
        path = _write_spec(tmp_path, "four.json", {"layers": [layer] * 4, "top_capacity": "uniform"})
        assert main(["chain", path]) == 2
        assert "layer 3: its 4x4 operator takes the chain past" in capsys.readouterr().err
        doc = {"layers": [layer] * 3, "top_capacity": "uniform"}
        assert main(["chain", _write_spec(tmp_path, "three.json", doc)]) == 0

    def test_huge_layer_refused_before_allocating(self, tmp_path, capsys):
        # 10^5 x 10^5 floats would need 75 GiB
        layer = {"kind": "dense", "n_in": 10**5, "n_out": 10**5, "weights": "uniform:1"}
        doc = {"layers": [layer], "top_capacity": "uniform"}
        assert main(["chain", _write_spec(tmp_path, "huge.json", doc)]) == 2
        assert "512 MiB spec operator limit" in capsys.readouterr().err

    def test_unknown_kind_names_layer(self, tmp_path, capsys):
        doc = {
            "layers": [{"kind": "conv", "n_in": 4, "n_out": 4, "weights": "uniform:1"}],
            "top_capacity": "uniform",
        }
        assert main(["chain", _write_spec(tmp_path, "bad.json", doc)]) == 2
        assert "layer 0" in capsys.readouterr().err

    def test_dimension_mismatch_names_layer(self, tmp_path, capsys):
        doc = {
            "layers": [
                {"kind": "dense", "n_in": 4, "n_out": 5, "weights": "random_gaussian:1",
                 "activation": "pseudo_random"},
                {"kind": "dense", "n_in": 4, "n_out": 3, "weights": "random_gaussian:2",
                 "activation": "pseudo_random"},
            ],
            "top_capacity": "uniform",
        }
        assert main(["chain", _write_spec(tmp_path, "bad.json", doc)]) == 2
        assert capsys.readouterr().err == "error: layer 1 expects 4 inputs but layer 0 produces 5\n"

    def test_missing_spec_file_exits_2(self, capsys):
        assert main(["chain", "/nonexistent/spec.json"]) == 2

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["chain", str(path)]) == 2

    def test_wrong_probe_length_exits_2(self, tmp_path, capsys):
        doc = _residual_spec(11, 1, top=[1.0, 2.0])
        assert main(["chain", _write_spec(tmp_path, "bad.json", doc)]) == 2

    def test_relu_chain_refused(self, tmp_path, capsys):
        doc = {
            "layers": [
                {"kind": "dense", "n_in": 5, "n_out": 5, "weights": "random_gaussian:3",
                 "activation": "relu"}
            ],
            "top_capacity": "uniform",
        }
        assert main(["chain", _write_spec(tmp_path, "bad.json", doc)]) == 2
        assert "relu" in capsys.readouterr().err

    def test_activation_needed_by_dense_and_defaulted_by_differential(self, tmp_path, capsys):
        dense = {"kind": "dense", "n_in": 4, "n_out": 4, "weights": "random_gaussian:3"}
        differential = dict(dense, kind="differential", eps=0.3)
        for layer, code in ((differential, 0), (dense, 2)):
            path = _write_spec(tmp_path, "spec.json", {"layers": [layer], "top_capacity": "uniform"})
            assert main(["chain", path]) == code
        assert "layer 0: dense layers need an activation" in capsys.readouterr().err

    def test_weights_file_loaded(self, tmp_path, capsys):
        weights = tmp_path / "w.csv"
        weights.write_text("1.0,0.0\n0.0,1.0\n")
        doc = {
            "layers": [
                {"kind": "dense", "n_in": 2, "n_out": 2, "weights": str(weights),
                 "activation": "pseudo_random"}
            ],
            "top_capacity": [1.0, 3.0],
        }
        code, out = _run(capsys, ["chain", _write_spec(tmp_path, "file.json", doc)])
        assert code == 0
        assert json.loads(out)["profiles"][0] == [1.0, 3.0]

    @pytest.mark.parametrize("scale, flow", [("1e200", "overflows"), ("1e-170", "underflows")])
    def test_weights_file_column_norm_out_of_float_range_exits_2(
        self, tmp_path, capsys, scale, flow
    ):
        weights = tmp_path / "w.csv"
        weights.write_text(f"{scale},1\n{scale},0\n")
        doc = {
            "layers": [
                {"kind": "dense", "n_in": 2, "n_out": 2, "weights": str(weights),
                 "activation": "pseudo_random"}
            ],
            "top_capacity": "uniform",
        }
        assert main(["chain", _write_spec(tmp_path, "file.json", doc)]) == 2
        err = capsys.readouterr().err
        assert f"layer 0: projection column 0 has a squared norm that {flow} a float" in err
        assert "Warning" not in err


@pytest.mark.parametrize("command", ["chain", "erf", "shatter"])
@pytest.mark.parametrize("kind", ["dense", "differential"])
@pytest.mark.parametrize("activation", ["relu", "abs", "linear", "leaky_relu:0.2"])
def test_non_pseudo_random_layer_refused_by_every_command(
    tmp_path, capsys, command, kind, activation
):
    # D = P o P describes pseudo_random layers only; shatter used to report on the others
    good = {"kind": "dense", "n_in": 4, "n_out": 4, "weights": "random_gaussian:1",
            "activation": "pseudo_random"}
    bad = dict(good, kind=kind, weights="random_gaussian:2", activation=activation)
    if kind == "differential":
        bad["eps"] = 0.3
    path = _write_spec(tmp_path, "spec.json", {"layers": [good, bad], "top_capacity": "uniform"})
    assert main([command, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"layer 1: activation '{activation.partition(':')[0]}'" in captured.err


@pytest.mark.parametrize("command", ["layer", "propagate"])
def test_removed_commands_are_invalid_choices(tmp_path, capsys, command):
    # chain serves both: a one-layer spec is a chain of one layer
    path = _write_spec(tmp_path, "one.json", _residual_spec(21, 1, top="dirac:10"))
    with pytest.raises(SystemExit) as exc:
        main([command, path])
    assert exc.value.code == 2
    assert f"invalid choice: '{command}'" in capsys.readouterr().err


def test_readme_command_lines_parse():
    # every documented command line parses, and every command is documented
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as handle:
        blocks = re.findall(r"```sh\n(.*?)```", handle.read(), flags=re.S)
    lines = [shlex.split(line, comments=True) for block in blocks for line in block.splitlines()]
    parser = build_parser()
    used = {parser.parse_args(words[1:]).command for words in lines if words[:1] == ["capnet"]}
    (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    expected = {"nu", "chain", "pde", "erf", "shatter", "verify"}
    assert set(subcommands.choices) == expected
    assert used == expected


class TestPde:
    def test_default_run_matches_closed_form(self, capsys):
        code, out = _run(capsys, ["pde"])
        assert code == 0
        doc = json.loads(out)
        assert doc["markov_std"] == pytest.approx(math.sqrt(20.0), rel=0.05)
        assert doc["rel_errors"][0] <= 0.02
        assert doc["overall_order"] >= 1.0
        assert not doc["boundary_flagged"]

    def test_unstable_eps_exits_1(self, capsys):
        assert main(["pde", "--eps", "0.8"]) == 1

    @pytest.mark.parametrize("flag, value", [("--D", "inf"), ("--v", "nan")])
    def test_non_finite_generator_exits_2(self, capsys, flag, value):
        assert main(["pde", flag, value]) == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--eps", "nan", "eps must be positive, got nan"),
            ("--D", "1e308", "Dcoef = 1e+308 overflows"),
        ],
    )
    def test_nan_eps_and_overflowing_dcoef_exit_2(self, capsys, flag, value, message):
        assert main(["pde", flag, value]) == 2
        assert message in capsys.readouterr().err

    def test_levels_requested_next_to_levels_reached(self, capsys):
        # eps * 2 * Dcoef doubles per level: 0.2, 0.4 and 0.8 are stable, 1.6 is not
        code, out = _run(capsys, ["pde", "--n", "201", "--refinements", "4"])
        assert code == 0
        doc = json.loads(out)
        assert doc["levels_requested"] == 5
        assert doc["eps_levels"] == [0.1, 0.05, 0.025]

    @pytest.mark.parametrize("probe", ["201", "-1"])
    def test_probe_out_of_range_exits_2(self, capsys, probe):
        assert main(["pde", "--probe", probe, "--refinements", "0"]) == 2
        assert f"dirac index {probe} out of range [0, 201)" in capsys.readouterr().err

    def test_walk_past_step_limit_exits_2(self, capsys):
        # about 9 minutes of stepping at some 6 us a step
        assert main(["pde", "--n", "3", "--L", "100000000", "--refinements", "0"]) == 2
        assert "walk limit of 10,000,000 steps" in capsys.readouterr().err

    def test_finer_level_past_walk_limit_exits_2_before_walking(self, capsys):
        # level 7 is 128,000 steps of 256,001 cells; levels 0-6 would step for some 45 s
        start = time.perf_counter()
        argv = ["pde", "--n", "2001", "--L", "1000", "--eps", "0.001", "--refinements", "7"]
        assert main(argv) == 2
        assert time.perf_counter() - start < 2.0
        assert "128000 steps of 256001 cells are past the walk limit" in capsys.readouterr().err

    def test_grid_past_closed_form_limit_exits_2(self, capsys):
        # within every walk limit, but the direct convolution would run for minutes
        start = time.perf_counter()
        assert main(["pde", "--n", "2000001", "--L", "1", "--refinements", "0"]) == 2
        assert time.perf_counter() - start < 2.0
        err = capsys.readouterr().err
        assert "closed form on 2,000,001 cells is past the limit of 500,000 cells" in err

    def test_grid_past_closed_form_limit_exits_2_in_bounded_memory(self):
        # no n-sized array is built before the closed-form limit refuses the grid
        code, err, peak_kib = _peak_rss(["pde", "--n", "20000000"])
        assert code == 2
        assert "closed form on 20,000,000 cells is past the limit of 500,000 cells" in err
        assert peak_kib < 80 * 1024

    def test_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["pde", "--n", "101", "--L", "50", "--out"]
        assert main(argv + [str(out_a)]) == 0
        assert main(argv + [str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()


class TestErf:
    def test_long_walk_report_held_as_an_array(self, tmp_path):
        # 200,001 widths at 16 bytes each; as (int, float) tuples they took some 146
        # bytes each and the run peaked at about 68 MiB
        out = tmp_path / "erf.json"
        code, _, peak_kib = _peak_rss(["erf", "--n", "3", "--L", "200000", "--out", str(out)])
        assert code == 0
        assert peak_kib <= 50 * 1024

    @pytest.mark.parametrize(
        "option, value",
        [
            ("--n", "201"),
            ("--L", "5"),
            ("--eps", "0.9"),
            ("--D", "1"),
            ("--v", "0.4"),
            ("--boundary", "reflecting"),
        ],
    )
    def test_walk_option_next_to_spec_exits_2(self, tmp_path, capsys, option, value):
        # the spec's chain is the whole walk, so a walk option would be ignored
        path = _write_spec(tmp_path, "spec.json", _residual_spec(21, 3, top="dirac:10"))
        assert main(["erf", path, option, value]) == 2
        assert capsys.readouterr().err == f"error: {option} cannot be combined with a spec file\n"

    def test_depth_ratio_is_two(self, capsys):
        code, out = _run(capsys, ["erf", "--ratio-depth", "25"])
        assert code == 0
        doc = json.loads(out)
        assert doc["width_ratio"] == pytest.approx(2.0, rel=0.10)
        assert 0.45 <= doc["fitted_exponent"] <= 0.55
        assert doc["ratio_depth"] == 25
        assert doc["fit_points"] == sum(sigma >= 2.0 for _, sigma in doc["per_depth_std"][1:])

    def test_specfile_chain(self, tmp_path, capsys):
        path = _write_spec(tmp_path, "deep.json", _residual_spec(201, 100))
        code, out = _run(capsys, ["erf", path, "--probe", "100"])
        assert code == 0
        doc = json.loads(out)
        assert 0.45 <= doc["fitted_exponent"] <= 0.55
        assert doc["per_depth_std"][-1][1] == pytest.approx(math.sqrt(20.0), rel=0.05)

    def test_bad_ratio_depth_exits_2(self, tmp_path, capsys):
        path = _write_spec(tmp_path, "deep.json", _residual_spec(21, 3, top="dirac:10"))
        assert main(["erf", path, "--ratio-depth", "9"]) == 2

    def test_zero_width_at_ratio_depth_exits_2(self, tmp_path, capsys):
        # window-1 layers keep the probe a Dirac, so every width is 0
        layer = {"kind": "dense", "n_in": 5, "n_out": 5, "weights": "uniform:1"}
        doc = {"layers": [layer, layer], "top_capacity": "dirac:2"}
        path = _write_spec(tmp_path, "id.json", doc)
        assert main(["erf", path, "--ratio-depth", "1"]) == 2
        assert "width 1 layers below the probe is 0" in capsys.readouterr().err

    def test_nan_eps_exits_2(self, capsys):
        assert main(["erf", "--eps", "nan"]) == 2
        assert "eps must be positive, got nan" in capsys.readouterr().err

    def test_trajectory_past_memory_budget_exits_2(self, capsys):
        # 100,001 profiles of 100,001 cells would need 75 GiB
        assert main(["erf", "--n", "100001", "--L", "100000"]) == 2
        assert "2 GiB trajectory limit" in capsys.readouterr().err

    def test_walk_past_step_limit_exits_2(self, capsys):
        # its 1.9 GB trajectory is inside the 2 GiB budget; 8*10**7 steps are not
        assert main(["erf", "--n", "3", "--L", "80000000"]) == 2
        assert "walk limit of 10,000,000 steps" in capsys.readouterr().err

    def test_deep_report_written_in_bounded_memory(self, tmp_path):
        # the 1 MB report of the deep-erf benchmark; joined whole, its 9 MiB of
        # small strings put the traced peak at 11.5 MiB
        argv = ["erf", "--n", "401", "--L", "20000", "--D", "0.25", "--eps", "0.1"]
        argv += ["--ratio-depth", "5000", "--out", str(tmp_path / "erf.json")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    @pytest.mark.parametrize("depth", ["0", "101"])
    def test_generator_ratio_depth_out_of_range_exits_2(self, capsys, depth):
        assert main(["erf", "--L", "100", "--ratio-depth", depth]) == 2
        assert "ratio depth must be in [1, 100]" in capsys.readouterr().err

    def test_width_ratio_matches_a_separate_shallow_run(self, capsys):
        code, out = _run(capsys, ["erf", "--v", "0.4", "--ratio-depth", "30"])
        assert code == 0
        doc = json.loads(out)
        gen = ResidualGenerator(201, 0.4, 1.0)
        shallow = erf_profile(gen, 100, DeepLimitConfig(eps=0.1, L=30))
        assert doc["width_ratio"] == doc["per_depth_std"][-1][1] / shallow.per_depth_std[-1][1]

    def test_chain_width_ratio_matches_the_top_layers_alone(self, tmp_path, capsys):
        doc = _residual_spec(41, 12, top="dirac:20")
        for i, layer in enumerate(doc["layers"]):  # a different drift per layer
            layer["weights"] = f"residual:0.1,{0.05 * i - 0.3:.2f},1.0"
        path = _write_spec(tmp_path, "deep.json", doc)
        code, out = _run(capsys, ["erf", path, "--ratio-depth", "5"])
        assert code == 0
        full = json.loads(out)
        doc["layers"] = doc["layers"][-5:]
        code, out = _run(capsys, ["erf", _write_spec(tmp_path, "top.json", doc)])
        top = json.loads(out)
        assert full["width_ratio"] == full["per_depth_std"][-1][1] / top["per_depth_std"][-1][1]


class TestShatter:
    def test_uniform_closed_form(self, capsys):
        code, out = _run(capsys, ["shatter", "--uniform", "r=3", "L=5"])
        assert code == 0
        doc = json.loads(out)
        assert doc["uniform_weight"] == 1.0 / 243.0
        assert doc == {"L": 5, "r": 3, "uniform_weight": 1.0 / 243.0}

    def test_specfile_report(self, tmp_path, capsys):
        path = _write_spec(tmp_path, "deep.json", _residual_spec(21, 10, top="dirac:10"))
        code, out = _run(capsys, ["shatter", path, "--r", "3", "--eps", "0.1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["max_path_weight"] == pytest.approx(0.8**10, rel=1e-12)
        assert doc["uniform_weight"] == pytest.approx(3.0**-10, rel=1e-12)
        assert doc["L"] == 10

    def test_deep_dense_path_weight_underflows_to_zero(self, tmp_path, capsys):
        # 170 pseudo-random layers of width 96: the best stay-in-place weight is
        # below the smallest double, and reads 0
        layers = [
            {
                "kind": "dense",
                "n_in": 96,
                "n_out": 96,
                "activation": "pseudo_random",
                "weights": f"random_gaussian:{seed}",
            }
            for seed in range(170)
        ]
        path = _write_spec(tmp_path, "dense.json", {"layers": layers, "top_capacity": "uniform"})
        code, out = _run(capsys, ["shatter", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["max_path_weight"] == 0.0
        assert doc["continuum_estimate"] > 0.0
        assert doc["uniform_weight"] == 0.0

    def test_nan_eps_exits_2(self, tmp_path, capsys):
        path = _write_spec(tmp_path, "deep.json", _residual_spec(21, 2, top="dirac:10"))
        assert main(["shatter", path, "--eps", "nan"]) == 2
        assert "eps must be positive when given, got nan" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["inf", "1e400"])
    def test_infinite_eps_exits_2(self, tmp_path, capsys, eps):
        path = _write_spec(tmp_path, "deep.json", _residual_spec(21, 2, top="dirac:10"))
        assert main(["shatter", path, "--eps", eps]) == 2
        assert "eps must be finite when given, got inf" in capsys.readouterr().err

    def test_modes_are_exclusive(self, tmp_path, capsys):
        path = _write_spec(tmp_path, "deep.json", _residual_spec(21, 2, top="dirac:10"))
        assert main(["shatter", path, "--uniform", "r=2", "L=2"]) == 2
        assert main(["shatter"]) == 2

    @pytest.mark.parametrize("option, value", [("--eps", "nan"), ("--eps", "0.5"), ("--r", "9")])
    def test_uniform_refuses_r_and_eps(self, capsys, option, value):
        assert main(["shatter", "--uniform", "r=3", "L=5", option, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{option} cannot be combined with --uniform" in captured.err

    def test_malformed_uniform_tokens(self, capsys):
        assert main(["shatter", "--uniform", "r=x", "L=5"]) == 2
        assert main(["shatter", "--uniform", "r=3", "q=5"]) == 2


@pytest.mark.parametrize(
    "argv, report, extra",
    [
        (["pde"], ConvergenceReport, []),
        (["nu", "relu", "--mc", "20000"], DecouplingReport, []),
        (["erf"], ErfReport, []),
        (["erf", "--ratio-depth", "25"], ErfReport, ["ratio_depth", "width_ratio"]),
        (["shatter", "SPEC"], ShatterReport, []),
    ],
)
def test_printed_keys_are_the_report_fields(tmp_path, capsys, argv, report, extra):
    spec = _write_spec(tmp_path, "deep.json", _residual_spec(21, 3, top="dirac:10"))
    code, out = _run(capsys, [spec if arg == "SPEC" else arg for arg in argv])
    assert code == 0
    fields = [field.name for field in dataclasses.fields(report)]
    assert sorted(json.loads(out)) == sorted(fields + extra)


class TestVerify:
    def test_default_style_run_small(self, capsys):
        code, out = _run(capsys, ["verify", "--mc", "40000", "--seed", "3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["max_abs_dev"] <= 0.05
        assert len(doc["kappa_hat"]) == 8
        assert doc["stationarity_residual"] <= 1e-9

    def test_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["verify", "--mc", "20000", "--seed", "5", "--out"]
        assert main(argv + [str(out_a)]) == 0
        assert main(argv + [str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_bad_selector_exits_2(self, capsys):
        assert main(["verify", "--selector", "1,99", "--mc", "20000"]) == 2

    def test_reports_noise_floor(self, capsys):
        code, out = _run(capsys, ["verify", "--mc", "20000", "--seed", "4"])
        assert code == 0
        doc = json.loads(out)
        assert doc["stationarity_noise_floor"] > 0
        assert doc["stationarity_residual"] <= 4.0 * doc["stationarity_noise_floor"]

    def test_block_moments_past_budget_exit_2(self, capsys):
        # 8 blocks of (n*m) x k floats: 2.4 GiB at n = m = 400 and k = 256, refused
        # before allocating
        selector = ",".join(map(str, range(256)))
        argv = ["verify", "--n", "400", "--m", "400", "--selector", selector, "--mc", "20000"]
        assert main(argv) == 2
        assert "2 GiB oracle memory limit" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, limit",
    [
        (["nu", "relu", "--mc", "10000000000000"], "nu limit of 50,000,000"),
        (["verify", "--mc", "100000001"], "oracle limit of 100,000,000"),
        # one sample past the work limit at 64*64*64 + 65**2 moment entries a sample
        (
            ["verify", "--n", "64", "--m", "64", "--selector", ",".join(map(str, range(64)))]
            + ["--mc", "102490"],
            "oracle work limit of 27,300,000,000 sample-entries",
        ),
    ],
)
def test_sample_count_past_limit_exits_2_before_sampling(capsys, argv, limit):
    # nu used to die of a MemoryError, and verify to sample for as long as asked
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 2.0
    assert limit in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["erf", "--L", "3000", "--ratio-depth", "25"],
        ["chain", "SPEC"],
    ],
)
def test_stdout_and_out_file_hold_the_same_bytes(tmp_path, capsysbinary, argv):
    # reports large enough that the emitter writes them in many pieces
    spec = _write_spec(tmp_path, "deep.json", _residual_spec(201, 30))
    argv = [spec if arg == "SPEC" else arg for arg in argv]
    csv_args = ["--csv", str(tmp_path / "a.csv")] if argv[0] == "chain" else []
    assert main(argv + csv_args) == 0
    printed = capsysbinary.readouterr().out
    out = tmp_path / "out.json"
    csv_args = ["--csv", str(tmp_path / "b.csv")] if argv[0] == "chain" else []
    assert main(argv + ["--out", str(out)] + csv_args) == 0
    assert capsysbinary.readouterr().out == b""
    assert out.read_bytes() == printed
    assert printed.endswith(b"}\n") and printed.count(b"\n") > jsonfmt._FLUSH_PIECES
    if argv[0] == "chain":
        table = (tmp_path / "a.csv").read_bytes()
        assert (tmp_path / "b.csv").read_bytes() == table
        rows = [
            f"{layer},{coordinate},{float(kappa)!r}\n"
            for layer, profile in enumerate(json.loads(printed)["profiles"])
            for coordinate, kappa in enumerate(profile)
        ]
        assert table == ("layer,coordinate,kappa\n" + "".join(rows)).encode()


class TestLogging:
    def test_invalid_level_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("CAPNET_LOG", "chatty")
        assert main(["nu", "relu"]) == 2
        assert "CAPNET_LOG" in capsys.readouterr().err

    def test_info_level_logs_to_stderr(self, monkeypatch, capsys):
        monkeypatch.setenv("CAPNET_LOG", "info")
        assert main(["nu", "relu"]) == 0
        captured = capsys.readouterr()
        assert "decoupling scale" in captured.err
        assert json.loads(captured.out) == {"nu": 0.5}

    def test_quiet_by_default(self, monkeypatch, capsys):
        monkeypatch.delenv("CAPNET_LOG", raising=False)
        assert main(["nu", "relu"]) == 0
        assert "decoupling scale" not in capsys.readouterr().err


# Valid documents covering every layer kind and every top_capacity form.
_FUZZ_BASES = [
    {
        "layers": [
            {"kind": "dense", "n_in": 5, "n_out": 4, "weights": "random_gaussian:1",
             "activation": "pseudo_random"},
            {"kind": "differential", "n_in": 4, "n_out": 4, "weights": "random_gaussian:2",
             "activation": "pseudo_random", "eps": 0.3},
        ],
        "top_capacity": [1.0, 0.5, 0.0, 0.25],
    },
    {
        "layers": [
            {"kind": "residual", "n_in": 6, "n_out": 6, "weights": "residual:0.1,0.2,1.0"},
            {"kind": "dense", "n_in": 6, "n_out": 6, "weights": "uniform:3"},
        ],
        "top_capacity": "dirac:2",
    },
    {
        "layers": [{"kind": "differential", "n_in": 3, "n_out": 3, "eps": 2,
                    "weights": "random_gaussian:7"}],
        "top_capacity": "uniform",
    },
]

_ODD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 8),
    st.sampled_from([-(10**18), 2**31, 2**63, 10**18]),
    st.sampled_from([0.0, -0.0, 0.5, 1e-308, 1e308, -1e308, math.inf, -math.inf, math.nan]),
    st.sampled_from([
        "", "relu", "pseudo_random:nan", "leaky_relu:inf", "uniform", "uniform:0",
        "uniform:1000000000", "random_gaussian:-1", "random_gaussian:1e3",
        "random_gaussian:99999999999999999999", "residual:0.1,0,inf", "residual:nan,0,1",
        "residual:1e308,1e308,1e308", "residual:0.1,0", "dirac:-1", "dirac:99", "dirac:x",
    ]),
    # no "/": a weights path can only name a file in the working directory
    st.text(alphabet="abcdefxyz019:,.-_ ", max_size=12),
    st.lists(st.one_of(st.floats(allow_nan=True), st.integers(-2, 2), st.none()), max_size=6),
    st.builds(dict),
    st.builds(lambda: [[1.0, 2.0]]),
    st.builds(lambda: [{}]),
)


@st.composite
def _mutated_spec(draw):
    doc = copy.deepcopy(draw(st.sampled_from(_FUZZ_BASES)))
    for _ in range(draw(st.integers(1, 3))):
        layers = doc.get("layers")
        targets = [doc]
        if isinstance(layers, list):
            targets += [layer for layer in layers if isinstance(layer, dict)]
        target = draw(st.sampled_from(targets))
        keys = sorted(target) + ["kind", "eps", "activation", "extra"]
        key = draw(st.sampled_from(keys))
        if draw(st.booleans()) and key in target:
            del target[key]
        else:
            target[key] = draw(_ODD_VALUES)
    return doc


class TestSpecFuzz:
    @settings(max_examples=300, deadline=None)
    @given(_mutated_spec())
    def test_malformed_documents_raise_spec_errors(self, doc):
        try:
            parse_network_spec(doc)
        except (SpecError, StabilityError):
            pass
