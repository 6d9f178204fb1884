"""End-to-end tests of the command-line interface."""

import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import logging
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import capnet
from capnet import cli
from capnet.analyze import ErfReport, ShatterReport, erf_profile, shatter_analysis
from capnet.augment import DecouplingReport
from capnet.cli import (
    SpecError,
    _residual_stencil,
    _uniform_stencil,
    main,
    parse_network_spec,
)
from capnet.core import ProjectionMatrix, SpatialCapacity
from capnet.deeplimit import ConvergenceReport, DeepLimitConfig, ResidualGenerator, StabilityError
from capnet.jsonfmt import canonical_dumps
from capnet.propagate import (
    LayerChain,
    PropagationOperator,
    Stencil,
    differential_propagation_matrix,
    propagate_chain,
    propagation_matrix,
)


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
    done = _python(launcher, *argv)
    code, peak_kib = (int(word) for word in done.stdout.split())
    return code, done.stderr, peak_kib


def _python(script, *args):
    """``python -c script args``, run to a zero exit in a fresh process that imports this capnet."""
    src = os.path.dirname(os.path.dirname(capnet.__file__))
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )


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

    @pytest.mark.parametrize("sigma", ["nan", "inf", "-inf", "1e200", "1e-100"])
    @pytest.mark.parametrize("command", [["nu"], ["nu", "--mc", "2000"], ["verify", "--activation"]])
    def test_bad_sigma_exits_2(self, capsys, command, sigma):
        # such a sigma used to give "nu_hat": null, a traceback or a message about a matrix;
        # 1e-100 a "stderr" of 0 from squared products that underflow
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
        layer = {"kind": "dense", "n_in": 4, "n_out": 4, "weights": "random_gaussian:1",
                 "activation": "pseudo_random"}
        # room for three 4 x 4 operators and their profiles: the fourth layer is
        # refused before it is built
        monkeypatch.setattr("capnet.cli._SPEC_BUDGET_BYTES", 3 * (4 * 4 + 4) * 8)
        path = _write_spec(tmp_path, "four.json", {"layers": [layer] * 4, "top_capacity": "uniform"})
        assert main(["chain", path]) == 2
        err = capsys.readouterr().err
        assert "layer 3: its 4x4 operator and 4-float profile take the spec past" in err
        doc = {"layers": [layer] * 3, "top_capacity": "uniform"}
        assert main(["chain", _write_spec(tmp_path, "three.json", doc)]) == 0

    def test_huge_layer_refused_before_allocating(self, tmp_path, capsys):
        # 10^5 x 10^5 floats would need 75 GiB
        layer = {"kind": "dense", "n_in": 10**5, "n_out": 10**5, "weights": "random_gaussian:1",
                 "activation": "pseudo_random"}
        doc = {"layers": [layer], "top_capacity": "uniform"}
        assert main(["chain", _write_spec(tmp_path, "huge.json", doc)]) == 2
        assert "512 MiB spec memory limit" in capsys.readouterr().err

    def test_stencils_whose_profiles_pass_the_budget_refused_by_name(self, tmp_path, capsys):
        # each 2**20-cell interface keeps an 8 MiB profile: 63 of them and their
        # taps fit in 512 MiB, the 64th does not.  The taps alone would fit
        doc = _residual_spec(2**20, 64, top="uniform")
        assert main(["chain", _write_spec(tmp_path, "wide.json", doc)]) == 2
        assert capsys.readouterr().err == (
            "error: layer 63: its 3-tap stencil and 1048576-float profile take the spec "
            "past the 512 MiB spec memory limit\n"
        )

    def test_stencil_taps_past_the_walk_limit_refused_by_name(self, tmp_path, capsys):
        # each window sums 150,000 taps at 150,000 cells, 2.25e10 terms a pass
        layer = {"kind": "dense", "n_in": 150_000, "n_out": 150_000, "weights": "uniform:150000"}
        doc = {"layers": [layer, layer], "top_capacity": "uniform"}
        assert main(["chain", _write_spec(tmp_path, "wide.json", doc)]) == 2
        assert capsys.readouterr().err == (
            "error: layer 1: its 150000 taps on 150000 cells take the spec's stencils "
            "past 30,000,000,000 cell-taps a pass\n"
        )

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"weights": "random_gaussian:3", "activation": "pseudo_random"},
             "dense layers take no eps"),
            ({"kind": "residual", "weights": "residual:0.1,0,1"}, "residual weights take no eps"),
            ({"weights": "uniform:3"}, "uniform weights take no eps"),
            ({"kind": "residual", "weights": "uniform:3"}, "uniform weights take no eps"),
        ],
    )
    def test_eps_on_a_layer_that_does_not_read_it_exits_2(self, tmp_path, capsys, fields, message):
        # the eps was ignored, and the spec exited 0
        good = {"kind": "dense", "n_in": 4, "n_out": 4, "weights": "uniform:1"}
        doc = {"layers": [good, dict(good, eps=0.3, **fields)], "top_capacity": "uniform"}
        assert main(["chain", _write_spec(tmp_path, "eps.json", doc)]) == 2
        assert capsys.readouterr().err == f"error: layer 1: {message}\n"

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

    @pytest.mark.parametrize(
        "top, message",
        [
            (["0.5", "0.5"], "top_capacity entry 0 must be a number, got '0.5'"),
            ([True, False], "top_capacity entry 0 must be a number, got True"),
            ([0.5, None], "top_capacity entry 1 must be a number, got None"),
            ([0.5, [0.5]], "top_capacity entry 1 must be a number, got [0.5]"),
            ([10**400, 0], "bad top_capacity: int too large to convert to float"),
        ],
    )
    def test_top_capacity_entries_must_be_numbers(self, tmp_path, capsys, top, message):
        # strings and booleans were read as numbers through np.asarray, and an
        # integer past the float range escaped as an OverflowError
        doc = {"layers": [{"kind": "dense", "n_in": 2, "n_out": 2, "weights": "uniform:1"}],
               "top_capacity": top}
        assert main(["chain", _write_spec(tmp_path, "top.json", doc)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["chain", "erf"])
    def test_top_capacity_total_past_float_range_exits_2(self, tmp_path, capsys, command):
        # chain warned of an overflow in the layer's product and blamed non-finite entries
        doc = {
            "layers": [{"kind": "dense", "n_in": 1, "n_out": 2, "activation": "pseudo_random",
                        "weights": "random_gaussian:0"}],
            "top_capacity": [1e308, 1e308],
        }
        assert main([command, _write_spec(tmp_path, "big.json", doc)]) == 2
        assert "bad top_capacity: spatial capacity total overflows" in capsys.readouterr().err

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


def _every_kind_spec(tmp_path):
    """A square spec of width 6 with every kind of layer and a weights file."""
    weights = tmp_path / "w.csv"
    rows = (",".join(str((3 * i + j) % 7 - 3) for j in range(6)) for i in range(6))
    weights.write_text("\n".join(rows))
    layers = [
        {"kind": "dense", "weights": "random_gaussian:11", "activation": "pseudo_random"},
        {"kind": "differential", "weights": "random_gaussian:12", "eps": 0.3},
        {"kind": "residual", "weights": "residual:0.1,0.2,1.0"},
        {"kind": "dense", "weights": "uniform:3"},
        {"kind": "dense", "weights": str(weights), "activation": "pseudo_random"},
        {"kind": "residual", "weights": "uniform:5"},
    ]
    doc = {"layers": [dict(layer, n_in=6, n_out=6) for layer in layers], "top_capacity": "dirac:2"}
    return _write_spec(tmp_path, "spec.json", doc), str(weights)


def _every_kind_chain(weights):
    """The chain of ``_every_kind_spec``, built by hand from the library."""
    def drawn(seed):
        return ProjectionMatrix.from_raw(np.random.default_rng(seed).standard_normal((6, 6)))

    loaded = ProjectionMatrix.from_raw(np.loadtxt(weights, delimiter=",", ndmin=2))
    return LayerChain([
        propagation_matrix(drawn(11)),
        differential_propagation_matrix(drawn(12), 0.3),
        _residual_stencil(ResidualGenerator(6, 0.2, 1.0), 0.1),
        _uniform_stencil(6, 3),
        propagation_matrix(loaded),
        _uniform_stencil(6, 5),
    ])


class TestSpecLayersBuiltOnDemand:
    """A spec's chain builds each operator when a pass reaches it, top layer first."""

    def test_outputs_match_a_hand_built_chain(self, tmp_path, capsys):
        path, weights = _every_kind_spec(tmp_path)
        chain = _every_kind_chain(weights)
        profiles = propagate_chain(chain, SpatialCapacity.dirac(6, 2))
        csv_path = tmp_path / "out.csv"
        code, out = _run(capsys, ["chain", path, "--csv", str(csv_path)])
        assert code == 0
        report = json.loads(out)
        assert report["profiles"] == [p.values.tolist() for p in profiles]
        assert report["totals"] == [p.total for p in profiles]
        rows = [
            f"{layer},{i},{kappa!r}"
            for layer, profile in enumerate(profiles)
            for i, kappa in enumerate(profile.values.tolist())
        ]
        assert csv_path.read_text() == "\n".join(["layer,coordinate,kappa"] + rows) + "\n"
        for argv, expected in (
            (["shatter", path, "--r", "3"], shatter_analysis(chain, 3)),
            (["erf", path, "--probe", "2"], erf_profile(chain, 2)),
        ):
            code, out = _run(capsys, argv)
            assert (code, out) == (0, canonical_dumps(expected) + "\n")

    @pytest.mark.parametrize("command", ["chain", "shatter", "erf"])
    def test_each_layer_built_once_per_command(self, tmp_path, capsys, monkeypatch, command):
        # every layer kind makes exactly one operator or stencil when it is built
        path, _ = _every_kind_spec(tmp_path)
        built = []
        for kind in (PropagationOperator, Stencil):
            def counted(op, post_init=kind.__post_init__):
                post_init(op)
                built.append((type(op), op.n_in, op.n_out))

            monkeypatch.setattr(kind, "__post_init__", counted)
        spec = cli.load_network_spec(path)
        assert built == []
        assert main([command, path]) == 0
        # top layer first: a uniform window, the weights file, a window, the residual layer, ...
        kinds = [Stencil, PropagationOperator, Stencil, Stencil] + [PropagationOperator] * 2
        assert built == [(kind, 6, 6) for kind in kinds]
        assert len(built) == len(spec.chain)

    def test_chain_traced_peak_flat_in_depth(self, tmp_path):
        # 400 dense layers of width 64 held every 32 KiB operator at once: the traced
        # peak grew by 13.3 MiB over 50 layers.  Now each extra layer adds its 512 B
        # profile, its document entry and its description, about 1.5 KiB in all
        def spec(depth):
            layer = {"kind": "dense", "n_in": 64, "n_out": 64, "activation": "pseudo_random"}
            layers = [dict(layer, weights=f"random_gaussian:{i}") for i in range(depth)]
            doc = {"layers": layers, "top_capacity": "uniform"}
            return _write_spec(tmp_path, f"{depth}.json", doc)

        def traced_peak(path):
            argv = ["chain", path, "--out", str(tmp_path / "o.json")]
            argv += ["--csv", str(tmp_path / "o.csv")]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        shallow, deep = spec(50), spec(400)
        assert main(["chain", shallow, "--out", str(tmp_path / "o.json")]) == 0  # warm up
        growth = traced_peak(deep) - traced_peak(shallow)
        assert growth <= 64 * 64 * 8 + 350 * 4096

    @pytest.mark.parametrize("command", ["chain", "shatter", "erf"])
    def test_build_time_refusal_names_the_layer_and_writes_nothing(
        self, tmp_path, capsys, command
    ):
        path, weights = _every_kind_spec(tmp_path)
        os.remove(weights)
        assert main([command, path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: layer 4: cannot read weights file {weights!r}\n"

    @pytest.mark.parametrize(
        "option, message",
        [
            (["--eps", "-1"], "eps must be positive when given, got -1.0"),
            (["--r", "0"], "r and L must be positive integers"),
        ],
        ids=["eps", "r"],
    )
    def test_shatter_options_checked_before_any_layer_is_built(
        self, tmp_path, capsys, monkeypatch, option, message
    ):
        # the spec also has a build-time fault, which the option's check must come before
        path, weights = _every_kind_spec(tmp_path)
        os.remove(weights)
        built = []
        for kind in (PropagationOperator, Stencil):
            monkeypatch.setattr(kind, "__post_init__", built.append)
        assert main(["shatter", path] + option) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert built == []


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
    used = {cli._parse_args(words[1:]).command for words in lines if words[:1] == ["capnet"]}
    expected = {"nu", "chain", "pde", "erf", "shatter", "verify"}
    assert set(cli._COMMANDS) == expected
    assert used == expected


_WALK_FLAGS = ["--n", "--eps", "--L", "--D", "--v", "--boundary", "--probe"]
_OPTIONS_OF = {
    "nu": ["--mc", "--seed", "--out"],
    "chain": ["--out", "--csv"],
    "pde": _WALK_FLAGS + ["--refinements", "--out"],
    "erf": _WALK_FLAGS + ["--ratio-depth", "--out"],
    "shatter": ["--uniform", "--r", "--eps", "--out"],
    "verify": ["--n", "--m", "--selector", "--activation", "--mc", "--seed", "--out"],
}


@pytest.mark.parametrize(
    "argv, named",
    [
        ([], "command"),
        (["propagate"], "'propagate'"),
        (["pde", "--bogus", "1"], "--bogus"),
        (["pde", "--ref", "1"], "--ref"),  # an abbreviation of --refinements
        (["pde", "--out"], "--out"),
        (["chain", "net.json", "--out", "--csv", "x"], "--out"),
        (["pde", "--n", "5.0"], "--n"),
        (["erf", "--eps=0.1x"], "--eps"),
        (["pde", "--boundary", "sideways"], "--boundary"),
        (["chain"], "specfile"),
        (["nu", "relu", "extra"], "extra"),
        (["shatter", "--uniform", "r=3"], "--uniform"),
        (["shatter", "--uniform", "r=3", "--out", "x"], "--uniform"),
    ],
    ids=[
        "no-command", "unknown-command", "unknown-option", "abbreviation", "value-missing-at-end",
        "value-followed-by-option", "malformed-int", "malformed-float", "bad-choice",
        "missing-positional", "extra-positional", "one-uniform-value", "uniform-value-then-option",
    ],
)
def test_usage_errors_exit_2_naming_the_argument(capsys, argv, named):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    (line,) = [line for line in err.splitlines() if line.startswith("capnet: error: ")]
    assert out == "" and named in line


@pytest.mark.parametrize(
    "argv",
    [["-h"], ["--help"]] + [[command, "-h"] for command in _OPTIONS_OF] + [["nu", "relu", "--help"]],
)
def test_help_lists_every_option_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    listed = _OPTIONS_OF.get(argv[0], list(_OPTIONS_OF)) + ["-h, --help"]
    assert err == "" and all(re.search(rf"^  {re.escape(name)}\b", out, re.M) for name in listed)


def test_options_parse_in_any_order_and_either_spelling():
    args = cli._parse_args(["erf", "--v=-0.3", "net.json", "--ratio-depth", "5", "--L", "-2"])
    assert (args.command, args.specfile, args.v, args.ratio_depth, args.L) == (
        "erf", "net.json", -0.3, 5, -2
    )
    assert args.handler is cli.cmd_erf
    assert (args.n, args.eps, args.D, args.boundary, args.probe, args.out) == (None,) * 6
    args = cli._parse_args(["shatter", "--out", "o.json", "--uniform", "r=3", "L=4"])
    assert (args.specfile, args.uniform, args.r, args.eps) == (None, ["r=3", "L=4"], None, None)
    args = cli._parse_args(["verify", "--seed=3", "--selector=-1,2"])  # no number, so "="
    assert (args.seed, args.selector, args.n, args.mc) == (3, "-1,2", 8, 160000)


def test_command_lines_load_no_argparse(tmp_path):
    # argparse built 8 parsers of 38 arguments before each command, and its first
    # gettext lookup imported locale
    spec = _write_spec(tmp_path, "stencils.json", _STENCIL_SPEC)
    out = str(tmp_path / "out")
    argvs = [
        ["nu", "relu"],
        ["chain", spec],
        ["pde", "--n", "21", "--L", "10", "--refinements", "0"],
        ["erf", "--n", "21", "--L", "10"],
        ["shatter", "--uniform", "r=3", "L=4"],
        ["verify", "--n", "3", "--m", "3", "--selector", "0,1", "--mc", "1000"],
    ]
    script = (
        "import json, sys\n"
        "from capnet.cli import main\n"
        "codes = [main(argv + ['--out', sys.argv[2]]) for argv in json.loads(sys.argv[1])]\n"
        "print(codes, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
    )
    assert _python(script, json.dumps(argvs), out).stdout == "[0, 0, 0, 0, 0, 0] []\n"


_STENCIL_SPEC = {
    "layers": [
        {"kind": "residual", "n_in": 21, "n_out": 21, "weights": "residual:0.1,0.2,1.0"},
        {"kind": "dense", "n_in": 21, "n_out": 21, "weights": "uniform:3"},
    ],
    "top_capacity": "dirac:10",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["pde"],
        ["erf", "--L", "50"],
        ["nu", "relu"],
        ["shatter", "--uniform", "r=3", "L=4"],
        ["chain", "SPEC"],
        ["shatter", "SPEC"],
    ],
    ids=["pde", "erf", "nu", "shatter-uniform", "chain-stencils", "shatter-stencils"],
)
def test_commands_that_draw_nothing_load_neither_openssl_nor_numpy_random(tmp_path, argv):
    # hashlib maps OpenSSL's libcrypto, about 3.5 MiB a process, and numpy.random imports
    # it through secrets; chain hashes its spec with the built-in SHA-256 instead
    spec = _write_spec(tmp_path, "stencils.json", _STENCIL_SPEC)
    argv = [spec if arg == "SPEC" else arg for arg in argv] + ["--out", str(tmp_path / "out")]
    script = (
        "import sys\n"
        "from capnet.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, sorted({'_hashlib', 'numpy.random'} & set(sys.modules)))\n"
    )
    assert _python(script, *argv).stdout == "0 []\n"


_HASHED_DOCUMENTS = [
    _STENCIL_SPEC,
    _residual_spec(21, 2, top="uniform"),
    {
        "layers": [
            {"kind": "dense", "n_in": 2, "n_out": 3, "weights": "random_gaussian:5",
             "activation": "pseudo_random"},
            {"kind": "differential", "n_in": 3, "n_out": 3, "weights": "wéights ☃.csv",
             "eps": 0.25},
        ],
        "top_capacity": [0.5, 1e-300, 2.0],
    },
]


@pytest.mark.parametrize("doc", _HASHED_DOCUMENTS, ids=["stencils", "residual", "dense-unicode"])
def test_spec_hash_is_the_sha256_of_the_canonical_document(doc):
    expected = hashlib.sha256(canonical_dumps(doc).encode()).hexdigest()
    assert parse_network_spec(doc).spec_hash() == expected


def test_spec_hash_falls_back_to_hashlib_without_the_built_in_module():
    # None in sys.modules makes an import fail, as on a build without the built-in hashes
    doc = _HASHED_DOCUMENTS[-1]
    script = (
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "import hashlib, json\n"
        "from capnet import cli\n"
        "print(cli.sha256 is hashlib.sha256)\n"
        "print(cli.parse_network_spec(json.loads(sys.argv[1])).spec_hash())\n"
    )
    expected = hashlib.sha256(canonical_dumps(doc).encode()).hexdigest()
    assert _python(script, json.dumps(doc)).stdout == f"True\n{expected}\n"


@pytest.mark.parametrize(
    "argv", [["pde", "--eps", "inf"], ["erf", "--eps", "inf"], ["chain", "SPEC"]],
    ids=["pde", "erf", "residual-spec"],
)
def test_infinite_eps_exits_2_as_not_finite(tmp_path, capsys, argv):
    # each exited 1 and named the stability bound; a NaN eps already exited 2
    spec = _write_spec(tmp_path, "inf.json", _residual_spec(11, 1, eps="inf", top="uniform"))
    assert main([spec if arg == "SPEC" else arg for arg in argv]) == 2
    assert "eps must be finite, got inf" in capsys.readouterr().err


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

    @pytest.mark.parametrize(
        "argv", [["--D", "1e-305", "--eps", "0.1", "--L", "10"], ["--D", "1e-320"]]
    )
    def test_tiny_diffusion_refused_naming_width_and_limit(self, capsys, argv):
        # the closed form's kernel printed "overflow encountered in divide"; then the run
        # exited 0 and called relative errors of 1 at every level a convergence study
        code = main(["pde"] + argv)
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert "the closed form's std is" in err and "below the limit of 0.25 cells" in err
        assert "Warning" not in err

    def test_diffusion_underflowing_to_zero_exits_2_by_name(self, capsys):
        # D*eps*L underflowed to 0 and was refused as "Dcoef must be positive"
        assert main(["pde", "--D", "1e-200", "--eps", "1e-200", "--L", "1"]) == 2
        assert "Dcoef*eps*L = 1e-200*1e-200*1 underflows to 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pde", "erf"])
    def test_grid_past_two_profiles_exits_2_before_the_probe(self, capsys, command):
        # the probe of 2**45 cells died of numpy's MemoryError, with a traceback
        assert main([command, "--n", str(2**45)]) == 2
        assert "holds two profiles, past the 2 GiB trajectory limit" in capsys.readouterr().err

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
        # about 7 minutes of stepping at some 4 us a step
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
    def test_walk_past_trajectory_limit_exits_2_before_the_widths(self, capsys):
        # the 2**40 + 1 widths died of numpy's MemoryError before the walk was checked
        assert main(["erf", "--L", str(2**40)]) == 2
        assert "1099511627777 profiles of 201 cells need" in capsys.readouterr().err

    def test_long_walk_report_held_as_an_array(self, tmp_path):
        # 200,001 widths at 16 bytes each; as (int, float) tuples they took some 146
        # bytes each and the run peaked at about 68 MiB
        out = tmp_path / "erf.json"
        code, _, peak_kib = _peak_rss(["erf", "--n", "3", "--L", "200000", "--out", str(out)])
        assert code == 0
        assert peak_kib <= 50 * 1024

    def test_long_fit_logged_in_bounded_memory(self, tmp_path):
        # 199,981 fit points; their logs went through two lists of one Python
        # number each, and the run peaked at about 57 MiB
        out = tmp_path / "erf.json"
        code, _, peak_kib = _peak_rss(["erf", "--n", "201", "--L", "200000", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["fit_points"] > 199000
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

    @pytest.mark.parametrize("probe", ["201", "-1"])
    def test_probe_out_of_range_exits_2_by_the_option(self, tmp_path, capsys, monkeypatch, probe):
        # the walk's range error named x0, erf_profile's argument, and not --probe
        assert main(["erf", "--probe", probe]) == 2
        assert f"--probe: dirac index {probe} out of range [0, 201)" in capsys.readouterr().err
        path = _write_spec(tmp_path, "deep.json", _residual_spec(201, 5))
        calls = []
        monkeypatch.setattr(cli, "erf_profile", lambda *args: calls.append(args))
        assert main(["erf", path, "--probe", probe]) == 2
        assert not calls
        assert f"--probe: dirac index {probe} out of range [0, 201)" in capsys.readouterr().err

    def test_wide_residual_spec_is_the_walk_bit_for_bit(self, tmp_path, capsys):
        # 100 dense 100,001-cell layers were refused at layer 0; as stencils each
        # sums the walk's terms in the walk's order, while no mass reaches an edge
        path = _write_spec(tmp_path, "wide.json", _residual_spec(100_001, 100, 0.1, 0.2, 1.0))
        code, out = _run(capsys, ["erf", path])
        assert code == 0
        spec = json.loads(out)
        argv = ["erf", "--n", "100001", "--L", "100", "--eps", "0.1", "--v", "0.2", "--D", "1"]
        code, out = _run(capsys, argv)
        assert code == 0
        walk = json.loads(out)
        assert spec["per_depth_std"] == walk["per_depth_std"]
        assert spec == walk

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

    @pytest.mark.parametrize("selector", ["", "1,,2", "1,x"])
    def test_malformed_selector_named_and_quoted(self, capsys, selector):
        # each exited 2 with "invalid literal for int() with base 10", naming neither
        assert main(["verify", "--selector", selector, "--mc", "1000"]) == 2
        err = capsys.readouterr().err
        assert f"--selector must be comma-separated integers, got {selector!r}" in err

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

    def test_kappa_theory_is_the_one_layer_chain_profile(self, tmp_path):
        # verify kept its own sum of p_ij**2, which chain's P o P rounded apart from
        rng = np.random.default_rng(21)
        for case in range(12):
            n, m = (int(size) for size in rng.integers(1, 13, size=2))
            selector = sorted(rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False))
            seed = int(rng.integers(2**31))
            layer = {"kind": "dense", "n_in": n, "n_out": m, "activation": "pseudo_random",
                     "weights": f"random_gaussian:{seed}"}
            top = [1.0 if j in selector else 0.0 for j in range(m)]
            spec = _write_spec(tmp_path, "one.json", {"layers": [layer], "top_capacity": top})
            verify, chain = tmp_path / "verify.json", tmp_path / "chain.json"
            argv = ["verify", "--n", str(n), "--m", str(m), "--seed", str(seed), "--mc", "1000",
                    "--selector", ",".join(map(str, selector)), "--out", str(verify)]
            assert main(argv) == 0
            assert main(["chain", spec, "--out", str(chain)]) == 0
            profile = json.loads(chain.read_text())["profiles"][0]
            assert json.loads(verify.read_text())["kappa_theory"] == profile, (n, m, selector)

    def test_layer_past_operator_limit_exits_2_before_drawing(self, capsys):
        # the 2**45 x 4 weights once died of numpy's MemoryError, with a traceback
        argv = ["verify", "--n", str(2**45), "--m", "4", "--selector", "0", "--mc", "1000"]
        assert main(argv) == 2
        assert "512 MiB operator limit" in capsys.readouterr().err

    def test_layer_of_no_rows_exits_2_before_its_norms(self, capsys):
        # n = 0 passed the operator limit, and the 2**45 column norms died of a MemoryError
        argv = ["verify", "--n", "0", "--m", str(2**45), "--selector", "0", "--mc", "1000"]
        assert main(argv) == 2
        assert "projection has no rows" in capsys.readouterr().err

    def test_layer_of_no_columns_exits_2_before_its_column_keys(self, capsys):
        # m = 0 passed the operator limit, and keying the empty columns by 2**48 bytes
        # raised numpy's TypeError, with a traceback
        argv = ["verify", "--n", str(2**45), "--m", "0", "--selector", "0", "--mc", "1000"]
        assert main(argv) == 2
        assert "projection has no columns" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["verify", "--mc", "1000"], ["nu", "relu", "--mc", "1000"]])
def test_negative_seed_refused_by_name(capsys, argv):
    # numpy refused it with "expected non-negative integer", which names no option
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "-1"])
    assert exc.value.code == 2
    assert "argument --seed: must be non-negative, got -1" in capsys.readouterr().err


_VERIFY_EXTREMES = ["0", "-1", "nan", "inf", "-inf", "1e308", str(2**63), str(2**45)]
_VERIFY_ACTIVATIONS = [
    "pseudo_random", "pseudo_random:2.5", "relu", "linear", "abs", "leaky_relu:0.1",
]

# each verify option's extreme and malformed values
_VERIFY_ODD = {
    "--n": st.sampled_from(_VERIFY_EXTREMES),
    "--m": st.sampled_from(_VERIFY_EXTREMES),
    "--selector": st.lists(
        st.one_of(st.integers(-2, 8).map(str), st.sampled_from(_VERIFY_EXTREMES + [""])),
        min_size=1,
        max_size=4,
    ).map(",".join),
    "--mc": st.sampled_from(_VERIFY_EXTREMES + ["999"]),
    "--seed": st.sampled_from(_VERIFY_EXTREMES),
    "--activation": st.one_of(
        st.sampled_from(["tanh", "", "relu:1", "leaky_relu"]),
        st.builds(
            "{}:{}".format,
            st.sampled_from(["pseudo_random", "leaky_relu"]),
            st.sampled_from(_VERIFY_EXTREMES + ["1e-200", "1e200", "5e-324", "x"]),
        ),
    ),
}


@st.composite
def _verify_argv(draw):
    """verify options, a few of them extreme; accepted runs are small and take milliseconds."""
    m = draw(st.integers(1, 6))
    selector = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True))
    usual = {
        "--n": draw(st.integers(2, 6)),
        "--m": m,
        "--selector": ",".join(map(str, selector)),
        "--mc": draw(st.integers(1000, 3000)),
        "--seed": draw(st.integers(0, 2**64)),
        "--activation": draw(st.sampled_from(_VERIFY_ACTIVATIONS)),
    }
    extreme = draw(st.lists(st.sampled_from(sorted(usual)), max_size=3, unique=True))
    argv = ["verify"]
    for option, value in usual.items():
        argv += [option, draw(_VERIFY_ODD[option]) if option in extreme else str(value)]
    return argv


def _leaves(doc):
    if isinstance(doc, dict):
        return [leaf for value in doc.values() for leaf in _leaves(value)]
    if isinstance(doc, list):
        return [leaf for value in doc for leaf in _leaves(value)]
    return [doc]


def _drawn_run(argv, nullable=()):
    """Exit code and seconds of ``capnet argv --out FILE``, run in process.

    Checks what every drawn run must meet: exit 0, 1 or 2, no traceback, no
    warning, no thread left behind, and on exit 0 only finite numbers written,
    apart from the top-level keys in ``nullable``, which may also be null.
    """
    threads = threading.active_count()
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as workdir:
        out = os.path.join(workdir, "out.json")
        start = time.perf_counter()
        with contextlib.redirect_stderr(err):
            try:
                code = main(argv + ["--out", out])
            except SystemExit as exc:  # the parser refuses a malformed number
                code = exc.code
        elapsed = time.perf_counter() - start
        event(f"exit {code}")
        if code == 0:
            with open(out) as handle:
                doc = json.load(handle)
            leaves = _leaves({k: v for k, v in doc.items() if not (k in nullable and v is None)})
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
    assert threading.active_count() == threads
    if code == 0:
        # jsonfmt writes a non-finite float as null
        numbers = [leaf for leaf in leaves if not isinstance(leaf, (str, bool))]
        assert numbers and all(type(x) in (int, float) and math.isfinite(x) for x in numbers)
    return code, elapsed


class TestVerifyFuzz:
    @settings(max_examples=200, deadline=None)
    @given(_verify_argv())
    def test_drawn_options_finish_or_are_refused(self, argv):
        code, elapsed = _drawn_run(argv)
        if code != 0:
            assert elapsed < 1.0


_FUZZ_EXTREMES = ["0", "-1", "nan", "inf", "-inf", "1e-300", "1e308", str(2**63)]


def _number(small):
    """A usual integer from ``small`` or one of the extreme values, as a string."""
    return st.one_of(small.map(str), st.sampled_from(_FUZZ_EXTREMES))


@st.composite
def _nu_argv(draw):
    """nu on a drawn activation, with or without --mc and --seed; --mc stays small."""
    activation = draw(
        st.one_of(
            st.sampled_from(_VERIFY_ACTIVATIONS + ["tanh", "", "relu:1"]),
            st.builds(
                "{}:{}".format,
                st.sampled_from(["pseudo_random", "leaky_relu"]),
                st.sampled_from(_FUZZ_EXTREMES + ["1e-100", "1e-200", "1e200", "5e-324", "x"]),
            ),
        )
    )
    argv = ["nu", activation]
    if draw(st.booleans()):
        argv += ["--mc", draw(_number(st.integers(999, 5000)))]
    if draw(st.booleans()):
        argv += ["--seed", draw(_number(st.integers(0, 2**64)))]
    return argv


@st.composite
def _uniform_argv(draw):
    """shatter --uniform on a drawn window and depth, deep ones included."""
    r = draw(_number(st.integers(1, 60)))
    depth = draw(_number(st.one_of(st.integers(1, 2000), st.sampled_from([10**7, 3 * 10**7]))))
    return ["shatter", "--uniform", f"r={r}", f"L={depth}"]


class TestNuAndUniformShatterFuzz:
    # shatter --uniform r=3 L=30000000 took 25 s to print 0; the sigma used to give "stderr": 0
    @example(["shatter", "--uniform", "r=3", "L=30000000"])
    @example(["nu", "pseudo_random:1e-100", "--mc", "1000"])
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_nu_argv(), _uniform_argv()))
    def test_drawn_options_finish_within_a_second(self, argv):
        _, elapsed = _drawn_run(argv)
        assert elapsed < 1.0


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


def test_verify_whose_short_chunks_pad_a_wide_qr_exits_2_within_a_second(capsys):
    # 125-row jackknife blocks, each padded to a 4,001-row slab and merged by a QR of
    # 8,002 rows: this ran for minutes near 1 GiB of RSS before the limit counted it
    start = time.perf_counter()
    assert main(["verify", "--n", "2", "--m", "4000", "--selector", "0", "--mc", "1000"]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "streamed QR" in err and "oracle work limit of 27,300,000,000 sample-entries" in err


@pytest.mark.parametrize(
    "argv",
    [["pde", "--n", "51", "--L", "5", "--refinements", "0"], ["erf", "--n", "51", "--L", "50"]],
)
def test_pde_and_erf_leave_numpy_random_unimported(tmp_path, argv):
    # neither command draws, and importing numpy.random costs 13-14 ms and 6 MiB of RSS
    script = (
        "import sys\n"
        "from capnet.cli import main\n"
        "print(main(sys.argv[1:]), 'numpy.random' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(capnet.__file__))
    done = subprocess.run(
        [sys.executable, "-c", script] + argv + ["--out", str(tmp_path / "out.json")],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.split() == ["0", "False"]


@pytest.mark.parametrize(
    "argv",
    [
        ["erf", "--L", "3000", "--ratio-depth", "25"],
        ["chain", "SPEC"],
    ],
)
def test_stdout_and_out_file_hold_the_same_bytes(tmp_path, capsysbinary, argv):
    # reports of more than 4,096 lines, which the emitter writes in many pieces
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
    assert printed.endswith(b"}\n") and printed.count(b"\n") > 4096
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

    def test_host_logging_kept_and_handlers_not_stacked(self, monkeypatch, capsys):
        # basicConfig(force=True) dropped the host's root handlers and reset the root level
        root, host = logging.getLogger(), logging.StreamHandler(io.StringIO())
        level = root.level
        root.addHandler(host)
        root.setLevel(logging.ERROR)
        monkeypatch.setenv("CAPNET_LOG", "info")
        try:
            for _ in range(3):
                assert main(["nu", "relu", "--out", os.devnull]) == 0
            assert host in root.handlers and root.level == logging.ERROR
            logging.getLogger("app").error("host message")
        finally:
            root.removeHandler(host)
            root.setLevel(level)
        err = capsys.readouterr().err
        assert err == "INFO capnet: decoupling scale for relu\n" * 3
        assert host.stream.getvalue() == "host message\n"

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
        # every operator is built too, for the refusals that need a layer's matrix
        try:
            for _ in parse_network_spec(doc).chain.top_down():
                pass
        except (SpecError, StabilityError):
            pass


# the extremes, tiny floats whose products underflow, and a size too big to allocate
_ODD_NUMBERS = st.sampled_from(
    _FUZZ_EXTREMES + ["1e-200", "1e-305", "1e-320", "5e-324", str(2**45)]
)
_WALK_OPTIONS = {
    "--n": st.integers(3, 61),
    "--eps": st.floats(0.01, 0.5),
    "--L": st.integers(1, 100),
    "--D": st.floats(0.05, 2.0),
    "--v": st.floats(-1.0, 1.0),
    "--boundary": st.sampled_from(["periodic", "reflecting"]),
    "--probe": st.integers(0, 60),
}


@st.composite
def _walk_argv(draw, command, extra):
    """``command`` on drawn walk options and ``extra``, each given or left to its default.

    Up to three options take an odd value instead; a run on usual values
    steps at most a few hundred cells a few hundred times.
    """
    options = dict(_WALK_OPTIONS, **extra)
    extreme = draw(st.lists(st.sampled_from(sorted(options)), max_size=3, unique=True))
    argv = [command]
    for option, usual in options.items():
        if option in extreme:
            argv += [option, draw(_ODD_NUMBERS)]
        elif draw(st.booleans()):
            argv += [option, str(draw(usual))]
    return argv


def _mostly(draw, usual, odd):
    """A draw from ``usual``, or one time in four from ``odd``."""
    return draw(odd if draw(st.integers(0, 3)) == 0 else usual)


@st.composite
def _drawn_spec(draw):
    """A spec of 1-4 layers no wider than 8, of every kind, with odd numbers in a few places."""
    widths = [draw(st.integers(1, 8))]  # widths[l] and widths[l + 1] are layer l's n_in and n_out
    layers = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["dense", "differential", "residual", "uniform"]))
        if kind == "dense":
            widths.append(draw(st.integers(1, 8)))
        else:
            widths[-1] = max(widths[-1], 3)
            widths.append(widths[-1])
        layer = {"kind": kind}
        if kind in ("dense", "differential"):
            layer["activation"] = "pseudo_random"
            layer["weights"] = f"random_gaussian:{draw(st.integers(0, 2**32))}"
        if kind == "differential":
            layer["eps"] = float(_mostly(draw, st.floats(0.01, 2.0).map(repr), _ODD_NUMBERS))
        elif kind == "residual":
            usual = (st.floats(0.01, 0.2), st.floats(-0.5, 0.5), st.floats(0.5, 1.5))
            parts = [_mostly(draw, part.map(repr), _ODD_NUMBERS) for part in usual]
            layer["weights"] = "residual:" + ",".join(parts)
        elif kind == "uniform":
            layer["kind"] = draw(st.sampled_from(["dense", "residual"]))
            layer["weights"] = f"uniform:{draw(st.integers(1, widths[-1]))}"
        layers.append(layer)
    for layer, n_in, n_out in zip(layers, widths, widths[1:]):
        layer.update(n_in=n_in, n_out=n_out)
    if draw(st.booleans()):
        top = draw(st.sampled_from(["uniform", "dirac:0", f"dirac:{widths[-1] - 1}"]))
    else:
        odd_mass = st.sampled_from([1e308, 1e300, 5e-324, 1e-300])
        top = [_mostly(draw, st.floats(0.0, 2.0), odd_mass) for _ in range(widths[-1])]
    return {"layers": layers, "top_capacity": top}


@st.composite
def _spec_argv(draw):
    """chain or erf on a drawn spec, or on a mutated one, with their own options."""
    doc = draw(st.one_of(_drawn_spec(), _mutated_spec()))
    command = draw(st.sampled_from(["chain", "erf"]))
    argv = [command, "SPEC"]
    if command == "chain" and draw(st.booleans()):
        argv += ["--csv", "CSV"]
    if command == "erf":
        for option in ("--probe", "--ratio-depth"):
            if draw(st.booleans()):
                argv += [option, _mostly(draw, st.integers(0, 8).map(str), _ODD_NUMBERS)]
    return doc, argv


class TestWalkAndSpecFuzz:
    """pde, erf and chain on drawn options and specs: each finishes within a second."""

    # the closed form's kernel warned of an overflow, and D*eps*L underflowed to a
    # refusal that named Dcoef
    @example(["pde", "--D", "1e-305", "--eps", "0.1", "--L", "10"])
    @example(["pde", "--D", "1e-320"])
    @example(["pde", "--D", "1e-200", "--eps", "1e-200", "--L", "1"])
    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            _walk_argv("pde", {"--refinements": st.integers(0, 2)}),
            _walk_argv("erf", {"--ratio-depth": st.integers(1, 100)}),
        )
    )
    def test_drawn_walk_options_finish_within_a_second(self, argv):
        # erf reports no fit, as nulls, when fewer than two widths reach 2 cells
        nullable = ("fitted_exponent", "fit_residual") if argv[0] == "erf" else ()
        _, elapsed = _drawn_run(argv, nullable)
        assert elapsed < 1.0

    @settings(max_examples=150, deadline=None)
    @given(_spec_argv())
    def test_drawn_specs_finish_within_a_second(self, drawn):
        doc, argv = drawn
        nullable = ("fitted_exponent", "fit_residual") if argv[0] == "erf" else ()
        with tempfile.TemporaryDirectory() as workdir:
            paths = {"SPEC": os.path.join(workdir, "spec.json"), "CSV": os.path.join(workdir, "out.csv")}
            with open(paths["SPEC"], "w") as handle:
                json.dump(doc, handle)
            _, elapsed = _drawn_run([paths.get(arg, arg) for arg in argv], nullable)
        assert elapsed < 1.0
