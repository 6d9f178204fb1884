"""Top-level acceptance gate: one test per release criterion.

Each test states the tolerance it enforces and nothing else, so the -v
report reads as a ten-line scorecard.  Per-module test files cover the
edge cases; this file pins the headline numbers.
"""

import functools
import json
import math
import operator
import time

import numpy as np

from capnet.analyze import erf_profile, shatter_analysis, uniform_path_weight
from capnet.augment import (
    Activation,
    augmented_capacity_basis,
    augmented_spatial_profile,
    build_augmented_covariance,
    build_augmented_projection,
    decoupling_nu,
    estimate_nu_monte_carlo,
)
from capnet.cli import main
from capnet.core import (
    CovarianceMatrix,
    ProjectionMatrix,
    SpatialCapacity,
    orthonormal_basis,
    spatial_profile,
)
from capnet.deeplimit import (
    DeepLimitConfig,
    ResidualGenerator,
    compare_markov_pde,
    evolve_markov,
)
from capnet.oracle import (
    ExperimentConfig,
    empirical_spatial_capacity,
    fit_optimal_last_layer,
    stationarity_noise_floor,
    verify_stationarity,
)
from capnet.propagate import (
    LayerChain,
    PropagationOperator,
    differential_propagation_matrix,
    propagate_chain,
    propagate_single,
)


def _pmf_std(values):
    idx = np.arange(values.size)
    total = values.sum()
    mean = float((idx * values).sum()) / total
    return math.sqrt(float(((idx - mean) ** 2 * values).sum()) / total)


def test_criterion_01_decoupling_values():
    # closed forms are exact; Monte Carlo within 4 stderr at N = 1e5, under 1 s
    assert decoupling_nu(Activation.linear()) == 1.0
    assert decoupling_nu(Activation.relu()) == 0.5
    assert decoupling_nu(Activation.abs()) == 0.0
    start = time.perf_counter()
    for act in (Activation.linear(), Activation.relu(), Activation.abs()):
        report = estimate_nu_monte_carlo(act, 100_000, seed=7)
        assert abs(report.nu_hat - report.nu) <= 4.0 * report.stderr
    assert time.perf_counter() - start < 1.0


def test_criterion_02_linear_equivalence():
    # augmented-space profile with a linear activation matches the plain
    # input-space profile coordinate-wise to 1e-10, 10 random cases
    rng = np.random.default_rng(202)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 9))
        r = int(rng.integers(1, min(m, 5) + 1))
        p = ProjectionMatrix.from_raw(rng.standard_normal((n, m)))
        a = rng.standard_normal((n, n))
        sigma = CovarianceMatrix(a @ a.T + 0.1 * np.eye(n))
        k_phi = orthonormal_basis(rng.standard_normal((m, r)))

        sigma_tilde = build_augmented_covariance(sigma, Activation.linear(), m=m)
        k_tilde = augmented_capacity_basis(
            sigma_tilde, build_augmented_projection(p), k_phi
        )
        augmented = augmented_spatial_profile(k_tilde, n)
        original = spatial_profile(
            orthonormal_basis(sigma.entries @ p.matrix @ k_phi.columns)
        )
        np.testing.assert_allclose(augmented.values, original.values, atol=1e-10)


def test_criterion_03_pseudo_random_closed_form():
    # measured spatial capacities vs sum of squared selector columns:
    # max deviation 1e-2, total 3 +- 1e-2, under 30 s
    start = time.perf_counter()
    p = ProjectionMatrix.from_raw(np.random.default_rng(0).standard_normal((8, 8)))
    config = ExperimentConfig(
        p=p,
        activation=Activation.pseudo_random(),
        param_selector=(1, 4, 6),
        n_samples=160_000,
        seed=0,
    )
    report = empirical_spatial_capacity(config)
    assert report.max_abs_dev <= 1e-2
    assert abs(report.kappa_hat.total - 3.0) <= 1e-2
    assert time.perf_counter() - start < 30.0


def test_criterion_04_conservation():
    # 100 random column-stochastic layers keep the total to 1e-9
    rng = np.random.default_rng(44)
    for _ in range(3):
        dims = [int(rng.integers(3, 10)) for _ in range(101)]
        ops = []
        for n_in, n_out in zip(dims[:-1], dims[1:]):
            raw = rng.random((n_in, n_out)) + 0.05
            ops.append(PropagationOperator(raw / raw.sum(axis=0)))
        chain = LayerChain(ops)
        top = SpatialCapacity(rng.random(dims[-1]) + 0.1)
        profiles = propagate_chain(chain, top)
        assert len(profiles) == 101
        for profile in profiles:
            assert abs(profile.total - top.total) <= 1e-9


def test_criterion_05_deep_limit():
    # eps=0.1, Dcoef=1, v=0, L=100, n=201, Dirac: std sqrt(20) within 5%,
    # sup gap to the Gaussian closed form 2% of its peak, under 5 s
    start = time.perf_counter()
    gen = ResidualGenerator(n=201, v=0.0, Dcoef=1.0, boundary="periodic")
    cfg = DeepLimitConfig(eps=0.1, L=100)
    probe = SpatialCapacity.dirac(201, 100)

    final = SpatialCapacity(evolve_markov(gen, cfg, probe, keep_all=False))
    std = _pmf_std(final.values)
    assert abs(std - math.sqrt(20.0)) <= 0.05 * math.sqrt(20.0)

    report = compare_markov_pde(gen, cfg, probe, refinements=0)
    assert not report.boundary_flagged
    assert report.rel_errors[0] <= 0.02
    assert time.perf_counter() - start < 5.0


def test_criterion_06_erf_scaling():
    # Dirac probe width grows like sqrt(depth): the 100-layer width is twice
    # the 25-layer width within 10%, and the log-log slope sits in [0.45, 0.55]
    gen = ResidualGenerator(n=201, v=0.0, Dcoef=1.0, boundary="periodic")
    wide = erf_profile(gen, 100, DeepLimitConfig(eps=0.1, L=100))
    narrow = erf_profile(gen, 100, DeepLimitConfig(eps=0.1, L=25))
    ratio = wide.per_depth_std[-1][1] / narrow.per_depth_std[-1][1]
    assert abs(ratio - 2.0) <= 0.10 * 2.0
    assert 0.45 <= wide.fitted_exponent <= 0.55


def test_criterion_07_shattering():
    # uniform r=3, L=5 gives exactly 1/243; the all-diagonal residual path
    # at eps=0.1, unit decay, L=10 multiplies out to 0.9**10 bit-for-bit,
    # and its continuum estimate exp(-1) sits within 6% of the product
    assert uniform_path_weight(3, 5) == 1.0 / 243.0

    gen = ResidualGenerator(n=11, v=0.0, Dcoef=0.5, boundary="periodic")
    op = PropagationOperator(np.eye(11) + 0.1 * gen.matrix)
    chain = LayerChain([op] * 10)
    report = shatter_analysis(chain, r=3, eps=0.1)

    assert report.max_path_weight == functools.reduce(operator.mul, [0.9] * 10)
    assert abs(report.max_path_weight - 0.3486784401) < 1e-15
    assert abs(report.continuum_estimate - math.exp(-1.0)) <= 1e-12 * math.exp(-1.0)
    gap = abs(report.continuum_estimate - report.max_path_weight)
    assert gap <= 0.06 * report.max_path_weight


def test_criterion_08_differential_layers():
    # n=2 swap with eps=0.5 sends (1, 0) to exactly (2/3, 1/3); the operator
    # stays column-stochastic across eps in {0.1, 0.5, 1.0}
    swap = ProjectionMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    out = propagate_single(
        differential_propagation_matrix(swap, eps=0.5),
        SpatialCapacity(np.array([1.0, 0.0])),
    )
    assert out.values[0] == 2.0 / 3.0
    assert out.values[1] == 1.0 / 3.0

    random_p = ProjectionMatrix.from_raw(np.random.default_rng(88).standard_normal((5, 5)))
    for eps in (0.1, 0.5, 1.0):
        exact = differential_propagation_matrix(swap, eps).matrix
        np.testing.assert_array_equal(exact.sum(axis=0), [1.0, 1.0])
        mat = differential_propagation_matrix(random_p, eps).matrix
        assert np.all(mat >= 0.0)
        np.testing.assert_allclose(mat.sum(axis=0), 1.0, atol=1e-12)


def test_criterion_09_stationarity():
    # fitted constrained readouts leave a residual within 4x the jackknife
    # sampling floor on 5 random configurations
    base = np.random.default_rng(90)
    for case in range(5):
        n = int(base.integers(3, 6))
        m = int(base.integers(3, 6))
        p = ProjectionMatrix.from_raw(base.standard_normal((n, m)))
        size = int(base.integers(2, m))
        selector = tuple(int(i) for i in base.choice(m, size=size, replace=False))
        config = ExperimentConfig(
            p=p,
            activation=Activation.pseudo_random(),
            param_selector=selector,
            n_samples=20_000,
            seed=900 + case,
        )
        a_gen = base.standard_normal(m)

        def target(y, p=p, a_gen=a_gen):
            return np.tanh(y @ p.matrix) @ a_gen

        a_star = fit_optimal_last_layer(config, target)
        residual = verify_stationarity(config, a_star, target)
        floor = stationarity_noise_floor(config, a_star, target)
        assert floor > 0
        assert residual <= 4.0 * floor


def test_criterion_10_determinism(capsys, tmp_path):
    # every seeded command prints byte-identical output on a second run
    spec = tmp_path / "net.json"
    spec.write_text(
        json.dumps(
            {
                "layers": [
                    {
                        "kind": "dense",
                        "n_in": 5,
                        "n_out": 4,
                        "activation": "pseudo_random",
                        "weights": "random_gaussian:11",
                    }
                ],
                "top_capacity": "uniform",
            }
        )
    )
    commands = [
        ["nu", "relu", "--mc", "100000", "--seed", "3"],
        ["chain", str(spec)],
        ["pde", "--n", "101", "--L", "50", "--refinements", "1"],
        ["erf", "--ratio-depth", "25"],
        ["shatter", "--uniform", "r=3", "L=5"],
        ["verify", "--mc", "40000", "--seed", "2"],
    ]
    for argv in commands:
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out.encode())
        assert outputs[0] == outputs[1]
        assert outputs[0].endswith(b"\n")
