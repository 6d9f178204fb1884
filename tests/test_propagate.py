import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capnet.augment import build_augmented_projection
from capnet.core import ProjectionMatrix, SpatialCapacity
from capnet.propagate import (
    LayerChain,
    PropagationOperator,
    differential_propagation_matrix,
    propagate_chain,
    propagate_single,
    propagation_matrix,
)


def _random_stochastic(rng, n_in, n_out):
    m = rng.random((n_in, n_out)) + 0.05
    return PropagationOperator(m / m.sum(axis=0))


class TestPropagationMatrix:
    def test_coordinate_column_passes_through(self):
        p = ProjectionMatrix(np.array([[1.0, 1 / np.sqrt(2)], [0.0, 1 / np.sqrt(2)]]))
        d = propagation_matrix(p)
        np.testing.assert_allclose(d.matrix[:, 0], [1.0, 0.0])

    def test_hand_example(self):
        p = ProjectionMatrix(
            np.array([[1 / np.sqrt(2), 0.0], [1 / np.sqrt(2), 1.0]])
        )
        d = propagation_matrix(p)
        np.testing.assert_allclose(d.matrix, [[0.5, 0.0], [0.5, 1.0]], atol=1e-15)

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n, m = int(rng.integers(2, 8)), int(rng.integers(1, 8))
            p = ProjectionMatrix.from_raw(rng.standard_normal((n, m)))
            d = propagation_matrix(p)
            np.testing.assert_allclose(d.matrix.sum(axis=0), 1.0, atol=1e-12)

    def test_raw_weights_renormalized(self):
        raw = np.array([[3.0, 0.0], [4.0, 2.0]])
        d = propagation_matrix(ProjectionMatrix.from_raw(raw))
        np.testing.assert_allclose(d.matrix[:, 0], [9 / 25, 16 / 25])
        np.testing.assert_allclose(d.matrix[:, 1], [0.0, 1.0])


class TestPropagateSingle:
    def test_identity(self):
        kappa = SpatialCapacity(np.array([0.3, 0.7, 2.0]))
        out = propagate_single(PropagationOperator(np.eye(3)), kappa)
        np.testing.assert_array_equal(out.values, kappa.values)

    def test_hand_product(self):
        d = PropagationOperator(np.array([[0.5, 0.0], [0.5, 1.0]]))
        out = propagate_single(d, SpatialCapacity(np.array([1.0, 1.0])))
        np.testing.assert_allclose(out.values, [0.5, 1.5])
        assert out.total == pytest.approx(2.0)

    def test_uniform_operator_uniformizes(self):
        d = PropagationOperator(np.full((4, 4), 1.0 / 4))
        out = propagate_single(d, SpatialCapacity(np.array([4.0, 0.0, 0.0, 0.0])))
        np.testing.assert_allclose(out.values, 1.0)

    def test_conservation_random(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            d = _random_stochastic(rng, n, m)
            kappa = SpatialCapacity(rng.random(m) * 3)
            out = propagate_single(d, kappa)
            assert out.total == pytest.approx(kappa.total, abs=1e-10)
            assert out.values.min() >= 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            propagate_single(PropagationOperator(np.eye(2)), SpatialCapacity(np.ones(3)))


class TestPropagateChain:
    def test_identity_chain(self):
        chain = LayerChain([PropagationOperator(np.eye(3))] * 4)
        kappa = SpatialCapacity(np.array([1.0, 0.5, 0.0]))
        profiles = propagate_chain(chain, kappa)
        assert len(profiles) == 5
        for profile in profiles:
            np.testing.assert_array_equal(profile.values, kappa.values)

    def test_two_uniform_layers(self):
        chain = LayerChain([PropagationOperator(np.full((2, 2), 1.0 / 2))] * 2)
        profiles = propagate_chain(chain, SpatialCapacity(np.array([2.0, 0.0])))
        np.testing.assert_allclose(profiles[0].values, [1.0, 1.0])
        np.testing.assert_allclose(profiles[1].values, [1.0, 1.0])

    def test_matches_dense_product_oracle(self):
        rng = np.random.default_rng(3)
        dims = [int(rng.integers(2, 7)) for _ in range(4)]
        ops = [
            _random_stochastic(rng, dims[i], dims[i + 1]) for i in range(3)
        ]
        chain = LayerChain(ops)
        kappa_top = SpatialCapacity(rng.random(dims[3]))
        profiles = propagate_chain(chain, kappa_top)
        product = ops[0].matrix @ ops[1].matrix @ ops[2].matrix
        np.testing.assert_allclose(
            profiles[0].values, product @ kappa_top.values, atol=1e-12
        )

    def test_composition_matches_nested_single_steps(self):
        rng = np.random.default_rng(4)
        d1 = _random_stochastic(rng, 3, 4)
        d2 = _random_stochastic(rng, 4, 2)
        kappa = SpatialCapacity(rng.random(2))
        chain = LayerChain([d1, d2])
        profiles = propagate_chain(chain, kappa)
        np.testing.assert_array_equal(
            profiles[0].values,
            propagate_single(d1, propagate_single(d2, kappa)).values,
        )

    def test_long_chain_conserves_total(self):
        rng = np.random.default_rng(5)
        ops = [_random_stochastic(rng, 5, 5) for _ in range(1000)]
        chain = LayerChain(ops)
        kappa = SpatialCapacity(rng.random(5) * 2)
        profiles = propagate_chain(chain, kappa)
        for profile in profiles:
            assert profile.total == pytest.approx(kappa.total, abs=1e-9)

    def test_max_entry_bounded_by_total(self):
        rng = np.random.default_rng(6)
        ops = [_random_stochastic(rng, 4, 4) for _ in range(10)]
        kappa = SpatialCapacity(rng.random(4))
        for profile in propagate_chain(LayerChain(ops), kappa):
            assert profile.values.max() <= kappa.total + 1e-12

    def test_projection_layers_propagate(self):
        rng = np.random.default_rng(8)
        p = ProjectionMatrix.from_raw(rng.standard_normal((4, 4)))
        chain = LayerChain([propagation_matrix(p)])
        kappa = SpatialCapacity(np.array([1.0, 0.0, 2.0, 0.0]))
        profiles = propagate_chain(chain, kappa)
        np.testing.assert_allclose(
            profiles[0].values, (p.matrix**2) @ kappa.values, atol=1e-12
        )

    def test_top_dimension_checked(self):
        chain = LayerChain([PropagationOperator(np.eye(3))])
        with pytest.raises(ValueError, match="top dimension"):
            propagate_chain(chain, SpatialCapacity(np.ones(2)))


class TestDifferentialPropagationMatrix:
    def test_tiny_eps_near_identity(self):
        p = ProjectionMatrix.from_raw(np.random.default_rng(9).standard_normal((3, 3)))
        d = differential_propagation_matrix(p, eps=1e-9)
        np.testing.assert_allclose(d.matrix, np.eye(3), atol=2e-9)

    def test_identity_projection_any_eps(self):
        p = ProjectionMatrix(np.eye(3))
        for eps in (0.1, 0.5, 1.0, 10.0):
            d = differential_propagation_matrix(p, eps)
            np.testing.assert_array_equal(d.matrix, np.eye(3))

    def test_swap_example(self):
        p = ProjectionMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        d = differential_propagation_matrix(p, eps=0.5)
        kappa = propagate_single(d, SpatialCapacity(np.array([1.0, 0.0])))
        np.testing.assert_array_equal(kappa.values, [2 / 3, 1 / 3])

    def test_componentwise_formula_agreement(self):
        # kappa_i = (kappa_phi_i + eps * sum_j p_ij^2 kappa_phi_j) / (1 + eps)
        rng = np.random.default_rng(10)
        p = ProjectionMatrix.from_raw(rng.standard_normal((4, 4)))
        kappa_phi = rng.random(4)
        for eps in (0.1, 0.5, 1.0):
            d = differential_propagation_matrix(p, eps)
            expected = (kappa_phi + eps * (p.matrix**2) @ kappa_phi) / (1 + eps)
            np.testing.assert_allclose(
                d.matrix @ kappa_phi, expected, atol=1e-12
            )

    def test_column_stochastic_across_eps(self):
        rng = np.random.default_rng(11)
        p = ProjectionMatrix.from_raw(rng.standard_normal((5, 5)))
        for eps in (0.1, 0.5, 1.0):
            d = differential_propagation_matrix(p, eps)
            assert d.matrix.min() >= 0
            np.testing.assert_allclose(d.matrix.sum(axis=0), 1.0, atol=1e-12)

    def test_first_order_expansion(self):
        rng = np.random.default_rng(12)
        p = ProjectionMatrix.from_raw(rng.standard_normal((4, 4)))
        eps = 1e-3
        d = differential_propagation_matrix(p, eps)
        first_order = np.eye(4) + eps * (p.matrix**2 - np.eye(4))
        assert np.max(np.abs(d.matrix - first_order)) <= 1e-5

    def test_rejects_non_square(self):
        p = ProjectionMatrix.from_raw(np.random.default_rng(13).standard_normal((3, 2)))
        with pytest.raises(ValueError, match="square"):
            differential_propagation_matrix(p, 0.5)

    def test_rejects_nonpositive_eps(self):
        p = ProjectionMatrix(np.eye(2))
        for eps in (0.0, float("nan")):
            with pytest.raises(ValueError, match="eps must be positive"):
                differential_propagation_matrix(p, eps)

    def test_rejects_infinite_eps(self):
        with pytest.raises(ValueError, match="eps must be finite, got inf"):
            differential_propagation_matrix(ProjectionMatrix(np.eye(2)), float("inf"))

    def test_matches_residual_augmented_space(self):
        # the residual layer's augmented projection stacks I over sqrt(eps) P~;
        # column j's squared entries, summed per input and divided by its
        # squared norm 1 + eps, give column j of the operator
        rng = np.random.default_rng(14)
        p = ProjectionMatrix.from_raw(rng.standard_normal((4, 4)))
        for eps in (0.1, 0.5, 2.0):
            p_res = np.vstack([np.eye(4), np.sqrt(eps) * build_augmented_projection(p)])
            inputs = np.tile(np.arange(4), 5)
            mass = np.stack([np.bincount(inputs, weights=col**2) for col in p_res.T], axis=1)
            np.testing.assert_allclose(mass.sum(axis=0), 1.0 + eps, atol=1e-12)
            np.testing.assert_allclose(
                differential_propagation_matrix(p, eps).matrix, mass / (1.0 + eps), atol=1e-12
            )


class TestOperatorAndLayerValidation:
    def test_operator_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="negative"):
            PropagationOperator(np.array([[1.5], [-0.5]]))

    def test_operator_rejects_bad_column_sums(self):
        with pytest.raises(ValueError, match="sums to"):
            PropagationOperator(np.array([[0.5], [0.4]]))

    def test_uniform_window_columns(self):
        d = PropagationOperator.uniform_window(5, 3)
        np.testing.assert_allclose(d.matrix.sum(axis=0), 1.0)
        np.testing.assert_allclose(d.matrix[[1, 2, 3], 2], 1 / 3)
        np.testing.assert_allclose(d.matrix[[4, 0, 1], 0], 1 / 3)

    def test_uniform_window_matches_per_column_loop_bit_for_bit(self):
        for n, r in [(n, r) for n in range(1, 13) for r in range(1, n + 1)] + [(96, 3), (96, 5)]:
            reference = np.zeros((n, n))
            offsets = np.arange(r) - (r - 1) // 2
            for j in range(n):
                reference[(j + offsets) % n, j] = 1.0 / r
            matrix = PropagationOperator.uniform_window(n, r).matrix
            assert matrix.tobytes() == reference.tobytes(), (n, r)

    def test_uniform_window_size_bounds(self):
        with pytest.raises(ValueError, match="window"):
            PropagationOperator.uniform_window(3, 4)

    def test_differential_layer_needs_eps(self):
        p = ProjectionMatrix(np.eye(2))
        with pytest.raises(ValueError, match="eps"):
            differential_propagation_matrix(p, eps=0.0)

    def test_chain_dimension_compatibility(self):
        with pytest.raises(ValueError, match="layer 1 expects"):
            LayerChain(
                [PropagationOperator(np.eye(2)), PropagationOperator(np.eye(3))]
            )

    def test_chain_must_be_non_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            LayerChain(())


@st.composite
def _random_chains(draw):
    """A chain mixing standard, differential and other stochastic operators, and a top profile."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 6))
    layers = []
    kinds = st.sampled_from(["standard", "differential", "operator"])
    for kind in draw(st.lists(kinds, min_size=1, max_size=8)):
        if kind == "differential":
            p = ProjectionMatrix.from_raw(rng.standard_normal((n, n)))
            layers.append(differential_propagation_matrix(p, draw(st.floats(1e-3, 10.0))))
            continue
        n_out = draw(st.integers(2, 6))
        if kind == "standard":
            p = ProjectionMatrix.from_raw(rng.standard_normal((n, n_out)))
            layers.append(propagation_matrix(p))
        else:
            layers.append(_random_stochastic(rng, n, n_out))
        n = n_out
    top = SpatialCapacity(rng.random(n) * draw(st.floats(0.1, 10.0)))
    return LayerChain(layers), top


class TestChainProperties:
    @settings(max_examples=60, deadline=None)
    @given(_random_chains())
    def test_operators_stochastic_and_totals_conserved(self, chain_and_top):
        chain, top = chain_and_top
        for layer in chain.layers:
            matrix = layer.matrix
            assert matrix.min() >= 0.0
            assert np.abs(matrix.sum(axis=0) - 1.0).max() <= 1e-10
        profiles = propagate_chain(chain, top)
        assert len(profiles) == len(chain) + 1
        assert max(abs(p.total - top.total) for p in profiles) <= 1e-9
