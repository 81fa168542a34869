import math

import numpy as np
import pytest

from mfpce.models import Model, builtin_model
from mfpce.orthopoly import Uniform, VariableSpec
from mfpce.pce import Expansion, union
from mfpce.sobol import (
    SobolReport,
    ZeroVarianceError,
    all_indices,
    mc_sobol,
)
from mfpce.sparse_grid import physical_nodes, smolyak_grid
from mfpce.pce import project


def hand_expansion(unit_uniform_specs):
    """y = 2 + 3*x1 + 4*x2 + 6*x1*x2 on U[-1,1]^2, exact by construction.

    With ``x = psi_1 / sqrt(3)`` the orthonormal coefficients are
    ``3/sqrt(3)``, ``4/sqrt(3)`` and ``6/3``."""
    return Expansion(
        specs=unit_uniform_specs,
        terms=[(0, 0), (0, 1), (1, 0), (1, 1)],
        coeffs=[2.0, 4.0 / math.sqrt(3.0), 3.0 / math.sqrt(3.0), 6.0 / 3.0],
    )


class TestFromExpansion:
    def test_hand_computed_partition(self, unit_uniform_specs):
        e = hand_expansion(unit_uniform_specs)
        # partial variances: 9/3, 16/3, 36/9
        d = 9 / 3 + 16 / 3 + 36 / 9
        report = all_indices(e)
        subsets = report.subset_indices
        assert subsets[(0,)] == pytest.approx(3.0 / d)
        assert subsets[(1,)] == pytest.approx((16 / 3) / d)
        assert subsets[(0, 1)] == pytest.approx(4.0 / d)
        totals = report.total_indices
        assert totals[0] == pytest.approx((3.0 + 4.0) / d)
        assert totals[1] == pytest.approx((16 / 3 + 4.0) / d)

    @pytest.mark.parametrize(
        "indices",
        [
            all_indices,
            lambda e: all_indices(e).total_indices,
            lambda e: all_indices(e).subset_indices,
        ],
        ids=["all_indices", "total_indices", "subset_index"],
    )
    def test_stacked_coefficients_rejected(self, unit_uniform_specs, indices):
        e = hand_expansion(unit_uniform_specs)
        with pytest.raises(ValueError, match="Sobol indices need scalar coefficients"):
            indices(union([e, e]))

    def test_report_fields(self, unit_uniform_specs):
        report = all_indices(hand_expansion(unit_uniform_specs))
        assert report.n == 2
        assert report.mean == pytest.approx(2.0)
        assert report.variance == pytest.approx(9 / 3 + 16 / 3 + 4.0)
        assert report.first_order(0) == pytest.approx(
            all_indices(hand_expansion(unit_uniform_specs)).subset_indices[(0,)]
        )
        assert report.first_order(5) == 0.0

    def test_subset_indices_sum_to_one(self, ishigami_range_specs):
        model = builtin_model("ishigami", "hf")
        grid = smolyak_grid(3, 4, list(ishigami_range_specs))
        nodes = np.column_stack(
            [
                spec.from_standard(grid.nodes[:, j])
                for j, spec in enumerate(ishigami_range_specs)
            ]
        )
        report = all_indices(project(model.batch(nodes), 4, ishigami_range_specs))
        assert sum(report.subset_indices.values()) == pytest.approx(1.0, abs=1e-9)
        # totals dominate the union of first-order shares
        for i in range(3):
            covering = sum(
                v for s, v in report.subset_indices.items() if i in s
            )
            assert report.total_indices[i] == pytest.approx(covering, abs=1e-12)

    def test_constant_expansion_raises(self, unit_uniform_specs):
        e = Expansion(specs=unit_uniform_specs, terms=[(0, 0)], coeffs=[1.0])
        for fn in (
            lambda: all_indices(e).subset_indices,
            lambda: all_indices(e).total_indices,
            lambda: all_indices(e),
        ):
            with pytest.raises(ZeroVarianceError):
                fn()


class TestMonteCarlo:
    def _linear_model(self):
        return Model(id="linear", fn=lambda X: X.sum(axis=1))

    def test_additive_model_indices(self):
        specs = [VariableSpec(f"x{i}", Uniform(-1.0, 1.0)) for i in range(3)]
        report = mc_sobol(self._linear_model(), specs, 65536, seed=7)
        for i in range(3):
            assert report.first_order(i) == pytest.approx(
                1 / 3, abs=3 * report.first_order_se[i] + 1e-3
            )
            assert report.total_indices[i] == pytest.approx(
                1 / 3, abs=3 * report.total_se[i] + 1e-3
            )
        assert report.mean == pytest.approx(0.0, abs=0.02)
        assert report.variance == pytest.approx(1.0, abs=0.02)

    def test_agrees_with_the_exact_pce_within_four_standard_errors(self):
        """An oracle cross-check: y = x1 + 2*x2**2 + x1*x3 on U(-1, 1)^3 has
        the exact w=2 PCE indices S = (5/12, 4/9, 0), S_T = (5/9, 4/9, 5/36),
        and the pick-freeze estimates lie within 4 of their standard errors
        of every one of them."""
        specs = [VariableSpec(f"x{i}", Uniform(-1.0, 1.0)) for i in (1, 2, 3)]
        model = Model(id="poly", fn=lambda X: X[:, 0] + 2.0 * X[:, 1] ** 2 + X[:, 0] * X[:, 2])
        nodes = physical_nodes(smolyak_grid(3, 2, specs), specs)
        exact = all_indices(project(model.batch(nodes), 2, specs))
        assert [exact.first_order(i) for i in range(3)] == pytest.approx([5 / 12, 4 / 9, 0.0])
        assert exact.total_indices == pytest.approx([5 / 9, 4 / 9, 5 / 36])
        report = mc_sobol(model, specs, 8192, seed=0)
        for i in range(3):
            assert abs(report.first_order(i) - exact.first_order(i)) <= 4 * report.first_order_se[i]
            assert abs(report.total_indices[i] - exact.total_indices[i]) <= 4 * report.total_se[i]

    def test_deterministic_for_fixed_seed(self):
        specs = [VariableSpec(f"x{i}", Uniform(0.0, 1.0)) for i in range(2)]
        a = mc_sobol(self._linear_model(), specs, 4096, seed=11)
        b = mc_sobol(self._linear_model(), specs, 4096, seed=11)
        assert a.subset_indices == b.subset_indices
        assert a.total_indices == b.total_indices

    def test_seed_changes_the_stream(self):
        specs = [VariableSpec(f"x{i}", Uniform(0.0, 1.0)) for i in range(2)]
        a = mc_sobol(self._linear_model(), specs, 4096, seed=11)
        b = mc_sobol(self._linear_model(), specs, 4096, seed=12)
        assert a.subset_indices != b.subset_indices

    def test_constant_model_raises(self):
        specs = [VariableSpec("x", Uniform(0.0, 1.0))]
        const = Model(id="const", fn=lambda X: np.ones(len(X)))
        with pytest.raises(ZeroVarianceError):
            mc_sobol(const, specs, 1024, seed=1)

    def test_small_sample_rejected(self):
        specs = [VariableSpec("x", Uniform(0.0, 1.0))]
        with pytest.raises(ValueError):
            mc_sobol(self._linear_model(), specs, 1, seed=1)
