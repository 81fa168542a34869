import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mfpce.orthopoly import (
    GaussRule,
    Normal,
    PolyFamily,
    Uniform,
    VariableSpec,
    eval_poly_table,
    gauss_rule,
)


#: The kernels ``OPENBLAS_CORETYPE`` selects on an AVX-512 x86-64 host.
CORETYPES = ["SkylakeX", "Haswell", "Zen", "Sandybridge", "Nehalem", "Prescott", "SapphireRapids"]

#: Prints one hash of the points and weights of both families' rules at
#: sparse levels 0..8 (m = 1 .. 511).
HASH_RULES = """import hashlib
from mfpce.orthopoly import PolyFamily, gauss_rule
digest = hashlib.sha256()
for family in PolyFamily:
    for level in range(9):
        rule = gauss_rule(family, 2 ** (level + 1) - 1)
        digest.update(rule.points.tobytes() + rule.weights.tobytes())
print(digest.hexdigest())
"""


def rule_hash(**env) -> str:
    """:data:`HASH_RULES` run by a child interpreter under ``env``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = {**os.environ, "PYTHONPATH": path, **env}
    done = subprocess.run(
        [sys.executable, "-c", HASH_RULES], env=child, capture_output=True, text=True, timeout=60, check=True
    )
    return done.stdout.strip()


@pytest.fixture(scope="module")
def default_rule_hash() -> str:
    return rule_hash()


def classical_scale(family: PolyFamily, k: int) -> float:
    """``psi_k / P_k`` (Legendre) or ``psi_k / He_k`` (Hermite)."""
    if family is PolyFamily.LEGENDRE:
        return math.sqrt(2 * k + 1)
    return 1.0 / math.sqrt(math.factorial(k))


class TestEvaluation:
    def test_legendre_low_degrees(self):
        # psi_k = sqrt(2k+1) P_k; P2 = (3x^2 - 1)/2, P3 = (5x^3 - 3x)/2
        assert eval_poly_table(PolyFamily.LEGENDRE, 0, 0.7)[0] == 1.0
        assert eval_poly_table(PolyFamily.LEGENDRE, 1, 0.7)[1] == pytest.approx(0.7 * math.sqrt(3))
        assert eval_poly_table(PolyFamily.LEGENDRE, 2, 0.5)[2] == pytest.approx(-0.125 * math.sqrt(5))
        assert eval_poly_table(PolyFamily.LEGENDRE, 3, 0.5)[3] == pytest.approx(-0.4375 * math.sqrt(7))

    def test_legendre_is_one_at_one(self):
        for k in range(12):
            assert eval_poly_table(PolyFamily.LEGENDRE, k, 1.0)[k] == pytest.approx(
                classical_scale(PolyFamily.LEGENDRE, k)
            )

    def test_hermite_low_degrees(self):
        # psi_k = He_k / sqrt(k!); He2 = x^2 - 1, He3 = x^3 - 3x, He4 = x^4 - 6x^2 + 3
        assert eval_poly_table(PolyFamily.HERMITE, 2, 2.0)[2] == pytest.approx(3.0 / math.sqrt(2))
        assert eval_poly_table(PolyFamily.HERMITE, 3, 2.0)[3] == pytest.approx(2.0 / math.sqrt(6))
        assert eval_poly_table(PolyFamily.HERMITE, 4, 0.0)[4] == pytest.approx(3.0 / math.sqrt(24))

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            eval_poly_table(PolyFamily.LEGENDRE, -1, 0.0)
        with pytest.raises(ValueError):
            eval_poly_table(PolyFamily.HERMITE, -2, 0.0)

    def test_table_shape_and_consistency(self):
        x = np.linspace(-1, 1, 7)
        table = eval_poly_table(PolyFamily.LEGENDRE, 5, x)
        assert table.shape == (6, 7)
        for k in range(6):
            for xi, val in zip(x, table[k]):
                assert eval_poly_table(PolyFamily.LEGENDRE, k, xi)[k] == pytest.approx(val)

    @pytest.mark.parametrize("family", list(PolyFamily))
    @pytest.mark.parametrize("max_degree", [0, 1, 2, 62])
    def test_table_equals_recurrence_formula(self, family, max_degree):
        """The in-place recurrence against the row-by-row formula
        ``x psi_k / b_{k+1} - (b_k / b_{k+1}) psi_{k-1}``, bit for bit."""
        x = np.random.default_rng(3).uniform(-1.5, 1.5, 4097)
        k = np.arange(1, max_degree + 1, dtype=float)
        if family is PolyFamily.LEGENDRE:
            b = np.concatenate([[0.0], k / np.sqrt(4.0 * k * k - 1.0)])
        else:
            b = np.concatenate([[0.0], np.sqrt(k)])
        want = np.empty((max_degree + 1, x.size))
        want[0] = 1.0
        if max_degree > 0:
            want[1] = x * (1.0 / b[1])
        for k in range(1, max_degree):
            a = 1.0 / b[k + 1]
            want[k + 1] = x * want[k] * a - b[k] * a * want[k - 1]
        assert np.array_equal(eval_poly_table(family, max_degree, x), want)

    @pytest.mark.parametrize("family", list(PolyFamily))
    @pytest.mark.parametrize("max_degree", [0, 1, 62])
    @pytest.mark.parametrize("size", [1, 4096])
    def test_out_buffer_is_bit_identical(self, family, max_degree, size):
        """``out=`` holds the allocating call's table bit for bit, also when
        it is a column slice of a wider buffer, as ``evaluate_batch`` passes."""
        x = np.random.default_rng(7).uniform(-1.5, 1.5, size)
        want = eval_poly_table(family, max_degree, x)
        wide = np.full((max_degree + 1, size + 3), np.nan)
        for out in (np.full((max_degree + 1, size), np.nan), wide[:, :size]):
            assert eval_poly_table(family, max_degree, x, out=out) is out
            assert np.array_equal(out, want)

    def test_out_buffer_of_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            eval_poly_table(PolyFamily.LEGENDRE, 3, np.zeros(5), out=np.empty((3, 5)))

    @given(st.floats(-3.0, 3.0), st.integers(0, 15))
    def test_legendre_matches_numpy(self, x, k):
        ours = eval_poly_table(PolyFamily.LEGENDRE, k, x)[k]
        ref = np.polynomial.legendre.Legendre.basis(k)(x) * classical_scale(PolyFamily.LEGENDRE, k)
        assert ours == pytest.approx(float(ref), rel=1e-10, abs=1e-10)

    @given(st.floats(-3.0, 3.0), st.integers(0, 15))
    def test_hermite_matches_numpy(self, x, k):
        ours = eval_poly_table(PolyFamily.HERMITE, k, x)[k]
        ref = np.polynomial.hermite_e.HermiteE.basis(k)(x) * classical_scale(PolyFamily.HERMITE, k)
        assert ours == pytest.approx(float(ref), rel=1e-10, abs=1e-8)


class TestNorms:
    def test_closed_forms(self):
        """``E[psi_k^2] = 1``: the classical norms ``1/(2k+1)`` and ``k!``
        times the squared scale of the orthonormal polynomials, integrated
        by a rule exact to degree 2k."""
        for family in PolyFamily:
            r = gauss_rule(family, 8)
            table = eval_poly_table(family, 7, r.points)
            for k in range(8):
                classical = 1.0 / (2 * k + 1) if family is PolyFamily.LEGENDRE else math.factorial(k)
                assert classical * classical_scale(family, k) ** 2 == pytest.approx(1.0)
                assert r.weights @ table[k] ** 2 == pytest.approx(1.0, rel=1e-13)


class TestGaussRules:
    def test_one_point_rule(self):
        for family in PolyFamily:
            r = gauss_rule(family, 1)
            assert r.points.tolist() == [0.0]
            assert r.weights.tolist() == [1.0]

    def test_legendre_three_point(self):
        r = gauss_rule(PolyFamily.LEGENDRE, 3)
        assert np.abs(r.points - [-math.sqrt(0.6), 0.0, math.sqrt(0.6)]).max() <= 1e-15
        assert np.abs(r.weights - [5 / 18, 4 / 9, 5 / 18]).max() <= 1e-15

    def test_hermite_three_point(self):
        r = gauss_rule(PolyFamily.HERMITE, 3)
        assert np.abs(r.points - [-math.sqrt(3.0), 0.0, math.sqrt(3.0)]).max() <= 1e-15
        assert np.abs(r.weights - [1 / 6, 2 / 3, 1 / 6]).max() <= 1e-15

    @pytest.mark.parametrize("family", list(PolyFamily))
    @pytest.mark.parametrize("m", [*range(1, 32), 255])
    def test_exactness_to_degree_2m_minus_1(self, family, m):
        # The products psi_j psi_k with j < m and k <= m span the
        # polynomials of degree <= 2m - 1, so the rule is exact to that
        # degree when it integrates them to the identity. Unlike monomial
        # moments, which pass 1e300 for Hermite at m = 255, every entry
        # is of order one.
        r = gauss_rule(family, m)
        table = eval_poly_table(family, m, r.points)
        gram = (table[:m] * r.weights) @ table.T
        assert np.abs(gram - np.eye(m, m + 1)).max() < 1e-12

    @pytest.mark.parametrize("m, zeros, low, high", [(255, 0, 0.0, 1e-13), (511, 40, 0.4, 1.0)])
    def test_documented_hermite_limit(self, m, zeros, low, high):
        """The limit that the gauss_rule docstring and the README state: at
        m = 511 the outermost weights underflow to 0 and the Gram matrix of
        test_exactness_to_degree_2m_minus_1 is far off the identity; at
        m = 255 neither. A fix of the limit must update both texts."""
        r = gauss_rule(PolyFamily.HERMITE, m)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            table = eval_poly_table(PolyFamily.HERMITE, m, r.points)
            gram = (table[:m] * r.weights) @ table.T
        assert np.count_nonzero(r.weights == 0.0) == zeros
        assert low <= np.abs(gram - np.eye(m, m + 1)).max() < high

    @pytest.mark.parametrize("family", list(PolyFamily))
    def test_orthogonality_at_m12(self, family):
        r = gauss_rule(family, 12)
        table = eval_poly_table(family, 10, r.points)
        gram = (table * r.weights) @ table.T
        assert np.abs(gram - np.eye(11)).max() < 1e-12

    @pytest.mark.parametrize("family", list(PolyFamily))
    @pytest.mark.parametrize("m", [2, 3, 7, 15, 31])
    def test_symmetry_and_mass(self, family, m):
        r = gauss_rule(family, m)
        assert np.allclose(r.points, -r.points[::-1], atol=0.0)
        assert np.allclose(r.weights, r.weights[::-1], atol=0.0)
        assert r.weights.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.all(np.diff(r.points) > 0)
        if m % 2 == 1:
            assert r.points[m // 2] == 0.0

    def test_levels_0_to_8_need_no_eigensolver(self, monkeypatch):
        """The rules come from the recurrence alone, mirrored exactly about
        an exact 0.0 centre."""

        def refuse(*args, **kwargs):
            raise AssertionError("gauss_rule called an eigensolver")

        for name in ("eig", "eigh", "eigvals", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refuse)
        for family in PolyFamily:
            for level in range(9):
                m = 2 ** (level + 1) - 1
                r = gauss_rule.__wrapped__(family, m)
                assert len(r) == m and r.points[m // 2] == 0.0
                assert np.array_equal(r.points, -r.points[::-1])
                assert np.array_equal(r.weights, r.weights[::-1])

    @pytest.mark.parametrize("coretype", CORETYPES)
    def test_same_bits_under_every_openblas_kernel(self, coretype, default_rule_hash):
        assert rule_hash(OPENBLAS_CORETYPE=coretype) == default_rule_hash

    def test_rules_are_cached_and_frozen(self):
        a = gauss_rule(PolyFamily.LEGENDRE, 7)
        b = gauss_rule(PolyFamily.LEGENDRE, 7)
        assert a is b
        with pytest.raises(ValueError):
            a.points[0] = 0.0

    def test_invalid_point_count(self):
        with pytest.raises(ValueError):
            gauss_rule(PolyFamily.LEGENDRE, 0)

    def test_len(self):
        assert len(gauss_rule(PolyFamily.HERMITE, 5)) == 5
        assert len(GaussRule(points=np.zeros(1), weights=np.ones(1))) == 1


class TestVariableSpec:
    def test_family_mapping(self):
        assert VariableSpec("u", Uniform(0, 1)).family is PolyFamily.LEGENDRE
        assert VariableSpec("g", Normal(0, 1)).family is PolyFamily.HERMITE

    def test_invalid_distributions(self):
        with pytest.raises(ValueError):
            Uniform(1.0, 1.0)
        with pytest.raises(ValueError):
            Uniform(2.0, -2.0)
        with pytest.raises(ValueError):
            Normal(0.0, 0.0)

    def test_standard_mapping_endpoints(self):
        spec = VariableSpec("u", Uniform(2.0, 6.0))
        assert spec.to_standard(2.0) == pytest.approx(-1.0)
        assert spec.to_standard(6.0) == pytest.approx(1.0)
        assert spec.from_standard(0.0) == pytest.approx(4.0)
        g = VariableSpec("g", Normal(-1.0, 0.5))
        assert g.to_standard(-1.0) == pytest.approx(0.0)
        assert g.from_standard(2.0) == pytest.approx(0.0)

    @given(st.floats(-1.0, 1.0))
    def test_uniform_round_trip(self, x):
        spec = VariableSpec("u", Uniform(-3.5, 12.25))
        assert float(spec.to_standard(spec.from_standard(x))) == pytest.approx(
            x, abs=1e-12
        )

    @given(st.floats(-6.0, 6.0))
    def test_normal_round_trip(self, x):
        spec = VariableSpec("g", Normal(500.0, 100.0))
        assert float(spec.to_standard(spec.from_standard(x))) == pytest.approx(
            x, abs=1e-12
        )

    def test_sample_moments(self, rng):
        u = VariableSpec("u", Uniform(2.0, 6.0)).sample(rng, 200_000)
        assert u.min() >= 2.0 and u.max() <= 6.0
        assert u.mean() == pytest.approx(4.0, abs=0.02)
        g = VariableSpec("g", Normal(-1.0, 0.5)).sample(rng, 200_000)
        assert g.mean() == pytest.approx(-1.0, abs=0.01)
        assert g.std() == pytest.approx(0.5, abs=0.01)
