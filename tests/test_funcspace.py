import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fglm.funcspace import FunctionRep, evaluate_on_grid, norm_sq, uniform_grid

coeff_lists = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1, max_size=8
)


def test_rep_is_immutable():
    f = FunctionRep([1.0, 2.0])
    with pytest.raises(ValueError):
        f.coeffs[0] = 5.0


def test_rep_rejects_bad_input():
    with pytest.raises(ValueError):
        FunctionRep([[1.0, 2.0]])
    with pytest.raises(ValueError):
        FunctionRep([1.0, np.nan])


def test_padding():
    f = FunctionRep([1.0, 2.0])
    assert f.padded(4).tolist() == [1.0, 2.0, 0.0, 0.0]
    assert f.padded(2).tolist() == [1.0, 2.0]
    with pytest.raises(ValueError):
        f.padded(1)


def test_arithmetic_zero_pads():
    f = FunctionRep([1.0, 1.0, 1.0])
    g = FunctionRep([1.0])
    assert (f - g).coeffs.tolist() == [0.0, 1.0, 1.0]
    assert (g - f).coeffs.tolist() == [0.0, -1.0, -1.0]


def test_evaluate_known_values():
    root2 = np.sqrt(2.0)
    assert evaluate_on_grid(FunctionRep([1.0]), 3)[0] == pytest.approx(root2)
    assert evaluate_on_grid(FunctionRep([1.0]), 3)[1] == pytest.approx(0.0, abs=1e-12)
    # second basis function has a full period, so it returns to sqrt(2) at t=1
    assert evaluate_on_grid(FunctionRep([0.0, 1.0]), 2)[-1] == pytest.approx(
        root2, abs=1e-12
    )


@given(coeff_lists)
def test_norm_is_sum_of_squares(a):
    f = FunctionRep(a)
    assert norm_sq(f) == pytest.approx(float(np.sum(np.square(a))), rel=1e-12, abs=1e-12)


def test_cubic_decay_norm_approaches_zeta_six():
    # sum k^-6 = pi^6 / 945 = 1.0173430619844... ; K = 10^6 truncation is
    # within 5e-30 of the limit, far under the comparison tolerance
    k = np.arange(1.0, 1e6 + 1.0)
    f = FunctionRep(k**-3.0)
    assert norm_sq(f) == pytest.approx(np.pi**6 / 945.0, abs=1e-12)
    assert norm_sq(f) == pytest.approx(1.017343, abs=5e-7)


def test_basis_orthonormal_under_quadrature():
    """First few basis functions are orthonormal in L2[0,1] (trapezoid check)."""
    t = np.linspace(0.0, 1.0, 20001)
    mat = np.column_stack([evaluate_on_grid(FunctionRep(unit), t.size) for unit in np.eye(5)])
    gram = np.trapezoid(mat[:, :, None] * mat[:, None, :], t, axis=0)
    assert np.allclose(gram, np.eye(5), atol=1e-6)


def test_parseval_on_grid():
    # quadrature of the expanded function reproduces the coefficient norm
    f = FunctionRep([0.7, -0.3, 0.1])
    t = np.linspace(0.0, 1.0, 40001)
    vals = evaluate_on_grid(f, t.size)
    assert np.trapezoid(vals**2, t) == pytest.approx(norm_sq(f), abs=1e-7)


def test_uniform_grid():
    g = uniform_grid(5)
    assert g.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    with pytest.raises(ValueError):
        uniform_grid(1)


def test_evaluate_on_grid_matches_basis():
    f = FunctionRep([2.0, 0.5])
    vals = evaluate_on_grid(f, 11)
    phi1, phi2 = (evaluate_on_grid(FunctionRep(unit), 11) for unit in np.eye(2))
    assert np.allclose(vals, 2.0 * phi1 + 0.5 * phi2)


def test_empty_rep_is_the_zero_function():
    z = FunctionRep([])
    assert z.basis_size == 0
    assert norm_sq(z) == 0.0
    assert (FunctionRep([3.0]) - z).coeffs.tolist() == [3.0]
    assert np.all(evaluate_on_grid(z, 7) == 0.0)
