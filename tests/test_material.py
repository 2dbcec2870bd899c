import numpy as np
import pytest

from fedbht.errors import NotSPDError
from fedbht.material import (
    MaterialModel,
    PerfusionParams,
    PropertyTable,
    TensorPropertyTable,
)


def test_interpolation_midpoint():
    table = PropertyTable([[37.0, 0.53], [65.0, 0.57]])
    assert table.evaluate(51.0) == pytest.approx(0.55, abs=1e-15)


def test_extrapolation_continues_terminal_slope():
    # slope is 0.04 / 28 per degree on both sides of the table
    table = PropertyTable([[37.0, 0.53], [65.0, 0.57]])
    assert table.evaluate(79.0) == pytest.approx(0.59, abs=1e-12)
    assert table.evaluate(23.0) == pytest.approx(0.51, abs=1e-12)


def test_constant_table_is_flat_everywhere():
    table = PropertyTable([[37.0, 1060.0]])
    assert table.is_constant
    np.testing.assert_allclose(table.evaluate(np.array([0.0, 50.0, 120.0])), 1060.0)


def test_multipoint_interior_interpolation():
    table = PropertyTable([[0.0, 1.0], [10.0, 3.0], [20.0, 2.0]])
    xs = np.array([5.0, 15.0])
    np.testing.assert_allclose(table.evaluate(xs), [2.0, 2.5])
    # three points and more stay np.interp's
    xs = np.random.default_rng(3).uniform(0.0, 20.0, 1000)
    assert table.evaluate(xs).tobytes() == np.interp(xs, table.temps, table.values).tobytes()


def interp_with_extrapolation(table, t):
    """The np.interp path: np.interp, then each end's terminal slope."""
    x, v = table.temps, table.values
    out = np.interp(t, x, v)
    lo, hi = t < x[0], t > x[-1]
    out[lo] = v[0] + (v[1] - v[0]) / (x[1] - x[0]) * (t[lo] - x[0])
    out[hi] = v[-1] + (v[-1] - v[-2]) / (x[-1] - x[-2]) * (t[hi] - x[-1])
    return out


def assert_same_bits(actual, expected):
    nan = np.isnan(actual) & np.isnan(expected)
    differ = (actual.view(np.uint64) != expected.view(np.uint64)) & ~nan
    assert not differ.any(), (actual[differ][:5], expected[differ][:5])


@np.errstate(over="ignore")  # at +-1e308 both paths overflow to +-inf alike
def test_linear_table_is_np_interp_bit_for_bit():
    rng = np.random.default_rng(30)
    for _ in range(300):
        x0 = rng.uniform(-50.0, 100.0)
        x1 = x0 + 10.0 ** rng.uniform(-3.0, 3.0)
        v0, v1 = rng.uniform(-5.0, 5.0, 2) * 10.0 ** rng.integers(-3, 4, 2)
        table = PropertyTable([[x0, v0], [x1, v1]])
        assert table._line_slope is not None  # the line path is the one tested
        edges = []
        for x in (x0, x1):
            up, down = np.full(4, x), np.full(4, x)
            for i in range(1, 4):
                up[i] = np.nextafter(up[i - 1], np.inf)
                down[i] = np.nextafter(down[i - 1], -np.inf)
            edges += [up, down]
        t = np.concatenate(edges + [
            rng.uniform(x0, x1, 50),
            rng.uniform(x0 - 200.0, x1 + 200.0, 50),
            [np.inf, -np.inf, 1e308, -1e308, 0.0, -0.0, np.nan],
        ])
        # NaNs among values past x1: a max() guard would skip the right end
        mixed = np.array([x1 + 1.0, np.nan, x1, x1 + 1e-9, np.nan])
        for values in (t, mixed, rng.permutation(t)):
            assert_same_bits(table.evaluate(values), interp_with_extrapolation(table, values))


@pytest.mark.parametrize("points", [
    [[0.0, -0.0], [1.0, 2.0]],  # the line's v0 + 0 would give +0.0
    [[0.0, -2.0], [1.0, -0.0]],  # and v1 + 0
    [[-1e308, 1.0], [1e308, 2.0]],  # the span overflows
    [[0.0, -1e308], [1e-300, 1e308]],  # the slope overflows
])
@np.errstate(over="ignore")
def test_tables_whose_line_differs_keep_np_interp(points):
    table = PropertyTable(points)
    assert table._line_slope is None
    t = np.array([-1e308, -1.0, 0.0, 5e-301, 1e-300, 0.5, 1.0, 2.0, 9e307, 1e308, np.nan])
    assert_same_bits(table.evaluate(t), interp_with_extrapolation(table, t))


def test_linear_table_scalar_input_returns_a_float():
    table = PropertyTable([[37.0, 0.53], [65.0, 0.57]])
    for t in (51.0, 65.0, 80.0, np.float64(20.0), np.array(40.0)):
        value = table.evaluate(t)
        assert type(value) is float
        assert value == interp_with_extrapolation(table, np.array([float(t)]))[0]


def test_breakpoints_must_increase():
    with pytest.raises(ValueError):
        PropertyTable([[37.0, 1.0], [37.0, 2.0]])
    with pytest.raises(ValueError):
        PropertyTable([[40.0, 1.0], [37.0, 2.0]])


def test_evaluation_counter():
    table = PropertyTable([[37.0, 0.53], [65.0, 0.57]])
    start = table.evaluations
    table.evaluate(40.0)
    table.evaluate(np.array([40.0, 50.0, 60.0]))
    assert table.evaluations == start + 2


def test_tensor_table_symmetric_spd():
    tensor = TensorPropertyTable({
        "xx": [[37.0, 0.53]], "yy": [[37.0, 0.50]], "zz": [[37.0, 0.55]],
        "xy": [[37.0, 0.02]], "xz": [[37.0, 0.01]], "yz": [[37.0, 0.015]],
    })
    d = tensor.evaluate(42.0)
    assert d.shape == (3, 3)
    np.testing.assert_allclose(d, d.T)
    d_batch = tensor.evaluate(np.array([37.0, 50.0]))
    assert d_batch.shape == (2, 3, 3)


def test_material_rejects_indefinite_conductivity():
    tensor = TensorPropertyTable({
        "xx": [[37.0, 0.1]], "yy": [[37.0, 0.1]], "zz": [[37.0, 0.1]],
        "xy": [[37.0, 0.5]], "xz": [[37.0, 0.0]], "yz": [[37.0, 0.0]],
    })
    with pytest.raises(NotSPDError):
        MaterialModel(
            density=PropertyTable.constant(1000.0),
            specific_heat=PropertyTable.constant(3500.0),
            conductivity=tensor,
        )


def test_material_rejects_nonpositive_scalar_inside_range():
    # crosses zero at 60 degrees, inside the validation window
    falling = PropertyTable([[0.0, 0.6], [60.0, 0.0]])
    with pytest.raises(Exception):
        MaterialModel(
            density=PropertyTable.constant(1000.0),
            specific_heat=PropertyTable.constant(3500.0),
            conductivity=falling,
        )


def test_material_rejects_a_dip_between_grid_points():
    # negative only near 51 degrees, between any fixed sampling of the range
    dip = PropertyTable([[0.0, 1000.0], [51.0, -5.0], [52.0, 1000.0]])
    assert dip.evaluate(51.0) == -5.0
    with pytest.raises(ValueError, match=r"density must stay positive .* \(fails at 51 C\)"):
        MaterialModel(density=dip, specific_heat=PropertyTable.constant(3500.0))


def test_material_rejects_a_tensor_dip_between_grid_points():
    # the off-diagonal peaks at 51 degrees, where the tensor is indefinite,
    # and is zero outside 50.5..51.5
    tensor = TensorPropertyTable({
        "xx": [[37.0, 0.1]], "yy": [[37.0, 0.1]], "zz": [[37.0, 0.1]],
        "xy": [[0.0, 0.0], [50.5, 0.0], [51.0, 0.5], [51.5, 0.0], [120.0, 0.0]],
    })
    with pytest.raises(NotSPDError, match="at 51 C"):
        MaterialModel(density=PropertyTable.constant(1000.0),
                      specific_heat=PropertyTable.constant(3500.0), conductivity=tensor)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_tables_must_be_finite(value):
    with pytest.raises(ValueError, match="finite"):
        PropertyTable.constant(value)
    with pytest.raises(ValueError, match="finite"):
        PropertyTable([[37.0, 1.0], [value, 2.0]])


def test_isotropy_flag(simple_material):
    assert simple_material.isotropic
    k = simple_material.conductivity_matrix(40.0)
    np.testing.assert_allclose(k, np.eye(3))


def test_perfusion_validation():
    PerfusionParams(w_b=0.5, c_b=3617.0, T_a=37.0, Q_met=400.0)
    with pytest.raises(ValueError):
        PerfusionParams(w_b=-0.1, c_b=3617.0, T_a=37.0, Q_met=0.0)
    with pytest.raises(ValueError):
        PerfusionParams(w_b=0.5, c_b=-1.0, T_a=37.0, Q_met=0.0)
