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
