import numpy as np
import pytest

from nomasim import db_to_linear
from nomasim.units import require_linear


def test_db_round_trip_scalars():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == pytest.approx(10.0)
    assert db_to_linear(-30.0) == pytest.approx(1e-3)
    assert db_to_linear(20.0) == pytest.approx(100.0)


def test_db_round_trip_arrays():
    x = np.array([1.0, 2.0, 321.0])
    np.testing.assert_allclose(db_to_linear(10.0 * np.log10(x)), x, rtol=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_require_linear_rejects_values_that_leave_float64_range():
    require_linear("x", [-3000.0, 0.0, 3080.0])  # 1e-300 and 1e308 are in range
    for value in (3090.0, -3300.0, [5.0, 1e308]):  # overflow, underflow to 0, one bad entry
        with pytest.raises(ValueError, match="^x must"):
            require_linear("x", value)
