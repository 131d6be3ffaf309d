import numpy as np
import pytest

from nomasim import db_to_linear


def test_db_round_trip_scalars():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == pytest.approx(10.0)
    assert db_to_linear(-30.0) == pytest.approx(1e-3)
    assert db_to_linear(20.0) == pytest.approx(100.0)


def test_db_round_trip_arrays():
    x = np.array([1.0, 2.0, 321.0])
    np.testing.assert_allclose(db_to_linear(10.0 * np.log10(x)), x, rtol=1e-12)
