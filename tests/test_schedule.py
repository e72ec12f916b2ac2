import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from slowmol import ControlSchedule, Tabulated, TanhRamp, standard_storage_schedule


def test_plateau_value():
    sched = standard_storage_schedule()
    assert sched.plateau == pytest.approx(10 * math.pi)


def test_control_vanishes_mid_storage():
    sched = standard_storage_schedule()
    assert sched.omega(70.0) < 1e-4 * sched.plateau


def test_control_recovers_after_retrieval_ramp():
    sched = standard_storage_schedule()
    assert sched.omega(1e4) == pytest.approx(10 * math.pi, rel=1e-12)


def test_initial_value_direct_evaluation():
    # 10*pi * (1 - 0.5*tanh(-2.25) + 0.5*tanh(-18.75))
    expected = 10 * math.pi * (1 - 0.5 * math.tanh(-2.25) + 0.5 * math.tanh(-18.75))
    sched = standard_storage_schedule()
    assert sched.omega(0.0) == pytest.approx(expected, rel=1e-14)
    assert sched.omega(0.0) == pytest.approx(10 * math.pi * 0.98901, rel=1e-4)


def test_minimum_is_deep_over_the_run():
    sched = standard_storage_schedule()
    t = np.linspace(0.0, 140.0, 28001)
    om = sched.omega(t)
    assert np.min(om) < 1e-4 * sched.plateau
    assert np.all(om >= 0.0)


@given(t=st.floats(min_value=-50.0, max_value=500.0,
                   allow_nan=False, allow_infinity=False))
def test_tanh_ramp_is_nonnegative_everywhere(t):
    assert standard_storage_schedule().omega(t) >= 0.0


def test_tabulated_interpolates_and_clamps():
    sched = ControlSchedule.tabulated([0.0, 1.0, 3.0], [2.0, 4.0, 0.0])
    assert sched.omega(0.5) == pytest.approx(3.0)
    assert sched.omega(2.0) == pytest.approx(2.0)
    assert sched.omega(-1.0) == 2.0   # clamped to the first sample
    assert sched.omega(10.0) == 0.0   # clamped to the last sample
    assert sched.plateau == 4.0


def test_tabulated_vector_evaluation():
    sched = ControlSchedule.tabulated([0.0, 2.0], [0.0, 2.0])
    np.testing.assert_allclose(sched.omega(np.array([0.0, 1.0, 2.0])),
                               [0.0, 1.0, 2.0])


def test_tabulated_rejects_bad_tables():
    with pytest.raises(ValueError):
        ControlSchedule.tabulated([0.0, 0.0], [1.0, 1.0])  # not increasing
    with pytest.raises(ValueError):
        ControlSchedule.tabulated([0.0, 1.0], [1.0, -1.0])  # negative amplitude
    with pytest.raises(ValueError):
        ControlSchedule.tabulated([0.0], [1.0])  # too short


def test_tanh_ramp_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ControlSchedule.tanh_ramp(omega0=-1.0, t_down=0.0, t_up=1.0, rate=1.0)
    with pytest.raises(ValueError):
        ControlSchedule.tanh_ramp(omega0=1.0, t_down=2.0, t_up=1.0, rate=1.0)
    with pytest.raises(ValueError):
        ControlSchedule.tanh_ramp(omega0=1.0, t_down=0.0, t_up=1.0, rate=0.0)


def test_each_form_is_a_schedule_that_shares_the_one_omega():
    ramp = standard_storage_schedule()
    table = ControlSchedule.tabulated([0.0, 1.0, 3.0], [2.0, 4.0, 0.0])
    assert isinstance(ramp, TanhRamp) and isinstance(table, Tabulated)
    assert TanhRamp.omega is Tabulated.omega is ControlSchedule.omega
    assert (ramp.times, ramp.values) == ((), ())   # a ramp has no knots
    assert (table.times, table.values) == ((0.0, 1.0, 3.0), (2.0, 4.0, 0.0))
    for sched in (ramp, table):
        assert type(sched.omega(0.5)) is float
        assert sched.omega([0.0, 0.5]).dtype == np.float64
