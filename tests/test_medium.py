import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from slowmol import (
    MediumKind,
    MediumParams,
    StoppedLightError,
    effective_pair_density,
    group_velocity,
    group_velocity_with_decay,
    mapping_coefficient,
    mixing_angle,
    mixing_state,
    slowdown,
    velocity_floor,
)

C = 2.998e8


def params(g_tilde=1.0, n_a=4.0, n_b=1.0, **kw):
    return MediumParams(g_tilde=g_tilde, N_a=n_a, N_b=n_b, **kw)


# ---------------------------------------------------------------- mixing angle

def test_mixing_angle_strong_control_is_transparent():
    p = params()
    gc = p.g_tilde * math.sqrt(p.N_a * p.N_b)
    assert mixing_angle(p, 1e9 * gc) < 1e-8


def test_mixing_angle_equal_coupling_gives_pi_over_4():
    p = params()
    gc = p.g_tilde * math.sqrt(p.N_a * p.N_b)
    assert mixing_angle(p, gc) == pytest.approx(math.pi / 4, abs=1e-15)


def test_mixing_angle_fully_stopped_at_zero_control():
    assert mixing_angle(params(), 0.0) == pytest.approx(math.pi / 2)


def test_mixing_angle_doubly_degenerate_case_is_zero():
    assert mixing_angle(params(n_a=0.0, n_b=0.0), 0.0) == 0.0


def test_mixing_angle_rejects_negative_omega():
    with pytest.raises(ValueError):
        mixing_angle(params(), -1.0)


# -------------------------------------------------------------- group velocity

def test_group_velocity_unit_ratio_halves_c():
    p = params(c=C)
    gc = p.g_tilde * math.sqrt(p.N_a * p.N_b)
    assert group_velocity(p, gc) == pytest.approx(C / 2, rel=1e-14)


def test_group_velocity_no_pairs_is_transparent():
    p = params(n_b=0.0, c=C)
    assert group_velocity(p, 5.0) == C


def test_group_velocity_slowdown_quadruples_when_population_doubles():
    # balanced split: the slowdown term scales with (N/2)^2
    def slowdown(n_total):
        p = params(n_a=n_total / 2, n_b=n_total / 2, c=C)
        return C / group_velocity(p, 3.0) - 1.0

    assert slowdown(2e5) / slowdown(1e5) == pytest.approx(4.0, rel=1e-12)


def test_group_velocity_zero_omega_signals_stopped_light():
    with pytest.raises(StoppedLightError):
        group_velocity(params(), 0.0)


# ------------------------------------------------------------- decay correction

def test_decay_correction_is_identity_without_decay():
    p = params()
    for omega in (0.5, 2.0, 40.0):
        assert group_velocity_with_decay(p, omega) == group_velocity(p, omega)


def test_krb_velocity_floor_half_kilometer_per_second():
    v = group_velocity_with_decay(MediumParams.krb(), 0.0)
    assert v == pytest.approx(524.0, rel=0.01)  # um/us == m/s


def test_decay_velocity_reaches_c_for_strong_control():
    p = MediumParams.krb()
    assert group_velocity_with_decay(p, 1e9) == pytest.approx(p.c, rel=1e-6)


def test_velocity_floor_matches_zero_omega_decay_velocity():
    p = MediumParams.krb()
    assert velocity_floor(p) == group_velocity_with_decay(p, 0.0)


def test_velocity_floor_intermediate_rate_product():
    # direct arithmetic: (2pi*97 Hz) * (2pi*5.7 MHz) in 1/s^2
    p = MediumParams.krb()
    g1, g2 = p.gamma1, p.gamma2
    per_s2 = (g1 * 1e6) * (g2 * 1e6)
    assert per_s2 == pytest.approx(4 * math.pi**2 * 97 * 5.7e6, rel=1e-12)
    assert per_s2 == pytest.approx(2.1827e10, rel=1e-4)


def test_velocity_floor_uncoupled_medium_is_c():
    p = params(g_tilde=0.0, gamma_e=1.0, gamma_g=1.0, c=C)
    assert velocity_floor(p) == C


def test_velocity_floor_requires_decay():
    with pytest.raises(StoppedLightError, match="no decay floor"):
        velocity_floor(params())


# --------------------------------------------------------- mapping coefficient

def test_mapping_initial_stage_is_photonic():
    p = params(L=100.0)
    gc = p.g_tilde * math.sqrt(p.N_a * p.N_b)
    omega0 = 1e6 * gc
    assert abs(mapping_coefficient(p, omega0, omega0)) < 1e-5


def test_mapping_equal_omegas_reduces_to_bare_ratio():
    p = params(L=100.0)
    bare = p.g_tilde / math.sqrt(p.L)
    k = mapping_coefficient(p, 7.0, 7.0)
    assert k == pytest.approx(-bare * math.sqrt(p.N_a * p.N_b) / 7.0, rel=1e-14)


def test_mapping_full_storage_encodes_light_into_molecules():
    # photonic initial stage, control shut down: k*sqrt(L) -> -1
    p = params(L=123.0)
    gc = p.g_tilde * math.sqrt(p.N_a * p.N_b)
    k = mapping_coefficient(p, 1e4 * gc, 0.0)
    assert k * math.sqrt(p.L) == pytest.approx(-1.0, rel=1e-6)


def test_mapping_requires_initial_control():
    with pytest.raises(ValueError, match="initial stage"):
        mapping_coefficient(params(), 0.0, 1.0)


def test_mapping_is_never_positive():
    p = params()
    for om_t in (0.0, 0.3, 5.0):
        assert mapping_coefficient(p, 2.0, om_t) <= 0.0


# ------------------------------------------------------- effective pair density

def test_pair_density_heteronuclear_balanced_example():
    val = effective_pair_density(MediumKind.HETERONUCLEAR_DIMER, 3.0e6, 1.0)
    assert val == pytest.approx(2.25e12, rel=1e-12)


def test_pair_density_atomic_is_linear():
    assert effective_pair_density(MediumKind.ATOMIC_EIT, 7.5e5) == 7.5e5


def test_pair_density_vanishes_for_extreme_imbalance():
    n = 3.0e6
    val = effective_pair_density(MediumKind.HETERONUCLEAR_DIMER, n, 1e12)
    assert val < 1e-10 * n**2


def test_pair_density_homonuclear_and_trimer_forms():
    assert effective_pair_density(MediumKind.HOMONUCLEAR_DIMER, 30.0) == 900.0
    assert effective_pair_density(MediumKind.HETERONUCLEAR_TRIMER, 30.0) == 1000.0


def test_pair_density_rejects_bad_inputs():
    with pytest.raises(ValueError):
        effective_pair_density(MediumKind.ATOMIC_EIT, 0.0)
    with pytest.raises(ValueError):
        effective_pair_density(MediumKind.HETERONUCLEAR_DIMER, 1.0, -2.0)


def test_density_exponents():
    assert [k.density_exponent for k in MediumKind] == [1, 2, 2, 3]


@pytest.mark.parametrize("name, value", [
    ("g_tilde", -1.0), ("g_tilde", math.nan), ("L", math.nan), ("c", math.nan),
    ("N_a", math.nan), ("N_b", -1.0), ("gamma_g", math.nan), ("Delta", math.nan),
])
def test_params_reject_negative_coupling_and_nan(name, value):
    with pytest.raises(ValueError, match=name):
        MediumParams(**{"g_tilde": 1.0, name: value})


def test_transparent_medium_is_valid():
    p = params(g_tilde=0.0, c=C)
    assert group_velocity(p, 1.0) == C
    assert mapping_coefficient(p, 1.0, 0.5) == 0.0


# ------------------------------------------------------------ slowdown kernel

def test_slowdown_limits_elementwise():
    gc2 = np.array([4.0, 4.0, 0.0, 0.0])
    omega = np.array([2.0, 0.0, 0.0, 3.0])
    assert slowdown(gc2, omega).tolist() == [1.0, math.inf, 0.0, 0.0]
    assert slowdown(gc2, omega, 12.0).tolist() == [0.25, 1.0 / 3.0, 0.0, 0.0]
    assert float(slowdown(4.0, 0.0, 4.0)) == 1.0


# ------------------------------------------------------------ transversal rates

def test_transversal_rates_zero():
    p = params()
    assert (p.gamma1, p.gamma2) == (0.0, 0.0)


def test_transversal_rates_definition():
    p = params(gamma_e=0.25)
    assert (p.gamma1, p.gamma2) == (0.0, 0.25)


def test_transversal_rates_krb_roundtrip():
    p = MediumParams.krb()
    g1, g2 = p.gamma1, p.gamma2
    assert g1 == pytest.approx(2 * math.pi * 97 * 1e-6, rel=1e-12)
    assert g2 == pytest.approx(2 * math.pi * 5.7e6 * 1e-6, rel=1e-12)


# --------------------------------------------------------------- property tests

finite = dict(allow_nan=False, allow_infinity=False)
st_gt = st.floats(min_value=1e-8, max_value=10.0, **finite)
st_pop = st.floats(min_value=0.0, max_value=1e7, **finite)
st_omega = st.floats(min_value=1e-6, max_value=1e4, **finite)
st_gamma = st.floats(min_value=0.0, max_value=100.0, **finite)


@given(g=st_gt, n_a=st_pop, n_b=st_pop, omega=st_omega)
def test_velocity_is_in_range_and_inverts_exactly(g, n_a, n_b, omega):
    p = params(g_tilde=g, n_a=n_a, n_b=n_b, c=C)
    v = group_velocity(p, omega)
    assert 0.0 < v <= C
    # the subtraction c/v - 1 reintroduces rounding at the scale of 1
    assert C / v - 1.0 == pytest.approx(p.pair_coupling_sq / omega**2,
                                        rel=1e-12, abs=1e-12)


@given(g=st_gt, n_a=st_pop, n_b=st_pop,
       om1=st_omega, om2=st_omega)
def test_velocity_monotone_in_control(g, n_a, n_b, om1, om2):
    p = params(g_tilde=g, n_a=n_a, n_b=n_b, c=C)
    lo, hi = sorted((om1, om2))
    assert group_velocity(p, lo) <= group_velocity(p, hi)


@given(g=st_gt, n_a=st_pop, n_b=st_pop, omega=st_omega,
       ge=st_gamma, gg=st_gamma)
def test_decay_never_slows_light_further(g, n_a, n_b, omega, ge, gg):
    p_ideal = params(g_tilde=g, n_a=n_a, n_b=n_b, c=C)
    p_decay = params(g_tilde=g, n_a=n_a, n_b=n_b, c=C, gamma_e=ge, gamma_g=gg)
    assert group_velocity_with_decay(p_decay, omega) >= group_velocity(p_ideal, omega)


@given(g=st_gt, n_a=st_pop, n_b=st_pop, omega=st_omega)
def test_mixing_state_consistency(g, n_a, n_b, omega):
    p = params(g_tilde=g, n_a=n_a, n_b=n_b, c=C)
    # one ulp of the angle near pi/2 dominates tan/cos round-trips, so keep
    # the slowdown ratio in a range where the claim is representable
    assume(p.pair_coupling_sq / omega**2 < 1e6)
    ms = mixing_state(p, omega)
    assert 0.0 <= ms.theta <= math.pi / 2
    assert ms.v_g == pytest.approx(group_velocity(p, omega), rel=1e-10)
    # tan^2(theta) * omega^2 recovers the collective coupling
    assert math.tan(ms.theta) ** 2 * omega**2 == pytest.approx(
        p.pair_coupling_sq, rel=1e-9, abs=1e-12)


@given(eta=st.floats(min_value=1e-3, max_value=1e3, **finite))
def test_balance_maximizes_pair_density(eta):
    n = 3.0e6
    val = effective_pair_density(MediumKind.HETERONUCLEAR_DIMER, n, eta)
    best = effective_pair_density(MediumKind.HETERONUCLEAR_DIMER, n, 1.0)
    assert val <= best * (1.0 + 1e-12)
    if abs(eta - 1.0) > 1e-3:
        assert val < best
    # eta <-> 1/eta symmetry
    mirror = effective_pair_density(MediumKind.HETERONUCLEAR_DIMER, n, 1.0 / eta)
    assert val == pytest.approx(mirror, rel=1e-12)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        MediumParams(g_tilde=1.0, L=-1.0)
    with pytest.raises(ValueError):
        MediumParams(g_tilde=1.0, N_a=-5.0)
    with pytest.raises(ValueError):
        MediumParams(g_tilde=1.0, gamma_e=-0.1)
