import math
import warnings

import numpy as np
import pytest

from slowmol import (
    ConfigError,
    ControlSchedule,
    Grid1D,
    MeanFieldState,
    MediumParams,
    NumericsError,
    SignalEnvelope,
    conserved_charges,
    group_velocity,
    integrate_mean_field,
    pulse_center,
    storage_fidelity,
    wea_propagate,
)
from slowmol import dynamics
from slowmol.dynamics import GaussianPulse, gauss_legendre, half_step_substeps, integrate
from conftest import constant_schedule, desk_pulse


# ------------------------------------------------------------------- grid

def test_grid_spacing_and_cfl():
    g = Grid1D(z_min=0.0, z_max=15.0, n_z=16, dt=0.1, t_end=1.0)
    assert g.dz == pytest.approx(1.0)
    assert g.cfl(5.0) == pytest.approx(0.5)


def test_grid_for_speed_unit_cfl():
    g = Grid1D.for_speed(0.0, 100.0, 101, c=4.0, t_end=1.0)
    assert g.cfl(4.0) == pytest.approx(1.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(z_min=0.0, z_max=1.0, n_z=8, dt=0.1, t_end=1.0)
    with pytest.raises(ValueError):
        Grid1D(z_min=1.0, z_max=0.0, n_z=32, dt=0.1, t_end=1.0)
    with pytest.raises(ValueError):
        Grid1D(z_min=0.0, z_max=1.0, n_z=32, dt=-0.1, t_end=1.0)
    with pytest.raises(ValueError):
        Grid1D.for_speed(0.0, 1.0, 32, c=1.0, t_end=1.0, cfl=1.5)


def test_cfl_violation_rejected_at_setup(desk_medium):
    grid = Grid1D(z_min=0.0, z_max=200.0, n_z=256,
                  dt=1.0, t_end=5.0)  # c*dt/dz ~ 2.5
    s0 = MeanFieldState.uniform_medium(grid, desk_medium)
    with pytest.raises(ConfigError, match="CFL"):
        integrate_mean_field(s0, constant_schedule(1.0), desk_medium, grid)


def test_absurd_step_count_rejected():
    p = MediumParams(g_tilde=5e-5)  # real vacuum speed
    grid = Grid1D.for_speed(0.0, 1000.0, 1024, c=p.c, t_end=140.0)
    s0 = MeanFieldState.uniform_medium(grid, p)
    with pytest.raises(ConfigError, match="desk"):
        integrate_mean_field(s0, constant_schedule(1.0), p, grid)


# --------------------------------------------------------------- envelopes

def test_gaussian_envelope_samples_match_descriptor(desk_grid_small):
    env = desk_pulse(desk_grid_small, center=50.0, width=4.0, amplitude=0.5)
    z = desk_grid_small.z
    np.testing.assert_allclose(env.samples,
                               0.5 * np.exp(-((z - 50.0) ** 2) / 32.0), atol=1e-15)
    np.testing.assert_allclose(env.value_at(np.array([50.0]))[0], 0.5)


def test_far_off_pulse_samples_zero_without_a_warning():
    pulse = GaussianPulse(center=1e300, rms_width=8.0, amplitude=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = pulse.sample(np.linspace(0.0, 200.0, 16))
    assert np.array_equal(out, np.zeros(16, dtype=complex))


def test_envelope_interpolation_without_descriptor(desk_grid_small):
    z = desk_grid_small.z
    env = SignalEnvelope(z=z, samples=np.sin(z / 20.0) + 0j)
    mid = 0.5 * (z[10] + z[11])
    expected = 0.5 * (env.samples[10] + env.samples[11])
    assert env.value_at(np.array([mid]))[0] == pytest.approx(expected)
    assert env.value_at(np.array([z[0] - 5.0]))[0] == 0.0


def test_envelope_rejects_nonfinite(desk_grid_small):
    samples = np.ones(desk_grid_small.n_z, dtype=complex)
    samples[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        SignalEnvelope(z=desk_grid_small.z, samples=samples)


def test_wea_admissibility(desk_medium, desk_grid_small):
    ok = desk_pulse(desk_grid_small, amplitude=1.0)
    assert ok.photon_density_ratio(desk_medium) == pytest.approx(1e-3)
    assert ok.wea_admissible(desk_medium)
    hot = desk_pulse(desk_grid_small, amplitude=10.0)
    assert not hot.wea_admissible(desk_medium)


# ---------------------------------------------------------- conserved charges

def test_charges_of_vacuum(desk_medium, desk_grid_small):
    n = desk_grid_small.n_z
    zero = np.zeros(n, dtype=complex)
    s = MeanFieldState(t=0.0, z=desk_grid_small.z, E=zero, phi_a=zero,
                       phi_b=zero, phi_e=zero, phi_g=zero)
    assert conserved_charges(s, desk_medium) == (0.0, 0.0, 0.0)


def test_charges_of_fresh_medium(desk_medium, desk_grid_small):
    s = MeanFieldState.uniform_medium(desk_grid_small, desk_medium)
    q1, q2, q3 = conserved_charges(s, desk_medium)
    # rectangle sum over the inclusive grid covers n_z*dz, one half cell
    # beyond the span at each end; the exact discrete value is N*(n_z*dz)/L
    cells = desk_grid_small.n_z * desk_grid_small.dz
    assert q1 == pytest.approx(desk_medium.N_a * cells / desk_medium.L, rel=1e-12)
    assert q2 == pytest.approx(desk_medium.N_b * cells / desk_medium.L, rel=1e-12)
    assert q1 == pytest.approx(desk_medium.N_a, rel=2.0 / desk_grid_small.n_z)
    assert q3 == 0.0


# ------------------------------------------------------------- wea_propagate

def test_wea_constant_control_translates_without_reshaping(desk_medium, desk_grid_small):
    env = desk_pulse(desk_grid_small)
    om = 10 * math.pi
    t = 6.0
    out = wea_propagate(env, constant_schedule(om), desk_medium, t)
    v = group_velocity(desk_medium, om)
    assert out.descriptor.center == pytest.approx(40.0 + v * t, rel=1e-9)
    assert out.descriptor.rms_width == env.descriptor.rms_width
    assert out.descriptor.amplitude == pytest.approx(1.0)
    np.testing.assert_allclose(
        out.samples, env.descriptor.sample(desk_grid_small.z - v * t), atol=1e-12)


def test_wea_amplitude_factor_is_unity_when_schedule_returns(desk_medium):
    om0 = 10 * math.pi
    sched = ControlSchedule.tabulated([0.0, 5.0, 10.0], [om0, 0.3 * om0, om0])
    grid = Grid1D.for_speed(0.0, 400.0, 128, c=desk_medium.c, t_end=10.0)
    env = desk_pulse(grid)
    out = wea_propagate(env, sched, desk_medium, 10.0)
    assert out.descriptor.amplitude == pytest.approx(1.0, rel=1e-12)


def test_wea_storage_translation_converges_and_amplitude_dies(desk_medium):
    from slowmol import standard_storage_schedule
    sched = standard_storage_schedule()
    grid = Grid1D.for_speed(0.0, 400.0, 128, c=desk_medium.c, t_end=140.0)
    env = desk_pulse(grid)
    mid1 = wea_propagate(env, sched, desk_medium, 60.0)
    mid2 = wea_propagate(env, sched, desk_medium, 100.0)
    # light is parked: residual travel far below one grid cell
    assert mid2.descriptor.center - mid1.descriptor.center < 1e-3
    assert abs(mid1.descriptor.amplitude) < 1e-4

    # independent check of the quadrature: dense trapezoid of v_g
    tt = np.linspace(0.0, 60.0, 600001)
    om = np.asarray(sched.omega(tt))
    gc2 = desk_medium.pair_coupling_sq
    vg = desk_medium.c / (1.0 + gc2 / om**2)
    dense = np.trapezoid(vg, tt)
    assert mid1.descriptor.center - 40.0 == pytest.approx(dense, rel=1e-7)


def test_wea_on_a_table_is_one_gauss_legendre_pass_over_the_knots(desk_medium):
    # reference: the scalar loop over the knot panels below t = 60
    sched = ControlSchedule.tabulated([0.0, 20.0, 50.0, 90.0, 140.0],
                                      [30.0, 3.0, 0.5, 2.0, 30.0])
    grid = Grid1D.for_speed(0.0, 400.0, 128, c=desk_medium.c, t_end=60.0)
    out = wea_propagate(desk_pulse(grid), sched, desk_medium, 60.0)
    nodes, weights = np.polynomial.legendre.leggauss(12)
    ref = 0.0
    for lo, hi in [(0.0, 20.0), (20.0, 50.0), (50.0, 60.0)]:
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        ref += half * sum(w * group_velocity(desk_medium, sched.omega(mid + half * x))
                          for x, w in zip(nodes, weights))
    assert out.descriptor.center - 40.0 == pytest.approx(ref, rel=1e-13)


def _log_cosh(x):
    return abs(x) + math.log1p(math.exp(-2.0 * abs(x))) - math.log(2.0)


def test_quadrature_matches_closed_form_on_a_steep_ramp():
    # int_0^20 tanh(5 (t - 7)) dt = [log cosh(5 (t - 7))] / 5
    exact = (_log_cosh(5.0 * 13.0) - _log_cosh(-5.0 * 7.0)) / 5.0
    got = integrate(lambda t: np.tanh(5.0 * (t - 7.0)), 0.0, 20.0, 1e-8)
    assert got == pytest.approx(exact, rel=1e-10)
    assert gauss_legendre(np.cos, [0.0, 0.5 * math.pi]) == pytest.approx(1.0, rel=1e-14)


def test_quadrature_that_never_converges_raises():
    with pytest.raises(NumericsError, match="not converged"):
        integrate(lambda t: np.full_like(t, np.nan), 0.0, 1.0, 1e-8)


def test_wea_rejects_negative_time(desk_medium, desk_grid_small):
    with pytest.raises(ValueError):
        wea_propagate(desk_pulse(desk_grid_small), constant_schedule(1.0),
                      desk_medium, -1.0)


# -------------------------------------------------------------- integrator

def test_decoupled_signal_advects_at_c_and_matter_dephases():
    p = MediumParams(g_tilde=0.0, L=200.0, c=2.0, N_a=64.0, N_b=64.0,
                     gamma_a=0.05, Delta=0.4, delta=0.3)
    grid = Grid1D.for_speed(0.0, 200.0, 256, c=p.c, t_end=8.0)
    env = desk_pulse(grid)
    s0 = MeanFieldState.uniform_medium(grid, p, env)
    s0.phi_e = 0.1 * np.ones(grid.n_z, dtype=complex)
    snaps = integrate_mean_field(s0, constant_schedule(0.0), p, grid,
                                 snapshot_stride=1000, substeps=8)
    last = snaps[-1]
    steps = int(round(last.t / grid.dt))
    expected = np.zeros(grid.n_z, dtype=complex)
    expected[steps:] = env.samples[:-steps]
    np.testing.assert_allclose(last.E, expected, atol=1e-12)
    # matter fields only rotate and decay
    np.testing.assert_allclose(
        last.phi_a, s0.phi_a * np.exp((-1j * p.delta - p.gamma_a) * last.t),
        rtol=1e-8)
    np.testing.assert_allclose(
        last.phi_e, s0.phi_e * np.exp(-1j * p.Delta * last.t), rtol=1e-8)


def test_integrator_matches_wea_oracle_at_unit_scale(desk_medium):
    om = 10 * math.pi
    # collective coupling pi -> 0.01 slowdown ratio is too weak to measure
    # at this size, so strengthen the medium for the unit test
    p = MediumParams(g_tilde=math.pi / 100.0, L=200.0, c=2.0,
                     N_a=1000.0, N_b=1000.0)
    grid = Grid1D.for_speed(0.0, 200.0, 512, c=p.c, t_end=12.0)
    env = desk_pulse(grid, amplitude=0.3)
    s0 = MeanFieldState.polariton_state(grid, p, env, om)
    snaps = integrate_mean_field(s0, constant_schedule(om), p, grid,
                                 snapshot_stride=1000)
    v = group_velocity(p, om)
    travel = pulse_center(grid.z, snaps[-1].E) - pulse_center(grid.z, snaps[0].E)
    assert travel == pytest.approx(v * snaps[-1].t, rel=0.02)


def test_integrator_conserves_charges_without_decay(desk_medium):
    grid = Grid1D.for_speed(0.0, 200.0, 256, c=desk_medium.c, t_end=8.0)
    env = desk_pulse(grid)
    om = 10 * math.pi
    s0 = MeanFieldState.polariton_state(grid, desk_medium, env, om)
    snaps = integrate_mean_field(s0, constant_schedule(om), desk_medium, grid,
                                 snapshot_stride=10)
    q0 = conserved_charges(snaps[0], desk_medium)
    for s in snaps[1:]:
        q = conserved_charges(s, desk_medium)
        assert q[0] == pytest.approx(q0[0], rel=1e-8)
        assert q[1] == pytest.approx(q0[1], rel=1e-8)
        assert q[2] + s.boundary_photon_flux == pytest.approx(q0[2], rel=1e-6)


def test_integrator_diverges_loudly_with_too_few_substeps(desk_medium):
    grid = Grid1D.for_speed(0.0, 200.0, 256, c=desk_medium.c, t_end=30.0)
    env = desk_pulse(grid)
    s0 = MeanFieldState.polariton_state(grid, desk_medium, env, 800.0)
    with pytest.raises(NumericsError, match="non-finite"):
        integrate_mean_field(s0, constant_schedule(800.0), desk_medium, grid,
                             substeps=1)


def _five_array_reference(s0, sched, p, grid, m, advect, stride):
    """The integrator written with one array per field: RK4 half-steps
    Strang-split around the same advection, the flux leaving through the
    right edge; (t, flux, fields) per snapshot."""
    lam = grid.cfl(p.c)
    half_dt = 0.5 * grid.dt
    g_field = p.g_tilde * math.sqrt(p.L)
    g_signal = g_field * p.L
    dec_a = -1j * p.delta - p.gamma_a
    dec_b = -p.gamma_b
    dec_e = -1j * p.Delta - p.gamma_e
    dec_g = -p.gamma_g
    E, a, b, e, g = (f.copy() for f in (s0.E, s0.phi_a, s0.phi_b, s0.phi_e, s0.phi_g))
    flux = 0.0

    def rhs(om, E, a, b, e, g):
        hyb = np.conj(a) * np.conj(b) * e
        dE = 1j * g_signal * hyb
        conjE = np.conj(E)
        da = dec_a * a + 1j * g_field * conjE * np.conj(b) * e
        db = dec_b * b + 1j * g_field * conjE * np.conj(a) * e
        de = dec_e * e + 1j * g_field * E * a * b + 1j * om * g
        dg = dec_g * g + 1j * om * e
        return dE, da, db, de, dg

    def source_half(t0):
        nonlocal E, a, b, e, g
        h = half_dt / m
        om_stage = np.asarray(sched.omega(t0 + 0.5 * h * np.arange(2 * m + 1)), dtype=float)
        for j in range(m):
            om0 = om_stage[2 * j]
            om1 = om_stage[2 * j + 1]
            om2 = om_stage[2 * j + 2]
            k1 = rhs(om0, E, a, b, e, g)
            k2 = rhs(om1, E + 0.5 * h * k1[0], a + 0.5 * h * k1[1],
                     b + 0.5 * h * k1[2], e + 0.5 * h * k1[3], g + 0.5 * h * k1[4])
            k3 = rhs(om1, E + 0.5 * h * k2[0], a + 0.5 * h * k2[1],
                     b + 0.5 * h * k2[2], e + 0.5 * h * k2[3], g + 0.5 * h * k2[4])
            k4 = rhs(om2, E + h * k3[0], a + h * k3[1],
                     b + h * k3[2], e + h * k3[3], g + h * k3[4])
            E = E + (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            a = a + (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            b = b + (h / 6.0) * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
            e = e + (h / 6.0) * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3])
            g = g + (h / 6.0) * (k1[4] + 2 * k2[4] + 2 * k3[4] + k4[4])

    snaps = [(s0.t, flux, E.copy(), a.copy(), b.copy(), e.copy(), g.copy())]
    n_steps = int(round(grid.t_end / grid.dt))
    for n in range(n_steps):
        t0 = s0.t + n * grid.dt
        source_half(t0)
        out_val = E[-1]
        E = advect(E, lam)
        flux += lam * (grid.dz / p.L) * abs(out_val) ** 2
        source_half(t0 + half_dt)
        if (n + 1) % stride == 0 or n == n_steps - 1:
            snaps.append((t0 + grid.dt, flux, E.copy(), a.copy(), b.copy(), e.copy(), g.copy()))
    return snaps


@pytest.mark.parametrize("advection, cfl", [("upwind", 1.0), ("muscl", 0.5)])
def test_stacked_state_matches_the_five_array_reference_exactly(advection, cfl):
    p = MediumParams(g_tilde=0.05, L=64.0, c=2.0, N_a=100.0, N_b=80.0,
                     gamma_a=0.01, gamma_b=0.02, gamma_e=0.3, gamma_g=0.005,
                     Delta=0.4, delta=-0.2)
    dt = cfl * (64.0 / 63) / p.c
    grid = Grid1D.for_speed(0.0, 64.0, 64, c=p.c, t_end=20 * dt, cfl=cfl)
    sched = ControlSchedule.tanh_ramp(omega0=3.0, t_down=2.0, t_up=6.0, rate=1.0)
    s0 = MeanFieldState.polariton_state(grid, p, desk_pulse(grid, 20.0, 4.0, 0.5), 3.0)

    advect = dynamics._advect_upwind if advection == "upwind" else dynamics._advect_muscl
    ref = _five_array_reference(s0, sched, p, grid, 3, advect, 3)
    snaps = integrate_mean_field(s0, sched, p, grid, snapshot_stride=3, substeps=3,
                                 advection=advection)
    assert len(snaps) == len(ref) == 8
    for snap, (t, flux, *fields) in zip(snaps, ref):
        assert (snap.t, snap.boundary_photon_flux) == (t, flux)
        for name, want in zip(("E", "phi_a", "phi_b", "phi_e", "phi_g"), fields):
            assert np.array_equal(getattr(snap, name), want), name

    if advection == "upwind":
        # the exact shift moves a bad value downstream only: cell 40 is the first
        s0.phi_g[40] = math.nan
        with pytest.raises(NumericsError, match="grid index 40$"):
            integrate_mean_field(s0, sched, p, grid, substeps=3, advection=advection)


def test_stage_buffers_leak_into_no_state_or_snapshot():
    p = MediumParams(g_tilde=0.05, L=64.0, c=2.0, N_a=100.0, N_b=80.0,
                     gamma_e=0.3, Delta=0.4, delta=-0.2)
    grid = Grid1D.for_speed(0.0, 64.0, 64, c=p.c, t_end=10.0)
    sched = ControlSchedule.tanh_ramp(omega0=3.0, t_down=2.0, t_up=6.0, rate=1.0)
    s0 = MeanFieldState.polariton_state(grid, p, desk_pulse(grid, 20.0, 4.0, 0.5), 3.0)
    names = ("E", "phi_a", "phi_b", "phi_e", "phi_g")
    before = [getattr(s0, name).copy() for name in names]
    first = integrate_mean_field(s0, sched, p, grid, snapshot_stride=3)
    for name, want in zip(names, before):
        assert np.array_equal(getattr(s0, name), want), name
    assert len(first) == 8
    for i, a in enumerate(first):
        for b in first[i + 1:]:
            for x in names:
                for y in names:
                    assert not np.shares_memory(getattr(a, x), getattr(b, y)), (x, y)
    second = integrate_mean_field(s0, sched, p, grid, snapshot_stride=3)
    for a, b in zip(first, second):
        assert (a.t, a.boundary_photon_flux) == (b.t, b.boundary_photon_flux)
        for name in names:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


@pytest.mark.parametrize("stride", [0, -3])
def test_a_snapshot_stride_below_1_is_refused(stride):
    p = MediumParams(g_tilde=0.05, L=64.0, c=2.0, N_a=100.0, N_b=80.0)
    grid = Grid1D.for_speed(0.0, 64.0, 64, c=p.c, t_end=10.0)
    sched = ControlSchedule.tanh_ramp(omega0=3.0, t_down=2.0, t_up=6.0, rate=1.0)
    s0 = MeanFieldState.polariton_state(grid, p, desk_pulse(grid, 20.0, 4.0, 0.5), 3.0)
    with pytest.raises(ConfigError, match="snapshot stride must be at least 1"):
        integrate_mean_field(s0, sched, p, grid, snapshot_stride=stride)


# ------------------------------------------------------- substep sizing

def _old_rule_count(p, omega, half_dt):
    """Substeps of one half-step under the run-wide rule, at control ``omega``."""
    w = (math.hypot(omega, math.sqrt(p.pair_coupling_sq)) + abs(p.Delta) + abs(p.delta)
         + max(p.gamma_a, p.gamma_b, p.gamma_e, p.gamma_g))
    return max(1, math.ceil(half_dt * w / 0.1))


def test_auto_substeps_under_constant_control_match_the_old_rule_exactly():
    p = MediumParams(g_tilde=0.05, L=64.0, c=2.0, N_a=100.0, N_b=80.0,
                     gamma_e=0.3, Delta=0.4, delta=-0.2)
    grid = Grid1D.for_speed(0.0, 64.0, 64, c=p.c, t_end=10.0)
    om = 3.0
    sched = constant_schedule(om)
    m = _old_rule_count(p, om, 0.5 * grid.dt)
    assert m > 1
    assert half_step_substeps(0.0, sched, p, grid).tolist() == [m] * (2 * 20)
    s0 = MeanFieldState.polariton_state(grid, p, desk_pulse(grid, 20.0, 4.0, 0.5), om)
    auto = integrate_mean_field(s0, sched, p, grid, snapshot_stride=3)
    fixed = integrate_mean_field(s0, sched, p, grid, snapshot_stride=3, substeps=m)
    assert len(auto) == len(fixed) == 8
    for a, b in zip(auto, fixed):
        assert (a.t, a.boundary_photon_flux) == (b.t, b.boundary_photon_flux)
        for name in ("E", "phi_a", "phi_b", "phi_e", "phi_g"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_auto_substeps_follow_the_storage_ramp_on_the_desk_grid(desk_medium):
    from slowmol import standard_storage_schedule
    grid = Grid1D.for_speed(0.0, 200.0, 1024, c=desk_medium.c, t_end=140.0)
    counts = half_step_substeps(0.0, standard_storage_schedule(), desk_medium, grid)
    assert len(counts) == 2864
    assert (counts[0], counts[-1], counts.min(), counts.sum()) == (16, 16, 2, 13780)
    # 0 selects the automatic counts, as run.substeps = 0 does
    assert np.array_equal(half_step_substeps(0.0, standard_storage_schedule(), desk_medium,
                                             grid, substeps=0), counts)
    # the run-wide rule gave 16 everywhere; an explicit count is used as given
    assert half_step_substeps(0.0, standard_storage_schedule(), desk_medium, grid,
                              substeps=5).tolist() == [5] * 2864


def test_auto_substeps_see_a_table_knot_inside_a_half_step(desk_medium):
    grid = Grid1D.for_speed(0.0, 200.0, 256, c=desk_medium.c, t_end=2.0)
    half_dt = 0.5 * grid.dt
    t_knot = 2.5 * half_dt   # strictly inside half-step 2
    sched = ControlSchedule.tabulated(
        [0.0, t_knot - 0.1 * half_dt, t_knot, t_knot + 0.1 * half_dt, 10.0],
        [1.0, 1.0, 1000.0, 1.0, 1.0])
    counts = half_step_substeps(0.0, sched, desk_medium, grid)
    assert float(sched.omega(2 * half_dt)) == float(sched.omega(3 * half_dt)) == 1.0
    tall = _old_rule_count(desk_medium, 1000.0, half_dt)
    flat = _old_rule_count(desk_medium, 1.0, half_dt)
    assert tall > flat
    assert counts[2] == tall
    assert np.all(np.delete(counts, 2) == flat)


def _recorded_desk_run(desk_medium, monkeypatch, amplitude):
    """The lossless desk store at ``amplitude``: its snapshots, the fixed-rule
    counts of each matter block (the half-step after t = 0, the two half-steps
    around each outer-step boundary, the half-step before the horizon), and
    every (theta, count) the controller asks the split's rule for."""
    from slowmol import standard_storage_schedule
    grid = Grid1D.for_speed(0.0, 200.0, 1024, c=desk_medium.c, t_end=140.0)
    sched = standard_storage_schedule()
    halves = half_step_substeps(0.0, sched, desk_medium, grid)
    fixed = np.concatenate([halves[:1], halves[1:-1:2] + halves[2::2], halves[-1:]])
    rule = dynamics._substeps
    asked = []

    def recording(phase, theta):
        count = rule(phase, theta)
        asked.append((theta, count))
        return count

    monkeypatch.setattr(dynamics, "_substeps", recording)
    s0 = MeanFieldState.polariton_state(grid, desk_medium, desk_pulse(grid, amplitude=amplitude),
                                        float(sched.omega(0.0)))
    snaps = integrate_mean_field(s0, sched, desk_medium, grid, snapshot_stride=20)
    return snaps, fixed, asked


def test_lossless_desk_run_takes_the_substeps_its_drift_allows(desk_medium, monkeypatch):
    snaps, fixed, asked = _recorded_desk_run(desk_medium, monkeypatch, 1.0)
    counts = np.array([c for _, c in asked])
    # one count per matter block: 1,432 outer steps, 1,433 blocks
    assert len(counts) == len(fixed) == 1433
    # measured: 2,287 substeps (3,322 in half-steps, 5,090 with the midpoint
    # control of the coupling)
    assert counts.sum() == snaps[-1].matter_substeps <= 2600
    # between the one-substep floor and the 0.1 rad rule of the block's half-steps
    assert np.all((1 <= counts) & (counts <= fixed))
    assert counts.min() == 1
    assert all(theta >= 0.1 for theta, _ in asked)
    assert asked[0][0] == 0.1 and asked[-1][0] > 0.1
    q1, q2, q3 = dynamics.charge_drifts(snaps, desk_medium)
    assert max(q1, q2, q3) <= 5e-8
    # the split conserves Q3 to rounding; with N_a = N_b, phi_a and phi_b stay
    # equal bit for bit, so Q1 and Q2 drift alike
    assert q3 <= 5e-15
    assert q1 == q2 > 0.0
    # the cumulative count travels with the snapshots
    assert snaps[0].matter_substeps == 0
    assert all(a.matter_substeps < b.matter_substeps for a, b in zip(snaps, snaps[1:]))


def test_lossless_desk_run_at_amplitude_3_takes_the_substeps_its_drift_allows(desk_medium,
                                                                             monkeypatch):
    # measured: 3,578 substeps and a worst drift of 4.3e-8 (4,969 and 2.3e-8 in
    # half-steps, 8,505 and 4.0e-7 with the midpoint control of the coupling)
    snaps, fixed, asked = _recorded_desk_run(desk_medium, monkeypatch, 3.0)
    counts = np.array([c for _, c in asked])
    assert len(counts) == 1433
    assert counts.sum() == snaps[-1].matter_substeps <= 4000
    assert np.all((1 <= counts) & (counts <= fixed))
    q1, q2, q3 = dynamics.charge_drifts(snaps, desk_medium)
    assert max(q1, q2, q3) <= 5e-8
    assert q3 <= 5e-15


def test_halving_the_split_substep_cuts_the_desk_q1_drift_sixteenfold(desk_medium, monkeypatch):
    # the fourth-order analogue of criterion 5: two, then four split substeps per
    # matter block; Q3 stays exact, so only Q1 (and Q2) show the step's error,
    # which the Magnus coupling makes fall as h^4 (measured: 14.75)
    from slowmol import standard_storage_schedule
    grid = Grid1D.for_speed(0.0, 200.0, 1024, c=desk_medium.c, t_end=140.0)
    sched = standard_storage_schedule()
    s0 = MeanFieldState.polariton_state(grid, desk_medium, desk_pulse(grid),
                                        float(sched.omega(0.0)))
    drifts = []
    for m in (2, 4):
        monkeypatch.setattr(dynamics, "_substeps", lambda phase, theta, m=m: m)
        snaps = integrate_mean_field(s0, sched, desk_medium, grid, snapshot_stride=100)
        assert snaps[-1].matter_substeps == 1433 * m
        drifts.append(dynamics.charge_drifts(snaps, desk_medium))
    (q1_coarse, _, q3_coarse), (q1_fine, _, q3_fine) = drifts
    assert max(q3_coarse, q3_fine) <= 1e-12
    assert 12.0 < q1_coarse / q1_fine < 20.0


def test_the_phase_cap_keeps_the_desk_store_on_its_converged_efficiency(desk_medium,
                                                                       monkeypatch):
    # Q1 cannot see the error of a long split substep: without the 1 rad cap the
    # controller runs the Omega0 plateaus at up to one substep per block (W dt
    # about 3 rad) and the efficiency misses (measured: -1.3e-5 uncapped, +3.1e-7
    # capped, against 4 substeps per block, itself -1.8e-8 off the 0.02 rad run)
    from slowmol import run_storage_retrieval, standard_storage_schedule
    grid = Grid1D.for_speed(0.0, 200.0, 1024, c=desk_medium.c, t_end=140.0)
    sched = standard_storage_schedule()

    def efficiency() -> float:
        rep = run_storage_retrieval(desk_medium, sched, desk_pulse(grid), grid,
                                    snapshot_stride=20)
        return rep.scalars["efficiency"]

    capped = efficiency()
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "_SPLIT_PHASE_MAX", 10.0)
        uncapped = efficiency()
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "_substeps", lambda phase, theta: 4)
        converged = efficiency()
    assert abs(uncapped - converged) > 5e-6
    assert abs(capped - converged) <= 5e-7


def test_advection_dissipation_does_not_pin_the_phase_target(desk_medium):
    # MUSCL at cfl = 0.5 dissipates the photon term far beyond the drift budget;
    # only Q1, which advection leaves alone, steers the step, so it still grows
    grid = Grid1D.for_speed(0.0, 200.0, 256, c=desk_medium.c, t_end=20.0, cfl=0.5)
    sched = ControlSchedule.tanh_ramp(omega0=10 * math.pi, t_down=8.0, t_up=25.0, rate=0.5)
    s0 = MeanFieldState.polariton_state(grid, desk_medium, desk_pulse(grid),
                                        float(sched.omega(0.0)))
    snaps = integrate_mean_field(s0, sched, desk_medium, grid, snapshot_stride=50,
                                 advection="muscl")
    assert dynamics.charge_drifts(snaps, desk_medium)[2] > 1e-3
    assert snaps[-1].matter_substeps < half_step_substeps(0.0, sched, desk_medium, grid).sum()


def test_split_snapshots_do_not_disturb_the_run(desk_medium):
    # a snapshot runs the first half of its split block on its own copy, so
    # the stride changes no state: shared snapshot times hold equal fields
    grid = Grid1D.for_speed(0.0, 200.0, 128, c=desk_medium.c, t_end=12.0)
    sched = ControlSchedule.tanh_ramp(omega0=10 * math.pi, t_down=4.0, t_up=9.0, rate=0.5)
    s0 = MeanFieldState.polariton_state(grid, desk_medium, desk_pulse(grid),
                                        float(sched.omega(0.0)))
    every = integrate_mean_field(s0, sched, desk_medium, grid, snapshot_stride=1)
    some = integrate_mean_field(s0, sched, desk_medium, grid, snapshot_stride=4)
    at = {s.t: s for s in every}
    assert len(some) > 2
    for snap in some:
        for name in ("E", "phi_a", "phi_b", "phi_e", "phi_g"):
            assert np.array_equal(getattr(snap, name), getattr(at[snap.t], name)), name
    assert dynamics.charge_drifts(every, desk_medium)[2] <= 1e-12


def test_phase_target_controller_law():
    step = dynamics._next_split_phase
    budget, high = 1e-10, 100.0
    assert step(0.2, budget, budget, high) == 0.2                           # on budget
    assert step(0.2, budget * 1.25**2, budget, high) == pytest.approx(0.16)  # (b/d)^(1/2) = 0.8
    assert step(0.16, budget / 1.25**2, budget, high) == pytest.approx(0.2)
    assert step(0.2, budget / 16, budget, high) == pytest.approx(0.3)       # 4, clipped to 3/2
    assert step(0.28, budget * 16, budget, high) == pytest.approx(0.14)     # 1/4, clipped to 1/2
    assert step(0.1, 0.0, budget, high) == pytest.approx(0.15)              # no drift: 3/2
    assert step(2.0, 0.0, budget, high) == pytest.approx(3.0)               # no fixed cap
    assert step(0.25, 0.0, budget, 0.3) == 0.3     # the phase of one substep per half-step
    assert step(0.1, 1.0, budget, high) == 0.1                              # floored
    assert step(0.2, 0.0, budget, 0.05) == 0.1                              # the floor wins
    # an overflowing charge (inf, or inf - inf) halves the step
    assert step(0.3, math.inf, budget, high) == step(0.3, math.nan, budget, high) == 0.15


# ------------------------------------------------------------ split flows

def _random_state(n, seed, scale=(1.0, 2.0, 2.0, 0.1, 0.3)):
    rng = np.random.default_rng(seed)
    return (np.array(scale)[:, None]
            * (rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))))


def _cosh_minus_one_series(y):
    """cosh(x) - 1 at y = x^2 (cos(x) - 1 at y = -x^2) from its series, to
    rounding for |y| <= 1, where 1 + y/2 from math.cosh would cancel."""
    return math.fsum(y**n / math.factorial(2 * n) for n in range(1, 12))


# just below, at and just above the series' bound, for both signs of y: the two
# sides land within the series' dropped y^2/24 of one reference, so C - 1 and S
# are continuous across it
@pytest.mark.parametrize("y_max", [0.5 * dynamics._SERIES_LINEAR_MAX, dynamics._SERIES_LINEAR_MAX,
                                   math.nextafter(dynamics._SERIES_LINEAR_MAX, 1.0)])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_even_flow_matches_the_functions_on_both_sides_of_the_series_bound(sign, y_max):
    # |y|: a zero and a subnormal (roots 0, floored to the smallest normal float,
    # and 2.2e-162), a quarter of y_max and y_max itself
    r = np.array([0.0, 5e-324, 0.25 * y_max, y_max], dtype=complex)
    y, c, s = np.empty((3, 4), dtype=complex)
    x, fx = np.empty((2, 4))
    scale = 0.5j   # s / scale is then exact
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dynamics._even_flow(r, sign, y_max, y, c, s, scale, x, fx)
    assert np.all(c.imag == 0.0)
    assert c[0] == 0.0 and s[0] == scale
    cos, sin = (math.cosh, math.sinh) if sign > 0 else (math.cos, math.sin)
    for yi, ci, si in zip(sign * r.real, c.real, s / scale):
        xi = math.sqrt(abs(yi))
        # C - 1 to what the flows add to fields of size 1: the series drops y^2/24
        assert abs(ci - _cosh_minus_one_series(yi)) <= 5e-18
        assert abs(1.0 + ci - (cos(xi) if xi else 1.0)) <= 2.3e-16
        assert abs(si - (sin(xi) / xi if xi else 1.0)) <= 2.3e-16


def test_coupling_flow_is_the_exact_unitary_rotation_that_keeps_the_dark_vector(desk_medium):
    p, om, h = desk_medium, 7.0, 0.3
    y = _random_state(64, 5)
    before = y.copy()
    dynamics._DarkStateSplit(p, 64).coupling(y, om, h)
    # phi_a and phi_b are frozen
    assert np.array_equal(y[1:3], before[1:3])
    # per cell, (u, phi_e, phi_g) with u = E/sqrt(L) moves by exp(i H h)
    G = p.g_tilde * p.L * before[1] * before[2]
    H = np.zeros((64, 3, 3), dtype=complex)
    H[:, 0, 1], H[:, 1, 0] = np.conj(G), G
    H[:, 1, 2] = H[:, 2, 1] = om
    lam, vec = np.linalg.eigh(H)
    v0 = np.stack([before[0] / math.sqrt(p.L), before[3], before[4]], axis=1)
    ref = np.einsum("nij,nj,nkj,nk->ni", vec, np.exp(1j * lam * h), vec.conj(), v0)
    got = np.stack([y[0] / math.sqrt(p.L), y[3], y[4]], axis=1)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13)
    # unitary: |u|^2 + |phi_e|^2 + |phi_g|^2 per cell, to rounding
    np.testing.assert_allclose(np.sum(np.abs(got) ** 2, axis=1),
                               np.sum(np.abs(v0) ** 2, axis=1), rtol=1e-14)
    # the dark amplitude (Omega u - G* phi_g)/W is left alone
    W = np.sqrt(np.abs(G) ** 2 + om**2)
    np.testing.assert_allclose((om * got[:, 0] - np.conj(G) * got[:, 2]) / W,
                               (om * v0[:, 0] - np.conj(G) * v0[:, 2]) / W, rtol=0, atol=1e-14)


# kappa: every x^2 below 1e-8 (the series), or some above it, near and far (sin)
@pytest.mark.parametrize("kappa", [1e-6, 1e-5, 0.05])
def test_commutator_rotation_is_the_exact_unitary_rotation_of_its_generator(desk_medium, kappa):
    p = desk_medium
    y = _random_state(64, 9)
    before = y.copy()
    G = p.g_tilde * p.L * before[1] * before[2]
    x2 = (kappa * np.abs(G)) ** 2
    assert (x2.max() <= dynamics._SERIES_LINEAR_MAX) == (kappa == 1e-6)
    dynamics._DarkStateSplit(p, 64).rotate(y, kappa)
    # phi_a, phi_b and phi_e are left alone
    assert np.array_equal(y[1:4], before[1:4])
    # per cell, (u, phi_g) moves by exp(M) with M = kappa [[0, G*], [-G, 0]] = i H
    H = np.zeros((64, 2, 2), dtype=complex)
    H[:, 0, 1], H[:, 1, 0] = -1j * kappa * np.conj(G), 1j * kappa * G
    lam, vec = np.linalg.eigh(H)
    v0 = np.stack([before[0] / math.sqrt(p.L), before[4]], axis=1)
    ref = np.einsum("nij,nj,nkj,nk->ni", vec, np.exp(1j * lam), vec.conj(), v0)
    got = np.stack([y[0] / math.sqrt(p.L), y[4]], axis=1)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14)
    # unitary: |u|^2 + |phi_g|^2 per cell, to rounding
    np.testing.assert_allclose(np.sum(np.abs(got) ** 2, axis=1),
                               np.sum(np.abs(v0) ** 2, axis=1), rtol=1e-14)


@pytest.mark.parametrize("kappa", [1e-6, 1e-5, 0.05])
def test_repeated_commutator_rotations_keep_the_norm_to_rounding(desk_medium, kappa):
    # a near-identity rotation carries C - 1, not a C rounded near 1, whose
    # error has one sign for a given x and so builds up over many rotations
    p = desk_medium
    y = _random_state(64, 12)
    norm0 = np.abs(y[0]) ** 2 / p.L + np.abs(y[4]) ** 2
    flows = dynamics._DarkStateSplit(p, 64)
    for _ in range(5000):
        flows.rotate(y, kappa)
    norm = np.abs(y[0]) ** 2 / p.L + np.abs(y[4]) ** 2
    assert abs(norm.sum() / norm0.sum() - 1.0) < 5e-15


def test_commutator_rotation_is_finite_for_a_huge_coupling_on_a_thin_medium():
    # L = 1e100: g_tilde L = 3e97 but |phi_a phi_b| = N/L = 1e-97, so x^2 = 3.6e-7
    # (above the series) while (kappa g_tilde L)^4 overflows a float
    p = MediumParams(g_tilde=3.0e-3, L=1e100, c=2.0, N_a=1000.0, N_b=1000.0)
    y = _random_state(16, 11, scale=(1.0, 0.0, 0.0, 1e-50, 1e-50))
    y[1:3] = math.sqrt(1000.0 / p.L)
    before = y.copy()
    kappa = 2e-4
    G = p.g_tilde * p.L * before[1] * before[2]
    assert np.max(np.abs(kappa * G)) ** 2 > dynamics._SERIES_LINEAR_MAX
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dynamics._DarkStateSplit(p, 16).rotate(y, kappa)
    assert np.all(np.isfinite(y))
    x = kappa * np.abs(G)
    u0 = before[0] / math.sqrt(p.L)
    u = np.cos(x) * u0 + np.sin(x) / x * kappa * np.conj(G) * before[4]
    np.testing.assert_allclose(y[0] / math.sqrt(p.L), u, rtol=1e-14)


def test_magnus_coupling_step_has_a_fifth_order_local_error_on_a_linear_ramp(desk_medium):
    # one cell, phi_a and phi_b frozen, Omega(t) = 3 + 20 t: one Magnus step
    # (the coupling at the mean of the Gauss-node controls between its two
    # rotations) against a fine RK4 run of (u, phi_e, phi_g)' = i H(t) (u, phi_e, phi_g)
    p = desk_medium
    y = _random_state(1, 10)
    G = p.g_tilde * p.L * y[1, 0] * y[2, 0]

    def omega(t):
        return 3.0 + 20.0 * t

    def fine(h, n=4000):
        def f(t, v):
            return 1j * np.array([[0, np.conj(G), 0], [G, 0, omega(t)], [0, omega(t), 0]]) @ v

        v, dt = np.array([y[0, 0] / math.sqrt(p.L), y[3, 0], y[4, 0]]), h / n
        for j in range(n):
            t = j * dt
            k1 = f(t, v)
            k2 = f(t + 0.5 * dt, v + 0.5 * dt * k1)
            k3 = f(t + 0.5 * dt, v + 0.5 * dt * k2)
            k4 = f(t + dt, v + dt * k3)
            v = v + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        return v

    def local_error(h, magnus):
        z = y.copy()
        om1, om2 = (omega(0.5 * h + d * h * math.sqrt(3.0) / 6.0) for d in (-1, 1))
        kappa = math.sqrt(3.0) / 24.0 * h * h * (om2 - om1) if magnus else 0.0
        om = 0.5 * (om1 + om2) if magnus else omega(0.5 * h)
        dynamics._DarkStateSplit(p, 1).coupling(z, om, h, kappa, kappa)
        got = np.array([z[0, 0] / math.sqrt(p.L), z[3, 0], z[4, 0]])
        return float(np.max(np.abs(got - fine(h))))

    # h^5: 32-fold when h halves (measured 36.7); the midpoint control alone
    # errs as h^3, 8-fold (measured 7.8)
    assert 26.0 < local_error(0.1, True) / local_error(0.05, True) < 40.0
    assert 6.0 < local_error(0.1, False) / local_error(0.05, False) < 10.0


@pytest.mark.parametrize("om", [0.0, 1e-310])
def test_coupling_flow_is_finite_where_the_bright_frequency_vanishes(desk_medium, om):
    # phi_a = 0 makes G = 0, so W = |Omega| is 0 or subnormal: no 0/0, no overflow
    y = _random_state(16, 6)
    y[1] = 0.0
    before = y.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dynamics._DarkStateSplit(desk_medium, 16).coupling(y, om, 0.5)
    assert np.all(np.isfinite(y))
    np.testing.assert_allclose(y, before, rtol=1e-15, atol=0)


def _pair_ode_rk4(y, g_field, h, n):
    """phi_a' = i kappa phi_b*, phi_b' = i kappa phi_a* at frozen kappa, by n RK4 steps."""
    kappa = g_field * np.conj(y[0]) * y[3]
    ab = y[1:3].copy()

    def f(v):
        return 1j * kappa * np.conj(v[::-1])

    dt = h / n
    for _ in range(n):
        k1 = f(ab)
        k2 = f(ab + 0.5 * dt * k1)
        k3 = f(ab + 0.5 * dt * k2)
        k4 = f(ab + dt * k3)
        ab = ab + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return ab


# every x^2 below 1e-8 (the series), or some above it, near and far (sinh)
@pytest.mark.parametrize("h", [0.001, 0.02, 40.0])
def test_pair_flow_keeps_the_imbalance_and_matches_its_own_ode(desk_medium, h):
    p = desk_medium
    g_field = p.g_tilde * math.sqrt(p.L)
    y = _random_state(64, 7)
    before = y.copy()
    flows = dynamics._DarkStateSplit(p, 64)
    x2 = (g_field * h * np.abs(y[0] * y[3])) ** 2
    assert (x2.max() <= dynamics._SERIES_LINEAR_MAX) == (h < 0.01)
    flows.pairs(y, h)
    # E, phi_e and phi_g are frozen
    assert np.array_equal(y[[0, 3, 4]], before[[0, 3, 4]])
    imbalance = np.abs(before[1]) ** 2 - np.abs(before[2]) ** 2
    np.testing.assert_allclose(np.abs(y[1]) ** 2 - np.abs(y[2]) ** 2, imbalance,
                               rtol=0, atol=1e-14 * np.max(np.abs(before[1:3]) ** 2))
    np.testing.assert_allclose(y[1:3], _pair_ode_rk4(before, g_field, h, 2000),
                               rtol=1e-12, atol=0)


def test_pair_flow_is_finite_for_a_subnormal_kappa(desk_medium):
    y = _random_state(8, 8)
    y[0, :4] = 1e-160            # |kappa| ~ 1e-161 |phi_e|: its square underflows
    y[3, 4] = 5e-324
    y[0, 7], y[3, 7] = 30.0, 3.0  # takes the sinh form in the second call
    flows = dynamics._DarkStateSplit(desk_medium, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for h in (0.01, 0.5):
            before = y.copy()
            flows.pairs(y, h)
            assert np.all(np.isfinite(y))
            # a vanishing kappa leaves phi_a and phi_b where they were
            np.testing.assert_allclose(y[1:3, :5], before[1:3, :5], rtol=1e-15)


def _assert_lossless_store_agrees_with_rk4(Delta, delta, tol, e_tol):
    """The tiny lossless store on the split against an explicit run.substeps,
    which takes RK4 at 96 substeps, far finer than the split: fidelity,
    efficiency and mapping residual within ``tol``, the retrieved E within
    ``e_tol``."""
    from slowmol import run_storage_retrieval
    p = MediumParams(g_tilde=3.0e-3, L=200.0, c=2.0, N_a=1000.0, N_b=1000.0,
                     Delta=Delta, delta=delta)
    assert p.lossless
    grid = Grid1D.for_speed(0.0, 200.0, 256, c=p.c, t_end=40.0)
    sched = ControlSchedule.tanh_ramp(omega0=10 * math.pi, t_down=8.0, t_up=25.0, rate=0.5)
    pulse = desk_pulse(grid)
    split = run_storage_retrieval(p, sched, pulse, grid, snapshot_stride=10)
    ref = run_storage_retrieval(p, sched, pulse, grid, snapshot_stride=10, substeps=96)
    assert split.scalars["matter_substeps"] < ref.scalars["matter_substeps"] == 96 * 2 * 102
    assert (split.scalars["matter_step"], ref.scalars["matter_step"]) == ("split", "rk4")
    assert split.scalars["charge_drift_q3"] <= 1e-12
    assert max(split.scalars["charge_drift_q1"], split.scalars["charge_drift_q2"]) <= 0.5e-6
    for key in ("fidelity", "efficiency", "mapping_residual"):
        assert split.scalars[key] == pytest.approx(ref.scalars[key], abs=tol), key
    assert np.max(np.abs(split.snapshots[-1].E - ref.snapshots[-1].E)) <= e_tol


def test_detuned_lossless_store_agrees_with_an_explicit_rk4_run():
    # both detunings on: the split's phase flow D carries them, outside the
    # exact rotation, so the split's error is larger than without detuning
    # (measured: efficiency -4.1e-5, |E| 9.1e-5)
    _assert_lossless_store_agrees_with_rk4(2.0, 0.01, tol=1e-4, e_tol=2e-4)


def test_resonant_lossless_store_agrees_with_an_explicit_rk4_run():
    # without detuning (measured: fidelity +9.0e-8, efficiency +4.3e-7,
    # mapping residual +1.4e-7, |E| 4.3e-6)
    _assert_lossless_store_agrees_with_rk4(0.0, 0.0, tol=1e-6, e_tol=1e-5)


def test_integrator_rejects_bad_options(desk_medium, desk_grid_small):
    s0 = MeanFieldState.uniform_medium(desk_grid_small, desk_medium)
    with pytest.raises(ConfigError):
        integrate_mean_field(s0, constant_schedule(1.0), desk_medium,
                             desk_grid_small, advection="spectral")
    with pytest.raises(ConfigError):
        integrate_mean_field(s0, constant_schedule(1.0), desk_medium,
                             desk_grid_small, substeps=-1)


def _advect_error(n_z, scheme):
    # pure advection accuracy against the exact translation, cfl = 0.5
    p = MediumParams(g_tilde=0.0, L=200.0, c=2.0, N_a=1.0, N_b=1.0)
    grid = Grid1D.for_speed(0.0, 200.0, n_z, c=p.c, t_end=10.0, cfl=0.5)
    env = desk_pulse(grid)
    s0 = MeanFieldState.uniform_medium(grid, p, env)
    snaps = integrate_mean_field(s0, constant_schedule(1.0), p, grid,
                                 snapshot_stride=10000, advection=scheme)
    last = snaps[-1]
    exact = env.descriptor.sample(grid.z - p.c * last.t)
    return float(np.linalg.norm(last.E - exact) / np.linalg.norm(exact))


def test_advection_schemes_converge_at_their_orders():
    up_coarse, up_fine = _advect_error(256, "upwind"), _advect_error(512, "upwind")
    mu_coarse, mu_fine = _advect_error(256, "muscl"), _advect_error(512, "muscl")
    assert up_coarse / up_fine == pytest.approx(2.0, rel=0.3)   # first order
    assert mu_coarse / mu_fine > 3.0                            # ~second order
    assert mu_fine < up_fine


def _delay_error(n_z):
    p = MediumParams(g_tilde=math.pi / 100.0, L=200.0, c=2.0,
                     N_a=1000.0, N_b=1000.0)
    om = 10 * math.pi
    grid = Grid1D.for_speed(0.0, 200.0, n_z, c=p.c, t_end=12.0)
    env = desk_pulse(grid, amplitude=0.3)
    s0 = MeanFieldState.polariton_state(grid, p, env, om)
    snaps = integrate_mean_field(s0, constant_schedule(om), p, grid,
                                 snapshot_stride=10000)
    travel = pulse_center(grid.z, snaps[-1].E) - pulse_center(grid.z, snaps[0].E)
    exact = group_velocity(p, om) * snaps[-1].t
    return abs(travel - exact) / exact


def test_delay_error_reduces_under_grid_refinement():
    # at least first order per halving on average (measured much better at
    # the finer end, where the centroid sampling error stops interfering)
    coarse, fine = _delay_error(256), _delay_error(1024)
    assert fine < coarse / 4.0


# --------------------------------------------------------- storage fidelity

def test_fidelity_identity(desk_grid_small):
    env = desk_pulse(desk_grid_small)
    assert storage_fidelity(env, env) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_invariant_under_shifts(desk_grid_small):
    env = desk_pulse(desk_grid_small, center=100.0, width=5.0)
    shifted = SignalEnvelope(z=desk_grid_small.z,
                             samples=np.roll(env.samples, 17))
    assert storage_fidelity(env, shifted) == pytest.approx(1.0, abs=1e-9)


def test_fidelity_finds_a_copy_shifted_beyond_a_quarter_of_the_grid(desk_grid_small):
    env = desk_pulse(desk_grid_small, center=30.0, width=2.0)
    shift = 179  # cells: beyond a quarter of the 256-cell grid, the copy still on it
    assert shift > desk_grid_small.n_z // 4
    shifted = SignalEnvelope(z=desk_grid_small.z, samples=np.roll(env.samples, shift))
    assert storage_fidelity(env, shifted) == pytest.approx(1.0, abs=1e-9)


def test_fidelity_errors_and_degenerate_cases(desk_grid_small):
    env = desk_pulse(desk_grid_small)
    zero = SignalEnvelope(z=desk_grid_small.z,
                          samples=np.zeros(desk_grid_small.n_z, dtype=complex))
    with pytest.raises(ValueError, match="zero-norm"):
        storage_fidelity(zero, env)
    assert storage_fidelity(env, zero) == 0.0


def test_fidelity_requires_common_grid(desk_grid_small):
    env = desk_pulse(desk_grid_small)
    other = Grid1D.for_speed(0.0, 100.0, 256, c=2.0, t_end=1.0)
    env2 = desk_pulse(other)
    with pytest.raises(ValueError, match="grid"):
        storage_fidelity(env, env2)
