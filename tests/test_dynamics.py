import math

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
from slowmol.dynamics import gauss_legendre, half_step_substeps, integrate
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


def test_integrator_inflow_boundary(desk_medium):
    # feed a pulse through the left edge of an uncoupled medium
    p = MediumParams(g_tilde=0.0, L=200.0, c=2.0, N_a=1.0, N_b=1.0)
    grid = Grid1D.for_speed(0.0, 200.0, 256, c=p.c, t_end=40.0)
    s0 = MeanFieldState.uniform_medium(grid, p)

    def inflow(t):
        return math.exp(-((t - 10.0) ** 2) / 8.0)

    snaps = integrate_mean_field(s0, constant_schedule(1.0), p, grid,
                                 snapshot_stride=10000, inflow=inflow)
    last = snaps[-1]
    # the injected waveform advects at c: E(z, t) = inflow(t - z/c)
    z_peak = pulse_center(grid.z, last.E)
    assert z_peak == pytest.approx(p.c * (last.t - 10.0), abs=2 * grid.dz)
    # inflow raises the net flux bookkeeping (negative net outflow)
    assert last.boundary_photon_flux < 0.0


def test_integrator_diverges_loudly_with_too_few_substeps(desk_medium):
    grid = Grid1D.for_speed(0.0, 200.0, 256, c=desk_medium.c, t_end=30.0)
    env = desk_pulse(grid)
    s0 = MeanFieldState.polariton_state(grid, desk_medium, env, 800.0)
    with pytest.raises(NumericsError, match="non-finite"):
        integrate_mean_field(s0, constant_schedule(800.0), desk_medium, grid,
                             substeps=1)


def _five_array_reference(s0, sched, p, grid, m, advect, stride, inflow):
    """The integrator written with one array per field: RK4 half-steps
    Strang-split around the same advection; (t, flux, fields) per snapshot."""
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
        e_in = complex(inflow(t0 + grid.dt))
        out_val = E[-1]
        E = advect(E, lam, e_in)
        flux += lam * (grid.dz / p.L) * (abs(out_val) ** 2 - abs(e_in) ** 2)
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

    def inflow(t):
        return 0.1 * math.exp(-((t - 2.0) ** 2))

    advect = dynamics._advect_upwind if advection == "upwind" else dynamics._advect_muscl
    ref = _five_array_reference(s0, sched, p, grid, 3, advect, 3, inflow)
    snaps = integrate_mean_field(s0, sched, p, grid, snapshot_stride=3, substeps=3,
                                 advection=advection, inflow=inflow)
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


def test_fidelity_zero_for_disjoint_support_beyond_window(desk_grid_small):
    a = desk_pulse(desk_grid_small, center=30.0, width=2.0)
    b = desk_pulse(desk_grid_small, center=170.0, width=2.0)
    # separation (179 cells) exceeds the default quarter-grid window
    assert storage_fidelity(a, b) < 1e-12


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
