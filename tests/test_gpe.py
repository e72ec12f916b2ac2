import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from slowmol import (
    AliasingWarning,
    ConfigError,
    GpeParams,
    Grid1D,
    NumericsError,
    SolitonSpec,
    SupersonicError,
    WaveFunction,
    background_phase,
    effective_potential,
    energy_functional,
    grayness,
    healing_alpha,
    soliton_product,
    soliton_split_experiment,
    sound_speed,
    split_step_evolve,
    track_minima,
    u_gg_from_scattering_length,
    v_ext_for_zero_effective,
)
from slowmol.gpe import _spectral_tail

P = GpeParams.soliton_units()


def soliton_grid(n_z=2048, t_end=10.0, dt=5e-3):
    return Grid1D(z_min=-50.0, z_max=50.0, n_z=n_z, dt=dt, t_end=t_end)


# -------------------------------------------------------- effective potential

def test_effective_potential_cancellation():
    p = GpeParams(m_a=0.5, m_b=0.5, u_ab=2.0, n_a=4.0, n_b=9.0,
                  v_ext=-math.sqrt(36.0) * 2.0)
    assert effective_potential(p) == pytest.approx(0.0, abs=1e-14)
    assert v_ext_for_zero_effective(p) == pytest.approx(p.v_ext)


def test_effective_potential_trivial_cases():
    assert effective_potential(GpeParams(m_a=0.5, m_b=0.5)) == 0.0


# ---------------------------------------------------------------- sound speed

def test_sound_speed_zero_without_interaction():
    assert sound_speed(GpeParams(m_a=0.5, m_b=0.5, u_gg=0.0)) == 0.0


def test_sound_speed_amplitude_scaling():
    lo = sound_speed(GpeParams(m_a=0.5, m_b=0.5, u_gg=1.0, background_amp=1.0))
    hi = sound_speed(GpeParams(m_a=0.5, m_b=0.5, u_gg=1.0, background_amp=2.0))
    assert hi == pytest.approx(2.0 * lo)


def test_sound_speed_unit_case():
    assert sound_speed(P) == pytest.approx(1.0)


def test_sound_speed_rejects_attractive_interaction():
    with pytest.raises(ValueError):
        sound_speed(GpeParams(m_a=0.5, m_b=0.5, u_gg=-1.0))


# ------------------------------------------------------------------- grayness

def test_grayness_stationary_is_dark():
    assert grayness(0.0, 1.0) == 1.0


def test_grayness_three_four_five():
    assert grayness(0.6, 1.0) == pytest.approx(0.8, rel=1e-15)


def test_grayness_sonic_limit():
    assert grayness(1.0, 1.0) == 0.0


def test_grayness_supersonic_errors():
    with pytest.raises(SupersonicError, match="supersonic"):
        grayness(1.5, 1.0)
    with pytest.raises(ValueError):
        grayness(0.5, 0.0)


@given(frac=st.floats(min_value=0.0, max_value=1.0,
                      allow_nan=False, allow_infinity=False))
def test_grayness_roundtrip(frac):
    v_s = 2.5
    q = grayness(frac * v_s, v_s)
    assert 0.0 <= q <= 1.0
    # q saturates one ulp below 1, flooring recoverable speeds at ~v_s*sqrt(2eps)
    assert v_s * math.sqrt(1.0 - q**2) == pytest.approx(frac * v_s, abs=1e-7)


# --------------------------------------------------------------- healing width

def test_scattering_length_conversion_matches_width_rule():
    a_gg = 0.07
    amp = 1.3
    m_total = 1.0
    u = u_gg_from_scattering_length(a_gg, m_total, amp)
    p = GpeParams(m_a=0.5, m_b=0.5, u_gg=u, background_amp=amp)
    assert healing_alpha(p) == pytest.approx(
        1.0 / (math.sqrt(4.0 * math.pi * a_gg) * amp), rel=1e-12)


# -------------------------------------------------------------- soliton profile

def test_gray_soliton_depth_at_center():
    grid = soliton_grid()
    center = float(grid.z[grid.n_z // 2])  # an exact grid point
    for q in (0.5, 0.8, 1.0):
        spec = SolitonSpec.for_params(P, q=q, z0=center)
        wf = soliton_product([spec], P, grid)
        i0 = int(np.argmin(np.abs(grid.z - center)))
        assert wf.density()[i0] == pytest.approx((1.0 - q**2), abs=1e-10)


def test_gray_soliton_tails_recover_background():
    grid = soliton_grid()
    wf = soliton_product([SolitonSpec.for_params(P, q=0.8)], P, grid)
    assert wf.density()[0] == pytest.approx(1.0, rel=1e-10)
    assert wf.density()[-1] == pytest.approx(1.0, rel=1e-10)


def test_gray_soliton_requires_free_background():
    p = GpeParams(m_a=0.5, m_b=0.5, u_gg=1.0, v_ext=0.5)
    with pytest.raises(ValueError, match="effective potential"):
        soliton_product([SolitonSpec(q=0.8, alpha=1.0)], p, soliton_grid())


def test_soliton_spec_validation():
    with pytest.raises(ValueError):
        SolitonSpec(q=0.0)
    with pytest.raises(ValueError):
        SolitonSpec(q=0.5, alpha=-1.0)
    with pytest.raises(ValueError):
        SolitonSpec(q=0.5, direction=2)


def test_narrow_domain_warns():
    grid = Grid1D(z_min=-5.0, z_max=5.0, n_z=64, dt=1e-3, t_end=0.01)
    with pytest.warns(UserWarning, match="soliton widths"):
        soliton_product([SolitonSpec.for_params(P, q=0.8)], P, grid)


# ------------------------------------------------------------ background phase

def test_background_phase_identity_cases():
    assert background_phase(P, 1.0, 1.0) == 1.0
    p0 = GpeParams(m_a=0.5, m_b=0.5, u_gg=0.0)
    assert background_phase(p0, 0.0, 7.0) == 1.0


def test_background_phase_against_uniform_evolution():
    grid = soliton_grid(n_z=256, t_end=1.0, dt=1e-3)
    psi0 = WaveFunction(z=grid.z, psi=np.full(grid.n_z, P.background_amp,
                                              dtype=complex))
    frames = split_step_evolve(psi0, P, grid, snapshot_stride=10**6)
    measured = frames[-1].psi.mean() / P.background_amp
    expected = background_phase(P, 0.0, frames[-1].t)
    assert measured.real == pytest.approx(expected.real, abs=1e-10)
    assert measured.imag == pytest.approx(expected.imag, abs=1e-10)


def test_background_phase_rejects_reversed_times():
    with pytest.raises(ValueError):
        background_phase(P, 1.0, 0.0)


# ------------------------------------------------------------------- evolution

def _free_gaussian(z, t, m, sigma0):
    # closed-form spreading of exp(-z^2/(4 sigma0^2)) under free evolution
    tau = 1.0 + 1j * t / (2.0 * m * sigma0**2)
    return (2 * math.pi * sigma0**2) ** -0.25 / np.sqrt(tau) * np.exp(
        -(z**2) / (4.0 * sigma0**2 * tau))


def test_free_gaussian_matches_closed_form():
    p = GpeParams(m_a=0.5, m_b=0.5, u_gg=0.0)
    grid = soliton_grid(n_z=1024, t_end=5.0, dt=5e-3)
    psi0 = WaveFunction(z=grid.z, psi=_free_gaussian(grid.z, 0.0, 1.0, 2.0))
    frames = split_step_evolve(psi0, p, grid, snapshot_stride=10**6)
    last = frames[-1]
    ref = _free_gaussian(grid.z, last.t, 1.0, 2.0)
    err = np.linalg.norm(last.psi - ref) / np.linalg.norm(ref)
    assert err < 1e-6


def test_norm_conservation_per_unit_time():
    grid = soliton_grid(n_z=1024, t_end=5.0)
    wf0 = soliton_product([SolitonSpec.for_params(P, q=1.0, z0=-25.0),
                           SolitonSpec.for_params(P, q=1.0, z0=25.0, direction=-1)],
                          P, grid)
    frames = split_step_evolve(wf0, P, grid, snapshot_stride=200)
    n0 = frames[0].norm()
    for wf in frames[1:]:
        assert abs(wf.norm() - n0) / n0 <= 1e-10 * max(wf.t, 1.0)


def test_energy_conservation():
    grid = soliton_grid(n_z=1024, t_end=5.0)
    wf0 = soliton_product([SolitonSpec.for_params(P, q=0.8, z0=-20.0, direction=-1),
                           SolitonSpec.for_params(P, q=0.8, z0=20.0)],
                          P, grid)
    frames = split_step_evolve(wf0, P, grid, snapshot_stride=200)
    e0 = energy_functional(frames[0], P)
    for wf in frames[1:]:
        assert abs(energy_functional(wf, P) - e0) / abs(e0) <= 1e-6


def test_spectral_accuracy_until_time_floor():
    # halving dz slashes the error far faster than any fixed polynomial
    # order while above the time-integration floor
    def evolved_error(n_z):
        grid = soliton_grid(n_z=n_z, t_end=0.5, dt=1e-3)
        alpha = healing_alpha(P)
        left = SolitonSpec(q=0.8, z0=-20.0, direction=-1, alpha=alpha)
        right = SolitonSpec(q=0.8, z0=20.0, direction=+1, alpha=alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # coarse grids may flag aliasing
            wf0 = soliton_product([left, right], P, grid)
            frames = split_step_evolve(wf0, P, grid, snapshot_stride=10**6)
        last = frames[-1]
        v = sound_speed(P) * 0.6
        ref = (P.background_amp * background_phase(P, 0.0, last.t)
               * SolitonSpec(q=0.8, z0=-20.0 - v * last.t, direction=-1,
                             alpha=alpha).factor(grid.z)
               * SolitonSpec(q=0.8, z0=20.0 + v * last.t, direction=+1,
                             alpha=alpha).factor(grid.z))
        return float(np.linalg.norm(last.psi - ref) / np.linalg.norm(ref))

    coarse, fine = evolved_error(128), evolved_error(256)
    assert coarse / fine > 10.0
    assert fine < 1e-7  # at the floor: stop halving


def test_frozen_background_mode_uniform_phase():
    grid = soliton_grid(n_z=256, t_end=1.0, dt=1e-3)
    psi0 = WaveFunction(z=grid.z, psi=np.ones(grid.n_z, dtype=complex))
    frames = split_step_evolve(psi0, P, grid, snapshot_stride=10**6,
                               nonlinearity="frozen")
    expected = background_phase(P, 0.0, frames[-1].t)
    assert frames[-1].psi.mean() == pytest.approx(expected, abs=1e-10)


def test_background_decay_reduces_norm():
    grid = soliton_grid(n_z=256, t_end=1.0, dt=1e-3)
    psi0 = WaveFunction(z=grid.z, psi=np.ones(grid.n_z, dtype=complex))
    frames = split_step_evolve(psi0, P, grid, snapshot_stride=10**6,
                               background_decay_rate=0.25)
    expected = math.exp(-2 * 0.25 * frames[-1].t)
    assert frames[-1].norm() / frames[0].norm() == pytest.approx(expected, rel=1e-9)


def test_dt_too_coarse_for_nonlinear_phase_rejected():
    grid = soliton_grid(n_z=256, t_end=1.0, dt=0.2)
    psi0 = WaveFunction(z=grid.z, psi=np.ones(grid.n_z, dtype=complex))
    with pytest.raises(ConfigError, match="nonlinear phase"):
        split_step_evolve(psi0, P, grid)


def test_unknown_nonlinearity_rejected():
    grid = soliton_grid(n_z=256, t_end=0.1, dt=1e-3)
    psi0 = WaveFunction(z=grid.z, psi=np.ones(grid.n_z, dtype=complex))
    with pytest.raises(ConfigError):
        split_step_evolve(psi0, P, grid, nonlinearity="hybrid")


def test_underresolved_state_warns_about_aliasing():
    grid = soliton_grid(n_z=256, t_end=0.05, dt=1e-3)
    # soliton much narrower than a grid cell: spectrum hits the band edge
    sharp = SolitonSpec(q=1.0, z0=0.0, alpha=1e-4)
    anti = SolitonSpec(q=1.0, z0=10.0, direction=-1, alpha=1e-4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        wf0 = soliton_product([sharp, anti], P, grid)
    with pytest.warns(AliasingWarning):
        split_step_evolve(wf0, P, grid, snapshot_stride=10**6)


def _unfused_split_step(psi0, p, grid, snapshot_stride, nonlinearity, decay, fractions=None):
    """Reference: the Strang step with both kinetic half-steps in every step
    (four FFTs), the frames as (t, psi) pairs; each step's spectral-tail
    fraction is appended to ``fractions``, if given."""
    dt, n_steps = grid.dt, max(1, int(round(grid.t_end / grid.dt)))
    veff = effective_potential(p)
    k = 2.0 * math.pi * np.fft.fftfreq(grid.n_z, d=grid.dz)
    kin_half = np.exp(-1j * (k**2) * dt / (4.0 * p.m_total))
    tail = np.abs(k) >= 0.9 * float(np.max(np.abs(k)))
    reported = False
    psi = psi0.psi.copy()
    frames = [(psi0.t, psi.copy())]
    for step in range(n_steps):
        t_mid = psi0.t + (step + 0.5) * dt
        psi = np.fft.ifft(kin_half * np.fft.fft(psi))
        if nonlinearity == "self-consistent":
            nl = p.u_gg * np.abs(psi) ** 2
        else:
            nl = p.u_gg * (p.background_amp**2 * math.exp(-2.0 * decay * t_mid))
        psi *= np.exp(-1j * (veff + nl) * dt)
        spec = np.fft.fft(psi)
        if fractions is not None:
            fractions.append(float(np.sum(np.abs(spec[tail]) ** 2))
                             / float(np.sum(np.abs(spec) ** 2)))
        if not reported and float(np.sum(np.abs(spec[tail]) ** 2)) > \
                1e-8 * float(np.sum(np.abs(spec) ** 2)):
            warnings.warn(f"spectral tail above 1e-08 of total power at "
                          f"t={psi0.t + (step + 1) * dt:.6g}; grid under-resolves "
                          "the state", AliasingWarning)
            reported = True
        psi = np.fft.ifft(kin_half * spec) * math.exp(-decay * dt)
        if (step + 1) % snapshot_stride == 0 or step == n_steps - 1:
            frames.append((psi0.t + (step + 1) * dt, psi.copy()))
    return frames


@pytest.mark.parametrize("nonlinearity,decay", [
    ("self-consistent", 0.0), ("frozen", 0.0), ("self-consistent", 0.2), ("frozen", 0.2)])
def test_fused_kinetic_steps_match_the_unfused_strang_step(nonlinearity, decay):
    # 200 steps, frames every 30: the last frame is off the stride
    grid = soliton_grid(n_z=512, t_end=1.0)
    wf0 = soliton_product([SolitonSpec.for_params(P, q=0.7, z0=-10.0, direction=-1),
                           SolitonSpec.for_params(P, q=0.7, z0=10.0)], P, grid)
    frames = split_step_evolve(wf0, P, grid, snapshot_stride=30,
                               nonlinearity=nonlinearity, background_decay_rate=decay)
    ref = _unfused_split_step(wf0, P, grid, 30, nonlinearity, decay)
    assert [f.t for f in frames] == [t for t, _ in ref]
    assert len(frames) == 8
    for f, (_, psi) in zip(frames, ref):
        assert np.max(np.abs(f.psi - psi)) <= 1e-10
    assert np.array_equal(frames[0].psi, wf0.psi)
    if decay:
        assert frames[-1].norm() < 0.7 * frames[0].norm()


def test_each_frame_carries_the_largest_spectral_tail_fraction_so_far():
    # the under-resolved pair of the aliasing tests, a frame every 10 steps
    grid = soliton_grid(n_z=256, t_end=0.05, dt=1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        wf0 = soliton_product([SolitonSpec(q=1.0, z0=0.0, alpha=1e-4),
                               SolitonSpec(q=1.0, z0=10.0, direction=-1, alpha=1e-4)],
                              P, grid)
        handed, per_step = [], []
        frames = split_step_evolve(wf0, P, grid, snapshot_stride=10, on_frame=handed.append)
        _unfused_split_step(wf0, P, grid, 10, "self-consistent", 0.0, per_step)
    assert len(handed) == len(frames) == 6
    assert all(a is b for a, b in zip(handed, frames))  # each frame, as it is made
    carried = [f.max_spectral_tail_fraction for f in frames]
    assert carried[0] == 0.0 and carried[-1] > 1e-8  # the warning's threshold
    for i, value in enumerate(carried[1:], start=1):
        assert value == pytest.approx(max(per_step[:10 * i]), rel=1e-6)
    # no power at all: the fraction is 0, not nan
    zero = WaveFunction(z=grid.z, psi=np.zeros(grid.n_z))
    frames = split_step_evolve(zero, P, soliton_grid(n_z=256, t_end=0.01, dt=1e-3),
                               snapshot_stride=5)
    assert [f.max_spectral_tail_fraction for f in frames] == [0.0, 0.0, 0.0]


def test_fused_step_warns_of_aliasing_at_the_unfused_step_time():
    grid = soliton_grid(n_z=256, t_end=0.05, dt=1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        wf0 = soliton_product([SolitonSpec(q=1.0, z0=0.0, alpha=1e-4),
                               SolitonSpec(q=1.0, z0=10.0, direction=-1, alpha=1e-4)],
                              P, grid)
    messages = []
    for evolve in (lambda: split_step_evolve(wf0, P, grid, snapshot_stride=10**6),
                   lambda: _unfused_split_step(wf0, P, grid, 10**6, "self-consistent", 0.0)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            evolve()
        messages.append([str(w.message) for w in caught
                         if issubclass(w.category, AliasingWarning)])
    assert len(messages[0]) == 1
    assert "at t=0.001;" in messages[0][0]
    assert messages[0] == messages[1]


def test_nan_in_the_initial_field_raises_at_the_first_step():
    grid = soliton_grid(n_z=256, t_end=0.1, dt=1e-3)
    psi = np.ones(grid.n_z, dtype=complex)
    psi[40] = np.nan
    with pytest.raises(NumericsError, match="non-finite wavefunction at t=0.001") as exc:
        split_step_evolve(WaveFunction(z=grid.z, psi=psi), P, grid)
    assert exc.value.t == grid.dt


@pytest.mark.parametrize("q", [0.5, 0.8, 0.95])
def test_velocity_and_depletion_laws(q):
    # dip speed v_s*sqrt(1-q^2) within 2%, minimum density (1-q^2)|bg|^2
    # within 1%, for a well-separated counter-propagating pair
    grid = soliton_grid(t_end=8.0)
    alpha = healing_alpha(P)
    wf0 = soliton_product(
        [SolitonSpec(q=q, z0=-20.0, direction=-1, alpha=alpha),
         SolitonSpec(q=q, z0=20.0, direction=+1, alpha=alpha)], P, grid)
    frames = split_step_evolve(wf0, P, grid, snapshot_stride=100)
    trajs = [tr for tr in track_minima(frames, background_density=1.0)
             if len(tr) > len(frames) // 2]
    assert len(trajs) == 2
    v_expected = sound_speed(P) * math.sqrt(1.0 - q**2)
    for tr in trajs:
        assert abs(tr.fit_speed()) == pytest.approx(v_expected, rel=0.02)
    assert float(frames[-1].density().min()) == pytest.approx(1.0 - q**2, rel=0.01)


def test_soliton_shape_persists_over_ten_healing_times():
    # L2 distance to the translated analytic profile stays far below 1%
    # of the background norm for at least ten healing times
    q = 0.8
    healing_time = 1.0 / (P.u_gg * P.background_amp**2)
    grid = soliton_grid(t_end=10.0 * healing_time)
    alpha = healing_alpha(P)
    wf0 = soliton_product(
        [SolitonSpec(q=q, z0=-20.0, direction=-1, alpha=alpha),
         SolitonSpec(q=q, z0=20.0, direction=+1, alpha=alpha)], P, grid)
    frames = split_step_evolve(wf0, P, grid, snapshot_stride=400)
    v = sound_speed(P) * math.sqrt(1.0 - q**2)
    bg_norm = math.sqrt(P.background_amp**2 * (grid.z_max - grid.z_min))
    for f in frames:
        ref = (P.background_amp * background_phase(P, 0.0, f.t)
               * SolitonSpec(q=q, z0=-20.0 - v * f.t, direction=-1,
                             alpha=alpha).factor(grid.z)
               * SolitonSpec(q=q, z0=20.0 + v * f.t, direction=+1,
                             alpha=alpha).factor(grid.z))
        err = math.sqrt(float(np.sum(np.abs(f.psi - ref) ** 2)) * grid.dz)
        assert err <= 0.01 * bg_norm


# ------------------------------------------------------------------- tracking

def test_track_single_stationary_soliton():
    grid = soliton_grid(n_z=1024, t_end=10.0)
    wf0 = soliton_product([SolitonSpec.for_params(P, q=1.0, z0=-25.0),
                           SolitonSpec.for_params(P, q=1.0, z0=25.0, direction=-1)],
                          P, grid)
    frames = split_step_evolve(wf0, P, grid, snapshot_stride=200)
    trajs = track_minima(frames, background_density=1.0)
    assert len(trajs) == 2
    for tr in trajs:
        assert len(tr) == len(frames)
        assert max(tr.positions) - min(tr.positions) < grid.dz


def test_track_uniform_background_has_no_dips():
    grid = soliton_grid(n_z=256, t_end=0.2, dt=1e-3)
    psi0 = WaveFunction(z=grid.z, psi=np.ones(grid.n_z, dtype=complex))
    frames = split_step_evolve(psi0, P, grid, snapshot_stride=50)
    assert track_minima(frames, background_density=1.0) == []


def test_a_contested_association_flags_the_track_and_starts_another():
    z = np.linspace(-10.0, 10.0, 201)   # dz = 0.1, so a jump may reach 2.0

    def frame(t, *dips):
        dens = np.ones_like(z)
        for z0 in dips:
            dens -= 0.5 * np.exp(-(((z - z0) / 0.15) ** 2))
        return WaveFunction(z=z, psi=np.sqrt(dens), t=t)

    # one dip splits in two, both within reach of its track
    trajs = track_minima([frame(0.0, 0.0), frame(1.0, -0.5, 0.8), frame(2.0, -0.9, 1.5)],
                         background_density=1.0)
    assert [(tr.flagged, tr.times) for tr in trajs] == [(True, [0.0, 1.0, 2.0]),
                                                        (False, [1.0, 2.0])]
    assert trajs[0].positions == pytest.approx([0.0, -0.5, -0.9], abs=1e-9)
    assert trajs[1].positions == pytest.approx([0.8, 1.5], abs=1e-9)


@pytest.mark.parametrize("stride", [0, -3])
def test_a_snapshot_stride_below_1_is_refused(stride):
    grid = soliton_grid(n_z=256, t_end=0.02, dt=1e-3)
    psi0 = WaveFunction(z=grid.z, psi=np.ones(grid.n_z, dtype=complex))
    with pytest.raises(ConfigError, match="snapshot stride must be at least 1"):
        split_step_evolve(psi0, P, grid, snapshot_stride=stride)
    with pytest.raises(ConfigError, match="snapshot stride must be at least 1"):
        soliton_split_experiment(0.8, P, grid, snapshot_stride=stride)


def test_track_requires_two_frames():
    grid = soliton_grid(n_z=256, t_end=0.2, dt=1e-3)
    psi0 = WaveFunction(z=grid.z, psi=np.ones(grid.n_z, dtype=complex))
    with pytest.raises(ValueError):
        track_minima([psi0], background_density=1.0)


def test_counter_moving_dips_have_opposite_slopes():
    grid = soliton_grid(t_end=6.0)
    rep = soliton_split_experiment(0.8, P, grid, snapshot_stride=100)
    assert rep.scalars["succeeded"] == 1.0
    assert rep.scalars["v_left"] < -0.2
    assert rep.scalars["v_right"] > 0.2


# -------------------------------------------------------- splitting experiment

def test_split_experiment_velocities_and_monotone_separation():
    grid = soliton_grid(t_end=12.0)
    rep = soliton_split_experiment(0.8, P, grid, snapshot_stride=100)
    v_exp = rep.scalars["v_expected"]
    assert rep.scalars["separation_monotone"] == 1.0
    assert abs(rep.scalars["v_left"]) == pytest.approx(v_exp, rel=0.02)
    assert abs(rep.scalars["v_right"]) == pytest.approx(v_exp, rel=0.02)
    sep = rep.z_right - rep.z_left
    assert sep[-1] > sep[0]


def test_split_experiment_near_dark_limit_is_degenerate():
    # q -> 1: both factors nearly stationary, no real splitting velocity
    grid = soliton_grid(t_end=12.0)
    rep = soliton_split_experiment(0.999, P, grid, snapshot_stride=100)
    v_s = sound_speed(P)
    assert abs(rep.scalars["v_left"]) < 0.15 * v_s
    assert abs(rep.scalars["v_right"]) < 0.15 * v_s


def test_split_experiment_validates_q():
    grid = soliton_grid(t_end=1.0)
    with pytest.raises(ValueError):
        soliton_split_experiment(1.0, P, grid)
    with pytest.raises(ValueError):
        soliton_split_experiment(0.0, P, grid)


def test_split_failure_reports_diagnostics():
    # a horizon too short for any frame to resolve two separate dips
    grid = soliton_grid(n_z=256, t_end=0.01, dt=1e-3)
    rep = soliton_split_experiment(0.8, P, grid, seed_separation_widths=0.0,
                                   snapshot_stride=1)
    assert rep.scalars["succeeded"] == 0.0
    assert "n_trajectories" in rep.scalars
    assert len(rep.t) == len(rep.z_left) == len(rep.z_right) == 0


@pytest.mark.parametrize("n_z", [255, 256, 2048])
def test_the_spectral_tail_is_one_slice_of_the_fft_order(n_z):
    k = 2.0 * math.pi * np.fft.fftfreq(n_z, d=0.37)
    mask = np.abs(k) >= 0.9 * float(np.max(np.abs(k)))
    tail = _spectral_tail(k)
    assert np.array_equal(np.arange(n_z)[tail], np.flatnonzero(mask))
    spec = np.exp(1j * np.arange(n_z)) * np.linspace(1.0, 2.0, n_z)
    assert np.vdot(spec[tail], spec[tail]).real == pytest.approx(
        float(np.sum(np.abs(spec[mask]) ** 2)), rel=1e-14)
