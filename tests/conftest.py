from pathlib import Path

import numpy as np
import pytest

from slowmol import ControlSchedule, Grid1D, MediumParams, SignalEnvelope


@pytest.fixture
def desk_medium():
    """Desk-scale lossless medium: c = 2 um/us, collective coupling pi,
    plateau-to-coupling ratio 100 against the standard 10*pi schedule."""
    return MediumParams(g_tilde=3.0e-3, L=200.0, c=2.0, N_a=1000.0, N_b=1000.0)


@pytest.fixture
def desk_grid_small(desk_medium):
    return Grid1D.for_speed(0.0, 200.0, 256, c=desk_medium.c, t_end=10.0)


def desk_pulse(grid, center=40.0, width=8.0, amplitude=1.0):
    return SignalEnvelope.gaussian(grid, center=center, rms_width=width,
                                   amplitude=amplitude)


def constant_schedule(omega):
    return ControlSchedule.tabulated([0.0, 1.0e6], [omega, omega])


def read_csv(path):
    """Header and float columns (keyed by name) of a written CSV table."""
    text = Path(path).read_text(encoding="utf-8").strip().splitlines()
    header = text[0].split(",")
    rows = [line.split(",") for line in text[1:]]
    cols = {name: np.array([float(r[j]) for r in rows]) for j, name in enumerate(header)}
    return header, cols
