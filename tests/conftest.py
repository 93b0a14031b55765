"""Shared helpers for the test suite (independent measurement oracles)."""

import numpy as np

from fput2d.ansatz import AnsatzWorkspace, build_initial_data, residual_norm, sample_ansatz
from fput2d.lattice import LatticeState, integrate


def work_arrays(n):
    """Three N x N work arrays, as a run builds them for the lattice kernels."""
    return tuple(np.empty((n, n)) for _ in range(3))


def sample(env, disp, eps, t, n, form, corrections=False):
    """The sampled ansatz at time t, through a workspace built for this call."""
    return sample_ansatz(AnsatzWorkspace(env, disp, eps, n, form), env, t, corrections)


def initial_data(env, disp, eps, n, form, corrections=False):
    """build_initial_data through a workspace built for this call."""
    return build_initial_data(AnsatzWorkspace(env, disp, eps, n, form), env, corrections)


def residual(env, disp, eps, t, n, form, corrections):
    """residual_norm through a workspace built for this call."""
    return residual_norm(AnsatzWorkspace(env, disp, eps, n, form), env, t, corrections)


def smooth_random_field(n, rng, amplitude=0.1, modes=3):
    """Band-limited random real field on the periodic N x N grid."""
    m = np.arange(n)
    x, y = np.meshgrid(m, m, indexing="ij")
    out = np.zeros((n, n))
    for _ in range(modes):
        jx, jy = rng.integers(-4, 5, size=2)
        phase = rng.uniform(0, 2 * np.pi)
        out += np.cos(2 * np.pi * (jx * x + jy * y) / n + phase)
    peak = np.max(np.abs(out))
    return amplitude * out / peak if peak > 0 else out


def fit_phase_slope(times, values):
    """Least-squares slope of the unwrapped phase of a complex signal."""
    phases = np.unwrap(np.angle(np.asarray(values)))
    return np.polyfit(np.asarray(times), phases, 1)[0]


def measure_mode_frequencies(force, n, mode_indices, dt, n_steps, sample_every=5):
    """Evolve superposed tiny-amplitude traveling waves and fit each mode's
    phase slope; returns the measured angular frequencies.

    The initial data pairs q = a*cos(k.x), w = -a*omega*sin(k.x) per mode, so
    each Fourier coefficient rotates as e^{i omega t}.
    """
    from fput2d.dispersion import WaveVector, omega

    m = np.arange(n)
    x, y = np.meshgrid(m, m, indexing="ij")
    amp = 1e-9
    q = np.zeros((n, n))
    w = np.zeros((n, n))
    ks = []
    for jx, jy in mode_indices:
        k, l = 2 * np.pi * jx / n, 2 * np.pi * jy / n
        om = omega(WaveVector(k, l))
        ks.append((k, l, om))
        q += amp * np.cos(k * x + l * y)
        w += -amp * om * np.sin(k * x + l * y)
    state = LatticeState("displacement", q=q, w=w)

    times, coeffs = [], []

    def observe(s):
        times.append(s.time)
        qhat = np.fft.fft2(s.q) / n**2
        coeffs.append([qhat[jx % n, jy % n] for jx, jy in mode_indices])

    sample_times = np.arange(0, n_steps + 1, sample_every) * dt
    integrate(state, force, dt, sample_times, observe)
    coeffs = np.array(coeffs)
    return np.array(
        [fit_phase_slope(times, coeffs[:, i]) for i in range(len(mode_indices))]
    ), np.array([om for _, _, om in ks])
