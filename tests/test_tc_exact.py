"""Pole/residue propagator: closed forms vs brute force, lineshape sums."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from cavidyn.constants import HBAR_EV_FS
from cavidyn.models import TCModel, disordered_tc
from cavidyn.tc_exact import (
    DEFAULT_OMEGA_GRID,
    PoleDecomposition,
    bright_energies,
    solve_realization,
    spectrum_peaks,
    uniform_photon_amplitude,
    uniform_qubit_amplitude,
)


def brute_amplitudes(model, times):
    h = model.matrix()
    cols = []
    for t in times:
        u = expm(-1j * h * t / HBAR_EV_FS)
        cols.append(u[:, 0])
    return np.array(cols)  # (T, N+1)


def test_resonant_rabi_oscillation():
    m = TCModel(7, 1.0, 1.0, 0.1)
    t = np.linspace(0.0, 100.0, 1001)
    p = np.abs(uniform_photon_amplitude(m, t)) ** 2
    assert np.abs(p - np.cos(0.1 * t / HBAR_EV_FS) ** 2).max() < 1e-12
    # full period pi*hbar/omega_r ~ 20.678 fs
    period = np.pi * HBAR_EV_FS / 0.1
    assert np.isclose(np.abs(uniform_photon_amplitude(m, np.array([period]))[0]) ** 2, 1.0)


def test_bright_energies_detuned():
    ep, em = bright_energies(2.256, 2.23, 0.1)
    # eigenvalues of [[2.256, 0.1], [0.1, 2.23]]
    vals = np.linalg.eigvalsh(np.array([[2.256, 0.1], [0.1, 2.23]]))
    assert np.isclose(em.real, vals[0]) and np.isclose(ep.real, vals[1])
    assert ep.imag == 0 and em.imag == 0


def test_bright_energies_trace_identity():
    ep, em = bright_energies(1.05, 0.97, 0.13, kappa=0.02, gamma=0.007)
    assert np.isclose(ep + em, (1.05 + 0.97) - 1j * (0.02 + 0.007))


def test_uniform_amplitudes_match_brute_force_with_loss():
    m = TCModel(4, 1.02, 0.98, 0.12, kappa=0.01, gamma=0.004)
    t = np.linspace(0.0, 150.0, 16)
    brute = brute_amplitudes(m, t)
    assert np.abs(uniform_photon_amplitude(m, t) - brute[:, 0]).max() < 1e-10
    assert np.abs(uniform_qubit_amplitude(m, t) - brute[:, 1]).max() < 1e-10


def test_uniform_rejects_disordered_input():
    m = TCModel(3, 1.0, [1.0, 1.1, 0.9], 0.1)
    with pytest.raises(ValueError):
        uniform_photon_amplitude(m, np.zeros(1))


def test_degenerate_coupling_limit():
    # omega_r = 0 keeps the photon amplitude at a pure phase
    m = TCModel(3, 1.0, 0.9, 0.0)
    t = np.linspace(0.0, 50.0, 7)
    amp = uniform_photon_amplitude(m, t)
    assert np.allclose(np.abs(amp), 1.0)
    amps = solve_realization(m).amplitudes(t)
    assert np.allclose(np.abs(amps[:, 0]) ** 2, 1.0)
    assert np.allclose(amps[:, 1:], 0.0)


@given(
    n=st.integers(2, 30),
    width=st.floats(0.01, 0.5),
    kappa=st.floats(0.0, 0.02),
    gamma=st.floats(0.0, 0.02),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=40, deadline=None)
def test_photon_residues_sum_to_one(n, width, kappa, gamma, seed):
    m = disordered_tc(
        TCModel(n, 1.0, 1.0, 0.1, kappa=kappa, gamma=gamma), width, seed, realization=0
    )
    d = solve_realization(m)
    assert abs(d.photon_weights.sum() - 1.0) < 1e-10
    # emitter channels start at zero amplitude
    assert np.abs(d.qubit_weights.sum(axis=1)).max() < 1e-9


@given(n=st.integers(2, 12), seed=st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_trace_identity_over_poles(n, seed):
    m = disordered_tc(TCModel(n, 1.0, 1.0, 0.1, kappa=0.01, gamma=0.002), 0.3, seed, 0)
    d = solve_realization(m)
    assert np.isclose(d.energies.sum(), np.trace(m.matrix()), atol=1e-10)


def test_product_and_eigenvector_routes_agree():
    from cavidyn import tc_exact

    m = disordered_tc(TCModel(12, 1.0, 1.0, 0.1, kappa=0.005), 0.25, seed=9, realization=2)
    d_prod = solve_realization(m)
    vals, pw, qw = tc_exact._eigvec_residues(m.matrix())
    order_a = np.argsort(vals.real)
    order_b = np.argsort(d_prod.energies.real)
    assert np.allclose(vals[order_a], d_prod.energies[order_b], atol=1e-12)
    assert np.allclose(pw[order_a], d_prod.photon_weights[order_b], atol=1e-9)
    assert np.allclose(qw[:, order_a], d_prod.qubit_weights[:, order_b], atol=1e-9)


def test_disorder_free_model_uses_degenerate_fallback():
    # W = 0 leaves N-1 dark poles exactly degenerate; the decomposition must
    # still reproduce the closed-form two-pole result
    m = TCModel(6, 1.0, 1.0, 0.1)
    d = solve_realization(m)
    t = np.linspace(0.0, 80.0, 81)
    amps = d.amplitudes(t)
    assert np.abs(amps[:, 0] - uniform_photon_amplitude(m, t)).max() < 1e-11
    assert np.abs(amps[:, 1:] - uniform_qubit_amplitude(m, t)[:, None]).max() < 1e-11


def test_matches_brute_force_disordered_lossy():
    m = disordered_tc(TCModel(25, 1.0, 1.0, 0.1, kappa=0.006, gamma=0.001), 0.2, 17, 0)
    t = np.array([0.0, 10.0, 100.0, 400.0])
    brute = brute_amplitudes(m, t)
    assert np.abs(solve_realization(m).amplitudes(t) - brute).max() < 1e-10


def test_lossless_total_population_is_conserved():
    m = disordered_tc(TCModel(10, 1.0, 1.0, 0.1), 0.15, seed=2, realization=1)
    t = np.linspace(0.0, 300.0, 31)
    tot = (np.abs(solve_realization(m).amplitudes(t)) ** 2).sum(axis=1)
    assert np.abs(tot - 1.0).max() < 1e-10


def test_lossy_total_population_decays():
    m = TCModel(10, 1.0, 1.0, 0.1, kappa=0.006)
    t = np.linspace(0.0, 500.0, 51)
    tot = (np.abs(solve_realization(m).amplitudes(t)) ** 2).sum(axis=1)
    assert np.all(np.diff(tot) < 0)
    # photon-only loss on resonance decays at the shared rate kappa/2
    assert np.isclose(tot[-1], np.exp(-0.006 * 500.0 / 0.6582119569), rtol=0.05)


def test_absorption_integral_and_peaks():
    m = TCModel(100, 1.0, 1.0, 0.1, kappa=0.005, gamma=0.005)
    f = solve_realization(m).absorption(DEFAULT_OMEGA_GRID)
    integral = np.trapezoid(f, DEFAULT_OMEGA_GRID)
    assert abs(integral - 1.0) < 0.01
    peaks = spectrum_peaks(DEFAULT_OMEGA_GRID, f)
    tops = sorted(w for w, _ in peaks[:2])
    assert np.isclose(tops[0], 0.9, atol=0.0021)
    assert np.isclose(tops[1], 1.1, atol=0.0021)


def test_resonant_absorption_mirror_symmetry():
    m = TCModel(40, 1.0, 1.0, 0.1, kappa=0.005, gamma=0.005)
    f = solve_realization(m).absorption(DEFAULT_OMEGA_GRID)
    assert np.abs(f - f[::-1]).max() < 1e-10 * np.abs(f).max()


def test_absorption_lorentzian_weights():
    # single emitter: two polariton lines, each integrating to its residue
    m = TCModel(1, 1.0, 1.0, 0.05, kappa=0.004, gamma=0.004)
    d = solve_realization(m)
    w = np.linspace(0.0, 2.0, 20001)
    total = np.trapezoid(d.absorption(w), w)
    assert abs(total - 1.0) < 5e-3


def test_spectrum_peaks_ordering():
    x = np.linspace(0.0, 1.0, 101)
    y = np.exp(-((x - 0.3) ** 2) / 1e-3) + 0.5 * np.exp(-((x - 0.7) ** 2) / 1e-3)
    peaks = spectrum_peaks(x, y)
    assert np.isclose(peaks[0][0], 0.3, atol=0.011)
    assert np.isclose(peaks[1][0], 0.7, atol=0.011)
    assert peaks[0][1] > peaks[1][1]


def test_pole_decomposition_rescaling_consistency():
    # PoleDecomposition is a plain container: amplitudes are linear in weights
    d = PoleDecomposition(
        energies=np.array([1.0 + 0j]),
        photon_weights=np.array([1.0 + 0j]),
        qubit_weights=np.zeros((0, 1), dtype=complex),
    )
    t = np.array([0.0, 1.0])
    amps = d.amplitudes(t)
    assert amps.shape == (2, 1)
    assert np.allclose(np.abs(amps), 1.0)
