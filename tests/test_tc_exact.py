"""Pole/residue propagator: closed forms vs brute force, lineshape sums."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from cavidyn import tc_exact
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
    amps = solve_realization(m).amplitudes(t[1], len(t))
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


@given(
    n=st.integers(1, 80),
    width=st.floats(1e-3, 1.0),
    kappa=st.floats(0.0, 0.1),
    gamma=st.floats(0.0, 0.05),
    omega_r=st.floats(0.01, 1.0),
    omega_c=st.sampled_from([1.0, 1.5]),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=60, deadline=None)
def test_secular_and_eigenvector_routes_agree(n, width, kappa, gamma, omega_r,
                                              omega_c, seed):
    m = disordered_tc(TCModel(n, omega_c, 1.0, omega_r, kappa=kappa, gamma=gamma),
                      width, seed, realization=0)
    # emitters closer than the gap belong to the eigenvector route
    assume(n == 1 or np.diff(np.sort(m.qubit_freqs)).min() >= tc_exact.DEGENERACY_GAP)
    secular = tc_exact._secular_residues(m)
    assert secular is not None
    poles, pw, qw = secular
    vals, pw_ref, qw_ref = tc_exact._eigvec_residues(m.matrix())
    match = np.abs(poles[:, None] - vals[None, :]).argmin(axis=1)
    assert len(set(match)) == len(poles)
    assert np.abs(vals[match] - poles).max() <= 1e-12
    assert np.abs(pw_ref[match] - pw).max() <= 1e-9
    assert np.abs(qw_ref[:, match] - qw).max() <= 1e-9


@pytest.fixture
def eigvec_calls(monkeypatch):
    """Records every call of the eigenvector route."""
    calls = []
    route = tc_exact._eigvec_residues

    def counted(h):
        calls.append(h.shape)
        return route(h)

    monkeypatch.setattr(tc_exact, "_eigvec_residues", counted)
    return calls


def test_near_degenerate_emitters_use_eigenvector_route(eigvec_calls):
    m = TCModel(4, 1.0, [0.97, 1.0, 1.0 + 5e-11, 1.04], 0.1, kappa=0.005,
                gamma=0.001)
    t = np.arange(41) * 10.0
    amps = solve_realization(m).amplitudes(10.0, len(t))
    assert eigvec_calls == [(5, 5)]
    assert np.abs(amps - brute_amplitudes(m, t)).max() < 1e-10


def test_unconverged_sweeps_use_eigenvector_route(eigvec_calls, monkeypatch):
    m = disordered_tc(TCModel(30, 1.0, 1.0, 0.1, kappa=0.005, gamma=0.001),
                      0.05, seed=4, realization=0)
    converged = solve_realization(m)
    assert eigvec_calls == []
    # this model needs three sweeps
    monkeypatch.setattr(tc_exact, "MAX_SWEEPS", 2)
    fallback = solve_realization(m)
    assert eigvec_calls == [(31, 31)]
    vals, pw, qw = tc_exact._eigvec_residues(m.matrix())
    np.testing.assert_array_equal(fallback.energies, vals)
    np.testing.assert_array_equal(fallback.photon_weights, pw)
    t = np.arange(101) * 4.0
    assert np.abs(fallback.amplitudes(4.0, len(t))
                  - converged.amplitudes(4.0, len(t))).max() < 1e-11


# blocks of B = ceil(sqrt(n)) rows: n = 0 has none, 26 and 601 end on a
# partial block, 2, 64 and 600 on a full one
@pytest.mark.parametrize("n", [0, 1, 2, 26, 64, 600, 601])
def test_factorised_phase_table_matches_direct_exponentials(n):
    m = disordered_tc(TCModel(20, 1.0, 1.0, 0.1, kappa=0.005, gamma=0.001),
                      0.2, seed=3, realization=0)
    e = solve_realization(m).energies
    # zero photon weights and identity emitter weights expose the phases
    d = PoleDecomposition(e, np.zeros(len(e)), np.eye(len(e)))
    dt = 1.0
    direct = np.exp(-1j * np.outer(np.arange(n) * dt, e) / HBAR_EV_FS)
    phases = d.amplitudes(dt, n)[:, 1:]
    assert phases.shape == (n, len(e))
    assert np.all(np.abs(phases - direct) <= 1e-12)


def test_disorder_free_model_uses_degenerate_fallback(eigvec_calls):
    # W = 0 leaves N-1 dark poles exactly degenerate; the decomposition must
    # still reproduce the closed-form two-pole result
    m = TCModel(6, 1.0, 1.0, 0.1)
    d = solve_realization(m)
    assert eigvec_calls == [(7, 7)]
    t = np.linspace(0.0, 80.0, 81)
    amps = d.amplitudes(1.0, len(t))
    assert np.abs(amps[:, 0] - uniform_photon_amplitude(m, t)).max() < 1e-11
    assert np.abs(amps[:, 1:] - uniform_qubit_amplitude(m, t)[:, None]).max() < 1e-11


def test_matches_brute_force_disordered_lossy():
    m = disordered_tc(TCModel(25, 1.0, 1.0, 0.1, kappa=0.006, gamma=0.001), 0.2, 17, 0)
    t = np.array([0.0, 10.0, 100.0, 400.0])
    brute = brute_amplitudes(m, t)
    amps = solve_realization(m).amplitudes(10.0, 41)[[0, 1, 10, 40]]
    assert np.abs(amps - brute).max() < 1e-10


def test_lossless_total_population_is_conserved():
    m = disordered_tc(TCModel(10, 1.0, 1.0, 0.1), 0.15, seed=2, realization=1)
    t = np.linspace(0.0, 300.0, 31)
    tot = (np.abs(solve_realization(m).amplitudes(10.0, len(t))) ** 2).sum(axis=1)
    assert np.abs(tot - 1.0).max() < 1e-10


def test_lossy_total_population_decays():
    m = TCModel(10, 1.0, 1.0, 0.1, kappa=0.006)
    t = np.linspace(0.0, 500.0, 51)
    tot = (np.abs(solve_realization(m).amplitudes(10.0, len(t))) ** 2).sum(axis=1)
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


def test_absorption_matches_direct_pole_sum():
    m = disordered_tc(TCModel(60, 1.0, 1.0, 0.1, kappa=0.005, gamma=0.002),
                      0.1, seed=4, realization=2)
    d = solve_realization(m)
    # two full frequency blocks and a partial third
    w = np.linspace(0.7, 1.3, 2 * tc_exact.OMEGA_BLOCK + 7)
    direct = sum(np.real(1j * pw / (np.pi * (w - e)))
                 for e, pw in zip(d.energies, d.photon_weights))
    f = d.absorption(w)
    assert f.shape == w.shape
    assert np.abs(f - direct).max() <= 1e-12 * np.abs(direct).max()


def test_absorption_on_a_dark_pole_is_finite():
    """Without emitter loss the N-1 dark poles sit on the real axis at the
    emitter energy; a grid point there reads the bright polaritons' value,
    which the exact photon Green's function puts at 0."""
    m = TCModel(7, 1.0, 0.9, 0.1, kappa=0.005)
    w = np.linspace(0.7, 1.3, 601)
    assert 0.9 in w
    f = solve_realization(m).absorption(w)
    assert np.all(np.isfinite(f))
    assert abs(f[w == 0.9][0]) <= 1e-12 * f.max()


@pytest.mark.parametrize("synthesis", ["amplitudes", "absorption"])
def test_synthesis_scratch_stays_below_its_result(synthesis):
    # a temporary the size of the result makes glibc return and re-map pages
    # on every realization; tracemalloc counts numpy's buffers on any platform
    m = disordered_tc(TCModel(100, 1.0, 1.0, 0.1, kappa=0.005, gamma=0.001),
                      0.2, seed=1, realization=0)
    d = solve_realization(m)

    def call():
        if synthesis == "amplitudes":
            return d.amplitudes(1.0, 601)
        return d.absorption(DEFAULT_OMEGA_GRID)

    call()
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.flags.owndata
    assert peak - result.nbytes <= 0.5e6


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
    amps = d.amplitudes(1.0, 2)
    assert amps.shape == (2, 1)
    assert np.allclose(np.abs(amps), 1.0)
