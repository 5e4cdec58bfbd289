"""Tests for the doubled-register finite-temperature layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

from cavidyn.constants import HBAR_EV_FS, KB_EV_PER_K
from cavidyn.dense_ref import DensePropagator, FockSpace, thermal_fock_weights
from cavidyn import thermofield
from cavidyn.models import HTCModel, TCModel, htc_system_bath
from cavidyn.thermofield import (
    ClassicalLimitError,
    beta_from_temperature,
    mixing_angles,
    thermal_double,
    thermal_htc,
)
from cavidyn.varprop import PropagationSettings, init_state, propagate

TIGHT = PropagationSettings(rel_tol=1e-10, abs_tol=1e-12)


def small_tc(n=2):
    return TCModel(n_qubits=n, omega_c=1.0, omega_qubit=1.0, omega_r=0.1)


def test_mixing_angle_reference_value():
    # arctanh(exp(-omega/(2 kB T))) at omega=0.0124 eV, T=300 K
    th = mixing_angles(beta_from_temperature(300.0), np.array([0.0124]))
    assert abs(th[0] - 1.062881450856135) < 1e-12
    assert abs(th[0] - 1.063) < 2e-3


@given(
    w=st.floats(min_value=1e-3, max_value=2.0),
    beta=st.floats(min_value=0.5, max_value=60.0),
    scale=st.floats(min_value=1.01, max_value=5.0),
)
@settings(max_examples=50, deadline=None)
def test_mixing_angle_monotone_in_frequency_and_beta(w, beta, scale):
    t0 = mixing_angles(beta, np.array([w]))[0]
    assert mixing_angles(beta, np.array([w * scale]))[0] < t0
    assert mixing_angles(beta * scale, np.array([w]))[0] < t0
    assert t0 > 0


def test_classical_limit_rejected():
    # beta*omega/2 below 1e-6 must refuse rather than overflow
    with pytest.raises(ClassicalLimitError):
        mixing_angles(1e-4, np.array([0.0124]))
    with pytest.raises(ValueError):
        mixing_angles(-1.0, np.array([0.0124]))
    with pytest.raises(ValueError):
        mixing_angles(1.0, np.array([0.0124, -0.1]))
    with pytest.raises(ValueError):
        beta_from_temperature(0.0)


def test_doubled_hamiltonian_structure():
    htc = HTCModel(tc=small_tc(), lam=0.5, phonon_base=0.124, phonon_bandwidth=0.5)
    h = htc_system_bath(htc)
    theta = np.array([0.3, 0.2])
    hd = thermal_double(h, theta)
    assert hd.n_modes == 4
    assert np.array_equal(hd.mode_freqs[:2], h.mode_freqs)
    assert np.array_equal(hd.mode_freqs[2:], -h.mode_freqs)
    assert np.array_equal(hd.e_sys, h.e_sys)
    assert hd.hermitian
    # physical couplings scaled by cosh, tilde couplings are the conjugate
    # phases scaled by sinh
    np.testing.assert_allclose(
        hd.coup_create[:, :, :2], h.coup_create * np.cosh(theta), atol=0
    )
    np.testing.assert_allclose(
        hd.coup_create[:, :, 2:], h.coup_create.conj() * np.sinh(theta), atol=1e-15
    )


def test_tilde_to_physical_coupling_ratio_is_tanh():
    htc = HTCModel(tc=small_tc(3), lam=0.4, phonon_base=0.124, phonon_bandwidth=0.3)
    h = htc_system_bath(htc)
    theta = np.array([0.8, 0.05, 1.3])
    hd = thermal_double(h, theta)
    for q in range(3):
        phys = hd.coup_annihilate[:, :, q]
        tilde = hd.coup_create[:, :, 3 + q]
        mask = np.abs(phys) > 0
        np.testing.assert_allclose(
            np.abs(tilde[mask] / phys[mask]), np.tanh(theta[q]), rtol=1e-12
        )


def test_pruning_bookkeeping():
    htc = HTCModel(tc=small_tc(3), lam=0.4, phonon_base=0.124, phonon_bandwidth=0.3)
    h = htc_system_bath(htc)
    hd = thermal_double(h, np.array([0.5, 1e-5, 0.2]))
    # mode 1's partner is pruned; the kept partners follow in physical order
    assert hd.n_modes == 5
    assert hd.mode_freqs[3] == -h.mode_freqs[0]
    assert hd.mode_freqs[4] == -h.mode_freqs[2]
    np.testing.assert_array_equal(hd.coup_create[:, :, 3:],
                                  h.coup_annihilate[:, :, [0, 2]]
                                  * np.sinh([0.5, 0.2]))
    with pytest.raises(ValueError):
        thermal_double(h, np.array([0.5, 0.2]))


def test_zero_angle_reduces_to_bare_hamiltonian_and_trajectory():
    htc = HTCModel(tc=small_tc(), lam=0.5, phonon_base=0.124, phonon_bandwidth=0.5)
    h = htc_system_bath(htc)
    d = thermal_double(h, np.zeros(2))
    # all tilde partners pruned: identical operator content
    assert d.n_modes == h.n_modes
    assert np.array_equal(d.coup_create, h.coup_create)
    assert np.array_equal(d.mode_freqs, h.mode_freqs)
    # same seeds, same shapes -> parameter-by-parameter identical trajectories
    s_plain = init_state(3, 2, 0, multiplicity=4, noise_seed=7)
    s_doubled = init_state(d.n_sys, d.n_modes, 0, multiplicity=4, noise_seed=7)
    t_plain = propagate(h, s_plain, np.arange(61.0))
    t_doubled = propagate(d, s_doubled, np.arange(61.0))
    assert np.max(np.abs(t_plain.amplitudes - t_doubled.amplitudes)) <= 1e-10
    assert np.max(np.abs(t_plain.displacements - t_doubled.displacements)) <= 1e-10


def test_pruned_tilde_modes_are_inert(monkeypatch):
    # a mode with theta below the threshold changes nothing observable
    htc = HTCModel(tc=small_tc(), lam=1.0, phonon_base=0.124, phonon_bandwidth=0.5)
    h = htc_system_bath(htc)
    theta = mixing_angles(beta_from_temperature(150.0), htc.mode_freqs)
    assert theta[1] < thermofield.PRUNE_THRESHOLD < theta[0]
    d_pruned = thermal_double(h, theta)
    monkeypatch.setattr(thermofield, "PRUNE_THRESHOLD", 0.0)
    d_full = thermal_double(h, theta)
    assert d_pruned.n_modes == 3 and d_full.n_modes == 4
    s1 = init_state(3, d_pruned.n_modes, 0, multiplicity=1)
    s2 = init_state(3, d_full.n_modes, 0, multiplicity=1)
    t1 = propagate(d_pruned, s1, np.arange(101.0), TIGHT)
    t2 = propagate(d_full, s2, np.arange(101.0), TIGHT)
    dev = np.max(np.abs(t1.system_populations()[:, 0]
                        - t2.system_populations()[:, 0]))
    assert dev <= 1e-6


def test_finite_temperature_against_dense_thermal_average():
    """Doubled-register variational run vs an exact thermally weighted sum of
    dense Fock-basis propagations."""
    t_k = 300.0
    beta = beta_from_temperature(t_k)
    htc = HTCModel(tc=small_tc(), lam=1.0, phonon_base=0.0124, phonon_bandwidth=0.0)
    h = htc_system_bath(htc)
    times = np.arange(0.0, 100.0 + 1e-9, 1.0)

    cut = 17
    fs = FockSpace(n_sys=3, cutoffs=(cut, cut))
    md = fs.mode_dims[0]
    prop = DensePropagator(fs.hamiltonian(h))
    w1 = thermal_fock_weights(0.0124, beta, cut)
    ref = np.zeros_like(times)
    for v1 in range(md):
        for v2 in range(md):
            w = w1[v1] * w1[v2]
            if w < 1e-9:
                continue
            psi0 = np.zeros(fs.dim, dtype=complex)
            psi0[np.ravel_multi_index((0, v1, v2), (3, md, md))] = 1.0
            traj = prop.trajectory(psi0, times)
            ref += w * (np.abs(traj.reshape(len(times), 3, md, md)[:, 0]) ** 2).sum(
                axis=(1, 2)
            )

    d = thermal_htc(htc, t_k)
    st = init_state(d.n_sys, d.n_modes, 0, multiplicity=10, noise_seed=3)
    tr = propagate(d, st, times)
    assert np.max(np.abs(tr.system_populations()[:, 0] - ref)) <= 1e-2


def test_thermal_autocorrelation_equals_dense_thermal_average():
    """The photon autocorrelation behind htc absorption: the two-register
    vacuum under the doubled Hamiltonian (Fock cutoff 7 per mode, Krylov
    exponential) equals the Boltzmann-weighted sum over physical phonon
    states, each with its ground-state phase exp(+i E_v t / hbar) (dense,
    cutoff 8).  Both cutoffs are converged to ~3e-7; the 0 K curve is 1e-2
    away."""
    htc = HTCModel(tc=small_tc(), lam=0.5, phonon_base=0.124)
    beta = beta_from_temperature(300.0)
    times = np.arange(0.0, 100.0 + 1e-9, 1.0)

    d = thermal_htc(htc, 300.0)
    assert d.n_modes == 4
    doubled = FockSpace(d.n_sys, (7,) * d.n_modes)
    vacuum = np.eye(1, doubled.dim, dtype=complex)[0]
    got = doubled.trajectory(d, vacuum, times)[:, 0]

    h = htc_system_bath(htc)
    cut = 8
    fs = FockSpace(h.n_sys, (cut, cut))
    prop = DensePropagator(fs.hamiltonian(h))
    weights = thermal_fock_weights(0.124, beta, cut)
    ref = np.zeros(len(times), dtype=complex)
    for v1 in range(cut + 1):
        for v2 in range(cut + 1):
            i = np.ravel_multi_index((0, v1, v2), (h.n_sys, cut + 1, cut + 1))
            ground = np.exp(1j * 0.124 * (v1 + v2) * times / HBAR_EV_FS)
            ref += (weights[v1] * weights[v2] * ground
                    * prop.trajectory(np.eye(1, fs.dim, i)[0], times)[:, i])
    cold = prop.trajectory(np.eye(1, fs.dim, dtype=complex)[0], times)[:, 0]

    assert np.max(np.abs(got - ref)) <= 1e-6
    assert np.max(np.abs(cold - ref)) > 5e-3


def test_low_temperature_matches_zero_temperature():
    htc = HTCModel(tc=small_tc(), lam=1.0, phonon_base=0.0124, phonon_bandwidth=0.5)
    d = thermal_htc(htc, 10.0)
    st = init_state(d.n_sys, d.n_modes, 0, multiplicity=8, noise_seed=2)
    tr_cold = propagate(d, st, np.arange(201.0))
    s0 = init_state(3, 2, 0, multiplicity=8, noise_seed=2)
    tr_zero = propagate(htc_system_bath(htc), s0, np.arange(201.0))
    dev = np.max(np.abs(tr_cold.system_populations()[:, 0]
                        - tr_zero.system_populations()[:, 0]))
    assert dev <= 5e-3


def test_norm_conserved_at_finite_temperature():
    # the excitation count is the total system population here, so norm
    # conservation is excitation conservation
    htc = HTCModel(tc=small_tc(), lam=1.0, phonon_base=0.0124, phonon_bandwidth=0.5)
    d = thermal_htc(htc, 300.0)
    st = init_state(d.n_sys, d.n_modes, 0, multiplicity=6, noise_seed=4)
    tr = propagate(d, st, np.arange(101.0),
                   PropagationSettings(rel_tol=1e-8, abs_tol=1e-10))
    assert np.max(np.abs(tr.norm()**2 - 1.0)) <= 1e-6


def test_temperature_coupling_interchangeability_trend():
    """Population curves at matched dressed coupling lam*cosh(theta) stay
    rank-correlated across (lam, T) trades."""
    base = 0.0124
    tc = small_tc()
    th300 = mixing_angles(beta_from_temperature(300.0), np.array([base]))[0]

    def curve(lam, t_k):
        m = HTCModel(tc=tc, lam=lam, phonon_base=base, phonon_bandwidth=0.0)
        d = thermal_htc(m, t_k)
        st = init_state(d.n_sys, d.n_modes, 0, multiplicity=8, noise_seed=5)
        return propagate(d, st, np.arange(101.0)).system_populations()[:, 0]

    ref = curve(2.0, 300.0)
    for lam_b in (2.2, 1.8):
        th_b = np.arccosh(2.0 * np.cosh(th300) / lam_b)
        t_b = base / (2.0 * KB_EV_PER_K * np.log(1.0 / np.tanh(th_b)))
        assert abs(lam_b * np.cosh(th_b) - 2.0 * np.cosh(th300)) < 1e-12
        rho = spearmanr(ref, curve(lam_b, t_b)).statistic
        assert rho > 0.9
