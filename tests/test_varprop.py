"""Variational propagator: exact-limit checks, conservation laws, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from cavidyn.constants import HBAR_EV_FS
from cavidyn.dense_ref import FockSpace, DensePropagator
from cavidyn.models import (
    HTCModel,
    SystemBathHamiltonian,
    TCModel,
    htc_system_bath,
    no_coupling,
    tc_system_bath,
)
from cavidyn.varprop import (
    AnsatzCollapseError,
    MultiD2State,
    PropagationError,
    PropagationSettings,
    Trajectory,
    absorption_from_autocorrelation,
    autocorrelation,
    energy_expectation,
    eom_rhs,
    init_state,
    load_trajectory,
    mode_occupations,
    overlap_matrix,
    propagate,
    save_trajectory,
    state_overlap,
    system_populations,
)

TIGHT = PropagationSettings(rel_tol=1e-10, abs_tol=1e-12, sample_dt=1.0)


def free_mode_hamiltonian(omega):
    return SystemBathHamiltonian(
        e_sys=np.zeros((1, 1), dtype=complex),
        mode_freqs=np.array([omega]),
        coup_create=no_coupling(1, 1),
        coup_annihilate=no_coupling(1, 1),
    )


# ---------------------------------------------------------------------------
# overlaps / state container


@given(
    m1=st.integers(1, 4),
    m2=st.integers(1, 4),
    nb=st.integers(1, 3),
    lead=st.sampled_from([(), (2,), (3, 2)]),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=30)
def test_overlap_matrix_against_fock_expansion(m1, m2, nb, lead, seed):
    rng = np.random.default_rng(seed)

    def draw(shape):
        # moderate displacements so the cutoff-25 ladder holds the full state
        return 0.5 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))

    # the bra carries the leading axes, the ket only the last one, so the
    # broadcast over leading axes is checked too
    f1 = draw(lead + (m1, nb))
    f2 = draw(lead[1:] + (m2, nb))
    s = overlap_matrix(f1, f2)
    assert s.shape == lead + (m1, m2)
    fs = FockSpace(1, tuple([25] * nb))
    f2 = np.broadcast_to(f2, lead + (m2, nb))
    for idx in np.ndindex(*lead):
        for i in range(m1):
            vi = fs.coherent_bath_vector(f1[idx][i])
            for j in range(m2):
                vj = fs.coherent_bath_vector(f2[idx][j])
                assert abs(s[idx][i, j] - np.vdot(vi, vj)) < 1e-8


def test_overlap_matrix_is_hermitian_and_unit_diagonal():
    rng = np.random.default_rng(1)
    f = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    s = overlap_matrix(f, f)
    assert np.abs(s - s.conj().T).max() < 1e-14
    assert np.abs(np.diag(s) - 1.0).max() < 1e-14


def test_state_norm_matches_dense_vector():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    f = 0.7 * (rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)))
    st_ = MultiD2State(a, f)
    fs = FockSpace(2, (20, 20))
    dense = fs.multiconfig_vector(a, f)
    assert np.isclose(st_.norm(), np.linalg.norm(dense), atol=1e-10)
    assert np.allclose(st_.system_populations(), fs.system_populations(dense), atol=1e-10)


def test_mode_occupation_closed_form():
    a = np.array([[1.0 + 0j]])
    f = np.array([[0.6 - 0.2j, 0.1j]])
    occ = mode_occupations(a, f)
    assert np.allclose(occ, np.abs(f[0]) ** 2)


# ---------------------------------------------------------------------------
# init_state


def test_init_state_single_config_is_exact():
    s = init_state(4, 3, 2, multiplicity=1, noise_scale=0.0)
    assert s.amplitudes.shape == (1, 4)
    assert s.displacements.shape == (1, 3)
    assert s.amplitudes[0, 2] == 1.0
    assert np.count_nonzero(s.displacements) == 0
    assert np.isclose(s.norm(), 1.0)


def test_init_state_label_and_vector_forms():
    s = init_state(3, 0, "b", multiplicity=1, noise_scale=0.0, labels=("a", "b", "c"))
    assert s.amplitudes[0, 1] == 1.0
    vec = np.array([0.6, 0.8j, 0.0])
    s2 = init_state(3, 1, vec, multiplicity=1, noise_scale=0.0)
    assert np.allclose(s2.amplitudes[0], vec)


def test_init_state_noise_and_renormalization():
    s = init_state(3, 2, 0, multiplicity=5, noise_seed=7, noise_scale=1e-4)
    assert abs(s.norm() - 1.0) < 1e-12
    assert np.all(np.abs(s.amplitudes[1:]) <= 1e-4 + 1e-12)
    assert np.all(np.abs(s.displacements) <= 1e-4 + 1e-12)
    # reproducible draws
    s2 = init_state(3, 2, 0, multiplicity=5, noise_seed=7, noise_scale=1e-4)
    assert np.array_equal(s.amplitudes, s2.amplitudes)


def test_init_state_rejects_noiseless_multiplicity():
    with pytest.raises(ValueError):
        init_state(3, 2, 0, multiplicity=4, noise_scale=0.0)


def test_init_state_base_displacement():
    base = np.array([2.0, -1.0j])
    s = init_state(2, 2, 0, multiplicity=3, noise_seed=0, base_displacement=base)
    assert np.all(np.abs(s.displacements - base[None, :]) <= 1e-4 + 1e-12)


# ---------------------------------------------------------------------------
# equations of motion: exact limits


def test_zero_hamiltonian_gives_zero_derivatives():
    h = SystemBathHamiltonian(
        np.zeros((2, 2), complex), np.zeros(2), no_coupling(2, 2), no_coupling(2, 2)
    )
    s = init_state(2, 2, 0, multiplicity=3, noise_seed=1)
    adot, fdot = eom_rhs(h, s.amplitudes, s.displacements)
    assert np.abs(adot).max() < 1e-12
    assert np.abs(fdot).max() < 1e-12


def test_free_mode_coherent_orbit():
    h = free_mode_hamiltonian(0.2)
    s = MultiD2State(np.array([[1.0 + 0j]]), np.array([[0.8 + 0.4j]]))
    traj = propagate(h, s, 30.0, TIGHT)
    ref = (0.8 + 0.4j) * np.exp(-1j * 0.2 * traj.times / HBAR_EV_FS)
    assert np.abs(traj.displacements[:, 0, 0] - ref).max() < 1e-8
    assert np.abs(traj.amplitudes[:, 0, 0] - 1.0).max() < 1e-8


def test_single_surface_displaced_mode():
    # H = c(b^+ + b) + w b^+ b from vacuum: f(t) = -(c/w)(1 - e^{-iwt/hbar})
    c, w = 0.05, 0.15
    h = SystemBathHamiltonian(
        np.zeros((1, 1), complex),
        np.array([w]),
        np.full((1, 1, 1), c, complex),
        np.full((1, 1, 1), c, complex),
    )
    s = MultiD2State(np.array([[1.0 + 0j]]), np.zeros((1, 1), complex))
    traj = propagate(h, s, 60.0, TIGHT)
    ref = -(c / w) * (1.0 - np.exp(-1j * w * traj.times / HBAR_EV_FS))
    assert np.abs(traj.displacements[:, 0, 0] - ref).max() < 1e-8
    assert np.abs(traj.energies - traj.energies[0]).max() < 1e-10


def test_bathless_single_config_is_schroedinger():
    tc = TCModel(4, 1.0, 1.0, 0.1)
    hs = tc_system_bath(tc)
    s = init_state(5, 0, 0, multiplicity=1, noise_scale=0.0)
    traj = propagate(hs, s, 200.0, PropagationSettings(1e-11, 1e-13, 10.0))
    h = tc.matrix()
    for i, t in enumerate(traj.times):
        u = expm(-1j * h * t / HBAR_EV_FS)
        assert np.abs(traj.amplitudes[i, 0, :] - u[:, 0]).max() < 1e-9


def test_resonant_rabi_photon_population():
    hs = tc_system_bath(TCModel(5, 1.0, 1.0, 0.1))
    s = init_state(6, 0, 0, multiplicity=1, noise_scale=0.0)
    traj = propagate(hs, s, 60.0, PropagationSettings(1e-9, 1e-11, 0.5))
    ref = np.cos(0.1 * traj.times / HBAR_EV_FS) ** 2
    assert np.abs(traj.photon_population() - ref).max() < 1e-6


def test_htc_zero_coupling_reduces_to_tc():
    tc = TCModel(3, 1.0, 1.0, 0.1)
    htc = HTCModel(tc=tc, lam=0.0, phonon_base=0.124, phonon_bandwidth=0.5)
    s = init_state(4, 3, 0, multiplicity=1, noise_scale=0.0)
    traj = propagate(htc_system_bath(htc), s, 80.0, TIGHT)
    s2 = init_state(4, 0, 0, multiplicity=1, noise_scale=0.0)
    traj2 = propagate(tc_system_bath(tc), s2, 80.0, TIGHT)
    assert np.abs(traj.photon_population() - traj2.photon_population()).max() < 1e-8
    assert np.abs(traj.mode_occupations()).max() < 1e-12


# ---------------------------------------------------------------------------
# equations of motion: conservation and robustness


def htc_problem(n, lam=0.5, kappa=0.0):
    htc = HTCModel(
        tc=TCModel(n, 1.0, 1.0, 0.1, kappa=kappa),
        lam=lam,
        phonon_base=0.124,
        phonon_bandwidth=0.5,
    )
    return htc_system_bath(htc)


def test_norm_and_energy_conservation_multiconfig():
    hs = htc_problem(4)
    s = init_state(5, 4, 0, multiplicity=8, noise_seed=3)
    traj = propagate(hs, s, 150.0, PropagationSettings(sample_dt=1.0))
    assert np.abs(traj.norms - 1.0).max() <= 1e-4
    assert np.abs(traj.energies.real - traj.energies[0].real).max() <= 1e-4
    assert np.abs(traj.energies.imag).max() <= 1e-6


def test_lossy_norm_monotone_nonincreasing():
    hs = htc_problem(3, lam=0.1, kappa=0.006)
    s = init_state(4, 3, 0, multiplicity=4, noise_seed=2)
    traj = propagate(hs, s, 80.0, PropagationSettings(1e-9, 1e-12, 0.5))
    assert np.all(np.diff(traj.norms**2) <= 1e-10)


def test_seed_robustness_of_observables():
    # the symmetry-breaking noise is a gauge choice: converged observables
    # must not depend on its seed (mid-coupling window where M=8 is converged)
    hs = htc_problem(4, lam=0.3)
    curves = []
    for seed in (0, 1):
        s = init_state(5, 4, 0, multiplicity=8, noise_seed=seed)
        traj = propagate(hs, s, 80.0, PropagationSettings(sample_dt=1.0))
        curves.append(traj.photon_population())
    assert np.abs(curves[0] - curves[1]).max() <= 1e-3


def test_htc_brute_force_equivalence_short():
    # short-window version of the dense-oracle check (full 200 fs window runs
    # in the acceptance suite)
    hs = htc_problem(2)
    fock = FockSpace(3, (10, 10))
    prop = DensePropagator(fock.hamiltonian(hs))
    psi0 = fock.multiconfig_vector(np.array([[1.0, 0, 0]], complex), np.zeros((1, 2)))
    times = np.arange(0.0, 60.1, 0.5)
    dense = prop.trajectory(psi0, times)
    dense_pph = np.array([fock.system_populations(dense[i])[0] for i in range(len(times))])
    s = init_state(3, 2, 0, multiplicity=8, noise_seed=1)
    traj = propagate(hs, s, 60.0, PropagationSettings(sample_dt=0.5))
    assert np.abs(traj.photon_population() - dense_pph).max() <= 1e-3


def test_trajectory_observables_equal_per_snapshot_calls():
    """The kernels broadcast over the time axis exactly like 2-D calls per
    snapshot, with more than one configuration on the config axes."""
    hs = htc_problem(2)
    s = init_state(3, 2, 0, multiplicity=2, noise_seed=4)
    traj = propagate(hs, s, 10.0, PropagationSettings(sample_dt=1.0))
    pops, occ = traj.system_populations(), traj.mode_occupations()
    corr = autocorrelation(traj, s)
    assert np.abs(occ).max() > 1e-4   # the modes are displaced
    for i in range(len(traj.times)):
        a, f = traj.amplitudes[i], traj.displacements[i]
        snap = traj.state_at(i)
        assert np.abs(pops[i] - system_populations(a, f)).max() < 1e-12
        assert np.abs(occ[i] - mode_occupations(a, f)).max() < 1e-12
        assert abs(traj.norms[i] - snap.norm()) < 1e-12
        assert abs(traj.energies[i] - energy_expectation(hs, snap)) < 1e-12
        assert abs(corr[i] - state_overlap(s, snap)) < 1e-12


def test_backward_propagation_retraces_forward():
    hs = htc_problem(2)
    s = init_state(3, 2, 0, multiplicity=2, noise_seed=5)
    fwd = propagate(hs, s, 20.0, TIGHT)
    end = fwd.state_at(-1)
    back = propagate(hs, end, -20.0, TIGHT)
    assert np.isclose(back.times[-1], -20.0)
    assert abs(state_overlap(back.state_at(-1), s) - 1.0) < 1e-6


def test_collapse_diagnostic_fires_on_tiny_threshold():
    hs = htc_problem(2)
    s = init_state(3, 2, 0, multiplicity=6, noise_seed=1)
    with pytest.raises(AnsatzCollapseError, match="ansatz collapse"):
        eom_rhs(hs, s.amplitudes, s.displacements, cond_threshold=1.0)


def test_runaway_norm_guard():
    hs = htc_problem(2)
    s = init_state(3, 2, 0, multiplicity=2, noise_seed=1)
    bad = MultiD2State(3.0 * s.amplitudes, s.displacements)
    with pytest.raises(PropagationError, match="norm"):
        propagate(hs, bad, 1.0)


def test_propagation_rejects_bad_settings():
    with pytest.raises(ValueError):
        PropagationSettings(rel_tol=0.0)
    with pytest.raises(ValueError):
        PropagationSettings(sample_dt=-1.0)


# ---------------------------------------------------------------------------
# absorption from the overlap autocorrelation


def test_zero_hamiltonian_lineshape_is_lorentzian_at_origin():
    h = SystemBathHamiltonian(
        np.zeros((1, 1), complex), np.zeros(0), no_coupling(1, 0), no_coupling(1, 0)
    )
    s = init_state(1, 0, 0, multiplicity=1, noise_scale=0.0)
    traj = propagate(h, s, 800.0, PropagationSettings(sample_dt=0.5))
    corr = autocorrelation(traj, s)
    assert np.abs(corr - 1.0).max() < 1e-8
    omega = np.linspace(-0.2, 0.2, 801)
    f = absorption_from_autocorrelation(traj.times, corr, 0.01, omega)
    ref = (0.01 / np.pi) / (omega**2 + 0.01**2)
    assert np.abs(f - ref).max() < 2e-2 * ref.max()
    assert abs(omega[np.argmax(f)]) < 1e-9


def test_tc_lineshape_peaks_match_pole_decomposition():
    from cavidyn.tc_exact import DEFAULT_OMEGA_GRID, solve_realization, spectrum_peaks

    tc = TCModel(20, 1.0, 1.0, 0.1)
    hs = tc_system_bath(tc)
    s = init_state(21, 0, 0, multiplicity=1, noise_scale=0.0)
    traj = propagate(hs, s, 400.0, PropagationSettings(1e-9, 1e-11, 0.5))
    corr = autocorrelation(traj, s)
    f = absorption_from_autocorrelation(traj.times, corr, 0.01, DEFAULT_OMEGA_GRID)
    got = sorted(w for w, _ in spectrum_peaks(DEFAULT_OMEGA_GRID, f)[:2])
    ref_f = solve_realization(tc.with_loss(0.005, 0.005)).absorption(DEFAULT_OMEGA_GRID)
    ref = sorted(w for w, _ in spectrum_peaks(DEFAULT_OMEGA_GRID, ref_f)[:2])
    assert abs(got[0] - ref[0]) <= 0.002 + 1e-12
    assert abs(got[1] - ref[1]) <= 0.002 + 1e-12


def test_short_window_warns_about_truncation():
    t = np.linspace(0.0, 10.0, 11)
    corr = np.ones(11, dtype=complex)
    with pytest.warns(UserWarning, match="truncation"):
        absorption_from_autocorrelation(t, corr, 0.01, np.array([0.0]))


def test_gamma_prime_must_be_positive():
    with pytest.raises(ValueError):
        absorption_from_autocorrelation(np.zeros(2), np.zeros(2, complex), 0.0, np.zeros(1))


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_is_exact(tmp_path):
    hs = htc_problem(2)
    s = init_state(3, 2, 0, multiplicity=3, noise_seed=4)
    traj = propagate(hs, s, 10.0, PropagationSettings(sample_dt=2.0))
    path = tmp_path / "traj.txt"
    save_trajectory(path, traj)
    back = load_trajectory(path)
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.amplitudes, traj.amplitudes)
    assert np.array_equal(back.displacements, traj.displacements)
    assert np.array_equal(back.norms, traj.norms)
    assert np.array_equal(back.energies, traj.energies)
    assert back.labels == traj.labels


def test_checkpoint_preserves_labels(tmp_path):
    traj = Trajectory(
        times=np.array([0.0]),
        amplitudes=np.zeros((1, 1, 2), complex),
        displacements=np.zeros((1, 1, 1), complex),
        norms=np.ones(1),
        energies=np.zeros(1, complex),
        labels=("photon", "emitter-1"),
    )
    path = tmp_path / "t.txt"
    save_trajectory(path, traj)
    assert load_trajectory(path).labels == ("photon", "emitter-1")


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = tmp_path / "x.txt"
    path.write_text("something else\n")
    with pytest.raises(ValueError, match="checkpoint"):
        load_trajectory(path)
