"""Variational propagator: exact-limit checks, conservation laws, serialization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import RK45, solve_ivp
from scipy.linalg import expm

from cavidyn import dense_ref
from cavidyn.constants import HBAR_EV_FS
from cavidyn.dense_ref import FockSpace
from cavidyn.models import (
    HTCModel,
    SystemBathHamiltonian,
    TCModel,
    htc_system_bath,
    no_coupling,
    tc_system_bath,
)
from cavidyn.sf import (
    CavitySpec,
    SFCavityCoupling,
    SFDimerSpec,
    manifold_hamiltonian,
    sf_system_bath,
)
from cavidyn.tc_exact import solve_realization
from cavidyn.thermofield import thermal_htc
import cavidyn.varprop as varprop
from cavidyn.varprop import (
    AnsatzCollapseError,
    MultiD2State,
    PropagationError,
    PropagationSettings,
    absorption_from_autocorrelation,
    autocorrelation,
    energy_expectation,
    eom_rhs,
    init_state,
    mode_occupations,
    overlap_matrix,
    propagate,
    state_norm_sq,
    state_overlap,
    system_populations,
)

TIGHT = PropagationSettings(rel_tol=1e-10, abs_tol=1e-12)


def free_mode_hamiltonian(omega):
    return SystemBathHamiltonian(
        e_sys=np.zeros((1, 1), dtype=complex),
        mode_freqs=np.array([omega]),
        coup_create=no_coupling(1, 1),
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
# a wall-clock deadline would fail this test on a loaded host, not on a bug
@settings(max_examples=30, deadline=None)
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
    # the self-overlap takes the squared norms from the cross term
    assert np.abs(overlap_matrix(f) - s).max() < 1e-14


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
    s = init_state(4, 3, 2, multiplicity=1)
    assert s.amplitudes.shape == (1, 4)
    assert s.displacements.shape == (1, 3)
    assert s.amplitudes[0, 2] == 1.0
    assert np.count_nonzero(s.displacements) == 0
    assert np.isclose(s.norm(), 1.0)


def test_init_state_label_and_vector_forms():
    vec = np.array([0.6, 0.8j, 0.0])
    s2 = init_state(3, 1, vec, multiplicity=1)
    assert np.allclose(s2.amplitudes[0], vec)


@pytest.mark.parametrize("initial", [2, np.array([0.3, 0.4j, 0.0, -1.2])],
                         ids=["label", "vector"])
def test_init_state_draws_the_documented_noise(initial):
    """At M > 1 every amplitude but the requested ones of configuration 1,
    then every displacement, is 1e-4 * sqrt(u) * exp(2 pi i v), with u then
    v drawn per array from numpy's default generator seeded by noise_seed,
    over the base displacement and renormalized: bitwise what earlier
    multi-configuration runs started from."""
    base = np.array([0.2 - 0.1j, 0.0, 1.5j])
    a0 = np.eye(4)[initial] if np.ndim(initial) == 0 else initial
    s = init_state(4, 3, initial, multiplicity=3, noise_seed=9,
                   base_displacement=base)
    rng = np.random.default_rng(9)

    def disk(shape):
        r = np.sqrt(rng.random(shape))
        phi = 2.0 * np.pi * rng.random(shape)
        return 1e-4 * (r * np.exp(1j * phi))

    a = disk((3, 4))
    a[0, a0 != 0] = a0[a0 != 0]
    ref = MultiD2State(a, disk((3, 3)) + base).normalized_to_unit()
    assert np.array_equal(s.amplitudes, ref.amplitudes)
    assert np.array_equal(s.displacements, ref.displacements)


def test_single_configuration_ignores_the_noise_seed():
    """At M = 1 nothing is drawn: every seed gives the requested state over
    the base displacement, exactly."""
    base = np.array([0.5j, -0.25])
    for seed in (0, 1, 2 ** 40):
        s = init_state(3, 2, 1, noise_seed=seed, base_displacement=base)
        assert np.array_equal(s.amplitudes, [[0.0, 1.0, 0.0]])
        assert np.array_equal(s.displacements, base[None, :])


def test_init_state_noise_and_renormalization():
    s = init_state(3, 2, 0, multiplicity=5, noise_seed=7)
    assert abs(s.norm() - 1.0) < 1e-12
    assert np.all(np.abs(s.amplitudes[1:]) <= 1e-4 + 1e-12)
    assert np.all(np.abs(s.displacements) <= 1e-4 + 1e-12)
    # reproducible draws
    s2 = init_state(3, 2, 0, multiplicity=5, noise_seed=7)
    assert np.array_equal(s.amplitudes, s2.amplitudes)


def test_init_state_base_displacement():
    base = np.array([2.0, -1.0j])
    s = init_state(2, 2, 0, multiplicity=3, noise_seed=0, base_displacement=base)
    assert np.all(np.abs(s.displacements - base[None, :]) <= 1e-4 + 1e-12)


# ---------------------------------------------------------------------------
# equations of motion: exact limits


def test_zero_hamiltonian_gives_zero_derivatives():
    h = SystemBathHamiltonian(
        np.zeros((2, 2), complex), np.zeros(2), no_coupling(2, 2)
    )
    s = init_state(2, 2, 0, multiplicity=3, noise_seed=1)
    adot, fdot, _ = eom_rhs(h, s.amplitudes, s.displacements)
    assert np.abs(adot).max() < 1e-12
    assert np.abs(fdot).max() < 1e-12


def test_free_mode_coherent_orbit():
    h = free_mode_hamiltonian(0.2)
    s = MultiD2State(np.array([[1.0 + 0j]]), np.array([[0.8 + 0.4j]]))
    traj = propagate(h, s, np.arange(31.0), TIGHT)
    ref = (0.8 + 0.4j) * np.exp(-1j * 0.2 * traj.times / HBAR_EV_FS)
    assert np.abs(traj.displacements[:, 0, 0] - ref).max() < 1e-8
    assert np.abs(traj.amplitudes[:, 0, 0] - 1.0).max() < 1e-8


def test_metric_cutoff_decides_the_tc_oracle_pair(monkeypatch):
    """The tc oracle config (`test_oracle_pairs[tc]`: eight emitters at
    lam = 0, one configuration, lossless resonant exchange), checked here
    against the exact pole sum, stays within that test's 1e-5 bound at the
    shipped metric cutoff and leaves it when the cutoff discards real
    metric directions: the config sees a broken metric inversion."""
    times = np.arange(0.0, 201.0)
    model = TCModel(8, 1.0, 1.0, 0.1)
    amps = solve_realization(model).amplitudes(1.0, len(times))
    h = htc_system_bath(HTCModel(model, 0.0, 0.124, 0.0))
    state = init_state(h.n_sys, h.n_modes, 0)

    def deviation():
        settings = PropagationSettings(rel_tol=1e-10, abs_tol=1e-12)
        traj = propagate(h, state, times, settings)
        return np.abs(traj.system_populations()[:, 0]
                      - np.abs(amps[:, 0]) ** 2).max()

    assert deviation() <= 1e-5
    monkeypatch.setattr(varprop, "METRIC_CUTOFF", 1e-2)
    assert deviation() > 1e-5


def test_single_surface_displaced_mode():
    # H = c(b^+ + b) + w b^+ b from vacuum: f(t) = -(c/w)(1 - e^{-iwt/hbar})
    c, w = 0.05, 0.15
    h = SystemBathHamiltonian(
        np.zeros((1, 1), complex),
        np.array([w]),
        np.full((1, 1, 1), c, complex),
    )
    s = MultiD2State(np.array([[1.0 + 0j]]), np.zeros((1, 1), complex))
    traj = propagate(h, s, np.arange(61.0), TIGHT)
    ref = -(c / w) * (1.0 - np.exp(-1j * w * traj.times / HBAR_EV_FS))
    assert np.abs(traj.displacements[:, 0, 0] - ref).max() < 1e-8
    assert np.abs(traj.energies - traj.energies[0]).max() < 1e-10


def test_bathless_single_config_is_schroedinger():
    tc = TCModel(4, 1.0, 1.0, 0.1)
    hs = tc_system_bath(tc)
    s = init_state(5, 0, 0, multiplicity=1)
    traj = propagate(hs, s, np.arange(21) * 10.0, PropagationSettings(1e-11, 1e-13))
    h = tc.matrix()
    for i, t in enumerate(traj.times):
        u = expm(-1j * h * t / HBAR_EV_FS)
        assert np.abs(traj.amplitudes[i, 0, :] - u[:, 0]).max() < 1e-9


def test_carrier_offset_costs_nothing(monkeypatch):
    """The bathless case above with e_sys + 5 eV * 1: the carrier frame
    absorbs the offset, so the amplitudes only pick up exp(-i 5 t/hbar) and
    the integrator does the same work.  (G is the identity here, so the
    metric filter is exact.)"""
    hs = tc_system_bath(TCModel(4, 1.0, 1.0, 0.1))
    shifted = SystemBathHamiltonian(hs.e_sys + 5.0 * np.eye(5), hs.mode_freqs,
                                    hs.coup_create)
    s = init_state(5, 0, 0, multiplicity=1)
    settings = PropagationSettings(1e-11, 1e-13)
    times = np.arange(21) * 10.0
    calls = []
    inner = varprop.eom_rhs

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(varprop, "eom_rhs", counted)
    plain = propagate(hs, s, times, settings)
    n_plain = len(calls)
    calls.clear()
    moved = propagate(shifted, s, times, settings)
    n_moved = len(calls)
    phase = np.exp(-1j * 5.0 * plain.times / HBAR_EV_FS)
    assert np.abs(moved.amplitudes - phase[:, None, None] * plain.amplitudes).max() < 1e-8
    assert n_moved <= 1.2 * n_plain


RHS_MODELS = ["sf-manifold1", "sf-manifold2", "htc-lossy", "thermofield"]


def _rhs_model(name):
    """Hamiltonians that exercise every term of eom_rhs: fission manifolds
    with label-changing couplings, a lossy (non-Hermitian) HTC and a
    thermofield double."""
    coupling = SFCavityCoupling(rwa=True)
    return {
        "sf-manifold1": lambda: manifold_hamiltonian(
            [SFDimerSpec()], CavitySpec(), coupling, 1)[1],
        "sf-manifold2": lambda: manifold_hamiltonian(
            [SFDimerSpec()], CavitySpec(), coupling, 2)[1],
        "htc-lossy": lambda: htc_problem(3, kappa=0.006),
        "thermofield": lambda: thermal_htc(HTCModel(
            tc=TCModel(2, 1.0, 1.0, 0.1), lam=1.0, phonon_base=0.0124,
            phonon_bandwidth=0.5), 300.0),
    }[name]()


def _dirac_frenkel_reference(h, a, f):
    """(Adot, Fdot, <psi|psi>) of one state (M, .) from its tangent vectors
    in a number basis (module docstring of `cavidyn.varprop`): G x =
    -(i/hbar) <t|H|psi> solved densely, then Adot = adot + A sum_p f fdot*/2.

    Each mode is cut where the coherent weight beyond the cutoff,
    |f|^(2c+2)/(c+1)!, is below 1e-20, so amplitudes are truncated by less
    than 1e-10.  The metric must be well conditioned (cond < 1e4), so the
    damped filter of eom_rhs inverts it to better than 1e-8."""
    lam = np.max(np.abs(f)) ** 2
    cutoff = next(c for c in range(1, 60)
                  if lam ** (c + 1) / math.factorial(c + 1) < 1e-20)
    fock = FockSpace(h.n_sys, (cutoff,) * h.n_modes)
    dims = fock.mode_dims
    ladder = np.sqrt(np.arange(1.0, cutoff + 1)).reshape(
        (-1,) + (1,) * (h.n_modes - 1))

    def create(v, p):
        """b_p^+ v on the truncated ladder."""
        t = np.moveaxis(v.reshape(dims), p, 0)
        out = np.zeros_like(t)
        out[1:] = ladder * t[:-1]
        return np.moveaxis(out, 0, p).ravel()

    baths = [fock.coherent_bath_vector(fm) for fm in f]
    labels = np.eye(h.n_sys)
    tangents = [np.kron(labels[n], v) for v in baths for n in range(h.n_sys)]
    tangents += [np.kron(am, create(v, p) - 0.5 * np.conj(fm[p]) * v)
                 for am, fm, v in zip(a, f, baths) for p in range(h.n_modes)]
    t = np.array(tangents)
    psi = fock.multiconfig_vector(a, f)
    g = t.conj() @ t.T
    assert np.linalg.cond(g) < 1e4
    x = np.linalg.solve(
        g, -1j / HBAR_EV_FS * (t.conj() @ (fock.sparse_hamiltonian(h) @ psi)))
    adot = x[:a.size].reshape(a.shape)
    fdot = x[a.size:].reshape(f.shape)
    adot = adot + 0.5 * a * np.sum(f * fdot.conj(), axis=-1)[:, None]
    return adot, fdot, np.vdot(psi, psi).real


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("model", RHS_MODELS)
def test_eom_rhs_matches_the_number_basis(model, m):
    """One evaluation against the dense Dirac-Frenkel solve in a truncated
    number basis, relative to the largest derivative, 1e-8; the third value
    is <psi|psi>, equal to state_norm_sq."""
    h = _rhs_model(model)
    rng = np.random.default_rng(m)
    a = rng.normal(size=(m, h.n_sys)) + 1j * rng.normal(size=(m, h.n_sys))
    # small displacements keep the number basis small for up to four modes
    spread = 0.6 if h.n_modes < 4 else 0.3
    f = spread * (rng.normal(size=(m, h.n_modes))
                  + 1j * rng.normal(size=(m, h.n_modes)))
    adot, fdot, norm_sq = eom_rhs(h, a, f)
    ref_a, ref_f, ref_norm = _dirac_frenkel_reference(h, a, f)
    scale = max(np.abs(ref_a).max(), np.abs(ref_f).max())
    assert np.abs(adot - ref_a).max() <= 1e-8 * scale
    assert np.abs(fdot - ref_f).max() <= 1e-8 * scale
    assert abs(norm_sq - ref_norm) <= 1e-12 * ref_norm
    assert abs(norm_sq - state_norm_sq(a, f)) <= 1e-12 * ref_norm


def test_batched_eom_rhs_matches_the_number_basis():
    """A batch of three M = 2 members, each against its own dense solve."""
    h = _rhs_model("sf-manifold2")
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 2, h.n_sys)) + 1j * rng.normal(size=(3, 2, h.n_sys))
    f = 0.6 * (rng.normal(size=(3, 2, h.n_modes))
               + 1j * rng.normal(size=(3, 2, h.n_modes)))
    adot, fdot, norm_sq = eom_rhs(h, a, f)
    assert norm_sq.shape == (3,)
    assert np.abs(norm_sq - state_norm_sq(a, f)).max() <= 1e-12 * norm_sq.max()
    for b in range(3):
        ref_a, ref_f, ref_norm = _dirac_frenkel_reference(h, a[b], f[b])
        scale = max(np.abs(ref_a).max(), np.abs(ref_f).max())
        assert np.abs(adot[b] - ref_a).max() <= 1e-8 * scale
        assert np.abs(fdot[b] - ref_f).max() <= 1e-8 * scale
        assert abs(norm_sq[b] - ref_norm) <= 1e-12 * ref_norm


@pytest.mark.parametrize("batch", [(), (3,)], ids=["single", "batch"])
@pytest.mark.parametrize("m", [1, 2, 4])
@pytest.mark.parametrize("model", RHS_MODELS)
def test_eom_rhs_is_phase_covariant(model, m, batch):
    """eom_rhs(h, e^{i phi} A, f) = (e^{i phi} Adot, fdot): the identity that
    makes propagate's carrier frame an exact change of variables.  Relative
    to the largest derivative, 1e-12."""
    h = _rhs_model(model)
    rng = np.random.default_rng(m)
    a = rng.normal(size=batch + (m, h.n_sys)) + 1j * rng.normal(size=batch + (m, h.n_sys))
    # spread configurations keep the metric well conditioned, so the rounding
    # of the two solves stays near machine precision
    f = 1.5 * (rng.normal(size=batch + (m, h.n_modes))
               + 1j * rng.normal(size=batch + (m, h.n_modes)))
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    adot, fdot, _ = eom_rhs(h, a, f)
    adot_r, fdot_r, _ = eom_rhs(h, phase * a, f)
    scale = max(np.abs(adot).max(), np.abs(fdot).max())
    assert np.abs(adot_r - phase * adot).max() <= 1e-12 * scale
    assert np.abs(fdot_r - fdot).max() <= 1e-12 * scale


def test_resonant_rabi_photon_population():
    hs = tc_system_bath(TCModel(5, 1.0, 1.0, 0.1))
    s = init_state(6, 0, 0, multiplicity=1)
    traj = propagate(hs, s, np.arange(121) * 0.5, PropagationSettings(1e-9, 1e-11))
    ref = np.cos(0.1 * traj.times / HBAR_EV_FS) ** 2
    assert np.abs(traj.photon_population() - ref).max() < 1e-6


def test_htc_zero_coupling_reduces_to_tc():
    tc = TCModel(3, 1.0, 1.0, 0.1)
    htc = HTCModel(tc=tc, lam=0.0, phonon_base=0.124, phonon_bandwidth=0.5)
    s = init_state(4, 3, 0, multiplicity=1)
    traj = propagate(htc_system_bath(htc), s, np.arange(81.0), TIGHT)
    s2 = init_state(4, 0, 0, multiplicity=1)
    traj2 = propagate(tc_system_bath(tc), s2, np.arange(81.0), TIGHT)
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
    traj = propagate(hs, s, np.arange(151.0))
    assert np.abs(traj.norms - 1.0).max() <= 1e-4
    assert np.abs(traj.energies.real - traj.energies[0].real).max() <= 1e-4
    assert np.abs(traj.energies.imag).max() <= 1e-6


def test_lossy_norm_monotone_nonincreasing():
    hs = htc_problem(3, lam=0.1, kappa=0.006)
    s = init_state(4, 3, 0, multiplicity=4, noise_seed=2)
    traj = propagate(hs, s, np.arange(161) * 0.5, PropagationSettings(1e-9, 1e-12))
    assert np.all(np.diff(traj.norms**2) <= 1e-10)


def test_seed_robustness_of_observables():
    # the symmetry-breaking noise is a gauge choice: observables must not
    # depend on its seed.  M=8 is not converged at lam=0.3: both seeds sit
    # 1.4e-2 from the exact photon population (Fock cutoffs 7 and 9 agree to
    # 5e-12), while they agree with each other to better than 1e-3
    hs = htc_problem(4, lam=0.3)
    fock = FockSpace(5, (7,) * 4)
    psi0 = np.zeros(fock.dim, complex)
    psi0[0] = 1.0   # the photon label over the phonon vacuum
    exact = fock.trajectory(hs, psi0, np.arange(0.0, 81.0))
    exact_pph = fock.system_populations(exact)[:, 0]
    curves = []
    for seed in (0, 1):
        s = init_state(5, 4, 0, multiplicity=8, noise_seed=seed)
        traj = propagate(hs, s, np.arange(81.0))
        curves.append(traj.photon_population())
        assert np.abs(curves[-1] - exact_pph).max() <= 2e-2
    assert np.abs(curves[0] - curves[1]).max() <= 1e-3


def test_htc_brute_force_equivalence_short():
    # short-window version of the number-basis check; the 200-fs window is
    # the `htc-dense` oracle config, at lam = 0.1 rather than this test's 0.5
    hs = htc_problem(2)
    fock = FockSpace(3, (10, 10))
    psi0 = fock.multiconfig_vector(np.array([[1.0, 0, 0]], complex), np.zeros((1, 2)))
    times = np.arange(0.0, 60.1, 0.5)
    dense_pph = fock.system_populations(fock.trajectory(hs, psi0, times))[:, 0]
    s = init_state(3, 2, 0, multiplicity=8, noise_seed=1)
    traj = propagate(hs, s, np.arange(121) * 0.5)
    assert np.abs(traj.photon_population() - dense_pph).max() <= 1e-3


def test_fock_trajectory_krylov_path_matches_dense(monkeypatch):
    """Both branches of `FockSpace.trajectory` agree; the Krylov one, forced
    here on a dense-sized space, rejects uneven times."""
    hs = htc_problem(2)
    fock = FockSpace(3, (10, 10))
    psi0 = fock.multiconfig_vector(np.array([[1.0, 0, 0]], complex), np.zeros((1, 2)))
    times = np.arange(0.0, 40.1, 0.5)
    dense = fock.trajectory(hs, psi0, times)
    monkeypatch.setattr(dense_ref, "DENSE_MAX_DIM", 0)
    assert np.abs(fock.trajectory(hs, psi0, times) - dense).max() <= 1e-10
    with pytest.raises(ValueError, match="evenly spaced"):
        fock.trajectory(hs, psi0, np.array([0.0, 1.0, 3.0]))


@pytest.mark.parametrize("krylov", [False, True], ids=["dense", "krylov"])
def test_fock_trajectory_keeps_the_loss(monkeypatch, krylov):
    """A lossy Hamiltonian evolves as expm(-iHt/hbar) on both branches of
    `FockSpace.trajectory`; the norm falls to about 0.5 by 100 fs."""
    hs = htc_problem(2, kappa=0.01)
    fock = FockSpace(3, (6, 6))
    psi0 = np.zeros(fock.dim, complex)
    psi0[0] = 1.0   # the photon label over the phonon vacuum
    times = np.array([0.0, 50.0, 100.0])
    h_matrix = fock.hamiltonian(hs)
    ref = np.array([expm(-1j * h_matrix * t / HBAR_EV_FS) @ psi0
                    for t in times])
    assert np.linalg.norm(ref[-1]) < 0.6
    if krylov:
        monkeypatch.setattr(dense_ref, "DENSE_MAX_DIM", 0)
    assert np.abs(fock.trajectory(hs, psi0, times) - ref).max() <= 1e-10


def test_fock_propagate_is_the_exact_twin_of_propagate():
    """At lam = 0 one configuration is exact, also for displaced modes and
    with loss: the twin's members match those of `propagate`."""
    hs = htc_problem(2, lam=0.0, kappa=0.01)
    state = init_state(3, 2, 0, base_displacement=np.array([0.5, 0.3j]))
    times = np.arange(0.0, 41.0, 2.0)
    twin = FockSpace(3, (12, 12)).propagate(hs, state, times)
    traj = propagate(hs, state, times, TIGHT)
    np.testing.assert_array_equal(twin.times, times)
    assert twin.norms[-1] < 0.9
    for name in ("norms", "energies"):
        assert np.abs(getattr(twin, name) - getattr(traj, name)).max() <= 1e-7
    for name in ("system_populations", "mode_occupations"):
        assert np.abs(getattr(twin, name)() - getattr(traj, name)()).max() \
            <= 1e-7


def test_trajectory_observables_equal_per_snapshot_calls():
    """The kernels broadcast over the time axis exactly like 2-D calls per
    snapshot, with more than one configuration on the config axes."""
    hs = htc_problem(2)
    s = init_state(3, 2, 0, multiplicity=2, noise_seed=4)
    traj = propagate(hs, s, np.arange(11.0))
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


# ---------------------------------------------------------------------------
# batch axis: independent states of one Hamiltonian in one call


@pytest.mark.parametrize("m", [1, 2])
def test_batched_rhs_equals_member_calls(m):
    _, h = sf_system_bath([SFDimerSpec()], CavitySpec(), SFCavityCoupling())
    rng = np.random.default_rng(10 + m)
    a = rng.normal(size=(3, m, h.n_sys)) + 1j * rng.normal(size=(3, m, h.n_sys))
    f = 0.4 * (rng.normal(size=(3, m, h.n_modes))
               + 1j * rng.normal(size=(3, m, h.n_modes)))
    adot, fdot, _ = eom_rhs(h, a, f)
    assert adot.shape == a.shape and fdot.shape == f.shape
    for b in range(3):
        ad, fd, _ = eom_rhs(h, a[b], f[b])
        assert np.abs(adot[b] - ad).max() < 1e-12
        assert np.abs(fdot[b] - fd).max() < 1e-12


def test_batched_collapse_check_is_per_member():
    # a healthy member passes alone; batched with a member whose overlaps
    # overflow, the batch must trip the non-finite guard
    hs = htc_problem(2)
    s = init_state(3, 2, 0, multiplicity=2, noise_seed=1)
    eom_rhs(hs, s.amplitudes, s.displacements)
    with np.errstate(all="ignore"), pytest.raises(AnsatzCollapseError, match="finite"):
        eom_rhs(hs, np.stack([s.amplitudes, s.amplitudes]),
                np.stack([s.displacements,
                          np.full_like(s.displacements, 1e200)]))


def test_batch_steps_for_its_worst_member():
    """Two labels carry the displaced-oscillator problem of
    test_single_surface_displaced_mode at couplings c and 4c.  Batched, each
    member keeps that test's analytic tolerance and is no less accurate than
    alone: the weak member rides the strong one's shorter steps, and the
    strong one faces its own error test as alone.  (Accepting on the RMS
    norm of the whole stacked vector instead lets the strong member's error
    grow by a quarter.)"""
    c, w = 0.05, 0.15
    coup = np.zeros((2, 2, 1), complex)
    coup[0, 0, 0], coup[1, 1, 0] = c, 4 * c
    h = SystemBathHamiltonian(np.zeros((2, 2), complex), np.array([w]), coup)
    members = MultiD2State(np.eye(2, dtype=complex)[:, None, :],
                           np.zeros((2, 1, 1), complex))
    batched = propagate(h, members, np.arange(61.0), TIGHT)
    assert batched.amplitudes.shape == (61, 2, 1, 2)
    assert batched.norms.shape == batched.energies.shape == (61, 2)
    phase = 1.0 - np.exp(-1j * w * batched.times / HBAR_EV_FS)

    def error(disps, coupling):
        return np.abs(disps - (-(coupling / w) * phase)).max()

    for b, coupling in enumerate((c, 4 * c)):
        alone = propagate(h, MultiD2State(members.amplitudes[b],
                                          members.displacements[b]),
                          np.arange(61.0), TIGHT)
        err_batch = error(batched.displacements[:, b, 0, 0], coupling)
        assert err_batch < 1e-8
        assert np.abs(batched.energies[:, b] - batched.energies[0, b]).max() < 1e-10
        # the strong member sets nearly every step, as it would alone
        assert err_batch <= 1.05 * error(alone.displacements[:, 0, 0], coupling)


def test_batched_propagation_matches_member_runs():
    """Batched members agree with their own unbatched propagations within
    1e-5."""
    hs = htc_problem(2)
    states = [init_state(3, 2, n, multiplicity=2, noise_seed=n) for n in range(3)]
    batch = MultiD2State(np.stack([s.amplitudes for s in states]),
                         np.stack([s.displacements for s in states]))
    times = np.arange(21.0)
    traj = propagate(hs, batch, times)
    pops = traj.system_populations()
    for b, s in enumerate(states):
        alone = propagate(hs, s, times)
        assert np.abs(pops[:, b] - alone.system_populations()).max() < 1e-5
        assert np.abs(traj.energies[:, b] - alone.energies).max() < 1e-5
        assert np.abs(traj.norms[:, b] - alone.norms).max() < 1e-5


def test_runaway_norm_guard():
    hs = htc_problem(2)
    s = init_state(3, 2, 0, multiplicity=2, noise_seed=1)
    bad = MultiD2State(3.0 * s.amplitudes, s.displacements)
    with pytest.raises(PropagationError, match="norm"):
        propagate(hs, bad, np.arange(11) * 0.1)


def test_propagation_rejects_bad_settings():
    with pytest.raises(ValueError):
        PropagationSettings(rel_tol=0.0)
    with pytest.raises(ValueError):
        PropagationSettings(abs_tol=-1.0)


@pytest.mark.parametrize("times", [[-1.0, 0.0], [0.0, 2.0, 1.0],
                                   [0.0, 1.0, 1.0], [], -5.0],
                         ids=["negative", "decreasing", "repeated", "empty",
                              "scalar"])
def test_propagate_integrates_forward_only(times):
    """Sample times must be non-negative and increasing: there is no
    backward integration."""
    hs = htc_problem(2)
    s = init_state(3, 2, 0, multiplicity=2, noise_seed=1)
    with pytest.raises(ValueError, match="non-negative and increasing"):
        propagate(hs, s, times)


def test_zero_span_returns_the_initial_state():
    hs = htc_problem(2)
    s = init_state(3, 2, 0, multiplicity=2, noise_seed=1)
    traj = propagate(hs, s, [0.0])
    assert np.array_equal(traj.times, [0.0])
    assert np.array_equal(traj.amplitudes, s.amplitudes[None])
    assert np.array_equal(traj.displacements, s.displacements[None])
    assert abs(traj.norms[0] - 1.0) < 1e-12


def test_non_finite_metric_is_a_collapse():
    """Displacements of 1e200 overflow the overlaps; the guard must name the
    degenerate state instead of letting eigh fail to converge."""
    hs = htc_problem(2)
    s = init_state(3, 2, 0, multiplicity=2, noise_seed=1)
    with np.errstate(all="ignore"), pytest.raises(AnsatzCollapseError, match="finite"):
        eom_rhs(hs, s.amplitudes, np.full_like(s.displacements, 1e200))


# ---------------------------------------------------------------------------
# the Dormand-Prince stepper against scipy's RK45


class _WorstMemberRK45(RK45):
    """scipy's RK45 with the worst-member error norm that `propagate` used
    before it had its own stepper."""

    def __init__(self, fun, t0, y0, t_bound, members=1, **options):
        self.members = members
        super().__init__(fun, t0, y0, t_bound, **options)

    def _estimate_error_norm(self, K, h, scale):
        err = self._estimate_error(K, h) / scale
        return max(np.linalg.norm(e) / e.size ** 0.5
                   for e in err.reshape(self.members, -1))


def _counted(fun):
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(1)
        return fun(*args, **kwargs)
    return wrapped, calls


@pytest.mark.parametrize("t_eval", [
    np.linspace(0.0, 6.0, 13),
    np.array([0.35, 1.7, 2.25, 4.0]),
], ids=["forward", "no-origin"])
def test_stepper_matches_scipy_rk45(t_eval):
    """A nonlinear complex ODE: same samples to 1e-13, same evaluations."""
    def fun(t, z):
        return 1j * ((1.0 + np.abs(z) ** 2) * z + 0.3 * np.sin(t) * z[::-1])

    z0 = np.array([1.0 + 0.5j, -0.3 + 0.8j, 0.2 - 0.1j])
    ours, n_ours = _counted(fun)
    got = varprop._dormand_prince(ours, z0, t_eval, 1e-6, 1e-8)
    ref = solve_ivp(fun, (0.0, t_eval[-1]), z0, method="RK45", rtol=1e-6,
                    atol=1e-8, t_eval=t_eval)
    assert ref.success
    assert got.shape == (len(t_eval), 3)
    assert np.abs(got - ref.y.T).max() < 1e-13
    assert len(n_ours) == ref.nfev


def test_batched_propagate_matches_scipy_worst_member(monkeypatch):
    """The stepper in `propagate` against scipy's RK45 with the same
    worst-member norm, on a batch of three M=2 members."""
    def scipy_stepper(fun, y0, t_eval, rtol, atol, members=1):
        sol = solve_ivp(fun, (0.0, t_eval[-1]), y0, method=_WorstMemberRK45,
                        rtol=rtol, atol=atol, t_eval=t_eval, members=members)
        assert sol.success
        return sol.y.T.copy()

    hs = htc_problem(2)
    states = [init_state(3, 2, n, multiplicity=2, noise_seed=n) for n in range(3)]
    batch = MultiD2State(np.stack([s.amplitudes for s in states]),
                         np.stack([s.displacements for s in states]))
    counted, calls = _counted(varprop.eom_rhs)
    monkeypatch.setattr(varprop, "eom_rhs", counted)
    ours = propagate(hs, batch, np.arange(201) * 0.1)
    n_ours = len(calls)
    calls.clear()
    monkeypatch.setattr(varprop, "_dormand_prince", scipy_stepper)
    ref = propagate(hs, batch, np.arange(201) * 0.1)
    assert np.array_equal(ours.times, ref.times)
    assert np.abs(ours.amplitudes - ref.amplitudes).max() < 1e-12
    assert np.abs(ours.displacements - ref.displacements).max() < 1e-12
    assert n_ours == len(calls)


def test_stepper_fails_on_blow_up():
    """y' = y^2, y(0) = 1 diverges at t = 1: the step size underflows."""
    def fun(t, y):
        return y * y

    with np.errstate(all="ignore"):
        assert not solve_ivp(fun, (0.0, 2.0), [1.0], method="RK45").success
        with pytest.raises(PropagationError, match="step size"):
            varprop._dormand_prince(fun, np.array([1.0]), np.array([0.0, 2.0]),
                                    1e-6, 1e-8)


# ---------------------------------------------------------------------------
# absorption from the overlap autocorrelation


def test_zero_hamiltonian_lineshape_is_lorentzian_at_origin():
    h = SystemBathHamiltonian(
        np.zeros((1, 1), complex), np.zeros(0), no_coupling(1, 0)
    )
    s = init_state(1, 0, 0, multiplicity=1)
    traj = propagate(h, s, np.arange(1601) * 0.5)
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
    s = init_state(21, 0, 0, multiplicity=1)
    traj = propagate(hs, s, np.arange(801) * 0.5, PropagationSettings(1e-9, 1e-11))
    corr = autocorrelation(traj, s)
    f = absorption_from_autocorrelation(traj.times, corr, 0.01, DEFAULT_OMEGA_GRID)
    got = sorted(w for w, _ in spectrum_peaks(DEFAULT_OMEGA_GRID, f)[:2])
    ref_f = solve_realization(
        TCModel(20, 1.0, 1.0, 0.1, kappa=0.005, gamma=0.005)).absorption(DEFAULT_OMEGA_GRID)
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
