"""Tests for the third-order response / 2D spectra module.

The key oracle is a dense brute-force evaluation on a small vibronic ladder
(g/e or g/e/f electronic levels, one mode): every engine response function is
compared against Heisenberg four-point dipole correlators computed by exact
diagonalization.  For linear mode coupling a single-configuration coherent
ansatz is exact, so agreement is limited only by integrator tolerance.
"""

import numpy as np
import pytest

from cavidyn.constants import HBAR_EV_FS
from cavidyn.dense_ref import DensePropagator
from cavidyn.models import SystemBathHamiltonian, TCModel, tc_system_bath
from cavidyn.spectro import (
    ResponseGrid,
    diagonal_peaks,
    first_leg_bank,
    linear_absorption,
    response_esa,
    response_se_gsb,
    spectra,
)
from cavidyn import spectro
from cavidyn.varprop import MultiD2State, PropagationSettings, init_state

TIGHT = PropagationSettings(rel_tol=1e-9, abs_tol=1e-11)

EPS_E, EPS_F = 2.0, 4.1
OMEGA = 0.15
KAP_E, KAP_F = 0.08, 0.05
MU, MU_UP = 1.0, 0.8


# ---------------------------------------------------------------------------
# dense brute-force oracle: exact diagonalization + Heisenberg correlators


def _boson_annihilate(cutoff):
    return np.diag(np.sqrt(np.arange(1, cutoff + 1)), 1)


def dense_ladder(cutoff=16, with_upper=False):
    """Exact (g, e[, f]) x Fock problem: returns eigh pieces, dipole, ground."""
    d = 3 if with_upper else 2
    nb = cutoff + 1
    b = _boson_annihilate(cutoff)
    bd = b.T
    iph = np.eye(nb)

    def proj(i):
        p = np.zeros((d, d))
        p[i, i] = 1.0
        return p

    h = np.kron(np.eye(d), OMEGA * bd @ b)
    h += np.kron(proj(1), EPS_E * iph + KAP_E * (b + bd))
    if with_upper:
        h += np.kron(proj(2), EPS_F * iph + KAP_F * (b + bd))
    up = np.zeros((d, d))
    up[1, 0] = MU
    if with_upper:
        up[2, 1] = MU_UP
    mu_full = np.kron(up, iph)
    mu_full = mu_full + mu_full.T
    ground = np.zeros(d * nb)
    ground[0] = 1.0
    evals, evecs = np.linalg.eigh(h)
    return evals, evecs, mu_full, ground


def _mu_heisenberg(evals, evecs, mu_full, s):
    a = evecs.conj().T @ mu_full @ evecs
    b = (np.exp(1j * evals * s / HBAR_EV_FS)[:, None] * a) \
        * np.exp(-1j * evals * s / HBAR_EV_FS)[None, :]
    return evecs @ b @ evecs.conj().T


def four_point_terms(dense, tau, tw, t):
    """The four independent terms of the nested dipole commutator:
    Q1 = <m4 m3 m2 m1>, Q2 = <m1 m4 m3 m2>, Q3 = <m2 m4 m3 m1>,
    Q4 = <m1 m2 m4 m3>, with m_k the Heisenberg dipole at the k-th
    interaction time (0, tau, tau+T_w, tau+T_w+t)."""
    evals, evecs, mu_full, ground = dense
    mats = [_mu_heisenberg(evals, evecs, mu_full, s)
            for s in (0.0, tau, tau + tw, tau + tw + t)]

    def chain(order):
        v = ground.astype(complex)
        for i in order[:-1]:
            v = mats[i] @ v
        return complex(np.vdot(ground, mats[order[-1]] @ v))

    return (chain([0, 1, 2, 3]), chain([1, 2, 3, 0]),
            chain([0, 2, 3, 1]), chain([2, 3, 1, 0]))


def monomer_hamiltonian(eps, kap):
    c = np.array([[[kap]]], dtype=complex)
    return SystemBathHamiltonian(
        np.array([[eps]], dtype=complex), np.array([OMEGA]), c)


@pytest.fixture(scope="module")
def toy():
    """Engine responses + dense oracle pieces on one shared grid."""
    h1 = monomer_hamiltonian(EPS_E, KAP_E)
    h2 = monomer_hamiltonian(EPS_F, KAP_F)
    mu, mu_up = np.array([MU]), np.array([[MU_UP]])
    grid = ResponseGrid(8, 2.0, (0.0, 8.0), 0.01)
    bank = first_leg_bank(h1, mu, grid)
    rs = response_se_gsb(bank, grid, mu)
    es = response_esa(bank, h2, grid, mu, mu_up)
    return {"h1": h1, "h2": h2, "mu": mu, "mu_up": mu_up, "grid": grid,
            "bank": bank, "rs": rs, "es": es,
            "dense2": dense_ladder(with_upper=False),
            "dense3": dense_ladder(with_upper=True)}


@pytest.fixture(scope="module")
def toy_m2(toy):
    """The toy responses from two configurations per state: any mix-up of
    the bra and ket configuration axes shows only here."""
    bank = first_leg_bank(toy["h1"], toy["mu"], toy["grid"], multiplicity=2,
                          noise_seed=1)
    return {**toy, "bank": bank,
            "rs": response_se_gsb(bank, toy["grid"], toy["mu"]),
            "es": response_esa(bank, toy["h2"], toy["grid"], toy["mu"],
                               toy["mu_up"])}


@pytest.mark.parametrize("engine", ["toy", "toy_m2"], ids=["M1", "M2"])
def test_four_responses_match_sum_over_states(request, engine):
    """R1 = Q2*, R2 = Q3*, R3 = Q4, R4 = Q1 on the whole grid, <= 1e-3 rel."""
    toy = request.getfixturevalue(engine)
    grid, rs = toy["grid"], toy["rs"]
    checked = 0
    for k, tau in enumerate(grid.times_fs):
        for w, tw in enumerate(grid.tw_fs):
            for i, t in enumerate(grid.times_fs):
                q1, q2, q3, q4 = four_point_terms(toy["dense2"], tau, tw, t)
                expected = {"R1": np.conj(q2), "R2": np.conj(q3),
                            "R3": q4, "R4": q1}
                for name, ref in expected.items():
                    got = rs[name][k, w, i]
                    assert abs(got - ref) <= 1e-3 * max(abs(ref), 0.05), (
                        f"{name} at (tau={tau}, Tw={tw}, t={t}): "
                        f"{got} vs {ref}")
                checked += 1
    assert checked >= 50   # well past the required sample size


@pytest.mark.parametrize("engine", ["toy", "toy_m2"], ids=["M1", "M2"])
def test_esa_matches_sum_over_states(request, engine):
    """R1*/R2* equal the upper-level pathway parts of Q2/Q3, <= 1e-3 rel."""
    toy = request.getfixturevalue(engine)
    grid, es = toy["grid"], toy["es"]
    rng = np.random.default_rng(3)
    picks = {(int(rng.integers(grid.n)), int(rng.integers(2)),
              int(rng.integers(grid.n))) for _ in range(80)}
    assert len(picks) >= 50
    for k, w, i in sorted(picks):
        tau, tw, t = grid.times_fs[k], grid.tw_fs[w], grid.times_fs[i]
        q3l = four_point_terms(toy["dense3"], tau, tw, t)
        q2l = four_point_terms(toy["dense2"], tau, tw, t)
        d2 = q3l[1] - q2l[1]
        d3 = q3l[2] - q2l[2]
        assert abs(es["R1s"][k, w, i] - d2) <= 1e-3 * max(abs(d2), 0.05)
        assert abs(es["R2s"][k, w, i] - d3) <= 1e-3 * max(abs(d3), 0.05)


def test_zero_time_values(toy):
    """At tau = T_w = t = 0 every R reduces to pure dipole products."""
    rs, es = toy["rs"], toy["es"]
    for name in ("R1", "R2", "R3", "R4"):
        assert abs(rs[name][0, 0, 0] - MU ** 4) < 1e-12
    for name in ("R1s", "R2s"):
        assert abs(es[name][0, 0, 0] - MU ** 2 * MU_UP ** 2) < 1e-10


def test_r1_r2_hermitian_pair(toy):
    rs = toy["rs"]
    for w in range(2):
        assert abs(rs["R1"][0, w, 0] - np.conj(rs["R2"][0, w, 0])) < 1e-10


def test_dipole_scaling_fourth_power(toy):
    grid, scaled = toy["grid"], 2.0 * toy["mu"]
    bank = first_leg_bank(toy["h1"], scaled, grid)
    rs2 = response_se_gsb(bank, grid, scaled)
    for name in ("R1", "R2", "R3", "R4"):
        assert np.max(np.abs(rs2[name] - 16.0 * toy["rs"][name])) == 0.0


def test_zero_dipoles_zero_response(toy):
    dark = np.array([0.0])
    rs = response_se_gsb(toy["bank"], toy["grid"], dark)
    for name in ("R1", "R2", "R3", "R4"):
        assert np.all(rs[name] == 0)
    with pytest.raises(ValueError, match="bright"):
        first_leg_bank(toy["h1"], dark, toy["grid"])


def test_zero_upward_dipoles_zero_esa(toy):
    es = response_esa(toy["bank"], toy["h2"], toy["grid"], toy["mu"],
                      np.array([[0.0]]))
    assert np.all(es["R1s"] == 0) and np.all(es["R2s"] == 0)


def test_zero_hamiltonian_constant_bank():
    h0 = monomer_hamiltonian(0.0, 0.0)
    grid = ResponseGrid(4, 1.0, (0.0,), 0.01)
    bank = first_leg_bank(h0, np.array([1.0]), grid)
    assert np.max(np.abs(bank.fwd[0].amplitudes - 1.0)) < 1e-9
    assert np.max(np.abs(bank.fwd[0].displacements)) < 1e-9


def test_displaced_oscillator_orbit():
    """Single-surface first leg follows f(t) = (kappa/omega)(e^{-i w t/hbar}-1)."""
    h1 = monomer_hamiltonian(EPS_E, KAP_E)
    grid = ResponseGrid(6, 2.0, (0.0,), 0.01)
    bank = first_leg_bank(h1, np.array([1.0]), grid, settings=TIGHT)
    times = bank.fwd[0].times
    ref = (KAP_E / OMEGA) * (np.exp(-1j * OMEGA * times / HBAR_EV_FS) - 1.0)
    assert np.max(np.abs(bank.fwd[0].displacements[:, 0, 0] - ref)) < 1e-7


def test_grid_validation_errors():
    with pytest.raises(ValueError, match="sample grid"):
        ResponseGrid(4, 1.0, (0.5,), 0.01)
    with pytest.raises(ValueError, match="gamma_prime"):
        ResponseGrid(4, 1.0, (0.0,), 0.0)
    with pytest.raises(ValueError, match="two points"):
        ResponseGrid(1, 1.0, (0.0,), 0.01)
    with pytest.raises(ValueError, match="step must be > 0"):
        ResponseGrid(3, -0.5, (0.0,), 0.01)
    with pytest.raises(ValueError, match="step must be > 0"):
        ResponseGrid(3, 0.0, (0.0,), 0.01)
    with pytest.raises(ValueError, match="waiting time"):
        ResponseGrid(4, 1.0, (), 0.01)


def test_bank_rejects_offgrid_times(toy):
    bank = toy["bank"]
    with pytest.raises(ValueError, match="not on the"):
        bank.forward(0, 1.37)
    with pytest.raises(ValueError, match="outside"):
        bank.forward(0, 1e6)


@pytest.mark.parametrize("kappa, legs", [(0.0, 2), (0.01, 4)],
                         ids=["real", "lossy"])
def test_backward_branch_equals_exact_negative_time_propagation(
        monkeypatch, kappa, legs):
    """On a bathless Tavis-Cummings system one configuration is exact, so
    the bank's backward branch equals exp(+iHt/hbar) on each bright label.
    The real system reuses the forward legs (two integrations); the lossy,
    non-Hermitian one integrates one conjugated leg per bright label."""
    model = TCModel(3, 1.0, 1.02, 0.1, kappa=kappa, gamma=kappa / 5)
    h1 = tc_system_bath(model)
    mu = np.array([1.0, 0.5, 0.0, 0.0])
    grid = ResponseGrid(6, 2.0, (4.0,), 0.01)
    calls = {"n": 0}
    real = spectro.propagate

    def counting(*a, **kw):
        calls["n"] += 1
        return real(*a, **kw)

    monkeypatch.setattr(spectro, "propagate", counting)
    bank = first_leg_bank(h1, mu, grid, settings=TIGHT)
    assert calls["n"] == legs
    exact = DensePropagator(model.matrix(), hermitian=kappa == 0)
    t = grid.times_fs
    for n in bank.bright:
        amps, _ = bank.backward(n, -t)
        ref = exact.trajectory(np.eye(1, h1.n_sys, n)[0], -t)
        assert np.abs(amps[:, 0] - ref).max() <= 1e-8


def test_complex_start_on_a_real_hamiltonian_integrates_the_conjugated_leg(
        toy, monkeypatch):
    """The noisy M = 2 start is complex although h1 is real, so the bank
    integrates the conjugated leg (two integrations for one bright label),
    and its backward branch is the conjugate of that leg: the forward
    propagation of the conjugated start under conj(h1) = h1."""
    grid = ResponseGrid(4, 2.0, (0.0,), 0.01)
    calls = {"n": 0}
    real = spectro.propagate

    def counting(*a, **kw):
        calls["n"] += 1
        return real(*a, **kw)

    monkeypatch.setattr(spectro, "propagate", counting)
    bank = first_leg_bank(toy["h1"], toy["mu"], grid, 2, 1)
    assert calls["n"] == 2
    start = init_state(toy["h1"].n_sys, toy["h1"].n_modes, 0, multiplicity=2,
                       noise_seed=1)
    assert start.amplitudes.imag.any() and not toy["h1"].e_sys.imag.any()
    leg = real(toy["h1"], MultiD2State(start.amplitudes.conj(),
                                       start.displacements.conj()),
               grid.times_fs)
    amps, disps = bank.backward(0, -grid.times_fs)
    np.testing.assert_array_equal(amps, leg.amplitudes.conj())
    np.testing.assert_array_equal(disps, leg.displacements.conj())
    # the real-start shortcut, the conjugated forward leg, would differ
    shortcut = bank.forward(0, grid.times_fs)[0].conj()
    assert np.abs(amps - shortcut).max() > 1e-6


def test_spectra_total_identity(toy):
    """One complex (T_w, omega_tau, omega_t) map per pathway, from all six
    response functions: windows inside the grid's Nyquist."""
    grid = toy["grid"]
    w_tau, w_t = np.linspace(0.2, 1.0, 21), np.linspace(0.3, 1.0, 15)
    maps = spectra({**toy["rs"], **toy["es"]}, grid, w_tau, w_t)
    assert sorted(maps) == ["esa", "gsb", "se"]
    for m in maps.values():
        assert m.shape == (2, 21, 15) and m.dtype == complex
    with pytest.raises(KeyError):
        spectra(toy["rs"], grid, w_tau, w_t)


@pytest.fixture(scope="module")
def spec_toy():
    """Finely sampled (dt = 0.5 fs) monomer maps for spectral-domain checks:
    the T_w = 0 slices beside the omega axes they were transformed to."""
    h1 = monomer_hamiltonian(EPS_E, KAP_E)
    h2 = monomer_hamiltonian(EPS_F, KAP_F)
    mu, mu_up = np.array([MU]), np.array([[MU_UP]])
    grid = ResponseGrid(40, 0.5, (0.0,), 0.02)
    bank = first_leg_bank(h1, mu, grid)
    rs = response_se_gsb(bank, grid, mu)
    es = response_esa(bank, h2, grid, mu, mu_up)
    w_tau = np.linspace(1.6, 2.4, 81)
    w_t = np.linspace(1.6, 2.6, 101)
    maps = spectra({**rs, **es}, grid, w_tau, w_t)
    return {"omega_tau": w_tau, "omega_t": w_t,
            **{k: m[0] for k, m in maps.items()}}


def test_se_gsb_diagonal_peaks_coincide(spec_toy):
    """Monomer 0-0 line: SE and GSB share their dominant diagonal peak."""
    m = spec_toy
    axes = m["omega_tau"], m["omega_t"]
    peak_se = diagonal_peaks(m["se"], *axes, n_peaks=1, band=0.06)
    peak_gsb = diagonal_peaks(m["gsb"], *axes, n_peaks=1, band=0.06)
    step = m["omega_tau"][1] - m["omega_tau"][0]
    assert abs(peak_se[0][0] - peak_gsb[0][0]) <= step + 1e-12
    # 0-0 line sits at eps_e - kappa^2/omega, inside the window resolution
    assert abs(peak_se[0][0] - (EPS_E - KAP_E ** 2 / OMEGA)) < 0.12


def test_esa_sign_at_dominant_pixels(spec_toy):
    esa = spec_toy["esa"].real.ravel()
    top = np.argsort(np.abs(esa))[-10:]
    assert np.all(esa[top] <= 0)


def test_esa_map_peak_position(spec_toy):
    """ESA intensity concentrates near (w_tau ~ e gap, w_t ~ f-e gap)."""
    m = spec_toy
    i, j = np.unravel_index(np.argmax(np.abs(m["esa"])), m["esa"].shape)
    assert abs(m["omega_tau"][i] - EPS_E) < 0.2  # short window, coarse lines
    assert abs(m["omega_t"][j] - (EPS_F - EPS_E)) < 0.2


def test_nyquist_guard(toy):
    grid = toy["grid"]
    limit = np.pi * HBAR_EV_FS / grid.dt
    with pytest.raises(ValueError, match="Nyquist"):
        spectra(toy["rs"], grid, np.array([0.5]), np.array([limit * 1.01]))


def test_linear_absorption_lorentzian_peak():
    """kappa = 0 monomer: F peaks at eps_e with height mu^2/(pi gamma')."""
    h1 = monomer_hamiltonian(EPS_E, 0.0)
    w = np.linspace(1.9, 2.1, 201)
    f = linear_absorption(h1, np.array([1.5]), w, np.arange(4001) * 0.1,
                          gamma_prime=0.01)
    assert abs(w[np.argmax(f)] - EPS_E) < 1.1e-3
    height = 1.5 ** 2 / (np.pi * 0.01)
    assert abs(f.max() - height) / height < 0.05
    dark = linear_absorption(h1, np.array([0.0]), w, np.arange(11.0))
    assert np.all(dark == 0)


def test_diagonal_peaks_synthetic():
    w = np.linspace(0.0, 1.0, 101)
    x, y = np.meshgrid(w, w, indexing="ij")
    m = (np.exp(-((x - 0.3) ** 2 + (y - 0.3) ** 2) / 1e-3)
         + 0.5 * np.exp(-((x - 0.7) ** 2 + (y - 0.7) ** 2) / 1e-3))
    peaks = diagonal_peaks(m, w, w, n_peaks=2)
    assert abs(peaks[0][0] - 0.3) < 0.02 and abs(peaks[1][0] - 0.7) < 0.02
    # complex maps (the spectra are complex) report the real part
    rotated = diagonal_peaks(m * np.exp(2.0j), w, w, n_peaks=2)
    assert [p[:2] for p in rotated] == [p[:2] for p in peaks]
    assert np.allclose([p[2] for p in rotated],
                       [p[2] * np.cos(2.0) for p in peaks], atol=1e-15)
