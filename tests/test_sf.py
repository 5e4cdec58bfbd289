"""Tests for the cavity-coupled singlet-fission dimer module."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import poisson

from cavidyn.models import TCModel, UnsupportedModelError
from cavidyn.sf import (
    CavitySpec,
    SFCavityCoupling,
    SFDimerSpec,
    adjacent_gap_minima,
    coherent_init,
    count_labels_by_excitation,
    derive_kappas_from_ci,
    dipole_up,
    electronic_labels,
    excitation_expectation,
    fock_cutoff_for_coherent_tail,
    label_has_tt,
    label_str,
    label_weight,
    manifold_hamiltonian,
    manifold_labels,
    pes_scan,
    rabi_splitting,
    sf_matter_only,
    sf_observables,
    sf_system_bath,
)
from cavidyn.varprop import PropagationSettings, init_state, propagate

SET = PropagationSettings(sample_dt=1.0)


def test_kappa_derivation_reference_values():
    ks, kt = derive_kappas_from_ci(0.07, 2.256, 2.23, 2.28, 0.186)
    assert abs(ks - 0.36491857142856854) < 1e-14
    assert abs(kt - -0.34936714285714315) < 1e-14
    # both diabats re-evaluate to the crossing energy at the crossing point
    for eps, k in ((2.23, ks), (2.28, kt)):
        assert abs(eps + 0.5 * 0.186 * 0.07**2 + k * 0.07 - 2.256) < 1e-12
    # the diabatic gap changes sign exactly once on [-1, 1]
    q = np.linspace(-1.0, 1.0, 4001)
    gap = (2.23 + ks * q) - (2.28 + kt * q)
    crossings = int(np.sum(gap[:-1] * gap[1:] < 0)) + int(np.sum(gap == 0.0))
    assert crossings == 1


def test_kappa_derivation_errors_and_symmetry():
    with pytest.raises(ValueError):
        derive_kappas_from_ci(0.0, 2.256, 2.23, 2.28, 0.186)
    with pytest.raises(ValueError):
        derive_kappas_from_ci(0.0, 2.25, 2.25, 2.25, 0.186)
    # degenerate verticals give equal slopes
    ks, kt = derive_kappas_from_ci(0.1, 2.3, 2.25, 2.25, 0.186)
    assert ks == kt


def test_rabi_splitting_values():
    assert rabi_splitting(2.256, 2.256, 1, 0.2) == pytest.approx(0.2, abs=0)
    assert abs(rabi_splitting(2.256, 2.23, 2, 0.2) - 0.284035209085071) < 1e-15
    vals = [rabi_splitting(2.256, 2.23, n, 0.2) for n in (1, 2, 4, 8)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        rabi_splitting(2.256, 2.23, 0, 0.2)


def test_label_enumeration_and_manifold_counts():
    assert len(electronic_labels(1, False)) == 3
    assert len(electronic_labels(1, True)) == 5
    assert len(electronic_labels(2, True)) == 25
    assert count_labels_by_excitation(1, True) == [1, 3, 5]
    assert count_labels_by_excitation(2, False) == [1, 5, 9]
    # ground / singly- / doubly-excited label counts for two five-state dimers
    assert count_labels_by_excitation(2, True) == [1, 5, 13]
    assert label_weight(("TTn", "S1")) == 3
    assert label_has_tt(("g", "TTn")) and not label_has_tt(("S1", "Sn"))
    with pytest.raises(UnsupportedModelError):
        electronic_labels(3, False)


def test_coherent_tail_cutoff():
    n = fock_cutoff_for_coherent_tail(math.sqrt(6.0))
    assert n == 27
    assert poisson.sf(n, 6.0) < 1e-10 <= poisson.sf(n - 1, 6.0)
    assert fock_cutoff_for_coherent_tail(0.0) == 0


def test_bright_pair_gap_matches_closed_form():
    for nd in (1, 2):
        for omega_c in (2.256, 2.23):  # finite and zero detuning
            dimers = [SFDimerSpec(lam_ci=0.0)] * nd
            coup = SFCavityCoupling(omega=0.2, rwa=True, n_dimers=nd)
            _, h = manifold_hamiltonian(dimers, CavitySpec(omega_c=omega_c), coup, 1)
            ev = np.linalg.eigvalsh(h.e_sys)
            gap = ev.max() - ev.min()
            assert abs(gap - rabi_splitting(omega_c, 2.23, nd, 0.2)) < 1e-12


def test_manifold_one_vertical_hamiltonian():
    # the cavity-coupled 2x2 block equals the single-emitter arrowhead matrix
    coup = SFCavityCoupling(omega=0.2, rwa=True, n_dimers=1)
    labs, h = manifold_hamiltonian([SFDimerSpec(lam_ci=0.0)], CavitySpec(), coup, 1)
    assert [(label_str(l), nc) for l, nc in labs] == [("g", 1), ("S1", 0), ("TT", 0)]
    tc = TCModel(n_qubits=1, omega_c=2.256, omega_qubit=2.23, omega_r=0.1)
    np.testing.assert_allclose(h.e_sys[:2, :2], tc.matrix(), atol=0)
    assert h.e_sys[2, 2] == 2.28
    assert h.e_sys[0, 2] == 0 and h.e_sys[1, 2] == 0


def test_manifold_hamiltonian_requires_rwa():
    coup = SFCavityCoupling(omega=0.2, rwa=False, n_dimers=1)
    with pytest.raises(UnsupportedModelError):
        manifold_hamiltonian([SFDimerSpec()], CavitySpec(), coup, 1)


def test_dipole_up_between_manifolds():
    dimers = [SFDimerSpec(eta_s=1.3, eta_t=0.7)]
    l0 = manifold_labels(1, True, 0)
    l1 = manifold_labels(1, True, 1)
    l2 = manifold_labels(1, True, 2)
    d01 = dipole_up(dimers, l0, l1)
    assert d01.shape == (3, 1)
    assert d01[l1.index((("S1",), 0)), 0] == 1.0
    assert d01.sum() == 1.0
    d12 = dipole_up(dimers, l1, l2)
    assert d12[l2.index((("Sn",), 0)), l1.index((("S1",), 0))] == 1.3
    assert d12[l2.index((("TTn",), 0)), l1.index((("TT",), 0))] == 0.7
    assert d12[l2.index((("S1",), 1)), l1.index((("g",), 1))] == 1.0
    assert np.count_nonzero(d12) == 3


def test_spec_validation():
    with pytest.raises(ValueError):
        SFDimerSpec(omega_tu=0.0)
    with pytest.raises(ValueError):
        SFDimerSpec(eps_s1=2.3, eps_tt=2.2)
    with pytest.raises(ValueError):
        CavitySpec(omega_c=-1.0)
    with pytest.raises(UnsupportedModelError):
        SFCavityCoupling(n_dimers=3)


def test_pumped_hamiltonian_structure():
    dimers = [SFDimerSpec()]
    labels, h = sf_system_bath(dimers, CavitySpec(), SFCavityCoupling())
    assert h.n_sys == 3 and h.n_modes == 3
    assert h.check_hermitian()
    assert h.mode_freqs[-1] == 2.256
    # non-RWA: photon-creating term present for both raising and lowering
    cav = h.coup_create[:, :, -1]
    assert cav[labels.index(("g",)), labels.index(("S1",))] == 0.1
    assert cav[labels.index(("S1",)), labels.index(("g",))] == 0.1
    labels_r, h_r = sf_system_bath(
        dimers, CavitySpec(), SFCavityCoupling(rwa=True)
    )
    cav_r = h_r.coup_create[:, :, -1]
    assert cav_r[labels_r.index(("g",)), labels_r.index(("S1",))] == 0.1
    assert cav_r[labels_r.index(("S1",)), labels_r.index(("g",))] == 0.0
    with pytest.raises(UnsupportedModelError):
        sf_system_bath(dimers, CavitySpec(kappa=0.01), SFCavityCoupling())


def test_cavity_decoupled_limit_equals_bare_model():
    # Omega=0 with an inert photon mode reproduces the matter-only dynamics
    dimers = [SFDimerSpec()]
    labels, h_cav = sf_system_bath(dimers, CavitySpec(), SFCavityCoupling(omega=0.0))
    _, h_bare = sf_matter_only(dimers)
    tight = PropagationSettings(rel_tol=1e-9, abs_tol=1e-11, sample_dt=1.0)
    s_cav = init_state(3, 3, "S1", noise_scale=0.0,
                       labels=tuple(label_str(l) for l in labels))
    s_bare = init_state(3, 2, "S1", noise_scale=0.0,
                        labels=tuple(label_str(l) for l in labels))
    t_cav = propagate(h_cav, s_cav, 80.0, tight)
    t_bare = propagate(h_bare, s_bare, 80.0, tight)
    assert np.max(np.abs(t_cav.system_populations() - t_bare.system_populations())) < 1e-7


def test_coherent_init_moments_and_validation():
    dimers = [SFDimerSpec()]
    labels, h = sf_system_bath(dimers, CavitySpec(), SFCavityCoupling())
    st = coherent_init(math.sqrt(6.0), labels, h.n_modes, multiplicity=4, noise_seed=2)
    occ = st.mode_occupations()
    assert abs(occ[-1] - 6.0) < 1e-3
    pops = st.system_populations()
    assert abs(pops[labels.index(("S1",))] - 1.0) < 1e-3
    with pytest.raises(ValueError):
        coherent_init(5.1, labels, h.n_modes)


def test_pumped_observables_and_excitation_number():
    dimers = [SFDimerSpec()]
    labels, h_rwa = sf_system_bath(dimers, CavitySpec(), SFCavityCoupling(rwa=True))
    _, h_full = sf_system_bath(dimers, CavitySpec(), SFCavityCoupling(rwa=False))
    st = coherent_init(math.sqrt(2.0), labels, 3, multiplicity=6, noise_seed=3)
    settings = PropagationSettings(rel_tol=1e-8, abs_tol=1e-10, sample_dt=1.0)
    tr_rwa = propagate(h_rwa, st.copy(), 50.0, settings)
    tr_full = propagate(h_full, st.copy(), 50.0, settings)

    obs = sf_observables(tr_full)
    assert obs["p_tt"][0] < 1e-6
    assert abs(obs["p_cav"][0] - 2.0) < 1e-3
    total = obs["p_tt"] + obs["p_s1"] + obs["p_g"]
    # structural identity: label populations sum to the squared state norm
    assert np.max(np.abs(total - obs["norm"] ** 2)) < 1e-10
    assert np.max(np.abs(obs["norm"] - 1.0)) < 1e-3

    nex_rwa = excitation_expectation(tr_rwa)
    nex_full = excitation_expectation(tr_full)
    assert np.max(np.abs(nex_rwa - nex_rwa[0])) < 5e-6
    assert np.max(np.abs(nex_full - nex_full[0])) > 1e-4


def test_pes_scan_anchor_at_bare_crossing():
    rows = pes_scan(
        [SFDimerSpec()],
        CavitySpec(),
        SFCavityCoupling(omega=0.0, rwa=True, n_dimers=1),
        np.arange(-0.3, 0.5001, 0.002),
        n_max=6,
        manifold_max=1,
    )
    m1 = [r for r in rows if abs(r.manifold - 1.0) < 0.5]
    flagged = [x for x in adjacent_gap_minima(m1, 0) if x[2]]
    assert len(flagged) == 1
    q_star, gap, _ = flagged[0]
    assert abs(q_star - 0.07) <= 0.005
    e_star = min(r.energy for r in m1 if r.q_t == q_star)
    assert abs(e_star - 2.256) <= 0.002
    assert gap < 1e-10


def test_pes_polaritonic_crossings_move_out_with_coupling():
    grid = np.arange(-0.3, 0.5001, 0.002)
    spread = {}
    for om in (0.1, 0.2):
        rows = pes_scan(
            [SFDimerSpec()],
            CavitySpec(),
            SFCavityCoupling(omega=om, rwa=True, n_dimers=1),
            grid,
            n_max=6,
            manifold_max=1,
        )
        m1 = [r for r in rows if abs(r.manifold - 1.0) < 0.5]
        right = min(adjacent_gap_minima(m1, 0), key=lambda x: x[1])[0]
        left = min(adjacent_gap_minima(m1, 1), key=lambda x: x[1])[0]
        assert left < 0.07 < right
        # symmetric displacement about the bare crossing
        assert abs((right - 0.07) + (left - 0.07)) < 0.02
        spread[om] = right - left
    assert spread[0.2] > spread[0.1]


def test_pes_manifolds_are_integers_under_rwa():
    rows = pes_scan(
        [SFDimerSpec()],
        CavitySpec(),
        SFCavityCoupling(omega=0.2, rwa=True, n_dimers=1),
        np.linspace(-0.2, 0.3, 11),
        n_max=6,
        manifold_max=2,
    )
    for r in rows:
        assert abs(r.manifold - round(r.manifold)) < 1e-6
        assert 0.0 <= r.w_tt <= 1.0 and 0.0 <= r.w_ph <= 1.0


def test_pes_pure_photon_classification():
    rows = pes_scan(
        [SFDimerSpec(lam_ci=0.0)],
        CavitySpec(),
        SFCavityCoupling(omega=0.0, rwa=True, n_dimers=1),
        np.array([0.0]),
        n_max=6,
        manifold_max=1,
    )
    photon = [r for r in rows if r.w_ph > 0.5]
    assert len(photon) == 1
    assert photon[0].w_ph == pytest.approx(1.0, abs=1e-12)
    assert photon[0].w_tt == 0.0
    assert photon[0].energy == pytest.approx(2.256, abs=1e-12)


def test_pes_classification_completeness():
    # summed pure-photon weight over all eigenstates equals the number of
    # pure-photon basis states in the truncated space
    n_max = 6
    rows = pes_scan(
        [SFDimerSpec()],
        CavitySpec(),
        SFCavityCoupling(omega=0.2, rwa=True, n_dimers=1),
        np.array([0.0, 0.07, 0.2]),
        n_max=n_max,
        manifold_max=None,
    )
    for q in (0.0, 0.07, 0.2):
        tot = sum(r.w_ph for r in rows if r.q_t == q)
        assert abs(tot - n_max) < 1e-8


def test_pes_cutoff_guards():
    dimers = [SFDimerSpec()]
    with pytest.raises(ValueError):
        pes_scan(dimers, CavitySpec(), SFCavityCoupling(omega=0.2, rwa=True),
                 np.array([0.0]), n_max=5, manifold_max=2)
    # ultrastrong non-RWA coupling leaks into the top Fock level
    with pytest.raises(ArithmeticError):
        pes_scan(dimers, CavitySpec(), SFCavityCoupling(omega=3.0, rwa=False),
                 np.array([0.0]), n_max=5, manifold_max=1)


def test_two_dimer_shared_coordinate_scan():
    dimers = [SFDimerSpec(), SFDimerSpec()]
    rows = pes_scan(
        dimers,
        CavitySpec(),
        SFCavityCoupling(omega=0.0, rwa=True, n_dimers=2),
        np.array([0.07]),
        n_max=6,
        manifold_max=2,
    )
    # the both-dimers-in-TT surface keeps its crossing at the bare anchor:
    # doubly-excited TT|TT diabat sits at 2 * 2.256
    e2 = [r.energy for r in rows if abs(r.manifold - 2.0) < 0.5 and r.w_tt > 0.9]
    assert any(abs(e - 2 * 2.256) < 1e-6 for e in e2)


def test_exact_oracle_script_scan():
    # exact Fock propagation of the cavity-free dimer at the default cutoffs
    # (dim 1056); the value LAMBDA_CI_CALIBRATED's comment quotes
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(root / "scripts" / "sf_dense_oracle.py"), "scan",
         "--lam", "0.065"],
        capture_output=True, text=True, check=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=path),
    ).stdout
    p_tt = float(re.search(r"P_TT\(300\)=([0-9.]+)", out).group(1))
    assert abs(p_tt - 0.0277) <= 1e-4
