"""Cavity-coupled singlet-fission dimers with a conical-intersection pathway.

Each dimer carries five electronic states -- ground g, bright singlet S1,
correlated triplet pair TT, and higher-lying Sn / TTn -- plus two dimensionless
vibrational coordinates: a tuning mode Q_t that shifts the excited diabats
linearly (kappa_k per state) and a coupling mode Q_c whose linear S1<->TT
off-diagonal term opens the fission channel.  A single cavity photon mode
couples to the bright transitions with vacuum Rabi energy Omega, either within
the rotating-wave approximation through

    (Omega/2) (C X^+ + C^+ X),   X^+ = |S1><g| + eta_S |Sn><S1| + eta_T |TTn><TT|,

or without it, (Omega/2)(X^+ + X)(C^+ + C).

The matter terms are assembled once per (dimers, labels) into a label graph:
the energy of each electronic product label, its tuning slope on each dimer,
the S1<->TT coupling-mode pairs and the entries of X^+ from one step table.
Every representation of the photon is a projection of that graph, each used
where it is the natural one: a Fock register folded into the basis for
potential-surface scans (frozen Q_t, Q_c) and for excitation-number blocks in
response-function work (RWA only), and a boson mode inside the variational
ansatz for pumped dynamics (`sf_matter_only` is the same projection without
the photon mode).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .models import SystemBathHamiltonian, UnsupportedModelError
from .varprop import MultiD2State, init_state

STATES_THREE = ("g", "S1", "TT")
STATES_FIVE = ("g", "S1", "TT", "Sn", "TTn")

#: photon-equivalent excitation carried by each electronic state; forced by
#: commutation of the total Hamiltonian with the excitation-number operator
EXCITATION_WEIGHT = {"g": 0, "S1": 1, "TT": 1, "Sn": 2, "TTn": 2}

#: matter states counted as triplet-pair character
TT_STATES = frozenset({"TT", "TTn"})


def derive_kappas_from_ci(ci_q, ci_e, eps_s1, eps_tt, omega_tu):
    """Tuning-mode slopes (kappa_S1, kappa_TT) that place the S1/TT diabatic
    crossing at (Q_t, E) = (ci_q, ci_e)."""
    if ci_q == 0:
        if eps_s1 != eps_tt:
            raise ValueError(
                "no solution: diabats with different vertical energies cannot "
                "cross at Q_t = 0"
            )
        raise ValueError("kappas are underdetermined by a crossing at Q_t = 0")
    harmonic = 0.5 * omega_tu * ci_q**2
    kappa_s1 = (ci_e - eps_s1 - harmonic) / ci_q
    kappa_tt = (ci_e - eps_tt - harmonic) / ci_q
    return kappa_s1, kappa_tt


def rabi_splitting(omega_c, eps_s1, n_molecules, omega):
    """sqrt((omega_c - eps_S1)^2 + N Omega^2)."""
    if n_molecules <= 0 or omega < 0:
        raise ValueError("need n_molecules >= 1 and omega >= 0")
    return math.sqrt((omega_c - eps_s1) ** 2 + n_molecules * omega**2)


# tuning-mode slopes fixed by the crossing anchor (Q_t=0.07, E=2.256 eV) of
# the rubrene parameter set; see derive_kappas_from_ci
KAPPA_S1_RUBRENE, KAPPA_TT_RUBRENE = derive_kappas_from_ci(
    0.07, 2.256, 2.23, 2.28, 0.186
)

#: S1<->TT coupling-mode strength (eV) picked by the variational (M=16) scan of
#: scripts/calibrate_sf_ci.py for a cavity-free triplet-pair population of 0.14
#: at 300 fs from the vertical S1 start.  Exact propagation
#: (scripts/sf_dense_oracle.py, dim 1056) gives P_TT(300 fs) = 0.0277 here; the
#: exact curve is smooth in lambda and crosses 0.14 between 0.08 (0.0854) and
#: 0.10 (0.1670).  The jumps the variational scan shows at fine lambda
#: resolution are ansatz and integrator noise, not physics.  The value is kept
#: because every fission output depends on it.
LAMBDA_CI_CALIBRATED = 0.065


@dataclass(frozen=True)
class SFDimerSpec:
    """Electronic energies (eV), vibrational frequencies (eV), tuning-mode
    slopes kappa per excited state (eV), coupling-mode strength lam_ci (eV),
    and the higher-transition dipole ratios eta_s, eta_t."""

    eps_s1: float = 2.23
    eps_tt: float = 2.28
    eps_sn: float = 4.33
    eps_ttn: float = 4.68
    omega_tu: float = 0.186
    omega_cu: float = 0.0154
    kappa_s1: float = KAPPA_S1_RUBRENE
    kappa_tt: float = KAPPA_TT_RUBRENE
    kappa_sn: float = 0.0
    kappa_ttn: float = 0.0
    lam_ci: float = LAMBDA_CI_CALIBRATED
    eta_s: float = 1.0
    eta_t: float = 1.0

    def __post_init__(self):
        if self.omega_tu <= 0 or self.omega_cu <= 0:
            raise ValueError("vibrational frequencies must be > 0")
        if not self.eps_s1 < self.eps_tt:
            raise ValueError("expect uphill fission: eps_s1 < eps_tt")

    def energy(self, state: str) -> float:
        return {
            "g": 0.0,
            "S1": self.eps_s1,
            "TT": self.eps_tt,
            "Sn": self.eps_sn,
            "TTn": self.eps_ttn,
        }[state]

    def kappa(self, state: str) -> float:
        return {
            "g": 0.0,
            "S1": self.kappa_s1,
            "TT": self.kappa_tt,
            "Sn": self.kappa_sn,
            "TTn": self.kappa_ttn,
        }[state]


@dataclass(frozen=True)
class CavitySpec:
    omega_c: float = 2.256
    kappa: float = 0.0

    def __post_init__(self):
        if self.omega_c <= 0 or self.kappa < 0:
            raise ValueError("need omega_c > 0 and kappa >= 0")


@dataclass(frozen=True)
class SFCavityCoupling:
    omega: float = 0.2
    rwa: bool = False
    n_dimers: int = 1
    five_state: bool = False

    def __post_init__(self):
        if self.omega < 0:
            raise ValueError("vacuum Rabi energy must be >= 0")
        if self.n_dimers not in (1, 2):
            raise UnsupportedModelError(
                f"unsupported dimer count {self.n_dimers}: only 1 or 2"
            )


def electronic_labels(n_dimers: int, five_state: bool):
    """All electronic product labels as tuples, one entry per dimer."""
    if n_dimers not in (1, 2):
        raise UnsupportedModelError(f"unsupported dimer count {n_dimers}")
    states = STATES_FIVE if five_state else STATES_THREE
    if n_dimers == 1:
        return [(s,) for s in states]
    return [(s1, s2) for s1 in states for s2 in states]


def label_str(label) -> str:
    return "|".join(label)


def label_weight(label) -> int:
    return sum(EXCITATION_WEIGHT[s] for s in label)


def label_has_tt(label) -> bool:
    return any(s in TT_STATES for s in label)


#: the steps of the matter raising operator X_j^+ on one dimer: (lower state,
#: upper state, transition dipole ratio)
_RAISING_STEPS = (
    ("g", "S1", lambda d: 1.0),
    ("S1", "Sn", lambda d: d.eta_s),
    ("TT", "TTn", lambda d: d.eta_t),
)


@dataclass(frozen=True)
class _LabelGraph:
    """Matter terms of the fission Hamiltonian over the electronic labels.

    energy[a] is the vertical energy of label a, kappa[a, j] its tuning slope
    on dimer j's Q_t, lam[j] the symmetric S1<->TT couplings lam_ci on dimer
    j's Q_c, and raising[hi, lo] the entries of sum_j X_j^+.  mode_freqs lists
    the vibrational frequencies as [Q_t^(1), Q_c^(1), (Q_t^(2), Q_c^(2))].
    """

    labels: list
    energy: np.ndarray
    kappa: np.ndarray
    lam: np.ndarray
    raising: np.ndarray
    mode_freqs: np.ndarray


def _label_graph(dimers, five_state: bool) -> _LabelGraph:
    labels = electronic_labels(len(dimers), five_state)
    index = {lab: a for a, lab in enumerate(labels)}
    lam = np.zeros((len(dimers), len(labels), len(labels)))
    raising = np.zeros((len(labels), len(labels)))
    for a, lab in enumerate(labels):
        for j, d in enumerate(dimers):
            moved = {s: index.get(lab[:j] + (s,) + lab[j + 1:])
                     for s in STATES_FIVE}
            if lab[j] == "S1":
                lam[j, a, moved["TT"]] = lam[j, moved["TT"], a] = d.lam_ci
            for lo, hi, ratio in _RAISING_STEPS:
                if lab[j] == lo and moved[hi] is not None:
                    raising[moved[hi], a] = ratio(d)
    return _LabelGraph(
        labels=labels,
        energy=np.array([sum(d.energy(s) for d, s in zip(dimers, lab))
                         for lab in labels]),
        kappa=np.array([[d.kappa(s) for d, s in zip(dimers, lab)]
                        for lab in labels]),
        lam=lam,
        raising=raising,
        mode_freqs=np.array([[d.omega_tu, d.omega_cu] for d in dimers]).ravel(),
    )


def _vibronic_create(graph: _LabelGraph, n_photon: int) -> np.ndarray:
    """b^+ coefficients of kappa Q_t and lam_ci Q_c, with Q = (b^+ + b)/sqrt(2),
    on labels x a photon register of n_photon levels: (n, n, 2*n_dimers)."""
    n = len(graph.labels) * n_photon
    eye = np.eye(n_photon)
    root2 = math.sqrt(2.0)
    create = np.zeros((n, n, len(graph.mode_freqs)), dtype=complex)
    for j, lam_j in enumerate(graph.lam):
        create[:, :, 2 * j] += np.kron(np.diag(graph.kappa[:, j]), eye) / root2
        create[:, :, 2 * j + 1] += np.kron(lam_j, eye) / root2
    return create


def _photon_block(graph: _LabelGraph, label_diag, cavity, coupling, n_max: int):
    """label_diag[a] + (omega_c - i kappa) n_c plus the cavity exchange on the
    label-major basis labels x {n_c = 0..n_max}."""
    n = np.arange(n_max + 1)
    destroy = np.diag(np.sqrt(n[1:]), 1)
    raising = coupling.omega / 2.0 * graph.raising
    # C X^+: absorb a photon, promote the matter state
    up = np.kron(raising, destroy)
    if not coupling.rwa:
        up = up + np.kron(raising, destroy.T)
    diag = label_diag[:, None] + cavity.omega_c * n - 1j * cavity.kappa * n
    return np.diag(diag.ravel()) + up + up.T


def _system_bath(e_sys, mode_freqs, create, hermitian=True):
    return SystemBathHamiltonian(
        e_sys=e_sys,
        mode_freqs=mode_freqs,
        coup_create=create,
        coup_annihilate=create.conj().transpose(1, 0, 2),
        hermitian=hermitian,
    )


def count_labels_by_excitation(n_dimers: int, five_state: bool, n_max: int = 2):
    """Number of electronic+photon basis labels in each excitation manifold
    0..n_max (photon occupation chosen to complete each manifold)."""
    counts = [0] * (n_max + 1)
    for lab in electronic_labels(n_dimers, five_state):
        w = label_weight(lab)
        for n in range(w, n_max + 1):
            counts[n] += 1
    return counts


def sf_system_bath(
    dimers: Sequence[SFDimerSpec],
    cavity: CavitySpec,
    coupling: SFCavityCoupling,
):
    """Pumped-dynamics Hamiltonian with the photon as the last boson mode.

    Boson modes are ordered [Q_tu^(1), Q_cu^(1), (Q_tu^(2), Q_cu^(2)), photon];
    Q = (b^+ + b)/sqrt(2) turns each linear vibronic term kappa*Q or lam*Q
    into kappa/sqrt(2) (lam/sqrt(2)) on b^+ and b.
    """
    if len(dimers) != coupling.n_dimers:
        raise ValueError("coupling.n_dimers disagrees with the dimer list")
    if cavity.kappa != 0.0:
        raise UnsupportedModelError(
            "cavity loss is only available in the Fock photon representations"
        )
    graph = _label_graph(dimers, coupling.five_state)
    half = coupling.omega / 2.0
    # C^+ X: photon created while the matter de-excites; without the RWA
    # also C^+ X^+
    photon = half * (graph.raising.T if coupling.rwa
                     else graph.raising.T + graph.raising)
    create = np.concatenate(
        [_vibronic_create(graph, 1), photon[:, :, None]], axis=2)
    return graph.labels, _system_bath(
        np.diag(graph.energy.astype(complex)),
        np.append(graph.mode_freqs, cavity.omega_c),
        create,
    )


def sf_matter_only(dimers: Sequence[SFDimerSpec]):
    """Cavity-free reference: the same matter Hamiltonian with only the
    2*n_dimers vibrational modes (three-state labels)."""
    graph = _label_graph(dimers, False)
    return graph.labels, _system_bath(
        np.diag(graph.energy.astype(complex)),
        graph.mode_freqs,
        _vibronic_create(graph, 1),
    )


def fock_cutoff_for_coherent_tail(mu1: complex, tail: float = 1e-10) -> int:
    """Smallest n_max whose discarded Poisson tail is below `tail`."""
    mean = abs(mu1) ** 2
    if mean == 0:
        return 0
    term = math.exp(-mean)
    cum = term
    n = 0
    while 1.0 - cum >= tail:
        n += 1
        term *= mean / n
        cum += term
        if n > 10_000:
            raise ArithmeticError("coherent tail fails to converge")
    return n


def coherent_init(
    mu1: complex,
    labels,
    n_modes: int,
    multiplicity: int = 1,
    noise_seed: int = 0,
    noise_scale: float = 1e-4,
) -> MultiD2State:
    """Initial state for pumped runs: bright singlet excitation (symmetrized
    over dimers) with the photon mode displaced to mu1."""
    if abs(mu1) ** 2 > 25:
        raise ValueError(
            f"pump |mu1|^2 = {abs(mu1)**2:.1f} outside the validated regime (<= 25)"
        )
    bright = [i for i, lab in enumerate(labels)
              if sum(s == "S1" for s in lab) == 1 and label_weight(lab) == 1]
    if not bright:
        raise ValueError("no singly-excited S1 label present")
    a0 = np.zeros(len(labels), dtype=complex)
    a0[bright] = 1.0 / math.sqrt(len(bright))
    base = np.zeros(n_modes, dtype=complex)
    base[-1] = mu1
    return init_state(
        len(labels),
        n_modes,
        a0,
        multiplicity=multiplicity,
        noise_seed=noise_seed,
        noise_scale=noise_scale,
        base_displacement=base,
        labels=tuple(label_str(lab) for lab in labels),
    )


def sf_observables(traj, cavity_mode=-1):
    """Population series {p_tt, p_s1, p_g, p_cav} from a fission trajectory.

    `cavity_mode` indexes the photon mode within the trajectory's mode axis;
    pass None for cavity-free runs (p_cav is then identically zero).
    """
    if traj.labels is None:
        raise ValueError("trajectory carries no electronic labels")
    pops = traj.system_populations()
    tt = np.array([any(s in TT_STATES for s in lab.split("|")) for lab in traj.labels])
    s1 = np.array([lab.split("|").count("S1") > 0 for lab in traj.labels])
    ground = np.array([all(s == "g" for s in lab.split("|")) for lab in traj.labels])
    if cavity_mode is None:
        p_cav = np.zeros_like(traj.times)
    else:
        p_cav = traj.mode_occupations()[:, cavity_mode]
    return {
        "time_fs": traj.times,
        "p_tt": pops[:, tt].sum(axis=1),
        "p_s1": pops[:, s1].sum(axis=1),
        "p_g": pops[:, ground].sum(axis=1),
        "p_cav": p_cav,
        "norm": traj.norms,
        "energy_ev": traj.energies.real,
    }


def excitation_expectation(traj, cavity_mode: int = -1):
    """<N_ex>(t) = photon occupation + weighted electronic populations."""
    if traj.labels is None:
        raise ValueError("trajectory carries no electronic labels")
    weights = np.array(
        [label_weight(tuple(lab.split("|"))) for lab in traj.labels], dtype=float
    )
    pops = traj.system_populations()
    return traj.mode_occupations()[:, cavity_mode] + pops @ weights


# ---------------------------------------------------------------------------
# Fock-register representation: potential-surface scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurfacePoint:
    q_t: float
    surface: int
    energy: float
    manifold: float
    w_tt: float
    w_ph: float
    w_ph_any: float


def _fock_basis(labels, n_max):
    return [(lab, nc) for lab in labels for nc in range(n_max + 1)]


def _potential_matrix(graph, cavity, coupling, n_max, q_t, q_c):
    """Potential part (kinetic omitted) of the electronic x photon-Fock
    Hamiltonian at frozen coordinates, on the basis _fock_basis(labels, n_max)."""
    harm = sum(0.5 * w_t * q_t**2 + 0.5 * w_c * q_c**2
               for w_t, w_c in graph.mode_freqs.reshape(-1, 2))
    label_diag = graph.energy + graph.kappa.sum(axis=1) * q_t + harm
    h = _photon_block(graph, label_diag, cavity, coupling, n_max)
    return h + np.kron(graph.lam.sum(axis=0) * q_c, np.eye(n_max + 1))


def pes_scan(
    dimers: Sequence[SFDimerSpec],
    cavity: CavitySpec,
    coupling: SFCavityCoupling,
    q_t_grid: np.ndarray,
    q_c: float = 0.0,
    n_max: int = 6,
    manifold_max: Optional[int] = 2,
    leak_tol: float = 1e-6,
):
    """Adiabatic potential cuts along the common tuning coordinate.

    Returns SurfacePoint rows for eigenstates whose excitation number is at
    most manifold_max + 1/2, sorted by (grid node, energy).  Eigenstates are
    classified by excitation number, triplet-pair weight w_tt, pure-photon
    weight w_ph (all dimers electronically unexcited and n_c >= 1), and the
    looser any-photon weight w_ph_any (n_c >= 1 regardless of matter state).
    manifold_max=None returns every eigenstate of the truncated space with no
    cutoff-adequacy check (diagnostics only).
    """
    if manifold_max is not None and n_max < manifold_max + 4:
        raise ValueError(
            f"photon cutoff n_max={n_max} too small: need >= manifold_max + 4 "
            f"= {manifold_max + 4}"
        )
    if cavity.kappa != 0.0:
        raise UnsupportedModelError("surface scans require a lossless cavity")
    graph = _label_graph(dimers, coupling.five_state)
    basis = _fock_basis(graph.labels, n_max)
    rows = []
    for q_t in np.asarray(q_t_grid, dtype=float):
        h = _potential_matrix(graph, cavity, coupling, n_max, q_t, q_c)
        evals, evecs = np.linalg.eigh(h)
        weights = np.abs(evecs) ** 2
        n_ex = np.array(
            [label_weight(lab) + nc for lab, nc in basis], dtype=float
        )
        is_tt = np.array([label_has_tt(lab) for lab, nc in basis])
        is_pure_ph = np.array(
            [all(s == "g" for s in lab) and nc >= 1 for lab, nc in basis]
        )
        any_ph = np.array([nc >= 1 for lab, nc in basis])
        top = np.array([nc == n_max for lab, nc in basis])
        manifolds = weights.T @ n_ex
        if manifold_max is None:
            sel = np.arange(len(evals))
        else:
            sel = np.flatnonzero(manifolds <= manifold_max + 0.5)
            leak = weights[top][:, sel].sum(axis=0)
            if leak.size and leak.max() > leak_tol:
                raise ArithmeticError(
                    f"photon cutoff n_max={n_max} too small at Q_t={q_t:.4f}: "
                    f"top-level occupation {leak.max():.2e} exceeds {leak_tol:.0e}"
                )
        for s, k in enumerate(sel):
            rows.append(
                SurfacePoint(
                    q_t=float(q_t),
                    surface=s,
                    energy=float(evals[k]),
                    manifold=float(manifolds[k]),
                    w_tt=float(weights[is_tt, k].sum()),
                    w_ph=float(weights[is_pure_ph, k].sum()),
                    w_ph_any=float(weights[any_ph, k].sum()),
                )
            )
    return rows


def surface_table(rows):
    """Scan rows as a (n, 7) float array: q_t, surface, E, N, w_tt, w_ph,
    w_ph_any."""
    return np.array(
        [[r.q_t, r.surface, r.energy, r.manifold, r.w_tt, r.w_ph, r.w_ph_any]
         for r in rows]
    )


def adjacent_gap_minima(rows, surface_lo: int, flag_gap: float = 1e-4):
    """Crossing loci between two adjacent surfaces: local minima of the gap
    over the scan grid, reported as (q_t, gap, flagged).  Surfaces are ranked
    by energy within each grid node, so pre-filtered row subsets work."""
    by_q = {}
    for r in rows:
        by_q.setdefault(r.q_t, []).append(r.energy)
    qs = np.array(sorted(by_q))
    gaps = []
    for q in qs:
        es = sorted(by_q[q])
        if surface_lo + 1 >= len(es):
            raise ValueError(
                f"only {len(es)} surfaces at Q_t={q}: no pair ({surface_lo}, "
                f"{surface_lo + 1})"
            )
        gaps.append(es[surface_lo + 1] - es[surface_lo])
    gaps = np.array(gaps)
    out = []
    for i in range(1, len(qs) - 1):
        if gaps[i] <= gaps[i - 1] and gaps[i] <= gaps[i + 1]:
            out.append((float(qs[i]), float(gaps[i]), bool(gaps[i] < flag_gap)))
    return out


# ---------------------------------------------------------------------------
# Excitation-number blocks (RWA): basis for response-function work
# ---------------------------------------------------------------------------


def manifold_labels(n_dimers: int, five_state: bool, manifold: int):
    """(electronic label, photon count) pairs with total excitation =
    manifold."""
    out = []
    for lab in electronic_labels(n_dimers, five_state):
        nc = manifold - label_weight(lab)
        if nc >= 0:
            out.append((lab, nc))
    return out


def manifold_hamiltonian(
    dimers: Sequence[SFDimerSpec],
    cavity: CavitySpec,
    coupling: SFCavityCoupling,
    manifold: int,
):
    """System-bath Hamiltonian restricted to one excitation manifold, photon
    count folded into the system labels; bosons are the 2*n_dimers vibrational
    modes.  RWA only."""
    if not coupling.rwa:
        raise UnsupportedModelError(
            "excitation-number blocks exist only under the rotating-wave "
            "approximation"
        )
    graph = _label_graph(dimers, coupling.five_state)
    labels = manifold_labels(len(dimers), coupling.five_state, manifold)
    basis = _fock_basis(graph.labels, manifold)
    keep = [basis.index(b) for b in labels]
    block = np.ix_(keep, keep)
    e_sys = _photon_block(graph, graph.energy, cavity, coupling, manifold)
    create = _vibronic_create(graph, manifold + 1)
    return labels, _system_bath(
        e_sys[block],
        graph.mode_freqs,
        create[block],
        hermitian=cavity.kappa == 0.0,
    )


def dipole_up(dimers, labels_lo, labels_hi):
    """Matter raising operator between adjacent excitation manifolds:
    D[hi, lo] with the photon count unchanged."""
    # the five-state labels include the three-state ones
    graph = _label_graph(dimers, True)
    index = {lab: a for a, lab in enumerate(graph.labels)}
    hi = [index[lab] for lab, _ in labels_hi]
    lo = [index[lab] for lab, _ in labels_lo]
    same_nc = (np.array([nc for _, nc in labels_hi])[:, None]
               == np.array([nc for _, nc in labels_lo])[None, :])
    return graph.raising[np.ix_(hi, lo)] * same_nc
