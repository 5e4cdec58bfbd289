"""Variational propagation over multi-configuration coherent-state wavefunctions.

Trial state

    |psi> = sum_{m=1..M} sum_n A_mn |n> |f_m>,

where |n> runs over the system labels of a `SystemBathHamiltonian` and |f_m>
is a product of normalized coherent states over the bath modes, one
displacement vector f_m per configuration.  The Dirac-Frenkel principle
<delta psi|(i*hbar*d/dt - H)|psi> = 0 closes into a linear system

    G * (adot, fdot) = -(i/hbar) * h

for the tangent coefficients, where G is the Gram matrix of the tangent
vectors {|n>|f_m>, sum_n A_mn (b_p^+ - f*_mp/2)|n>|f_m>} and h the projection
of H|psi> onto them.  G is Hermitian positive semidefinite and structurally
rank-deficient whenever coherent states coalesce, so it is inverted through an
eigendecomposition with a relative eigenvalue cutoff; the propagator then
restores the normalization-derivative piece,

    Adot_mn = adot_mn + A_mn * sum_p f_mp * conj(fdot_mp) / 2.

Every overlap, observable and energy is built from two kernels that broadcast
over leading (e.g. time) axes: the coherent-state overlap `overlap_matrix` and
the Hamiltonian contraction `_theta`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from .constants import HBAR_EV_FS
from .models import SystemBathHamiltonian

#: relative eigenvalue cutoff for the metric pseudo-inverse
DEFAULT_SVD_CUTOFF = 1e-8
#: retained-subspace condition number that triggers the collapse diagnostic
DEFAULT_COND_THRESHOLD = 1e14
#: default amplitude of the symmetry-breaking noise on extra configurations
DEFAULT_NOISE_SCALE = 1e-4

CHECKPOINT_HEADER = "cavidyn-trajectory v1"


class AnsatzCollapseError(RuntimeError):
    """Variational metric degenerated beyond what regularization can absorb."""


class PropagationError(RuntimeError):
    """Integration failed (NaN, step underflow, runaway norm)."""


# ---------------------------------------------------------------------------
# state container


@dataclass
class MultiD2State:
    """amplitudes: (M, n_sys) complex over normalized coherent states;
    displacements: (M, n_modes) complex."""

    amplitudes: np.ndarray
    displacements: np.ndarray
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        self.displacements = np.asarray(self.displacements, dtype=complex)
        if self.amplitudes.ndim != 2 or self.displacements.ndim != 2:
            raise ValueError("amplitudes and displacements must be 2-D (M x ...)")
        if self.amplitudes.shape[0] != self.displacements.shape[0]:
            raise ValueError("amplitudes and displacements disagree on multiplicity")
        if self.labels is not None and len(self.labels) != self.amplitudes.shape[1]:
            raise ValueError("labels must match the system dimension")

    @property
    def multiplicity(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def n_sys(self) -> int:
        return self.amplitudes.shape[1]

    @property
    def n_modes(self) -> int:
        return self.displacements.shape[1]

    def copy(self) -> "MultiD2State":
        return MultiD2State(
            self.amplitudes.copy(), self.displacements.copy(), self.labels
        )

    def norm(self) -> float:
        return float(np.sqrt(state_norm_sq(self.amplitudes, self.displacements)))

    def normalized_to_unit(self) -> "MultiD2State":
        n = self.norm()
        if n == 0:
            raise ValueError("cannot normalize the zero state")
        return MultiD2State(self.amplitudes / n, self.displacements.copy(), self.labels)

    def system_populations(self) -> np.ndarray:
        return system_populations(self.amplitudes, self.displacements)

    def mode_occupations(self) -> np.ndarray:
        return mode_occupations(self.amplitudes, self.displacements)


# ---------------------------------------------------------------------------
# closed-form overlaps and observables; every kernel broadcasts over leading
# axes, so (T, M, ...) trajectory arrays go through in one call


def overlap_matrix(f_bra: np.ndarray, f_ket: np.ndarray) -> np.ndarray:
    """S[..., i, j] = <f_bra_i | f_ket_j> for normalized coherent products.

    f_bra: (..., M, q), f_ket: (..., M', q) -> (..., M, M').
    """
    r1 = np.sum(np.abs(f_bra) ** 2, axis=-1)
    r2 = np.sum(np.abs(f_ket) ** 2, axis=-1)
    cross = f_bra.conj() @ f_ket.swapaxes(-1, -2)
    return np.exp(-0.5 * (r1[..., :, None] + r2[..., None, :]) + cross)


def _label_weights(a_bra: np.ndarray, a_ket: np.ndarray, s: np.ndarray) -> np.ndarray:
    """W[..., n] = sum_{mM} A*_bra[m, n] A_ket[M, n] S[m, M]."""
    return np.einsum("...mn,...Mn,...mM->...n", a_bra.conj(), a_ket, s)


def state_overlap(bra: MultiD2State, ket: MultiD2State) -> complex:
    """<bra|ket> including the system labels (which must align)."""
    if bra.n_sys != ket.n_sys or bra.n_modes != ket.n_modes:
        raise ValueError("states live in different spaces")
    s = overlap_matrix(bra.displacements, ket.displacements)
    return complex(_label_weights(bra.amplitudes, ket.amplitudes, s).sum())


def state_norm_sq(amplitudes: np.ndarray, displacements: np.ndarray):
    """<psi|psi>, one value per leading index."""
    s = overlap_matrix(displacements, displacements)
    return _label_weights(amplitudes, amplitudes, s).sum(axis=-1).real


def system_populations(amplitudes: np.ndarray, displacements: np.ndarray) -> np.ndarray:
    """Per-label populations; raises if the imaginary residue is unhealthy."""
    s = overlap_matrix(displacements, displacements)
    pops = _label_weights(amplitudes, amplitudes, s)
    if pops.size and np.abs(pops.imag).max() > 1e-8:
        raise ArithmeticError(
            f"population acquired imaginary part {np.abs(pops.imag).max():.3e}; "
            "state is numerically unhealthy"
        )
    return pops.real


def mode_occupations(amplitudes: np.ndarray, displacements: np.ndarray) -> np.ndarray:
    """<b_q^+ b_q> per mode."""
    a, f = amplitudes, displacements
    ps = (a.conj() @ a.swapaxes(-1, -2)) * overlap_matrix(f, f)
    occ = np.einsum("...mM,...mq,...Mq->...q", ps, f.conj(), f)
    if occ.size and np.abs(occ.imag).max() > 1e-8:
        raise ArithmeticError("mode occupation acquired a large imaginary part")
    return occ.real


def _theta(h: SystemBathHamiltonian, a: np.ndarray, f: np.ndarray):
    """Theta[..., m, m'] = sum_{nn'} A*_mn A_m'n' <f_m|H_{nn'}|f_m'> / S_mm'.

    Returns (theta, w_ff, x1, x2, p), the pieces `eom_rhs` reuses:
    w_ff = f*_m . (omega f_m'), x1[m, m', n] = sum_n' (c+ . f*_m)_nn' A_m'n',
    x2[m, n] = sum_n' (c . f_m)_nn' A_mn', p = A* A^T.
    """
    at = a.swapaxes(-1, -2)
    w_ff = (f.conj() * h.mode_freqs) @ f.swapaxes(-1, -2)
    cdf = np.einsum("nNq,...mq->...mnN", h.coup_create, f.conj())
    cf = np.einsum("nNq,...mq->...mnN", h.coup_annihilate, f)
    x1 = np.einsum("...mnN,...MN->...mMn", cdf, a)
    x2 = np.einsum("...mnN,...mN->...mn", cf, a)
    p = a.conj() @ at
    theta = (
        a.conj() @ h.e_sys @ at
        + np.einsum("...mn,...mMn->...mM", a.conj(), x1)
        + a.conj() @ x2.swapaxes(-1, -2)
        + p * w_ff
    )
    return theta, w_ff, x1, x2, p


def energy_expectation(h: SystemBathHamiltonian, state: MultiD2State) -> complex:
    a, f = state.amplitudes, state.displacements
    return complex((overlap_matrix(f, f) * _theta(h, a, f)[0]).sum())


# ---------------------------------------------------------------------------
# Dirac-Frenkel right-hand side


def eom_rhs(
    h: SystemBathHamiltonian,
    amplitudes: np.ndarray,
    displacements: np.ndarray,
    svd_cutoff: float = DEFAULT_SVD_CUTOFF,
    cond_threshold: float = DEFAULT_COND_THRESHOLD,
) -> tuple[np.ndarray, np.ndarray]:
    """Time derivatives (Adot, Fdot) of the parameters."""
    a = amplitudes
    f = displacements
    m, n_sys = a.shape
    n_modes = f.shape[1]
    w = h.mode_freqs

    s = overlap_matrix(f, f)
    theta, w_ff, x1, x2, p = _theta(h, a, f)

    h_a = (
        s @ (a @ h.e_sys.T)
        + np.einsum("mM,mMn->mn", s, x1)
        + s @ x2
        + (s * w_ff) @ a
    )
    y = np.einsum("mn,nNq,MN->mMq", a.conj(), h.coup_create, a)
    ket_f = f[None, :, :] - 0.5 * f[:, None, :]  # [m, m', p] = f_m'p - f_mp/2
    h_f = np.einsum(
        "mM,mMp->mp",
        s,
        ket_f * theta[:, :, None] + y + w[None, None, :] * f[None, :, :] * p[:, :, None],
    )

    # Gram matrix of the tangent vectors
    bra_f = f.conj()[:, None, :] - 0.5 * f.conj()[None, :, :]  # [m, m', p] = f*_mp - f*_m'p/2
    g_aa = np.kron(s, np.eye(n_sys))
    g_af = np.einsum("Mn,mM,mMp->mnMp", a, s, bra_f).reshape(m * n_sys, m * n_modes)
    ps = p * s
    g_ff = (
        np.einsum("mM,mMp,mMq->mpMq", ps, ket_f, bra_f)
        + np.einsum("mM,pq->mpMq", ps, np.eye(n_modes))
    ).reshape(m * n_modes, m * n_modes)
    dim = m * (n_sys + n_modes)
    g = np.empty((dim, dim), dtype=complex)
    na = m * n_sys
    g[:na, :na] = g_aa
    g[:na, na:] = g_af
    g[na:, :na] = g_af.conj().T
    g[na:, na:] = g_ff

    rhs = np.concatenate([h_a.reshape(-1), h_f.reshape(-1)]) * (-1j / HBAR_EV_FS)

    vals, vecs = np.linalg.eigh(g)
    lam_max = vals[-1]
    if not np.isfinite(lam_max) or lam_max <= 0:
        raise AnsatzCollapseError("metric has no positive eigenvalues; state degenerated")
    retained = vals[vals > svd_cutoff * lam_max]
    if lam_max / retained.min() > cond_threshold:
        raise AnsatzCollapseError(
            f"ansatz collapse: retained metric condition number "
            f"{lam_max / retained.min():.3e} exceeds {cond_threshold:.1e}; "
            "increase noise_scale or restart with fewer/fresh configurations"
        )
    # damped spectral inversion: eigendirections well above the cutoff are
    # inverted exactly, those below are suppressed smoothly.  A hard
    # truncation would make the right-hand side discontinuous whenever an
    # eigenvalue crosses the cutoff, which stalls adaptive steppers on
    # overcomplete configuration sets.
    eps = svd_cutoff * lam_max
    inv_filtered = vals / (vals * vals + eps * eps)
    x = vecs @ (inv_filtered * (vecs.conj().T @ rhs))

    adot_bare = x[:na].reshape(m, n_sys)
    fdot = x[na:].reshape(m, n_modes)
    adot = adot_bare + 0.5 * a * np.sum(f * fdot.conj(), axis=1)[:, None]
    return adot, fdot


# ---------------------------------------------------------------------------
# initial states


def _unit_disk(rng: np.random.Generator, shape) -> np.ndarray:
    r = np.sqrt(rng.random(shape))
    phi = 2.0 * np.pi * rng.random(shape)
    return r * np.exp(1j * phi)


def init_state(
    n_sys: int,
    n_modes: int,
    initial,
    multiplicity: int = 1,
    noise_seed: int = 0,
    noise_scale: float = DEFAULT_NOISE_SCALE,
    base_displacement: Optional[np.ndarray] = None,
    labels: Optional[tuple[str, ...]] = None,
) -> MultiD2State:
    """Product initial state plus symmetry-breaking noise on the extra
    configurations.

    `initial` selects the occupied system label: an index, a label string
    (requires `labels`), or a full complex amplitude vector of length n_sys.
    Configuration 1 carries the state; every other amplitude and every
    displacement receives noise_scale * (complex unit-disk draw), on top of
    `base_displacement` if given.  The result is renormalized to unit norm.
    """
    if multiplicity < 1:
        raise ValueError("multiplicity must be >= 1")
    if multiplicity > 1 and noise_scale == 0:
        raise ValueError(
            "noise_scale = 0 with multiplicity > 1 gives a singular metric at t = 0; "
            "identical configurations are unsupported"
        )
    if noise_scale < 0:
        raise ValueError("noise_scale must be >= 0")

    a0 = np.zeros(n_sys, dtype=complex)
    if isinstance(initial, str):
        if labels is None:
            raise ValueError("label-based initial state needs labels")
        a0[labels.index(initial)] = 1.0
    elif np.ndim(initial) == 0:
        a0[int(initial)] = 1.0
    else:
        vec = np.asarray(initial, dtype=complex)
        if vec.shape != (n_sys,):
            raise ValueError("initial amplitude vector has the wrong length")
        a0 = vec

    rng = np.random.default_rng(noise_seed)
    a = noise_scale * _unit_disk(rng, (multiplicity, n_sys))
    mask = a0 != 0
    a[0, mask] = a0[mask]
    f = noise_scale * _unit_disk(rng, (multiplicity, n_modes))
    if multiplicity == 1 and noise_scale == 0:
        f = np.zeros((1, n_modes), dtype=complex)
    if base_displacement is not None:
        f = f + np.asarray(base_displacement, dtype=complex)[None, :]

    state = MultiD2State(a, f, labels).normalized_to_unit()
    if abs(state.norm() - 1.0) > 1e-12:
        raise ArithmeticError("initial state failed to renormalize to 1 within 1e-12")
    return state


# ---------------------------------------------------------------------------
# trajectories


@dataclass
class Trajectory:
    """Sampled propagation history.

    amplitudes: (T, M, n_sys); displacements: (T, M, n_modes);
    norms: (T,) Euclidean state norms; energies: (T,) complex <H>.
    """

    times: np.ndarray
    amplitudes: np.ndarray
    displacements: np.ndarray
    norms: np.ndarray
    energies: np.ndarray
    labels: Optional[tuple[str, ...]] = None

    def state_at(self, i: int) -> MultiD2State:
        return MultiD2State(
            self.amplitudes[i].copy(), self.displacements[i].copy(), self.labels
        )

    def system_populations(self) -> np.ndarray:
        """(T, n_sys) array of label populations."""
        return system_populations(self.amplitudes, self.displacements)

    def photon_population(self, index: int = 0) -> np.ndarray:
        return self.system_populations()[:, index]

    def mode_occupations(self) -> np.ndarray:
        """(T, n_modes) array of <b_q^+ b_q>."""
        return mode_occupations(self.amplitudes, self.displacements)


@dataclass(frozen=True)
class PropagationSettings:
    rel_tol: float = 1e-6
    abs_tol: float = 1e-8
    sample_dt: float = 0.1
    svd_cutoff: float = DEFAULT_SVD_CUTOFF
    cond_threshold: float = DEFAULT_COND_THRESHOLD

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be > 0")
        if self.sample_dt <= 0:
            raise ValueError("sample_dt must be > 0")


def _sample_times(t_final: float, dt: float) -> np.ndarray:
    n = int(round(abs(t_final) / dt))
    ts = np.arange(n + 1) * dt * np.sign(t_final if t_final != 0 else 1.0)
    if abs(ts[-1]) < abs(t_final) - 1e-9:
        ts = np.append(ts, t_final)
    else:
        ts[-1] = t_final
    return ts


def propagate(
    h: SystemBathHamiltonian,
    state: MultiD2State,
    t_final: float,
    settings: Optional[PropagationSettings] = None,
    t_eval: Optional[np.ndarray] = None,
) -> Trajectory:
    """Integrate the Dirac-Frenkel equations from t = 0 to t_final (fs).

    Negative t_final integrates backwards.  Samples are taken from the
    integrator's dense output at `t_eval` (default: every settings.sample_dt).
    """
    settings = settings or PropagationSettings()
    m, n_sys, n_modes = state.multiplicity, state.n_sys, state.n_modes
    na = m * n_sys

    if t_eval is None:
        t_eval = _sample_times(t_final, settings.sample_dt)
    t_eval = np.asarray(t_eval, dtype=float)

    hermitian_guard = h.hermitian

    def rhs(t, y):
        if not np.all(np.isfinite(y)):
            raise PropagationError(f"non-finite parameters at t = {t:.6g} fs")
        z = y.view(np.complex128)
        a = z[:na].reshape(m, n_sys)
        f = z[na:].reshape(m, n_modes)
        if hermitian_guard:
            nrm = np.sqrt(state_norm_sq(a, f))
            if not 0.5 <= nrm <= 1.5:
                raise PropagationError(
                    f"norm ran away to {nrm:.6g} at t = {t:.6g} fs (Hermitian run)"
                )
        adot, fdot = eom_rhs(h, a, f, settings.svd_cutoff, settings.cond_threshold)
        return np.concatenate([adot.reshape(-1), fdot.reshape(-1)]).view(np.float64)

    y0 = np.concatenate(
        [state.amplitudes.reshape(-1), state.displacements.reshape(-1)]
    ).view(np.float64)

    sol = solve_ivp(
        rhs,
        (0.0, t_final),
        y0,
        method="RK45",
        rtol=settings.rel_tol,
        atol=settings.abs_tol,
        t_eval=t_eval,
        dense_output=False,
    )
    if not sol.success:
        raise PropagationError(f"integration aborted: {sol.message}")
    if sol.t.shape != t_eval.shape:
        raise PropagationError("integrator did not reach all requested sample times")

    n_t = len(sol.t)
    z = sol.y.T.copy().view(np.complex128)
    amps = z[:, :na].reshape(n_t, m, n_sys)
    disps = z[:, na:].reshape(n_t, m, n_modes)
    if not (np.all(np.isfinite(amps)) and np.all(np.isfinite(disps))):
        raise PropagationError("non-finite parameters in sampled trajectory")

    norms = np.sqrt(state_norm_sq(amps, disps))
    theta = _theta(h, amps, disps)[0]
    energies = (overlap_matrix(disps, disps) * theta).sum(axis=(-2, -1))
    return Trajectory(sol.t.copy(), amps, disps, norms, energies, state.labels)


# ---------------------------------------------------------------------------
# autocorrelation -> absorption


def autocorrelation(traj: Trajectory, reference: MultiD2State) -> np.ndarray:
    """C(t) = <reference | psi(t)> along the trajectory."""
    s = overlap_matrix(reference.displacements, traj.displacements)
    return _label_weights(reference.amplitudes, traj.amplitudes, s).sum(axis=-1)


def absorption_from_autocorrelation(
    times: np.ndarray,
    corr: np.ndarray,
    gamma_prime: float,
    omega_grid: np.ndarray,
) -> np.ndarray:
    """F(omega) = Re integral dt C(t) exp((i*omega - gamma')t/hbar) / (pi*hbar).

    One-sided transform over the sampled window, trapezoid rule.  gamma' > 0
    (eV) damps the tail; a window too short for the damping to die out
    (gamma'*t_max/hbar < 5) triggers a truncation warning.
    """
    if gamma_prime <= 0:
        raise ValueError("gamma_prime must be > 0")
    t = np.asarray(times, dtype=float)
    if gamma_prime * t[-1] / HBAR_EV_FS < 5.0:
        warnings.warn(
            "autocorrelation window shorter than 5 damping times: expect "
            "truncation ringing in the lineshape",
            stacklevel=2,
        )
    kernel = np.exp(
        (1j * np.asarray(omega_grid)[:, None] - gamma_prime) * t[None, :] / HBAR_EV_FS
    )
    integrand = kernel * corr[None, :]
    return np.trapezoid(integrand, t, axis=1).real / (np.pi * HBAR_EV_FS)


# ---------------------------------------------------------------------------
# checkpoint serialization (versioned, text, Re/Im of every parameter)


def save_trajectory(path, traj: Trajectory) -> None:
    n_t = len(traj.times)
    m, n_sys = traj.amplitudes.shape[1:]
    n_modes = traj.displacements.shape[2]
    lines = [CHECKPOINT_HEADER]
    lines.append(f"multiplicity {m} n_sys {n_sys} n_modes {n_modes} snapshots {n_t}")
    lines.append("labels " + (",".join(traj.labels) if traj.labels else "-"))
    for i in range(n_t):
        e = traj.energies[i]
        lines.append(
            f"t {traj.times[i]:.17g} norm {traj.norms[i]:.17g} "
            f"energy {e.real:.17g} {e.imag:.17g}"
        )
        flat_a = traj.amplitudes[i].reshape(-1)
        lines.append("A " + " ".join(f"{v.real:.17g} {v.imag:.17g}" for v in flat_a))
        flat_f = traj.displacements[i].reshape(-1)
        lines.append("F " + " ".join(f"{v.real:.17g} {v.imag:.17g}" for v in flat_f))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_trajectory(path) -> Trajectory:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CHECKPOINT_HEADER:
        raise ValueError(f"not a recognized trajectory checkpoint: {path} "
                         f"(expected header {CHECKPOINT_HEADER!r})")
    hdr = lines[1].split()
    m, n_sys, n_modes, n_t = (int(hdr[i]) for i in (1, 3, 5, 7))
    label_field = lines[2].removeprefix("labels ").strip()
    labels = None if label_field == "-" else tuple(label_field.split(","))

    times = np.empty(n_t)
    norms = np.empty(n_t)
    energies = np.empty(n_t, dtype=complex)
    amps = np.empty((n_t, m, n_sys), dtype=complex)
    disps = np.empty((n_t, m, n_modes), dtype=complex)

    def parse_pairs(line, prefix, count):
        toks = line.split()
        if toks[0] != prefix or len(toks) != 1 + 2 * count:
            raise ValueError(f"malformed checkpoint line: {line[:60]}...")
        vals = np.array([float(x) for x in toks[1:]])
        return vals[0::2] + 1j * vals[1::2]

    row = 3
    for i in range(n_t):
        toks = lines[row].split()
        times[i] = float(toks[1])
        norms[i] = float(toks[3])
        energies[i] = float(toks[5]) + 1j * float(toks[6])
        amps[i] = parse_pairs(lines[row + 1], "A", m * n_sys).reshape(m, n_sys)
        disps[i] = parse_pairs(lines[row + 2], "F", m * n_modes).reshape(m, n_modes)
        row += 3
    return Trajectory(times, amps, disps, norms, energies, labels)
