"""Third-order response functions and 2D electronic spectra.

The four ground/singly-excited response functions R1..R4 (stimulated emission
and ground-state bleach) and the two excited-state-absorption counterparts
R1*, R2* are assembled from variational trajectories in closed form: products
of electronic amplitudes, transition-dipole factors, and coherent-state
overlap (Debye-Waller) factors carrying the free-phonon phases of the
intervals spent in the electronic ground state.

The workflow is bank -> response -> spectra:

  1. `first_leg_bank` propagates one trajectory per bright singly-excited
     label, sampled on a uniform grid covering every composed time any R
     needs, and stores it.  R4's backward branch is taken from that forward
     leg when the problem is real, and from the forward leg of the
     conjugated problem otherwise.
  2. `response_se_gsb` evaluates R1..R4 on the (tau, T_w, t) grid from bank
     snapshots alone; `response_esa` additionally runs second-leg
     propagations in the doubly-excited manifold, started from
     dipole-raised transplants of first-leg snapshots, all in one batched
     integration.
  3. `spectra` applies the electronic dephasing window exp(-gamma'(tau+t)/hbar)
     and the double one-sided transform, returning the SE, GSB and ESA maps
     as (T_w, omega_tau, omega_t) arrays; their sum is the TOTAL map the
     runner writes beside them.

tau and t share one time axis, `ResponseGrid.times_fs`.

Everything is impulsive-limit: pulse envelopes are delta functions, and all
dipoles and pulse polarizations are parallel, so no orientation factor
enters.  The stages take the transition dipoles as arrays: mu[n] is the
ground -> singly-excited magnitude of label n (dark labels carry 0), and
mu_up[m, n] the singly -> doubly-excited magnitude from label n to label m.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constants import HBAR_EV_FS, nyquist_ev
from .models import SystemBathHamiltonian
from .varprop import (
    MultiD2State,
    PropagationSettings,
    autocorrelation,
    absorption_from_autocorrelation,
    init_state,
    overlap_matrix,
    propagate,
)


@dataclass(frozen=True)
class ResponseGrid:
    """One time axis for coherence (tau) and detection (t): n samples
    0, dt, ..., (n-1) dt fs.  Waiting times must be multiples of dt (the
    snapshot bank carries no interpolation); gamma_prime is the dephasing."""

    n: int
    dt: float
    tw_fs: tuple
    gamma_prime: float = 0.01

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "tw_fs", tuple(float(w) for w in self.tw_fs))
        if self.n < 2:
            raise ValueError("the time axis needs at least two points")
        if self.dt <= 0:
            raise ValueError("time step must be > 0")
        if not self.tw_fs:
            raise ValueError("at least one waiting time is needed")
        for w in self.tw_fs:
            if w < 0 or abs(round(w / self.dt) * self.dt - w) > 1e-9:
                raise ValueError(
                    f"waiting time {w} fs is not on the {self.dt} fs sample grid"
                )
        if self.gamma_prime <= 0:
            raise ValueError("gamma_prime must be > 0")

    @property
    def times_fs(self) -> np.ndarray:
        """The tau and t axis."""
        return np.arange(self.n) * self.dt


@dataclass
class TrajectoryBank:
    """First-leg trajectories per bright initial label.

    fwd[n] is the `Trajectory` sampled on the uniform forward grid
    s = 0, dt, ..., (S-1) dt; back[n] is the `MultiD2State` of its
    backward-branch samples at s = 0, -dt, ...  Amplitudes carry shape
    (S, M, n_labels), displacements (S, M, n_modes).
    """

    dt: float
    mode_freqs: np.ndarray
    bright: tuple
    fwd: dict
    back: dict

    def _samples(self, state: MultiD2State, s):
        """(amplitudes, displacements) of `state` at grid times s >= 0."""
        s = np.asarray(s, dtype=float)
        i = np.rint(s / self.dt).astype(int)
        off = np.abs(i * self.dt - s) > 1e-9 * np.maximum(1.0, np.abs(s))
        if off.any():
            raise ValueError(f"time {s[off][0]} fs is not on the {self.dt} fs bank grid")
        outside = (i < 0) | (i >= len(state.amplitudes))
        if outside.any():
            raise ValueError(f"time {s[outside][0]} fs outside the stored bank range")
        return state.amplitudes[i], state.displacements[i]

    def forward(self, n: int, s):
        """Snapshots at times s >= 0 of any shape: (*s.shape, M, ...) arrays."""
        return self._samples(self.fwd[n], s)

    def backward(self, n: int, s):
        """Snapshots at non-positive times s (0, -dt, ...) of any shape."""
        return self._samples(self.back[n], -np.asarray(s, dtype=float))


def first_leg_bank(
    h1: SystemBathHamiltonian,
    mu: np.ndarray,
    grid: ResponseGrid,
    multiplicity: int = 1,
    noise_seed: int = 0,
    settings: Optional[PropagationSettings] = None,
) -> TrajectoryBank:
    """Propagate one singly-excited trajectory per bright label, each label
    n with |mu[n]| > 0.

    Forward samples cover tau_max + max(T_w) + t_max.  R4's backward branch
    (amplitudes at -t) is the conjugate of the conjugated problem's forward
    leg (`cavidyn.varprop`), which is the forward leg itself when h1 and the
    start state are real.
    """
    mu = np.asarray(mu, dtype=complex)
    bright = tuple(int(i) for i in np.flatnonzero(np.abs(mu) > 0))
    if not bright:
        raise ValueError("no bright singly-excited label (all dipoles zero)")
    dt, t_max = grid.dt, grid.times_fs[-1]
    fwd_times = np.arange(0.0, t_max + max(grid.tw_fs) + t_max + dt / 2, dt)
    h1_conj = SystemBathHamiltonian(h1.e_sys.conj(), h1.mode_freqs,
                                    h1.coup_create.conj())

    fwd, back = {}, {}
    for n in bright:
        st = init_state(h1.n_sys, h1.n_modes, n, multiplicity=multiplicity,
                        noise_seed=noise_seed)
        fwd[n] = propagate(h1, st, fwd_times, settings)
        if any(x.imag.any() for x in (h1.e_sys, h1.coup_create,
                                      st.amplitudes, st.displacements)):
            leg = propagate(h1_conj, MultiD2State(st.amplitudes.conj(),
                                                  st.displacements.conj()),
                            fwd_times[:grid.n], settings)
        else:
            leg = fwd[n]
        back[n] = MultiD2State(leg.amplitudes[:grid.n].conj(),
                               leg.displacements[:grid.n].conj())
    return TrajectoryBank(dt, np.asarray(h1.mode_freqs, dtype=float), bright,
                          fwd, back)


def response_se_gsb(bank: TrajectoryBank, grid: ResponseGrid,
                    mu: np.ndarray) -> dict:
    """R1..R4 on the (tau, T_w, t) grid, complex arrays.

    Bra amplitude rows contract the third-pulse dipole (unconjugated mu),
    ket rows the detection dipole (conjugated), except R4's ket which the
    closed form pairs with an unconjugated second-pulse dipole.  Snapshot
    times broadcast to (tau, t); the free-phonon phase e^{i w s} of the
    ground-state interval s is folded into the ket displacements, which is
    exact because it leaves |f| unchanged.
    """
    mu = np.asarray(mu, dtype=complex)
    t = grid.times_fs
    tau = t[:, None]
    shape = (grid.n, len(grid.tw_fs), grid.n)
    out = {k: np.zeros(shape, dtype=complex) for k in ("R1", "R2", "R3", "R4")}

    def ground(s):
        """exp(i omega_q s / hbar), shaped to multiply (..., M, q) displacements."""
        return np.exp(1j * np.multiply.outer(s, bank.mode_freqs) / HBAR_EV_FS)[..., None, :]

    def pathway(bra, ket, phase, mu_ket):
        """sum_ji (A_bra^+ mu)_j (A_ket mu_ket)_i <f_bra_j | f_ket_i phase>."""
        (a_b, f_b), (a_k, f_k) = bra, ket
        x = overlap_matrix(f_b, f_k * phase)
        return np.einsum("...j,...i,...ji->...", a_b.conj() @ mu, a_k @ mu_ket, x)

    for n in bank.bright:
        for n3 in bank.bright:
            d_r123 = mu[n].conjugate() * mu[n3]
            d_r4 = mu[n].conjugate() * mu[n3].conjugate()
            for w, tw in enumerate(grid.tw_fs):
                # R1: bra at T_w, ket at tau+T_w+t, ground phase e^{+i w t}
                out["R1"][:, w] += d_r123 * pathway(
                    bank.forward(n, tw), bank.forward(n3, tau + tw + t),
                    ground(t), mu.conj())
                # R2: bra at tau+T_w, ket at T_w+t, same ground phase
                out["R2"][:, w] += d_r123 * pathway(
                    bank.forward(n, tau + tw), bank.forward(n3, tw + t),
                    ground(t), mu.conj())
                # R3: bra at tau, ket at t, ground phase e^{+i w (T_w + t)}
                out["R3"][:, w] += d_r123 * pathway(
                    bank.forward(n, tau), bank.forward(n3, t),
                    ground(tw + t), mu.conj())
                # R4: bra at -t (backward branch), ket at tau,
                # ground phase e^{-i w T_w}
                out["R4"][:, w] += d_r4 * pathway(
                    bank.backward(n, -t), bank.forward(n3, tau),
                    ground(-tw), mu)
    return out


def response_esa(
    bank: TrajectoryBank,
    h2: SystemBathHamiltonian,
    grid: ResponseGrid,
    mu: np.ndarray,
    mu_up: np.ndarray,
    settings: Optional[PropagationSettings] = None,
) -> dict:
    """R1*, R2* (excited-state absorption) on the (tau, T_w, t) grid.

    Second legs: R2* needs one doubly-excited propagation per (ket label n3,
    tau, T_w), started at tau + T_w; R1*'s leg, started at T_w, is R2*'s at
    tau = 0.  Every leg shares the Hamiltonian and the detection grid, so
    all of them run as one batched integration (`propagate` with a leading
    batch axis), under the step control of the slowest member.

    Each transplant is propagated normalized and rescaled afterwards, which
    is exact because a global amplitude rescaling commutes with the
    variational equations of motion; transplants of norm < 1e-12 contribute
    nothing and are not propagated.
    """
    mu = np.asarray(mu, dtype=complex)
    mu_up = np.asarray(mu_up, dtype=complex)
    shape = (grid.n, len(grid.tw_fs), grid.n)
    r1s = np.zeros(shape, dtype=complex)
    r2s = np.zeros(shape, dtype=complex)

    def esa(n3, bra_times, a2, f2):
        """sum_n mu*_n mu_n3 <raised first leg n at bra_times | second leg>."""
        out = 0.0
        for n in bank.bright:
            a_b, f_b = bank.forward(n, bra_times)
            out += mu[n].conjugate() * mu[n3] * np.einsum(
                "...jm,...im,...ji->...", (a_b @ mu_up.T).conj(), a2,
                overlap_matrix(f_b, f2))
        return out

    t = grid.times_fs
    tau = t[:, None]
    legs = [(n3, w, tw) for n3 in bank.bright
            for w, tw in enumerate(grid.tw_fs)]
    # member (b, k) is R2*'s transplant of leg b = (n3, T_w) at tau_k + T_w;
    # member (b, 0) (tau = 0) is R1*'s
    firsts = [bank.forward(n3, t + tw) for n3, _, tw in legs]
    a0 = np.stack([a for a, _ in firsts]) @ mu_up.T
    f0 = np.stack([f for _, f in firsts])
    scale = MultiD2State(a0, f0).norm()
    live = scale >= 1e-12
    a2 = np.zeros((grid.n,) + a0.shape, dtype=complex)
    f2 = np.broadcast_to(f0, (grid.n,) + f0.shape).copy()
    if live.any():
        st = MultiD2State(a0[live] / scale[live, None, None], f0[live])
        traj = propagate(h2, st, t, settings)
        a2[:, live] = traj.amplitudes * scale[live, None, None]
        f2[:, live] = traj.displacements
    for b, (n3, w, tw) in enumerate(legs):
        # R1*: bra = first leg at tau+T_w+t; R2*: bra = first leg at
        # T_w+t, ket rows moved to (tau, t)
        r1s[:, w] += esa(n3, tau + tw + t, a2[:, b, 0], f2[:, b, 0])
        r2s[:, w] += esa(n3, tw + t, a2[:, b].swapaxes(0, 1),
                         f2[:, b].swapaxes(0, 1))
    return {"R1s": r1s, "R2s": r2s}


def _transform_kernels(times, omegas, dt):
    nyquist = nyquist_ev(dt)
    if np.max(np.abs(omegas)) > nyquist + 1e-12:
        raise ValueError(
            f"requested frequencies exceed the Nyquist limit {nyquist:.3f} eV "
            f"for step {dt} fs"
        )
    weights = np.full(len(times), dt)
    weights[0] = weights[-1] = 0.5 * dt
    phase = np.exp(1j * np.outer(times, omegas) / HBAR_EV_FS)
    return weights[:, None] * phase


def spectra(
    responses: dict,
    grid: ResponseGrid,
    omega_tau: np.ndarray,
    omega_t: np.ndarray,
) -> dict:
    """SE, GSB and ESA maps via apodized one-sided transforms.

    responses holds all six of R1..R4, R1s and R2s, each shaped
    (tau, T_w, t); a missing key raises KeyError.  Returns {"se", "gsb",
    "esa"}, each a complex (T_w, omega_tau, omega_t) array: the real part
    is the absorptive spectrum, the imaginary part the dispersive
    counterpart of the same one-sided transforms.
    """
    omega_tau = np.asarray(omega_tau, dtype=float)
    omega_t = np.asarray(omega_t, dtype=float)
    times = grid.times_fs
    e_t = _transform_kernels(times, omega_t, grid.dt)
    e_tau_p = _transform_kernels(times, omega_tau, grid.dt)
    e_tau_m = e_tau_p.conj()
    apo = np.exp(
        -grid.gamma_prime * (times[:, None] + times[None, :]) / HBAR_EV_FS
    )

    def xf(key, w, k_tau):
        return k_tau.T @ (apo * responses[key][:, w, :]) @ e_t

    shape = (len(grid.tw_fs), len(omega_tau), len(omega_t))
    out = {k: np.empty(shape, dtype=complex) for k in ("se", "gsb", "esa")}
    for w in range(len(grid.tw_fs)):
        out["se"][w] = xf("R2", w, e_tau_m) + xf("R1", w, e_tau_p)
        out["gsb"][w] = xf("R3", w, e_tau_m) + xf("R4", w, e_tau_p)
        out["esa"][w] = -(xf("R1s", w, e_tau_m) + xf("R2s", w, e_tau_p))
    return out


def linear_absorption(
    h1: SystemBathHamiltonian,
    mu: np.ndarray,
    omega_grid: np.ndarray,
    times: np.ndarray,
    gamma_prime: float = 0.01,
    multiplicity: int = 1,
    noise_seed: int = 0,
    settings: Optional[PropagationSettings] = None,
) -> np.ndarray:
    """F(omega) from the singly-excited dipole autocorrelation at `times`:
    the start state is mu itself, the ground -> singly-excited dipoles per
    label; all-zero dipoles absorb nothing."""
    mu = np.asarray(mu, dtype=complex)
    strength = float(np.sum(np.abs(mu) ** 2))
    if strength == 0:
        return np.zeros_like(np.asarray(omega_grid, dtype=float))
    st = init_state(h1.n_sys, h1.n_modes, mu, multiplicity=multiplicity,
                    noise_seed=noise_seed)
    traj = propagate(h1, st, times, settings)
    corr = autocorrelation(traj, st) * strength
    return absorption_from_autocorrelation(
        traj.times, corr, gamma_prime, omega_grid)


def diagonal_peaks(spec: np.ndarray, omega_tau, omega_t, n_peaks: int = 2,
                   band: float = 0.03) -> list:
    """Local maxima of |map| near the omega_tau = omega_t diagonal.

    Returns up to n_peaks (omega_tau, omega_t, value) triples sorted by
    |value|, keeping only pixels within `band` (eV) of the diagonal that
    dominate their 3x3 neighborhood.
    """
    omega_tau = np.asarray(omega_tau)
    omega_t = np.asarray(omega_t)
    mags = np.abs(spec)
    hits = []
    for i in range(1, spec.shape[0] - 1):
        for j in range(1, spec.shape[1] - 1):
            if abs(omega_tau[i] - omega_t[j]) > band:
                continue
            patch = mags[i - 1:i + 2, j - 1:j + 2]
            if mags[i, j] == patch.max() and mags[i, j] > 0:
                hits.append((float(omega_tau[i]), float(omega_t[j]),
                             float(spec[i, j].real)))
    hits.sort(key=lambda h: -abs(h[2]))
    dedup = []
    for h in hits:
        if all(abs(h[0] - d[0]) > 2 * band for d in dedup):
            dedup.append(h)
        if len(dedup) == n_peaks:
            break
    return dedup
