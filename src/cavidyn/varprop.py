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
the Hamiltonian contraction `_theta`.  One `eom_rhs` evaluation forms S and
Theta once, builds h from Theta's contractions, writes the blocks of G into
one array and returns <psi|psi> = sum(A* A^T o S), which G_ff needs anyway,
beside the derivatives: `propagate`'s norm guard reads it from there.

Time reversal.  `propagate` integrates forward only.  (A(-t), f(-t)) is the
conjugate of the forward solution of the conjugated problem (e_sys, the
couplings and the start state conjugated), since G(z*) = G(z)*.

Initial states.  `init_state` draws nothing at M = 1; at M > 1 it adds
NOISE_SCALE-sized draws, since identical configurations make G singular.

Batches.  Amplitudes (..., M, n_sys) and displacements (..., M, n_modes) may
carry leading batch axes: independent states of one Hamiltonian with the same
shape.  `eom_rhs` then assembles and solves one metric per member (stacked
`eigh`, the same damped filter, the collapse checks per member), and
`propagate` integrates the whole batch in one run of the Dormand-Prince
5(4) stepper (scipy's RK45 controller and dense output) over the stacked
parameter vector, returning (T, ..., M, .) trajectories.  Step control takes
the worst member: a step is accepted only when every member's own RMS error
norm is <= 1, the test that member would face integrated alone, so a batch of
one steps exactly like an unbatched run.  Members share the step sequence, so
a member batched with a stiffer one takes that member's shorter steps.

Carrier frame.  The amplitudes spin at their label energies (2-4 eV for the
fission dimer, periods of 1-2 fs), a phase no observable needs but one that
would set the step size.  `propagate` therefore integrates the rotating
amplitudes a~ = exp(i*E0*t/hbar) * A under

    da~/dt = Adot(a~, f) + (i*E0/hbar) * a~,    fdot = fdot(a~, f),

and multiplies every sampled a~ by exp(-i*E0*t/hbar) before it returns
them as a `Trajectory`.  E0 is one real scalar per call: the
population-weighted mean of Re diag(e_sys) over the initial state, with the
populations of all batch members summed.  This is an exact change of
variables, not a different ODE, because `eom_rhs` is covariant under a
global amplitude phase: A -> exp(i*phi) A maps G -> U G U^+ and
h -> U h with U = diag(exp(i*phi) 1_A, 1_f), and the damped spectral filter
is a function of G, so it commutes with U and the solve returns
(exp(i*phi) Adot, fdot).  Shifting the Hamiltonian instead (e_sys - E0*1)
gives the same phase in exact arithmetic but not under the filter: the
shift moves h by E0 * G (A, 0), which the filter maps back to (A, 0) only
on the well-conditioned part of G, so the shifted run solves a different
regularized ODE.  On a thermofield run (two emitters, 300 K, M = 6, 100 fs)
its norm error stays at 3.4-3.6e-5 at rel_tol 1e-8 and 1e-10, while the lab
frame and this change of variables both reach 6.4e-7.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constants import HBAR_EV_FS
from .models import SystemBathHamiltonian

#: relative eigenvalue cutoff for the metric pseudo-inverse, read by each
#: `eom_rhs` call
METRIC_CUTOFF = 1e-8
#: amplitude of the symmetry-breaking draws of a multi-configuration state
NOISE_SCALE = 1e-4


class AnsatzCollapseError(RuntimeError):
    """Variational metric degenerated beyond what regularization can absorb."""


class PropagationError(RuntimeError):
    """Integration failed (NaN, step underflow, runaway norm)."""


# ---------------------------------------------------------------------------
# state container


@dataclass
class MultiD2State:
    """amplitudes: (..., M, n_sys) complex over normalized coherent states;
    displacements: (..., M, n_modes) complex.  Leading axes index a batch of
    independent states.  System labels are plain indices; their names stay
    with the model module that returned the Hamiltonian (e.g. `cavidyn.sf`)."""

    amplitudes: np.ndarray
    displacements: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        self.displacements = np.asarray(self.displacements, dtype=complex)
        if self.amplitudes.ndim < 2 or self.displacements.ndim < 2:
            raise ValueError("amplitudes and displacements must be (..., M, .) arrays")
        if self.amplitudes.shape[:-1] != self.displacements.shape[:-1]:
            raise ValueError(
                "amplitudes and displacements disagree on batch shape or multiplicity")

    @property
    def multiplicity(self) -> int:
        return self.amplitudes.shape[-2]

    @property
    def n_sys(self) -> int:
        return self.amplitudes.shape[-1]

    @property
    def n_modes(self) -> int:
        return self.displacements.shape[-1]

    def norm(self):
        """State norm: a float, or one per batch member."""
        return np.sqrt(state_norm_sq(self.amplitudes, self.displacements))

    def normalized_to_unit(self) -> "MultiD2State":
        """Every member divided by its own norm."""
        n = self.norm()
        if np.any(n == 0):
            raise ValueError("cannot normalize the zero state")
        return MultiD2State(self.amplitudes / np.asarray(n)[..., None, None],
                            self.displacements.copy())

    def system_populations(self) -> np.ndarray:
        return system_populations(self.amplitudes, self.displacements)

    def mode_occupations(self) -> np.ndarray:
        return mode_occupations(self.amplitudes, self.displacements)


# ---------------------------------------------------------------------------
# closed-form overlaps and observables; every kernel broadcasts over leading
# axes, so (T, M, ...) trajectory arrays go through in one call


def overlap_matrix(f_bra: np.ndarray,
                   f_ket: Optional[np.ndarray] = None) -> np.ndarray:
    """S[..., i, j] = <f_bra_i | f_ket_j> for normalized coherent products.

    f_bra: (..., M, q), f_ket: (..., M', q) -> (..., M, M'); without f_ket,
    the self-overlap of f_bra, whose squared norms are the diagonal of the
    cross term.
    """
    cross = f_bra.conj() @ (f_bra if f_ket is None else f_ket).swapaxes(-1, -2)
    if f_ket is None:
        r1 = r2 = cross.diagonal(axis1=-2, axis2=-1).real
    else:
        r1 = np.sum(np.abs(f_bra) ** 2, axis=-1)
        r2 = np.sum(np.abs(f_ket) ** 2, axis=-1)
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
    s = overlap_matrix(displacements)
    return _label_weights(amplitudes, amplitudes, s).sum(axis=-1).real


def system_populations(amplitudes: np.ndarray, displacements: np.ndarray) -> np.ndarray:
    """Per-label populations; raises if the imaginary residue is unhealthy."""
    s = overlap_matrix(displacements)
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
    ps = (a.conj() @ a.swapaxes(-1, -2)) * overlap_matrix(f)
    occ = np.einsum("...mM,...mq,...Mq->...q", ps, f.conj(), f)
    if occ.size and np.abs(occ.imag).max() > 1e-8:
        raise ArithmeticError("mode occupation acquired a large imaginary part")
    return occ.real


def _theta(h: SystemBathHamiltonian, a: np.ndarray, f: np.ndarray):
    """Theta[..., m, m'] = sum_{nn'} A*_mn A_m'n' <f_m|H_{nn'}|f_m'> / S_mm'.

    Returns (theta, hx, x1, w_ff, p), the pieces `eom_rhs` reuses:
    hx[m, n] = sum_n' (e_sys + c . f_m)_nn' A_mn',
    x1[m, n, m'] = sum_n' (c+ . f*_m)_nn' A_m'n',
    w_ff = f*_m . (omega f_m'), p = A* A^T.
    """
    n_sys, n_modes = a.shape[-1], f.shape[-1]
    ac, fc = a.conj(), f.conj()
    # cdf[m] = c+ . f*_m; c . f_m is its adjoint
    cdf = (fc @ h.coup_create.reshape(n_sys * n_sys, n_modes).T).reshape(
        f.shape[:-1] + (n_sys, n_sys))
    hx = a @ h.e_sys.T + (a[..., None, :] @ cdf.conj())[..., 0, :]
    x1 = cdf @ a.swapaxes(-1, -2)[..., None, :, :]
    w_ff = (fc * h.mode_freqs) @ f.swapaxes(-1, -2)
    p = ac @ a.swapaxes(-1, -2)
    theta = (ac @ hx.swapaxes(-1, -2) + (ac[..., None, :] @ x1)[..., 0, :]
             + p * w_ff)
    return theta, hx, x1, w_ff, p


def energy_expectation(h: SystemBathHamiltonian, state: MultiD2State):
    """Complex <psi|H|psi>, one value per leading index."""
    a, f = state.amplitudes, state.displacements
    return (overlap_matrix(f) * _theta(h, a, f)[0]).sum(axis=(-2, -1))


# ---------------------------------------------------------------------------
# Dirac-Frenkel right-hand side


def eom_rhs(
    h: SystemBathHamiltonian,
    amplitudes: np.ndarray,
    displacements: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Time derivatives (Adot, Fdot) of the parameters, and <psi|psi>.

    amplitudes (..., M, n_sys) and displacements (..., M, n_modes); leading
    axes are independent batch members, each with its own metric solve.
    S and the contractions that Theta and h_A share (`_theta`) are formed
    once; the S (x) 1 of G_AA and the (p o S) (x) 1 of G_ff are written into
    G by strided assignment.  The third value, the per-member <psi|psi> =
    sum(p o S), is what `propagate`'s norm guard reads.
    """
    a, f = amplitudes, displacements
    m, n_sys = a.shape[-2:]
    n_modes = f.shape[-1]
    batch = a.shape[:-2]
    k = n_sys + n_modes

    s = overlap_matrix(f)
    theta, hx, x1, w_ff, p = _theta(h, a, f)
    ps = p * s
    h_a = s @ hx + (x1 @ s[..., None])[..., 0] + (s * w_ff) @ a
    y = np.einsum("...mn,nNq,...MN->...mMq", a.conj(), h.coup_create, a)
    # [m, m', p] = f_m'p - f_mp/2 and its bra counterpart f*_mp - f*_m'p/2
    ket_f = f[..., None, :, :] - 0.5 * f[..., :, None, :]
    bra_f = ket_f.conj().swapaxes(-3, -2)
    # h_f[m, p] = sum_m' S_mm' (ket_f theta + y + omega_p f_m'p p_mm')
    h_f = (s[..., None, :] @ (ket_f * theta[..., None] + y + h.mode_freqs
                              * f[..., None, :, :] * p[..., None]))[..., 0, :]
    rhs = np.concatenate([h_a, h_f], axis=-1).reshape(batch + (m * k,))
    rhs *= -1j / HBAR_EV_FS

    # Gram matrix of the tangent vectors, rows (m, n) then (m, p) for each
    # configuration m
    g = np.zeros(batch + (m, k, m, k), dtype=complex)
    for i in range(n_sys):
        g[..., :, i, :, i] = s
    g_af = np.einsum("...Mn,...mM,...mMp->...mnMp", a, s, bra_f)
    g[..., :, :n_sys, :, n_sys:] = g_af
    g[..., :, n_sys:, :, :n_sys] = np.einsum("...mnMp->...Mpmn", g_af).conj()
    g[..., :, n_sys:, :, n_sys:] = np.einsum(
        "...mM,...mMp,...mMq->...mpMq", ps, ket_f, bra_f)
    for i in range(n_sys, k):
        g[..., :, i, :, i] += ps
    g = g.reshape(batch + (m * k, m * k))

    # overflowing overlaps leave inf/nan in G, on which eigh fails to converge
    if not np.isfinite(g).all():
        raise AnsatzCollapseError("metric is not finite; state degenerated")
    vals, vecs = np.linalg.eigh(g)
    lam_max = vals[..., -1]
    if not ((lam_max > 0) & (lam_max < np.inf)).all():
        raise AnsatzCollapseError("metric has no positive eigenvalues; state degenerated")
    eps = METRIC_CUTOFF * lam_max[..., None]
    # damped spectral inversion: eigendirections well above the cutoff are
    # inverted exactly, those below are suppressed smoothly.  A hard
    # truncation would make the right-hand side discontinuous whenever an
    # eigenvalue crosses the cutoff, which stalls adaptive steppers on
    # overcomplete configuration sets.
    inv_filtered = vals / (vals * vals + eps * eps)
    coef = (vecs.conj().swapaxes(-1, -2) @ rhs[..., None])[..., 0]
    x = (vecs @ (inv_filtered * coef)[..., None]).reshape(batch + (m, k))

    fdot = x[..., n_sys:]
    adot = x[..., :n_sys] + 0.5 * a * (f * fdot.conj()).sum(axis=-1)[..., None]
    return adot, fdot, ps.sum(axis=(-2, -1)).real


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
    base_displacement: Optional[np.ndarray] = None,
) -> MultiD2State:
    """Product initial state plus, at M > 1, symmetry-breaking noise.

    `initial` selects the occupied system label: an index, or a full complex
    amplitude vector of length n_sys.  Configuration 1 carries the state, on
    top of `base_displacement` if given.  At M = 1 nothing is drawn, whatever
    `noise_seed`.  At M > 1 every other amplitude, then every displacement,
    receives NOISE_SCALE * (complex unit-disk draw) from `noise_seed`.  The
    result is renormalized to unit norm.
    """
    if multiplicity < 1:
        raise ValueError("multiplicity must be >= 1")

    a0 = np.zeros(n_sys, dtype=complex)
    if np.ndim(initial) == 0:
        a0[int(initial)] = 1.0
    else:
        vec = np.asarray(initial, dtype=complex)
        if vec.shape != (n_sys,):
            raise ValueError("initial amplitude vector has the wrong length")
        a0 = vec

    if multiplicity == 1:
        a, f = np.zeros((1, n_sys), complex), np.zeros((1, n_modes), complex)
    else:
        rng = np.random.default_rng(noise_seed)
        a = NOISE_SCALE * _unit_disk(rng, (multiplicity, n_sys))
        f = NOISE_SCALE * _unit_disk(rng, (multiplicity, n_modes))
    mask = a0 != 0
    a[0, mask] = a0[mask]
    if base_displacement is not None:
        f = f + np.asarray(base_displacement, dtype=complex)[None, :]

    state = MultiD2State(a, f).normalized_to_unit()
    if abs(state.norm() - 1.0) > 1e-12:
        raise ArithmeticError("initial state failed to renormalize to 1 within 1e-12")
    return state


# ---------------------------------------------------------------------------
# trajectories


@dataclass
class Trajectory(MultiD2State):
    """Sampled propagation history: a state whose leading axis is time.

    amplitudes: (T, ..., M, n_sys); displacements: (T, ..., M, n_modes),
    sampled at `times` under the Hamiltonian `h`.  The axes between T and M
    are the batch axes of the propagated state.  Observables are computed
    from the samples when called: `norm()` and `energies()` give (T, ...)
    arrays, `system_populations()` and `mode_occupations()` (T, ..., .) ones.
    """

    times: np.ndarray
    h: SystemBathHamiltonian

    def energies(self) -> np.ndarray:
        """(T, ...) complex <H>."""
        return energy_expectation(self.h, self)


@dataclass(frozen=True)
class PropagationSettings:
    rel_tol: float = 1e-6
    abs_tol: float = 1e-8

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be > 0")


# Dormand-Prince 5(4) tableau and the quartic dense-output matrix (optimal
# c_6), as in scipy.integrate.RK45
_DP_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_DP_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_DP_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_DP_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_DP_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _dormand_prince(fun, y0, t_eval, rtol, atol, members=1):
    """Samples at `t_eval` of y' = fun(t, y), y(0) = y0: a (len(t_eval), n) array.

    Dormand-Prince 5(4) with local extrapolation, the initial-step heuristic
    and step-size controller of Hairer, Nørsett & Wanner, "Solving Ordinary
    Differential Equations I", Sec. II.4, and the quartic continuous
    extension of Sec. II.5 (Shampine's optimal c_6).  Every operation follows
    scipy.integrate.solve_ivp(method="RK45", t_eval=...) over
    (0, t_eval[-1]): the safety factor 0.9, step factors within [0.2, 10],
    no growth right after a rejection, failure below 10 ulp of t,
    first-same-as-last stages.  The one difference is the error norm: the
    largest RMS norm over `members` equal-length slices of y, so a step is
    accepted only when every member passes the test it would face
    integrated alone.
    """
    if t_eval.ndim != 1 or not len(t_eval) or t_eval[0] < 0 \
            or np.any(np.diff(t_eval) <= 0):
        raise ValueError("sample times must be non-negative and increasing")
    t_final = t_eval[-1]
    # scipy's floor: below 100 eps rounding alone fails the error test
    rtol = max(rtol, 100 * np.finfo(float).eps)

    t, y = 0.0, y0
    f = fun(t, y)
    if t_final == 0:
        return np.tile(y0, (len(t_eval), 1))
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_final)
    d2 = _rms((fun(t + h0, y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100 * h0, h1, t_final)

    k = np.empty((7, y.size), dtype=y.dtype)
    samples, i = [], 0
    while t < t_final:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise PropagationError(
                    f"integration aborted: step size fell below {min_step:.3g} fs "
                    f"at t = {t:.6g} fs")
            t_new = min(t + h_abs, t_final)
            h_abs = h = t_new - t
            k[0] = f
            for s in range(1, 6):
                k[s] = fun(t + _DP_C[s] * h, y + np.dot(k[:s].T, _DP_A[s, :s]) * h)
            y_new = y + h * np.dot(k[:-1].T, _DP_B)
            f_new = k[-1] = fun(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = np.dot(k.T, _DP_E) * h / scale
            error_norm = max(_rms(e) for e in err.reshape(members, -1))
            if error_norm < 1:
                factor = 10 if error_norm == 0 else min(10, 0.9 * error_norm ** -0.2)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error_norm ** -0.2)
            rejected = True

        i_new = np.searchsorted(t_eval, t_new, side="right")
        if i_new > i:
            x = (t_eval[i:i_new] - t) / h
            q = k.T.dot(_DP_P)
            y_out = h * np.dot(q, np.cumprod(np.tile(x, (4, 1)), axis=0))
            y_out += y[:, None]
            samples.append(y_out)
            i = i_new
        t, y, f = t_new, y_new, f_new
    return np.ascontiguousarray(np.hstack(samples).T)


def propagate(
    h: SystemBathHamiltonian,
    state: MultiD2State,
    times,
    settings: Optional[PropagationSettings] = None,
) -> Trajectory:
    """Integrate the Dirac-Frenkel equations from t = 0 to times[-1] (fs).

    Samples are taken from the integrator's dense output at `times`, which
    must be non-negative and increasing (else ValueError), and returned as
    they are: the `Trajectory` computes no observable until one is read.
    The amplitudes are integrated in the carrier frame of the initial state
    and returned in the lab frame.  A state with leading batch axes is
    integrated as one system under worst-member step control.  Both are
    described in the module docstring.  The guards on finite parameters and
    on the norm of Hermitian runs (read from `eom_rhs`) apply to every member.
    """
    settings = settings or PropagationSettings()
    times = np.asarray(times, dtype=float)
    m, n_sys, n_modes = state.multiplicity, state.n_sys, state.n_modes
    batch = state.amplitudes.shape[:-2]
    members = int(np.prod(batch))
    na = m * n_sys

    hermitian_guard = h.hermitian
    # carrier frame (module docstring): y holds exp(i*e0*t/hbar) * A
    pops = system_populations(state.amplitudes, state.displacements)
    weights = pops.reshape(-1, n_sys).sum(axis=0)
    total = weights.sum()
    e0 = float(weights @ h.e_sys.diagonal().real / total) if total > 0 else 0.0
    spin = 1j * e0 / HBAR_EV_FS

    def rhs(t, y):
        if not np.isfinite(y).all():
            raise PropagationError(f"non-finite parameters at t = {t:.6g} fs")
        z = y.view(np.complex128).reshape(members, -1)
        a = z[:, :na].reshape(batch + (m, n_sys))
        f = z[:, na:].reshape(batch + (m, n_modes))
        adot, fdot, norm_sq = eom_rhs(h, a, f)
        if hermitian_guard:
            nrm = np.sqrt(norm_sq)
            bad = (nrm < 0.5) | (nrm > 1.5)
            if bad.any():
                raise PropagationError(
                    f"norm ran away to {np.ravel(nrm[bad])[0]:.6g} at t = {t:.6g} fs "
                    "(Hermitian run)"
                )
        return np.concatenate(
            [(adot + spin * a).reshape(members, -1), fdot.reshape(members, -1)],
            axis=1
        ).reshape(-1).view(np.float64)

    y0 = np.concatenate(
        [state.amplitudes.reshape(members, -1),
         state.displacements.reshape(members, -1)], axis=1
    ).reshape(-1).view(np.float64)

    ys = _dormand_prince(rhs, y0, times, settings.rel_tol, settings.abs_tol,
                         members)

    n_t = len(times)
    z = ys.view(np.complex128).reshape(n_t, members, -1)
    amps = z[:, :, :na].reshape((n_t,) + batch + (m, n_sys))
    amps *= np.exp(-spin * times).reshape((n_t,) + (1,) * (amps.ndim - 1))
    disps = z[:, :, na:].reshape((n_t,) + batch + (m, n_modes))
    if not (np.all(np.isfinite(amps)) and np.all(np.isfinite(disps))):
        raise PropagationError("non-finite parameters in sampled trajectory")

    return Trajectory(amps, disps, times.copy(), h)


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
    (eV) damps the tail; a window that ends before the damping envelope
    exp(-gamma'*t/hbar) falls to 2 % triggers a truncation warning.
    """
    if gamma_prime <= 0:
        raise ValueError("gamma_prime must be > 0")
    t = np.asarray(times, dtype=float)
    envelope = np.exp(-gamma_prime * t[-1] / HBAR_EV_FS)
    if envelope > 0.02:
        warnings.warn(
            f"autocorrelation window ends at {envelope:.1%} of the damping "
            "envelope (above 2%): expect truncation ringing in the lineshape",
            stacklevel=2,
        )
    kernel = np.exp(
        (1j * np.asarray(omega_grid)[:, None] - gamma_prime) * t[None, :] / HBAR_EV_FS
    )
    integrand = kernel * corr[None, :]
    return np.trapezoid(integrand, t, axis=1).real / (np.pi * HBAR_EV_FS)
