#!/usr/bin/env python3
"""Exact Fock-basis reference dynamics for the single fission dimer.

Expands the package's own three-state (g, S1, TT) dimer Hamiltonian --
`sf_matter_only` without the cavity, `sf_system_bath` with the cavity as the
last boson mode -- in the shared sparse Fock oracle
(`cavidyn.dense_ref.FockSpace`) and propagates exactly: dense
eigendecomposition when the dimension is small (cavity-free), sparse Krylov
stepping otherwise.  Used to pin the intersection coupling strength and the
pumped-cavity triplet yields independently of the variational integrator.
At the default cutoffs, `scan --lam 0.065` gives P_TT(300 fs) = 0.02771.

Examples:
  python scripts/sf_dense_oracle.py scan --lam 0.06 0.08 0.10 0.12
  python scripts/sf_dense_oracle.py pumped --n-photons 8 --lam 0.0785
"""

from __future__ import annotations

import argparse
import math
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from cavidyn.constants import HBAR_EV_FS
from cavidyn.dense_ref import DensePropagator, FockSpace
from cavidyn.sf import (
    CavitySpec,
    SFCavityCoupling,
    SFDimerSpec,
    label_has_tt,
    sf_matter_only,
    sf_system_bath,
)


def initial_state(fock: FockSpace, labels, mu1: float = 0.0) -> np.ndarray:
    """|S1> x |0_tu> x |0_cu> [x |coherent mu1>], renormalized after the
    photon cutoff; mu1 displaces the last mode, the photon when present."""
    amps = np.zeros((1, len(labels)), dtype=complex)
    amps[0, labels.index(("S1",))] = 1.0
    disp = np.zeros((1, len(fock.cutoffs)), dtype=complex)
    disp[0, -1] = mu1
    psi = fock.multiconfig_vector(amps, disp)
    return psi / np.linalg.norm(psi)


def real_operator(fock: FockSpace, h) -> sp.csr_matrix:
    """H on the Fock space.  The fission dimer Hamiltonian is real, and a real
    dense eigendecomposition costs a quarter of a complex one."""
    op = fock.sparse_hamiltonian(h)
    if abs(op.imag).max() > 0:
        raise ValueError("expected a real Hamiltonian")
    return op.real


def propagate(h, psi0, times):
    if h.shape[0] <= 4000:
        return DensePropagator(h.toarray()).trajectory(psi0, times)
    gen = (-1j / HBAR_EV_FS) * h
    return spla.expm_multiply(gen, psi0, start=times[0], stop=times[-1],
                              num=len(times), endpoint=True)


def p_tt(fock: FockSpace, labels, states) -> np.ndarray:
    tt = [label_has_tt(lab) for lab in labels]
    return fock.system_populations(states)[:, tt].sum(axis=1)


def dominant_period(times, signal):
    """Period of the strongest nonzero-frequency Fourier component."""
    x = signal - signal.mean()
    dt = times[1] - times[0]
    spec = np.abs(np.fft.rfft(x * np.hanning(len(x))))
    freqs = np.fft.rfftfreq(len(x), dt)
    k = 1 + int(np.argmax(spec[1:]))
    return 1.0 / freqs[k]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["scan", "pumped"])
    ap.add_argument("--lam", type=float, nargs="+", default=[0.08])
    ap.add_argument("--n-photons", type=float, nargs="+", default=[8.0])
    ap.add_argument("--n-tu", type=int, default=22)
    ap.add_argument("--n-cu", type=int, default=16)
    ap.add_argument("--n-cav", type=int, default=28)
    ap.add_argument("--t-max", type=float, default=300.0)
    ap.add_argument("--dt", type=float, default=0.5)
    ap.add_argument("--coupling", type=float, default=0.2)
    ap.add_argument("--rwa", action="store_true")
    args = ap.parse_args()

    times = np.arange(0.0, args.t_max + 1e-9, args.dt)
    vib = (args.n_tu - 1, args.n_cu - 1)
    if args.mode == "scan":
        for lam in args.lam:
            labels, h = sf_matter_only([SFDimerSpec(lam_ci=lam)])
            fock = FockSpace(len(labels), vib)
            op = real_operator(fock, h)
            t0 = time.time()
            states = propagate(op, initial_state(fock, labels), times)
            tt = p_tt(fock, labels, states)
            print(f"lam={lam:.5f} dim={op.shape[0]} "
                  f"P_TT(300)={tt[-1]:.5f} max={tt.max():.4f} "
                  f"({time.time()-t0:.0f}s)", flush=True)
    else:
        coupling = SFCavityCoupling(omega=args.coupling, rwa=args.rwa)
        for lam in args.lam:
            labels, h = sf_system_bath([SFDimerSpec(lam_ci=lam)], CavitySpec(),
                                       coupling)
            fock = FockSpace(len(labels), vib + (args.n_cav - 1,))
            op = real_operator(fock, h)
            for n in args.n_photons:
                psi0 = initial_state(fock, labels, math.sqrt(n))
                t0 = time.time()
                states = propagate(op, psi0, times)
                tt = p_tt(fock, labels, states)
                ph = fock.mode_occupation(states, 2)
                early = times <= 60.0
                period = dominant_period(times[early], ph[early])
                print(f"lam={lam:.5f} N={n:g} dim={op.shape[0]} "
                      f"P_TT(300)={tt[-1]:.5f} maxP_TT={tt.max():.4f} "
                      f"P_cav span=[{ph.min():.2f},{ph.max():.2f}] "
                      f"period~{period:.2f}fs ({time.time()-t0:.0f}s)",
                      flush=True)
                np.savez(f"/tmp/dense_N{n:g}_lam{lam:.5f}.npz",
                         times=times, p_tt=tt, p_cav=ph)

if __name__ == "__main__":
    main()
