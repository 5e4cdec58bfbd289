#!/usr/bin/env python3
"""Exact Fock-basis reference dynamics for the single fission dimer.

Expands the package's own three-state (g, S1, TT) dimer Hamiltonian --
`sf_matter_only` without the cavity, `sf_system_bath` with the cavity as the
last boson mode -- and the runner's start state (`sf.coherent_init`) in the
shared sparse Fock oracle (`cavidyn.dense_ref.FockSpace`), propagates exactly
with `FockSpace.propagate` (dense eigendecomposition when the dimension is
small, sparse Krylov stepping otherwise) and reads P_TT and the photon number
through `sf.sf_observables`.  Used to pin the
intersection coupling strength and the pumped-cavity triplet yields
independently of the variational integrator.  At the default cutoffs,
`scan --lam 0.065` gives P_TT(300 fs) = 0.02771.  P_TT is printed at
`--t-max`.

Examples:
  python scripts/sf_dense_oracle.py scan --lam 0.06 0.08 0.10 0.12
  python scripts/sf_dense_oracle.py pumped --n-photons 8 --lam 0.0785
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from cavidyn.dense_ref import FockSpace
from cavidyn.sf import (CavitySpec, SFCavityCoupling, SFDimerSpec,
                        coherent_init, sf_matter_only, sf_observables,
                        sf_system_bath)


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
    at_end = f"P_TT({args.t_max:g})"
    if args.mode == "scan":
        for lam in args.lam:
            labels, h = sf_matter_only([SFDimerSpec(lam_ci=lam)])
            fock = FockSpace(len(labels), vib)
            t0 = time.time()
            traj = fock.propagate(h, coherent_init(0.0, labels, h.n_modes),
                                  times)
            tt = sf_observables(traj, labels, cavity_mode=None)["p_tt"]
            print(f"lam={lam:.5f} dim={fock.dim} "
                  f"{at_end}={tt[-1]:.5f} max={tt.max():.4f} "
                  f"({time.time()-t0:.0f}s)", flush=True)
    else:
        coupling = SFCavityCoupling(omega=args.coupling, rwa=args.rwa)
        for lam in args.lam:
            labels, h = sf_system_bath([SFDimerSpec(lam_ci=lam)], CavitySpec(),
                                       coupling)
            fock = FockSpace(len(labels), vib + (args.n_cav - 1,))
            for n in args.n_photons:
                state = coherent_init(np.sqrt(n), labels, h.n_modes)
                t0 = time.time()
                obs = sf_observables(fock.propagate(h, state, times), labels)
                tt, ph = obs["p_tt"], obs["p_cav"]
                early = times <= 60.0
                period = dominant_period(times[early], ph[early])
                print(f"lam={lam:.5f} N={n:g} dim={fock.dim} "
                      f"{at_end}={tt[-1]:.5f} maxP_TT={tt.max():.4f} "
                      f"P_cav span=[{ph.min():.2f},{ph.max():.2f}] "
                      f"period~{period:.2f}fs ({time.time()-t0:.0f}s)",
                      flush=True)

if __name__ == "__main__":
    main()
