#!/usr/bin/env python3
"""Calibrate the S1<->TT coupling-mode strength of the fission dimer.

The coupling strength lam_ci is not an independently known material constant
here; it is fixed by requiring that the cavity-free single dimer, started in
the vertical S1 state, reaches a triplet-pair population of 0.14 at 300 fs.

P_TT(300 fs) rises with lam_ci on coarse scales but is resonance-riddled at
fine resolution (adjacent lam values 1e-4 apart can differ by 0.08), so a
bisection to tight tolerance never terminates meaningfully.  This script
instead scans a lam_ci ladder with the variational propagator (M = 16
configurations), refines once around the best coarse point, and picks the
scanned value closest to the target.  The result is what
`cavidyn.constants.LAMBDA_CI_CALIBRATED` ships with.

Usage: python3 scripts/calibrate_sf_ci.py [--target 0.14] [--coarse-step 0.005]
"""

import argparse

import numpy as np

from cavidyn.sf import SFDimerSpec, label_has_tt, sf_matter_only
from cavidyn.varprop import PropagationSettings, init_state, propagate


def triplet_population_at(lam_ci, t_final=300.0, multiplicity=16, noise_seed=1):
    dimer = SFDimerSpec(lam_ci=lam_ci)
    labels, h = sf_matter_only([dimer])
    state = init_state(
        len(labels),
        h.n_modes,
        labels.index(("S1",)),
        multiplicity=multiplicity,
        noise_seed=noise_seed,
    )
    traj = propagate(h, state, t_final, PropagationSettings(sample_dt=1.0))
    pops = traj.system_populations()
    tt_cols = [i for i, lab in enumerate(labels) if label_has_tt(lab)]
    return float(pops[:, tt_cols].sum(axis=1)[-1])


def scan(target, lo, hi, coarse_step, fine_step):
    tried = {}

    def probe(lam):
        lam = round(lam, 6)
        if lam not in tried:
            tried[lam] = triplet_population_at(lam)
            print(f"lam={lam:.6f} -> P_TT(300 fs) = {tried[lam]:.4f}")
        return tried[lam]

    for lam in np.arange(lo, hi + 1e-12, coarse_step):
        probe(lam)
    best = min(tried, key=lambda l: abs(tried[l] - target))
    for lam in np.arange(best - 2 * fine_step, best + 2 * fine_step + 1e-12,
                         fine_step):
        if lo <= lam <= hi:
            probe(lam)
    best = min(tried, key=lambda l: abs(tried[l] - target))
    return best, tried[best]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--target", type=float, default=0.14)
    ap.add_argument("--lo", type=float, default=0.06)
    ap.add_argument("--hi", type=float, default=0.08)
    ap.add_argument("--coarse-step", type=float, default=0.005)
    ap.add_argument("--fine-step", type=float, default=0.0025)
    args = ap.parse_args()
    lam, val = scan(args.target, args.lo, args.hi, args.coarse_step,
                    args.fine_step)
    print(f"\ncalibrated lam_ci = {lam:.6f}  (P_TT(300 fs) = {val:.4f})")
    print("cross-checks at the calibrated value:")
    for m, seed in ((16, 7), (20, 1)):
        v = triplet_population_at(lam, multiplicity=m, noise_seed=seed)
        print(f"  M={m}, seed={seed}: P_TT(300 fs) = {v:.4f}")


if __name__ == "__main__":
    main()
