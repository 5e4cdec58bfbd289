"""Experiment driver: turns a resolved config into deterministic output files.

Every experiment writes fixed-precision CSV data files plus a JSON manifest
(resolved config, code version, seed, wall-clock time, SHA-256 checksum per
output).  Data files are written atomically and depend only on the config, so
rerunning the same config reproduces them byte for byte; the manifest is
written last.  On failure, partially written outputs are removed.

Disorder ensembles fan realizations out over a process pool and reduce the
per-realization results in realization-index order, making the reduction
independent of worker count and scheduling.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .config import RunConfig
from .constants import HBAR_EV_FS as _HBAR
from .models import HTCModel, TCModel, disordered_tc, htc_system_bath
from .sf import (
    coherent_init,
    manifold_hamiltonian,
    dipole_up,
    pes_scan,
    sf_matter_only,
    sf_observables,
    sf_system_bath,
    surface_table,
)
from .spectro import (
    DipoleSet,
    ResponseGrid,
    first_leg_bank,
    linear_absorption,
    response_esa,
    response_se_gsb,
    spectra,
)
from .tc_exact import ensemble_absorption, solve_realization
from .thermofield import (
    thermal_htc,
    thermal_init_state,
    thermal_propagate,
)
from .varprop import PropagationSettings, init_state, propagate


def _fmt(x) -> str:
    return "%.17g" % float(x)


def _write_csv(path: str, header, columns) -> None:
    """Atomic fixed-precision CSV; every column is a 1-d array."""
    cols = [np.asarray(c) for c in columns]
    n = len(cols[0])
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(n):
            fh.write(",".join(_fmt(c[i]) for c in cols) + "\n")
    os.replace(tmp, path)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _width_tag(width: float) -> str:
    return ("%g" % width)


def _settings(cfg: RunConfig) -> PropagationSettings:
    return PropagationSettings(rel_tol=cfg.run.rel_tol, abs_tol=cfg.run.abs_tol)


def _times(cfg: RunConfig) -> np.ndarray:
    n = int(round(cfg.run.t_max_fs / cfg.run.sample_dt_fs))
    return np.arange(n + 1) * cfg.run.sample_dt_fs


def _map_ordered(fn, args_list, workers: int):
    """Evaluate fn over args_list, yielding results in list order regardless
    of worker scheduling."""
    if workers <= 1 or len(args_list) <= 1:
        return [fn(a) for a in args_list]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, args_list))


# ---------------------------------------------------------------------------
# per-realization work units (top level so they pickle for the process pool)
# ---------------------------------------------------------------------------


def _tc_realization(args):
    model, width, dseed, r, times = args
    m_r = disordered_tc(model, width, dseed, r)
    dec = solve_realization(m_r)
    h = m_r.matrix()
    h_herm = (h + h.conj().T) / 2.0
    phases = np.exp(-1j * np.outer(times, dec.energies) / _HBAR)
    amps = np.empty((len(times), model.n_qubits + 1), dtype=complex)
    amps[:, 0] = phases @ dec.photon_weights
    amps[:, 1:] = phases @ dec.qubit_weights.T
    p_ph = np.abs(amps[:, 0]) ** 2
    p_qu = np.sum(np.abs(amps[:, 1:]) ** 2, axis=1)
    energy = np.real(np.einsum("ti,ij,tj->t", amps.conj(), h_herm, amps))
    return p_ph, p_qu, p_ph + p_qu, energy


def _htc_realization(args):
    htc, width, dseed, r, times, mult, noise_seed, settings, temp_k = args
    tcr = disordered_tc(htc.tc, width, dseed, r)
    model = HTCModel(tcr, htc.lam, htc.phonon_base, htc.phonon_bandwidth)
    if temp_k > 0:
        doubled = thermal_htc(model, temp_k)
        state = thermal_init_state(doubled, 0, mult, noise_seed)
        traj = thermal_propagate(doubled, state, float(times[-1]), settings,
                                 t_eval=times)
    else:
        h = htc_system_bath(model)
        state = init_state(h.n_sys, h.n_modes, 0, mult, noise_seed=noise_seed)
        traj = propagate(h, state, float(times[-1]), settings, t_eval=times)
    pops = traj.system_populations()
    return (pops[:, 0], pops[:, 1:].sum(axis=1), traj.norms,
            traj.energies.real)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def _run_dynamics(cfg: RunConfig, out_dir: str, workers: int, files: list):
    times = _times(cfg)
    widths = cfg.disorder.width
    n_real = cfg.disorder.n_realizations
    for width in widths:
        if cfg.model_kind == "tc":
            rows = _map_ordered(
                _tc_realization,
                [(cfg.tc, width, cfg.disorder.seed, r, times)
                 for r in range(n_real)], workers)
        elif cfg.model_kind == "htc":
            rows = _map_ordered(
                _htc_realization,
                [(cfg.htc, width, cfg.disorder.seed, r, times,
                  cfg.run.multiplicity, cfg.run.seed + 7919 * r,
                  _settings(cfg), cfg.temperature_k)
                 for r in range(n_real)], workers)
        else:
            _run_dynamics_sf(cfg, out_dir, times, files)
            return
        mean = [sum(row[k] for row in rows) / n_real for k in range(4)]
        name = ("population.csv" if len(widths) == 1
                else f"population_W{_width_tag(width)}.csv")
        _write_csv(os.path.join(out_dir, name),
                   ["time_fs", "p_photon", "p_qubits_total", "norm",
                    "energy_eV"],
                   [times, mean[0], mean[1], mean[2], mean[3]])
        files.append(name)


def _run_dynamics_sf(cfg: RunConfig, out_dir: str, times: np.ndarray,
                     files: list):
    settings = _settings(cfg)
    if cfg.sf_coupling.omega == 0.0:
        labels, h = sf_matter_only(cfg.sf_dimers)
        mu1, cavity_mode = 0.0, None
    else:
        labels, h = sf_system_bath(cfg.sf_dimers, cfg.sf_cavity,
                                   cfg.sf_coupling)
        mu1, cavity_mode = math.sqrt(cfg.sf_n_photons), -1
    state = coherent_init(mu1, labels, h.n_modes, cfg.run.multiplicity,
                          noise_seed=cfg.run.seed)
    traj = propagate(h, state, float(times[-1]), settings, t_eval=times)
    obs = sf_observables(traj, cavity_mode=cavity_mode)
    _write_csv(os.path.join(out_dir, "population.csv"),
               ["time_fs", "p_tt", "p_s1", "norm", "energy_eV"],
               [obs["time_fs"], obs["p_tt"], obs["p_s1"], obs["norm"],
                obs["energy_ev"]])
    files.append("population.csv")


def _run_absorption(cfg: RunConfig, out_dir: str, workers: int,
                    files: list):
    opt = cfg.options
    omega = np.linspace(opt["omega_min"], opt["omega_max"],
                        opt["omega_points"])
    if cfg.model_kind == "tc":
        for width in cfg.disorder.width:
            intensity = ensemble_absorption(
                cfg.tc, width, omega, cfg.disorder.n_realizations,
                cfg.disorder.seed)
            name = ("absorption.csv" if len(cfg.disorder.width) == 1
                    else f"absorption_W{_width_tag(width)}.csv")
            _write_csv(os.path.join(out_dir, name),
                       ["omega_eV", "intensity"], [omega, intensity])
            files.append(name)
        return
    # htc: autocorrelation of the photon-excited state
    h = htc_system_bath(cfg.htc)
    mu = np.zeros(h.n_sys)
    mu[0] = 1.0
    intensity = linear_absorption(
        h, DipoleSet(mu=mu), omega, gamma_prime=opt["gamma_prime"],
        t_max=cfg.run.t_max_fs, multiplicity=cfg.run.multiplicity,
        noise_seed=cfg.run.seed, settings=_settings(cfg))
    _write_csv(os.path.join(out_dir, "absorption.csv"),
               ["omega_eV", "intensity"], [omega, intensity])
    files.append("absorption.csv")


def _run_pes_scan(cfg: RunConfig, out_dir: str, files: list):
    opt = cfg.options
    q_grid = np.linspace(opt["q_min"], opt["q_max"], opt["q_points"])
    rows = pes_scan(cfg.sf_dimers, cfg.sf_cavity, cfg.sf_coupling, q_grid,
                    n_max=opt["fock_cutoff"],
                    manifold_max=opt["manifold_max"])
    table = surface_table(rows)
    _write_csv(os.path.join(out_dir, "pes.csv"),
               ["q_t", "surface", "energy_eV", "manifold", "w_tt", "w_ph",
                "w_ph_any"],
               [table[:, k] for k in range(7)])
    files.append("pes.csv")


def _run_spectra2d(cfg: RunConfig, out_dir: str, resume: bool, files: list):
    opt = cfg.options
    grid = ResponseGrid(
        tau_fs=np.arange(opt["grid_points"]) * opt["grid_dt_fs"],
        t_fs=np.arange(opt["grid_points"]) * opt["grid_dt_fs"],
        tw_fs=np.asarray(opt["waiting_times_fs"], dtype=float),
        gamma_prime=opt["gamma_prime"],
    )
    labels0 = [(("g",) * len(cfg.sf_dimers), 0)]
    labels1, h1 = manifold_hamiltonian(cfg.sf_dimers, cfg.sf_cavity,
                                       cfg.sf_coupling, 1)
    labels2, h2 = manifold_hamiltonian(cfg.sf_dimers, cfg.sf_cavity,
                                       cfg.sf_coupling, 2)
    dipoles = DipoleSet(mu=dipole_up(cfg.sf_dimers, labels0, labels1)[:, 0],
                        mu_up=dipole_up(cfg.sf_dimers, labels1, labels2))
    settings = _settings(cfg)
    bank_dir = os.path.join(out_dir, "bank")
    esa_ckpt = os.path.join(out_dir, "esa_checkpoint.npz")
    if not resume:
        for stale in (esa_ckpt,):
            if os.path.exists(stale):
                os.remove(stale)
    os.makedirs(bank_dir, exist_ok=True)
    bank = first_leg_bank(h1, dipoles, grid,
                          multiplicity=cfg.run.multiplicity,
                          noise_seed=cfg.run.seed, settings=settings,
                          checkpoint_dir=bank_dir if resume else None)
    responses = response_se_gsb(bank, grid, dipoles)
    responses.update(response_esa(bank, h2, grid, dipoles, settings=settings,
                                  checkpoint=esa_ckpt,
                                  max_second_legs=opt["max_second_legs"]))
    omega_tau = np.linspace(opt["omega_min"], opt["omega_max"],
                            opt["omega_points"])
    omega_t = omega_tau
    maps = spectra(responses, grid, omega_tau, omega_t)
    for spec in maps:
        w_tau, w_t = np.meshgrid(spec.omega_tau, spec.omega_t, indexing="ij")
        total = spec.total
        name = f"spectrum2d_Tw{_width_tag(spec.tw_fs)}.csv"
        _write_csv(os.path.join(out_dir, name),
                   ["omega_tau_eV", "omega_t_eV", "re_se", "im_se", "re_gsb",
                    "im_gsb", "re_esa", "im_esa", "re_total", "im_total"],
                   [w_tau.ravel(), w_t.ravel(),
                    spec.se.real.ravel(), spec.se.imag.ravel(),
                    spec.gsb.real.ravel(), spec.gsb.imag.ravel(),
                    spec.esa.real.ravel(), spec.esa.imag.ravel(),
                    total.real.ravel(), total.imag.ravel()])
        files.append(name)


# canonical solver-vs-oracle comparisons; the corrupted-metric pair runs the
# variational solver with a deliberately broken metric inversion cutoff and
# must therefore report a failure.
_ORACLE_TOL = {"tc": 1e-5, "htc-dense": 1e-3, "corrupted-metric": 1e-5}


def _oracle_pair(pair: str):
    from .dense_ref import DensePropagator, FockSpace

    times = np.arange(0.0, 200.0 + 1e-9, 1.0)
    # integration error must sit well below the comparison tolerance, so the
    # pairs run tighter than the production defaults
    tight = dict(rel_tol=1e-10, abs_tol=1e-12)
    if pair in ("tc", "corrupted-metric"):
        model = TCModel(8, 1.0, 1.0, 0.1)
        ref = solve_realization(model).photon_population(times)
        settings = (PropagationSettings(svd_cutoff=1e-2, **tight)
                    if pair == "corrupted-metric"
                    else PropagationSettings(**tight))
        h = htc_system_bath(HTCModel(model, 0.0, 0.124, 0.0))
        # single configuration measured against an exact pole sum: no
        # symmetry-breaking noise on the initial state
        state = init_state(h.n_sys, h.n_modes, 0, 1, noise_scale=0.0)
        traj = propagate(h, state, times[-1], settings, t_eval=times)
        got = traj.system_populations()[:, 0]
        detail = "photon survival, lossless resonant exchange vs pole sum"
    elif pair == "htc-dense":
        h = htc_system_bath(HTCModel(TCModel(2, 1.0, 1.0, 0.1), 0.1, 0.124, 0.5))
        fock = FockSpace(h.n_sys, (10, 10))
        psi0 = fock.multiconfig_vector(np.eye(1, h.n_sys, dtype=complex),
                                       np.zeros((1, h.n_modes)))
        dense = DensePropagator(fock.hamiltonian(h)).trajectory(psi0, times)
        ref = fock.system_populations(dense)[:, 0]
        state = init_state(h.n_sys, h.n_modes, 0, 12, noise_seed=0)
        traj = propagate(h, state, times[-1],
                         PropagationSettings(rel_tol=1e-8, abs_tol=1e-10),
                         t_eval=times)
        got = traj.system_populations()[:, 0]
        detail = "photon population, two emitters + two modes vs number basis"
    else:
        raise ValueError(f"unknown oracle pair {pair!r}")
    return float(np.max(np.abs(got - ref))), detail


def _run_oracle_compare(cfg: RunConfig, out_dir: str, files: list):
    pair = cfg.options["pair"]
    deviation, detail = _oracle_pair(pair)
    tol = _ORACLE_TOL[pair]
    report = {
        "pair": pair,
        "tolerance": tol,
        "deviation": deviation,
        "passed": bool(deviation <= tol),
        "detail": detail,
    }
    path = os.path.join(out_dir, "oracle_compare.json")
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    files.append("oracle_compare.json")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run(cfg: RunConfig, out_dir: str | None = None, workers: int = 1,
        resume: bool = False) -> dict:
    """Execute the configured experiment; returns the manifest dict."""
    from .config import resolved_text

    out_dir = out_dir or cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.time()
    files: list = []
    try:
        if cfg.experiment == "dynamics":
            _run_dynamics(cfg, out_dir, workers, files)
        elif cfg.experiment == "absorption":
            _run_absorption(cfg, out_dir, workers, files)
        elif cfg.experiment == "pes-scan":
            _run_pes_scan(cfg, out_dir, files)
        elif cfg.experiment == "spectra2d":
            _run_spectra2d(cfg, out_dir, resume, files)
        elif cfg.experiment == "oracle-compare":
            _run_oracle_compare(cfg, out_dir, files)
        else:  # pragma: no cover - config validation rejects this earlier
            raise ValueError(f"unknown experiment {cfg.experiment!r}")
    except BaseException:
        for name in files:
            path = os.path.join(out_dir, name)
            if os.path.exists(path):
                os.remove(path)
        raise
    manifest = {
        "experiment": cfg.experiment,
        "model": cfg.model_kind,
        "code_version": __version__,
        "seed": cfg.run.seed,
        "config": resolved_text(cfg),
        "wall_clock_s": round(time.time() - t0, 3),
        "outputs": {name: _sha256(os.path.join(out_dir, name))
                    for name in files},
    }
    path = os.path.join(out_dir, "run_manifest.json")
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return manifest
