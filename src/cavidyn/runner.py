"""Experiment driver: turns a resolved config into deterministic output files.

Each experiment is a generator of (file name, text) outputs; `run` alone
writes them, each atomically (`_write_atomic`) as it is yielded, and then a
JSON manifest (resolved config, code version, wall-clock time, SHA-256
checksum per output).  Data files are fixed-precision CSV that depend only
on the config, so rerunning it reproduces them byte for byte; a run reads
nothing back from its output directory or an earlier run.  A run that
fails or gets SIGTERM before its manifest is written leaves no output and no
`.tmp` file; on SIGTERM, at any worker count, `run` ends and reaps the
workers, removes the outputs and then dies by that signal (status -15).

Every dynamics and absorption run goes through one ensemble loop,
`_ensemble`; a model without disorder (every sf one) has one realization.
The loop sums each column in task (width, realization) order, so the mean
is bitwise that of `sum(column)` and no realization's columns outlive their
addition, and writes each width's mean to one CSV, suffixed `_W<width>`
(`config.file_tag`) when the config lists several widths.  A tc realization
is one exact pole sum (`tc_exact`), an htc or sf one a variational
propagation whose start noise realization r seeds with `run.seed + 7919*r`.
Each htc realization takes its Hamiltonian from `_htc_hamiltonian`
(thermofield above 0 K) and its sample times from `_times`.

The htc and sf dynamics work units take a propagation function (default:
`varprop.propagate`, looked up per call).  `oracle-compare` runs the config's
dynamics ensemble with it and twice with the exact `dense_ref.FockSpace.
propagate`, on the same Hamiltonians, start states and times.  It writes the
exact twin at `fock_cutoff` as `exact_<file>` for each file the dynamics run
would write (`exact_population.csv`, `exact_population_W0.05.csv`, ...), in
the same columns, and then `oracle_compare.json`, the largest |variational -
exact| and |exact(c) - exact(c+1)| per file and column; the twin at c + 1
only checks the cutoff's convergence.  This is the one exact path for htc
and sf dynamics: an sf config with `coupling_omega = 0` gives the cavity-free
dimer, with `n_photons` a pumped cavity.

With W > 1 workers the ensemble forks W children (`_forked_results`): child
k computes tasks k, k+W, k+2W, ... and writes each result's columns to its
own pipe as raw float64 bytes, and the parent reads task i from child
i mod W and only sums, so the CSVs are bitwise those of one worker.  The
parent computes no realization and never loads `numpy.random` (the disorder
draws do, in the children), so its imports, not a share of the work, set
the run's peak memory.

Importing this module loads numpy and no other cavidyn layer: each
experiment imports its modules inside the function that runs it, so a tc
ensemble loads `models` and `tc_exact` but not `sf`, `varprop`, `spectro`
or `thermofield`, `spectra2d` loads no `tc_exact` or `thermofield`, and no
run loads `concurrent.futures` or `multiprocessing`.  An ensemble imports
its work unit's modules (`_ENSEMBLES`) before it forks, so the children
inherit them.
The config's model objects are built on first access (`cavidyn.config`).
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import math
import os
import signal
import sys
import time
from contextlib import closing
from dataclasses import replace

import numpy as np

from . import __version__
from .config import RunConfig, file_tag, resolved_text


#: CSV rows converted to Python floats at a time: one format per row is
#: faster than one per value, and blocks keep the converted lists small
_CSV_BLOCK_ROWS = 64


def _csv_text(header, columns):
    """Fixed-precision CSV text (%.17g floats), in chunks of rows; every
    column is a 1-d array."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    row = ",".join(["%.17g"] * len(cols)) + "\n"
    yield ",".join(header) + "\n"
    for i in range(0, len(cols[0]), _CSV_BLOCK_ROWS):
        block = [c[i:i + _CSV_BLOCK_ROWS].tolist() for c in cols]
        yield "".join(row % values for values in zip(*block))


def _json_text(obj):
    """Indented, key-sorted JSON text of `obj`."""
    yield json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_atomic(path: str, chunks) -> str:
    """Writes the text `chunks` to `path` through `path.tmp`, renamed over
    it once complete, so `path` is whole or untouched and no `.tmp` file
    outlives an exception; returns the SHA-256 of the bytes written."""
    digest = hashlib.sha256()
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                data = chunk.encode("utf-8")
                digest.update(data)
                fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    return digest.hexdigest()


def _settings(cfg: RunConfig):
    from .varprop import PropagationSettings

    return PropagationSettings(rel_tol=cfg.run.rel_tol, abs_tol=cfg.run.abs_tol)


def _times(cfg: RunConfig) -> np.ndarray:
    n = int(round(cfg.run.t_max_fs / cfg.run.sample_dt_fs))
    return np.arange(n + 1) * cfg.run.sample_dt_fs


def _omegas(cfg: RunConfig) -> np.ndarray:
    opt = cfg.options
    return np.linspace(opt["omega_min"], opt["omega_max"], opt["omega_points"])


# ---------------------------------------------------------------------------
# per-realization work units
# ---------------------------------------------------------------------------


def _tc_realization(args):
    from .models import disordered_tc
    from .tc_exact import solve_realization

    cfg, width, r, times = args
    m_r = disordered_tc(cfg.tc, width, cfg.disorder.seed, r)
    amps = solve_realization(m_r).amplitudes(cfg.run.sample_dt_fs, len(times))
    pops = np.abs(amps) ** 2
    p_ph, p_qu = pops[:, 0].copy(), pops[:, 1:].sum(axis=1)
    # the loss terms -i*kappa, -i*gamma are anti-Hermitian, so the real part
    # of <psi|H|psi> is the expectation of the Hermitian arrowhead
    energy = (m_r.omega_c * p_ph + pops[:, 1:] @ m_r.qubit_freqs
              + 2.0 * m_r.coupling
              * np.real(amps[:, 0].conj() * amps[:, 1:].sum(axis=1)))
    return p_ph, p_qu, p_ph + p_qu, energy


def _tc_absorption_realization(args):
    from .models import disordered_tc
    from .tc_exact import solve_realization

    cfg, width, r, omega = args
    m_r = disordered_tc(cfg.tc, width, cfg.disorder.seed, r)
    return (solve_realization(m_r).absorption(omega),)


def _htc_hamiltonian(cfg: RunConfig, width: float, r: int):
    """Realization r's htc Hamiltonian at `width`: the doubled thermofield
    one above 0 K, the bare one at 0 K."""
    from .models import disordered_tc, htc_system_bath
    from .thermofield import thermal_htc

    htc = cfg.htc
    model = replace(htc, tc=disordered_tc(htc.tc, width, cfg.disorder.seed, r))
    if cfg.temperature_k > 0:
        return thermal_htc(model, cfg.temperature_k)
    return htc_system_bath(model)


def _htc_realization(args, propagate=None):
    from . import varprop

    cfg, width, r, times = args
    h = _htc_hamiltonian(cfg, width, r)
    state = varprop.init_state(h.n_sys, h.n_modes, 0, cfg.run.multiplicity,
                               noise_seed=cfg.run.seed + 7919 * r)
    traj = (propagate or varprop.propagate)(h, state, times, _settings(cfg))
    pops = traj.system_populations()
    return (pops[:, 0].copy(), pops[:, 1:].sum(axis=1), traj.norm(),
            traj.energies().real.copy())


def _htc_absorption_realization(args):
    """Autocorrelation lineshape of the photon-excited state."""
    from .spectro import linear_absorption

    cfg, width, r, omega = args
    h = _htc_hamiltonian(cfg, width, r)
    return (linear_absorption(
        h, np.eye(1, h.n_sys)[0], omega, _times(cfg),
        gamma_prime=cfg.options["gamma_prime"],
        multiplicity=cfg.run.multiplicity,
        noise_seed=cfg.run.seed + 7919 * r, settings=_settings(cfg)),)


def _sf_realization(args, propagate=None):
    """Bright-singlet start; a coupled cavity is coherent, `n_photons` mean."""
    from . import varprop
    from .sf import (coherent_init, sf_matter_only, sf_observables,
                     sf_system_bath)

    cfg, _, r, times = args
    if cfg.sf_coupling.omega == 0.0:
        labels, h = sf_matter_only(cfg.sf_dimers)
        mu1 = 0.0
    else:
        labels, h = sf_system_bath(cfg.sf_dimers, cfg.sf_cavity,
                                   cfg.sf_coupling)
        mu1 = math.sqrt(cfg.sections["model"]["n_photons"])
    state = coherent_init(mu1, labels, h.n_modes, cfg.run.multiplicity,
                          noise_seed=cfg.run.seed + 7919 * r)
    obs = sf_observables((propagate or varprop.propagate)(
        h, state, times, _settings(cfg)), labels)
    return obs["p_tt"], obs["p_s1"], obs["norm"], obs["energy_ev"].copy()


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


_POPULATION_HEADER = ["time_fs", "p_photon", "p_qubits_total", "norm",
                      "energy_eV"]

_TC_MODULES = ("models", "tc_exact")
_HTC_MODULES = ("models", "thermofield", "varprop")

#: (experiment, model) -> (work unit, the cavidyn modules it imports, sample
#: axis, output stem, CSV header); a work unit maps (cfg, width, realization,
#: axis) to a tuple of float64 columns of the axis's length, one per header
#: entry after the first
_ENSEMBLES = {
    ("dynamics", "tc"): (_tc_realization, _TC_MODULES, _times, "population",
                         _POPULATION_HEADER),
    ("dynamics", "htc"): (_htc_realization, _HTC_MODULES, _times,
                          "population", _POPULATION_HEADER),
    ("dynamics", "sf"): (_sf_realization, ("sf", "varprop"), _times,
                         "population",
                         ["time_fs", "p_tt", "p_s1", "norm", "energy_eV"]),
    ("absorption", "tc"): (_tc_absorption_realization, _TC_MODULES, _omegas,
                           "absorption", ["omega_eV", "intensity"]),
    ("absorption", "htc"): (_htc_absorption_realization,
                            (*_HTC_MODULES, "spectro"), _omegas, "absorption",
                            ["omega_eV", "intensity"]),
}


def _child(work, tasks, out_fd: int, inherited: list, shape):
    """Body of a forked ensemble worker: writes the columns of each of
    `tasks` to `out_fd` as one C-ordered float64 `shape` block, then ends
    the process (exit 1, after a traceback on stderr, if anything raised)."""
    code = 1
    try:
        for pipe in inherited:
            pipe.close()
        with open(out_fd, "wb") as out:
            for task in tasks:
                block = np.array(work(task), dtype=float)
                if block.shape != shape:
                    raise ValueError(f"work unit returned columns of shape "
                                     f"{block.shape}, expected {shape}")
                out.write(block)
                out.flush()
        code = 0
    except (KeyboardInterrupt, BrokenPipeError):
        pass  # the parent reports the interrupt, or is gone
    except BaseException:
        import traceback

        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)


def _forked_results(work, tasks, workers: int, shape):
    """Yields every task's columns, as the rows of a `shape` array, in task
    order; `workers` forked children compute them, child k tasks k, k+W, ...

    The parent only reads: it takes task i from child i mod W and reaps each
    child after its last task.  A child that ends early (or not with exit 0)
    raises RuntimeError; on any exception, or when the generator is closed
    early, every child still running gets SIGTERM, and every child is reaped.
    Each child forks with SIGTERM blocked until it has restored the default
    action, so it dies by the signal rather than run the parent's handler.
    """
    nbytes = 8 * shape[0] * shape[1]
    pids: dict = {}  # worker index -> pid of each child not yet reaped
    pipes: list = []
    try:
        for k in range(workers):
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
            try:
                pid = os.fork()
                if pid == 0:
                    signal.signal(signal.SIGTERM, signal.SIG_DFL)
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                    _child(work, tasks[k::workers], write_fd, pipes, shape)
                pids[k] = pid
            finally:
                # a child that dies then reads as EOF
                os.close(write_fd)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for i in range(len(tasks)):
            k = i % workers
            data = pipes[k].read(nbytes)
            if len(data) < nbytes or i + workers >= len(tasks):
                _, status = os.waitpid(pids[k], 0)
                del pids[k]
                code = os.waitstatus_to_exitcode(status)
                if code or len(data) < nbytes:
                    raise RuntimeError(
                        f"ensemble worker {k} exited with status {code} "
                        f"at task {i} of {len(tasks)}")
            yield np.frombuffer(data).reshape(shape)
    except BaseException:
        for pid in pids.values():
            os.kill(pid, signal.SIGTERM)
        raise
    finally:
        # closed first: a child the kill above missed then ends on EPIPE
        for pipe in pipes:
            pipe.close()
        for pid in pids.values():
            os.waitpid(pid, 0)


def _ensemble(cfg: RunConfig, workers: int, experiment=None, propagate=None):
    """Yields (file name, header, [axis, *mean columns]) per width of the
    `experiment` (default: the config's) ensemble; a given `propagate` goes
    to each call of its (htc or sf dynamics) work unit."""
    work, modules, axis_of, stem, header = _ENSEMBLES[
        experiment or cfg.experiment, cfg.model_kind]
    # imported here, before the fork: the children inherit the modules
    # instead of compiling them again
    for name in modules:
        importlib.import_module(f".{name}", __package__)
    if propagate is not None:
        work = functools.partial(work, propagate=propagate)
    axis = axis_of(cfg)
    widths = cfg.disorder.width
    n_real = cfg.disorder.n_realizations
    tasks = [(cfg, width, r, axis) for width in widths for r in range(n_real)]
    workers = min(workers, len(tasks))
    if workers > 1:
        rows = _forked_results(work, tasks, workers,
                               (len(header) - 1, len(axis)))
    else:
        rows = (work(task) for task in tasks)
    try:
        for width in widths:
            # running sum in realization order: bitwise equal to sum(column)
            total = [0] * (len(header) - 1)
            for _, columns in zip(range(n_real), rows):
                total = [acc + c for acc, c in zip(total, columns)]
            name = (f"{stem}.csv" if len(widths) == 1
                    else f"{stem}_W{file_tag(width)}.csv")
            yield name, header, [axis, *(acc / n_real for acc in total)]
    finally:
        rows.close()


def _ensemble_csv(cfg: RunConfig, workers: int):
    with closing(_ensemble(cfg, workers)) as means:
        for name, header, columns in means:
            yield name, _csv_text(header, columns)


def _pes_scan(cfg: RunConfig):
    from .sf import PES_COLUMNS, pes_scan

    opt = cfg.options
    q_grid = np.linspace(opt["q_min"], opt["q_max"], opt["q_points"])
    table = pes_scan(cfg.sf_dimers, cfg.sf_cavity, cfg.sf_coupling, q_grid,
                     n_max=opt["fock_cutoff"],
                     manifold_max=opt["manifold_max"])
    yield "pes.csv", _csv_text(PES_COLUMNS, table.T)


def _spectra2d(cfg: RunConfig):
    from .sf import dipole_up, manifold_hamiltonian, manifold_labels
    from .spectro import (ResponseGrid, first_leg_bank, response_esa,
                          response_se_gsb, spectra)

    opt = cfg.options
    grid = ResponseGrid(opt["grid_points"], opt["grid_dt_fs"],
                        opt["waiting_times_fs"], opt["gamma_prime"])
    labels0 = manifold_labels(len(cfg.sf_dimers), 0)
    labels1, h1 = manifold_hamiltonian(cfg.sf_dimers, cfg.sf_cavity,
                                       cfg.sf_coupling, 1)
    labels2, h2 = manifold_hamiltonian(cfg.sf_dimers, cfg.sf_cavity,
                                       cfg.sf_coupling, 2)
    mu = dipole_up(cfg.sf_dimers, labels0, labels1)[:, 0]
    mu_up = dipole_up(cfg.sf_dimers, labels1, labels2)
    settings = _settings(cfg)
    bank = first_leg_bank(h1, mu, grid, multiplicity=cfg.run.multiplicity,
                          noise_seed=cfg.run.seed, settings=settings)
    responses = response_se_gsb(bank, grid, mu)
    responses.update(response_esa(bank, h2, grid, mu, mu_up,
                                  settings=settings))
    omega = _omegas(cfg)
    maps = spectra(responses, grid, omega, omega)
    w_tau, w_t = np.meshgrid(omega, omega, indexing="ij")
    for w, tw in enumerate(grid.tw_fs):
        se, gsb, esa = maps["se"][w], maps["gsb"][w], maps["esa"][w]
        total = se + gsb + esa
        yield f"spectrum2d_Tw{file_tag(tw)}.csv", _csv_text(
            ["omega_tau_eV", "omega_t_eV", "re_se", "im_se", "re_gsb",
             "im_gsb", "re_esa", "im_esa", "re_total", "im_total"],
            [w_tau.ravel(), w_t.ravel(), se.real.ravel(), se.imag.ravel(),
             gsb.real.ravel(), gsb.imag.ravel(), esa.real.ravel(),
             esa.imag.ravel(), total.real.ravel(), total.imag.ravel()])


def _oracle_compare(cfg: RunConfig):
    """The config's dynamics run, variational and through its exact Fock
    twin at `fock_cutoff` and at one more quantum per active mode; writes
    the twin at `fock_cutoff` as `exact_<file>`, then the deviations."""
    from .dense_ref import FockSpace

    cutoffs = {}  # the twins' cutoffs, in first-use order

    def twin(cutoff):
        def fock_propagate(h, state, times, settings):
            # a mode that nothing couples or displaces stays in its vacuum
            active = (h.coup_create.any(axis=(0, 1))
                      | state.displacements.any(axis=0))
            fock = FockSpace(h.n_sys, tuple((cutoff * active).tolist()))
            cutoffs[fock.cutoffs] = None
            return fock.propagate(h, state, times)
        return fock_propagate

    cutoff = cfg.options["fock_cutoff"]
    # in this process, so that the twins record their cutoffs here
    variational, exact, finer = (
        list(_ensemble(cfg, 1, "dynamics", propagate=propagate))
        for propagate in (None, twin(cutoff), twin(cutoff + 1)))
    deviations = {
        name: {column: {"variational": float(np.max(np.abs(v - e))),
                        "cutoff": float(np.max(np.abs(e - f)))}
               for column, v, e, f in zip(header[1:], vs[1:], es[1:], fs[1:])}
        for (name, header, vs), (_, _, es), (_, _, fs)
        in zip(variational, exact, finer)}
    for name, header, columns in exact:
        yield f"exact_{name}", _csv_text(header, columns)
    yield "oracle_compare.json", _json_text({
        "cutoffs": [list(c) for c in cutoffs], "deviations": deviations})


#: each other experiment's generator of (file name, text) outputs from cfg
_EXPERIMENTS = {
    "pes-scan": _pes_scan,
    "spectra2d": _spectra2d,
    "oracle-compare": _oracle_compare,
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


class _Terminated(BaseException):
    """SIGTERM during `run`, raised to unwind it."""


def _raise_terminated(signum, frame):
    raise _Terminated(signum)


def run(cfg: RunConfig, out_dir: str, workers: int = 1) -> dict:
    """Execute the configured experiment into the directory `out_dir`
    (made if missing); returns the manifest dict.

    The manifest names no directory, so two runs of one config write equal
    manifests but for `wall_clock_s`.  Call it from the main thread: until
    it returns, SIGTERM removes the outputs and then ends the process by
    that signal."""
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.time()
    if (cfg.experiment, cfg.model_kind) in _ENSEMBLES:
        outputs = _ensemble_csv(cfg, workers)
    else:
        outputs = _EXPERIMENTS[cfg.experiment](cfg)
    written = []  # each path before its write starts, for the cleanup
    digests = {}
    previous = signal.signal(signal.SIGTERM, _raise_terminated)
    try:
        # closed on any exception, which ends and reaps the workers
        with closing(outputs):
            for name, text in outputs:
                written.append(os.path.join(out_dir, name))
                digests[name] = _write_atomic(written[-1], text)
        manifest = {
            "experiment": cfg.experiment,
            "model": cfg.model_kind,
            "code_version": __version__,
            "config": resolved_text(cfg),
            "wall_clock_s": round(time.time() - t0, 3),
            "outputs": digests,
        }
        written.append(os.path.join(out_dir, "run_manifest.json"))
        _write_atomic(written[-1], _json_text(manifest))
    except BaseException as exc:
        for path in written:
            if os.path.exists(path):
                os.remove(path)
        if isinstance(exc, _Terminated):
            # outputs removed: hand the signal on
            signal.signal(signal.SIGTERM, previous)
            os.kill(os.getpid(), signal.SIGTERM)
        raise
    finally:
        signal.signal(signal.SIGTERM, previous)
    return manifest
