"""Command line, config validation and the experiment runner, end to end."""

import hashlib
import json
import os
import pickle
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

import cavidyn
from cavidyn import cli
from cavidyn.config import resolved_text, validate
from cavidyn.constants import HBAR_EV_FS, KB_EV_PER_K
from cavidyn.models import HTCModel, TCModel, disordered_tc, htc_system_bath
from cavidyn.sf import (PES_COLUMNS, CavitySpec, SFCavityCoupling,
                        SFDimerSpec, coherent_init, dipole_up,
                        manifold_hamiltonian, manifold_labels, pes_scan,
                        sf_observables, sf_system_bath)
from cavidyn.spectro import linear_absorption
from cavidyn.thermofield import thermal_htc
from cavidyn.varprop import PropagationSettings, init_state, propagate

TINY_TC = """[experiment]
kind = dynamics

[model]
kind = tc
n_qubits = 3
omega_c = 1.0
omega_qubit = 1.0
omega_r = 0.1
kappa = 0.005

[run]
t_max_fs = 20
sample_dt_fs = 2.0

[disorder]
width = 0.05 0.1
n_realizations = 3
seed = 7
"""


SF_FREE_TWO_DIMERS = """[experiment]
kind = dynamics

[model]
kind = sf
n_dimers = 2
coupling_omega = 0

[run]
t_max_fs = 2
sample_dt_fs = 1.0
"""

TINY_SPECTRA = """[experiment]
kind = spectra2d
grid_points = 4
grid_dt_fs = 0.5
waiting_times_fs = 0
omega_min = 1.9
omega_max = 2.6
omega_points = 5

[model]
kind = sf
n_dimers = 1
"""


TINY_PES = """[experiment]
kind = pes-scan
q_points = 5

[model]
kind = sf
"""


TINY_PUMPED_SF = """[experiment]
kind = dynamics

[model]
kind = sf
coupling_omega = 0.05
n_photons = 4

[run]
t_max_fs = 3
sample_dt_fs = 1.0
seed = 3
"""


#: two emitters and two phonon modes, twelve configurations against the
#: number basis at cutoffs 10 and 11
ORACLE_HTC_DENSE = """[experiment]
kind = oracle-compare
fock_cutoff = 10

[model]
kind = htc
n_qubits = 2
lam = 0.1
phonon_bandwidth = 0.5

[run]
t_max_fs = 200
multiplicity = 12
seed = 0
rel_tol = 1e-8
abs_tol = 1e-10
"""


#: at lam = 0 an htc run is the tc model: one configuration is exact, and
#: the eight phonon modes stay in their vacuum (Fock cutoff 0)
ORACLE_TC = """[experiment]
kind = oracle-compare

[model]
kind = htc
n_qubits = 8
lam = 0

[run]
t_max_fs = 200
rel_tol = 1e-10
abs_tol = 1e-12
"""


TINY_HTC = """[experiment]
kind = dynamics

[model]
kind = htc
n_qubits = 2
omega_r = 0.1
kappa = 0.002
lam = 0.3
phonon_bandwidth = 0.3

[run]
t_max_fs = 10
sample_dt_fs = 1.0
multiplicity = 2
seed = 4

[disorder]
width = 0.05
n_realizations = 2
seed = 5
"""

TINY_TC_ABSORPTION = TINY_TC.replace("kind = dynamics",
                                     "kind = absorption\nomega_points = 41")


TINY_HTC_ABSORPTION = (
    TINY_HTC.replace("kind = dynamics", "kind = absorption\n"
                     "gamma_prime = 0.1\nomega_points = 41")
    .replace("t_max_fs = 10", "t_max_fs = 40")
    .replace("width = 0.05\nn_realizations = 2\n", ""))


DISORDERED_HTC_ABSORPTION = TINY_HTC_ABSORPTION.replace(
    "seed = 5", "width = 0.05 0.1\nn_realizations = 3\nseed = 5")


#: one config per ensemble (experiment, model) pair of the runner
ENSEMBLE_CONFIGS = {
    ("dynamics", "tc"): TINY_TC,
    ("dynamics", "htc"): TINY_HTC,
    ("dynamics", "sf"): TINY_PUMPED_SF,
    ("absorption", "tc"): TINY_TC_ABSORPTION,
    ("absorption", "htc"): DISORDERED_HTC_ABSORPTION,
}

#: the run tolerances every config above resolves to
RUN_SETTINGS = PropagationSettings(rel_tol=1e-6, abs_tol=1e-8)


def _write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


def _run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_run_writes_outputs_with_matching_checksums(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, _ = _run(capsys, "run", "--config", _write(tmp_path, TINY_TC),
                        "--out", str(out_dir))
    assert code == cli.EXIT_OK
    manifest = json.loads((out_dir / "run_manifest.json").read_text())
    assert sorted(manifest["outputs"]) == ["population_W0.05.csv",
                                           "population_W0.1.csv"]
    for name, digest in manifest["outputs"].items():
        assert hashlib.sha256((out_dir / name).read_bytes()).hexdigest() == digest
        assert name in out
    assert "[model]" in manifest["config"]
    assert "seed" not in manifest  # the config echo holds the seeds in scope


def test_interrupted_manifest_write_leaves_no_file(tmp_path, monkeypatch):
    """A run whose manifest write fails removes its finished CSVs and the
    manifest's half-written `.tmp` file."""
    from cavidyn import runner

    def failing_json(obj):
        yield "{"
        raise OSError("manifest write failed on purpose")

    monkeypatch.setattr(runner, "_json_text", failing_json)
    out_dir = tmp_path / "out"
    with pytest.raises(OSError, match="on purpose"):
        runner.run(validate(TINY_TC), out_dir=str(out_dir))
    assert not list(out_dir.iterdir())


def test_every_experiment_kind_has_one_runner():
    """`run` takes every (experiment, model) pair in `_ENSEMBLES` through
    the ensemble loop and every other through `_EXPERIMENTS`: the runner's
    pairs are `config.RUNS`, each validates from a minimal config, every
    other pair is refused, and every key's scope is a set of those runs."""
    from cavidyn import config, runner

    assert {e for e, _ in config.RUNS} == set(config.EXPERIMENT_KINDS)
    assert {m for _, m in config.RUNS} == set(config.MODEL_KINDS)
    assert set(runner._ENSEMBLES) | {
        run for run in config.RUNS
        if run[0] in runner._EXPERIMENTS} == config.RUNS
    assert set(runner._EXPERIMENTS) <= {e for e, _ in config.RUNS}
    for run in config.RUNS:
        assert (run in runner._ENSEMBLES) != (
            run[0] in runner._EXPERIMENTS), run
    # the keys every model kind and spectra2d need to pass validation
    needs = {"tc": "kappa = 0.01\n", "htc": "n_qubits = 2\n", "sf": "",
             "spectra2d": "omega_min = 1.9\nomega_max = 2.6\n"}
    for experiment in config.EXPERIMENT_KINDS:
        for model in config.MODEL_KINDS:
            text = (f"[experiment]\nkind = {experiment}\n"
                    f"{needs.get(experiment, '')}\n"
                    f"[model]\nkind = {model}\n{needs[model]}")
            if (experiment, model) in config.RUNS:
                validate(text)
            else:
                with pytest.raises(config.ConfigConstraintError,
                                   match=f"{experiment} requires the"):
                    validate(text)
    for name, schema in config._SCHEMA.items():
        for key, (_, _, scope, _) in schema.items():
            assert scope <= config.RUNS, f"{name}.{key}"


def _manifest_but_clock(out_dir):
    manifest = json.loads((out_dir / "run_manifest.json").read_text())
    del manifest["wall_clock_s"]
    return manifest


def test_manifest_does_not_depend_on_the_output_directory(tmp_path, capsys):
    """`run --out DIR` and `runner.run(cfg, DIR)` into two directories write
    manifests equal but for the wall-clock time: a run is its config."""
    from cavidyn.runner import run

    cli_dir = tmp_path / "from_cli"
    code, _, _ = _run(capsys, "run", "--config", _write(tmp_path, TINY_TC),
                      "--out", str(cli_dir))
    assert code == cli.EXIT_OK
    lib_dir = tmp_path / "from_library"
    run(validate(TINY_TC), str(lib_dir))
    assert _manifest_but_clock(cli_dir) == _manifest_but_clock(lib_dir)


#: [model] keys of the fission dimer's upper manifold (S_n, TT_n) and its
#: transition dipoles, which only 2D spectra read
UPPER_MANIFOLD = "eps_sn = 4.5\neps_ttn = 4.9\neta_s = 0.5\neta_t = 2.0\n"


PUMPED_M2 = TINY_PUMPED_SF.replace("seed = 3", "seed = 3\nmultiplicity = 2")


@pytest.mark.parametrize("text,changed", [
    # the cuts at Q_c = 0 read neither the coupling mode, the pump nor [run]
    (TINY_PES, TINY_PES.replace("kind = sf\n", "kind = sf\n" + UPPER_MANIFOLD
                                + "lam_ci = 0.2\nomega_coupling = 0.03\n"
                                "n_photons = 2\n")
     + "\n[run]\nt_max_fs = 50\nmultiplicity = 2\n"),
    (PUMPED_M2,
     PUMPED_M2.replace("kind = sf\n", "kind = sf\n" + UPPER_MANIFOLD)),
    # the pole sum has no time axis and no extra broadening
    (TINY_TC_ABSORPTION, TINY_TC_ABSORPTION
     .replace("omega_points = 41", "omega_points = 41\ngamma_prime = 0.5")
     .replace("t_max_fs = 20", "t_max_fs = 40")
     .replace("sample_dt_fs = 2.0", "sample_dt_fs = 1.0")),
], ids=["pes-scan", "sf-dynamics", "tc-absorption"])
def test_keys_that_do_not_steer_leave_the_manifest_unchanged(
        tmp_path, capsys, text, changed):
    """Two configs that differ only in keys their experiment never reads
    write equal outputs, so they write equal manifests too."""
    assert changed != text
    dirs = []
    for i, config in enumerate((text, changed)):
        dirs.append(tmp_path / f"out{i}")
        code, _, err = _run(capsys, "run", "--config",
                            _write(tmp_path, config), "--out", str(dirs[-1]))
        assert code == cli.EXIT_OK, err
    assert _manifest_but_clock(dirs[0]) == _manifest_but_clock(dirs[1])


@pytest.mark.parametrize("text,key,steers", [
    # keys a run never reads are tolerated whatever their value
    (TINY_TC_ABSORPTION.replace("omega_points = 41",
                                "omega_points = 41\ngamma_prime = 0"),
     "experiment.gamma_prime", False),
    (TINY_PES + "\n[run]\nt_max_fs = -1\n", "run.t_max_fs", False),
    (TINY_PES + "\n[run]\nrel_tol = -1\n", "run.rel_tol", False),
    (TINY_PES.replace("kind = sf\n", "kind = sf\nn_photons = 30\n"),
     "model.n_photons", False),
    (TINY_PES.replace("q_points = 5", "q_points = 5\ngamma_prime = 0"),
     "experiment.gamma_prime", False),
    (TINY_SPECTRA + "\n[run]\nt_max_fs = -1\n", "run.t_max_fs", False),
    (TINY_TC.replace("sample_dt_fs = 2.0", "sample_dt_fs = 2.0\n"
                     "multiplicity = 0"), "run.multiplicity", False),
    (TINY_TC.replace("sample_dt_fs = 2.0", "sample_dt_fs = 2.0\n"
                     "rel_tol = -1"), "run.rel_tol", False),
    (TINY_TC.replace("kind = dynamics", "kind = dynamics\ngrid_dt_fs = 0"),
     "experiment.grid_dt_fs", False),
    # their twins in runs that read them are refused
    (TINY_PUMPED_SF.replace("n_photons = 4", "n_photons = 30"),
     "model.n_photons", True),
    (TINY_TC.replace("t_max_fs = 20", "t_max_fs = -5"), "run.t_max_fs", True),
    (TINY_HTC.replace("multiplicity = 2", "multiplicity = 0"),
     "run.multiplicity", True),
    (TINY_HTC_ABSORPTION.replace("gamma_prime = 0.1", "gamma_prime = 0"),
     "experiment.gamma_prime", True),
], ids=["tc-absorption-gamma_prime", "pes-scan-t_max_fs", "pes-scan-rel_tol",
        "pes-scan-n_photons", "pes-scan-gamma_prime", "spectra2d-t_max_fs",
        "tc-multiplicity", "tc-rel_tol", "tc-grid_dt_fs",
        "pumped-sf-n_photons", "tc-t_max_fs", "htc-multiplicity",
        "htc-absorption-gamma_prime"])
def test_key_rules_apply_only_where_the_key_steers(tmp_path, capsys, text,
                                                   key, steers):
    """A key's own rule is checked only in the runs its scope names; out
    of scope the key is left out of the echo."""
    code, out, err = _run(capsys, "validate", "--config",
                          _write(tmp_path, text))
    if steers:
        assert code == cli.EXIT_CONSTRAINT
        assert f"{key}: " in err
    else:
        assert code == cli.EXIT_OK, err
        assert f"\n{key.split('.')[1]} = " not in out


def test_validate_echoes_the_resolved_config(tmp_path, capsys):
    code, out, _ = _run(capsys, "validate", "--config",
                        _write(tmp_path, TINY_TC))
    assert code == cli.EXIT_OK
    assert "[disorder]\nn_realizations = 3\nseed = 7\nwidth = 0.05 0.1\n" in out


def test_validate_echoes_the_fission_coupling(tmp_path, capsys):
    """lam_ci sets the fission yield, so the echo and every manifest name it
    even when the config leaves it at its calibrated default."""
    code, out, _ = _run(capsys, "validate", "--config",
                        _write(tmp_path, TINY_SPECTRA))
    assert code == cli.EXIT_OK
    assert "\nlam_ci = 0.065\n" in out


def test_validate_echoes_only_the_keys_that_steer_the_model(tmp_path, capsys):
    """A tc run has no integrator, no start noise and no temperature, and
    an sf run draws no disorder and has no temperature: their keys are
    accepted (at their defaults, where the run refuses others) but left out
    of the echo."""
    tc = TINY_TC.replace("sample_dt_fs = 2.0", "sample_dt_fs = 2.0\n"
                         "multiplicity = 2\nseed = 3\nrel_tol = 1e-7\n"
                         "abs_tol = 1e-9")
    code, out, err = _run(capsys, "validate", "--config", _write(tmp_path, tc))
    assert code == cli.EXIT_OK, err
    assert "[run]\nsample_dt_fs = 2.0\nt_max_fs = 20.0\n\n" in out
    assert "[temperature]" not in out
    sf = TINY_PUMPED_SF + "\n[disorder]\nseed = 9\n"
    code, out, err = _run(capsys, "validate", "--config", _write(tmp_path, sf))
    assert code == cli.EXIT_OK, err
    assert "seed = 3\n" in out and "seed = 9" not in out
    assert "[disorder]" not in out and "[temperature]" not in out
    # the upper manifold and the cavity loss steer only 2D spectra
    upper = ("cavity_kappa", "eps_sn", "eps_ttn", "eta_s", "eta_t")
    assert not [key for key in upper if f"\n{key} = " in out]
    assert "\nn_photons = 4.0\n" in out and "\nlam_ci = " in out
    # 2D spectra run on their own grid, with no pump
    code, out, err = _run(capsys, "validate", "--config",
                          _write(tmp_path, TINY_SPECTRA))
    assert code == cli.EXIT_OK, err
    assert all(f"\n{key} = " in out for key in upper)
    assert "t_max_fs" not in out and "sample_dt_fs" not in out
    assert "n_photons" not in out and "\nmultiplicity = 1\n" in out
    assert "[disorder]" not in out and "[temperature]" not in out
    # a scan reads no [run] key and no coupling-mode or pump key
    code, out, err = _run(capsys, "validate", "--config",
                          _write(tmp_path, TINY_PES))
    assert code == cli.EXIT_OK, err
    assert "[run]" not in out
    assert not [key for key in (*upper, "lam_ci", "omega_coupling",
                                "n_photons") if f"\n{key} = " in out]


def test_options_hold_only_their_experiments_keys():
    assert validate(TINY_TC).options == {"kind": "dynamics"}
    assert set(validate(TINY_SPECTRA).options) == {
        "kind", "gamma_prime", "omega_min", "omega_max", "omega_points",
        "grid_points", "grid_dt_fs", "waiting_times_fs"}


def test_outputs_do_not_depend_on_worker_count(tmp_path, capsys):
    for kind, text, n_files in (("dynamics", TINY_TC, 2),
                                ("absorption", TINY_TC_ABSORPTION, 2),
                                ("htc", TINY_HTC, 1),
                                ("htc-absorption", DISORDERED_HTC_ABSORPTION,
                                 2)):
        path = _write(tmp_path, text)
        files = []
        for workers in ("1", "2"):
            out_dir = tmp_path / f"{kind}_w{workers}"
            code, _, _ = _run(capsys, "run", "--config", path, "--out",
                              str(out_dir), "--workers", workers)
            assert code == cli.EXIT_OK
            files.append({p.name: p.read_bytes() for p in out_dir.glob("*.csv")})
        assert len(files[0]) == n_files and files[0] == files[1]


def test_round_robin_keeps_realization_order(tmp_path, capsys):
    """18 realizations over 3 workers, each taking every third one: the
    means are bytewise those of the serial run."""
    path = _write(tmp_path, TINY_TC.replace("n_realizations = 3",
                                            "n_realizations = 9"))
    files = []
    for workers in ("1", "3"):
        out_dir = tmp_path / f"w{workers}"
        code, _, _ = _run(capsys, "run", "--config", path, "--out",
                          str(out_dir), "--workers", workers)
        assert code == cli.EXIT_OK
        files.append({p.name: p.read_bytes() for p in out_dir.glob("*.csv")})
    assert len(files[0]) == 2 and files[0] == files[1]


def _read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1)


def test_tc_dynamics_columns_match_brute_force(tmp_path, capsys):
    """All four columns of a disordered, lossy ensemble against expm."""
    text = TINY_TC.replace("kappa = 0.005", "kappa = 0.005\ngamma = 0.002")
    out_dir = tmp_path / "out"
    code, _, err = _run(capsys, "run", "--config", _write(tmp_path, text),
                        "--out", str(out_dir))
    assert code == cli.EXIT_OK, err
    times = np.arange(11) * 2.0
    model = TCModel(3, 1.0, 1.0, 0.1, kappa=0.005, gamma=0.002)
    for width in (0.05, 0.1):
        ref = np.zeros((len(times), 4))
        for r in range(3):
            h = disordered_tc(model, width, 7, r).matrix()
            h_herm = (h + h.conj().T) / 2.0
            for i, t in enumerate(times):
                psi = expm(-1j * h * t / HBAR_EV_FS)[:, 0]
                p_ph = abs(psi[0]) ** 2
                p_qu = np.sum(np.abs(psi[1:]) ** 2)
                energy = np.real(psi.conj() @ h_herm @ psi)
                ref[i] += [p_ph, p_qu, p_ph + p_qu, energy]
        got = _read_csv(out_dir / f"population_W{width:g}.csv")
        np.testing.assert_array_equal(got[:, 0], times)
        assert np.max(np.abs(got[:, 1:] - ref / 3)) <= 1e-10


def _owner(a):
    """The array whose memory `a` lives in."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def test_work_units_return_owned_columns():
    """No realization column keeps a larger array alive while the next
    realization is computed."""
    from cavidyn import runner

    for key, (work, _, axis_of, _, header) in runner._ENSEMBLES.items():
        cfg = validate(ENSEMBLE_CONFIGS[key])
        columns = work((cfg, cfg.disorder.width[0], 0, axis_of(cfg)))
        assert len(columns) == len(header) - 1
        for column in columns:
            assert column.shape == axis_of(cfg).shape
            assert _owner(column).nbytes <= column.nbytes, key


@pytest.mark.parametrize("temperature_k", [0.0, 300.0])
def test_htc_dynamics_equals_library_calls(tmp_path, capsys, temperature_k):
    text = TINY_HTC + f"\n[temperature]\ntemperature_k = {temperature_k}\n"
    out_dir = tmp_path / "out"
    code, _, err = _run(capsys, "run", "--config", _write(tmp_path, text),
                        "--out", str(out_dir))
    assert code == cli.EXIT_OK, err
    times = np.arange(11) * 1.0
    rows = []
    for r in range(2):
        tc = disordered_tc(TCModel(2, 1.0, 1.0, 0.1, kappa=0.002), 0.05, 5, r)
        model = HTCModel(tc, 0.3, 0.124, 0.3)
        h = (thermal_htc(model, temperature_k) if temperature_k
             else htc_system_bath(model))
        assert h.n_modes == (4 if temperature_k else 2)
        state = init_state(h.n_sys, h.n_modes, 0, 2, noise_seed=4 + 7919 * r)
        traj = propagate(h, state, times, RUN_SETTINGS)
        pops = traj.system_populations()
        rows.append(np.column_stack([pops[:, 0], pops[:, 1:].sum(axis=1),
                                     traj.norm(), traj.energies().real]))
    got = _read_csv(out_dir / "population.csv")
    np.testing.assert_array_equal(got[:, 0], times)
    np.testing.assert_array_equal(got[:, 1:], (rows[0] + rows[1]) / 2)


def test_htc_absorption_equals_library_call(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, _, err = _run(capsys, "run", "--config",
                        _write(tmp_path, TINY_HTC_ABSORPTION),
                        "--out", str(out_dir))
    assert code == cli.EXIT_OK, err
    h = htc_system_bath(HTCModel(TCModel(2, 1.0, 1.0, 0.1, kappa=0.002),
                                 0.3, 0.124, 0.3))
    omega = np.linspace(0.7, 1.3, 41)
    ref = linear_absorption(h, np.eye(1, h.n_sys)[0], omega,
                            np.arange(41.0), gamma_prime=0.1, multiplicity=2,
                            noise_seed=4, settings=RUN_SETTINGS)
    got = _read_csv(out_dir / "absorption.csv")
    np.testing.assert_array_equal(got, np.column_stack([omega, ref]))


def test_disordered_htc_absorption_equals_library_calls(tmp_path, capsys):
    """Each width's spectrum is the mean of one `linear_absorption` per
    realization, with start noise seeded 4 + 7919*r."""
    out_dir = tmp_path / "out"
    code, _, err = _run(capsys, "run", "--config",
                        _write(tmp_path, DISORDERED_HTC_ABSORPTION),
                        "--out", str(out_dir))
    assert code == cli.EXIT_OK, err
    omega = np.linspace(0.7, 1.3, 41)
    for width in (0.05, 0.1):
        spectra = []
        for r in range(3):
            tc = disordered_tc(TCModel(2, 1.0, 1.0, 0.1, kappa=0.002), width,
                               5, r)
            h = htc_system_bath(HTCModel(tc, 0.3, 0.124, 0.3))
            spectra.append(linear_absorption(
                h, np.eye(1, h.n_sys)[0], omega,
                np.arange(41.0), gamma_prime=0.1, multiplicity=2,
                noise_seed=4 + 7919 * r, settings=RUN_SETTINGS))
        got = _read_csv(out_dir / f"absorption_W{width:g}.csv")
        np.testing.assert_array_equal(
            got, np.column_stack([omega, sum(spectra) / 3]))


def test_default_htc_absorption_run_does_not_warn(tmp_path):
    """The default window (300 fs) and damping (0.01 eV) leave 1 % of the
    damping envelope, inside the truncation warning's bound."""
    from cavidyn.runner import run

    cfg = validate("[experiment]\nkind = absorption\n\n"
                   "[model]\nkind = htc\nn_qubits = 2\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run(cfg, out_dir=str(tmp_path / "out"))
    assert not [str(w.message) for w in caught]


def test_htc_absorption_samples_every_sample_dt(tmp_path, capsys):
    """The autocorrelation is sampled every `run.sample_dt_fs`: 1 fs and
    0.5 fs give different spectra, and 2 fs, whose Nyquist limit (1.03 eV)
    lies below the 1.3 eV window, is refused."""
    spectra = []
    for dt in ("1.0", "0.5"):
        text = TINY_HTC_ABSORPTION.replace("sample_dt_fs = 1.0",
                                           f"sample_dt_fs = {dt}")
        out_dir = tmp_path / f"out{dt}"
        code, _, err = _run(capsys, "run", "--config", _write(tmp_path, text),
                            "--out", str(out_dir))
        assert code == cli.EXIT_OK, err
        spectra.append((out_dir / "absorption.csv").read_bytes())
    assert spectra[0] != spectra[1]
    text = TINY_HTC_ABSORPTION.replace("sample_dt_fs = 1.0",
                                       "sample_dt_fs = 2.0")
    code, _, err = _run(capsys, "run", "--config", _write(tmp_path, text),
                        "--out", str(tmp_path / "out2"))
    assert code == cli.EXIT_CONSTRAINT
    assert "experiment.omega_max" in err and "1.034 eV" in err


def test_htc_absorption_above_zero_kelvin_uses_the_thermal_double(tmp_path,
                                                                  capsys):
    """At 300 K the spectrum is that of the doubled thermofield Hamiltonian,
    not the 0 K one."""
    spectra = {}
    for temperature_k in (0.0, 300.0):
        text = (TINY_HTC_ABSORPTION
                + f"\n[temperature]\ntemperature_k = {temperature_k}\n")
        out_dir = tmp_path / f"out{temperature_k:g}"
        code, _, err = _run(capsys, "run", "--config", _write(tmp_path, text),
                            "--out", str(out_dir))
        assert code == cli.EXIT_OK, err
        spectra[temperature_k] = _read_csv(out_dir / "absorption.csv")
    h = thermal_htc(HTCModel(TCModel(2, 1.0, 1.0, 0.1, kappa=0.002),
                             0.3, 0.124, 0.3), 300.0)
    omega = np.linspace(0.7, 1.3, 41)
    ref = linear_absorption(h, np.eye(1, h.n_sys)[0], omega,
                            np.arange(41.0), gamma_prime=0.1, multiplicity=2,
                            noise_seed=4, settings=RUN_SETTINGS)
    np.testing.assert_array_equal(spectra[300.0],
                                  np.column_stack([omega, ref]))
    assert np.max(np.abs(spectra[300.0][:, 1] - spectra[0.0][:, 1])) > 1e-4


def _loaded_after(probe):
    """Top-level packages, cavidyn modules and `numpy.random` that a fresh
    interpreter holds after running `probe`, whose standard output is
    discarded."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cavidyn.__file__)))
    script = ("import contextlib, io, json, sys\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              + "".join(f"    {line}\n" for line in probe.splitlines())
              + "print(json.dumps(sorted({m if m.startswith('cavidyn.') "
              "or m == 'numpy.random' else m.split('.')[0] "
              "for m in sys.modules})))\n")
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(json.loads(out))


def test_every_traced_function_exists():
    """The benchmark's tracer (`bench/tracing.py`, loaded by path and left
    as it is) wraps every function its WRAPPED list names with `getattr`, so
    each must resolve to a callable in cavidyn."""
    import importlib
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED
    for entry in tracing.WRAPPED:
        mod_name, qualname = entry.split(":")
        target = importlib.import_module("cavidyn." + mod_name)
        for attr in qualname.split("."):
            target = getattr(target, attr, None)
        assert callable(target), f"{entry} does not resolve to a callable"


def test_cli_import_leaves_out_the_integrator():
    """The CLI, the runner and the spectra need numpy only: no run pays for
    importing scipy (the integrator is in-package, and only the
    `oracle-compare` references load scipy.sparse, lazily)."""
    loaded = _loaded_after("import cavidyn.cli, cavidyn.runner, cavidyn.spectro")
    assert "scipy" not in loaded


def test_package_import_and_validate_leave_out_numpy(tmp_path):
    """`import cavidyn` and `cavidyn validate` on every model kind build no
    model objects, so they never import numpy."""
    paths = []
    for kind, text in (("tc", TINY_TC), ("htc", TINY_HTC),
                       ("sf", TINY_SPECTRA)):
        path = tmp_path / f"{kind}.ini"
        path.write_text(text)
        paths.append(str(path))
    loaded = _loaded_after(
        "from cavidyn import cli\n"
        f"assert all(cli.main(['validate', '--config', p]) == 0 for p in {paths!r})")
    assert "numpy" not in loaded
    assert not {m for m in loaded if m.startswith("cavidyn.")} - {
        "cavidyn.cli", "cavidyn.config", "cavidyn.constants"}


@pytest.mark.parametrize("text,left_out", [
    # the forked workers alone draw the disorder (numpy.random)
    (TINY_TC, {"cavidyn.sf", "cavidyn.varprop", "cavidyn.spectro",
               "cavidyn.thermofield", "concurrent", "multiprocessing",
               "numpy.random"}),
    # an M = 1 start carries no noise, so nothing imports numpy.random
    (TINY_SPECTRA, {"cavidyn.tc_exact", "cavidyn.thermofield", "concurrent",
                    "numpy.random"}),
], ids=["tc-run", "sf-spectra2d"])
def test_run_imports_only_the_configured_experiment(tmp_path, text,
                                                    left_out):
    args = ["run", "--config", _write(tmp_path, text), "--out",
            str(tmp_path / "out"), "--workers", "2"]
    loaded = _loaded_after("from cavidyn import cli\n"
                           f"assert cli.main({args!r}) == 0")
    assert not loaded & left_out


def test_disorder_draws_still_load_numpy_random(tmp_path):
    """The check above can see numpy.random: a tc run in one process loads
    it for the disorder draws (numpy's Philox generator)."""
    args = ["run", "--config", _write(tmp_path, TINY_TC), "--out",
            str(tmp_path / "out"), "--workers", "1"]
    loaded = _loaded_after("from cavidyn import cli\n"
                           f"assert cli.main({args!r}) == 0")
    assert "numpy.random" in loaded


def test_ensembles_preload_every_module_their_work_units_import(tmp_path):
    """The parent imports what a work unit needs before it forks, so no
    worker compiles a cavidyn module of its own."""
    from cavidyn import runner

    for key, (work, modules, axis_of, _, _) in runner._ENSEMBLES.items():
        cfg = validate(ENSEMBLE_CONFIGS[key])
        path = tmp_path / "cfg.pickle"
        path.write_bytes(pickle.dumps((cfg, axis_of(cfg))))
        probe = ("import importlib, pickle, sys\n"
                 "from cavidyn import runner\n"
                 f"cfg, axis = pickle.loads(open({str(path)!r}, 'rb').read())\n"
                 f"for name in {modules!r}:\n"
                 "    importlib.import_module('cavidyn.' + name)\n"
                 "before = set(sys.modules)\n"
                 f"runner.{work.__name__}((cfg, cfg.disorder.width[0], 0, axis))\n"
                 "assert not {m for m in sys.modules if m.startswith('cavidyn')"
                 "} - before, 'work unit imported a module'")
        _loaded_after(probe)


def test_run_config_models_are_built_on_access_and_pickle():
    tc = validate(TINY_TC)
    htc = validate(TINY_HTC)
    sf = validate(TINY_SPECTRA)
    for cfg in (tc, htc, sf):
        assert pickle.loads(pickle.dumps(cfg)) == cfg
    copy = pickle.loads(pickle.dumps(tc))
    assert copy.tc == tc.tc == TCModel(3, 1.0, 1.0, 0.1, kappa=0.005)
    assert tc.htc is None and tc.sf_dimers is None
    assert htc.htc == HTCModel(TCModel(2, 1.0, 1.0, 0.1, kappa=0.002), 0.3,
                               0.124, 0.3)
    assert htc.tc is None and htc.sf_coupling is None
    # a model accessed before pickling travels with the config
    assert pickle.loads(pickle.dumps(htc)).__dict__["htc"] == htc.htc
    assert sf.sf_dimers == (SFDimerSpec(),)
    assert sf.sf_cavity == CavitySpec()
    assert sf.sf_coupling == SFCavityCoupling(omega=0.2, rwa=True)
    assert sf.tc is None and sf.htc is None
    lam = validate(TINY_SPECTRA.replace("kind = sf", "kind = sf\nlam_ci = 0.1"))
    assert lam.sf_dimers == (SFDimerSpec(lam_ci=0.1),)


@pytest.mark.parametrize("workers", ["0", "-2", "two"])
def test_workers_below_one_is_a_parse_error(tmp_path, capsys, workers):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--config", _write(tmp_path, TINY_TC), "--workers",
                  workers])
    assert exc.value.code == cli.EXIT_PARSE
    assert "--workers" in capsys.readouterr().err


def test_workers_default_blas_to_one_thread(tmp_path, capsys, monkeypatch):
    """Above one worker, run defaults the BLAS thread variables to 1 before
    numpy could load; one worker leaves them alone, and a preset value
    wins."""
    import cavidyn.runner

    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    seen = []

    def fake_run(cfg, out_dir, workers=1):
        seen.append({var: os.environ.get(var) for var in blas})
        return {"outputs": {}, "wall_clock_s": 0.0}

    monkeypatch.setattr(cavidyn.runner, "run", fake_run)
    config = _write(tmp_path, TINY_TC)
    for workers, preset in (("1", None), ("2", None), ("2", "3")):
        for var in blas:
            monkeypatch.delenv(var, raising=False)
        if preset:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
        code, _, err = _run(capsys, "run", "--config", config, "--workers",
                            workers)
        assert code == cli.EXIT_OK, err
    assert seen == [dict.fromkeys(blas), dict.fromkeys(blas, "1"),
                    {**dict.fromkeys(blas, "1"), "OPENBLAS_NUM_THREADS": "3"}]


@pytest.mark.parametrize("flags", [["--resume"], ["--seed", "1"]],
                         ids=["resume", "seed"])
def test_removed_flags_are_parse_errors(tmp_path, capsys, flags):
    """A run's inputs are its config and --out (and --workers): the seed is
    a config key, and there is no resume state to reuse."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--config", _write(tmp_path, TINY_SPECTRA),
                  "--out", str(tmp_path / "out"), *flags])
    assert exc.value.code == cli.EXIT_PARSE
    assert flags[0] in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["absorption", "pes-scan", "spectra2d",
                                     "oracle-compare"])
def test_removed_commands_are_parse_errors(tmp_path, capsys, command):
    """The config's [experiment] kind alone says what runs: no command
    overrides it."""
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", _write(tmp_path, TINY_SPECTRA),
                  "--out", str(tmp_path / "out")])
    assert exc.value.code == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert "invalid choice" in err and command in err
    assert not (tmp_path / "out").exists()


def test_forks_never_exceed_the_task_count(tmp_path, capsys, monkeypatch):
    """3 realizations at --workers 8 start 3 processes, not 8."""
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    text = TINY_TC.replace("width = 0.05 0.1", "width = 0.05")
    code, _, err = _run(capsys, "run", "--config", _write(tmp_path, text),
                        "--out", str(tmp_path / "out"), "--workers", "8")
    assert code == cli.EXIT_OK, err
    assert len(forks) == 3


def test_failing_worker_fails_the_run_and_leaves_no_process(tmp_path, capsys,
                                                            monkeypatch):
    """A realization that raises in a worker ends the run with exit 1 and
    one error line; the first width's finished CSV is removed and every
    worker is reaped."""
    from cavidyn import runner

    key = ("dynamics", "tc")
    work, *rest = runner._ENSEMBLES[key]

    def failing(args):
        _, width, r, _ = args
        if width == 0.1 and r == 1:
            raise FloatingPointError("realization failed on purpose")
        return work(args)

    monkeypatch.setitem(runner._ENSEMBLES, key, (failing, *rest))
    out_dir = tmp_path / "out"
    code, _, err = _run(capsys, "run", "--config", _write(tmp_path, TINY_TC),
                        "--out", str(out_dir), "--workers", "2")
    assert code == cli.EXIT_RUNTIME
    assert err.count("error:") == 1 and "worker 0 exited with status 1" in err
    assert not list(out_dir.glob("*.csv"))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(
    not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
    reason="needs the procfs list of a process's children")
@pytest.mark.parametrize("workers,n_children", [("1", 0), ("2", 2)],
                         ids=["workers-1", "workers-2"])
def test_sigterm_ends_the_workers_and_removes_the_outputs(tmp_path, workers,
                                                          n_children):
    """SIGTERM to a run that has written its first width's CSV: the run
    dies by the signal, but only after its workers are gone and the
    finished CSV is removed."""
    import signal
    import time

    # 2 widths x 2 htc realizations of about a second each: the first CSV
    # appears while the second width is computed
    text = (TINY_HTC.replace("t_max_fs = 10", "t_max_fs = 1000")
            .replace("width = 0.05", "width = 0.05 0.1"))
    out_dir = tmp_path / "out"
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cavidyn.__file__)))
    run = subprocess.Popen(
        [sys.executable, "-m", "cavidyn.cli", "run", "--config",
         _write(tmp_path, text), "--out", str(out_dir), "--workers", workers],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    children = []
    try:
        deadline = time.monotonic() + 60
        while not (out_dir / "population_W0.05.csv").exists():
            assert run.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        with open(f"/proc/{run.pid}/task/{run.pid}/children") as fh:
            children = [int(pid) for pid in fh.read().split()]
        assert len(children) == n_children
        run.send_signal(signal.SIGTERM)
        assert run.wait(timeout=30) == -signal.SIGTERM
        assert not [pid for pid in children if os.path.exists(f"/proc/{pid}")]
        assert not list(out_dir.iterdir())
    finally:
        for pid in children:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if run.poll() is None:
            run.kill()
            run.wait()


def test_workers_above_one_need_fork(tmp_path, capsys, monkeypatch):
    monkeypatch.delattr(os, "fork")
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--config", _write(tmp_path, TINY_TC), "--workers",
                  "2"])
    assert exc.value.code == cli.EXIT_PARSE
    assert "os.fork" in capsys.readouterr().err


def test_missing_config_is_a_runtime_failure(tmp_path, capsys):
    code, _, err = _run(capsys, "run", "--config", str(tmp_path / "none.ini"))
    assert code == cli.EXIT_RUNTIME
    assert "error:" in err


def test_directory_config_is_a_one_line_runtime_failure(tmp_path, capsys):
    code, _, err = _run(capsys, "validate", "--config", str(tmp_path))
    assert code == cli.EXIT_RUNTIME
    assert err.startswith("error:") and err.count("\n") == 1


def test_config_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "latin1.ini"
    path.write_bytes(TINY_TC.replace("kind = tc", "kind = tc\n# caf\xe9")
                     .encode("latin-1"))
    code, _, err = _run(capsys, "validate", "--config", str(path))
    assert code == cli.EXIT_PARSE
    assert "parse error" in err and "UTF-8" in err


#: a float key takes finite numbers only: each text by the key it must name
NON_FINITE = {
    "run.t_max_fs": TINY_TC.replace("t_max_fs = 20", "t_max_fs = inf"),
    "experiment.waiting_times_fs": TINY_SPECTRA.replace(
        "waiting_times_fs = 0", "waiting_times_fs = 0 inf"),
    "model.omega_r": TINY_TC.replace("omega_r = 0.1", "omega_r = inf"),
    "model.kappa": TINY_TC.replace("kappa = 0.005", "kappa = nan"),
}


@pytest.mark.parametrize("text", [
    "no section header\n",
    TINY_TC.replace("n_qubits = 3", "n_qubits = three"),
    *(pytest.param(text, id=key) for key, text in NON_FINITE.items()),
])
def test_parse_errors_exit_2(tmp_path, capsys, request, text):
    code, _, err = _run(capsys, "validate", "--config", _write(tmp_path, text))
    assert code == cli.EXIT_PARSE
    assert "parse error" in err
    key = request.node.callspec.id
    if key in NON_FINITE:
        assert err.startswith(f"parse error: {key}: cannot parse")


def test_every_constraint_violation_is_reported_in_one_run(tmp_path, capsys):
    text = (TINY_TC.replace("n_qubits = 3", "n_qubits = 0")
            .replace("omega_c = 1.0", "omega_c = -1.0")
            .replace("t_max_fs = 20", "t_max_fs = -5")
            .replace("n_realizations = 3", "n_realizations = 0"))
    code, _, err = _run(capsys, "run", "--config", _write(tmp_path, text),
                        "--out", str(tmp_path / "out"))
    assert code == cli.EXIT_CONSTRAINT
    for key in ("model.n_qubits", "model.omega_c", "run.t_max_fs",
                "disorder.n_realizations"):
        assert key in err
    assert not (tmp_path / "out").exists()


def test_photon_cutoff_is_not_a_tc_key(tmp_path, capsys):
    text = TINY_TC.replace("kappa = 0.005", "kappa = 0.005\nn_max = 4")
    code, _, err = _run(capsys, "validate", "--config", _write(tmp_path, text))
    assert code == cli.EXIT_CONSTRAINT
    assert "model.n_max: unknown key" in err


@pytest.mark.parametrize("text,violation", [
    (TINY_SPECTRA.replace("kind = sf", "kind = sf\neps_s1 = 2.3"),
     "model.eps_s1"),
    (TINY_SPECTRA.replace("grid_dt_fs = 0.5", "grid_dt_fs = 1.0"),
     "experiment.omega_max"),
    (TINY_SPECTRA.replace("waiting_times_fs = 0", "waiting_times_fs = 0 0.7"),
     "experiment.waiting_times_fs"),
    (TINY_HTC.replace("n_qubits = 2", "n_qubits = 1"), "model.n_qubits"),
    (TINY_HTC.replace("n_qubits = 2", "n_qubits = 0"),
     "model.n_qubits: must be >= 2 for the htc model"),
    ("[experiment]\nkind = pes-scan\nq_points = 3\nfock_cutoff = 5\n\n"
     "[model]\nkind = sf\n", "experiment.fock_cutoff"),
    ("[experiment]\nkind = pes-scan\nq_points = 3\n\n"
     "[model]\nkind = sf\ncavity_kappa = 0.01\n", "model.cavity_kappa"),
    # the scan's dimers carry the coupling mode, though its cuts sit at Q_c = 0
    (TINY_PES.replace("kind = sf", "kind = sf\nomega_coupling = 0"),
     "model.omega_coupling: must be > 0"),
    # no manifold at all: the scan would keep no surface
    (TINY_PES.replace("q_points = 5", "q_points = 5\nmanifold_max = -1"),
     "experiment.manifold_max: must be >= 0"),
    (TINY_HTC + "\n[temperature]\ntemperature_k = 1e9\n",
     "temperature.temperature_k"),
    # samples at 0, 6 and 12 fs would run past the 10 fs window
    (TINY_TC.replace("t_max_fs = 20", "t_max_fs = 10")
     .replace("sample_dt_fs = 2.0", "sample_dt_fs = 6"), "run.t_max_fs"),
    # the disorder seed keys a 64-bit Philox generator
    (TINY_TC.replace("seed = 7", "seed = -1"), "disorder.seed"),
    (TINY_TC.replace("seed = 7", f"seed = {2 ** 64}"), "disorder.seed"),
    # the solver-breaking check is a test, not an oracle pair
    (ORACLE_TC.replace("kind = oracle-compare",
                       "kind = oracle-compare\npair = corrupted-metric"),
     "experiment.pair: unknown key"),
    # htc absorption samples on the run's time axis, like dynamics
    (TINY_HTC_ABSORPTION.replace("sample_dt_fs = 1.0", "sample_dt_fs = 3.0"),
     "run.t_max_fs"),
    # --out alone says where the outputs go
    (TINY_TC + "\n[output]\ndirectory = elsewhere\n",
     "output: unknown section"),
    # keys out of the run's scope, refused where the run cannot meet them
    (TINY_PUMPED_SF + "\n[temperature]\ntemperature_k = 300\n",
     "temperature.temperature_k: finite temperature is unsupported"),
    (TINY_PUMPED_SF + "\n[disorder]\nn_realizations = 2\n",
     "disorder: unsupported for the sf model"),
    (TINY_TC + "\n[temperature]\ntemperature_k = 300\n",
     "temperature.temperature_k: the tc model has no phonon bath"),
], ids=["downhill-fission", "above-nyquist", "off-grid-waiting-time",
        "one-site-htc", "no-site-htc", "pes-scan-photon-cutoff",
        "pes-scan-cavity-loss", "pes-scan-omega_coupling",
        "pes-scan-negative-manifold",
        "htc-classical-limit", "samples-past-window", "negative-disorder-seed",
        "disorder-seed-past-u64", "corrupted-metric-pair",
        "htc-absorption-samples-past-window", "output-section",
        "sf-temperature", "sf-realizations", "tc-temperature"])
def test_validate_rejects_what_would_fail_at_run_time(tmp_path, capsys, text,
                                                     violation):
    code, _, err = _run(capsys, "validate", "--config", _write(tmp_path, text))
    assert code == cli.EXIT_CONSTRAINT
    assert violation in err


def test_largest_disorder_seed_runs(tmp_path, capsys):
    text = TINY_TC.replace("seed = 7", f"seed = {2 ** 64 - 1}")
    code, _, err = _run(capsys, "run", "--config", _write(tmp_path, text),
                        "--out", str(tmp_path / "out"))
    assert code == cli.EXIT_OK, err


@pytest.mark.parametrize("text,key", [
    (TINY_TC.replace("width = 0.05 0.1", "width = 0.1234567 0.1234568"),
     "disorder.width"),
    (TINY_SPECTRA.replace("waiting_times_fs = 0", "waiting_times_fs = 0 0"),
     "experiment.waiting_times_fs"),
], ids=["widths", "waiting-times"])
def test_validate_rejects_values_that_share_an_output_file(tmp_path, capsys,
                                                           text, key):
    # both values would be computed and one file would hold only the last
    code, _, err = _run(capsys, "run", "--config", _write(tmp_path, text),
                        "--out", str(tmp_path / "out"))
    assert code == cli.EXIT_CONSTRAINT
    assert f"{key}: values sharing the output file tag" in err
    assert not (tmp_path / "out").exists()


def test_htc_temperature_floor_matches_the_thermofield():
    """validate applies the thermofield's classical-limit rule to the lowest
    phonon mode: it accepts a temperature just below the floor, where
    `thermal_htc` still works, and rejects one just above it, where
    `thermal_htc` raises."""
    from cavidyn.config import ConfigConstraintError
    from cavidyn.thermofield import ClassicalLimitError

    base = TINY_HTC + "\n[temperature]\ntemperature_k = {!r}\n"
    # beta*omega/2 of the k = 0 mode, 0.124 * (1 - 0.3) eV, at the 1e-6 floor
    floor_k = 0.124 * 0.7 / (2.0 * KB_EV_PER_K * 1e-6)
    below = validate(base.format(0.999 * floor_k))
    thermal_htc(below.htc, below.temperature_k)
    with pytest.raises(ConfigConstraintError, match="temperature_k"):
        validate(base.format(1.001 * floor_k))
    with pytest.raises(ClassicalLimitError):
        thermal_htc(below.htc, 1.001 * floor_k)


def _oracle_report(tmp_path, capsys, text):
    out_dir = tmp_path / "out"
    code, _, err = _run(capsys, "run", "--config",
                        _write(tmp_path, text), "--out", str(out_dir))
    assert code == cli.EXIT_OK, err
    manifest = json.loads((out_dir / "run_manifest.json").read_text())
    report = json.loads((out_dir / "oracle_compare.json").read_text())
    # one exact twin per file of the dynamics run, and the report
    assert sorted(manifest["outputs"]) == sorted(
        [*(f"exact_{name}" for name in report["deviations"]),
         "oracle_compare.json"])
    return report


def _figures(report, figure):
    """{(file, column): figure} over every output column of the report."""
    return {(name, column): values[figure]
            for name, columns in report["deviations"].items()
            for column, values in columns.items()}


@pytest.mark.parametrize("text,cutoffs", [
    (ORACLE_TC, [[0] * 8]),
    (ORACLE_HTC_DENSE, [[10, 10], [11, 11]]),
], ids=["tc", "htc-dense"])
def test_oracle_pairs(tmp_path, capsys, text, cutoffs):
    """Every column of the variational run lies within 1e-5 of its exact
    twin, which a cutoff one quantum higher leaves unchanged to 1e-10."""
    report = _oracle_report(tmp_path, capsys, text)
    assert report["cutoffs"] == cutoffs
    variational = _figures(report, "variational")
    assert [column for _, column in variational] == [
        "energy_eV", "norm", "p_photon", "p_qubits_total"]
    assert max(variational.values()) <= 1e-5
    assert max(_figures(report, "cutoff").values()) <= 1e-10


def test_lossy_htc_oracle_compare(tmp_path, capsys):
    """Cavity loss, which the twin's propagation must keep, and a disordered
    ensemble: the twin agrees per width, and each `exact_` file holds the
    twin that the dynamics run's file deviates from by the reported
    figures."""
    text = (ORACLE_HTC_DENSE.replace("fock_cutoff = 10", "fock_cutoff = 6")
            .replace("lam = 0.1", "lam = 0.1\nkappa = 0.01")
            .replace("t_max_fs = 200", "t_max_fs = 30\nsample_dt_fs = 2")
            .replace("multiplicity = 12", "multiplicity = 4")
            + "\n[disorder]\nwidth = 0 0.05\nn_realizations = 2\n")
    report = _oracle_report(tmp_path, capsys, text)
    assert report["cutoffs"] == [[6, 6], [7, 7]]
    assert sorted(report["deviations"]) == ["population_W0.05.csv",
                                            "population_W0.csv"]
    assert max(_figures(report, "variational").values()) <= 1e-5
    assert max(_figures(report, "cutoff").values()) <= 1e-10
    dynamics = tmp_path / "dynamics"
    code, _, err = _run(capsys, "run", "--config", _write(
        tmp_path, text.replace("kind = oracle-compare", "kind = dynamics")),
        "--out", str(dynamics))
    assert code == cli.EXIT_OK, err
    for name, figures in report["deviations"].items():
        exact_path = tmp_path / "out" / f"exact_{name}"
        header = exact_path.read_text().splitlines()[0]
        assert header == (dynamics / name).read_text().splitlines()[0]
        exact, variational = _read_csv(exact_path), _read_csv(dynamics / name)
        np.testing.assert_array_equal(exact[:, 0], variational[:, 0])
        assert [figures[column]["variational"]
                for column in header.split(",")[1:]] == list(
            np.max(np.abs(variational - exact), axis=0)[1:])


def test_lossy_thermofield_oracle_compare(tmp_path, capsys):
    """Cavity loss at 300 K: the thermofield double's four modes at cutoffs
    4 and 5 (dimensions 1,875 and 3,888) agree to 1e-7."""
    text = (TINY_HTC.replace("kind = dynamics",
                             "kind = oracle-compare\nfock_cutoff = 4")
            .split("[disorder]")[0]
            + "[temperature]\ntemperature_k = 300\n")
    report = _oracle_report(tmp_path, capsys, text)
    assert report["cutoffs"] == [[4] * 4, [5] * 4]
    assert max(_figures(report, "cutoff").values()) <= 1e-7


def test_pumped_sf_oracle_compare(tmp_path, capsys):
    """A coherent pump on the fission dimer: its twin resolves the one-
    configuration error, which six configurations shrink tenfold."""
    text = """[experiment]
kind = oracle-compare
fock_cutoff = 7

[model]
kind = sf
coupling_omega = 0.05
n_photons = 1

[run]
t_max_fs = 5
rel_tol = 1e-8
abs_tol = 1e-10
"""
    worst = []
    for multiplicity in (1, 6):
        report = _oracle_report(
            tmp_path, capsys,
            text + f"multiplicity = {multiplicity}\nseed = 3\n")
        # the tuning, coupling and cavity modes are all coupled
        assert report["cutoffs"] == [[7, 7, 7], [8, 8, 8]]
        variational = _figures(report, "variational")
        cutoff = _figures(report, "cutoff")
        for key in (("population.csv", "p_tt"), ("population.csv", "p_s1")):
            assert cutoff[key] <= 1e-4
        worst.append(max(variational[key] for key in cutoff
                         if key[1] != "energy_eV"))
    assert worst[1] <= worst[0] / 10


def test_exact_twin_pins_the_calibrated_fission_yield(tmp_path, capsys):
    """The cavity-free dimer at the default `lam_ci`, LAMBDA_CI_CALIBRATED,
    exact at Fock cutoff 21 (dimension 1,452): P_TT(300 fs) = 0.0277, the
    value the constant's comment quotes."""
    report = _oracle_report(tmp_path, capsys, """[experiment]
kind = oracle-compare
fock_cutoff = 21

[model]
kind = sf
coupling_omega = 0

[run]
t_max_fs = 300
""")
    assert report["cutoffs"] == [[21, 21], [22, 22]]
    time_fs, p_tt = _read_csv(tmp_path / "out" / "exact_population.csv")[-1, :2]
    assert time_fs == 300.0
    assert abs(p_tt - 0.0277) <= 1e-4


def test_oracle_twin_keeps_every_displaced_mode(tmp_path, capsys):
    """At lam = 0 nothing couples the phonon modes, but the start noise of
    two configurations displaces them: the twin truncates them at the
    cutoff, not at 0."""
    text = (ORACLE_TC.replace("n_qubits = 8", "n_qubits = 2")
            .replace("t_max_fs = 200", "t_max_fs = 20\nmultiplicity = 2"))
    report = _oracle_report(tmp_path, capsys, text)
    assert report["cutoffs"] == [[6, 6], [7, 7]]
    assert max(_figures(report, "variational").values()) <= 1e-5


@pytest.mark.parametrize("text,violation", [
    (ORACLE_TC.replace("kind = htc\nn_qubits = 8\nlam = 0",
                       "kind = tc\nn_qubits = 8"),
     "oracle-compare requires the htc or sf model"),
    (ORACLE_TC.split("[model]")[0], "model.kind: required"),
    (ORACLE_TC.replace("kind = oracle-compare",
                       "kind = oracle-compare\npair = tc"),
     "experiment.pair: unknown key"),
    (ORACLE_HTC_DENSE.replace("fock_cutoff = 10", "fock_cutoff = 0"),
     "experiment.fock_cutoff: must be >= 1"),
], ids=["tc-model", "no-model", "pair-key", "zero-cutoff"])
def test_oracle_compare_needs_a_variational_config(tmp_path, capsys, text,
                                                   violation):
    code, _, err = _run(capsys, "run", "--config",
                        _write(tmp_path, text), "--out", str(tmp_path / "out"))
    assert code == cli.EXIT_CONSTRAINT
    assert violation in err
    assert not (tmp_path / "out").exists()


def test_spectra2d_needs_its_omega_window(tmp_path, capsys):
    """The default window, 0.7-1.3 eV, lies far below the dimer's S1 at
    2.23 eV: a spectra2d config must set both ends."""
    for key in ("omega_min = 1.9\n", "omega_max = 2.6\n"):
        code, _, err = _run(capsys, "validate", "--config",
                            _write(tmp_path, TINY_SPECTRA.replace(key, "")))
        assert code == cli.EXIT_CONSTRAINT
        assert "experiment.omega_min, experiment.omega_max" in err


def test_pes_scan_equals_library_call(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, _, err = _run(capsys, "run", "--config", _write(tmp_path, TINY_PES),
                        "--out", str(out_dir))
    assert code == cli.EXIT_OK, err
    ref = pes_scan(
        (SFDimerSpec(),), CavitySpec(), SFCavityCoupling(omega=0.2),
        np.linspace(-0.4, 0.6, 5), n_max=6, manifold_max=2)
    np.testing.assert_array_equal(_read_csv(out_dir / "pes.csv"), ref)
    with open(out_dir / "pes.csv") as f:
        assert f.readline() == ",".join(PES_COLUMNS) + "\n"


def test_pumped_sf_dynamics_equals_library_calls(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, _, err = _run(capsys, "run", "--config",
                        _write(tmp_path, TINY_PUMPED_SF), "--out", str(out_dir))
    assert code == cli.EXIT_OK, err
    times = np.arange(4) * 1.0
    labels, h = sf_system_bath((SFDimerSpec(),), CavitySpec(),
                               SFCavityCoupling(omega=0.05))
    state = coherent_init(np.sqrt(4.0), labels, h.n_modes, 1, noise_seed=3)
    traj = propagate(h, state, times, RUN_SETTINGS)
    obs = sf_observables(traj, labels)
    np.testing.assert_array_equal(
        _read_csv(out_dir / "population.csv"),
        np.column_stack([obs["time_fs"], obs["p_tt"], obs["p_s1"],
                         obs["norm"], obs["energy_ev"]]))


def test_spectra2d_equals_library_calls(tmp_path, capsys):
    """The T_w = 0 map is the bank -> response -> spectra pipeline on the
    fission dimer's first two manifolds; TOTAL is SE + GSB + ESA."""
    from cavidyn.spectro import (ResponseGrid, first_leg_bank, response_esa,
                                 response_se_gsb, spectra)

    out_dir = tmp_path / "out"
    code, _, err = _run(capsys, "run", "--config",
                        _write(tmp_path, TINY_SPECTRA), "--out", str(out_dir))
    assert code == cli.EXIT_OK, err
    # spectra2d runs put the coupling in the rotating-wave form
    dimers, cavity = (SFDimerSpec(),), CavitySpec()
    coupling = SFCavityCoupling(rwa=True)
    labels1, h1 = manifold_hamiltonian(dimers, cavity, coupling, 1)
    labels2, h2 = manifold_hamiltonian(dimers, cavity, coupling, 2)
    mu = dipole_up(dimers, manifold_labels(1, 0), labels1)[:, 0]
    mu_up = dipole_up(dimers, labels1, labels2)
    grid = ResponseGrid(4, 0.5, (0.0,), 0.01)
    bank = first_leg_bank(h1, mu, grid, settings=RUN_SETTINGS)
    responses = {**response_se_gsb(bank, grid, mu),
                 **response_esa(bank, h2, grid, mu, mu_up, RUN_SETTINGS)}
    omega = np.linspace(1.9, 2.6, 5)
    maps = {k: m[0] for k, m in spectra(responses, grid, omega, omega).items()}
    maps["total"] = maps["se"] + maps["gsb"] + maps["esa"]
    path = out_dir / "spectrum2d_Tw0.csv"
    assert path.read_text().splitlines()[0] == (
        "omega_tau_eV,omega_t_eV,re_se,im_se,re_gsb,im_gsb,re_esa,im_esa,"
        "re_total,im_total")
    w_tau, w_t = np.meshgrid(omega, omega, indexing="ij")
    np.testing.assert_array_equal(_read_csv(path), np.column_stack(
        [w_tau.ravel(), w_t.ravel()]
        + [part(maps[k]).ravel() for k in ("se", "gsb", "esa", "total")
           for part in (np.real, np.imag)]))


@pytest.mark.parametrize("text", [
    TINY_TC, SF_FREE_TWO_DIMERS, TINY_SPECTRA, TINY_HTC, TINY_HTC_ABSORPTION,
    TINY_TC_ABSORPTION,
    TINY_HTC + "\n[temperature]\ntemperature_k = 300.0\n",
    TINY_PES, TINY_PUMPED_SF, ORACLE_HTC_DENSE,
], ids=["tc", "sf-free", "spectra", "htc", "htc-absorption", "tc-absorption",
        "htc-300K", "pes-scan", "pumped-sf", "oracle-with-model"])
def test_resolved_text_round_trips(text):
    """Validating the echo gives back the config, but for the keys out of
    the run's scope, which the echo leaves out: they come back at their
    defaults (tc absorption's [run] times here)."""
    from cavidyn.config import _SCHEMA

    cfg = validate(text)
    run = (cfg.experiment, cfg.model_kind)
    expected = {name: {key: value if run in schema[key][2] else schema[key][1]
                       for key, value in cfg.sections[name].items()}
                for name, schema in _SCHEMA.items()}
    assert validate(resolved_text(cfg)).sections == expected


def test_cavity_free_two_dimer_dynamics(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, _, err = _run(capsys, "run", "--config",
                        _write(tmp_path, SF_FREE_TWO_DIMERS), "--out", str(out_dir))
    assert code == cli.EXIT_OK, err
    rows = (out_dir / "population.csv").read_text().splitlines()
    assert len(rows) == 4
    # the bright singlet is shared by both dimers and starts fully populated
    assert abs(float(rows[1].split(",")[2]) - 1.0) < 1e-6


def test_plain_spectra_run_leaves_only_its_outputs(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, _, err = _run(capsys, "run", "--config",
                        _write(tmp_path, TINY_SPECTRA), "--out", str(out_dir))
    assert code == cli.EXIT_OK, err
    manifest = json.loads((out_dir / "run_manifest.json").read_text())
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(
        [*manifest["outputs"], "run_manifest.json"])


def test_spectra_run_evaluates_no_energy(tmp_path, monkeypatch):
    """`propagate` returns its samples as a state and computes no
    observable: with the <H> kernel raising, only reading `energies()`
    fails, and a 2D run, whose bank and ESA legs read no energy, succeeds."""
    from cavidyn import runner, varprop

    class EnergyRead(Exception):
        pass

    def refuse(*args):
        raise EnergyRead

    monkeypatch.setattr(varprop, "energy_expectation", refuse)
    labels, h = sf_system_bath((SFDimerSpec(),), CavitySpec(),
                               SFCavityCoupling())
    traj = propagate(h, coherent_init(0.0, labels, h.n_modes), np.arange(3.0))
    assert isinstance(traj, varprop.MultiD2State)
    with pytest.raises(EnergyRead):
        traj.energies()
    manifest = runner.run(validate(TINY_SPECTRA), str(tmp_path / "out"))
    assert manifest["outputs"]
