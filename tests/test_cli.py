"""Command line, config validation and the experiment runner, end to end."""

import hashlib
import json

import pytest

from cavidyn import cli
from cavidyn.config import ORACLE_PAIRS

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


def test_validate_echoes_the_resolved_config(tmp_path, capsys):
    code, out, _ = _run(capsys, "validate", "--config",
                        _write(tmp_path, TINY_TC))
    assert code == cli.EXIT_OK
    assert "[disorder]\nn_realizations = 3\nseed = 7\nwidth = 0.05 0.1\n" in out


def test_outputs_do_not_depend_on_worker_count(tmp_path, capsys):
    path = _write(tmp_path, TINY_TC)
    files = []
    for workers in ("1", "2"):
        out_dir = tmp_path / f"w{workers}"
        code, _, _ = _run(capsys, "run", "--config", path, "--out",
                          str(out_dir), "--workers", workers)
        assert code == cli.EXIT_OK
        files.append({p.name: p.read_bytes() for p in out_dir.glob("*.csv")})
    assert len(files[0]) == 2 and files[0] == files[1]


def test_missing_config_is_a_runtime_failure(tmp_path, capsys):
    code, _, err = _run(capsys, "run", "--config", str(tmp_path / "none.ini"))
    assert code == cli.EXIT_RUNTIME
    assert "error:" in err


@pytest.mark.parametrize("text", [
    "no section header\n",
    TINY_TC.replace("n_qubits = 3", "n_qubits = three"),
])
def test_parse_errors_exit_2(tmp_path, capsys, text):
    code, _, err = _run(capsys, "validate", "--config", _write(tmp_path, text))
    assert code == cli.EXIT_PARSE
    assert "parse error" in err


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


@pytest.mark.parametrize("pair", ORACLE_PAIRS)
def test_oracle_pairs(tmp_path, capsys, pair):
    text = f"[experiment]\nkind = oracle-compare\npair = {pair}\n\n" \
           "[model]\nkind = tc\n"
    out_dir = tmp_path / "out"
    code, _, _ = _run(capsys, "oracle-compare", "--config",
                      _write(tmp_path, text), "--out", str(out_dir))
    assert code == cli.EXIT_OK
    report = json.loads((out_dir / "oracle_compare.json").read_text())
    # the corrupted-metric pair breaks the solver on purpose: it must fail
    assert report["passed"] is (pair != "corrupted-metric")


def test_cavity_free_two_dimer_dynamics(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, _, err = _run(capsys, "run", "--config",
                        _write(tmp_path, SF_FREE_TWO_DIMERS), "--out", str(out_dir))
    assert code == cli.EXIT_OK, err
    rows = (out_dir / "population.csv").read_text().splitlines()
    assert len(rows) == 4
    # the bright singlet is shared by both dimers and starts fully populated
    assert abs(float(rows[1].split(",")[2]) - 1.0) < 1e-6


def test_resume_reuses_bank_legs(tmp_path, capsys, monkeypatch):
    from cavidyn import spectro

    path = _write(tmp_path, TINY_SPECTRA)

    def csv_bytes(out_dir, *flags):
        code, _, err = _run(capsys, "spectra2d", "--config", path, "--out",
                            str(out_dir), *flags)
        assert code == cli.EXIT_OK, err
        return {p.name: p.read_bytes() for p in out_dir.glob("*.csv")}

    plain = csv_bytes(tmp_path / "plain")
    first = csv_bytes(tmp_path / "resumed", "--resume")
    assert list((tmp_path / "resumed" / "bank").glob("leg*.txt"))

    def no_save(*_):
        raise AssertionError("a bank leg was recomputed instead of reused")

    monkeypatch.setattr(spectro, "save_trajectory", no_save)
    again = csv_bytes(tmp_path / "resumed", "--resume")
    assert len(plain) == 1 and plain == first == again
