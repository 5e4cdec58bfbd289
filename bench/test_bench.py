"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench -q

They run the real CLI on workloads of a few emitters and femtoseconds.
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from cavidyn.config import validate  # noqa: E402
from cavidyn.dense_ref import FockSpace  # noqa: E402
from cavidyn.runner import run as run_experiment  # noqa: E402
from cavidyn.sf import manifold_hamiltonian  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY_TC = W.Workload(
    "tiny-tc", 2,
    lambda seed: W.tc_config(seed, n_qubits=4, n_realizations=3,
                             t_max_fs=20.0),
    W.tc_reference, W.tc_check, {"oracle_dev": 1e-9})


def _measure(workload, work, trace=True):
    with bench.Runner(work, time.monotonic() + bench.DEADLINE_S) as runner:
        return bench.measure(workload, 7, 0.0, trace, work, runner,
                             log=lambda line: None)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    work = tmp_path_factory.mktemp("tiny-tc")
    return work, _measure(TINY_TC, work)


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_metrics_parse_with_units(traced):
    _, result = traced
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        lines = []
        record = bench.report(dict(result, trace=trace), log=lines.append)
        parsed = json.loads(json.dumps(record))
        assert set(parsed) == {"correct", "attempted", "failed", "metrics"}
        assert parsed["correct"] is True
        assert parsed["attempted"] >= 1 and parsed["failed"] == 0
        units = {k: v["unit"] for k, v in parsed["metrics"].items()}
        assert units == _units(section)
        for name, metric in parsed["metrics"].items():
            assert isinstance(metric["value"], (int, float))
            pattern = rf"(metric|layer) {re.escape(name)} = \S+ " \
                rf"{re.escape(metric['unit'])}( |$)"
            assert any(re.match(pattern, line) for line in lines), name


def test_layer_counts_of_traced_run(traced):
    _, result = traced
    layers = result["layers"]
    assert layers["tc_exact.solve_calls"] == 2 * 3
    assert layers["varprop.rhs_calls"] == 0
    assert layers["spectro.esa_legs"] == 0
    assert layers["runner.self_s"] > 0
    assert result["figures"]["oracle_dev"] < 1e-12


def test_self_times_add_up_synthetic():
    spans = [["root", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0],
             ["a.child", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0],
             ["other", 11.0, 12.0, -1]]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx([6.0, 2.0, 1.0, 1.0, 1.0])
    assert sum(selfs) == pytest.approx(tracing.root_time(spans))
    # overlapping children are subtracted once: union [1, 3.5]
    overlap = [["p", 0.0, 4.0, -1], ["x", 1.0, 3.0, 0], ["y", 2.0, 3.5, 0]]
    assert tracing.self_times(overlap)[0] == pytest.approx(1.5)


def test_self_times_add_up_traced(traced):
    work, result = traced
    spans = json.loads((work / "spans.json").read_text())["spans"]
    assert sum(tracing.self_times(spans)) == pytest.approx(
        tracing.root_time(spans), abs=1e-9)
    layers = bench.per_layer(result)
    assert layers["trace.unattributed_s"] + sum(
        row[3] for row in result["self_table"]) == pytest.approx(
        layers["trace.wall_s"], abs=1e-6)
    assert layers["trace.unattributed_s"] > 0


def _job_copy(work, tmp_path):
    out = tmp_path / "job"
    shutil.copytree(work / "job0", out)
    return bench.Job("copy", 0, 1.0, 1.0, out)


def _corrupt(path):
    rows = path.read_text().splitlines()
    cells = rows[5].split(",")
    cells[1] = repr(float(cells[1]) + 1e-6)
    rows[5] = ",".join(cells)
    path.write_text("\n".join(rows) + "\n")


def test_corrupted_output_counts_as_failed(traced, tmp_path):
    work, _ = traced
    cfg = validate(TINY_TC.config(7))
    reference = TINY_TC.reference(cfg)
    clean = _job_copy(work, tmp_path / "clean")
    expected = {}
    bench.check_job(clean, TINY_TC, reference, expected)
    assert not clean.failed

    job = _job_copy(work, tmp_path)
    _corrupt(job.out_dir / "population_W0.05.csv")
    bench.check_job(job, TINY_TC, reference, dict(expected))
    assert job.failed
    assert any("manifest checksum" in p for p in job.problems)
    assert any("oracle_dev" in p for p in job.problems)

    # a manifest rewritten to match still differs from the other jobs
    manifest = json.loads((job.out_dir / "run_manifest.json").read_text())
    manifest["outputs"]["population_W0.05.csv"] = bench._sha256(
        job.out_dir / "population_W0.05.csv")
    (job.out_dir / "run_manifest.json").write_text(json.dumps(manifest))
    job.problems.clear()
    bench.check_job(job, TINY_TC, reference, dict(expected))
    assert any("differ from the first job" in p for p in job.problems)


def test_wrong_reference_counts_as_failed(tmp_path):
    def wrong_reference(cfg):
        ref = W.tc_reference(cfg)
        for p in ref["p_photon"].values():
            p[3] += 1e-6
        return ref

    wrong = dataclasses.replace(TINY_TC, reference=wrong_reference)
    result = _measure(wrong, tmp_path, trace=False)
    record = bench.report(result, log=lambda line: None)
    assert record["correct"] is False
    assert record["failed"] == len(result["samples"]["wall_s"]) >= 2
    assert record["attempted"] == record["failed"] + bench.SETUP_REPEATS


def test_fock_operator_matches_dense_ref():
    cfg = validate(W.sf_config(0))
    for manifold in (1, 2):
        _, h = manifold_hamiltonian(cfg.sf_dimers, cfg.sf_cavity,
                                    cfg.sf_coupling, manifold)
        cutoffs = (3, 2)
        dense = FockSpace(h.n_sys, cutoffs).hamiltonian(h)
        assert np.allclose(W.fock_operator(h, cutoffs).toarray(), dense,
                           atol=1e-14)


def _scale_esa(path, factor):
    """Rewrite a spectrum CSV with its ESA part of TOTAL times `factor`."""
    lines = path.read_text().splitlines()
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    data[:, 8:10] += (factor - 1.0) * data[:, 6:8]
    body = [",".join(repr(float(x)) for x in row) for row in data]
    path.write_text("\n".join(lines[:1] + body) + "\n")


def _tiny_sf(extra_model=""):
    return lambda seed: W.sf_config(seed, grid_points=6, waiting_times="0 2",
                                    omega_points=9, extra_model=extra_model)


TINY_SF_EXACT = dataclasses.replace(
    W.WORKLOADS["sf-spectra2d"].exact_case, name="tiny-sf-exact",
    config=_tiny_sf(W.SF_UNCOUPLED))


def test_sf_reference_matches_engine_where_one_configuration_is_exact(
        tmp_path):
    cfg = validate(TINY_SF_EXACT.config(0))
    run_experiment(cfg, out_dir=str(tmp_path))
    reference = TINY_SF_EXACT.reference(cfg)
    tol = TINY_SF_EXACT.tolerances["exact_case_dev"]
    assert TINY_SF_EXACT.check(tmp_path, reference)["exact_case_dev"] < tol
    # a 2 % error in the ESA legs fails the exact case
    _scale_esa(tmp_path / "spectrum2d_Tw2.csv", 0.98)
    assert TINY_SF_EXACT.check(tmp_path, reference)["exact_case_dev"] > tol


@pytest.fixture(scope="module")
def sf_job(tmp_path_factory):
    """The sf-spectra2d workload's output at the current engine, and its
    exact reference."""
    out = tmp_path_factory.mktemp("sf-spectra2d")
    cfg = validate(W.WORKLOADS["sf-spectra2d"].config(3))
    run_experiment(cfg, out_dir=str(out))
    return out, W.WORKLOADS["sf-spectra2d"].reference(cfg)


@pytest.mark.parametrize("factor", [1.0, 0.0, -1.0])
def test_sf_gate_catches_lost_or_flipped_esa(sf_job, tmp_path, factor):
    out, reference = sf_job
    workload = W.WORKLOADS["sf-spectra2d"]
    job = bench.Job("copy", 0, 1.0, 1.0, tmp_path / "job")
    shutil.copytree(out, job.out_dir)
    if factor != 1.0:
        _scale_esa(job.out_dir / "spectrum2d_Tw16.csv", factor)
    bench.check_job(job, workload, reference, {})
    caught = any(p.startswith("oracle_dev") for p in job.problems)
    assert caught == (factor != 1.0), job.problems


def test_exact_case_job_runs_with_each_invocation(tmp_path):
    tiny = W.Workload("tiny-sf", 1, _tiny_sf(), W.sf_reference, W.sf_check,
                      {"oracle_dev": 0.5}, exact_case=TINY_SF_EXACT)
    result = _measure(tiny, tmp_path, trace=False)
    exact = [j for j in result["jobs"] if j["label"] == "tiny-sf-exact"]
    assert len(exact) == 1 and not exact[0]["problems"]
    assert result["figures"]["exact_case_dev"] < 1e-4
    assert result["failed"] == 0
    assert result["attempted"] == bench.SETUP_REPEATS + len(
        result["samples"]["wall_s"]) + 1


def test_configs_depend_only_on_seed():
    for workload in W.WORKLOADS.values():
        assert workload.config(5) == workload.config(5)
        assert workload.config(5) != workload.config(6)
        cfg = validate(workload.config(5))
        assert cfg.run.seed == 5 and cfg.disorder.seed == 5


def test_benchmark_json_lists_every_workload_and_metric(traced):
    _, result = traced
    assert [w["name"] for w in SPEC["workloads"]] == list(W.WORKLOADS)
    assert set(_units("end_to_end")) == set(result["end_to_end"])
    assert set(_units("per_layer")) == set(bench.per_layer(result))


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "tc-ensemble", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
