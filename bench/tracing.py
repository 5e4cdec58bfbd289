"""Span tracing of the cavidyn CLI from outside the package.

    python3 bench/tracing.py SPANS.json run --config X --workers 1 --out D

imports cavidyn, wraps the public functions named in WRAPPED so that each
call records a span (name, start, end, parent), runs `cavidyn.cli.main` on
the remaining arguments and, once it returns, writes the spans as JSON.
Spans live in memory until then.  Run it with `--workers 1`: spans are
recorded only in the process that runs this script.

The functions below the entry point turn a span list into self times and
per-layer figures.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

#: "module:qualname" of every wrapped cavidyn function; its span is named
#: "module.function"
WRAPPED = (
    "cli:main",
    "config:validate",
    "models:disordered_tc",
    "models:htc_system_bath",
    "models:tc_system_bath",
    "models:TCModel.matrix",
    "sf:sf_system_bath",
    "sf:sf_matter_only",
    "sf:manifold_hamiltonian",
    "sf:dipole_up",
    "sf:coherent_init",
    "tc_exact:solve_realization",
    "runner:run",
    "varprop:propagate",
    "varprop:eom_rhs",
    "spectro:first_leg_bank",
    "spectro:response_se_gsb",
    "spectro:response_esa",
    "spectro:spectra",
)


def span_name(entry: str) -> str:
    """"models:TCModel.matrix" -> "models.matrix"."""
    mod_name, qualname = entry.split(":")
    return f"{mod_name}.{qualname.rpartition('.')[2]}"


def _module_spans(mod_name: str) -> list:
    return [span_name(w) for w in WRAPPED if w.startswith(mod_name + ":")]


class Recorder:
    """In-memory spans: [name, start, end, parent index or -1]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced


def install(recorder: Recorder) -> None:
    """Replace every WRAPPED function, including the copies other cavidyn
    modules bound with `from ... import`."""
    modules = [m for n, m in sys.modules.items()
               if n == "cavidyn" or n.startswith("cavidyn.")]
    for entry in WRAPPED:
        mod_name, qualname = entry.split(":")
        mod = importlib.import_module("cavidyn." + mod_name)
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(mod, owner_name) if owner_name else mod
        original = getattr(owner, attr)
        wrapper = recorder.wrap(span_name(entry), original)
        setattr(owner, attr, wrapper)
        if owner_name:
            continue
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    with recorder.span("cli.import"):
        import cavidyn.cli
    with recorder.span("runner.import"):
        import cavidyn.runner  # noqa: F401 - imported so it can be wrapped
    install(recorder)
    code = cavidyn.cli.main(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": recorder.spans}, fh)
    return code


# ---------------------------------------------------------------------------
# analysis


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for _, s, e, parent in spans:
        if parent >= 0:
            children[parent].append((s, e))
    return [e - s - _covered(children[i], s, e)
            for i, (_, s, e, _) in enumerate(spans)]


def root_time(spans) -> float:
    return sum(e - s for _, s, e, parent in spans if parent < 0)


def _group(spans, names) -> tuple[int, float]:
    """Calls and time of spans named in `names`, not counting a span nested
    inside another span of the same group twice."""
    names = set(names)
    calls, total = 0, 0.0
    for name, s, e, parent in spans:
        if name not in names:
            continue
        calls += 1
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += e - s
    return calls, total


def _self(spans, selfs, name) -> float:
    return sum(x for sp, x in zip(spans, selfs) if sp[0] == name)


def _per_call_ms(total, calls) -> float:
    return 1000.0 * total / calls if calls else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer figures named as in BENCHMARK.json, without units."""
    selfs = self_times(spans)
    solve_calls, solve_s = _group(spans, ["tc_exact.solve_realization"])
    rhs_calls, rhs_s = _group(spans, ["varprop.eom_rhs"])
    prop_calls, _ = _group(spans, ["varprop.propagate"])
    _, esa_s = _group(spans, ["spectro.response_esa"])
    esa_legs = sum(1 for name, _, _, parent in spans
                   if name == "varprop.propagate" and parent >= 0
                   and spans[parent][0] == "spectro.response_esa")
    return {
        "cli.import_s": _group(spans, ["cli.import"])[1],
        "config.validate_s": _group(spans, ["config.validate"])[1],
        "models.build_s": _group(spans, _module_spans("models"))[1],
        "sf.build_s": _group(spans, _module_spans("sf"))[1],
        "tc_exact.solve_calls": solve_calls,
        "tc_exact.solve_s": solve_s,
        "tc_exact.solve_ms_per_call": _per_call_ms(solve_s, solve_calls),
        "runner.self_s": _self(spans, selfs, "runner.run"),
        "varprop.rhs_calls": rhs_calls,
        "varprop.rhs_s": rhs_s,
        "varprop.rhs_ms_per_call": _per_call_ms(rhs_s, rhs_calls),
        "varprop.propagate_calls": prop_calls,
        "varprop.propagate_self_s": _self(spans, selfs, "varprop.propagate"),
        "spectro.bank_s": _group(spans, ["spectro.first_leg_bank"])[1],
        "spectro.se_gsb_s": _group(spans, ["spectro.response_se_gsb"])[1],
        "spectro.esa_s": esa_s,
        "spectro.esa_self_s": _self(spans, selfs, "spectro.response_esa"),
        "spectro.esa_legs": esa_legs,
        "spectro.esa_ms_per_leg": _per_call_ms(esa_s, esa_legs),
        "spectro.transform_s": _group(spans, ["spectro.spectra"])[1],
    }


def self_table(spans) -> list:
    """(name, calls, inclusive s, self s) per span name, by self time."""
    selfs = self_times(spans)
    rows = {}
    for (name, s, e, _), own in zip(spans, selfs):
        calls, incl, slf = rows.get(name, (0, 0.0, 0.0))
        rows[name] = (calls + 1, incl + (e - s), slf + own)
    return sorted(((n,) + v for n, v in rows.items()), key=lambda r: -r[3])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
