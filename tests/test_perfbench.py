"""The benchmark harness's self-test and its tracer run in the suite, so a
change that breaks what `perfbench/` imports, wraps or pins fails here
first."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_self_test_passes():
    # bench.py puts src/ on its own path
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "self-test ok" in done.stdout


def perfbench_modules(*names):
    """perfbench's own modules, imported from its directory."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        return [importlib.import_module(name) for name in names]
    finally:
        sys.path.remove(str(ROOT / "perfbench"))


def test_each_workload_decodes_an_utterance_under_the_tracer():
    """One utterance of each workload decodes inside
    ``spans.Tracer().installed()``, which wraps every name ``spans.py``
    traces, so a deleted or renamed traced name fails here and not first in
    ``run.py --trace 1``. Traced, it decodes as it does untraced, every
    per-layer metric of BENCHMARK.json comes out, and the layers each
    workload exists to measure have calls."""
    bench, spans = perfbench_modules("bench", "spans")
    declared = {m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    measured = {"greedy_toy": "model.forward_calls",
                "beam_toy": "engine.beam_turn_calls",
                "redecode_toy": "engine.prefill_positions",
                "oracle_long": "layout.build_calls"}
    assert set(measured) == set(bench.WORKLOADS)
    for name, wl in bench.WORKLOADS.items():
        st = bench.setup(wl, 0, 1)
        untraced = bench.run_loop(wl, st, count=1)
        tracer = spans.Tracer()
        with tracer.installed():
            traced = bench.run_loop(wl, st, count=1)
        assert not (untraced.failures or traced.failures), name
        assert traced.stats == untraced.stats, name
        values = spans.layer_metrics(tracer, traced, [untraced], {
            "gen_s": st.gen_s, "write_s": st.write_s, "read_s": st.read_s})
        assert set(values) == declared
        assert values["engine.turns"][0] > 0 and values[measured[name]][0] > 0
    # the originals are back
    assert not any(hasattr(getattr(owner, attr), "__wrapped__")
                   for _, owner, attr, _ in spans.TARGETS)
