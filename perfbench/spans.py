"""Spans around calls into streamasr's layers, recorded from outside.

``Tracer.installed()`` replaces public functions and methods with wrappers
that record a span per call (name, start, end, parent span, utterance id and
an optional size) and restores the originals on exit. Spans stay in memory
until ``write``. A layer's self time is its span minus the time its direct
child spans cover; calls are single-threaded, so children nest strictly.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field

from bench import engine, layout, metrics, model


def _items(args, result):
    return len(args[2])


def _kv_branch(args, result):
    allocated = sum(a.nbytes for a in result.k + result.v)
    return (allocated, result.length / result.max_context)


def _kv_checksum(args, result):
    cache = args[0]
    upto = args[1] if len(args) > 1 and args[1] is not None else cache.length
    row_bytes = sum(a[:1].nbytes for a in cache.k + cache.v)
    return upto * row_bytes


def _sym_checksum(args, result):
    return args[1] if len(args) > 1 and args[1] is not None else len(args[0])


def _positions(args, result):
    return len(result.positions)


def _dp_edit(args, result):
    return (len(args[0]) + 1) * (len(args[1]) + 1)


def _dp_latency(args, result):
    live = sum(1 for r in args[0] if not r.retracted)
    return (len(args[1]) + 1) * (live + 1)


# (span name, owner, attribute, size of the call or None)
TARGETS = [
    ("ToyDecoder.forward", model.ToyDecoder, "forward", _items),
    ("ToyDecoder.embed_items", model.ToyDecoder, "embed_items", None),
    ("ToyDecoder.forward_embedded", model.ToyDecoder, "forward_embedded", None),
    ("ToyDecoder.new_cache", model.ToyDecoder, "new_cache", None),
    ("KVCache.branch", model.KVCache, "branch", _kv_branch),
    ("KVCache.checksum", model.KVCache, "checksum", _kv_checksum),
    ("KVCache.rollback", model.KVCache, "rollback", None),
    ("SymbolicCache.append_items", model.SymbolicCache, "append_items", None),
    ("SymbolicCache.checksum", model.SymbolicCache, "checksum", _sym_checksum),
    ("SymbolicCache.branch", model.SymbolicCache, "branch", None),
    ("BoundaryOracle.forward", model.BoundaryOracle, "forward", _items),
    ("engine.push_chunk", engine, "push_chunk", None),
    ("engine.fallback_rewind", engine, "fallback_rewind", None),
    ("engine.beam_turn_decode", engine, "beam_turn_decode", None),
    ("metrics.edit_distance", metrics, "edit_distance", _dp_edit),
    ("metrics.emission_latency", metrics, "emission_latency", _dp_latency),
    ("layout.build_cs", layout, "build_cs", _positions),
]


@dataclass
class Layer:
    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0
    sizes: list = field(default_factory=list)


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1, utterance id, size]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.utterance: str | None = None

    def _wrap(self, name, fn, size):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, self.utterance, None]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if size is not None:
                span[5] = size(args, result)
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for name, owner, attr, size in TARGETS:
                saved.append((owner, attr, owner.__dict__.get(attr)))
                setattr(owner, attr, self._wrap(name, getattr(owner, attr), size))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                if original is None:  # inherited: drop the shadowing wrapper
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    def layers(self) -> dict[str, Layer]:
        out: dict[str, Layer] = defaultdict(Layer)
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for i, (name, start, end, _, _, size) in enumerate(self.spans):
            layer = out[name]
            layer.calls += 1
            layer.inclusive_s += end - start
            layer.self_s += end - start - child_s[i]
            if size is not None:
                layer.sizes.append(size)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, utt, size) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent, utt, size]))
                fh.write("\n")


def layer_metrics(tracer: Tracer, traced, untraced: list,
                  setup_med: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass.

    ``traced`` and each of ``untraced`` are ``bench.LoopResult``s over the
    same utterances. Queue wait and the tracing overhead's base come from
    the untraced passes, whose turn times tracing did not inflate.
    ``model.kv.branch_mb`` is allocated bytes computed from the branched
    tensors' shapes, not resident memory.
    """
    L = tracer.layers()

    def calls(name):
        return L[name].calls

    def incl(name):
        return L[name].inclusive_s

    forward_calls = calls("ToyDecoder.forward") + calls("BoundaryOracle.forward")
    forward_positions = sum(L["ToyDecoder.forward"].sizes) + \
        sum(L["BoundaryOracle.forward"].sizes)
    forward_s = incl("ToyDecoder.forward") + incl("BoundaryOracle.forward")
    branches = L["KVCache.branch"].sizes
    stats = traced.stats
    self_sum = sum(layer.self_s for layer in L.values())
    base_audio_s_per_s = sum(r.audio_s for r in untraced) / \
        sum(r.busy_s for r in untraced)
    mb = 1024.0 * 1024.0
    return {
        "corpus.gen_s": (setup_med["gen_s"], "s"),
        "corpus.write_s": (setup_med["write_s"], "s"),
        "corpus.read_s": (setup_med["read_s"], "s"),
        "layout.build_calls": (calls("layout.build_cs"), "count"),
        "layout.build_s": (incl("layout.build_cs"), "s"),
        "layout.positions": (sum(L["layout.build_cs"].sizes), "count"),
        "model.forward_calls": (forward_calls, "count"),
        "model.forward_positions": (forward_positions, "count"),
        "model.positions_per_call": (
            forward_positions / max(1, forward_calls), "positions/call"),
        "model.forward_s": (forward_s, "s"),
        "model.forward_us_per_position": (
            1e6 * forward_s / max(1, forward_positions), "us"),
        "model.embed_s": (incl("ToyDecoder.embed_items"), "s"),
        "model.layers_s": (incl("ToyDecoder.forward_embedded"), "s"),
        "model.oracle_forward_s": (incl("BoundaryOracle.forward"), "s"),
        "model.kv.new_calls": (calls("ToyDecoder.new_cache"), "count"),
        "model.kv.new_s": (incl("ToyDecoder.new_cache"), "s"),
        "model.kv.branch_calls": (len(branches), "count"),
        "model.kv.branch_s": (incl("KVCache.branch"), "s"),
        "model.kv.branch_mb": (sum(b for b, _ in branches) / mb, "MB"),
        "model.kv.live_frac": (
            sum(f for _, f in branches) / max(1, len(branches)), "ratio"),
        "model.kv.checksum_calls": (calls("KVCache.checksum"), "count"),
        "model.kv.checksum_s": (incl("KVCache.checksum"), "s"),
        "model.kv.checksum_mb": (sum(L["KVCache.checksum"].sizes) / mb, "MB"),
        "model.kv.rollback_calls": (calls("KVCache.rollback"), "count"),
        "model.sym.append_s": (incl("SymbolicCache.append_items"), "s"),
        "model.sym.checksum_calls": (calls("SymbolicCache.checksum"), "count"),
        "model.sym.checksum_s": (incl("SymbolicCache.checksum"), "s"),
        "model.sym.checksum_positions": (
            sum(L["SymbolicCache.checksum"].sizes), "count"),
        "model.sym.branch_calls": (calls("SymbolicCache.branch"), "count"),
        "engine.turns": (calls("engine.push_chunk"), "count"),
        "engine.push_chunk_s": (incl("engine.push_chunk"), "s"),
        "engine.self_s": (L["engine.push_chunk"].self_s, "s"),
        "engine.queue_wait_ms_max": (
            max(r.latencies()[2] for r in untraced), "ms"),
        "engine.rewind_calls": (calls("engine.fallback_rewind"), "count"),
        "engine.rewind_s": (incl("engine.fallback_rewind"), "s"),
        "engine.beam_turn_calls": (calls("engine.beam_turn_decode"), "count"),
        "engine.beam_turn_s": (incl("engine.beam_turn_decode"), "s"),
        "engine.beam_self_s": (L["engine.beam_turn_decode"].self_s, "s"),
        "engine.errors": (traced.errors, "count"),
        "engine.prefill_positions": (stats["prefill_positions"], "count"),
        "engine.decode_positions": (stats["decode_positions"], "count"),
        "engine.rollback_positions": (stats["rollback_positions"], "count"),
        "engine.positions_per_token": (
            stats["forward_positions"] / max(1, traced.hyp_tokens), "ratio"),
        "engine.revised_per_rewind": (
            stats["revised"] / max(1, stats["rollback_count"]), "ratio"),
        "metrics.edit_distance_s": (incl("metrics.edit_distance"), "s"),
        "metrics.emission_latency_s": (incl("metrics.emission_latency"), "s"),
        "metrics.dp_cells": (sum(L["metrics.edit_distance"].sizes) +
                             sum(L["metrics.emission_latency"].sizes), "count"),
        "trace.audio_s_per_s": (traced.audio_s_per_s, "audio_s/s"),
        "trace.overhead_pct": (
            100.0 * (base_audio_s_per_s / traced.audio_s_per_s - 1.0), "%"),
        "trace.self_sum_frac": (self_sum / traced.busy_s, "ratio"),
    }
