"""Harness self-test and output pins.

    python3 perfbench/selftest.py               # check; exit 1 on a problem
    python3 perfbench/selftest.py --write-pins  # re-pin from this commit

Three checks, counts only (no wall time is asserted):

* on the ROADMAP re-anchor setup (60 utterances, seed 0, the toy decoder,
  8-frame chunks, 24 decodes per turn) the harness reproduces the pinned
  forward-position totals: ss_greedy 5919 and cs_fallback_greedy 7050;
* with every turn time set to zero, the benchmark's compute-inclusive
  emission and finalization latencies equal ``metrics.emission_latency``
  token for token;
* the toy workloads' first seed-0 utterances match ``pins.json``: the
  hypothesis and forward-position count of each, hashed. Re-pin only at a
  commit whose decoding behaviour is meant to change.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import bench

REANCHOR = {"ss_greedy": 5919, "cs_fallback_greedy": 7050}


def _cross_check(decoded) -> list[str]:
    problems = []
    for d in decoded:
        finish, _ = bench.replay([0.0] * len(d.turn_s))
        emit, final = bench.token_latencies(bench.timeline(d), finish)
        if emit != d.latency.emit_ms or final != d.latency.finalize_ms:
            problems.append(f"{d.utt.id}: zero-compute latency differs from "
                            "metrics.emission_latency")
    return problems


def self_test() -> list[str]:
    problems = []
    wl = bench.WORKLOADS["greedy_toy"]
    st = bench.setup(wl, 0, 60)
    for name, want in REANCHOR.items():
        strategy = dataclasses.replace(wl.strategy, name=name)
        decoded = [bench.decode(wl, strategy, st.model_for(u), u)
                   for u in st.utts]
        got = sum(d.stats.forward_positions for d in decoded)
        if got != want:
            problems.append(f"re-anchor {name}: {got} forward positions, "
                            f"pinned {want}")
        problems += _cross_check(decoded)
    for wl in bench.WORKLOADS.values():
        st = bench.setup(wl, 0, 4)
        problems += _cross_check([bench.decode(wl, wl.strategy,
                                               st.model_for(u), u)
                                  for u in st.utts])
        problems += bench.pinned_check(wl, bench.load_pins())
    return problems


def write_pins() -> None:
    pins = {}
    for wl in bench.WORKLOADS.values():
        if not wl.pin_utts:
            continue
        st = bench.setup(wl, 0, wl.pin_utts)
        pins[wl.name] = {
            u.id: bench.decode(wl, wl.strategy, st.model_for(u), u).digest()
            for u in st.utts
        }
    path = bench.ROOT / "perfbench" / "pins.json"
    path.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def main(argv: list[str]) -> int:
    if argv == ["--write-pins"]:
        write_pins()
        return 0
    problems = self_test()
    for p in problems:
        print(f"FAILED {p}")
    print("self-test " + ("ok" if not problems else "FAILED"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
