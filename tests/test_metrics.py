"""Edit distance, alignment pairing, latency accounting, and report formats."""

import csv
import io
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamasr.corpus import TokenAlignment
from streamasr.engine import EmissionRecord
from streamasr.metrics import (
    ErrorCounts,
    LatencyReport,
    align_tokens,
    edit_distance,
    emission_latency,
    pool_counts,
    report_row,
    summarize,
    to_csv,
)


def _reference_edit_distance(ref, hyp):
    """The former two-DP implementation, kept as the oracle: one forward DP
    carries (cost, subs, ins, dels) per cell, a second builds the cost
    matrix and backtraces the pairs. Ties resolve sub > ins > del."""
    nr, nh = len(ref), len(hyp)
    prev = [(j, 0, j, 0) for j in range(nh + 1)]
    for i in range(1, nr + 1):
        cur = [(i, 0, 0, i)]
        for j in range(1, nh + 1):
            dc, ds, di, dd = prev[j - 1]
            if ref[i - 1] == hyp[j - 1]:
                best = (dc, ds, di, dd)
            else:
                best = (dc + 1, ds + 1, di, dd)
            ic, is_, ii, id_ = cur[j - 1]
            if ic + 1 < best[0]:
                best = (ic + 1, is_, ii + 1, id_)
            ec, es, ei, ed = prev[j]
            if ec + 1 < best[0]:
                best = (ec + 1, es, ei, ed + 1)
            cur.append(best)
        prev = cur
    _, s, i_, d = prev[nh]
    counts = ErrorCounts(s, i_, d, nr)

    cost = [[0] * (nh + 1) for _ in range(nr + 1)]
    cost[0] = list(range(nh + 1))
    for i in range(1, nr + 1):
        cost[i][0] = i
        for j in range(1, nh + 1):
            best = cost[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1])
            if cost[i][j - 1] + 1 < best:
                best = cost[i][j - 1] + 1
            if cost[i - 1][j] + 1 < best:
                best = cost[i - 1][j] + 1
            cost[i][j] = best
    pairs = []
    i, j = nr, nh
    while i > 0 or j > 0:
        if i > 0 and j > 0 and \
                cost[i][j] == cost[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]):
            pairs.append((i - 1, j - 1))
            i, j = i - 1, j - 1
        elif j > 0 and cost[i][j] == cost[i][j - 1] + 1:
            j -= 1
        else:
            i -= 1
    pairs.reverse()
    return counts, pairs


@st.composite
def _ref_hyp_pairs(draw):
    """Lengths 0-40 over alphabets of 1-5 symbols. A third of the pairs are
    equal and a third are the reference with a few random edits."""
    alphabet = st.integers(0, draw(st.integers(0, 4)))
    ref = draw(st.lists(alphabet, max_size=40))
    kind = draw(st.sampled_from(["equal", "edited", "independent"]))
    if kind == "equal":
        return ref, list(ref)
    if kind == "independent":
        return ref, draw(st.lists(alphabet, max_size=40))
    hyp = list(ref)
    for op in draw(st.lists(st.sampled_from(["sub", "ins", "del"]),
                            min_size=1, max_size=4)):
        at = draw(st.integers(0, len(hyp)))
        if op == "ins":
            hyp.insert(at, draw(alphabet))
        elif hyp and at < len(hyp):
            if op == "sub":
                hyp[at] = draw(alphabet)
            else:
                del hyp[at]
    return ref, hyp


def _brute_cost(ref, hyp):
    @lru_cache(maxsize=None)
    def d(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        sub = d(i - 1, j - 1) + (ref[i - 1] != hyp[j - 1])
        return min(sub, d(i, j - 1) + 1, d(i - 1, j) + 1)

    return d(len(ref), len(hyp))


# -----------------------------
# edit distance
# -----------------------------

def test_equal_sequences_cost_nothing():
    c = edit_distance([5, 6, 7], [5, 6, 7])
    assert (c.substitutions, c.insertions, c.deletions) == (0, 0, 0)
    assert c.ref_len == 3 and c.wer == 0.0


def test_known_counts():
    assert edit_distance([1], [2]).substitutions == 1
    assert edit_distance([1, 2], [1]).deletions == 1
    assert edit_distance([1], [1, 2, 3]).insertions == 2
    c = edit_distance([1, 2, 3, 4], [1, 9, 4])
    assert (c.substitutions, c.insertions, c.deletions) == (1, 0, 1)


def test_tie_prefers_substitution():
    # swap can be two subs or delete+insert; cost ties at 2
    c = edit_distance([1, 2], [2, 1])
    assert (c.substitutions, c.insertions, c.deletions) == (2, 0, 0)


def test_matches_brute_force_cost():
    rng = np.random.default_rng(0)
    for _ in range(300):
        ref = tuple(rng.integers(0, 4, size=rng.integers(0, 7)))
        hyp = tuple(rng.integers(0, 4, size=rng.integers(0, 7)))
        c = edit_distance(list(ref), list(hyp))
        assert c.errors == _brute_cost(ref, hyp)
        assert c.substitutions + c.insertions + c.deletions == c.errors


def test_wer_edge_cases():
    assert edit_distance([], []).wer == 0.0
    assert edit_distance([], [1]).wer == float("inf")
    assert edit_distance([1, 2], []).wer == 1.0


def test_pool_counts_sums():
    a = edit_distance([1, 2, 3], [1, 2])
    b = edit_distance([4, 5], [4, 9])
    pooled = pool_counts([a, b])
    assert pooled.ref_len == 5
    assert pooled.errors == a.errors + b.errors
    assert pooled.wer == pytest.approx(2 / 5)


# -----------------------------
# alignment pairing
# -----------------------------

def test_align_tokens_pairs_matches_and_subs():
    assert align_tokens([1, 2, 3], [1, 2, 3]) == [(0, 0), (1, 1), (2, 2)]
    assert align_tokens([1, 2, 3], [1, 9, 3]) == [(0, 0), (1, 1), (2, 2)]


def test_align_tokens_leaves_gaps_unpaired():
    assert align_tokens([1, 2], [1]) == [(0, 0)]          # deletion of ref 1
    assert align_tokens([1], [1, 2]) == [(0, 0)]          # insertion of hyp 1
    assert align_tokens([], [1, 2]) == []
    assert align_tokens([1, 2], []) == []


def test_align_tokens_consistent_with_counts():
    rng = np.random.default_rng(3)
    for _ in range(200):
        ref = list(rng.integers(0, 5, size=rng.integers(0, 8)))
        hyp = list(rng.integers(0, 5, size=rng.integers(0, 8)))
        pairs = align_tokens(ref, hyp)
        c = edit_distance(ref, hyp)
        # pairs are strictly increasing in both coordinates
        for (r0, h0), (r1, h1) in zip(pairs, pairs[1:]):
            assert r1 > r0 and h1 > h0
        subs = sum(1 for r, h in pairs if ref[r] != hyp[h])
        assert subs == c.substitutions
        assert len(ref) - len(pairs) == c.deletions
        assert len(hyp) - len(pairs) == c.insertions


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=12),
       st.lists(st.integers(0, 4), max_size=12))
def test_align_tokens_agrees_with_counts_on_any_pair(ref, hyp):
    pairs = align_tokens(ref, hyp)
    c = edit_distance(ref, hyp)
    for (r0, h0), (r1, h1) in zip(pairs, pairs[1:]):
        assert r1 > r0 and h1 > h0
    assert len(pairs) == len(ref) - c.deletions == len(hyp) - c.insertions
    assert sum(ref[r] != hyp[h] for r, h in pairs) == c.substitutions


@settings(max_examples=400, deadline=None)
@given(_ref_hyp_pairs())
def test_one_dp_matches_the_two_dp_reference(pair):
    ref, hyp = pair
    counts, pairs = _reference_edit_distance(ref, hyp)
    assert edit_distance(ref, hyp) == counts
    assert align_tokens(ref, hyp) == pairs


# -----------------------------
# emission latency
# -----------------------------

def _rec(token, emit, finalize, **kw):
    return EmissionRecord(token=token, first_token=kw.pop("first", token),
                          emit_chunk=emit, finalize_chunk=finalize, **kw)


def test_latency_formula():
    aligns = [TokenAlignment(10, 0, 10), TokenAlignment(11, 11, 20)]
    records = [_rec(10, 0, 0), _rec(11, 0, 1)]
    rep = emission_latency(records, aligns, chunk_ms=1000.0, fps=25.0)
    # token 10 ends at 400 ms, emitted and final at chunk 0 close (1000 ms)
    assert rep.emit_ms[0] == pytest.approx(600.0)
    assert rep.finalize_ms[0] == pytest.approx(600.0)
    # token 11 ends at 800 ms, emitted chunk 0, finalized chunk 1
    assert rep.emit_ms[1] == pytest.approx(200.0)
    assert rep.finalize_ms[1] == pytest.approx(1200.0)
    assert rep.mean_emit_ms == pytest.approx(400.0)
    assert rep.max_spike_ms == pytest.approx(1200.0)


def test_latency_clamps_to_zero():
    aligns = [TokenAlignment(10, 0, 60)]  # ends at 2400 ms
    rep = emission_latency([_rec(10, 0, 0)], aligns, 1000.0, 25.0)
    assert rep.emit_ms == [0.0]


def test_latency_skips_retracted_and_unmatched():
    aligns = [TokenAlignment(10, 0, 5)]
    records = [
        _rec(99, 0, 1, first=99, retracted=True),  # withdrawn, not scored
        _rec(10, 1, 1),
    ]
    rep = emission_latency(records, aligns, 1000.0, 25.0)
    assert len(rep.emit_ms) == 1
    assert rep.emit_ms[0] == pytest.approx(2000.0 - 200.0)


def test_latency_pending_falls_back_to_emit_chunk():
    aligns = [TokenAlignment(10, 0, 5)]
    rep = emission_latency([_rec(10, 0, None)], aligns, 1000.0, 25.0)
    assert rep.finalize_ms == rep.emit_ms


def test_finalize_never_before_emit():
    rng = np.random.default_rng(5)
    aligns = [TokenAlignment(int(t), i * 4, i * 4 + 3)
              for i, t in enumerate(rng.integers(3, 30, size=10))]
    records = [
        _rec(a.token_id, i // 2, i // 2 + int(rng.integers(0, 2)))
        for i, a in enumerate(aligns)
    ]
    rep = emission_latency(records, aligns, 640.0, 25.0)
    assert all(f >= e for e, f in zip(rep.emit_ms, rep.finalize_ms))


def test_empty_report_means():
    rep = LatencyReport()
    assert rep.mean_emit_ms == 0.0 and rep.max_spike_ms == 0.0


# -----------------------------
# report rendering
# -----------------------------

def _row(strategy, counts, latency, positions):
    return report_row(strategy, 1000.0, 25, counts, latency, positions,
                      failed=0)


def test_summarize_renders_markdown():
    rows = [
        _row("a", ErrorCounts(1, 0, 0, 100),
             LatencyReport([10.0], [12.0, 100.0]), 42),
        _row("bb", ErrorCounts(2, 1, 0, 12), LatencyReport([8.5], [9.0]), 7),
    ]
    assert summarize(rows).splitlines() == [
        "| strategy | wer%  | emit ms | final ms | spike ms | positions | failed |",
        "|----------|-------|---------|----------|----------|-----------|--------|",
        "| a@25f    | 1.00  | 10.00   | 56.00    | 100.00   | 42        | 0      |",
        "| bb@25f   | 25.00 | 8.50    | 9.00     | 9.00     | 7         | 0      |",
    ]


def test_to_csv_parses_back():
    rows = [_row("a", ErrorCounts(2, 1, 0, 200),
                 LatencyReport([10.0], [12.5, 99.0]), 7)]
    [got] = csv.DictReader(io.StringIO(to_csv(rows)))
    # one column per row key, in row order; wer is a fraction
    assert list(got) == list(rows[0])
    assert got == {k: str(v) for k, v in rows[0].items()}
    assert float(got["wer"]) == 3 / 200
