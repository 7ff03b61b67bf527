"""Error and latency metrics for streaming transcripts.

Edit distance is one dynamic program, ``align_tokens``, with a pinned
tie-break so error category counts are deterministic: at equal total cost
a substitution is preferred over an insertion, an insertion over a
deletion. ``edit_distance`` counts errors along the path it returns.

Latency idealizes chunk arrival: chunk k is fully available at time
(k+1)*chunk_ms and compute is free, so strategy comparisons isolate the
algorithmic delay. A token whose audio ends at end_frame (time
end_frame/fps*1000 ms) and which first appears in chunk k has emission
latency (k+1)*chunk_ms - end_ms, clamped at zero; finalization latency is
the same with the finalizing chunk. Hypothesis tokens are matched to
reference tokens through the edit alignment, so insertions carry no
latency and deleted reference tokens none either.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass, field
from typing import Sequence

from .corpus import TokenAlignment
from .engine import EmissionRecord

__all__ = [
    "ErrorCounts",
    "edit_distance",
    "align_tokens",
    "pool_counts",
    "LatencyReport",
    "emission_latency",
    "report_row",
    "summarize",
    "to_csv",
]


@dataclass(frozen=True)
class ErrorCounts:
    substitutions: int
    insertions: int
    deletions: int
    ref_len: int

    @property
    def errors(self) -> int:
        return self.substitutions + self.insertions + self.deletions

    @property
    def wer(self) -> float:
        if self.ref_len == 0:
            return 0.0 if self.errors == 0 else float("inf")
        return self.errors / self.ref_len


def edit_distance(ref: Sequence[int], hyp: Sequence[int]) -> ErrorCounts:
    """Levenshtein alignment counts; ties resolve sub > ins > del. Read off
    the ``align_tokens`` path: every reference or hypothesis token it
    leaves unpaired is a deletion or an insertion."""
    pairs = align_tokens(ref, hyp)
    subs = sum(1 for i, j in pairs if ref[i] != hyp[j])
    return ErrorCounts(subs, len(hyp) - len(pairs), len(ref) - len(pairs),
                       len(ref))


def align_tokens(
    ref: Sequence[int], hyp: Sequence[int],
) -> list[tuple[int, int]]:
    """(ref_index, hyp_index) pairs for matched and substituted tokens under
    the optimal alignment with the pinned tie-break. Inserted hypothesis
    tokens and deleted reference tokens pair with nothing."""
    if ref == hyp:
        # the diagonal is the only zero-cost alignment
        return [(i, i) for i in range(len(ref))]
    cost = [list(range(len(hyp) + 1))]
    for i, r in enumerate(ref, 1):
        row = [i]
        left = i
        # d, up: the cells diagonally above and directly above this one
        for d, up, h in zip(cost[-1], cost[-1][1:], hyp):
            if h != r:
                d += 1
            m = left if left < up else up
            left = d if d <= m else m + 1
            row.append(left)
        cost.append(row)
    pairs: list[tuple[int, int]] = []
    i, j = len(ref), len(hyp)
    # At each cell prefer diagonal, then insertion, then deletion: the
    # pinned tie-break. Once a border is reached only unpaired steps remain.
    while i > 0 and j > 0:
        if cost[i][j] == cost[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]):
            i, j = i - 1, j - 1
            pairs.append((i, j))
        elif cost[i][j] == cost[i][j - 1] + 1:
            j -= 1
        else:
            i -= 1
    pairs.reverse()
    return pairs


def pool_counts(counts: Sequence[ErrorCounts]) -> ErrorCounts:
    return ErrorCounts(
        sum(c.substitutions for c in counts),
        sum(c.insertions for c in counts),
        sum(c.deletions for c in counts),
        sum(c.ref_len for c in counts),
    )


# --------------------------------------------------------------------------
# latency


@dataclass
class LatencyReport:
    emit_ms: list[float] = field(default_factory=list)
    finalize_ms: list[float] = field(default_factory=list)

    @property
    def mean_emit_ms(self) -> float:
        return sum(self.emit_ms) / len(self.emit_ms) if self.emit_ms else 0.0

    @property
    def mean_finalize_ms(self) -> float:
        return (sum(self.finalize_ms) / len(self.finalize_ms)
                if self.finalize_ms else 0.0)

    @property
    def max_spike_ms(self) -> float:
        """Worst per-token finalization delay; the cost of waiting out a
        commit policy shows up here long before it moves the mean."""
        return max(self.finalize_ms, default=0.0)


def emission_latency(
    records: Sequence[EmissionRecord],
    aligns: Sequence[TokenAlignment],
    chunk_ms: float,
    fps: float,
) -> LatencyReport:
    live = [r for r in records if not r.retracted]
    ref = [a.token_id for a in aligns]
    hyp = [r.token for r in live]
    report = LatencyReport()
    for ri, hj in align_tokens(ref, hyp):
        r = live[hj]
        end_ms = aligns[ri].end_frame / fps * 1000.0
        f_chunk = r.finalize_chunk if r.finalize_chunk is not None else r.emit_chunk
        report.emit_ms.append(max(0.0, (r.emit_chunk + 1) * chunk_ms - end_ms))
        report.finalize_ms.append(max(0.0, (f_chunk + 1) * chunk_ms - end_ms))
    return report


# --------------------------------------------------------------------------
# report rows


def report_row(strategy: str, chunk_ms: float, chunk_frames: int,
               counts: ErrorCounts, latency: LatencyReport,
               forward_positions: int, failed: int) -> dict:
    """One strategy/chunk-size row of a comparison report. Its keys are the
    report's columns: the decode manifest summary, an ablate JSON row and
    an ablate CSV line are each this dict."""
    return {
        "strategy": strategy,
        "chunk_ms": chunk_ms,
        "chunk_frames": chunk_frames,
        "wer": counts.wer,
        **asdict(counts),
        "emit_latency_ms": latency.mean_emit_ms,
        "finalize_latency_ms": latency.mean_finalize_ms,
        "max_spike_ms": latency.max_spike_ms,
        "forward_positions": forward_positions,
        "failed": failed,
    }


def summarize(rows: Sequence[dict]) -> str:
    """Aligned markdown comparison table, one line per report row. Scores
    pool the utterances that decoded; ``failed`` counts the others."""
    header = ["strategy", "wer%", "emit ms", "final ms", "spike ms",
              "positions", "failed"]
    body = [
        [f"{r['strategy']}@{r['chunk_frames']}f", f"{100 * r['wer']:.2f}",
         *(f"{r[k]:.2f}" for k in ("emit_latency_ms", "finalize_latency_ms",
                                   "max_spike_ms")),
         str(r["forward_positions"]), str(r["failed"])]
        for r in rows
    ]
    widths = [max(map(len, column)) for column in zip(header, *body)]

    def line(cells):
        return "| " + " | ".join(
            c.ljust(w) for c, w in zip(cells, widths)) + " |"
    out = [line(header),
           "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
    out.extend(line(row) for row in body)
    return "\n".join(out)


def to_csv(rows: Sequence[dict]) -> str:
    """The same rows as comma-separated values, one column per row key."""
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=list(rows[0]) if rows else [],
                       lineterminator="\n")
    w.writeheader()
    w.writerows(rows)
    return buf.getvalue()
