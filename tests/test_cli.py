"""End-to-end subcommand runs against temp files, manifests included."""

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import streamasr.cli as cli
from streamasr.cli import chunk_ms_to_frames, main
from streamasr.engine import STRATEGIES


@pytest.fixture
def corpus(tmp_path):
    path = tmp_path / "corpus.jsonl"
    rc = main(["gen-corpus", "--out", str(path), "--num-utterances", "6",
               "--seed", "0"])
    assert rc == 0
    return path


def _manifest(path):
    with open(f"{path}.manifest.json") as fh:
        return json.load(fh)


# -----------------------------
# gen-corpus
# -----------------------------

def test_gen_corpus_writes_count_and_manifest(corpus):
    lines = corpus.read_text().splitlines()
    assert len(lines) == 6
    m = _manifest(corpus)
    assert m["command"] == "gen-corpus"
    assert int(m["config"]["seed"]) == 0
    assert m["outputs"] == [str(corpus)]


def test_gen_corpus_reproducible(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for p in (a, b):
        main(["gen-corpus", "--out", str(p), "--num-utterances", "4",
              "--seed", "9"])
    assert a.read_bytes() == b.read_bytes()


def test_gen_corpus_invalid_vocab_is_usage_error(tmp_path, capsys):
    rc = main(["gen-corpus", "--out", str(tmp_path / "x.jsonl"),
               "--vocab-size", "2"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--frames-per-token-mean", "inf",
     "frames_per_token_mean must be finite and >= 2"),
    ("--frames-per-token-mean", "nan",
     "frames_per_token_mean must be finite and >= 2"),
    ("--noise-std", "-1", "noise_std must be finite and >= 0"),
    ("--noise-std", "nan", "noise_std must be finite and >= 0"),
    ("--noise-std", "inf", "noise_std must be finite and >= 0"),
])
def test_gen_corpus_rejects_an_unusable_float(tmp_path, capsys, flag, value,
                                              message):
    rc = main(["gen-corpus", "--out", str(tmp_path / "x.jsonl"),
               f"{flag}={value}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_gen_corpus_zero_frame_dim_is_usage_error(tmp_path, capsys):
    rc = main(["gen-corpus", "--out", str(tmp_path / "x.jsonl"),
               "--frame-dim", "0"])
    assert rc == 2
    assert "frame_dim must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "x.jsonl").exists()


@pytest.mark.parametrize("argv, named", [
    (["--fps", "25"], "--fps"),
    (["--frames-per-second=50"], "--frames-per-second"),
    (["--config", "{cfg}"], "fps"),
], ids=["fps", "frames-per-second", "config"])
def test_gen_corpus_takes_no_frame_rate(tmp_path, capsys, argv, named):
    """A corpus stores frame indices and no frame rate, so ``--fps``
    changed no byte of it: gen-corpus no longer takes the flag."""
    cfg = tmp_path / "rate.cfg"
    cfg.write_text("fps = 25\n")
    out = tmp_path / "x.jsonl"
    try:
        rc = main(["gen-corpus", "--out", str(out),
                   *(a.format(cfg=cfg) for a in argv)])
    except SystemExit as exc:
        rc = exc.code
    assert rc == 2
    assert named in capsys.readouterr().err.splitlines()[-1]
    assert not out.exists()


# -----------------------------
# build-sequences
# -----------------------------

def test_build_sequences_converts_chunk_ms(tmp_path, corpus):
    out = tmp_path / "seqs.jsonl"
    rc = main(["build-sequences", "--corpus", str(corpus), "--out", str(out),
               "--paradigm", "ss", "--chunk-ms", "1000"])
    assert rc == 0
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(rows) == 6
    assert all(r["chunk_frames"] == 25 for r in rows)  # 1000 ms at 25 fps
    assert all(r["paradigm"] == "ss" for r in rows)
    assert {"positions", "targets", "segments"} <= rows[0].keys()


def test_chunk_ms_floor_with_minimum():
    assert chunk_ms_to_frames(1000.0, 25.0) == 25
    assert chunk_ms_to_frames(640.0, 25.0) == 16
    assert chunk_ms_to_frames(650.0, 25.0) == 16   # floor
    assert chunk_ms_to_frames(10.0, 25.0) == 1     # never zero


# -----------------------------
# decode
# -----------------------------

def test_decode_writes_jsonl_and_summary(tmp_path, corpus):
    out = tmp_path / "dec.jsonl"
    rc = main(["decode", "--corpus", str(corpus), "--strategy",
               "cs_fallback_greedy", "--chunk-ms", "640", "--model",
               "boundary:1", "--out", str(out)])
    assert rc == 0
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(rows) == 6
    assert {"id", "ref", "hyp", "errors", "records", "stats"} <= rows[0].keys()
    assert rows[0]["records"][0].keys() >= {"token", "first_token",
                                            "retracted_value", "emit_chunk"}
    # fallback recovers every boundary confusion on the oracle
    assert all(r["hyp"] == r["ref"] for r in rows)
    m = _manifest(out)
    assert m["summary"]["strategy"] == "cs_fallback_greedy"
    assert m["summary"]["wer"] == 0.0
    assert m["summary"]["chunk_frames"] == 16
    # inputs are pinned by content hash
    digest = hashlib.sha256(corpus.read_bytes()).hexdigest()
    assert m["inputs"][str(corpus)] == digest


def test_decode_manifest_records_the_python_and_numpy_versions(tmp_path,
                                                               corpus):
    """Versions only: wall times would break same-seed manifests."""
    out = tmp_path / "dec.jsonl"
    assert main(["decode", "--corpus", str(corpus), "--strategy", "ss_greedy",
                 "--model", "boundary:1", "--out", str(out)]) == 0
    assert _manifest(out)["env"] == {"python": platform.python_version(),
                                     "numpy": np.__version__}


def test_decode_ss_misses_boundary_tokens(tmp_path, corpus, capsys):
    rc = main(["decode", "--corpus", str(corpus), "--strategy", "ss_greedy",
               "--chunk-ms", "320", "--model", "boundary:1"])
    assert rc == 0
    table = capsys.readouterr().out
    assert "ss_greedy@8f" in table


def test_decode_reads_config_file(tmp_path, corpus):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("strategy = ss_greedy\nchunk_ms = 1000\nfps = 25\n")
    out = tmp_path / "dec.jsonl"
    rc = main(["decode", "--config", str(cfg), "--corpus", str(corpus),
               "--model", "boundary:1", "--out", str(out)])
    assert rc == 0
    assert _manifest(out)["summary"]["chunk_frames"] == 25


@pytest.mark.parametrize("value, inline", [
    ("false", False), ("no", False), ("0", False), ("True", True),
    ("yes", True), ("1", True),
])
def test_config_inline_frames_is_a_boolean(tmp_path, value, inline):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(f"inline_frames = {value}\nnum_utterances = 2\n")
    out = tmp_path / "c.jsonl"
    assert main(["gen-corpus", "--config", str(cfg), "--out", str(out)]) == 0
    rec = json.loads(out.read_text().splitlines()[0])
    assert ("frames" in rec) is inline
    assert ("frames_seed" in rec) is not inline


def test_config_rejects_a_non_boolean_flag(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("inline_frames = maybe\n")
    with pytest.raises(SystemExit) as exc:
        main(["gen-corpus", "--config", str(cfg),
              "--out", str(tmp_path / "c.jsonl")])
    assert exc.value.code == 2
    assert "inline_frames" in capsys.readouterr().err
    assert not (tmp_path / "c.jsonl").exists()


def test_config_rejects_unknown_keys(tmp_path, corpus, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("chunk_mss = 320\nstrategi = ss_greedy\nfps = 25\n")
    out = tmp_path / "dec.jsonl"
    with pytest.raises(SystemExit) as exc:
        main(["decode", "--config", str(cfg), "--corpus", str(corpus),
              "--strategy", "cs_fallback_greedy", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "chunk_mss" in err and "strategi" in err
    assert "fps" not in err.splitlines()[-1]
    assert not out.exists()


def test_config_key_of_another_command_is_unknown(tmp_path, capsys):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("chunk_ms = 320\n")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "chunk_ms" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["verify", "--config"],
                                  ["verify", "--config", "--full"]])
def test_config_without_a_path_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


def test_config_missing_file_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", str(tmp_path / "absent.cfg")])
    assert exc.value.code == 2
    assert "absent.cfg" in capsys.readouterr().err


def test_config_help_key_is_unknown(tmp_path, capsys):
    cfg = tmp_path / "help.cfg"
    cfg.write_text("help = 1\n")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "help" in capsys.readouterr().err.splitlines()[-1]


def test_config_equals_form_is_read(tmp_path, corpus):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("strategy = ss_greedy\nchunk_ms = 1000\nfps = 25\n")
    out = tmp_path / "dec.jsonl"
    rc = main(["decode", f"--config={cfg}", "--corpus", str(corpus),
               "--model", "boundary:1", "--out", str(out)])
    assert rc == 0
    assert _manifest(out)["summary"]["chunk_frames"] == 25


@pytest.mark.parametrize("model", ["teacher", "boundary:1"])
def test_decode_rejects_a_corrupt_corpus(tmp_path, corpus, capsys, model):
    lines = corpus.read_text().splitlines()
    rec = json.loads(lines[3])
    rec["alignments"] = rec["alignments"][:-3]
    lines[3] = json.dumps(rec)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    rc = main(["decode", "--corpus", str(bad), "--strategy",
               "cs_fallback_greedy", "--model", model])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and rec["id"] in err


def test_decode_rejects_a_nan_frame(tmp_path, capsys):
    """A ``NaN`` in an inline frame stops decode with an ``error:`` line
    naming the utterance, where it once decoded as silent garbage."""
    path = tmp_path / "c.jsonl"
    assert main(["gen-corpus", "--out", str(path), "--num-utterances", "3",
                 "--inline-frames"]) == 0
    lines = path.read_text().splitlines()
    rec = json.loads(lines[0])
    rec["frames"][0][0] = float("nan")
    lines[0] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    rc = main(["decode", "--corpus", str(path), "--model", "toy",
               "--strategy", "cs_fallback_greedy"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {rec['id']}: malformed record: frames")


@pytest.mark.parametrize("record, where", [
    ({"id": "u1", "tokens": [5], "alignments": [[0, 1]], "num_frames": 3},
     "u1: no 'frames_seed' field"),
    ({"id": "u2", "tokens": ["a"], "alignments": [[0, 1]],
      "frames": [[0.0] * 8] * 3}, "u2: malformed record"),
    ({"id": "u3", "tokens": [5], "alignments": [[0, 1, 2]],
      "frames": [[0.0] * 8] * 3}, "u3: malformed record"),
    ({"tokens": [5], "alignments": [[0, 1]], "frames": [[0.0] * 8] * 3},
     "line 1: no 'id' field"),
    ({"id": "u4", "tokens": [5], "alignments": [[0, 1]], "num_frames": 3,
      "frames_seed": {"seed": 0, "index": 0, "noise_std": -1.0,
                      "frame_dim": 8, "vocab_size": 32}},
     "u4: malformed record: noise_std must be finite and >= 0"),
], ids=["no-frames", "str-token", "triple-span", "no-id", "negative-noise"])
def test_decode_rejects_a_malformed_record(tmp_path, capsys, record, where):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(record) + "\n")
    rc = main(["decode", "--corpus", str(bad), "--strategy", "ss_greedy"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}")
    assert "Traceback" not in err


def test_decode_with_toy_checkpoint(tmp_path, corpus):
    from streamasr.model import ModelConfig, ToyDecoder

    ckpt = tmp_path / "toy.npz"
    ToyDecoder(ModelConfig(seed=3)).save(str(ckpt))
    out = tmp_path / "dec.jsonl"
    rc = main(["decode", "--corpus", str(corpus), "--strategy", "ss_greedy",
               "--chunk-ms", "1000", "--model", str(ckpt), "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 6


def test_decode_toy_spec_runs_end_to_end(tmp_path, corpus):
    out = tmp_path / "dec.jsonl"
    rc = main(["decode", "--corpus", str(corpus), "--strategy",
               "cs_fallback_greedy", "--chunk-ms", "1000", "--model", "toy:0",
               "--max-decode-per-turn", "8", "--out", str(out)])
    assert rc == 0
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(rows) == 6 and all("hyp" in r for r in rows)
    assert _manifest(out)["summary"]["failed"] == 0


def _small_context_toy(tmp_path):
    from streamasr.model import ModelConfig, ToyDecoder

    # at 1000 ms chunks and 8 decodes per turn utt00005 needs 111
    # positions and every other utterance of the corpus at most 102
    ckpt = tmp_path / "toy104.npz"
    ToyDecoder(ModelConfig(seed=3, max_context=104)).save(str(ckpt))
    return ckpt


def test_decode_isolates_context_overflow(tmp_path, corpus, capsys):
    out = tmp_path / "dec.jsonl"
    rc = main(["decode", "--corpus", str(corpus), "--strategy", "ss_greedy",
               "--chunk-ms", "1000", "--max-decode-per-turn", "8", "--model",
               str(_small_context_toy(tmp_path)), "--out", str(out)])
    assert rc == 0
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert [r["id"] for r in rows] == [f"utt0000{i}" for i in range(6)]
    failed = [r for r in rows if "error" in r]
    assert [r["id"] for r in failed] == ["utt00005"]
    assert set(failed[0]) == {"id", "error"}
    assert "max_context 104" in failed[0]["error"]
    assert all("hyp" in r for r in rows if "error" not in r)
    assert _manifest(out)["summary"]["failed"] == 1
    assert "utt00005" in capsys.readouterr().err


def test_decode_isolates_any_utterance_error(tmp_path, corpus, capsys,
                                            monkeypatch):
    import streamasr.cli as cli
    from streamasr.model import StepBeyondSequence

    calls = []

    def run_stream(sess, frames):
        calls.append(frames)
        if len(calls) == 3:
            raise StepBeyondSequence("replayed past the layout")
        return real_run_stream(sess, frames)

    real_run_stream = cli.run_stream
    monkeypatch.setattr(cli, "run_stream", run_stream)
    out = tmp_path / "dec.jsonl"
    rc = main(["decode", "--corpus", str(corpus), "--strategy",
               "cs_fallback_greedy", "--model", "teacher", "--out", str(out)])
    assert rc == 0
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert [r["id"] for r in rows] == [f"utt0000{i}" for i in range(6)]
    assert rows[2] == {"id": "utt00002",
                       "error": "StepBeyondSequence: replayed past the layout"}
    assert all(r["hyp"] == r["ref"] for r in rows if "error" not in r)
    assert _manifest(out)["summary"]["failed"] == 1
    err = capsys.readouterr().err
    assert "warning: utt00002: StepBeyondSequence" in err
    assert "Traceback" in err


@pytest.mark.parametrize("command, message", [
    (["decode", "--strategy", "ss_greedy", "--max-decode-per-turn", "0"],
     "max_decode_per_turn must be >= 1"),
    (["ablate", "--strategies", "ss_greedy,ss_beam", "--chunk-ms", "640",
      "--beam-width", "0"], "beam_width must be >= 1"),
    # no utterance, so no session: the strategy is checked as it is built
    (["decode", "--strategy", "ss_greedy", "--max-decode-per-turn", "0",
      "--corpus", "{empty}"], "max_decode_per_turn must be >= 1"),
])
def test_invalid_strategy_config_is_an_error_not_a_failed_utterance(
        tmp_path, corpus, capsys, command, message):
    out = tmp_path / "out.json"
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    # a --corpus in ``command`` comes later, so it wins
    rc = main([command[0], "--corpus", str(corpus), "--model", "teacher",
               "--out", str(out),
               *(a.format(empty=empty) for a in command[1:])])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "warning:" not in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["decode", "--strategy", "ss_greedy"],
    ["ablate", "--strategies", "ss_greedy", "--chunk-ms", "640"],
])
def test_toy_model_rejects_a_corpus_of_another_frame_dim(tmp_path, capsys,
                                                         command):
    path = tmp_path / "dim5.jsonl"
    assert main(["gen-corpus", "--out", str(path), "--num-utterances", "2",
                 "--frame-dim", "5"]) == 0
    rc = main([*command, "--corpus", str(path), "--model", "toy"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error: utt00000: corpus frame_dim 5 does not match the " \
           "model's frame_dim 8" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("model", ["teacher", "boundary:1", "toy", "file"])
def test_vocab_size_below_the_corpus_is_usage_error(tmp_path, corpus, capsys,
                                                    model):
    """Every --model kind rejects a corpus token outside its vocabulary
    once, before any decode; a parameter file's vocabulary is its own."""
    if model == "file":
        from streamasr.model import ModelConfig, ToyDecoder

        model = str(tmp_path / "vocab3.bin")
        ToyDecoder(ModelConfig(vocab_size=3)).save(model)
    out = tmp_path / "out.jsonl"
    rc = main(["decode", "--corpus", str(corpus), "--strategy", "ss_greedy",
               "--vocab-size", "3", "--model", model, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error: utt00000: token id 28 outside the model's vocabulary " \
           "of 3" in err
    assert "Traceback" not in err and "warning:" not in err
    assert not out.exists()


def test_ablate_counts_failed_utterances(tmp_path, corpus):
    out = tmp_path / "ablate.json"
    rc = main(["ablate", "--corpus", str(corpus), "--strategies",
               "ss_greedy,cs_fallback_greedy", "--chunk-ms", "1000",
               "--max-decode-per-turn", "8", "--model",
               str(_small_context_toy(tmp_path)), "--out", str(out)])
    assert rc == 0
    results = json.loads(out.read_text())["rows"]
    assert [r["failed"] for r in results] == [1, 1]
    assert _manifest(out)["summary"]["failed"] == 2


def test_decode_teacher_model_is_exact(tmp_path, corpus):
    out = tmp_path / "dec.jsonl"
    rc = main(["decode", "--corpus", str(corpus), "--strategy", "ss_greedy",
               "--chunk-ms", "640", "--model", "teacher", "--out", str(out)])
    assert rc == 0
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert all(r["hyp"] == r["ref"] for r in rows)


@pytest.fixture
def corpus_with_empty_transcript(tmp_path):
    """Four inline-frame utterances; the second has no tokens."""
    path = tmp_path / "corpus.jsonl"
    assert main(["gen-corpus", "--out", str(path), "--num-utterances", "4",
                 "--seed", "0", "--inline-frames"]) == 0
    recs = [json.loads(l) for l in path.read_text().splitlines()]
    recs[1]["tokens"], recs[1]["alignments"] = [], []
    path.write_text("".join(json.dumps(r) + "\n" for r in recs))
    return path


@pytest.mark.parametrize("strategy", [s for s in STRATEGIES
                                      if s.startswith("ns_")])
def test_teacher_decodes_an_empty_transcript_with_ns(
        tmp_path, corpus_with_empty_transcript, strategy):
    out = tmp_path / "dec.jsonl"
    rc = main(["decode", "--corpus", str(corpus_with_empty_transcript),
               "--strategy", strategy, "--model", "teacher",
               "--out", str(out)])
    assert rc == 0
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert [r["hyp"] == r["ref"] for r in rows] == [True] * 4
    assert rows[1]["hyp"] == []


def test_build_sequences_lays_out_an_empty_transcript_as_ns(
        tmp_path, corpus_with_empty_transcript):
    out = tmp_path / "seqs.jsonl"
    rc = main(["build-sequences", "--corpus",
               str(corpus_with_empty_transcript), "--out", str(out),
               "--paradigm", "ns"])
    assert rc == 0
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(rows) == 4
    n = len(rows[1]["positions"]) - 1  # speech frames, then sos
    assert rows[1]["positions"][n - 1:] == [f"s:{n - 1}", "t:1"]
    assert rows[1]["targets"] == [None] * n + [2]


# -----------------------------
# ablate
# -----------------------------

def test_ablate_default_grid(tmp_path, corpus, capsys):
    out = tmp_path / "ablate.json"
    csv_path = tmp_path / "ablate.csv"
    rc = main(["ablate", "--corpus", str(corpus), "--model", "boundary:1",
               "--out", str(out), "--csv", str(csv_path)])
    assert rc == 0
    table = capsys.readouterr().out
    # 4 strategies x 3 chunk sizes
    data_rows = [l for l in table.splitlines() if l.startswith("| ") and
                 "strategy" not in l]
    assert len(data_rows) == 12
    results = json.loads(out.read_text())["rows"]
    assert len(results) == 12
    by_key = {(r["strategy"], r["chunk_frames"]): r for r in results}
    for frames in (25, 16, 8):
        assert by_key[("cs_fallback_greedy", frames)]["wer"] == 0.0
        assert (by_key[("cs_fallback_greedy", frames)]["wer"]
                <= by_key[("ss_greedy", frames)]["wer"])
    csv_lines = csv_path.read_text().splitlines()
    assert len(csv_lines) == 13  # header + rows


@pytest.mark.parametrize("args, message", [
    (["--config", "{cfg}"], "--config: line without '=': full"),
    (["--strategies", "ss_greedy,bogus"],
     "argument --strategies: unknown strategy 'bogus'"),
    (["--strategies", ","],
     "argument --strategies: needs at least one strategy"),
    (["--chunk-ms", "1000,abc"], "argument --chunk-ms: not a "
     "comma-separated list of numbers: '1000,abc'"),
], ids=["config-line", "unknown-strategy", "no-strategy", "chunk-ms"])
def test_ablate_usage_error_exits_2(tmp_path, corpus, capsys, args, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("full\n")
    out = tmp_path / "ablate.json"
    with pytest.raises(SystemExit) as exc:
        main(["ablate", "--corpus", str(corpus), "--out", str(out),
              *(a.format(cfg=cfg) for a in args)])
    assert exc.value.code == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, line, message", [
    (["verify"], "seed = x", "argument --seed: invalid int value: 'x'"),
    (["gen-corpus", "--out", "{out}"], "seed = x",
     "argument --seed: invalid int value: 'x'"),
    (["decode", "--corpus", "{corpus}", "--strategy", "ss_greedy",
      "--out", "{out}"], "chunk_ms = abc",
     "argument --chunk-ms: invalid float value: 'abc'"),
    (["ablate", "--corpus", "{corpus}", "--out", "{out}"],
     "chunk_ms = 1000,abc", "argument --chunk-ms: not a comma-separated "
     "list of numbers: '1000,abc'"),
    # no --corpus: the model spec is rejected before the missing flag
    (["decode", "--strategy", "ss_greedy", "--out", "{out}"],
     "model = toy:abc", "argument --model: toy seed must be an integer, "
     "not 'abc'"),
    (["ablate", "--corpus", "{corpus}", "--out", "{out}"],
     "model = boundry:1", "argument --model: not 'teacher', 'toy[:seed]', "
     "'boundary:<window>' or an existing parameter file: 'boundry:1'"),
], ids=["verify", "gen-corpus", "decode", "ablate", "decode-model",
        "ablate-model"])
def test_config_value_is_converted_by_the_option_type(
        tmp_path, corpus, capsys, monkeypatch, command, line, message):
    import streamasr.cli as cli

    def no_decode(*args):
        raise AssertionError("decoded before the usage error")

    monkeypatch.setattr(cli, "_run_strategy", no_decode)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{line}\n")
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main([*(a.format(corpus=corpus, out=out) for a in command),
              "--config", str(cfg)])
    assert exc.value.code == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_ablate_table_counts_an_all_failed_row(tmp_path, corpus, capsys):
    from streamasr.model import ModelConfig, ToyDecoder

    ckpt = tmp_path / "toy20.bin"
    ToyDecoder(ModelConfig(seed=3, max_context=20)).save(str(ckpt))
    rc = main(["ablate", "--corpus", str(corpus), "--strategies",
               "ss_greedy", "--chunk-ms", "1000", "--model", str(ckpt)])
    assert rc == 0
    header, _, row = capsys.readouterr().out.splitlines()
    assert header.split("|")[-2].strip() == "failed"
    assert row.startswith("| ss_greedy@25f ")
    assert row.split("|")[-2].strip() == "6"


def test_decode_summary_ablate_json_and_csv_rows_are_one_row(tmp_path,
                                                             corpus):
    dec, out, csv_path = (tmp_path / n for n in ("d.jsonl", "a.json", "a.csv"))
    assert main(["decode", "--corpus", str(corpus), "--model", "boundary:1",
                 "--strategy", "ss_greedy", "--chunk-ms", "320",
                 "--out", str(dec)]) == 0
    assert main(["ablate", "--corpus", str(corpus), "--model", "boundary:1",
                 "--strategies", "ss_greedy", "--chunk-ms", "320",
                 "--out", str(out), "--csv", str(csv_path)]) == 0
    summary = _manifest(dec)["summary"]
    [row] = json.loads(out.read_text())["rows"]
    [csv_row] = csv.DictReader(io.StringIO(csv_path.read_text()))
    assert summary == row
    assert csv_row == {k: str(v) for k, v in row.items()}
    assert list(csv_row) == list(row)
    assert row["wer"] > 0 and row["chunk_frames"] == 8


def test_ablate_custom_sweep(tmp_path, corpus, capsys):
    rc = main(["ablate", "--corpus", str(corpus), "--model", "boundary:1",
               "--strategies", "ss_greedy", "--chunk-ms", "1000"])
    assert rc == 0
    table = capsys.readouterr().out
    assert "ss_greedy@25f" in table
    assert "cs_fallback" not in table


_LATENCY_COLUMNS = ("emit_latency_ms", "finalize_latency_ms", "max_spike_ms")


def test_latency_is_scored_on_the_chunk_actually_decoded(tmp_path):
    """``--chunk-ms`` is floored to whole frames (at 25 fps 10 and 40 ms
    are both 1 frame, 650 and 640 ms both 16): two requests that decode the
    same chunks score the same latency, and each row keeps its request."""
    corpus = tmp_path / "corpus.jsonl"
    assert main(["gen-corpus", "--out", str(corpus), "--num-utterances", "4",
                 "--seed", "1"]) == 0
    common = ["--corpus", str(corpus), "--model", "boundary:1"]
    rows = []
    for ms in ("10", "40"):
        out = tmp_path / f"decode{ms}.jsonl"
        assert main(["decode", *common, "--strategy", "cs_fallback_greedy",
                     "--chunk-ms", ms, "--out", str(out)]) == 0
        rows.append(_manifest(out)["summary"])
    out = tmp_path / "ablate.json"
    assert main(["ablate", *common, "--strategies", "cs_fallback_greedy",
                 "--chunk-ms", "650,640", "--out", str(out)]) == 0
    rows += json.loads(out.read_text())["rows"]
    assert [(r["chunk_ms"], r["chunk_frames"]) for r in rows] == [
        (10.0, 1), (40.0, 1), (650.0, 16), (640.0, 16)]
    for a, b in (rows[:2], rows[2:]):
        assert a["forward_positions"] == b["forward_positions"]
        assert [a[c] for c in _LATENCY_COLUMNS] == [
            b[c] for c in _LATENCY_COLUMNS]


# -----------------------------
# verify
# -----------------------------

def test_verify_subcommand_passes(capsys):
    rc = main(["verify", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "9/9 checks passed" in out
    assert out.count("[PASS]") == 9


@pytest.mark.parametrize("value, full", [("false", False), ("true", True)])
def test_config_full_is_a_boolean(tmp_path, monkeypatch, value, full):
    import streamasr.cli as cli
    seen = []
    monkeypatch.setattr(cli, "run_battery",
                        lambda full, seed: seen.append(full) or [])
    cfg = tmp_path / "verify.cfg"
    cfg.write_text(f"full = {value}\n")
    assert main(["verify", "--config", str(cfg)]) == 0
    assert seen == [full]


# -----------------------------
# --config lines are flags; bad inputs are usage errors
# -----------------------------

def _parsed(argv):
    """The namespace ``main`` would run, or the usage error's exit code."""
    parser, subcommands = cli.build_parser()
    try:
        ns = parser.parse_args(cli._config_args(subcommands, argv))
    except SystemExit as exc:
        return exc.code
    # repr: a nan parses to a new float each time, never equal to itself
    return {k: repr(v) for k, v in vars(ns).items() if k != "config"}


def _configurable_options():
    _, subcommands = cli.build_parser()
    return [(name, action.option_strings[0])
            for name, sub in subcommands.items() for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
            and action.dest != "config"]


_WORD = st.text(st.sampled_from("abx09_-.,:/="), max_size=8)
_NUMBER = st.one_of(st.integers(-10**6, 10**6).map(str),
                    st.floats().map(repr), _WORD)


def _value_of(action):
    """Config-line values for ``action``: valid and invalid alike."""
    if action.nargs == 0:
        return st.sampled_from(["true", "Yes", "1", "false", "NO", "0"])
    if action.choices:
        return st.one_of(st.sampled_from(list(action.choices)), _WORD)
    if action.type is cli._strategy_list:
        names = st.sampled_from([*STRATEGIES, "bogus", ""])
        return st.lists(names, max_size=3).map(",".join)
    if action.type is cli._chunk_ms_list:
        return st.lists(_NUMBER, min_size=1, max_size=3).map(",".join)
    if action.type in (int, float, cli._positive):
        return _NUMBER
    return _WORD


@pytest.mark.parametrize("command, flag", _configurable_options(),
                         ids=lambda x: x)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_config_line_parses_as_its_flag(tmp_path_factory, command, flag,
                                        data):
    _, subcommands = cli.build_parser()
    sub = subcommands[command]
    action = sub._option_string_actions[flag]
    base = []  # every other required option, with a valid value
    for other in sub._actions:
        if other.required and other is not action:
            base += [other.option_strings[0],
                     other.choices[0] if other.choices else "x"]
    value = data.draw(_value_of(action), label="value")
    key = data.draw(st.sampled_from(action.option_strings), label="key")
    key = key.lstrip("-")
    if data.draw(st.booleans(), label="underscores"):
        key = key.replace("-", "_")
    cfg = tmp_path_factory.mktemp("cfg") / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    if action.nargs == 0:
        typed = [flag] if value.lower() in ("true", "yes", "1") else []
    else:
        typed = [f"{flag}={value}"]
    assert (_parsed([command, *base, "--config", str(cfg)])
            == _parsed([command, *base, *typed]))


@pytest.mark.parametrize("argv, message", [
    (["decode", "--strategy", "ss_greedy", "--fps", "0"],
     "argument --fps/--frames-per-second: not a finite number above 0: '0'"),
    (["decode", "--strategy", "ss_greedy", "--chunk-ms", "-640"],
     "argument --chunk-ms: not a finite number above 0: '-640'"),
    (["decode", "--strategy", "ss_greedy", "--chunk-ms", "inf"],
     "argument --chunk-ms: not a finite number above 0: 'inf'"),
    (["decode", "--strategy", "ss_greedy", "--config", "{cfg}"],
     "argument --fps/--frames-per-second: not a finite number above 0: "
     "'-25'"),
    (["build-sequences", "--paradigm", "cs", "--fps", "-25"],
     "argument --fps/--frames-per-second: not a finite number above 0: "
     "'-25'"),
    (["ablate", "--chunk-ms", "1000,nan"],
     "argument --chunk-ms: not a finite number above 0: 'nan'"),
    (["decode", "--strategy", "ss_greedy", "--model", "boundary:-1"],
     "error: argument --model: boundary confusion window must be >= 0, "
     "not -1"),
    (["decode", "--strategy", "ss_greedy", "--model", "toy:abc"],
     "error: argument --model: toy seed must be an integer, not 'abc'"),
    (["decode", "--strategy", "ss_greedy", "--model", "toy:"],
     "error: argument --model: toy seed must be an integer, not ''"),
    (["decode", "--strategy", "ss_greedy", "--model", "toy:-2"],
     "error: argument --model: toy seed must be >= 0, not -2"),
    (["decode", "--strategy", "ss_greedy", "--model", "boundary:"],
     "error: argument --model: boundary confusion window must be an "
     "integer, not ''"),
    (["ablate", "--model", "boundary:1.5"],
     "error: argument --model: boundary confusion window must be an "
     "integer, not '1.5'"),
    (["decode", "--strategy", "ss_greedy", "--model", "boundry:1"],
     "error: argument --model: not 'teacher', 'toy[:seed]', "
     "'boundary:<window>' or an existing parameter file: 'boundry:1'"),
    (["ablate", "--model", "teacher:1"],
     "error: argument --model: not 'teacher', 'toy[:seed]', "
     "'boundary:<window>' or an existing parameter file: 'teacher:1'"),
], ids=["fps-0", "chunk-ms-negative", "chunk-ms-inf", "config-fps",
        "build-sequences-fps", "ablate-chunk-ms-nan", "boundary-window",
        "toy-seed-word", "toy-seed-empty", "toy-seed-negative",
        "boundary-window-empty", "boundary-window-float", "model-misspelt",
        "teacher-with-window"])
def test_bad_input_is_a_usage_error(tmp_path, corpus, capsys, argv,
                                    message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("fps = -25\n")
    out = tmp_path / "out.jsonl"
    try:
        rc = main([*(a.format(cfg=cfg) for a in argv),
                   "--corpus", str(corpus), "--out", str(out)])
    except SystemExit as exc:
        rc = exc.code
    assert rc == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.glob("out.jsonl*")) == []


def test_gen_corpus_count_must_not_be_negative(tmp_path, capsys):
    out = tmp_path / "c.jsonl"
    rc = main(["gen-corpus", "--out", str(out), "--num-utterances", "-3"])
    assert rc == 2
    assert "error: num_utterances must be >= 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert main(["gen-corpus", "--out", str(out),
                 "--num-utterances", "0"]) == 0
    assert len(out.read_text().splitlines()) == 0


def test_config_value_outside_choices_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "seqs.cfg"
    cfg.write_text("paradigm = xx\n")
    out = tmp_path / "seqs.jsonl"
    with pytest.raises(SystemExit) as exc:
        # the corpus does not exist: the config is checked before any read
        main(["build-sequences", "--config", str(cfg), "--corpus",
              str(tmp_path / "absent.jsonl"), "--out", str(out)])
    assert exc.value.code == 2
    assert "argument --paradigm: invalid choice: 'xx'" in \
        capsys.readouterr().err
    assert not out.exists()


def test_python_dash_m_runs_the_cli():
    src = Path(cli.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "streamasr", "--help"],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: streamasr")
