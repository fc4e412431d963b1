import json
import re
import shlex
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import cli_digests
import mutants
from dse import trainer as trainer_mod
from dse.cli import RUN_DEFAULTS, RunConfig, _intent_accuracy, _make_embedder, build_parser, main, run_epoch_study
from dse.corpus import gen_synthetic, load_corpus, topic_of_dialogue
from dse.encoder import EncoderConfig
from dse.evaluation import LabeledSet, OOSConfig, ThresholdRule, sample_few_shot
from dse.loss import LossConfig
from dse.pairs import STRATEGIES, PairBuildConfig, build_pairs, load_pair_file, save_pair_file
from dse.trainer import TrainConfig, load_checkpoint, paper_preset, save_checkpoint, train


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


# A small model for the commands that train (train, epoch-study).
SMALL_FLAGS = [
    "--vocab-size", "500", "--embed-dim", "8", "--head-hidden", "8",
    "--head-out", "6", "--batch-size", "16", "--epochs", "2",
]


@pytest.fixture
def corpus_path(tmp_path, capsys):
    p = tmp_path / "corpus.jsonl"
    code, _, _ = run(["synth", "--topics", "3", "--dialogues", "8",
                      "--turns", "4", "--words", "5", "--out", str(p)], capsys)
    assert code == 0
    return p


@pytest.fixture
def trained(tmp_path, corpus_path, capsys):
    pairs = tmp_path / "pairs.tsv"
    ckpt = tmp_path / "model.ckpt"
    code, _, _ = run(["build-pairs", "--strategy", "consec",
                      "--in", str(corpus_path), "--out", str(pairs)], capsys)
    assert code == 0
    code, _, _ = run(["train", "--pairs", str(pairs), "--out", str(ckpt)] + SMALL_FLAGS, capsys)
    assert code == 0
    return pairs, ckpt


def intent_tsv(tmp_path, corpus_path, include_oos=False):
    """Labels each surviving utterance with its dialogue's topic name."""
    lines = []
    for d in load_corpus(corpus_path):
        topic = topic_of_dialogue(d)
        for t in d.turns:
            lines.append(f"{t.text}\ttopic{topic}")
    if include_oos:
        lines += [f"totally unrelated words alpha beta {i}\toos" for i in range(4)]
    p = tmp_path / ("oos.tsv" if include_oos else "intent.tsv")
    p.write_text("\n".join(lines) + "\n")
    return p


def config_lines(stdout):
    """The ``key=value  # provenance`` lines of a resolved-configuration dump."""
    return [line for line in stdout.splitlines() if re.fullmatch(r"\w+=\S+  # \S+", line)]


@pytest.fixture
def tiny_pairs(tmp_path):
    p = tmp_path / "tiny.tsv"
    p.write_text("one two three four\tfive six seven eight\n"
                 "nine ten eleven twelve\tthirteen fourteen fifteen sixteen\n")
    return p


class TestResolvedConfig:
    def test_defaults_printed(self, tmp_path, capsys):
        p = tmp_path / "c.jsonl"
        code, out, _ = run(["synth", "--topics", "2", "--dialogues", "2", "--out", str(p)], capsys)
        assert code == 0
        assert "# resolved configuration" in out
        assert config_lines(out) == ["seed=0  # default"]

    def test_paper_preset(self, tmp_path, tiny_pairs, capsys):
        code, out, _ = run(["train", "--preset", "paper", "--pairs", str(tiny_pairs),
                            "--out", str(tmp_path / "m.ckpt")], capsys)
        assert code == 0
        assert "batch_size=1024  # preset:paper" in out
        assert "epochs=15  # preset:paper" in out
        assert "temperature=0.05  # preset:paper" in out
        assert "lr_head=0.0003  # preset:paper" in out
        assert "lr_backbone=3e-06  # preset:paper" in out
        assert "head_out=128  # preset:paper" in out
        # build-pairs reads one key of the preset and resolves only that one
        corpus = tmp_path / "c.jsonl"
        run(["synth", "--topics", "2", "--dialogues", "2", "--out", str(corpus)], capsys)
        code, out, _ = run(["build-pairs", "--preset", "paper", "--strategy", "consec",
                            "--in", str(corpus), "--out", str(tmp_path / "p.tsv")], capsys)
        assert code == 0
        assert config_lines(out) == ["apply_length_filter=True  # preset:paper"]

    def test_flag_overrides_preset(self, tmp_path, tiny_pairs, capsys):
        code, out, _ = run(["train", "--preset", "paper", "--epochs", "3", "--pairs", str(tiny_pairs),
                            "--out", str(tmp_path / "m.ckpt")], capsys)
        assert code == 0
        assert "epochs=3  # flag" in out

    def test_config_file_layer(self, tmp_path, tiny_pairs, capsys):
        cf = tmp_path / "run.cfg"
        cf.write_text("# comment\ntemperature=0.2\nhard_negatives=false\n")
        code, out, _ = run(["train", "--config", str(cf), "--pairs", str(tiny_pairs),
                            "--out", str(tmp_path / "m.ckpt")] + SMALL_FLAGS, capsys)
        assert code == 0
        assert "temperature=0.2  # config-file" in out
        assert "hard_negatives=False  # config-file" in out

    def test_bad_config_field(self, tmp_path, capsys):
        cf = tmp_path / "run.cfg"
        cf.write_text("no_such_field=1\n")
        code, _, err = run(["synth", "--config", str(cf), "--topics", "2",
                            "--dialogues", "2", "--out", str(tmp_path / "c.jsonl")], capsys)
        assert code == 1
        assert "no_such_field" in err

    def test_unread_config_key(self, tmp_path, trained, capsys):
        pairs, ckpt = trained
        cf = tmp_path / "run.cfg"
        cf.write_text("seed=3\n\ntemperature=0.2\n")
        code, stdout, err = run(["eval-rank", "--ckpt", str(ckpt), "--data", str(pairs),
                                 "--config", str(cf)], capsys)
        assert code == 1
        assert err == f"error: {cf}:3: 'temperature' is not a config key of this command\n"
        assert "Top-1=" not in stdout

    def test_config_file_not_utf8(self, tmp_path, trained, capsys):
        pairs, ckpt = trained
        cf = tmp_path / "run.cfg"
        cf.write_bytes(b"seed=3\n# caf\xe9\n")
        code, _, err = run(["eval-rank", "--ckpt", str(ckpt), "--data", str(pairs), "--config", str(cf)], capsys)
        assert code == 1
        assert err == f"error: {cf}: line 2: invalid UTF-8 byte 0xe9 (invalid continuation byte)\n"

    def test_paper_preset_is_the_trainer_preset(self):
        cfg = RunConfig(TrainConfig)
        cfg.apply_preset("paper")
        assert cfg.build(TrainConfig) == paper_preset()

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            RunConfig(TrainConfig).apply_preset("nope")

    def test_config_objects(self):
        cfg = RunConfig(EncoderConfig, LossConfig, TrainConfig)
        cfg.apply_preset("paper")
        assert isinstance(cfg.build(EncoderConfig), EncoderConfig)
        assert isinstance(cfg.build(LossConfig), LossConfig)
        tc = cfg.build(TrainConfig)
        assert isinstance(tc, TrainConfig)
        assert tc.batch_size == 1024 and tc.lr_backbone == pytest.approx(3e-6)

    def test_enum_field_from_file_and_flag(self, tmp_path, corpus_path, trained, capsys):
        _, ckpt = trained
        data = intent_tsv(tmp_path, corpus_path, include_oos=True)
        cf = tmp_path / "run.cfg"
        cf.write_text("threshold_rule=mean_minus_std\n")
        args = ["eval-oos", "--ckpt", str(ckpt), "--data", str(data), "--config", str(cf)]
        code, out, _ = run(args + ["--stats-population", "test_in_only"], capsys)
        assert code == 0
        assert "threshold_rule=mean_minus_std  # config-file" in out
        assert "stats_population=test_in_only  # flag" in out
        cf.write_text("threshold_rule=median\n")
        code, _, err = run(args, capsys)
        assert code == 1
        assert "threshold_rule" in err and "mean_minus_std" in err

    def test_schema_is_the_dataclass_fields(self):
        for cls in (PairBuildConfig, EncoderConfig, LossConfig, TrainConfig, OOSConfig):
            assert RunConfig(cls).build(cls) == cls()
        assert RunConfig(OOSConfig).values["threshold_rule"] is ThresholdRule.MEAN
        assert RunConfig(*RUN_DEFAULTS).values == RUN_DEFAULTS
        every = RunConfig(PairBuildConfig, EncoderConfig, LossConfig, TrainConfig, OOSConfig, *RUN_DEFAULTS)
        assert "max_history_tokens" not in every.values
        assert len(every.values) == 23


class TestCommandPlumbing:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_synth_deterministic_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for p in (a, b):
            code, _, _ = run(["synth", "--topics", "2", "--dialogues", "4",
                              "--seed", "5", "--out", str(p)], capsys)
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_synth_seed_changes_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run(["synth", "--topics", "2", "--dialogues", "4", "--seed", "1", "--out", str(a)], capsys)
        run(["synth", "--topics", "2", "--dialogues", "4", "--seed", "2", "--out", str(b)], capsys)
        assert a.read_bytes() != b.read_bytes()

    def test_build_pairs_counts(self, tmp_path, corpus_path, capsys):
        out = tmp_path / "pairs.tsv"
        code, stdout, _ = run(["build-pairs", "--strategy", "consec",
                               "--in", str(corpus_path), "--out", str(out)], capsys)
        assert code == 0
        # 24 dialogues x 4 turns, all surviving -> 3 pairs each
        assert "wrote 72 pairs" in stdout
        assert len(out.read_text().splitlines()) == 72

    def test_train_rejects_wordless_pair_row(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("one two three four\tfive six seven eight\n\tfoo bar\n")
        code, _, err = run(["train", "--pairs", str(pairs), "--out", str(tmp_path / "m.ckpt")]
                           + SMALL_FLAGS, capsys)
        assert code == 1
        assert err == f"error: {pairs}: line 2: field 1 has no word\n"

    def test_floating_point_error_exits_cleanly(self, tmp_path, capsys, monkeypatch):
        def diverge(*args, **kwargs):
            raise FloatingPointError("non-finite batch loss")

        monkeypatch.setattr("dse.cli.train", diverge)
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("one two three four\tfive six seven eight\n")
        code, _, err = run(["train", "--pairs", str(pairs), "--out", str(tmp_path / "m.ckpt")], capsys)
        assert code == 1
        assert err == "error: non-finite batch loss\n"

    def test_build_pairs_length_filter_flag(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        turns = ["one two three four", "hi", "five six seven eight", "nine ten eleven twelve"]
        dialogue = {"id": "d0", "turns": [{"speaker": "usr", "text": t} for t in turns]}
        corpus.write_text(json.dumps(dialogue) + "\n")
        out = tmp_path / "p.tsv"
        counts = []
        for value in ("true", "false"):
            code, stdout, _ = run(["build-pairs", "--strategy", "consec", "--in", str(corpus),
                                   "--out", str(out), "--apply-length-filter", value], capsys)
            assert code == 0
            assert f"apply_length_filter={value.capitalize()}  # flag" in stdout
            counts.append(len(out.read_text().splitlines()))
        # "hi" is dropped and breaks adjacency with the filter on; without it every turn pairs
        assert counts == [1, 3]

    @pytest.mark.parametrize("flag, value, field", [
        ("--temperature", "inf", "temperature"),
        ("--lr-head", "nan", "lr_head"),
    ])
    def test_train_rejects_non_finite_hyperparameter(self, tmp_path, capsys, flag, value, field):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("one two three four\tfive six seven eight\n" * 4)
        out = tmp_path / "m.ckpt"
        code, stdout, err = run(["train", "--pairs", str(pairs), "--out", str(out), flag, value]
                                + SMALL_FLAGS, capsys)
        assert code == 1
        assert err.startswith(f"error: {field} must be finite and positive")
        assert not any(line.startswith("epoch ") for line in stdout.splitlines())
        assert not out.exists()

    def test_train_rejects_negative_seed_by_name(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("one two three four\tfive six seven eight\n" * 4)
        out = tmp_path / "m.ckpt"
        code, stdout, err = run(["train", "--pairs", str(pairs), "--out", str(out), "--dropout-seed", "-1"]
                                + SMALL_FLAGS, capsys)
        assert code == 1
        assert err == "error: dropout_seed must be >= 0, got -1\n"
        assert not any(line.startswith("epoch ") for line in stdout.splitlines())
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "epoch-study", "eval-rank"])
    def test_missing_out_directory_named_before_the_work(self, tmp_path, trained, capsys, monkeypatch, command):
        pairs, ckpt = trained
        monkeypatch.setattr("dse.cli.train", lambda *a, **k: pytest.fail("trained despite a missing --out directory"))
        out = tmp_path / "missing_dir" / "m.out"
        inputs = {"train": ["--pairs", str(pairs)] + SMALL_FLAGS,
                  "epoch-study": ["--in", str(pairs), "--intent-data", str(pairs)] + SMALL_FLAGS,
                  "eval-rank": ["--ckpt", str(ckpt), "--data", str(pairs), "--n-candidates", "10"]}
        code, stdout, err = run([command, *inputs[command], "--out", str(out)], capsys)
        assert code == 1
        assert err == f"error: --out {out}: no such directory: {out.parent}\n"
        assert "Top-1=" not in stdout

    @pytest.mark.parametrize("command", ["train", "embed", "eval-rank"])
    def test_out_naming_a_directory_refused_before_the_work(self, tmp_path, trained, capsys, monkeypatch, command):
        pairs, ckpt = trained
        monkeypatch.setattr("dse.cli.train", lambda *a, **k: pytest.fail("trained despite a directory at --out"))
        monkeypatch.setattr("dse.cli.load_checkpoint", lambda *a: pytest.fail("loaded despite a directory at --out"))
        out = tmp_path / "out_dir"
        out.mkdir()
        inputs = {"train": ["--pairs", str(pairs)] + SMALL_FLAGS,
                  "embed": ["--ckpt", str(ckpt), "--in", str(pairs)],
                  "eval-rank": ["--ckpt", str(ckpt), "--data", str(pairs), "--n-candidates", "10"]}
        code, stdout, err = run([command, *inputs[command], "--out", str(out)], capsys)
        assert code == 1
        assert err == f"error: --out {out}: is a directory\n"
        assert "wrote" not in stdout and "Top-1=" not in stdout
        assert list(out.iterdir()) == []

    def test_embed_texts_file_naming_a_directory_refused_before_the_work(self, tmp_path, trained, capsys, monkeypatch):
        pairs, ckpt = trained
        monkeypatch.setattr("dse.cli.load_checkpoint", lambda *a: pytest.fail("loaded despite a directory at X.texts"))
        out = tmp_path / "emb.txt"
        Path(str(out) + ".texts").mkdir()
        before = sorted(tmp_path.rglob("*"))
        code, stdout, err = run(["embed", "--ckpt", str(ckpt), "--in", str(pairs), "--out", str(out)], capsys)
        assert code == 1
        assert err == f"error: {out}.texts: is a directory\n"
        assert "wrote" not in stdout
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command", ["synth", "eval-intent", "eval-rank"])
    def test_negative_seed_named_before_reading(self, tmp_path, capsys, command):
        unread = str(tmp_path / "unread")
        inputs = {"synth": ["--topics", "2", "--out", unread],
                  "eval-intent": ["--ckpt", unread, "--data", unread],
                  "eval-rank": ["--ckpt", unread, "--data", unread]}
        code, stdout, err = run([command, *inputs[command], "--seed", "-1"], capsys)
        assert code == 1
        assert err == "error: seed must be >= 0, got -1\n"
        assert stdout == "" and not Path(unread).exists()

    def test_build_pairs_missing_corpus(self, tmp_path, capsys):
        code, _, err = run(["build-pairs", "--strategy", "consec",
                            "--in", str(tmp_path / "nope.jsonl"),
                            "--out", str(tmp_path / "o.tsv")], capsys)
        assert code == 1
        assert err.startswith("error:")

    def test_train_embed_inspect_flow(self, tmp_path, trained, capsys):
        _, ckpt = trained
        texts = tmp_path / "texts.txt"
        texts.write_text("hello world one two\nanother line of text\n")
        emb = tmp_path / "emb.txt"
        code, _, _ = run(["embed", "--ckpt", str(ckpt), "--in", str(texts), "--out", str(emb)], capsys)
        assert code == 0
        code, stdout, _ = run(["inspect", str(emb)], capsys)
        assert code == 0
        assert "n=2 dim=8" in stdout

    def test_embed_input_not_utf8(self, tmp_path, trained, capsys):
        _, ckpt = trained
        texts = tmp_path / "texts.txt"
        texts.write_bytes(b"hello world\n\nbad \xff byte\n")
        emb = tmp_path / "emb.txt"
        code, _, err = run(["embed", "--ckpt", str(ckpt), "--in", str(texts), "--out", str(emb)], capsys)
        assert code == 1
        assert err == f"error: {texts}: line 3: invalid UTF-8 byte 0xff (invalid start byte)\n"
        assert not emb.exists()

    @pytest.mark.parametrize("fault, message", [
        ("rows repeat", "checkpoint rows: not strictly increasing at index 1 "),
        ("row out of range", r"checkpoint rows: row 500 outside \[0, vocab_size=500\)"),
        ("live_rows too large",
         "truncated checkpoint: array payload too short: [0-9]+ bytes, where live_rows=[0-9]+ needs"),
        ("negative init_seed", "checkpoint header: init_seed must be >= 0, got -1"),
        ("old format", "DSECKPT1 checkpoint: the format changed to DSECKPT2"),
        ("vocab_size beyond memory", "checkpoint header: vocab_size=100000 makes a dense table too large"),
    ])
    def test_embed_on_bad_checkpoint_is_one_error_line(self, tmp_path, trained, capsys, monkeypatch, fault, message):
        _, ckpt = trained
        data = ckpt.read_bytes()
        end = data.index(b"\n\n")
        header, body = data[:end], bytearray(data[end:])
        live = int(re.search(rb"\nlive_rows=([0-9]+)", header).group(1))
        rows = np.frombuffer(body, "<i8", live, 2)
        if fault == "rows repeat":
            rows[1] = rows[0]
        elif fault == "row out of range":
            rows[-1] = 500  # SMALL_FLAGS' vocab size
        elif fault == "live_rows too large":
            header = header.replace(b"live_rows=%d" % live, b"live_rows=%d" % (live + 1))
        elif fault == "negative init_seed":
            header = header.replace(b"\ninit_seed=0\n", b"\ninit_seed=-1\n")
        elif fault == "vocab_size beyond memory":  # a 3.2 MB table on a host of 2 MiB
            header = header.replace(b"\nvocab_size=500\n", b"\nvocab_size=100000\n")
            monkeypatch.setattr("dse.trainer._physical_memory", lambda: 2 << 20)
        else:
            header = b"DSECKPT1\n" + header[len(b"DSECKPT2\n"):]
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(header + body)
        emb = tmp_path / "emb.txt"
        texts = tmp_path / "texts.txt"
        texts.write_text("hello world\n")
        code, stdout, err = run(["embed", "--ckpt", str(bad), "--in", str(texts), "--out", str(emb)], capsys)
        assert (code, stdout) == (1, "")
        assert re.fullmatch(f"error: {message}.*\n", err)
        assert not emb.exists()

    def test_inspect_input_not_utf8(self, tmp_path, capsys):
        emb = tmp_path / "emb.txt"
        emb.write_bytes(b"1 2\n0.5 0.\xff\n")
        code, stdout, err = run(["inspect", str(emb)], capsys)
        assert code == 1
        assert err == f"error: {emb}: line 2: invalid UTF-8 byte 0xff (invalid start byte)\n"
        assert stdout == ""

    def test_train_rejects_small_vocab_before_training(self, tmp_path, tiny_pairs, capsys):
        out = tmp_path / "m.ckpt"
        code, stdout, err = run(["train", "--pairs", str(tiny_pairs), "--out", str(out), "--vocab-size", "5"],
                                capsys)
        assert code == 1
        assert err == "error: vocab_size must be >= 8, got 5\n"
        assert not any(line.startswith("epoch ") for line in stdout.splitlines())
        assert not out.exists()

    def test_embed_then_inspect_no_text(self, tmp_path, trained, capsys):
        _, ckpt = trained
        texts = tmp_path / "blank.txt"
        texts.write_text("\n  \n")
        emb = tmp_path / "emb.txt"
        code, stdout, _ = run(["embed", "--ckpt", str(ckpt), "--in", str(texts), "--out", str(emb)], capsys)
        assert code == 0
        assert "wrote 0 x 8 embeddings" in stdout
        code, stdout, err = run(["inspect", str(emb)], capsys)
        assert (code, stdout, err) == (0, "n=0 dim=8\n", "")

    def test_train_writes_epoch_checkpoints(self, tmp_path, corpus_path, capsys):
        pairs = tmp_path / "p.tsv"
        run(["build-pairs", "--strategy", "consec", "--in", str(corpus_path),
             "--out", str(pairs)], capsys)
        ckpt_dir, out = tmp_path / "epochs", tmp_path / "m.ckpt"
        code, _, _ = run(["train", "--pairs", str(pairs), "--out", str(out),
                          "--epoch-ckpt-dir", str(ckpt_dir)] + SMALL_FLAGS, capsys)
        assert code == 0
        names = sorted(p.name for p in ckpt_dir.iterdir())
        assert names == ["epoch001.ckpt", "epoch002.ckpt"]
        # the last epoch's file is the final state under the same config digest
        assert (ckpt_dir / names[-1]).read_bytes() == out.read_bytes()
        assert [load_checkpoint(ckpt_dir / name).epoch for name in names] == [1, 2]


class TestEvalCommands:
    def test_eval_intent(self, tmp_path, corpus_path, trained, capsys):
        _, ckpt = trained
        data = intent_tsv(tmp_path, corpus_path)
        report_path = tmp_path / "report.json"
        code, stdout, _ = run(["eval-intent", "--ckpt", str(ckpt), "--data", str(data),
                               "--out", str(report_path), "--shots", "2"], capsys)
        assert code == 0
        assert stdout.endswith("task=intent_classification\nsupport=6\nseed=0\nAccuracy=0.5\n")
        report = json.loads(report_path.read_text())
        assert report["task"] == "intent_classification"
        assert report["metrics"] == {"Accuracy": 0.5}

    def test_eval_intent_rejects_negative_shots(self, tmp_path, corpus_path, trained, capsys):
        _, ckpt = trained
        data = intent_tsv(tmp_path, corpus_path)
        code, _, stderr = run(["eval-intent", "--ckpt", str(ckpt), "--data", str(data),
                               "--shots", "-1"], capsys)
        assert code == 1
        assert stderr.startswith("error: ") and "shots" in stderr

    # Values read from the trained fixture's model: 96 in-scope and 4 OOS queries.
    OOS_METRICS = {
        (): "Accuracy=0.37\nIn-Accuracy=0.3541666666666667\nOOS-Accuracy=0.57\nOOS-Recall=0.75\n",
        ("--threshold-rule", "mean_minus_std"):
            "Accuracy=0.47\nIn-Accuracy=0.4895833333333333\nOOS-Accuracy=0.77\nOOS-Recall=0.0\n",
        ("--stats-population", "test_in_only"):
            "Accuracy=0.37\nIn-Accuracy=0.3541666666666667\nOOS-Accuracy=0.57\nOOS-Recall=0.75\n",
        ("--threshold-rule", "mean_minus_std", "--stats-population", "test_in_only"):
            "Accuracy=0.48\nIn-Accuracy=0.5\nOOS-Accuracy=0.8\nOOS-Recall=0.0\n",
    }

    def run_eval_oos(self, tmp_path, corpus_path, ckpt, capsys, flags):
        data = intent_tsv(tmp_path, corpus_path, include_oos=True)
        code, stdout, _ = run(["eval-oos", "--ckpt", str(ckpt), "--data", str(data),
                               "--shots", "2", *flags], capsys)
        assert code == 0
        assert stdout.endswith("task=oos_detection\nsupport=100\nseed=0\n" + self.OOS_METRICS[flags])

    def test_eval_oos(self, tmp_path, corpus_path, trained, capsys):
        self.run_eval_oos(tmp_path, corpus_path, trained[1], capsys, ())

    @pytest.mark.parametrize("flags", list(OOS_METRICS)[1:], ids=lambda flags: "+".join(flags[1::2]))
    def test_eval_oos_other_thresholds(self, tmp_path, corpus_path, trained, capsys, flags):
        self.run_eval_oos(tmp_path, corpus_path, trained[1], capsys, flags)

    def test_eval_rank(self, tmp_path, trained, capsys):
        pairs, ckpt = trained
        code, stdout, _ = run(["eval-rank", "--ckpt", str(ckpt), "--data", str(pairs),
                               "--n-candidates", "10"], capsys)
        assert code == 0
        assert "Top-1=" in stdout and "Top-3=" in stdout

    @pytest.mark.parametrize("value", ["0", "1"])
    def test_eval_rank_rejects_fewer_than_two_candidates(self, tmp_path, trained, capsys, value):
        pairs, ckpt = trained
        code, stdout, err = run(["eval-rank", "--ckpt", str(ckpt), "--data", str(pairs),
                                 "--n-candidates", value], capsys)
        assert code == 1
        assert err.startswith("error: n_candidates must be >= 2")
        assert "Top-1=" not in stdout

    def test_eval_rank_on_comment_only_pair_file(self, tmp_path, trained, capsys):
        _, ckpt = trained
        data = tmp_path / "comments.tsv"
        data.write_text("# query\tresponse\n# nothing else\n")
        code, stdout, err = run(["eval-rank", "--ckpt", str(ckpt), "--data", str(data)], capsys)
        assert code == 1
        assert err == f"error: {data}: no data lines\n"
        assert "Top-1=" not in stdout

    @pytest.mark.parametrize("command, flag", [("eval-nli", "--data"), ("eval-intent", "--data"),
                                               ("eval-oos", "--data"), ("eval-actions", "--train-data"),
                                               ("eval-actions", "--data")])
    def test_eval_on_comment_only_file_names_it(self, tmp_path, trained, capsys, command, flag):
        _, ckpt = trained
        empty = tmp_path / "empty.tsv"
        empty.write_text("# text\tlabel\n\n")
        other = tmp_path / "acts.tsv"
        other.write_text("book a table now\tbook\n")
        files = {"--data": other, "--train-data": other} if command == "eval-actions" else {}
        files[flag] = empty
        args = [command, "--ckpt", str(ckpt)] + [x for kv in files.items() for x in (kv[0], str(kv[1]))]
        code, stdout, err = run(args, capsys)
        assert code == 1
        assert err == f"error: {empty}: no data lines\n"
        assert "Accuracy=" not in stdout and "F1=" not in stdout

    def test_eval_nli(self, tmp_path, trained, capsys):
        _, ckpt = trained
        data = tmp_path / "nli.tsv"
        data.write_text("book a table for two\treserve a table please\tcancel my flight now\n")
        code, stdout, _ = run(["eval-nli", "--ckpt", str(ckpt), "--data", str(data)], capsys)
        assert code == 0
        assert "Accuracy=" in stdout
        with data.open("a") as fh:
            fh.write("\treserve it\tcancel now\n")
        code, _, err = run(["eval-nli", "--ckpt", str(ckpt), "--data", str(data)], capsys)
        assert code == 1
        assert err == f"error: {data}: line 2: field 1 has no word\n"

    def test_eval_actions(self, tmp_path, trained, capsys):
        _, ckpt = trained
        train_data = tmp_path / "acts_train.tsv"
        train_data.write_text("book a table now\tbook\ncancel it all please\tcancel\n"
                              "book then cancel today\tbook,cancel\n")
        test_data = tmp_path / "acts_test.tsv"
        test_data.write_text("please book something nice\tbook\njust cancel everything now\tcancel\n")
        code, stdout, _ = run(["eval-actions", "--ckpt", str(ckpt),
                               "--train-data", str(train_data), "--data", str(test_data)], capsys)
        assert code == 0
        assert "Micro-F1=" in stdout and "Macro-F1=" in stdout
        test_data.write_text("please book something nice\tbook\n")
        code, _, stderr = run(["eval-actions", "--ckpt", str(ckpt),
                               "--train-data", str(train_data), "--data", str(test_data)], capsys)
        assert code == 1
        assert stderr == "error: train and test label sets differ\n"

    def test_eval_actions_format_error_names_the_data_file(self, tmp_path, trained, capsys):
        _, ckpt = trained
        train_data = tmp_path / "acts_train.tsv"
        train_data.write_text("book a table now\tbook\ncancel it all please\tcancel\n")
        bad = tmp_path / "bad.tsv"
        bad.write_text("please book something nice\tbook\n\tbook\n")
        code, stdout, err = run(["eval-actions", "--ckpt", str(ckpt),
                                 "--train-data", str(train_data), "--data", str(bad)], capsys)
        assert code == 1
        assert err == f"error: {bad}: line 2: field 1 has no word\n"
        assert "Micro-F1=" not in stdout

    @pytest.mark.parametrize("flag, value, message", [
        ("--probe-epochs", "-5", "epochs must be >= 0"),
        ("--probe-lr", "nan", "lr must be finite and positive"),
        ("--probe-lr", "0", "lr must be finite and positive"),
        ("--probe-lr", "inf", "lr must be finite and positive"),
    ])
    def test_eval_actions_rejects_bad_probe_settings(self, tmp_path, capsys, flag, value, message):
        data = tmp_path / "acts.tsv"
        data.write_text("book a table now\tbook\ncancel it all please\tcancel\n")
        # no checkpoint file: the settings are checked before it is loaded
        code, stdout, err = run(["eval-actions", "--ckpt", str(tmp_path / "missing.ckpt"),
                                 "--train-data", str(data), "--data", str(data), flag, value], capsys)
        assert code == 1
        # the error names the config key the user set
        assert err.startswith(f"error: probe_{message}")
        assert "Micro-F1=" not in stdout

    @pytest.mark.parametrize("command", ["eval-intent", "eval-oos", "eval-rank", "eval-nli", "eval-actions"])
    def test_out_holds_the_printed_report(self, tmp_path, corpus_path, trained, capsys, command):
        pairs, ckpt = trained
        acts = tmp_path / "acts.tsv"
        acts.write_text("book a table now\tbook\ncancel it all please\tcancel\nbook then cancel today\tbook,cancel\n")
        nli = tmp_path / "nli.tsv"
        nli.write_text("book a table for two\treserve a table please\tcancel my flight now\n")
        inputs = {"eval-intent": ["--data", str(intent_tsv(tmp_path, corpus_path)), "--shots", "2"],
                  "eval-oos": ["--data", str(intent_tsv(tmp_path, corpus_path, include_oos=True)), "--shots", "2"],
                  "eval-rank": ["--data", str(pairs), "--n-candidates", "10", "--seed", "3"],
                  "eval-nli": ["--data", str(nli)],
                  "eval-actions": ["--train-data", str(acts), "--data", str(acts)]}
        out = tmp_path / "report.json"
        code, stdout, _ = run([command, "--ckpt", str(ckpt), *inputs[command], "--out", str(out)], capsys)
        assert code == 0
        printed = dict(line.split("=", 1) for line in stdout[stdout.index("task="):].splitlines())
        lines = out.read_text().splitlines()
        assert len(lines) == 1
        report = json.loads(lines[0])
        assert report.keys() == {"task", "support", "seed", "metrics"}
        assert (report["task"], str(report["support"]), str(report["seed"])) == (
            printed.pop("task"), printed.pop("support"), printed.pop("seed"))
        assert report["metrics"] == {k: float(v) for k, v in printed.items()}


class TestEpochStudy:
    def make_inputs(self):
        dialogues = gen_synthetic(3, 10, 4, 5, seed=0)
        items = []
        for d in dialogues:
            topic = topic_of_dialogue(d)
            for t in d.turns:
                items.append((t.text, topic))
        intent = LabeledSet(items=tuple(items), label_names=("topic0", "topic1", "topic2"))
        enc = EncoderConfig(vocab_size=500, embed_dim=8, head_hidden=8, head_out=6)
        return dialogues, intent, enc

    def test_one_row_per_epoch_per_strategy(self):
        dialogues, intent, enc = self.make_inputs()
        results = run_epoch_study(dialogues, enc, LossConfig(), TrainConfig(batch_size=16, epochs=3),
                                  intent, shots=1, eval_seed=0)
        assert set(results) == {"consec", "self"}
        for rows in results.values():
            assert len(rows) == 3
            for row in rows:
                assert set(row.metrics) == {"Accuracy", "TrainLoss"}

    def test_bitwise_reproducible(self):
        dialogues, intent, enc = self.make_inputs()
        cfgs = (LossConfig(), TrainConfig(batch_size=16, epochs=2))
        a = run_epoch_study(dialogues, enc, *cfgs, intent)
        b = run_epoch_study(dialogues, enc, *cfgs, intent)
        for strategy in a:
            for ra, rb in zip(a[strategy], b[strategy]):
                assert ra.metrics == rb.metrics

    def test_final_row_is_eval_intents_accuracy(self, tmp_path):
        # the consec variant's last epoch, scored as eval-intent scores train's saved checkpoint
        dialogues, intent, enc = self.make_inputs()
        cfgs = (LossConfig(), TrainConfig(batch_size=16, epochs=2))
        rows = run_epoch_study(dialogues, enc, *cfgs, intent, shots=2, eval_seed=3)
        path = tmp_path / "m.ckpt"
        save_checkpoint(train(build_pairs(dialogues, "consec"), enc, *cfgs).checkpoint, path)
        support, validation = sample_few_shot(intent, 2, 3)
        acc = _intent_accuracy(support, validation, _make_embedder(load_checkpoint(path)))
        assert rows["consec"][-1].metrics["Accuracy"] == acc

    def test_vocab_size_beyond_memory_fails_before_any_step(self, monkeypatch):
        dialogues, intent, enc = self.make_inputs()
        steps = []
        step = trainer_mod.adam_step
        monkeypatch.setattr(trainer_mod, "adam_step", lambda *args: steps.append(1) or step(*args))
        with pytest.raises(ValueError, match="^vocab_size=10000000000000 makes a dense table too large to allocate$"):
            run_epoch_study(dialogues, replace(enc, vocab_size=10**13), LossConfig(),
                            TrainConfig(batch_size=16, epochs=2), intent)
        assert steps == []
        run_epoch_study(dialogues, enc, LossConfig(), TrainConfig(batch_size=16, epochs=1), intent)
        assert steps  # the counter sees the steps of a run that trains

    def test_cli_output_format(self, tmp_path, corpus_path, capsys):
        data = intent_tsv(tmp_path, corpus_path)
        out = tmp_path / "study.jsonl"
        code, stdout, _ = run(["epoch-study", "--in", str(corpus_path),
                               "--intent-data", str(data), "--out", str(out)] + SMALL_FLAGS, capsys)
        assert code == 0
        assert stdout.count("consec epoch=") == 2
        assert stdout.count("self epoch=") == 2
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(rows) == 4
        assert {r["task"] for r in rows} == {"epoch_study/consec", "epoch_study/self"}

    def test_cli_length_filter_flag(self, tmp_path, corpus_path, capsys):
        # a two-word turn in every dialogue: the filter drops it and the pairs around it
        corpus = tmp_path / "short.jsonl"
        lines = []
        for line in corpus_path.read_text().splitlines():
            dialogue = json.loads(line)
            dialogue["turns"].insert(2, {"speaker": "usr", "text": "ok sure"})
            lines.append(json.dumps(dialogue))
        corpus.write_text("\n".join(lines) + "\n")
        data = intent_tsv(tmp_path, corpus_path)
        losses = {}
        for value in ("true", "false"):
            code, stdout, _ = run(["epoch-study", "--in", str(corpus), "--intent-data", str(data),
                                   "--apply-length-filter", value] + SMALL_FLAGS, capsys)
            assert code == 0
            assert f"apply_length_filter={value.capitalize()}  # flag" in stdout
            losses[value] = [line.split("TrainLoss=")[1] for line in stdout.splitlines()
                             if line.startswith("consec epoch=")]
        assert len(losses["true"]) == 2
        assert losses["true"] != losses["false"]


def subcommands():
    parser = build_parser()
    return next(a for a in parser._actions if hasattr(a, "choices") and a.choices).choices


def keys_of(*classes):
    return {f.name for cls in classes for f in fields(cls)}


TRAINING_KEYS = keys_of(EncoderConfig, LossConfig, TrainConfig)
# The config keys each command reads, with "preset"/"config" where it takes them.
CONFIG_FLAGS = {
    "synth": {"config", "seed"},
    "build-pairs": {"preset", "config"} | keys_of(PairBuildConfig),
    "train": {"preset", "config"} | TRAINING_KEYS,
    "embed": set(),
    "inspect": set(),
    "eval-intent": {"config", "seed", "shots"},
    "eval-oos": {"config", "seed", "shots"} | keys_of(OOSConfig),
    "eval-rank": {"config", "seed", "n_candidates"},
    "eval-nli": set(),
    "eval-actions": {"config", "probe_epochs", "probe_lr"},
    "epoch-study": {"preset", "config", "seed", "shots"} | keys_of(PairBuildConfig) | TRAINING_KEYS,
}


class TestParser:
    def test_config_flags_per_subcommand(self):
        every_key = {"preset", "config", *RUN_DEFAULTS} | TRAINING_KEYS | keys_of(PairBuildConfig, OOSConfig)
        got = {}
        for name, p in subcommands().items():
            flags = {act.dest: act.option_strings for act in p._actions if act.dest in every_key}
            for dest, options in flags.items():
                assert options == [f"--{dest.replace('_', '-')}"], (name, dest)
            got[name] = set(flags)
        assert got == CONFIG_FLAGS
        assert sum(map(len, got.values())) == 56

    def test_unread_flag_is_a_usage_error(self, tmp_path, trained, capsys):
        pairs, ckpt = trained
        with pytest.raises(SystemExit) as exc:
            main(["eval-rank", "--ckpt", str(ckpt), "--data", str(pairs), "--vocab-size", "5"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --vocab-size 5" in err
        assert err.startswith("usage: dse eval-rank ")

    def test_readme_flow_checkpoints_match_pinned_digests(self):
        # tools/cli_digests.py's check; the pins were taken on numpy 2.4.6 and scipy-openblas 0.3.31
        assert cli_digests.digests() == {name: want for name, (_, want) in cli_digests.PINNED.items()}

    def test_each_mutant_fragment_occurs_once_in_its_file(self):
        for name, rel, old, _, killer in mutants.MUTANTS:
            assert (mutants.REPO / rel).read_text().count(old) == 1, name
            assert killer is None or (mutants.REPO / killer.split("::")[0]).is_file(), name

    def test_readme_commands_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## CLI", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
        commands = [shlex.split(line, comments=True)
                    for line in block.replace("\\\n", " ").splitlines()]
        commands = [argv for argv in commands if argv]
        assert all(argv[0] == "dse" for argv in commands)
        assert {argv[1] for argv in commands} == set(subcommands())
        parser = build_parser()
        for argv in commands:
            parser.parse_args(argv[1:])

    def test_strategy_choices_are_the_builder_strategies(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if hasattr(a, "choices") and a.choices)
        action = next(a for a in sub.choices["build-pairs"]._actions if a.dest == "strategy")
        assert action.choices == [*STRATEGIES, "file"]

    @pytest.mark.parametrize("strategy", [*STRATEGIES, "file"])
    @pytest.mark.parametrize("apply_filter", ["true", "false"])
    def test_build_pairs_writes_the_builder_output(self, tmp_path, capsys, strategy, apply_filter):
        corpus = tmp_path / "c.jsonl"
        turns = ["one two three four", "hi", "five six seven eight", "nine ten eleven twelve",
                 "  one two three four ", "thirteen fourteen fifteen sixteen"]
        dialogue = {"id": "d0", "turns": [{"speaker": "usr", "text": t} for t in turns]}
        corpus.write_text(json.dumps(dialogue) + "\n")
        source = corpus
        if strategy == "file":
            source = tmp_path / "in.tsv"
            source.write_text("# comment\none two three\tfour five six\n")
            want = load_pair_file(source)
        else:
            cfg = PairBuildConfig(apply_length_filter=apply_filter == "true")
            want = build_pairs(load_corpus(corpus), strategy, cfg)
        expected = tmp_path / "expected.tsv"
        save_pair_file(want, expected)
        out = tmp_path / "p.tsv"
        code, _, _ = run(["build-pairs", "--strategy", strategy, "--in", str(source),
                          "--out", str(out), "--apply-length-filter", apply_filter], capsys)
        assert code == 0
        assert out.read_bytes() == expected.read_bytes()

    def test_bool_flag_error_names_field(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["build-pairs", "--apply-length-filter", "maybe", "--strategy", "consec",
                  "--in", str(tmp_path / "c.jsonl"), "--out", str(tmp_path / "p.tsv")])
        assert "field 'apply_length_filter': expected a boolean" in capsys.readouterr().err
