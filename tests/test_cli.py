import json

import pytest

from dse.cli import RunConfig, build_parser, main, run_epoch_study
from dse.corpus import gen_synthetic, load_corpus, topic_of_dialogue
from dse.encoder import EncoderConfig
from dse.evaluation import LabeledSet, OOSConfig, ThresholdRule
from dse.loss import LossConfig
from dse.trainer import TrainConfig


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


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


class TestResolvedConfig:
    def test_defaults_printed(self, tmp_path, capsys):
        p = tmp_path / "c.jsonl"
        code, out, _ = run(["synth", "--topics", "2", "--dialogues", "2", "--out", str(p)], capsys)
        assert code == 0
        assert "# resolved configuration" in out
        assert "temperature=0.05  # default" in out

    def test_paper_preset(self, tmp_path, capsys):
        p = tmp_path / "c.jsonl"
        code, out, _ = run(["synth", "--preset", "paper", "--topics", "2",
                            "--dialogues", "2", "--out", str(p)], capsys)
        assert code == 0
        assert "batch_size=1024  # preset:paper" in out
        assert "epochs=15  # preset:paper" in out
        assert "temperature=0.05  # preset:paper" in out
        assert "lr_head=0.0003  # preset:paper" in out
        assert "lr_backbone=3e-06  # preset:paper" in out
        assert "head_out=128  # preset:paper" in out

    def test_flag_overrides_preset(self, tmp_path, capsys):
        p = tmp_path / "c.jsonl"
        code, out, _ = run(["synth", "--preset", "paper", "--epochs", "3",
                            "--topics", "2", "--dialogues", "2", "--out", str(p)], capsys)
        assert code == 0
        assert "epochs=3  # flag" in out

    def test_config_file_layer(self, tmp_path, capsys):
        cf = tmp_path / "run.cfg"
        cf.write_text("# comment\ntemperature=0.2\nhard_negatives=false\n")
        p = tmp_path / "c.jsonl"
        code, out, _ = run(["synth", "--config", str(cf), "--topics", "2",
                            "--dialogues", "2", "--out", str(p)], capsys)
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

    def test_env_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DSE_SEED", "77")
        cfg = RunConfig()
        assert cfg.values["seed"] == 77
        assert cfg.provenance["seed"] == "env"

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            RunConfig().apply_preset("nope")

    def test_config_objects(self):
        cfg = RunConfig()
        cfg.apply_preset("paper")
        assert isinstance(cfg.build(EncoderConfig), EncoderConfig)
        assert isinstance(cfg.build(LossConfig), LossConfig)
        tc = cfg.build(TrainConfig)
        assert isinstance(tc, TrainConfig)
        assert tc.batch_size == 1024 and tc.lr_backbone == pytest.approx(3e-6)

    def test_enum_field_from_file_and_flag(self, tmp_path, capsys):
        cf = tmp_path / "run.cfg"
        cf.write_text("threshold_rule=mean_minus_std\n")
        p = tmp_path / "c.jsonl"
        code, out, _ = run(["synth", "--config", str(cf), "--stats-population", "test_in_only",
                            "--topics", "2", "--dialogues", "2", "--out", str(p)], capsys)
        assert code == 0
        assert "threshold_rule=mean_minus_std  # config-file" in out
        assert "stats_population=test_in_only  # flag" in out
        cf.write_text("threshold_rule=median\n")
        code, _, err = run(["synth", "--config", str(cf), "--topics", "2",
                            "--dialogues", "2", "--out", str(p)], capsys)
        assert code == 1
        assert "threshold_rule" in err and "mean_minus_std" in err

    def test_schema_is_the_dataclass_fields(self):
        cfg = RunConfig()
        oos = cfg.build(OOSConfig)
        assert oos.threshold_rule is ThresholdRule.MEAN
        assert cfg.build(EncoderConfig) == EncoderConfig()
        assert cfg.build(TrainConfig) == TrainConfig()
        assert "max_history_tokens" not in cfg.values
        assert len(cfg.values) == 23


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
        assert err.startswith("error: line 2:")

    def test_floating_point_error_exits_cleanly(self, tmp_path, capsys, monkeypatch):
        def diverge(*args, **kwargs):
            raise FloatingPointError("non-finite batch loss")

        monkeypatch.setattr("dse.cli.train", diverge)
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("one two three four\tfive six seven eight\n")
        code, _, err = run(["train", "--pairs", str(pairs), "--out", str(tmp_path / "m.ckpt")], capsys)
        assert code == 1
        assert err == "error: non-finite batch loss\n"

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
        code, _, _ = run(["embed", "--ckpt", str(ckpt), "--in", str(texts),
                          "--out", str(emb)] + SMALL_FLAGS, capsys)
        assert code == 0
        code, stdout, _ = run(["inspect", str(emb)], capsys)
        assert code == 0
        assert "n=2 dim=8" in stdout

    def test_train_writes_epoch_checkpoints(self, tmp_path, corpus_path, capsys):
        pairs = tmp_path / "p.tsv"
        run(["build-pairs", "--strategy", "consec", "--in", str(corpus_path),
             "--out", str(pairs)], capsys)
        ckpt_dir = tmp_path / "epochs"
        code, _, _ = run(["train", "--pairs", str(pairs), "--out", str(tmp_path / "m.ckpt"),
                          "--epoch-ckpt-dir", str(ckpt_dir)] + SMALL_FLAGS, capsys)
        assert code == 0
        names = sorted(p.name for p in ckpt_dir.iterdir())
        assert names == ["epoch001.ckpt", "epoch002.ckpt"]


class TestEvalCommands:
    def test_eval_intent(self, tmp_path, corpus_path, trained, capsys):
        _, ckpt = trained
        data = intent_tsv(tmp_path, corpus_path)
        report_path = tmp_path / "report.json"
        code, stdout, _ = run(["eval-intent", "--ckpt", str(ckpt), "--data", str(data),
                               "--out", str(report_path), "--shots", "2"] + SMALL_FLAGS, capsys)
        assert code == 0
        assert "Accuracy=" in stdout
        report = json.loads(report_path.read_text())
        assert report["task"] == "intent_classification"
        assert 0.0 <= report["metrics"]["Accuracy"] <= 1.0

    def test_eval_intent_rejects_negative_shots(self, tmp_path, corpus_path, trained, capsys):
        _, ckpt = trained
        data = intent_tsv(tmp_path, corpus_path)
        code, _, stderr = run(["eval-intent", "--ckpt", str(ckpt), "--data", str(data),
                               "--shots", "-1"] + SMALL_FLAGS, capsys)
        assert code == 1
        assert stderr.startswith("error: ") and "shots" in stderr

    def test_eval_oos(self, tmp_path, corpus_path, trained, capsys):
        _, ckpt = trained
        data = intent_tsv(tmp_path, corpus_path, include_oos=True)
        code, stdout, _ = run(["eval-oos", "--ckpt", str(ckpt), "--data", str(data),
                               "--shots", "2"] + SMALL_FLAGS, capsys)
        assert code == 0
        for name in ("Accuracy", "In-Accuracy", "OOS-Accuracy", "OOS-Recall"):
            assert f"{name}=" in stdout

    def test_eval_rank(self, tmp_path, trained, capsys):
        pairs, ckpt = trained
        code, stdout, _ = run(["eval-rank", "--ckpt", str(ckpt), "--data", str(pairs),
                               "--n-candidates", "10"] + SMALL_FLAGS, capsys)
        assert code == 0
        assert "Top-1=" in stdout and "Top-3=" in stdout

    def test_eval_nli(self, tmp_path, trained, capsys):
        _, ckpt = trained
        data = tmp_path / "nli.tsv"
        data.write_text("book a table for two\treserve a table please\tcancel my flight now\n")
        code, stdout, _ = run(["eval-nli", "--ckpt", str(ckpt), "--data", str(data)] + SMALL_FLAGS, capsys)
        assert code == 0
        assert "Accuracy=" in stdout
        with data.open("a") as fh:
            fh.write("\treserve it\tcancel now\n")
        code, _, err = run(["eval-nli", "--ckpt", str(ckpt), "--data", str(data)] + SMALL_FLAGS, capsys)
        assert code == 1
        assert err.startswith("error: line 2:")

    def test_eval_actions(self, tmp_path, trained, capsys):
        _, ckpt = trained
        train_data = tmp_path / "acts_train.tsv"
        train_data.write_text("book a table now\tbook\ncancel it all please\tcancel\n"
                              "book then cancel today\tbook,cancel\n")
        test_data = tmp_path / "acts_test.tsv"
        test_data.write_text("please book something nice\tbook\njust cancel everything now\tcancel\n")
        code, stdout, _ = run(["eval-actions", "--ckpt", str(ckpt),
                               "--train-data", str(train_data), "--data", str(test_data)] + SMALL_FLAGS,
                              capsys)
        assert code == 0
        assert "Micro-F1=" in stdout and "Macro-F1=" in stdout
        test_data.write_text("please book something nice\tbook\n")
        code, _, stderr = run(["eval-actions", "--ckpt", str(ckpt),
                               "--train-data", str(train_data), "--data", str(test_data)] + SMALL_FLAGS,
                              capsys)
        assert code == 1
        assert stderr == "error: train and test label sets differ\n"


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


class TestParser:
    def test_all_subcommands_have_common_flags(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if hasattr(a, "choices") and a.choices)
        for name, p in sub.choices.items():
            opts = {o for act in p._actions for o in act.option_strings}
            assert "--preset" in opts, name
            assert "--temperature" in opts, name

    def test_bool_flag_error_names_field(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["synth", "--apply-length-filter", "maybe", "--topics", "1",
                  "--dialogues", "1", "--out", str(tmp_path / "x.jsonl")])
