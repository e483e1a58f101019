import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flowprover.cli import main
from flowprover.corpus import build_corpus, save_split
from flowprover.policy import PolicyNet


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("corpus")
    save_split(build_corpus(3, train_size=24, valid_size=6), out)
    return out


@pytest.fixture(scope="module")
def rm_path(tmp_path_factory, corpus_dir) -> Path:
    out = tmp_path_factory.mktemp("rm") / "rm.npz"
    assert main(["rm-train", "--corpus", str(corpus_dir), "--epochs", "4",
                 "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("net") / "net.npz"
    PolicyNet.create(seed=0).save(path)
    return path


@pytest.fixture(scope="module")
def biased_checkpoint(tmp_path_factory) -> Path:
    # output bias nudged toward structurally valid tactics so rollouts
    # produce labelable steps
    net = PolicyNet.create(seed=0, scale=0.0)
    b3 = np.zeros(36)
    b3[:4] = 2.0  # intro, split, left, right
    b3[4] = 2.0   # exact h1
    net.store["b3"] = b3
    path = tmp_path_factory.mktemp("biased") / "net.npz"
    net.save(path)
    return path


class TestDatagen:
    def test_writes_expected_counts(self, tmp_path):
        out = tmp_path / "c"
        assert main(["datagen", "--seed", "5", "--out", str(out),
                     "--train-size", "12", "--valid-size", "4"]) == 0
        assert len((out / "train.jsonl").read_text().splitlines()) == 12
        assert len((out / "valid.jsonl").read_text().splitlines()) == 4
        assert (out / "corpus.hash").exists()

    def test_same_seed_same_hash(self, tmp_path):
        for sub in ("a", "b"):
            main(["datagen", "--seed", "5", "--out", str(tmp_path / sub),
                  "--train-size", "12", "--valid-size", "4"])
        assert (tmp_path / "a" / "corpus.hash").read_text() == \
            (tmp_path / "b" / "corpus.hash").read_text()

    def test_bad_out_path_exits_2(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        with pytest.raises(SystemExit) as exc:
            main(["datagen", "--seed", "1", "--out", str(blocker)])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["datagen"])
        assert exc.value.code == 2


class TestTrain:
    def test_gfn_requires_rm(self, corpus_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--mode", "gfn", "--corpus", str(corpus_dir),
                  "--steps", "2", "--out", str(tmp_path / "r")])
        assert exc.value.code == 2

    def test_short_gfn_run(self, corpus_dir, rm_path, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--mode", "gfn", "--corpus", str(corpus_dir),
                     "--rm", str(rm_path), "--steps", "6", "--seed", "1",
                     "--out", str(out), "--clock", "off", "--val-every", "3"]) == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == ("step,mode,loss,mean_log_r,mean_log_pf,log_z_mean,"
                            "env_calls,wall_ms,val_solved")
        assert len(lines) == 7  # header + 6 steps
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["corpus_hash"]
        assert (out / "checkpoint_final.npz").exists()
        assert (out / "config.txt").exists()

    def test_validation_row_cadence(self, corpus_dir, tmp_path):
        out = tmp_path / "sft"
        assert main(["train", "--mode", "sft", "--corpus", str(corpus_dir),
                     "--steps", "40", "--out", str(out), "--clock", "off"]) == 0
        rows = (out / "metrics.csv").read_text().splitlines()[1:]
        with_val = [r for r in rows if r.split(",")[-1] != ""]
        assert len(with_val) == 2  # every 20 steps over 40 steps

    def test_br_oo_mode_runs_without_rm(self, corpus_dir, tmp_path):
        assert main(["train", "--mode", "gfn-br-oo", "--corpus", str(corpus_dir),
                     "--steps", "3", "--out", str(tmp_path / "br"), "--clock", "off",
                     "--val-every", "0"]) == 0

    def test_config_file_with_flag_override(self, corpus_dir, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("lr = 0.002\nreplay_p = 0.9  # overridden by flag\n"
                            "n_sampled = 3\n")
        out = tmp_path / "cfgd"
        assert main(["train", "--mode", "gfn-br-oo", "--corpus", str(corpus_dir),
                     "--steps", "2", "--out", str(out), "--clock", "off",
                     "--val-every", "0", "--config", str(cfg_file),
                     "--replay-p", "0.1"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["lr"] == 0.002
        assert manifest["config"]["n_sampled"] == 3
        # flag wins over file, then br-oo mode forces replay off
        assert manifest["config"]["replay_p"] == 0.0

    def test_config_file_flag_beats_file_value(self, corpus_dir, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("replay_p = 0.9\n")
        out = tmp_path / "cfgd2"
        assert main(["train", "--mode", "gfn-br-oo", "--corpus", str(corpus_dir),
                     "--steps", "2", "--out", str(out), "--clock", "off",
                     "--val-every", "0", "--config", str(cfg_file)]) == 0
        # without an overriding flag the file value lands in the config
        # snapshot before mode enforcement
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["replay_p"] == 0.0  # forced by gfn_br_oo

    def test_config_file_unknown_key_exits_2(self, corpus_dir, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("not_a_field = 1\n")
        with pytest.raises(SystemExit) as exc:
            main(["train", "--mode", "sft", "--corpus", str(corpus_dir),
                  "--steps", "2", "--out", str(tmp_path / "x"),
                  "--config", str(cfg_file)])
        assert exc.value.code == 2

    def test_config_file_bad_value_exits_2_naming_the_line(self, corpus_dir, tmp_path, capsys):
        cfg_file = tmp_path / "bad_value.cfg"
        cfg_file.write_text("n_sampled = 3\nlr=abc\n")
        with pytest.raises(SystemExit) as exc:
            main(["train", "--mode", "sft", "--corpus", str(corpus_dir),
                  "--steps", "2", "--out", str(tmp_path / "y"),
                  "--config", str(cfg_file)])
        assert exc.value.code == 2
        assert f"{cfg_file}:2: bad value for lr" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["sft", "ppo"])
    def test_action_set_outside_gfn_modes_exits_2(self, mode, corpus_dir, tmp_path, capsys):
        cfg_file = tmp_path / "subset.cfg"
        cfg_file.write_text("action_set = 0,1\n")
        with pytest.raises(SystemExit) as exc:
            main(["train", "--mode", mode, "--corpus", str(corpus_dir), "--steps", "2",
                  "--out", str(tmp_path / "z"), "--config", str(cfg_file)])
        assert exc.value.code == 2
        assert str(cfg_file) in _usage_error_line(capsys)
        assert not (tmp_path / "z").exists()

    def test_config_parsers_cover_every_field(self):
        import dataclasses

        from flowprover.cli import _CONFIG_PARSERS
        from flowprover.gfn import TrainConfig

        assert set(_CONFIG_PARSERS) == {f.name for f in dataclasses.fields(TrainConfig)}


class TestEval:
    def test_budget_zero_solves_nothing(self, corpus_dir, checkpoint, tmp_path):
        out = tmp_path / "report.json"
        assert main(["eval", "--checkpoint", str(checkpoint), "--corpus", str(corpus_dir),
                     "--budget", "0", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["solved"] == 0
        assert len(report["per_theorem"]) == report["total"] == 6

    def test_missing_checkpoint_exits_2(self, corpus_dir):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--checkpoint", "/nonexistent.npz", "--corpus", str(corpus_dir)])
        assert exc.value.code == 2

    def test_identical_invocations_identical_reports(self, corpus_dir, checkpoint, tmp_path):
        outs = []
        for sub in ("r1.json", "r2.json"):
            path = tmp_path / sub
            main(["eval", "--checkpoint", str(checkpoint), "--corpus", str(corpus_dir),
                  "--out", str(path)])
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]


class TestOracle:
    def test_report_schema(self, corpus_dir, checkpoint, tmp_path):
        out = tmp_path / "oracle.json"
        assert main(["oracle", "--checkpoint", str(checkpoint), "--theorems",
                     str(corpus_dir), "--limit", "2", "--max-depth", "2",
                     "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 2
        assert set(rows[0]) == {"theorem", "n_trajectories", "log_Z", "predicted_log_Z",
                                "tv_distance", "max_flow_residual"}

    @pytest.mark.parametrize("action_set", ["1,x", "99", "-1", "0,0"])
    def test_bad_action_set_exits_2(self, corpus_dir, checkpoint, action_set, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--checkpoint", str(checkpoint), "--theorems",
                  str(corpus_dir), "--limit", "1", "--max-depth", "1",
                  f"--action-set={action_set}"])
        assert exc.value.code == 2
        assert "--action-set" in capsys.readouterr().err

    def test_full_rm_without_reward_model_exits_2(self, corpus_dir, checkpoint):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--checkpoint", str(checkpoint), "--theorems",
                  str(corpus_dir), "--limit", "1", "--reward", "full_rm"])
        assert exc.value.code == 2

    def test_full_rm_with_reward_model(self, corpus_dir, checkpoint, rm_path, tmp_path):
        out = tmp_path / "oracle_rm.json"
        assert main(["oracle", "--checkpoint", str(checkpoint), "--theorems",
                     str(corpus_dir), "--limit", "1", "--max-depth", "2",
                     "--reward", "full_rm", "--rm", str(rm_path), "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())) == 1

    def test_assert_fails_for_untrained_policy(self, corpus_dir, checkpoint):
        assert main(["oracle", "--checkpoint", str(checkpoint), "--theorems",
                     str(corpus_dir), "--limit", "2", "--max-depth", "2",
                     "--assert"]) == 1

    def test_assert_passes_for_converged_policy(self, tmp_path):
        from flowprover.corpus import CorpusSplit, save_split
        from flowprover.gfn import GFNTrainer, TrainConfig

        from conftest import MICRO_ACTION_SET, identity_theorem

        thms = [identity_theorem("a -> a", name="m0"),
                identity_theorem("b -> b", name="m1")]
        save_split(CorpusSplit(train=[], valid=thms), tmp_path / "micro")
        net = PolicyNet.create(seed=11)
        cfg = TrainConfig(mode="gfn_br_oo", max_depth=2,
                          action_set=MICRO_ACTION_SET, lr=1e-3)
        trainer = GFNTrainer(thms, net, cfg, seed=5)
        for i in range(1500):
            trainer.train_step(thms[i % 2])
        ckpt = tmp_path / "converged.npz"
        net.save(ckpt)
        action_set = ",".join(str(i) for i in MICRO_ACTION_SET)
        assert main(["oracle", "--checkpoint", str(ckpt), "--theorems",
                     str(tmp_path / "micro"), "--max-depth", "2",
                     "--action-set", action_set, "--assert"]) == 0


class TestMine:
    def test_writes_labeled_pairs(self, corpus_dir, biased_checkpoint, tmp_path):
        out = tmp_path / "pairs.jsonl"
        assert main(["mine", "--checkpoint", str(biased_checkpoint), "--corpus",
                     str(corpus_dir), "--limit", "4", "--budget", "8",
                     "--rollouts", "24", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines
        row = json.loads(lines[0])
        assert set(row) == {"state", "tactic", "label"}


GOOD_LINE = '{"name": "good", "goal": "a -> a", "gt_proof": ["intro", "exact h1"]}'
BAD_CORPUS_LINES = {
    "non_proof": '{"name": "bad", "goal": "a -> a", "gt_proof": ["intro", "split"]}',
    "bad_goal": '{"name": "bad", "goal": "a -> ", "gt_proof": ["intro", "exact h1"]}',
    "no_proof_key": '{"name": "bad", "goal": "a -> a"}',
    "deep_goal": json.dumps({"name": "bad", "goal": "(" * 5000 + "a" + ")" * 5000,
                             "gt_proof": ["intro"]}),
    "repeated_name": GOOD_LINE,
}


def _bad_checkpoint(kind: str, tmp_path: Path) -> Path:
    path = tmp_path / f"{kind}.npz"
    if kind == "text":
        path.write_text("not a checkpoint\n")
        return path
    good = tmp_path / "good.npz"
    PolicyNet.create(seed=0).save(good)
    arrays = dict(np.load(good))
    if kind == "no_version":
        del arrays["__version__"]
    elif kind == "version_2":
        arrays["__version__"] = np.array([2])
    elif kind == "empty_version":
        arrays["__version__"] = np.array([], dtype=int)
    else:  # missing_parameter
        for prefix in "pmv":
            del arrays[f"{prefix}:w2"]
    np.savez(path, **arrays)
    return path


def _usage_error_line(capsys) -> str:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0]


class TestBadInputFiles:
    """Corpus and checkpoint files come from outside the program: a bad one
    is a usage error (exit 2, one ``error:`` line), never a traceback."""

    @pytest.mark.parametrize("command", ["rm-train", "sft"])
    @pytest.mark.parametrize("case", sorted(BAD_CORPUS_LINES))
    def test_bad_corpus_exits_2_naming_the_line(self, case, command, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "train.jsonl").write_text(GOOD_LINE + "\n" + BAD_CORPUS_LINES[case] + "\n")
        (corpus / "valid.jsonl").write_text(GOOD_LINE + "\n")
        argv = (["rm-train", "--corpus", str(corpus), "--epochs", "1"]
                if command == "rm-train" else
                ["train", "--mode", "sft", "--corpus", str(corpus), "--steps", "2"])
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "train.jsonl:2:" in _usage_error_line(capsys)

    @pytest.mark.parametrize("kind", ["text", "no_version", "version_2", "empty_version",
                                      "missing_parameter"])
    def test_bad_checkpoint_exits_2(self, kind, corpus_dir, tmp_path, capsys):
        path = _bad_checkpoint(kind, tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--checkpoint", str(path), "--corpus", str(corpus_dir)])
        assert exc.value.code == 2
        assert str(path) in _usage_error_line(capsys)

    def test_bad_reward_model_exits_2(self, corpus_dir, tmp_path, capsys):
        path = _bad_checkpoint("version_2", tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["train", "--mode", "gfn", "--corpus", str(corpus_dir), "--rm", str(path),
                  "--steps", "2", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "version [2]" in _usage_error_line(capsys)

    def test_bad_files_exit_2_under_optimized_python(self, corpus_dir, checkpoint, tmp_path):
        # the checks must hold with asserts stripped (python -O)
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "train.jsonl").write_text(BAD_CORPUS_LINES["non_proof"] + "\n")
        (corpus / "valid.jsonl").write_text(GOOD_LINE + "\n")
        repeated = tmp_path / "repeated"
        repeated.mkdir()
        (repeated / "train.jsonl").write_text(GOOD_LINE + "\n")
        (repeated / "valid.jsonl").write_text(GOOD_LINE + "\n")
        subset_cfg = tmp_path / "subset.cfg"
        subset_cfg.write_text("action_set = 0,1\n")
        src_dir = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src_dir), os.environ.get("PYTHONPATH", "")]))
        for argv in (["rm-train", "--corpus", str(corpus), "--out", str(tmp_path / "rm.npz")],
                     ["eval", "--corpus", str(corpus_dir),
                      "--checkpoint", str(_bad_checkpoint("version_2", tmp_path))],
                     ["eval", "--corpus", str(corpus_dir), "--checkpoint", str(checkpoint),
                      "--branching", "0"],
                     ["rm-train", "--corpus", str(repeated), "--out", str(tmp_path / "rm2.npz")],
                     ["train", "--mode", "ppo", "--corpus", str(corpus_dir), "--steps", "2",
                      "--out", str(tmp_path / "ppo"), "--config", str(subset_cfg)]):
            proc = subprocess.run([sys.executable, "-O", "-m", "flowprover.cli", *argv],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 2, proc.stderr
            lines = proc.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
