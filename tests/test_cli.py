import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flowprover.baselines import PPOConfig
from flowprover import cli
from flowprover.cli import build_parser, main
from flowprover.corpus import build_corpus, load_split, save_split
from flowprover.gfn import BINARY, TrainConfig
from flowprover.policy import PolicyNet

# oracle flags that set a negative or non-finite tolerance, with --assert
BAD_TOLERANCES = [["--assert", "--tv-tol", "-1"], ["--assert", "--tv-tol", "nan"],
                  ["--assert", "--logz-tol", "-0.5"], ["--assert", "--logz-tol", "inf"]]

# (mode, key, value) of one-line --config files that TrainConfig refuses
BAD_CONFIG_FILES = [
    ("ppo", "lr", "0"),
    ("ppo", "max_depth", "0"),
    ("gfn-br-oo", "max_depth", "0"),
    ("gfn-br-oo", "action_set", "99"),
]


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
        assert manifest["corpus_hash"] and manifest["ppo_config"] is None
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
                            "temper_p = 0.25\n")
        out = tmp_path / "cfgd"
        assert main(["train", "--mode", "gfn-br-oo", "--corpus", str(corpus_dir),
                     "--steps", "2", "--out", str(out), "--clock", "off",
                     "--val-every", "0", "--config", str(cfg_file),
                     "--replay-p", "0.1"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["lr"] == 0.002
        assert manifest["config"]["temper_p"] == 0.25
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
        cfg_file.write_text("temper_p = 0.25\nlr=abc\n")
        with pytest.raises(SystemExit) as exc:
            main(["train", "--mode", "sft", "--corpus", str(corpus_dir),
                  "--steps", "2", "--out", str(tmp_path / "y"),
                  "--config", str(cfg_file)])
        assert exc.value.code == 2
        assert f"{cfg_file}:2: bad value for lr" in capsys.readouterr().err

    def test_config_file_repeated_key_exits_2_naming_both_lines(self, corpus_dir, tmp_path,
                                                               capsys):
        cfg_file = tmp_path / "twice.cfg"
        cfg_file.write_text("lr = 0.001\n# a later line must not win silently\nlr = 0.0005\n")
        with pytest.raises(SystemExit) as exc:
            main(["train", "--mode", "sft", "--corpus", str(corpus_dir),
                  "--steps", "2", "--out", str(tmp_path / "y"),
                  "--config", str(cfg_file)])
        assert exc.value.code == 2
        assert (_usage_error_line(capsys)
                == f"error: {cfg_file}:3: config key 'lr' repeats line 1")
        assert not (tmp_path / "y").exists()

    @pytest.mark.parametrize("key", ["clip_norm", "weight_decay", "n_sampled",
                                     "buffer_capacity", "temper_low", "temper_high"])
    def test_config_file_with_a_removed_key_exits_2_naming_it(self, key, corpus_dir, tmp_path,
                                                             capsys):
        # a config.txt written while these were TrainConfig fields held a line for each
        cfg_file = tmp_path / "old.cfg"
        cfg_file.write_text(f"lr = 0.0001\n{key} = 1\n")
        with pytest.raises(SystemExit) as exc:
            main(["train", "--mode", "gfn-br-oo", "--corpus", str(corpus_dir), "--steps", "2",
                  "--out", str(tmp_path / "run"), "--config", str(cfg_file)])
        assert exc.value.code == 2
        assert _usage_error_line(capsys) == f"error: {cfg_file}:2: unknown config key {key!r}"
        assert not (tmp_path / "run").exists()

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

    def test_config_file_round_trips_every_field(self, tmp_path):
        names = [f.name for f in dataclasses.fields(TrainConfig)]
        every = TrainConfig(lr=1e-3 / 3, replay_p=0.0, temper_p=0.1, max_depth=4,
                            mode="gfn_oo", inject_gt=False, reward_mode=BINARY,
                            action_set=(12, 0, 4))
        assert all(getattr(every, name) != getattr(TrainConfig(), name) for name in names)
        for k, cfg in enumerate((every, TrainConfig(mode="ppo", lr=2.5e-5),
                                 TrainConfig(mode="gfn_br_oo", action_set=(35,)))):
            path = tmp_path / f"config{k}.txt"
            cfg.write(path)
            assert [line.split(" = ")[0] for line in path.read_text().splitlines()] == names
            assert TrainConfig.read(path) == cfg

    @pytest.mark.parametrize("mode", ["ppo", "gfn"])
    def test_config_txt_reruns_the_run(self, mode, corpus_dir, rm_path, tmp_path):
        rm = ["--rm", str(rm_path)] if mode == "gfn" else []
        flags = ["train", "--mode", mode, "--corpus", str(corpus_dir), "--seed", "4",
                 "--steps", "6", "--clock", "off", "--val-every", "3", *rm]
        first, second = tmp_path / "first", tmp_path / "second"
        assert main([*flags, "--out", str(first)]) == 0
        assert main([*flags, "--out", str(second), "--config", str(first / "config.txt")]) == 0
        for name in ("metrics.csv", "config.txt", "checkpoint_final.npz"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_ground_truth_longer_than_max_depth_exits_2(self, corpus_dir, tmp_path, capsys):
        # no rollout reaches past max_depth, so neither may an injected ground truth
        cfg_file = tmp_path / "shallow.cfg"
        cfg_file.write_text("max_depth = 2\n")
        argv = ["train", "--mode", "gfn-br-oo", "--corpus", str(corpus_dir), "--steps", "10",
                "--config", str(cfg_file), "--clock", "off", "--val-every", "0"]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "run")])
        assert exc.value.code == 2
        first = next(t for t in load_split(corpus_dir).train if len(t.gt_proof) > 2)
        assert f"ground truth of {first.name} has 3 tactics, more than max_depth 2" in \
            _usage_error_line(capsys)
        assert not (tmp_path / "run").exists()
        # without ground-truth injection the same config trains
        assert main([*argv, "--out", str(tmp_path / "no_gt"), "--no-inject-gt"]) == 0

    def test_ppo_without_rm_records_the_binary_reward(self, corpus_dir, tmp_path):
        out = tmp_path / "ppo"
        assert main(["train", "--mode", "ppo", "--corpus", str(corpus_dir), "--steps", "2",
                     "--out", str(out), "--clock", "off", "--val-every", "0"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["reward_mode"] == BINARY
        assert manifest["ppo_config"] == dataclasses.asdict(PPOConfig())
        assert manifest["config"]["temper_p"] == 0.0  # PPO rolls out at T=1
        config_txt = (out / "config.txt").read_text()
        assert "reward_mode = binary\n" in config_txt
        assert "temper_p = 0.0\n" in config_txt

    def test_gfn_with_binary_reward_runs_without_rm(self, corpus_dir, tmp_path):
        cfg_file = tmp_path / "binary.cfg"
        cfg_file.write_text("reward_mode = binary\n")
        out = tmp_path / "gfn"
        assert main(["train", "--mode", "gfn", "--corpus", str(corpus_dir), "--steps", "2",
                     "--out", str(out), "--clock", "off", "--val-every", "0",
                     "--config", str(cfg_file)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["mode"] == "gfn"
        assert manifest["config"]["reward_mode"] == BINARY

    @pytest.mark.parametrize("mode,key,value", BAD_CONFIG_FILES)
    def test_bad_config_value_exits_2_naming_the_file(self, mode, key, value, corpus_dir,
                                                       tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(f"{key} = {value}\n")
        with pytest.raises(SystemExit) as exc:
            main(["train", "--mode", mode, "--corpus", str(corpus_dir), "--steps", "2",
                  "--out", str(tmp_path / "run"), "--config", str(cfg_file)])
        assert exc.value.code == 2
        assert str(cfg_file) in _usage_error_line(capsys)
        assert not (tmp_path / "run").exists()


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

    def test_negative_budget_exits_2(self, corpus_dir, checkpoint, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--checkpoint", str(checkpoint), "--corpus", str(corpus_dir),
                  "--budget", "-3"])
        assert exc.value.code == 2
        assert "budget" in _usage_error_line(capsys)

    def test_nan_checkpoint_exits_2(self, tmp_path, capsys):
        # search ranks NaN scores without complaint, so this net would score
        # as solving every theorem
        save_split(build_corpus(2, train_size=10, valid_size=3), tmp_path / "c")
        net = PolicyNet.create(seed=0)
        net.store["w3"] = np.full_like(net.store["w3"], np.nan)
        net.save(tmp_path / "nan.npz")
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--checkpoint", str(tmp_path / "nan.npz"), "--corpus",
                  str(tmp_path / "c")])
        assert exc.value.code == 2
        assert "non-finite" in capsys.readouterr().err

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

    @pytest.mark.parametrize("flags", [["--max-depth", "0"], ["--max-depth", "-1"],
                                       ["--limit", "-1"]])
    def test_bad_depth_or_limit_exits_2(self, corpus_dir, checkpoint, flags, tmp_path, capsys):
        out = tmp_path / "oracle.json"
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--checkpoint", str(checkpoint), "--theorems",
                  str(corpus_dir), *flags, "--out", str(out)])
        assert exc.value.code == 2
        assert flags[0] in _usage_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("flags", BAD_TOLERANCES)
    def test_bad_tolerance_exits_2(self, corpus_dir, checkpoint, flags, monkeypatch, capsys):
        def no_load(*args):
            pytest.fail("the corpus was loaded before the tolerances were checked")

        monkeypatch.setattr(cli, "load_split", no_load)
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--checkpoint", str(checkpoint), "--theorems",
                  str(corpus_dir), *flags])
        assert exc.value.code == 2
        assert flags[-2] in _usage_error_line(capsys)

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

    def test_assert_fails_for_nan_reports(self, tmp_path, capsys, monkeypatch):
        # NaN compares False with any tolerance, so only a report inside both
        # tolerances passes. A checkpoint cannot hold NaN (it is refused at
        # load), so the reports are made NaN here.
        save_split(build_corpus(2, train_size=10, valid_size=3), tmp_path / "c")
        PolicyNet.create(seed=0).save(tmp_path / "net.npz")
        report = cli.oracle_report

        def nan_report(*args, **kwargs):
            return dataclasses.replace(report(*args, **kwargs), tv_distance=np.nan,
                                       predicted_log_z=np.nan)

        monkeypatch.setattr(cli, "oracle_report", nan_report)
        assert main(["oracle", "--checkpoint", str(tmp_path / "net.npz"), "--theorems",
                     str(tmp_path / "c"), "--assert"]) == 1
        out, err = capsys.readouterr()
        reports = json.loads(out)
        assert len(reports) == 3 and all(np.isnan(r["tv_distance"]) for r in reports)
        assert [line.split(":")[0] for line in err.splitlines()] == \
            [f"FAIL {r['theorem']}" for r in reports]

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

    @pytest.mark.parametrize("flags", [["--budget", "-1"], ["--limit", "-1"]])
    def test_negative_budget_or_limit_exits_2(self, corpus_dir, biased_checkpoint, flags,
                                              tmp_path, capsys):
        out = tmp_path / "pairs.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["mine", "--checkpoint", str(biased_checkpoint), "--corpus",
                  str(corpus_dir), *flags, "--out", str(out)])
        assert exc.value.code == 2
        assert flags[0] in _usage_error_line(capsys)
        assert not out.exists()


GOOD_LINE = '{"name": "good", "goal": "a -> a", "gt_proof": ["intro", "exact h1"]}'
BAD_CORPUS_LINES = {
    "non_proof": '{"name": "bad", "goal": "a -> a", "gt_proof": ["intro", "split"]}',
    "bad_goal": '{"name": "bad", "goal": "a -> ", "gt_proof": ["intro", "exact h1"]}',
    "no_proof_key": '{"name": "bad", "goal": "a -> a"}',
    "deep_goal": json.dumps({"name": "bad", "goal": "(" * 5000 + "a" + ")" * 5000,
                             "gt_proof": ["intro"]}),
    "repeated_name": GOOD_LINE,
    # written with errors="surrogateescape": the name holds the byte 0xff
    "non_utf8": '{"name": "bad\udcff", "goal": "a -> a", "gt_proof": ["intro", "exact h1"]}',
}

# argv templates of cheap commands, each given an --out that cannot be written:
# an existing directory ("dir"), a path under a missing directory ("missing")
# or an existing file ("file")
UNWRITABLE_OUT = {
    "eval_dir": ("dir", "eval --checkpoint {ckpt} --corpus {corpus} --budget 1"),
    "oracle_dir": ("dir", "oracle --checkpoint {ckpt} --theorems {corpus} --limit 1 "
                          "--max-depth 1"),
    "mine_dir": ("dir", "mine --checkpoint {ckpt} --corpus {corpus} --limit 1 --rollouts 1 "
                        "--budget 1"),
    "eval_missing": ("missing", "eval --checkpoint {ckpt} --corpus {corpus} --budget 1"),
    "oracle_missing": ("missing", "oracle --checkpoint {ckpt} --theorems {corpus} --limit 1 "
                                  "--max-depth 1"),
    "mine_missing": ("missing", "mine --checkpoint {ckpt} --corpus {corpus} --limit 1 "
                                "--rollouts 1 --budget 1"),
    "rm_train_missing": ("missing", "rm-train --corpus {corpus} --epochs 1"),
    "train_file": ("file", "train --mode sft --corpus {corpus} --steps 1"),
}


def _unwritable_out_argv(case: str, corpus_dir: Path, checkpoint: Path,
                         root: Path) -> list[str]:
    """The argv of ``UNWRITABLE_OUT[case]``, its --out under ``root``."""
    kind, template = UNWRITABLE_OUT[case]
    (root / "dir").mkdir(parents=True, exist_ok=True)
    (root / "file").write_text("x\n")
    out = {"dir": root / "dir", "missing": root / "missing" / "out", "file": root / "file"}
    return [word.format(ckpt=checkpoint, corpus=corpus_dir) for word in template.split()] + [
        "--out", str(out[kind])]


def _tree(root: Path) -> dict[str, bytes | None]:
    """Every path under ``root``, with its bytes when it is a file."""
    return {str(p): p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


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
    elif kind == "moment_shape":
        arrays["m:w2"] = arrays["m:w2"][:3]
    elif kind == "object_entry":
        arrays["p:w2"] = np.array([{"not": "numbers"}], dtype=object)
    elif kind == "string_entry":
        arrays["p:w2"] = np.array(["not", "numbers"])
    elif kind == "bool_entry":
        arrays["p:w2"] = arrays["p:w2"] > 0
    elif kind == "int_entry":
        arrays["p:w2"] = np.ones(arrays["p:w2"].shape, dtype=np.int64)
    elif kind == "zero_width":  # every layer fits a net of no hidden units
        for name, value in list(arrays.items()):
            if name[:2] in ("p:", "m:", "v:"):
                arrays[name] = np.zeros(tuple(0 if n == 128 else n for n in value.shape))
    elif kind == "empty_step":
        arrays["__step__"] = np.array([], dtype=int)
    elif kind == "half_value_head":  # a value head without its bias
        for prefix in "pmv":
            arrays[f"{prefix}:wv"] = np.zeros(128)
    elif kind == "negative_step":  # an update from it would divide by 0
        arrays["__step__"] = np.array([-1])
    elif kind == "non_finite":  # search would rank its scores without complaint
        arrays["p:b3"] = np.full_like(arrays["p:b3"], np.inf)
    elif kind == "extra_parameter":  # a parameter the policy does not have
        for prefix in "pmv":
            arrays[f"{prefix}:junk"] = np.zeros(3)
    elif kind == "wrong_shape":  # a first layer that reads 5 inputs, not 164
        for prefix in "pmv":
            arrays[f"{prefix}:w1"] = np.zeros((5, 128))
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
    """Corpus and checkpoint files come from outside the program, as does
    the ``--out`` path: a bad one is a usage error (exit 2, one ``error:``
    line), never a traceback."""

    @pytest.mark.parametrize("command", ["rm-train", "sft"])
    @pytest.mark.parametrize("case", sorted(BAD_CORPUS_LINES))
    def test_bad_corpus_exits_2_naming_the_line(self, case, command, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "train.jsonl").write_text(GOOD_LINE + "\n" + BAD_CORPUS_LINES[case] + "\n",
                                            errors="surrogateescape")
        (corpus / "valid.jsonl").write_text(GOOD_LINE + "\n")
        argv = (["rm-train", "--corpus", str(corpus), "--epochs", "1"]
                if command == "rm-train" else
                ["train", "--mode", "sft", "--corpus", str(corpus), "--steps", "2"])
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "train.jsonl:2:" in _usage_error_line(capsys)

    @pytest.mark.parametrize("kind", ["text", "no_version", "version_2", "empty_version",
                                      "missing_parameter", "moment_shape", "object_entry",
                                      "string_entry", "empty_step", "wrong_shape",
                                      "extra_parameter", "half_value_head", "negative_step",
                                      "non_finite", "bool_entry", "int_entry", "zero_width"])
    def test_bad_checkpoint_exits_2(self, kind, corpus_dir, tmp_path, capsys):
        # every command that reads a policy checkpoint refuses it at load
        path = _bad_checkpoint(kind, tmp_path)
        mined = tmp_path / "mined.jsonl"
        for argv in (["eval", "--corpus", str(corpus_dir)],
                     ["oracle", "--theorems", str(corpus_dir)],
                     ["mine", "--corpus", str(corpus_dir), "--out", str(mined)]):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--checkpoint", str(path)])
            assert exc.value.code == 2
            line = _usage_error_line(capsys)
            assert str(path) in line
            if kind.endswith("_entry"):
                assert "p:w2" in line
            if kind == "extra_parameter":
                assert "not a policy checkpoint: it also holds junk" in line
            if kind == "half_value_head":
                assert "holds wv but lacks bv" in line
            if kind == "negative_step":
                assert "__step__ must be non-negative, got -1" in line
            if kind == "non_finite":
                assert "entry p:b3 holds non-finite values" in line
            if kind in ("bool_entry", "int_entry"):
                assert "entry p:w2 is not floating point" in line
            if kind == "zero_width":
                assert "w1 has shape (164, 0), a hidden width below 1" in line
        assert not mined.exists()

    def test_bad_reward_model_exits_2(self, corpus_dir, checkpoint, tmp_path, capsys):
        for kind, message in (("version_2", "version [2]"),
                              ("wrong_shape", "w1 has shape (5, 128)")):
            path = _bad_checkpoint(kind, tmp_path)
            with pytest.raises(SystemExit) as exc:
                main(["train", "--mode", "gfn", "--corpus", str(corpus_dir), "--rm", str(path),
                      "--steps", "2", "--out", str(tmp_path / "out")])
            assert exc.value.code == 2
            assert message in _usage_error_line(capsys)
            assert not (tmp_path / "out").exists()
        # a policy checkpoint fits the reward model's layers but holds its heads too
        for argv in (["train", "--mode", "gfn", "--corpus", str(corpus_dir), "--steps", "2",
                      "--out", str(tmp_path / "out")],
                     ["oracle", "--checkpoint", str(checkpoint), "--theorems", str(corpus_dir),
                      "--limit", "1", "--reward", "full_rm", "--out", str(tmp_path / "out")]):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--rm", str(checkpoint)])
            assert exc.value.code == 2
            assert (f"{checkpoint}: not a reward model checkpoint: it also holds bz, wz"
                    in _usage_error_line(capsys))
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", sorted(UNWRITABLE_OUT))
    def test_unwritable_out_exits_2(self, case, corpus_dir, checkpoint, tmp_path, capsys,
                                    monkeypatch):
        def no_work(*args, **kwargs):
            pytest.fail("the work ran before --out was checked")

        for name in ("rm_train", "evaluate_split", "oracle_report", "mine_hard_negatives"):
            monkeypatch.setattr(cli, name, no_work)
        root = tmp_path / "outs"
        argv = _unwritable_out_argv(case, corpus_dir, checkpoint, root)
        before = _tree(root)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert argv[-1] in _usage_error_line(capsys)
        assert _tree(root) == before  # no partial file

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
        non_utf8 = tmp_path / "non_utf8"
        non_utf8.mkdir()
        (non_utf8 / "train.jsonl").write_text(BAD_CORPUS_LINES["non_utf8"] + "\n",
                                              errors="surrogateescape")
        (non_utf8 / "valid.jsonl").write_text(GOOD_LINE + "\n")
        subset_cfg = tmp_path / "subset.cfg"
        subset_cfg.write_text("action_set = 0,1\n")
        twice_cfg = tmp_path / "twice.cfg"
        twice_cfg.write_text("lr = 0.001\nlr = 0.0005\n")
        wrong_shape = str(_bad_checkpoint("wrong_shape", tmp_path))
        extra_parameter = str(_bad_checkpoint("extra_parameter", tmp_path))
        config_argvs = []
        for k, (mode, key, value) in enumerate(BAD_CONFIG_FILES):
            cfg_file = tmp_path / f"bad{k}.cfg"
            cfg_file.write_text(f"{key} = {value}\n")
            config_argvs.append(["train", "--mode", mode, "--corpus", str(corpus_dir),
                                 "--steps", "2", "--out", str(tmp_path / f"run{k}"),
                                 "--config", str(cfg_file)])
        outs = tmp_path / "outs"
        argvs = [*config_argvs,
                 ["rm-train", "--corpus", str(corpus), "--out", str(tmp_path / "rm.npz")],
                 *(["eval", "--corpus", str(corpus_dir),
                    "--checkpoint", str(_bad_checkpoint(kind, tmp_path))]
                   for kind in ("version_2", "object_entry", "string_entry")),
                 ["eval", "--corpus", str(corpus_dir), "--checkpoint", str(checkpoint),
                  "--branching", "0"],
                 ["eval", "--corpus", str(corpus_dir), "--checkpoint", str(checkpoint),
                  "--budget", "-3"],
                 *(["oracle", "--theorems", str(corpus_dir), "--checkpoint",
                    str(checkpoint), *flags]
                   for flags in (["--max-depth", "0"], ["--limit", "-1"], *BAD_TOLERANCES)),
                 ["rm-train", "--corpus", str(repeated), "--out", str(tmp_path / "rm2.npz")],
                 ["train", "--mode", "ppo", "--corpus", str(corpus_dir), "--steps", "2",
                  "--out", str(tmp_path / "ppo"), "--config", str(subset_cfg)],
                 ["rm-train", "--corpus", str(non_utf8), "--out", str(tmp_path / "rm3.npz")],
                 ["eval", "--corpus", str(corpus_dir), "--checkpoint", wrong_shape],
                 ["oracle", "--theorems", str(corpus_dir), "--checkpoint", wrong_shape,
                  "--limit", "1", "--max-depth", "1"],
                 ["train", "--mode", "gfn", "--corpus", str(corpus_dir), "--rm", wrong_shape,
                  "--steps", "2", "--out", str(tmp_path / "gfn")],
                 ["eval", "--corpus", str(corpus_dir), "--checkpoint", extra_parameter],
                 *(["eval", "--corpus", str(corpus_dir),
                    "--checkpoint", str(_bad_checkpoint(kind, tmp_path))]
                   for kind in ("half_value_head", "negative_step", "non_finite",
                                "bool_entry", "int_entry", "zero_width")),
                 ["oracle", "--theorems", str(corpus_dir), "--checkpoint",
                  str(tmp_path / "non_finite.npz"), "--limit", "1"],
                 ["mine", "--corpus", str(corpus_dir), "--checkpoint",
                  str(tmp_path / "non_finite.npz"), "--limit", "1",
                  "--out", str(tmp_path / "mined.jsonl")],
                 ["train", "--mode", "gfn", "--corpus", str(corpus_dir), "--rm",
                  extra_parameter, "--steps", "2", "--out", str(tmp_path / "gfn")],
                 ["train", "--mode", "sft", "--corpus", str(corpus_dir), "--steps", "2",
                  "--out", str(tmp_path / "twice"), "--config", str(twice_cfg)],
                 ["train", "--mode", "gfn", "--corpus", str(corpus_dir), "--rm",
                  str(checkpoint), "--steps", "2", "--out", str(tmp_path / "gfn")],
                 ["oracle", "--theorems", str(corpus_dir), "--checkpoint", str(checkpoint),
                  "--limit", "1", "--reward", "full_rm", "--rm", str(checkpoint)],
                 *(_unwritable_out_argv(case, corpus_dir, checkpoint, outs)
                   for case in sorted(UNWRITABLE_OUT))]
        before = _tree(outs)
        for argv, (code, lines) in zip(argvs, _run_cli_cases(argvs, ["-O"]), strict=True):
            assert code == 2, (argv, lines)
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
            if "--config" in argv:
                assert argv[-1] in lines[0]
                assert not Path(argv[argv.index("--out") + 1]).exists()
            if str(non_utf8) in argv:
                assert f"{non_utf8 / 'train.jsonl'}:1:" in lines[0]
        assert not (tmp_path / "gfn").exists()
        assert _tree(outs) == before


SRC_DIR = Path(__file__).resolve().parent.parent / "src"

# Runs each argv (a JSON list) through ``main`` in one interpreter and prints,
# per argv, a JSON pair: the exit code and the lines written to stderr.
_CASES_SCRIPT = """
import contextlib, io, json, sys
from flowprover.cli import main
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    print(json.dumps([code, err.getvalue().splitlines()]))
"""


def _run_cli_cases(argvs: list[list[str]], flags: list[str]) -> list[tuple[int, list[str]]]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC_DIR), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, *flags, "-c", _CASES_SCRIPT, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return [tuple(json.loads(line)) for line in proc.stdout.splitlines()]


def _int_options():
    """(command, flag, value) for every ``type=int`` option of the parser:
    -1 for each, and also 0 for the two that must be at least 1."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for command, parser in sub.choices.items():
        for action in parser._actions:
            if action.type is int:
                flag = action.option_strings[0]
                for value in ("-1", "0") if flag in ("--max-depth", "--branching") else ("-1",):
                    yield command, flag, value


class TestIntegerOptions:
    """Every integer option refuses an out-of-range value as a usage error,
    found by walking the parser, so an option added later is covered."""

    @pytest.mark.parametrize("flags", [[], ["-O"]])
    def test_out_of_range_value_exits_2(self, flags, corpus_dir, checkpoint, tmp_path):
        out = tmp_path / "out"
        corpus, ckpt = str(corpus_dir), str(checkpoint)
        valid = {  # otherwise-valid, cheap arguments of each command
            "datagen": ["--out", str(out), "--train-size", "2", "--valid-size", "2"],
            "rm-train": ["--corpus", corpus, "--epochs", "1", "--out", str(out)],
            "train": ["--mode", "sft", "--corpus", corpus, "--steps", "1", "--out", str(out)],
            "eval": ["--checkpoint", ckpt, "--corpus", corpus],
            "oracle": ["--checkpoint", ckpt, "--theorems", corpus, "--limit", "1"],
            "mine": ["--checkpoint", ckpt, "--corpus", corpus, "--limit", "1",
                     "--rollouts", "1", "--budget", "1", "--out", str(out)],
        }
        cases = list(_int_options())
        assert {command for command, _, _ in cases} == set(valid)
        assert len(cases) >= 18
        results = _run_cli_cases([[command, *valid[command], flag, value]
                                  for command, flag, value in cases], flags)
        for (command, flag, value), (code, lines) in zip(cases, results, strict=True):
            assert code == 2, (command, flag, value, lines)
            assert len(lines) == 1 and lines[0].startswith("error: "), (command, flag, lines)
            assert flag[2:].replace("-", "_") in lines[0].replace("-", "_"), lines
        assert not out.exists()


class TestEmptyTrainSplit:
    def test_train_and_rm_train_exit_2(self, tmp_path):
        corpus = tmp_path / "corpus"
        save_split(build_corpus(3, train_size=0, valid_size=2), corpus)
        run, rm = tmp_path / "run", tmp_path / "rm.npz"
        # in a subprocess with a timeout: a train loop over no theorems never ends
        results = _run_cli_cases([
            ["train", "--mode", "sft", "--steps", "5", "--corpus", str(corpus), "--out", str(run)],
            ["rm-train", "--corpus", str(corpus), "--out", str(rm)],
        ], [])
        for code, lines in results:
            assert code == 2
            assert len(lines) == 1 and "no train theorems" in lines[0], lines
        assert not run.exists() and not rm.exists()
        assert main(["train", "--mode", "sft", "--steps", "0", "--corpus", str(corpus),
                     "--out", str(run)]) == 0
