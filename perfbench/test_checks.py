"""The benchmark's own checks: each accepts the program's real output and
rejects a corrupted copy. Run with ``python -m pytest perfbench``."""

import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import flowprover.env as env  # noqa: E402
import flowprover.oracle as oracle  # noqa: E402
from flowprover.corpus import build_corpus  # noqa: E402
from flowprover.policy import PolicyNet  # noqa: E402
from flowprover.reward_model import rm_train  # noqa: E402
from flowprover.runs import run_training  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402
from workloads import TrainWorkload, _gt_walk  # noqa: E402


@pytest.fixture(scope="module")
def split():
    return build_corpus(5, train_size=6, valid_size=2)


def _arrays(net):
    buf = io.BytesIO()
    net.save(buf)
    buf.seek(0)
    return dict(np.load(buf))


def _gt(split):
    return [(thm, _gt_walk(thm)) for thm in split.train]


def test_oracle_check(split):
    thm = split.train[0]
    report = oracle.oracle_report(PolicyNet.create(seed=0), thm).to_dict()
    log_rs = checks.enumerate_log_rewards(env, thm.initial_state)
    assert checks.check_oracle(report, log_rs) == []
    for key, bad in (("n_trajectories", report["n_trajectories"] + 1),
                     ("log_Z", report["log_Z"] + 1e-7),
                     ("tv_distance", 1.5),
                     ("predicted_log_Z", float("nan"))):
        assert checks.check_oracle(dict(report, **{key: bad}), log_rs), key


def test_own_reward_matches_documented_formula():
    assert checks.binary_log_reward(True, ["intro"]) == 0.0
    expected = -15.0 + 8.0 * np.log((88.0 - 8.0) / 88.0)  # mean length 8
    assert checks.binary_log_reward(False, ["exact h1", "cases h2"]) == pytest.approx(expected)


def test_proof_check(split):
    thm = split.train[0]
    proof = [t.render() for t in thm.gt_proof]
    assert checks.check_proof(env, thm, {"solved": True, "proof": proof}) == []
    assert checks.check_proof(env, thm, {"solved": False, "proof": None}) == []
    for bad in (proof[:-1], ["no such tactic"], []):
        assert checks.check_proof(env, thm, {"solved": True, "proof": bad}), bad


def test_tb_recompute(split):
    net = PolicyNet.create(seed=3)
    arrays = _arrays(net)
    assert TrainWorkload._check_tb(arrays, net, _gt(split)) == []
    arrays["p:w1"] = arrays["p:w1"] * (1.0 + 1e-6)
    assert TrainWorkload._check_tb(arrays, net, _gt(split))


def test_ppo_ratio_one_identity(split):
    net = PolicyNet.create(seed=4, with_value_head=True)
    arrays = _arrays(net)
    rng = np.random.default_rng(0)
    assert TrainWorkload._check_ppo(arrays, net, _gt(split), rng) == []
    arrays["p:b3"] = arrays["p:b3"] + np.linspace(0.0, 1e-3, arrays["p:b3"].size)
    assert TrainWorkload._check_ppo(arrays, net, _gt(split), rng)


def test_run_files_check(split, tmp_path):
    rm = rm_train(split, epochs=1, seed=0)
    run_training("gfn", split, 0, 40, tmp_path, rm=rm, clock="off", val_every=0)
    text = (tmp_path / "metrics.csv").read_text()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert checks.check_run_files(text, summary, 40, "gfn") == []

    lines = text.splitlines(keepends=True)
    assert checks.check_run_files("".join(lines[:-1]), summary, 40, "gfn")
    header = lines[0].split(",")
    row = lines[1].split(",")
    row[header.index("loss")] = "-0.5"
    negative = "".join([lines[0], ",".join(row)] + lines[2:])
    assert checks.check_run_files(negative, summary, 40, "gfn")
    assert checks.check_run_files(
        text, dict(summary, total_env_calls=summary["total_env_calls"] + 1), 40, "gfn")
    assert checks.check_run_files(text, dict(summary, buffer_reads=0), 40, "gfn")


def test_tracer_wraps_every_binding_and_restores(split):
    import flowprover.search as search

    original = env.apply_tactic
    assert search.apply_tactic is original
    with tracing.Tracer() as tracer:
        assert env.apply_tactic is not original
        assert search.apply_tactic is env.apply_tactic
        env.replay(split.train[0].initial_state, split.train[0].gt_proof)
    assert env.apply_tactic is original and search.apply_tactic is original
    assert tracer.stat("env:apply_tactic").calls == len(split.train[0].gt_proof)
    replay = tracer.stat("env:replay")
    assert replay.calls == 1 and 0.0 <= replay.self_ <= replay.incl
    assert tracer.edges[("env:replay", "env:apply_tactic")] <= replay.incl


def test_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracing, "METHODS", tracing.METHODS + ("gfn:Gone.method",))
    monkeypatch.setitem(layers.TRACED, "gone.ms_per_op", ("gfn:Gone.method", "incl"))
    with tracing.Tracer() as tracer:
        pass
    assert tracer.stat("gfn:Gone.method") is None

    class Fake:
        ops, seconds, outputs = 1, 1.0, {}

    class Workload:
        def layer_counts(self, rnd):
            return {}

    class SetupTimes:
        layer_seconds = {}

    values, absent = layers.per_layer(Workload(), Fake(), Fake(), tracer, SetupTimes())
    # the set-up times and counts this workload does not measure are absent too
    assert absent == [*layers.SETUP, *layers.COUNTED, "gone.ms_per_op"]
    assert all(values[name] == 0.0 for name in absent)


def test_raising_training_call_fails_its_steps(monkeypatch, tmp_path):
    import flowprover.gfn as gfn
    import flowprover.runs as runs

    def broken(*args, **kwargs):
        raise RuntimeError("broken")

    monkeypatch.setattr(runs, "run_training", broken)
    workload = TrainWorkload("t", "gfn", 2, 5, gfn.GFNTrainer, 1.0)
    rnd = workload.run_round({"corpus": None, "rm": None}, 1, tmp_path)
    assert (rnd.ops, rnd.failed, rnd.op_ms) == (10, 10, [])
    assert workload.layer_counts(rnd) == {"gfn.buffer.reads_per_op": 0.0,
                                          "gfn.replay_share": 0.0}
    assert "train_step" in gfn.GFNTrainer.__dict__
    assert gfn.GFNTrainer.train_step.__name__ == "train_step"
