"""The benchmark's three workloads.

Each is driven from one process in a closed loop with one operation in
flight. A workload sets itself up (timed), then runs whole rounds of the
same operations; ``checks`` verifies the outputs of a round outside the
timed region. The library is called through its module attributes
(``runs.run_training``, not a name bound here) so that the tracer's
wrappers are seen.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import shutil
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import flowprover.baselines as baselines
import flowprover.corpus as corpus_mod
import flowprover.env as env
import flowprover.gfn as gfn
import flowprover.nn as nn
import flowprover.oracle as oracle
import flowprover.policy as policy
import flowprover.reward_model as reward_model
import flowprover.runs as runs
import flowprover.search as search

import checks

TRAIN_SIZE = 1000
VALID_SIZE = 20
RM_EPOCHS = 20
SFT_STEPS = 1000
ORACLE_DEPTH = 3
CHECK_SAMPLE = 16  # theorems whose ground truth feeds the TB and PPO checks


def validation_config():
    """The validation configuration of run_training: branching 8, budget 100."""
    return search.SearchConfig(branching=8, expansion_budget=100,
                               encoding_mode=policy.HISTORY)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Round:
    ops: int
    failed: int
    seconds: float
    op_ms: list[float]
    outputs: dict
    digests: dict


@dataclass
class Setup:
    seconds: list[float]
    layer_seconds: dict[str, list[float]]
    digests: list[dict]
    state: dict


def run_setups(workload, seed: int, workdir: Path, repeats: int) -> Setup:
    """Set the workload up ``repeats`` times; the last state is kept."""
    seconds, digests = [], []
    layer: dict[str, list[float]] = {}
    for i in range(repeats):
        t0 = perf_counter()
        state, parts = workload.setup(seed, workdir / f"setup{i}")
        seconds.append(perf_counter() - t0)
        for key, value in parts.items():
            layer.setdefault(key, []).append(value)
        digests.append(state.pop("digests"))
    return Setup(seconds, layer, digests, state)


def _build_corpus(seed: int):
    t0 = perf_counter()
    split = corpus_mod.build_corpus(seed, train_size=TRAIN_SIZE, valid_size=VALID_SIZE)
    return split, perf_counter() - t0


def _run_files(out: Path) -> dict:
    return {
        "metrics_csv": (out / "metrics.csv").read_text(),
        "summary": json.loads((out / "summary.json").read_text()),
        "checkpoint": (out / "checkpoint_final.npz").read_bytes(),
    }


def _gt_walk(thm):
    """States before each ground-truth tactic, by an own walk through
    apply_tactic; None when the proof does not close."""
    states = [thm.initial_state]
    for i, tactic in enumerate(thm.gt_proof):
        result = env.apply_tactic(states[-1], tactic)
        if result.proved:
            return states if i == len(thm.gt_proof) - 1 else None
        if result.failed:
            return None
        states.append(result.state)
    return None


def _gt_steps(thm, states):
    encs = [policy.encode_from_parts(thm.initial_state, thm.gt_proof[:i], states[i],
                                     policy.HISTORY) for i in range(len(thm.gt_proof))]
    actions = [env.ACTION_INDEX[t] for t in thm.gt_proof]
    return np.stack(encs), actions


class TrainWorkload:
    """``calls`` independent ``run_training`` calls of ``steps`` steps per
    round, call k seeded ``calls * seed + k``. ``trainer`` is the class whose
    ``train_step`` marks the start of each step."""

    def __init__(self, name: str, mode: str, calls: int, steps: int, trainer, round_s: float):
        self.name = name
        self.mode = mode
        self.calls = calls
        self.steps = steps
        self.trainer = trainer
        self.round_s = round_s

    def setup(self, seed: int, workdir: Path):
        split, build_s = _build_corpus(seed)
        t0 = perf_counter()
        rm = reward_model.rm_train(split, epochs=RM_EPOCHS, seed=seed)
        rm_s = perf_counter() - t0
        state = {"corpus": split, "rm": rm, "digests": {"reward_model": rm.fingerprint()}}
        return state, {"corpus.build_s": build_s, "reward_model.train_s": rm_s}

    def run_round(self, state: dict, seed: int, out: Path) -> Round:
        inner = self.trainer.__dict__["train_step"]
        starts: list[float] = []

        def timed_step(trainer, *args, **kwargs):
            starts.append(perf_counter())
            return inner(trainer, *args, **kwargs)

        op_ms, outputs, digests = [], [], {}
        failed, seconds = 0, 0.0
        self.trainer.train_step = timed_step
        try:
            for k in range(self.calls):
                starts.clear()
                run_dir = out / f"call{k}"
                t0 = perf_counter()
                try:
                    result = runs.run_training(self.mode, state["corpus"], self.calls * seed + k,
                                               self.steps, run_dir, rm=state["rm"], clock="off")
                except Exception as exc:
                    # A call that raises fails all its steps; none of them is timed.
                    seconds += perf_counter() - t0
                    failed += self.steps
                    if not any("raised" in o for o in outputs):
                        traceback.print_exc()
                    shutil.rmtree(run_dir, ignore_errors=True)
                    outputs.append({"raised": repr(exc)})
                    digests[f"call{k}.raised"] = sha256(repr(exc).encode())
                    continue
                end = perf_counter()
                seconds += end - t0
                bounds = starts + [end]
                op_ms += [(b - a) * 1000.0 for a, b in zip(bounds, bounds[1:])]
                failed += sum(1 for m in result.metrics
                              if m.grad_skipped or not math.isfinite(m.loss))
                files = _run_files(run_dir)
                shutil.rmtree(run_dir, ignore_errors=True)
                outputs.append(dict(
                    files, steps=len(result.metrics), best_val=result.best_val_solved,
                    buffer_reads=result.buffer_reads,
                    replay_steps=sum(1 for m in result.metrics if m.env_calls == 0)))
                digests[f"call{k}.metrics_csv"] = sha256(files["metrics_csv"].encode())
                digests[f"call{k}.checkpoint"] = sha256(files["checkpoint"])
        finally:
            self.trainer.train_step = inner
        return Round(self.calls * self.steps, failed, seconds, op_ms, {"calls": outputs},
                     digests)

    def layer_counts(self, rnd: Round) -> dict[str, float]:
        if self.mode != "gfn":
            return {}  # no replay buffer
        calls = [c for c in rnd.outputs["calls"] if "raised" not in c]
        return {"gfn.buffer.reads_per_op": sum(c["buffer_reads"] for c in calls) / rnd.ops,
                "gfn.replay_share": sum(c["replay_steps"] for c in calls) / rnd.ops}

    def checks(self, state: dict, seed: int, rnd: Round) -> tuple[list[str], int]:
        """Problems found, and the number of operations they fail (the
        training checks are about whole runs, so none). Calls that raised are
        already counted as failed and have nothing to check."""
        split = state["corpus"]
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(split.train), size=CHECK_SAMPLE, replace=False)
        gt, problems = [], []
        for i in picks:
            thm = split.train[int(i)]
            states = _gt_walk(thm)
            if states is None:
                problems.append(f"{thm.name}: ground-truth proof does not replay")
            else:
                gt.append((thm, states))
        for k, out in enumerate(rnd.outputs["calls"]):
            if "raised" in out:
                continue
            if out["steps"] != self.steps:
                problems.append(f"call {k}: {out['steps']} step metrics for {self.steps} steps")
            problems += checks.check_run_files(out["metrics_csv"], out["summary"],
                                               self.steps, self.mode)
            arrays = dict(np.load(io.BytesIO(out["checkpoint"])))
            net = policy.PolicyNet.load(io.BytesIO(out["checkpoint"]))
            if self.mode == "gfn":
                problems += self._check_tb(arrays, net, gt)
                untrained = search.evaluate_split(policy.PolicyNet.create(seed=seed),
                                                  split.valid, validation_config()).solved
                if not out["best_val"] > untrained:
                    problems.append(f"call {k}: best validation solves {out['best_val']} do "
                                    f"not exceed the untrained policy's {untrained}")
            else:
                problems += self._check_ppo(arrays, net, gt, rng)
        return problems, 0

    @staticmethod
    def _check_tb(arrays, net, gt) -> list[str]:
        problems = []
        for thm, states in gt:
            traj = gfn.Trajectory(theorem_name=thm.name, tactics=thm.gt_proof,
                                  proof_states=tuple(states) + (env.ProofState(()),),
                                  outcome=gfn.PROVED, log_pf=0.0, log_r=0.0)
            program = gfn.tb_loss([traj], net)
            enc0 = policy.encode_from_parts(thm.initial_state, (), thm.initial_state,
                                            policy.HISTORY)
            encs, actions = _gt_steps(thm, states)
            own = checks.tb_loss_np(arrays, enc0, encs, actions, 0.0)
            problems += checks.check_close(f"{thm.name}: TB loss", program, own)
        return problems

    @staticmethod
    def _check_ppo(arrays, net, gt, rng) -> list[str]:
        steps, old_logps = [], []
        for thm, states in gt:
            encs, actions = _gt_steps(thm, states)
            logits, _ = checks.mlp_np(arrays, encs)
            lps = checks.log_softmax(logits)
            for enc, a, lp in zip(encs, actions, lps):
                steps.append((enc, a, float(rng.normal())))
                old_logps.append(float(lp[a]))
        advantages = rng.normal(size=len(steps)).tolist()
        _, surrogate, _ = baselines.ppo_loss_graph(nn.Tape(), net, steps, old_logps,
                                                   advantages, baselines.PPOConfig())
        return checks.check_close("PPO surrogate at ratio 1 vs mean advantage",
                                  float(surrogate.value), math.fsum(advantages) / len(advantages))


class VerifyWorkload:
    """Per theorem: best-first search at the validation configuration, then a
    depth-3 oracle report, with an SFT-trained checkpoint."""

    name = "verify"
    round_s = 6.3

    def setup(self, seed: int, workdir: Path):
        split, build_s = _build_corpus(seed)
        t0 = perf_counter()
        result = runs.run_training("sft", split, seed, SFT_STEPS, workdir, clock="off",
                                   val_every=0, checkpoint_every=0)
        sft_s = perf_counter() - t0
        files = _run_files(workdir)
        shutil.rmtree(workdir, ignore_errors=True)
        digests = {"sft_metrics_csv": sha256(files["metrics_csv"].encode()),
                   "sft_checkpoint": sha256(files["checkpoint"])}
        state = {"corpus": split, "net": result.net, "digests": digests}
        return state, {"corpus.build_s": build_s, "sft.train_s": sft_s}

    def run_round(self, state: dict, seed: int, out: Path) -> Round:
        net = state["net"]
        theorems = state["corpus"].train + state["corpus"].valid
        cfg = validation_config()
        op_ms, rows, reports = [], [], []
        failed = 0
        t_round = perf_counter()
        for thm in theorems:
            t0 = perf_counter()
            try:
                row = search.evaluate_split(net, [thm], cfg).per_theorem[0]
                report = oracle.oracle_report(net, thm, max_depth=ORACLE_DEPTH).to_dict()
            except Exception:  # a raising operation counts as failed
                failed += 1
                if failed == 1:
                    traceback.print_exc()
                row = report = None
            op_ms.append((perf_counter() - t0) * 1000.0)
            rows.append(row)
            reports.append(report)
        seconds = perf_counter() - t_round
        text = json.dumps([rows, reports], sort_keys=True).encode()
        return Round(len(theorems), failed, seconds, op_ms,
                     {"theorems": theorems, "rows": rows, "reports": reports},
                     {"verify_reports": sha256(text)})

    def layer_counts(self, rnd: Round) -> dict[str, float]:
        return {}  # no replay buffer

    def checks(self, state: dict, seed: int, rnd: Round) -> tuple[list[str], int]:
        """Per operation: an own enumeration of the trajectory tree and a
        replay of the returned proof. Operations that raised are already
        counted as failed and have nothing to check."""
        problems, failed = [], 0
        for thm, row, report in zip(rnd.outputs["theorems"], rnd.outputs["rows"],
                                    rnd.outputs["reports"]):
            if row is None:
                continue
            log_rs = checks.enumerate_log_rewards(env, thm.initial_state, ORACLE_DEPTH)
            found = checks.check_proof(env, thm, row) + checks.check_oracle(report, log_rs)
            failed += bool(found)
            problems += found
        return problems, failed


# round_s: a round's duration on the reference 2-core VM; a run makes as many
# rounds as fit in its --seconds at that pace, whatever the speed of the code.
WORKLOADS = {
    # Every train theorem is scheduled twice, so replay steps are a steady share.
    "train-gfn": TrainWorkload("train-gfn", "gfn", 1, 2 * TRAIN_SIZE, gfn.GFNTrainer, 13.0),
    # Short PPO runs: past a few hundred steps some seeds leave the regime of
    # one-tactic rollouts and steps get twice as long, others never do; eight
    # short runs also even out the seed-to-seed tail.
    "train-ppo": TrainWorkload("train-ppo", "ppo", 8, 125, baselines.PPOTrainer, 16.0),
    "verify": VerifyWorkload(),
}
