"""Training-run orchestration: schedules, metrics, manifests, checkpoints.

Every trainer keeps one contract. It is built as ``Trainer(theorems, net,
cfg, seed=...)`` (PPO and GFN also take the reward model), and its own
class body defines ``train_step(thm) -> StepMetrics``, which makes its
updates through ``nn.update``. A run holds the metrics of every step and
sums its totals (environment calls, skipped updates) from them; only the
replay buffer's read count comes from the trainer.

Every run directory contains an immutable manifest and config.txt (both
written before the first step), metrics.csv, periodic checkpoints, and a
final checkpoint plus summary; checkpoints and summary.json are written
atomically (``nn.write_atomic``). config.txt is the TrainConfig the run trained
on, written by ``TrainConfig.write`` as a ``--config`` file, so ``train
--config RUN/config.txt`` with the run's mode, seed and steps reruns it.
metrics.csv gets its header before the first step and each row right after
its step, flushed, so a run that stops early keeps the rows of the steps it
finished. With ``clock="off"`` the wall_ms column is zeroed, making
metrics.csv byte-identical across reruns of the same (seed, config, corpus);
the default real clock leaves every other column untouched.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import PPOTrainer, SFTTrainer
from .corpus import CorpusSplit, check_non_negative
from .gfn import GFNTrainer, ProofTree, StepMetrics, TrainConfig
from .nn import write_atomic
from .policy import PolicyNet
from .reward_model import RewardModel
from .search import SearchConfig, evaluate_split

METRICS_COLUMNS = (
    "step", "mode", "loss", "mean_log_r", "mean_log_pf", "log_z_mean",
    "env_calls", "wall_ms", "val_solved",
)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        if np.isnan(x):
            return ""
        return format(x, ".12g")
    return str(x)


def metrics_row(m: StepMetrics) -> str:
    return ",".join(_fmt(v) for v in (
        m.step, m.mode, m.loss, m.mean_log_r, m.mean_log_pf, m.log_z,
        m.env_calls, m.wall_ms, m.val_solved,
    ))


@dataclass
class RunResult:
    out_dir: Path
    metrics: list[StepMetrics]
    net: PolicyNet
    total_env_calls: int
    buffer_reads: int
    val_history: list[tuple[int, int]]  # (step, solved)

    @property
    def best_val_solved(self) -> int:
        return max((s for _, s in self.val_history), default=0)


def run_training(mode: str, corpus: CorpusSplit, seed: int, steps: int,
                 out_dir: str | Path, rm: RewardModel | None = None,
                 cfg: TrainConfig | None = None, clock: str = "real", val_every: int = 20,
                 checkpoint_every: int = 100, corpus_digest: str = "",
                 command: str = "") -> RunResult:
    """Train ``mode`` for ``steps`` gradient steps over the corpus. ``cfg``
    is copied with ``mode`` (which re-applies the settings the mode forces)
    and resolved against ``rm`` by the trainer (``for_reward_model``); the
    run records the trainer's config and leaves the caller's object as it
    was. Validation searches with the default ``SearchConfig`` at the
    resolved ``max_depth``, where the rollouts stop. ValueError, before
    anything is written, for a negative count, for steps on an empty train
    split, or for a train split the trainer refuses (under GFN with
    ``inject_gt``, a ground truth longer than ``cfg.max_depth``)."""
    if clock not in ("real", "off"):
        raise ValueError(f"clock must be real or off, got {clock!r}")
    check_non_negative(seed=seed, steps=steps, val_every=val_every,
                       checkpoint_every=checkpoint_every)
    if steps and not corpus.train:
        raise ValueError(f"cannot take {steps} steps: the corpus has no train theorems")
    cfg = replace(cfg or TrainConfig(), mode=mode)

    ss = np.random.SeedSequence(seed)
    net_seed, trainer_seed, sched_seed = [int(s.generate_state(1)[0]) for s in ss.spawn(3)]
    net = PolicyNet.create(seed=net_seed)
    # the trainer resolves cfg against rm and checks the corpus, before anything is written
    if mode == "sft":
        trainer = SFTTrainer(corpus.train, net, cfg, seed=trainer_seed)
    elif mode == "ppo":
        trainer = PPOTrainer(corpus.train, net, cfg, rm=rm, seed=trainer_seed)
    else:
        trainer = GFNTrainer(corpus.train, net, cfg, rm=rm, seed=trainer_seed)
    cfg = trainer.cfg
    search_cfg = SearchConfig(max_depth=cfg.max_depth)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    manifest = {
        "command": command,
        "mode": mode,
        "seed": seed,
        "steps": steps,
        "config": asdict(cfg),
        "ppo_config": asdict(trainer.ppo) if mode == "ppo" else None,
        "validation": {"every": val_every, "branching": search_cfg.branching,
                       "budget": search_cfg.expansion_budget,
                       "encoding": search_cfg.encoding_mode,
                       "max_depth": search_cfg.max_depth},
        "corpus_hash": corpus_digest,
        "version": __version__,
        "clock": clock,
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    cfg.write(out / "config.txt")

    sched_rng = np.random.default_rng(sched_seed)
    schedule: list[int] = []
    while len(schedule) < steps:
        schedule.extend(sched_rng.permutation(len(corpus.train)).tolist())
    schedule = schedule[:steps]

    # One search tree per validation theorem for the run: each prefix is
    # encoded, applied and fingerprinted once, whatever the net.
    val_trees = [ProofTree(thm) for thm in corpus.valid]
    metrics: list[StepMetrics] = []
    val_history: list[tuple[int, int]] = []
    with (out / "metrics.csv").open("w") as csv_file:
        csv_file.write(",".join(METRICS_COLUMNS) + "\n")
        csv_file.flush()
        for i, thm_idx in enumerate(schedule, start=1):
            t0 = time.monotonic()
            m = trainer.train_step(corpus.train[thm_idx])
            if clock == "real":
                m.wall_ms = int((time.monotonic() - t0) * 1000)
            if val_every and i % val_every == 0:
                report = evaluate_split(net, val_trees, search_cfg)
                m.val_solved = report.solved
                val_history.append((i, report.solved))
            metrics.append(m)
            csv_file.write(metrics_row(m) + "\n")
            csv_file.flush()
            if checkpoint_every and i % checkpoint_every == 0:
                net.save(out / f"ckpt_{i:06d}.npz")
    net.save(out / "checkpoint_final.npz")

    total_env_calls = sum(m.env_calls for m in metrics)
    buffer_reads = getattr(getattr(trainer, "buffer", None), "reads", 0)
    summary = {
        "ended_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "total_env_calls": total_env_calls,
        "buffer_reads": buffer_reads,
        "grad_skips": sum(m.grad_skipped for m in metrics),
        "val_history": val_history,
    }
    text = json.dumps(summary, indent=2) + "\n"
    write_atomic(out / "summary.json", lambda fh: fh.write(text.encode()))
    return RunResult(
        out_dir=out,
        metrics=metrics,
        net=net,
        total_env_calls=total_env_calls,
        buffer_reads=buffer_reads,
        val_history=val_history,
    )
