"""Training-run orchestration: schedules, metrics, manifests, checkpoints.

Every trainer keeps one contract. It is built as ``Trainer(theorems, net,
cfg, seed=...)`` (PPO and GFN also take the reward model), and its own
class body defines ``train_step(thm) -> StepMetrics``, which makes its
updates through ``nn.update``. A run holds the metrics of every step and
sums its totals (environment calls, skipped updates) from them; only the
replay buffer's read count comes from the trainer.

Every run directory contains an immutable manifest (written before the
first step), a flat key=value config snapshot, metrics.csv, periodic
checkpoints, and a final checkpoint plus summary. With ``clock="off"`` the
wall_ms column is zeroed, making metrics.csv byte-identical across reruns
of the same (seed, config, corpus); the default real clock leaves every
other column untouched.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import PPOConfig, PPOTrainer, SFTTrainer
from .corpus import CorpusSplit
from .gfn import ALL_MODES, GFNTrainer, StepMetrics, TrainConfig
from .policy import HISTORY, PolicyNet
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
                 cfg: TrainConfig | None = None, ppo_cfg: PPOConfig | None = None,
                 clock: str = "real", val_every: int = 20,
                 val_cfg: SearchConfig | None = None,
                 checkpoint_every: int = 100, corpus_digest: str = "",
                 command: str = "") -> RunResult:
    """Train ``mode`` for ``steps`` gradient steps over the corpus. ``cfg``
    is copied with ``mode`` and ``steps`` (which re-applies the settings the
    mode forces); the caller's object is left as it was."""
    if mode not in ALL_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if clock not in ("real", "off"):
        raise ValueError(f"clock must be real or off, got {clock!r}")
    cfg = replace(cfg or TrainConfig(), mode=mode, total_steps=steps)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if mode in ("gfn", "gfn_oo") and cfg.reward_mode == "full_rm" and rm is None:
        raise ValueError(f"mode {mode} needs a trained reward model")
    if val_cfg is None:
        val_cfg = SearchConfig(branching=8, expansion_budget=100, encoding_mode=HISTORY)

    ss = np.random.SeedSequence(seed)
    net_seed, trainer_seed, sched_seed = [int(s.generate_state(1)[0]) for s in ss.spawn(3)]
    net = PolicyNet.create(seed=net_seed)

    manifest = {
        "command": command,
        "mode": mode,
        "seed": seed,
        "steps": steps,
        "config": asdict(cfg),
        "ppo_config": asdict(ppo_cfg) if ppo_cfg else None,
        "validation": {"every": val_every, "branching": val_cfg.branching,
                       "budget": val_cfg.expansion_budget,
                       "encoding": val_cfg.encoding_mode},
        "corpus_hash": corpus_digest,
        "version": __version__,
        "clock": clock,
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    (out / "config.txt").write_text(
        "".join(f"{k}={v}\n" for k, v in sorted(_flatten(manifest).items())))

    if mode == "sft":
        trainer = SFTTrainer(corpus.train, net, cfg, seed=trainer_seed)
    elif mode == "ppo":
        trainer = PPOTrainer(corpus.train, net, cfg, ppo=ppo_cfg or PPOConfig(),
                             rm=rm, seed=trainer_seed)
    else:
        trainer = GFNTrainer(corpus.train, net, cfg, rm=rm, seed=trainer_seed)

    sched_rng = np.random.default_rng(sched_seed)
    schedule: list[int] = []
    while len(schedule) < steps:
        schedule.extend(sched_rng.permutation(len(corpus.train)).tolist())
    schedule = schedule[:steps]

    metrics: list[StepMetrics] = []
    val_history: list[tuple[int, int]] = []
    lines = [",".join(METRICS_COLUMNS)]
    for i, thm_idx in enumerate(schedule, start=1):
        t0 = time.monotonic()
        m = trainer.train_step(corpus.train[thm_idx])
        if clock == "real":
            m.wall_ms = int((time.monotonic() - t0) * 1000)
        if val_every and i % val_every == 0:
            report = evaluate_split(net, corpus.valid, val_cfg)
            m.val_solved = report.solved
            val_history.append((i, report.solved))
        metrics.append(m)
        lines.append(metrics_row(m))
        if checkpoint_every and i % checkpoint_every == 0:
            net.save(out / f"ckpt_{i:06d}.npz")
    (out / "metrics.csv").write_text("\n".join(lines) + "\n")
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
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return RunResult(
        out_dir=out,
        metrics=metrics,
        net=net,
        total_env_calls=total_env_calls,
        buffer_reads=buffer_reads,
        val_history=val_history,
    )


def _flatten(obj, prefix: str = "") -> dict:
    flat = {}
    for key, value in obj.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, prefix=f"{name}."))
        else:
            flat[name] = value
    return flat
