"""Output checks, computed apart from the program under test.

Each check returns a list of problems (empty when the output is right). They
compare against recomputations made here (an own enumeration of the
trajectory tree with the documented binary reward, a plain-numpy MLP) or
against properties the method must have (ratio-1 identity of the clipped
PPO objective, proofs that replay, one metrics row per step); never against a
stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

# Documented binary log-reward: 0 when proved, otherwise
# error_base + alpha * ln((c - l) / c) with l the mean tactic length.
ALPHA = 8.0
C_MAX = 88.0
ERROR_BASE = -15.0


def binary_log_reward(proved: bool, tactic_texts) -> float:
    if proved:
        return 0.0
    mean_len = sum(len(t) for t in tactic_texts) / len(tactic_texts)
    return ERROR_BASE + ALPHA * math.log((C_MAX - mean_len) / C_MAX)


def enumerate_log_rewards(env, initial_state, max_depth: int = 3) -> list[float]:
    """Log R of every terminal trajectory, by a depth-first walk over
    ``env.ACTIONS`` that stops on proved, on error and at ``max_depth``."""
    out: list[float] = []

    def walk(state, prefix: list[str]) -> None:
        for tactic in env.ACTIONS:
            result = env.apply_tactic(state, tactic)
            texts = prefix + [tactic.render()]
            if result.proved:
                out.append(binary_log_reward(True, texts))
            elif result.failed or len(texts) >= max_depth:
                out.append(binary_log_reward(False, texts))
            else:
                walk(result.state, texts)

    walk(initial_state, [])
    return out


def logsumexp(xs) -> float:
    top = max(xs)
    return top + math.log(math.fsum(math.exp(x - top) for x in xs))


def check_oracle(report: dict, log_rewards: list[float], tol: float = 1e-9) -> list[str]:
    """An oracle report against an own enumeration of the same theorem."""
    name = report.get("theorem")
    problems = []
    if report["n_trajectories"] != len(log_rewards):
        problems.append(f"{name}: oracle counts {report['n_trajectories']} trajectories, "
                        f"own enumeration {len(log_rewards)}")
    own_log_z = logsumexp(log_rewards)
    if not abs(report["log_Z"] - own_log_z) <= tol:
        problems.append(f"{name}: oracle log_Z {report['log_Z']!r}, own {own_log_z!r}")
    tv = report["tv_distance"]
    if not 0.0 <= tv <= 1.0:
        problems.append(f"{name}: TV distance {tv!r} outside [0, 1]")
    if not math.isfinite(report["predicted_log_Z"]):
        problems.append(f"{name}: predicted log_Z is not finite")
    return problems


def check_proof(env, thm, row: dict) -> list[str]:
    """A search report row: a claimed proof must replay to proved."""
    if not row["solved"]:
        return [] if row["proof"] is None else [f"{thm.name}: unsolved row carries a proof"]
    if not row["proof"]:
        return [f"{thm.name}: solved without a proof"]
    try:
        tactics = [env.parse_tactic(text) for text in row["proof"]]
    except ValueError as exc:
        return [f"{thm.name}: proof does not parse: {exc}"]
    if not env.replay(thm.initial_state, tactics).proved:
        return [f"{thm.name}: returned proof {row['proof']} does not replay to proved"]
    return []


def mlp_np(arrays, x: np.ndarray):
    """Plain tanh MLP: returns (logits, last hidden)."""
    h1 = np.tanh(x @ arrays["p:w1"] + arrays["p:b1"])
    h2 = np.tanh(h1 @ arrays["p:w2"] + arrays["p:b2"])
    return h2 @ arrays["p:w3"] + arrays["p:b3"], h2


def log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def tb_loss_np(arrays, enc0: np.ndarray, step_encs: np.ndarray,
               actions, log_r: float) -> float:
    """Trajectory-balance loss of one trajectory:
    (log Z + sum log P_F(a_i | s_i) - log R)^2."""
    _, h0 = mlp_np(arrays, enc0)
    log_z = float(h0 @ arrays["p:wz"] + arrays["p:bz"])
    logits, _ = mlp_np(arrays, step_encs)
    log_pf = float(log_softmax(logits)[np.arange(len(actions)), actions].sum())
    residual = log_z + log_pf - log_r
    return residual * residual


def check_close(label: str, program: float, own: float, tol: float = 1e-9) -> list[str]:
    if math.isfinite(program) and abs(program - own) <= tol:
        return []
    return [f"{label}: program {program!r}, recomputed {own!r}"]


def check_run_files(metrics_csv: str, summary: dict, steps: int, mode: str) -> list[str]:
    """metrics.csv has one row per step and agrees with summary.json."""
    rows = list(csv.DictReader(io.StringIO(metrics_csv)))
    problems = []
    if [r["step"] for r in rows] != [str(i) for i in range(1, steps + 1)]:
        problems.append(f"metrics.csv has {len(rows)} rows, not steps 1..{steps}")
    losses = [float(r["loss"]) for r in rows]
    if not all(math.isfinite(x) for x in losses):
        problems.append("metrics.csv holds a non-finite loss")
    if mode.startswith("gfn") and any(x < 0.0 for x in losses):
        problems.append("metrics.csv holds a negative trajectory-balance loss")
    env_calls = sum(int(r["env_calls"]) for r in rows)
    if summary["total_env_calls"] != env_calls:
        problems.append(f"summary total_env_calls {summary['total_env_calls']} != "
                        f"metrics.csv env_calls sum {env_calls}")
    if mode == "gfn" and not summary["buffer_reads"] > 0:
        problems.append("replay buffer was never read")
    return problems
