"""Per-layer metrics of a traced round.

Each metric is read from the tracer's per-function statistics, divided by
the round's operations (training steps, or verified theorems). A metric whose
function no longer exists in the program, or that the workload does not
measure, is reported as 0 and listed as absent. ``*_ms_per_op`` without
``self`` is inclusive time: it contains the time of every wrapped call
beneath it, tracing cost included.
"""

from __future__ import annotations

import statistics

RUN = "runs:run_training"

# name -> (target, what): calls, incl (inclusive ms), self (self ms),
# count (a count read off return values), or edge:<caller> (inclusive ms of
# calls made directly from that caller).
TRACED = {
    "reward_model.score.calls_per_op": ("reward_model:RewardModel.score", "calls"),
    "reward_model.score.ms_per_op": ("reward_model:RewardModel.score", "incl"),
    "runs.self_ms_per_op": (RUN, "self"),
    "runs.checkpoint.ms_per_op": ("policy:PolicyNet.save", "edge:" + RUN),
    "runs.validation.ms_per_op": ("search:evaluate_split", "edge:" + RUN),
    "gfn.rollout.calls_per_op": ("gfn:sample_trajectory", "calls"),
    "gfn.rollout.self_ms_per_op": ("gfn:sample_trajectory", "self"),
    "gfn.loss_graph.self_ms_per_op": ("gfn:tb_loss_graph", "self"),
    "baselines.ppo_loss_graph.self_ms_per_op": ("baselines:ppo_loss_graph", "self"),
    "policy.encode.calls_per_op": ("policy:encode_from_parts", "calls"),
    "policy.encode.ms_per_op": ("policy:encode_from_parts", "incl"),
    "nn.forward_taped.calls_per_op": ("nn:mlp_forward", "calls"),
    "nn.forward_taped.ms_per_op": ("nn:mlp_forward", "incl"),
    "nn.backward.ms_per_op": ("nn:Tape.backward", "incl"),
    "nn.optim.calls_per_op": ("nn:optim_step", "calls"),
    "nn.optim.ms_per_op": ("nn:optim_step", "incl"),
    "nn.forward_np.calls_per_op": ("nn:mlp_forward_np", "calls"),
    "nn.forward_np.ms_per_op": ("nn:mlp_forward_np", "incl"),
    "env.apply_tactic.calls_per_op": ("env:apply_tactic", "calls"),
    "env.apply_tactic.ms_per_op": ("env:apply_tactic", "incl"),
    "search.calls_per_op": ("search:search_from_state", "calls"),
    "search.expansions_per_op": ("search:search_from_state", "count"),
    "search.self_ms_per_op": ("search:search_from_state", "self"),
    "oracle.enumerate.self_ms_per_op": ("oracle:enumerate_trajectories", "self"),
    "oracle.policy_probs.self_ms_per_op": ("oracle:policy_trajectory_probs", "self"),
    "oracle.flow_check.self_ms_per_op": ("oracle:flow_check", "self"),
    "oracle.trajectories_per_op": ("oracle:enumerate_trajectories", "count"),
}

# Measured by the workload itself rather than by the tracer.
SETUP = ("corpus.build_s", "reward_model.train_s")
COUNTED = ("gfn.buffer.reads_per_op", "gfn.replay_share")


def per_layer(workload, untraced, traced, tracer, setup) -> tuple[dict[str, float], list[str]]:
    """Metrics of the traced round ``traced``, and the names of those
    absent; ``untraced`` is the same round run without tracing, for the
    overhead."""
    values: dict[str, float] = {}
    absent: list[str] = []
    for name in SETUP:
        times = setup.layer_seconds.get(name)
        if not times:
            absent.append(name)
        values[name] = statistics.median(times) if times else 0.0
    counts = workload.layer_counts(traced)
    for name in COUNTED:
        if name not in counts:
            absent.append(name)
        values[name] = counts.get(name, 0.0)
    ops = traced.ops
    for name, (target, what) in TRACED.items():
        stat = tracer.stat(target)
        caller = what.partition(":")[2]
        if stat is None or (caller and tracer.stat(caller) is None):
            absent.append(name)
            values[name] = 0.0
        elif caller:
            values[name] = tracer.edges.get((caller, target), 0.0) * 1000.0 / ops
        elif what == "calls":
            values[name] = stat.calls / ops
        elif what == "count":
            values[name] = stat.count / ops
        else:
            values[name] = (stat.incl if what == "incl" else stat.self_) * 1000.0 / ops
    values["trace.overhead_pct"] = (traced.seconds / untraced.seconds - 1.0) * 100.0
    return values, absent
