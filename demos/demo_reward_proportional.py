"""The core property: trajectory-balance training makes the policy sample
complete trajectories with probability proportional to their reward.

A five-theorem micro-suite over a restricted six-action space is trained
with the TB objective, then the enumeration oracle compares the policy's
exact trajectory distribution against R/Z and checks the learned log-Z
head against the enumerated partition function.

Run: python demos/demo_reward_proportional.py   (a few seconds)

It prints no wall-clock time, so two runs print the same bytes.
"""

from flowprover.corpus import Theorem
from flowprover.env import initial_state, parse_tactic
from flowprover.formulas import parse_formula
from flowprover.gfn import GFNTrainer, TrainConfig
from flowprover.oracle import enumerate_trajectories, policy_trajectory_probs, tv_distance
from flowprover.policy import PolicyNet, predict_log_z

ACTION_SET = (0, 1, 2, 3, 4, 12)  # intro, split, left, right, exact h1, apply h1

goals = ["a -> a", "b -> b", "a & b -> a & b", "a | b -> a | b", "(a -> b) -> (a -> b)"]
theorems = [
    Theorem(name=f"micro{i}", initial_state=initial_state(parse_formula(g)),
            gt_proof=(parse_tactic("intro"), parse_tactic("exact h1")))
    for i, g in enumerate(goals)
]

net = PolicyNet.create(seed=11)
cfg = TrainConfig(mode="gfn_br_oo", max_depth=2, action_set=ACTION_SET, lr=1e-3)
trainer = GFNTrainer(theorems, net, cfg, seed=20)


def report(label):
    print(f"-- {label}")
    for thm in theorems:
        dist = enumerate_trajectories(thm, max_depth=2, action_set=ACTION_SET)
        probs = policy_trajectory_probs(net, dist)
        tv = tv_distance(probs, dist.target_probs)
        dz = predict_log_z(net, thm) - dist.log_z
        print(f"   {thm.name}: {len(dist.leaves):3d} trajectories, "
              f"TV(policy, R/Z) = {tv:.4f}, logZ error = {dz:+.4f}")


report("untrained policy")
steps = 3000
for i in range(steps):
    trainer.train_step(theorems[i % len(theorems)])
print(f"\ntrained {steps} TB steps\n")
report("after trajectory-balance training")
