"""The partial-reward scorer and the hard-negative mining loop.

The scorer is a separate network fit to ground-truth (state, tactic) pairs
over the history-less encoding. Once trained it stays frozen and supplies
partial credit for rollouts that run out of depth without erroring. Mining
samples rollouts, then labels each valid tactic by searching its child
state: provable child -> positive, otherwise negative.

Run: python demos/demo_reward_model.py
"""

from collections import Counter

import numpy as np

from flowprover.baselines import gt_top1_accuracy
from flowprover.corpus import build_corpus
from flowprover.env import ACTIONS, apply_tactic, parse_tactic
from flowprover.gfn import log_reward, trajectory_from_tactics
from flowprover.policy import HISTORY_LESS, PolicyNet
from flowprover.reward_model import mine_hard_negatives, rm_train

corpus = build_corpus(5, train_size=200, valid_size=10)
rm = rm_train(corpus, epochs=15, seed=0)
accuracy = gt_top1_accuracy(rm, corpus.train, HISTORY_LESS)
print(f"scorer accuracy on ground-truth pairs: {accuracy:.2f}")
print(f"epoch losses: {['%.3f' % l for l in rm.epoch_losses[:5]]} ... "
      f"{rm.epoch_losses[-1]:.3f}")

print("\n== scoring tactics in a state ==")
thm = corpus.valid[0]
state = apply_tactic(thm.initial_state, thm.gt_proof[0]).state
print(f"state: {state.render()}")
scored = sorted(((rm.score(state, t), t) for t in ACTIONS), reverse=True)
for lp, t in scored[:4]:
    print(f"   {t.render():12s} log p = {lp:+.3f}")
print(f"   ground truth next step: {thm.gt_proof[1].render()}")

print("\n== partial credit for depth-exhausted rollouts ==")
stalled = trajectory_from_tactics(thm, [parse_tactic("intro")])
full = log_reward(stalled, rm=rm)
binary = log_reward(stalled)
print(f"   full reward (scorer credit): {full:+.3f}   binary reward: {binary:+.3f}")

print("\n== mining labels from failed rollouts ==")
sampler = PolicyNet.create(seed=0, scale=0.0)
b3 = np.zeros(36)
b3[:5] = 2.0  # nudge toward valid tactics so rollouts reach depth
sampler.store["b3"] = b3
labels = Counter()
for t in corpus.valid[:5]:
    for pair in mine_hard_negatives(sampler, t, explore_budget=36, n_rollouts=24, seed=1):
        labels[pair.label] += 1
print(f"   label counts over 5 theorems x 24 rollouts: {dict(labels)}")
