"""Train the ablation grid on a small corpus and compare best-first-search
solve rates against the untrained baseline, mirroring the evaluation
protocol (branching 8, expansion budget standing in for the wall clock).

Run: python demos/demo_training_comparison.py   (about a minute)
"""

import tempfile
from pathlib import Path

from flowprover.baselines import gt_top1_accuracy
from flowprover.corpus import build_corpus
from flowprover.policy import HISTORY, HISTORY_LESS, PolicyNet
from flowprover.reward_model import rm_train
from flowprover.runs import run_training
from flowprover.search import SearchConfig, evaluate_split

corpus = build_corpus(5, train_size=120, valid_size=12)
print(f"corpus: {len(corpus.train)} train / {len(corpus.valid)} valid theorems")

rm = rm_train(corpus, epochs=12, seed=0)
accuracy = gt_top1_accuracy(rm, corpus.train, HISTORY_LESS)
print(f"reward model trained, ground-truth accuracy {accuracy:.2f}")

# base protocol: untrained network, history-less encoding
base_net = PolicyNet.create(seed=999)
base_cfg = SearchConfig(branching=8, expansion_budget=100, encoding_mode=HISTORY_LESS)
base = evaluate_split(base_net, corpus.valid, base_cfg)
print(f"\nuntrained base: {base.solved}/{base.total} solved")

eval_cfg = SearchConfig(branching=8, expansion_budget=100, encoding_mode=HISTORY)
steps = 480
with tempfile.TemporaryDirectory() as tmp:
    for mode in ("sft", "gfn", "gfn_oo", "gfn_br_oo", "ppo"):
        needs_rm = mode in ("gfn", "gfn_oo")
        result = run_training(
            mode, corpus, seed=3, steps=steps, out_dir=Path(tmp) / mode,
            rm=rm if needs_rm else None, clock="off", val_every=0,
        )
        report = evaluate_split(result.net, corpus.valid, eval_cfg)
        print(f"{mode:10s} {steps} steps: {report.solved}/{report.total} solved, "
              f"env calls {result.total_env_calls}, buffer reads {result.buffer_reads}")
