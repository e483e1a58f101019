"""Operator command line: corpus generation, training, evaluation, oracle
verification, and hard-negative mining.

Exit codes: 0 success, 1 assertion failure (``oracle --assert``), 2 usage
error. ``main`` is the one place that maps an error to an exit code: any
``ValueError`` or ``OSError`` a command raises (a bad flag value, corpus,
checkpoint or config file, an unwritable ``--out``) prints one ``error:``
line and exits 2. Other exceptions are program faults and stay uncaught.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .corpus import MAX_PROOF_LEN, build_corpus, corpus_hash, load_split, save_split
from .gfn import ALL_MODES, BINARY, FULL_RM, TrainConfig, parse_action_set
from .oracle import oracle_report, reports_to_json
from .policy import HISTORY, HISTORY_LESS, PolicyNet
from .reward_model import RewardModel, mine_hard_negatives, rm_train, save_labeled
from .runs import run_training
from .search import SearchConfig, evaluate_split


def cmd_datagen(args) -> int:
    out = Path(args.out)
    if out.exists() and not out.is_dir():
        raise ValueError(f"--out {out} exists and is not a directory")
    split = build_corpus(args.seed, train_size=args.train_size, valid_size=args.valid_size)
    out.mkdir(parents=True, exist_ok=True)
    digest = save_split(split, out)
    print(f"wrote {len(split.train)} train / {len(split.valid)} valid theorems to {out}")
    print(f"corpus hash {digest}")
    return 0


def cmd_rm_train(args) -> int:
    _check_out(args.out)
    rm = rm_train(load_split(args.corpus), epochs=args.epochs, seed=args.seed)
    rm.save(args.out)
    print(f"reward model saved to {args.out}")
    return 0


def cmd_train(args) -> int:
    mode = args.mode.replace("-", "_")
    split, digest = load_split(args.corpus), corpus_hash(args.corpus)
    # explicit flags take precedence over config-file values
    overrides = {"mode": mode}
    if args.replay_p is not None:
        overrides["replay_p"] = args.replay_p
    if args.no_inject_gt:
        overrides["inject_gt"] = False
    cfg = TrainConfig.read(args.config, **overrides) if args.config else TrainConfig(**overrides)
    rm = RewardModel.load(args.rm) if args.rm else None
    result = run_training(
        mode=mode, corpus=split, seed=args.seed, steps=args.steps,
        out_dir=args.out, rm=rm, cfg=cfg, clock=args.clock,
        val_every=args.val_every, corpus_digest=digest,
        command=" ".join(sys.argv),
    )
    print(f"run complete: {result.out_dir}")
    print(f"total env calls {result.total_env_calls}, buffer reads {result.buffer_reads}")
    if result.val_history:
        print(f"best validation solves {result.best_val_solved}/{len(split.valid)}")
    return 0


def cmd_eval(args) -> int:
    _check_out(args.out)
    split = load_split(args.corpus)
    theorems = split.valid if args.split == "valid" else split.train
    net = PolicyNet.load(args.checkpoint)
    cfg = SearchConfig(branching=args.branching, expansion_budget=args.budget,
                       encoding_mode=args.encoding, dedupe=not args.no_dedupe)
    report = evaluate_split(net, theorems, cfg)
    text = report.to_json()
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


def cmd_oracle(args) -> int:
    action_set = None
    if args.action_set:
        try:
            action_set = parse_action_set(args.action_set)
        except ValueError as exc:
            raise ValueError(f"--action-set: {exc}") from exc
    if args.reward == FULL_RM and not args.rm:
        raise ValueError("--reward full_rm requires --rm (trained reward model checkpoint)")
    if args.max_depth < 1:
        raise ValueError(f"--max-depth must be at least 1, got {args.max_depth}")
    for flag, tol in (("--tv-tol", args.tv_tol), ("--logz-tol", args.logz_tol)):
        if not 0.0 <= tol < np.inf:
            raise ValueError(f"{flag} must be non-negative and finite, got {tol}")
    _check_limit(args.limit)
    _check_out(args.out)
    split = load_split(args.theorems)
    theorems = split.valid if args.split == "valid" else split.train
    if args.limit:
        theorems = theorems[: args.limit]
    net = PolicyNet.load(args.checkpoint)
    # the binary reward gives no partial credit, so it takes no reward model
    rm = RewardModel.load(args.rm) if args.reward == FULL_RM else None
    reports = [oracle_report(net, thm, args.max_depth, rm, action_set) for thm in theorems]
    text = reports_to_json(reports)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    if args.assert_proportional:
        # written as a pass test so that a NaN report fails
        bad = [r for r in reports if not (r.tv_distance <= args.tv_tol and
                                          abs(r.predicted_log_z - r.log_z) <= args.logz_tol)]
        if bad:
            for r in bad:
                print(f"FAIL {r.theorem}: tv={r.tv_distance:.4f} "
                      f"logZ err={abs(r.predicted_log_z - r.log_z):.4f}", file=sys.stderr)
            return 1
    return 0


def cmd_mine(args) -> int:
    if args.budget < 0:
        raise ValueError(f"--budget must be non-negative, got {args.budget}")
    _check_limit(args.limit)
    _check_out(args.out)
    split = load_split(args.corpus)
    net = PolicyNet.load(args.checkpoint)
    theorems = (split.valid if args.split == "valid" else split.train)[: args.limit or None]
    pairs = [p for thm in theorems
             for p in mine_hard_negatives(net, thm, explore_budget=args.budget,
                                          n_rollouts=args.rollouts, seed=args.seed)]
    save_labeled(pairs, args.out)
    print(f"wrote {len(pairs)} labeled tactics to {args.out}")
    return 0


def _check_limit(limit: int) -> None:
    """Refuse a negative ``--limit``; 0 means every theorem."""
    if limit < 0:
        raise ValueError(f"--limit must be non-negative, got {limit}")


def _check_out(out: str | None) -> None:
    """Refuse, before any work, an output file path that is a directory or
    whose parent is not an existing directory; None means stdout."""
    if out is not None and Path(out).is_dir():
        raise ValueError(f"--out {out} is a directory")
    if out is not None and not Path(out).parent.is_dir():
        raise ValueError(f"--out {out}: {Path(out).parent} is not an existing directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flowprover")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datagen", help="generate the theorem corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--train-size", type=int, default=1000)
    p.add_argument("--valid-size", type=int, default=20)
    p.set_defaults(fn=cmd_datagen)

    p = sub.add_parser("rm-train", help="train the reward model on ground-truth pairs")
    p.add_argument("--corpus", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_rm_train)

    p = sub.add_parser("train", help="run a training mode")
    p.add_argument("--mode", required=True, choices=[m.replace("_", "-") for m in ALL_MODES])
    p.add_argument("--corpus", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--out", required=True)
    p.add_argument("--rm", help="reward model checkpoint (required for gfn / gfn-oo under "
                   "the full reward; ppo without it trains on the binary reward)")
    p.add_argument("--replay-p", type=float, default=None)
    p.add_argument("--no-inject-gt", action="store_true")
    p.add_argument("--val-every", type=int, default=20)
    p.add_argument("--clock", choices=["real", "off"], default="real",
                   help="'off' zeroes wall_ms for byte-reproducible metrics")
    p.add_argument("--config", help="key = value file of TrainConfig fields (a run's "
                   "config.txt is one); explicit flags win")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="best-first-search evaluation of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--split", choices=["train", "valid"], default="valid")
    p.add_argument("--branching", type=int, default=8)
    p.add_argument("--budget", type=int, default=100)
    p.add_argument("--encoding", choices=[HISTORY, HISTORY_LESS], default=HISTORY)
    p.add_argument("--no-dedupe", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("oracle", help="enumeration-oracle verification of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--theorems", required=True, help="corpus directory")
    p.add_argument("--split", choices=["train", "valid"], default="valid")
    p.add_argument("--limit", type=int, default=0)
    p.add_argument("--max-depth", type=int, default=MAX_PROOF_LEN)
    p.add_argument("--reward", choices=[BINARY, FULL_RM], default=BINARY)
    p.add_argument("--rm", help="reward model checkpoint (required for --reward full_rm)")
    p.add_argument("--action-set", help="comma-separated distinct action indices in 0..35")
    p.add_argument("--assert", dest="assert_proportional", action="store_true",
                   help="exit 1 unless every theorem meets the tolerances")
    p.add_argument("--tv-tol", type=float, default=0.05)
    p.add_argument("--logz-tol", type=float, default=0.1)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("mine", help="label tactics from failed rollouts")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--split", choices=["train", "valid"], default="valid")
    p.add_argument("--budget", type=int, default=36)
    p.add_argument("--rollouts", type=int, default=16)
    p.add_argument("--limit", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_mine)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    sys.exit(main())
