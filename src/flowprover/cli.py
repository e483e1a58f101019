"""Operator command line: corpus generation, training, evaluation, oracle
verification, and hard-negative mining.

Exit codes: 0 success, 1 assertion failure (``oracle --assert``), 2 usage
error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .corpus import build_corpus, load_split, save_split
from .gfn import RewardSpec, TrainConfig
from .oracle import oracle_report, reports_to_json
from .policy import HISTORY, HISTORY_LESS, PolicyNet
from .reward_model import RewardModel, mine_hard_negatives, rm_train, save_labeled
from .runs import ALL_MODES, load_corpus_with_hash, run_training
from .search import SearchConfig, evaluate_split


def _usage_error(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def cmd_datagen(args) -> int:
    out = Path(args.out)
    if out.exists() and not out.is_dir():
        _usage_error(f"--out {out} exists and is not a directory")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _usage_error(f"cannot create --out {out}: {exc}")
    split = build_corpus(args.seed, train_size=args.train_size, valid_size=args.valid_size)
    digest = save_split(split, out)
    print(f"wrote {len(split.train)} train / {len(split.valid)} valid theorems to {out}")
    print(f"corpus hash {digest}")
    return 0


def cmd_rm_train(args) -> int:
    split = _load_corpus(args.corpus)
    rm = rm_train(split, epochs=args.epochs, seed=args.seed)
    rm.save(args.out)
    print(f"reward model saved to {args.out}")
    return 0


def _read_config_file(path: str) -> dict:
    """Flat key=value config lines, coerced to TrainConfig field types."""
    import dataclasses

    types = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
    out = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            _usage_error(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in types:
            _usage_error(f"{path}:{lineno}: unknown config key {key!r}")
        ftype = str(types[key])
        if key == "action_set":
            out[key] = tuple(int(x) for x in value.split(",")) if value != "none" else None
        elif "bool" in ftype:
            out[key] = value.lower() in ("1", "true", "yes")
        elif "int" in ftype:
            out[key] = int(value)
        elif "float" in ftype:
            out[key] = float(value)
        else:
            out[key] = value
    return out


def cmd_train(args) -> int:
    mode = args.mode.replace("-", "_")
    if mode not in ALL_MODES:
        _usage_error(f"unknown mode {args.mode}")
    split, digest = _load_corpus_with_hash(args.corpus)
    rm = None
    if mode in ("gfn", "gfn_oo"):
        if not args.rm:
            _usage_error(f"mode {args.mode} requires --rm (trained reward model checkpoint)")
        rm = RewardModel.load(args.rm)
    elif args.rm:
        rm = RewardModel.load(args.rm)

    overrides = {}
    if args.config:
        if not Path(args.config).exists():
            _usage_error(f"no config file at {args.config}")
        overrides = _read_config_file(args.config)
    overrides["mode"] = mode
    overrides["total_steps"] = args.steps
    # explicit flags take precedence over config-file values
    if args.replay_p is not None:
        overrides["replay_p"] = args.replay_p
    if args.no_inject_gt:
        overrides["inject_gt"] = False
    cfg = TrainConfig(**overrides)

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
    split = _load_corpus(args.corpus)
    theorems = split.valid if args.split == "valid" else split.train
    net = _load_policy(args.checkpoint)
    cfg = SearchConfig(
        branching=args.branching,
        expansion_budget=args.budget,
        encoding_mode=HISTORY_LESS if args.encoding == "history_less" else HISTORY,
        dedupe=not args.no_dedupe,
    )
    report = evaluate_split(net, theorems, cfg)
    text = report.to_json()
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


def cmd_oracle(args) -> int:
    split = _load_corpus(args.theorems)
    theorems = split.valid if args.split == "valid" else split.train
    if args.limit:
        theorems = theorems[: args.limit]
    net = _load_policy(args.checkpoint)
    action_set = tuple(int(i) for i in args.action_set.split(",")) if args.action_set else None
    spec = RewardSpec(mode=args.reward)
    reports = [
        oracle_report(net, thm, max_depth=args.max_depth, spec=spec, action_set=action_set)
        for thm in theorems
    ]
    text = reports_to_json(reports)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    if args.assert_proportional:
        bad = [r for r in reports
               if r.tv_distance > args.tv_tol or abs(r.predicted_log_z - r.log_z) > args.logz_tol]
        if bad:
            for r in bad:
                print(f"FAIL {r.theorem}: tv={r.tv_distance:.4f} "
                      f"logZ err={abs(r.predicted_log_z - r.log_z):.4f}", file=sys.stderr)
            return 1
    return 0


def cmd_mine(args) -> int:
    split = _load_corpus(args.corpus)
    net = _load_policy(args.checkpoint)
    theorems = (split.valid if args.split == "valid" else split.train)[: args.limit or None]
    pairs = [p for thm in theorems
             for p in mine_hard_negatives(net, thm, explore_budget=args.budget,
                                          n_rollouts=args.rollouts, seed=args.seed)]
    save_labeled(pairs, args.out)
    print(f"wrote {len(pairs)} labeled tactics to {args.out}")
    return 0


def _load_corpus(corpus_dir: str):
    path = Path(corpus_dir)
    if not (path / "train.jsonl").exists():
        _usage_error(f"no corpus at {path} (expected train.jsonl)")
    return load_split(path)


def _load_corpus_with_hash(corpus_dir: str):
    path = Path(corpus_dir)
    if not (path / "train.jsonl").exists():
        _usage_error(f"no corpus at {path} (expected train.jsonl)")
    return load_corpus_with_hash(path)


def _load_policy(checkpoint: str) -> PolicyNet:
    if not Path(checkpoint).exists():
        _usage_error(f"no checkpoint at {checkpoint}")
    return PolicyNet.load(checkpoint)


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
    p.add_argument("--mode", required=True,
                   choices=["gfn", "gfn-oo", "gfn-br-oo", "sft", "ppo"])
    p.add_argument("--corpus", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--out", required=True)
    p.add_argument("--rm", help="reward model checkpoint (required for gfn / gfn-oo)")
    p.add_argument("--replay-p", type=float, default=None)
    p.add_argument("--no-inject-gt", action="store_true")
    p.add_argument("--val-every", type=int, default=20)
    p.add_argument("--clock", choices=["real", "off"], default="real",
                   help="'off' zeroes wall_ms for byte-reproducible metrics")
    p.add_argument("--config", help="flat key=value config file; explicit flags win")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="best-first-search evaluation of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--split", choices=["train", "valid"], default="valid")
    p.add_argument("--branching", type=int, default=8)
    p.add_argument("--budget", type=int, default=100)
    p.add_argument("--encoding", choices=["history", "history_less"], default="history")
    p.add_argument("--no-dedupe", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("oracle", help="enumeration-oracle verification of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--theorems", required=True, help="corpus directory")
    p.add_argument("--split", choices=["train", "valid"], default="valid")
    p.add_argument("--limit", type=int, default=0)
    p.add_argument("--max-depth", type=int, default=3)
    p.add_argument("--reward", choices=["binary", "full_rm"], default="binary")
    p.add_argument("--action-set", help="comma-separated action indices")
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
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
