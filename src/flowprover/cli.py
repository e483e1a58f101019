"""Operator command line: corpus generation, training, evaluation, oracle
verification, and hard-negative mining.

Exit codes: 0 success, 1 assertion failure (``oracle --assert``), 2 usage
error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .corpus import CorpusError, build_corpus, corpus_hash, load_split, save_split
from .env import N_ACTIONS
from .gfn import ALL_MODES, BINARY, FULL_RM, RewardSpec, TrainConfig
from .nn import CheckpointError
from .oracle import oracle_report, reports_to_json
from .policy import HISTORY, HISTORY_LESS, PolicyNet
from .reward_model import RewardModel, mine_hard_negatives, rm_train, save_labeled
from .runs import run_training
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
    split, _ = _load_corpus(args.corpus)
    rm = rm_train(split, epochs=args.epochs, seed=args.seed)
    rm.save(args.out)
    print(f"reward model saved to {args.out}")
    return 0


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes"):
        return True
    if lowered in ("0", "false", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_choice(*choices: str):
    def parse(text: str) -> str:
        if text not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}, got {text!r}")
        return text
    return parse


def _parse_action_set(text: str) -> tuple[int, ...]:
    """Comma-separated distinct action indices, each in [0, N_ACTIONS)."""
    indices = tuple(int(part) for part in text.split(","))
    bad = [i for i in indices if not 0 <= i < N_ACTIONS]
    if bad:
        raise ValueError(f"action indices must lie in [0, {N_ACTIONS}), got {bad}")
    if len(set(indices)) != len(indices):
        raise ValueError(f"repeated action index in {text!r}")
    return indices


# One parser per TrainConfig field; each raises ValueError on a bad value.
_CONFIG_PARSERS = {
    "lr": float,
    "clip_norm": float,
    "total_steps": int,
    "n_sampled": int,
    "replay_p": float,
    "temper_p": float,
    "temper_low": float,
    "temper_high": float,
    "max_depth": int,
    "mode": _parse_choice(*ALL_MODES),
    "inject_gt": _parse_bool,
    "buffer_capacity": int,
    "reward_mode": _parse_choice(FULL_RM, BINARY),
    "weight_decay": float,
    "action_set": lambda text: None if text == "none" else _parse_action_set(text),
}


def _read_config_file(path: str) -> dict:
    """Flat key=value config lines, each parsed by its TrainConfig field's
    parser; a bad line is a usage error naming ``file:line``."""
    out = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            _usage_error(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_PARSERS:
            _usage_error(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            out[key] = _CONFIG_PARSERS[key](value)
        except ValueError as exc:
            _usage_error(f"{path}:{lineno}: bad value for {key}: {exc}")
    return out


def cmd_train(args) -> int:
    mode = args.mode.replace("-", "_")
    if mode not in ALL_MODES:
        _usage_error(f"unknown mode {args.mode}")
    split, digest = _load_corpus(args.corpus)
    if mode in ("gfn", "gfn_oo") and not args.rm:
        _usage_error(f"mode {args.mode} requires --rm (trained reward model checkpoint)")
    rm = _load_checkpoint(RewardModel, args.rm) if args.rm else None

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
    try:
        cfg = TrainConfig(**overrides)
    except ValueError as exc:  # only a config file can supply a bad combination
        _usage_error(f"{args.config}: {exc}")

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
    split, _ = _load_corpus(args.corpus)
    theorems = split.valid if args.split == "valid" else split.train
    net = _load_checkpoint(PolicyNet, args.checkpoint)
    try:
        cfg = SearchConfig(branching=args.branching, expansion_budget=args.budget,
                           encoding_mode=HISTORY_LESS if args.encoding == "history_less"
                           else HISTORY, dedupe=not args.no_dedupe)
    except ValueError as exc:
        _usage_error(str(exc))
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
            action_set = _parse_action_set(args.action_set)
        except ValueError as exc:
            _usage_error(f"--action-set: {exc}")
    if args.reward == FULL_RM and not args.rm:
        _usage_error("--reward full_rm requires --rm (trained reward model checkpoint)")
    split, _ = _load_corpus(args.theorems)
    theorems = split.valid if args.split == "valid" else split.train
    if args.limit:
        theorems = theorems[: args.limit]
    net = _load_checkpoint(PolicyNet, args.checkpoint)
    rm = _load_checkpoint(RewardModel, args.rm) if args.rm else None
    spec = RewardSpec(mode=args.reward)
    reports = [
        oracle_report(net, thm, max_depth=args.max_depth, spec=spec, rm=rm,
                      action_set=action_set)
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
    split, _ = _load_corpus(args.corpus)
    net = _load_checkpoint(PolicyNet, args.checkpoint)
    theorems = (split.valid if args.split == "valid" else split.train)[: args.limit or None]
    pairs = [p for thm in theorems
             for p in mine_hard_negatives(net, thm, explore_budget=args.budget,
                                          n_rollouts=args.rollouts, seed=args.seed)]
    save_labeled(pairs, args.out)
    print(f"wrote {len(pairs)} labeled tactics to {args.out}")
    return 0


def _load_corpus(corpus_dir: str):
    """The corpus split and its content hash; a usage error when a file is
    missing or invalid."""
    path = Path(corpus_dir)
    try:
        return load_split(path), corpus_hash(path)
    except (CorpusError, OSError) as exc:
        _usage_error(str(exc))


def _load_checkpoint(cls, checkpoint: str):
    """A PolicyNet or RewardModel; a usage error when the file is missing or
    not a checkpoint of that network."""
    try:
        return cls.load(checkpoint)
    except CheckpointError as exc:
        _usage_error(str(exc))


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
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
