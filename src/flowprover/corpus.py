"""Synthetic theorem corpus with verified ground-truth tactic proofs.

Theorems are instantiated from proof templates (the proof script is fixed,
the formulas are random), verified by replay through the environment, and
filtered by proof length and printed-size caps. No one-tactic proof exists
from a hypothesis-free goal (only ``exact`` discharges a goal and it needs
a hypothesis), so proof lengths range over {2, 3} and splits are balanced
over those two lengths.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .env import (
    ProofState,
    Tactic,
    initial_state,
    parse_tactic,
    replay,
    state_fingerprint,
)
from .formulas import And, Atom, Formula, Implies, Or, parse_formula, print_formula


class GenerationExhausted(RuntimeError):
    """Raised when repeated attempts fail to produce an acceptable theorem."""


class CorpusError(ValueError):
    """A corpus file line is not a theorem whose ground truth proves it, or
    repeats the name of an earlier theorem."""


@dataclass(frozen=True)
class FilterCaps:
    max_proof_len: int = 3
    max_state_chars: int = 900
    max_tactic_chars: int = 90


@dataclass(frozen=True)
class Theorem:
    name: str
    initial_state: ProofState
    gt_proof: tuple[Tactic, ...]

    @property
    def goal_text(self) -> str:
        return print_formula(self.initial_state.goals[0].target)


@dataclass
class CorpusSplit:
    train: list[Theorem] = field(default_factory=list)
    valid: list[Theorem] = field(default_factory=list)

    def all_theorems(self) -> list[Theorem]:
        return self.train + self.valid


_ATOM_POOL = [chr(c) for c in range(ord("a"), ord("z") + 1)]


def _random_atom(rng: np.random.Generator) -> Atom:
    name = _ATOM_POOL[int(rng.integers(len(_ATOM_POOL)))]
    if rng.random() < 0.25:
        name += str(int(rng.integers(10)))
    return Atom(name)


def _random_formula(rng: np.random.Generator, depth: int) -> Formula:
    if depth <= 1 or rng.random() < 0.4:
        return _random_atom(rng)
    ctor = (Implies, And, Or)[int(rng.integers(3))]
    return ctor(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))


# Each template: (id, proof length, builder). The builder returns
# (goal formula, proof script); scripts are verified by replay before use.
def _tpl_identity(rng):
    a = _random_formula(rng, 3)
    return Implies(a, a), ("intro", "exact h1")


def _tpl_proj_left(rng):
    a, b = _random_formula(rng, 2), _random_formula(rng, 2)
    return Implies(And(a, b), a), ("intro", "destruct h1", "exact h1")


def _tpl_proj_right(rng):
    a, b = _random_formula(rng, 2), _random_formula(rng, 2)
    return Implies(And(a, b), b), ("intro", "destruct h1", "exact h2")


def _tpl_disj_left(rng):
    a, b = _random_formula(rng, 2), _random_formula(rng, 2)
    return Implies(a, Or(a, b)), ("intro", "left", "exact h1")


def _tpl_disj_right(rng):
    a, b = _random_formula(rng, 2), _random_formula(rng, 2)
    return Implies(a, Or(b, a)), ("intro", "right", "exact h1")


def _tpl_const_outer(rng):
    a, b = _random_formula(rng, 2), _random_formula(rng, 2)
    return Implies(a, Implies(b, a)), ("intro", "intro", "exact h1")


def _tpl_const_inner(rng):
    a, b = _random_formula(rng, 2), _random_formula(rng, 2)
    return Implies(a, Implies(b, b)), ("intro", "intro", "exact h2")


_TEMPLATES: dict[int, list] = {
    2: [_tpl_identity],
    3: [_tpl_proj_left, _tpl_proj_right, _tpl_disj_left, _tpl_disj_right,
        _tpl_const_outer, _tpl_const_inner],
}

ACHIEVABLE_PROOF_LENGTHS = tuple(sorted(_TEMPLATES))


def filter_theorem(thm: Theorem, caps: FilterCaps = FilterCaps()) -> bool:
    """True iff the ground truth proves the theorem, and the proof and every
    state it visits fit the corpus caps."""
    if len(thm.gt_proof) > caps.max_proof_len:
        return False
    if any(len(t.render()) > caps.max_tactic_chars for t in thm.gt_proof):
        return False
    walk = replay(thm.initial_state, thm.gt_proof)
    return walk.proved and all(len(s.render()) <= caps.max_state_chars for s in walk.states)


def generate_theorem(rng: np.random.Generator, target_len: int, name: str = "thm",
                     caps: FilterCaps = FilterCaps()) -> Theorem:
    """Sample a theorem whose verified ground-truth proof has ``target_len``
    tactics. Raises GenerationExhausted after 100 failed attempts (always,
    for target_len=1: no single tactic can discharge a hypothesis-free goal).
    """
    if target_len not in (1, 2, 3):
        raise ValueError(f"target_len must be in 1..3, got {target_len}")
    templates = _TEMPLATES.get(target_len, [])
    for _ in range(100):
        if not templates:
            break
        builder = templates[int(rng.integers(len(templates)))]
        goal, script = builder(rng)
        proof = tuple(parse_tactic(s) for s in script)
        thm = Theorem(name=name, initial_state=initial_state(goal), gt_proof=proof)
        if len(proof) != target_len:
            continue
        if not filter_theorem(thm, caps):
            continue
        return thm
    raise GenerationExhausted(f"no theorem of proof length {target_len} after 100 attempts")


def build_corpus(seed: int, train_size: int = 1000, valid_size: int = 20) -> CorpusSplit:
    """Deterministic train/valid split, disjoint by name and by initial-state
    fingerprint, balanced over the achievable proof lengths {2, 3}."""
    root = np.random.SeedSequence(seed)
    seen: set[int] = set()
    split = CorpusSplit()

    def fill(prefix: str, count: int, bucket: list[Theorem], child_offset: int) -> None:
        lengths = ACHIEVABLE_PROOF_LENGTHS
        per = [count // len(lengths)] * len(lengths)
        for i in range(count - sum(per)):
            per[i] += 1
        idx = 0
        for length, n in zip(lengths, per):
            for _ in range(n):
                for attempt in range(100):
                    # sub-seed per (split, slot, attempt): independent of how
                    # many other slots needed retries, so generation is
                    # parallelizable per theorem
                    child = np.random.SeedSequence(
                        entropy=root.entropy, spawn_key=(child_offset, idx, attempt)
                    )
                    rng = np.random.default_rng(child)
                    thm = generate_theorem(rng, length, name=f"{prefix}{idx:04d}")
                    fp = state_fingerprint(thm.initial_state)
                    if fp in seen:
                        continue
                    seen.add(fp)
                    bucket.append(thm)
                    break
                else:
                    raise GenerationExhausted(
                        f"could not find fresh theorem for {prefix}{idx:04d}"
                    )
                idx += 1

    fill("valid", valid_size, split.valid, child_offset=1)
    fill("train", train_size, split.train, child_offset=2)
    split.train.sort(key=lambda t: t.name)
    split.valid.sort(key=lambda t: t.name)
    return split


def theorem_to_json(thm: Theorem) -> str:
    return json.dumps(
        {"name": thm.name, "goal": thm.goal_text, "gt_proof": [t.render() for t in thm.gt_proof]},
        separators=(", ", ": "),
    )


def theorem_from_json(line: str) -> Theorem:
    obj = json.loads(line)
    return Theorem(
        name=obj["name"],
        initial_state=initial_state(parse_formula(obj["goal"])),
        gt_proof=tuple(parse_tactic(t) for t in obj["gt_proof"]),
    )


def save_split(split: CorpusSplit, out_dir: str | Path) -> str:
    """Write train.jsonl / valid.jsonl / corpus.hash; returns the hash."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for fname, thms in (("train.jsonl", split.train), ("valid.jsonl", split.valid)):
        text = "".join(theorem_to_json(t) + "\n" for t in sorted(thms, key=lambda t: t.name))
        (out / fname).write_text(text)
    digest = corpus_hash(out)
    (out / "corpus.hash").write_text(digest + "\n")
    return digest


def load_split(corpus_dir: str | Path) -> CorpusSplit:
    """Read train.jsonl and valid.jsonl. Raises CorpusError naming
    ``file:line`` on a line that does not parse, whose ground truth does not
    prove its goal, or whose name an earlier line of either file holds
    (trainers key theorems by name)."""
    out = Path(corpus_dir)
    split = CorpusSplit()
    seen: dict[str, str] = {}  # name -> file:line
    for fname, bucket in (("train.jsonl", split.train), ("valid.jsonl", split.valid)):
        with open(out / fname) as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    thm = theorem_from_json(line)
                except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
                    raise CorpusError(f"{out / fname}:{lineno}: bad theorem: {exc!r}") from exc
                if thm.name in seen:
                    raise CorpusError(f"{out / fname}:{lineno}: theorem name {thm.name!r} "
                                      f"repeats {seen[thm.name]}")
                seen[thm.name] = f"{out / fname}:{lineno}"
                if not replay(thm.initial_state, thm.gt_proof).proved:
                    raise CorpusError(f"{out / fname}:{lineno}: ground truth for {thm.name} "
                                      "does not prove it")
                bucket.append(thm)
    return split


def corpus_hash(corpus_dir: str | Path) -> str:
    h = hashlib.sha256()
    for fname in ("train.jsonl", "valid.jsonl"):
        h.update((Path(corpus_dir) / fname).read_bytes())
    return h.hexdigest()
