"""Synthetic theorem corpus with verified ground-truth tactic proofs.

Theorems are instantiated from proof templates (the proof script is fixed,
the formulas are random), verified by replay through the environment, and
filtered by proof length and printed state size. The templates are one
table, ``_TEMPLATES``, whose keys are the proof lengths splits are balanced
over, {2, 3}; the longest, ``MAX_PROOF_LEN``, is the depth default of the
corpus filter, rollouts, search and the oracle. (No one-tactic proof exists
from a hypothesis-free goal: only ``exact`` discharges a goal, with a
hypothesis.)
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
from .nn import write_atomic


class GenerationExhausted(RuntimeError):
    """Raised when repeated attempts fail to produce an acceptable theorem."""


class CorpusError(ValueError):
    """A corpus file line is not UTF-8 text of a theorem whose ground truth
    proves it, or repeats the name of an earlier theorem."""


def check_non_negative(**values: int) -> None:
    """ValueError naming the first of ``values`` that is negative."""
    for name, value in values.items():
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")


@dataclass(frozen=True, slots=True)
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


def _instantiate(pattern: Formula, atoms: dict[str, Formula]) -> Formula:
    """``pattern`` with each atom replaced by its formula in ``atoms``."""
    if isinstance(pattern, Atom):
        return atoms[pattern.name]
    return type(pattern)(_instantiate(pattern.lhs, atoms), _instantiate(pattern.rhs, atoms))


# The proof templates by proof length. A row is a goal pattern over the atoms
# a and b, the depth of the random formula each stands for (drawn in the order
# a, b) and the proof script, each parsed once, here; instances are replayed.
_TEMPLATES: dict[int, list[tuple[Formula, tuple[int, ...], tuple[Tactic, ...]]]] = {
    length: [(parse_formula(goal), depths, tuple(map(parse_tactic, script.split("; "))))
             for goal, depths, script in rows]
    for length, rows in {
        2: [("a -> a", (3,), "intro; exact h1")],
        3: [("a & b -> a", (2, 2), "intro; destruct h1; exact h1"),
            ("a & b -> b", (2, 2), "intro; destruct h1; exact h2"),
            ("a -> a | b", (2, 2), "intro; left; exact h1"),
            ("a -> b | a", (2, 2), "intro; right; exact h1"),
            ("a -> b -> a", (2, 2), "intro; intro; exact h1"),
            ("a -> b -> b", (2, 2), "intro; intro; exact h2")],
    }.items()
}

ACHIEVABLE_PROOF_LENGTHS = tuple(sorted(_TEMPLATES))
MAX_PROOF_LEN = ACHIEVABLE_PROOF_LENGTHS[-1]
MAX_STATE_CHARS = 900  # the longest printed state a ground truth may visit


def filter_theorem(thm: Theorem) -> bool:
    """True iff the ground truth proves the theorem in at most
    ``MAX_PROOF_LEN`` tactics, and every state it visits prints in at most
    ``MAX_STATE_CHARS`` characters. (Tactics need no cap: every tactic is
    one of the 36 actions, of 4 to 11 characters.)"""
    if len(thm.gt_proof) > MAX_PROOF_LEN:
        return False
    walk = replay(thm.initial_state, thm.gt_proof)
    return walk.proved and all(len(s.render()) <= MAX_STATE_CHARS for s in walk.states)


def generate_theorem(rng: np.random.Generator, target_len: int, name: str = "thm") -> Theorem:
    """Sample a theorem whose verified ground-truth proof has ``target_len``
    tactics. Raises GenerationExhausted after 100 failed attempts (always,
    for target_len=1: no single tactic can discharge a hypothesis-free goal).
    """
    if not 1 <= target_len <= MAX_PROOF_LEN:
        raise ValueError(f"target_len must be in 1..{MAX_PROOF_LEN}, got {target_len}")
    templates = _TEMPLATES.get(target_len)
    for _ in range(100 if templates else 0):
        pattern, depths, proof = templates[int(rng.integers(len(templates)))]
        atoms = {atom: _random_formula(rng, depth) for atom, depth in zip("ab", depths)}
        thm = Theorem(name=name, initial_state=initial_state(_instantiate(pattern, atoms)),
                      gt_proof=proof)
        if filter_theorem(thm):
            return thm
    raise GenerationExhausted(f"no theorem of proof length {target_len} after 100 attempts")


def build_corpus(seed: int, train_size: int = 1000, valid_size: int = 20) -> CorpusSplit:
    """Deterministic train/valid split, disjoint by name and by initial-state
    fingerprint, balanced over the achievable proof lengths {2, 3}.
    ValueError for a negative seed or size."""
    check_non_negative(seed=seed, train_size=train_size, valid_size=valid_size)
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
    """Write train.jsonl / valid.jsonl / corpus.hash, each atomically
    (``nn.write_atomic``); returns the hash."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for fname, thms in (("train.jsonl", split.train), ("valid.jsonl", split.valid)):
        text = "".join(theorem_to_json(t) + "\n" for t in sorted(thms, key=lambda t: t.name))
        write_atomic(out / fname, lambda fh: fh.write(text.encode()))
    digest = corpus_hash(out)
    write_atomic(out / "corpus.hash", lambda fh: fh.write(f"{digest}\n".encode()))
    return digest


def load_split(corpus_dir: str | Path) -> CorpusSplit:
    """Read train.jsonl and valid.jsonl. Raises CorpusError naming
    ``file:line`` on a line that is not UTF-8 or does not parse, whose
    ground truth does not prove its goal, or whose name an earlier line of
    either file holds (trainers key theorems by name)."""
    out = Path(corpus_dir)
    split = CorpusSplit()
    seen: dict[str, str] = {}  # name -> file:line
    for fname, bucket in (("train.jsonl", split.train), ("valid.jsonl", split.valid)):
        with open(out / fname, "rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    thm = theorem_from_json(line.decode("utf-8"))
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
