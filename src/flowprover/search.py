"""Best-first proof search for validation and evaluation.

Nodes are ordered by cumulative policy log-probability. Expanding a node
queries the policy once, keeps the top-`branching` actions by logit, and
pushes the children that survive the environment (errors are dropped, a
proved child ends the search). An action outside
``env.applicable_actions`` can only fail, so it is dropped without an
``apply_tactic`` call. Ties break FIFO by insertion order so runs are
bit-reproducible; the expansion budget bounds the work.
"""

from __future__ import annotations

import heapq
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .corpus import Theorem
from .env import (
    ACTIONS,
    ProofState,
    Tactic,
    apply_tactic,
    applicable_actions,
    replay,
    state_fingerprint,
)
from .policy import HISTORY, HISTORY_LESS, PolicyNet, action_logits, encode_from_parts
from .nn import log_softmax_np


class BogusProof(RuntimeError):
    """Search returned a proof that does not replay to proved."""


@dataclass(frozen=True)
class SearchConfig:
    branching: int = 8
    expansion_budget: int = 100
    encoding_mode: str = HISTORY
    dedupe: bool = True
    max_depth: int = 3

    def __post_init__(self):
        if not 1 <= self.branching <= len(ACTIONS):
            raise ValueError(f"branching must lie in 1..{len(ACTIONS)}, got {self.branching}")
        if self.expansion_budget < 0:
            raise ValueError(f"expansion budget must be non-negative, got {self.expansion_budget}")
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be at least 1, got {self.max_depth}")
        if self.encoding_mode not in (HISTORY, HISTORY_LESS):
            raise ValueError(f"encoding mode must be {HISTORY} or {HISTORY_LESS}, "
                             f"got {self.encoding_mode!r}")


@dataclass
class SearchOutcome:
    proved: bool
    proof: tuple[Tactic, ...] | None
    expansions: int


@dataclass
class SolveReport:
    solved: int
    total: int
    per_theorem: list[dict] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(
            {"solved": self.solved, "total": self.total, "per_theorem": self.per_theorem},
            indent=2,
        )


def best_first_search(net: PolicyNet, thm: Theorem, cfg: SearchConfig) -> SearchOutcome:
    return search_from_state(net, thm.initial_state, cfg)


def search_from_state(net: PolicyNet, root: ProofState, cfg: SearchConfig) -> SearchOutcome:
    """Best-first search from an arbitrary proof state."""
    counter = itertools.count()  # FIFO tie-break
    heap: list[tuple[float, int, float, tuple[Tactic, ...], ProofState]] = []
    heapq.heappush(heap, (0.0, next(counter), 0.0, (), root))
    seen = {state_fingerprint(root)}
    expansions = 0
    while heap and expansions < cfg.expansion_budget:
        _, _, logp, history, state = heapq.heappop(heap)
        expansions += 1
        enc = encode_from_parts(root, history, state, cfg.encoding_mode)
        logits = action_logits(net, enc)
        log_probs = log_softmax_np(logits)
        # top-k by logit; equal logits break by action index
        order = np.argsort(-logits, kind="stable")[: cfg.branching]
        applicable = applicable_actions(state)
        for action_idx in order.tolist():
            if action_idx not in applicable:
                continue  # fails, like an applied error
            tactic = ACTIONS[action_idx]
            result = apply_tactic(state, tactic)
            if result.proved:
                return SearchOutcome(True, history + (tactic,), expansions)
            if result.failed:
                continue
            if len(history) + 1 >= cfg.max_depth:
                continue  # child could never be usefully expanded
            fp = state_fingerprint(result.state)
            if cfg.dedupe:
                if fp in seen:
                    continue
                seen.add(fp)
            child_logp = logp + float(log_probs[action_idx])
            heapq.heappush(
                heap, (-child_logp, next(counter), child_logp, history + (tactic,), result.state)
            )
    return SearchOutcome(False, None, expansions)


def evaluate_split(net: PolicyNet, split: list[Theorem], cfg: SearchConfig) -> SolveReport:
    """Run best-first search on every theorem; any returned proof is
    re-verified through the environment before it counts (BogusProof if it
    does not replay to proved)."""
    report = SolveReport(solved=0, total=len(split))
    for thm in split:
        outcome = best_first_search(net, thm, cfg)
        if outcome.proved:
            if not replay(thm.initial_state, list(outcome.proof)).proved:
                raise BogusProof(f"search returned a bogus proof for {thm.name}")
            report.solved += 1
        report.per_theorem.append({
            "name": thm.name,
            "length": len(thm.gt_proof),
            "solved": outcome.proved,
            "expansions": outcome.expansions,
            "proof": [t.render() for t in outcome.proof] if outcome.proof else None,
        })
    return report
