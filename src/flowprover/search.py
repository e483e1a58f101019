"""Best-first proof search for validation and evaluation.

Nodes are ordered by cumulative policy log-probability. Expanding a node
queries the policy once, keeps the top-`branching` actions by logit, and
pushes the children that survive the environment (errors are dropped, a
proved child ends the search). An action outside
``env.applicable_actions`` can only fail, so it is dropped without an
``apply_tactic`` call. Ties break FIFO by insertion order so runs are
bit-reproducible; the expansion budget bounds the work.

Search walks the nodes of a ``gfn.ProofTree``, which hold each prefix's
encoding, applicable actions, ``apply_tactic`` results and dedupe key once
made. A training run keeps one tree per validation theorem, so only the
policy's forward pass and the ranking are redone at each validation; every
other caller searches a fresh tree per call.
"""

from __future__ import annotations

import heapq
import itertools
import json
from dataclasses import dataclass, field

from .corpus import MAX_PROOF_LEN, Theorem
from .env import ACTIONS, ProofState, Tactic, replay
# Search applies tactics through its tree's nodes (gfn.ProofNode). The name
# stays bound here because perfbench/test_checks.py checks that its tracer
# wraps ``search.apply_tactic``.
from .env import apply_tactic  # noqa: F401
from .gfn import ProofNode, ProofTree, check_field_types
from .policy import HISTORY, HISTORY_LESS, PolicyNet, action_logits
from .nn import log_softmax_np


class BogusProof(RuntimeError):
    """Search returned a proof that does not replay to proved."""


@dataclass(frozen=True)
class SearchConfig:
    """Search settings; ``max_depth`` defaults to ``corpus.MAX_PROOF_LEN``.
    Every field's type (by its annotation; a bool is no number) and value
    are checked when the config is made (ValueError)."""

    branching: int = 8
    expansion_budget: int = 100
    encoding_mode: str = HISTORY
    dedupe: bool = True
    max_depth: int = MAX_PROOF_LEN

    def __post_init__(self):
        check_field_types(self)
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


def search_from_state(net: PolicyNet, root: ProofState | ProofTree,
                      cfg: SearchConfig) -> SearchOutcome:
    """Best-first search from a proof state, in a fresh tree with the state
    as its own initial state, or from the root of a ``ProofTree``, whose
    nodes keep what the search makes."""
    root = root.root if isinstance(root, ProofTree) else ProofNode(root, (), root)
    counter = itertools.count()  # FIFO tie-break
    heap: list[tuple[float, int, float, ProofNode]] = [(0.0, next(counter), 0.0, root)]
    seen = {root.fingerprint()} if cfg.dedupe else None
    expansions = 0
    while heap and expansions < cfg.expansion_budget:
        _, _, logp, node = heapq.heappop(heap)
        expansions += 1
        logits = action_logits(net, node.encoding(cfg.encoding_mode))
        log_probs = None  # made when the first child is pushed
        # top-k by logit; equal logits break by action index
        order = (-logits).argsort(kind="stable")[: cfg.branching]
        applicable = node.applicable()
        at_leaf_depth = len(node.history) + 1 >= cfg.max_depth
        for action_idx in order.tolist():
            if action_idx not in applicable:
                continue  # fails, like an applied error
            result = node.apply(action_idx)
            if result.proved:
                return SearchOutcome(True, node.history + (ACTIONS[action_idx],), expansions)
            if result.failed or at_leaf_depth:
                continue  # an error, or a child too deep to be usefully expanded
            child = node.child(action_idx)
            if seen is not None:
                fp = child.fingerprint()
                if fp in seen:
                    continue
                seen.add(fp)
            if log_probs is None:
                log_probs = log_softmax_np(logits)
            child_logp = logp + float(log_probs[action_idx])
            heapq.heappush(heap, (-child_logp, next(counter), child_logp, child))
    return SearchOutcome(False, None, expansions)


def evaluate_split(net: PolicyNet, split: list[Theorem] | list[ProofTree],
                   cfg: SearchConfig) -> SolveReport:
    """Run best-first search on every theorem of ``split``, each in a fresh
    tree, or in every given ``ProofTree``, whose nodes keep what the search
    makes for the next call. Any returned proof is re-verified from the
    theorem through ``env.replay`` before it counts (BogusProof if it does
    not replay to proved)."""
    report = SolveReport(solved=0, total=len(split))
    for item in split:
        tree = item if isinstance(item, ProofTree) else ProofTree(item)
        thm = tree.thm
        outcome = search_from_state(net, tree, cfg)
        if outcome.proved:
            if not replay(thm.initial_state, outcome.proof).proved:
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
