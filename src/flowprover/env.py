"""Deterministic tactic prover over propositional goals.

A proof state is an ordered list of goals (hypotheses |- target). Tactics
act on the first goal only and either transform it, discharge it, or fail
with a modeled error (never an exception). The action space is fixed at 36
actions: 4 argument-less tactics plus 4 hypothesis tactics x 8 positional
arguments.
"""

from __future__ import annotations

import enum
import hashlib
import re
from dataclasses import dataclass

from .formulas import And, Atom, Formula, Implies, Or, print_formula

H_MAX = 8  # hypothesis-argument cap; action space = 4 + 4*8 = 36


class TacticKind(enum.Enum):
    INTRO = "intro"
    SPLIT = "split"
    LEFT = "left"
    RIGHT = "right"
    EXACT = "exact"
    APPLY = "apply"
    CASES = "cases"
    DESTRUCT = "destruct"


_ARGLESS = (TacticKind.INTRO, TacticKind.SPLIT, TacticKind.LEFT, TacticKind.RIGHT)
_WITH_ARG = (TacticKind.EXACT, TacticKind.APPLY, TacticKind.CASES, TacticKind.DESTRUCT)


# The fixed action enumeration, by action index: 4 argless, then each arg'd
# kind over h1..h8. Each action's kind, argument, text (made once, so
# rendering allocates no string) and rendered length, an exact integer.
_KINDS: tuple[TacticKind, ...] = _ARGLESS + tuple(k for k in _WITH_ARG for _ in range(H_MAX))
_ARGS: tuple[int | None, ...] = ((None,) * len(_ARGLESS)
                                 + tuple(range(1, H_MAX + 1)) * len(_WITH_ARG))
_TEXT: tuple[str, ...] = tuple(k.value if a is None else f"{k.value} h{a}"
                               for k, a in zip(_KINDS, _ARGS))
ACTION_CHARS: tuple[int, ...] = tuple(map(len, _TEXT))


class Tactic(int):
    """One prover action, which is its own index into ``ACTIONS``: the 36
    instances there are the only ones, so a tactic indexes logits, masks and
    tables as it is. ``arg`` is a 1-based position into the goal's
    hypothesis list (not the hypothesis's display name). ``Tactic(kind,
    arg)`` returns the action of that kind and argument: ValueError for any
    other kind or argument."""

    __slots__ = ()
    kind = property(_KINDS.__getitem__)
    arg = property(_ARGS.__getitem__)

    def __new__(cls, kind: TacticKind, arg: int | None = None) -> Tactic:
        if not isinstance(kind, TacticKind):
            raise ValueError(f"not a tactic kind: {kind!r}")
        if kind in _ARGLESS:
            if arg is not None:
                raise ValueError(f"{kind.value} takes no argument, got {arg}")
        elif type(arg) is not int or not 1 <= arg <= H_MAX:
            raise ValueError(f"{kind.value} needs a hypothesis in 1..{H_MAX}, got {arg}")
        return ACTIONS[_KINDS.index(kind) + (arg or 1) - 1]

    def render(self) -> str:
        """The tactic's text: one shared string per action (``_TEXT``)."""
        return _TEXT[self]

    __str__ = render

    def __repr__(self) -> str:
        return f"parse_tactic({_TEXT[self]!r})"

    def __reduce__(self):  # pickle and copy give back the same instance
        return parse_tactic, (_TEXT[self],)


_TACTIC_RE = re.compile(r"^(intro|split|left|right|exact|apply|cases|destruct)(?:\s+h([1-8]))?$")


def parse_tactic(text: str) -> Tactic:
    m = _TACTIC_RE.match(text.strip())
    if m is None:
        raise ValueError(f"not a tactic: {text!r}")
    kind = TacticKind(m.group(1))
    arg = int(m.group(2)) if m.group(2) else None
    if (kind in _ARGLESS) != (arg is None):
        raise ValueError(f"wrong arity for tactic: {text!r}")
    return Tactic(kind, arg)


ACTIONS: tuple[Tactic, ...] = tuple(int.__new__(Tactic, i) for i in range(len(_KINDS)))
N_ACTIONS = len(ACTIONS)
ACTION_INDEX = {t: int(t) for t in ACTIONS}  # the identity, for callers outside the package


@dataclass(frozen=True, slots=True)
class Goal:
    """Hypotheses (name, formula) in arrival order, plus a target."""

    hyps: tuple[tuple[str, Formula], ...]
    target: Formula

    def render(self) -> str:
        if not self.hyps:
            return f"|- {print_formula(self.target)}"
        hs = ", ".join(f"{n} : {print_formula(f)}" for n, f in self.hyps)
        return f"{hs} |- {print_formula(self.target)}"


@dataclass(frozen=True, slots=True)
class ProofState:
    goals: tuple[Goal, ...]

    def render(self) -> str:
        if not self.goals:
            return "<proved>"
        return "; ".join(g.render() for g in self.goals)


def initial_state(target: Formula) -> ProofState:
    return ProofState((Goal((), target),))


class ErrorReason(enum.Enum):
    NO_SUCH_HYPOTHESIS = "no_such_hypothesis"
    SHAPE_MISMATCH = "shape_mismatch"
    NO_GOALS = "no_goals"


class StepKind(enum.Enum):
    OK = "ok"
    PROVED = "proved"
    ERROR = "error"


@dataclass(frozen=True, slots=True)
class StepResult:
    kind: StepKind
    state: ProofState | None = None
    error: ErrorReason | None = None

    @property
    def ok(self) -> bool:
        return self.kind is StepKind.OK

    @property
    def proved(self) -> bool:
        return self.kind is StepKind.PROVED

    @property
    def failed(self) -> bool:
        return self.kind is StepKind.ERROR


# One shared result per outcome without a state. StepResult is frozen, so
# every failing or proving call can return the same object, not a new one.
_NO_GOALS = StepResult(StepKind.ERROR, error=ErrorReason.NO_GOALS)
_SHAPE_MISMATCH = StepResult(StepKind.ERROR, error=ErrorReason.SHAPE_MISMATCH)
_NO_SUCH_HYPOTHESIS = StepResult(StepKind.ERROR, error=ErrorReason.NO_SUCH_HYPOTHESIS)
_PROVED = StepResult(StepKind.PROVED)


def _finish(goals: tuple[Goal, ...]) -> StepResult:
    if not goals:
        return _PROVED
    return StepResult(StepKind.OK, state=ProofState(goals))


def _fresh_name(hyps: tuple[tuple[str, Formula], ...], bump: int = 0) -> str:
    # Arrival-order naming: next index above any name currently in the goal.
    top = 0
    for name, _ in hyps:
        if name.startswith("h") and name[1:].isdigit():
            top = max(top, int(name[1:]))
    return f"h{top + 1 + bump}"


# The shape each tactic needs; apply_tactic and applicable_actions both read
# these two rules.
def _target_fits(kind: TacticKind, target: Formula) -> bool:
    """Whether argument-less tactic ``kind`` applies to ``target``: intro
    needs an implication, split a conjunction, left and right a
    disjunction."""
    if kind is TacticKind.INTRO:
        return isinstance(target, Implies)
    if kind is TacticKind.SPLIT:
        return isinstance(target, And)
    return isinstance(target, Or)


def _hyp_fits(kind: TacticKind, hform: Formula, target: Formula) -> bool:
    """Whether hypothesis tactic ``kind`` applies to ``hform`` under
    ``target``: exact needs the target itself, apply an implication that
    concludes it, cases a disjunction and destruct a conjunction."""
    if kind is TacticKind.EXACT:
        return hform == target
    if kind is TacticKind.APPLY:
        return isinstance(hform, Implies) and hform.rhs == target
    if kind is TacticKind.CASES:
        return isinstance(hform, Or)
    return isinstance(hform, And)


# The argument-less actions that fit a target, by the target's class.
_ARGLESS_FITTING: dict[type, tuple[int, ...]] = {
    type(f): tuple(i for i, kind in enumerate(_ARGLESS) if _target_fits(kind, f))
    for f in (Atom("a"), Implies(Atom("a"), Atom("a")), And(Atom("a"), Atom("a")),
              Or(Atom("a"), Atom("a")))
}

# The first action index of each hypothesis tactic, with its kind.
_HYP_BLOCKS = tuple((len(_ARGLESS) + H_MAX * b, kind) for b, kind in enumerate(_WITH_ARG))


def applicable_actions(state: ProofState) -> tuple[int, ...]:
    """The action indices, in index order, that ``apply_tactic`` does not
    fail on ``state``: the argument-less actions that fit the first goal's
    target, and exact, apply, cases and destruct at each of its first
    ``H_MAX`` hypotheses that fits. A state without goals has none."""
    if not state.goals:
        return ()
    goal = state.goals[0]
    target = goal.target
    fitting = _ARGLESS_FITTING[type(target)]
    if not goal.hyps:
        return fitting
    hforms = [hform for _, hform in goal.hyps[:H_MAX]]
    fitting = list(fitting)
    for first, kind in _HYP_BLOCKS:
        for k, hform in enumerate(hforms):
            if _hyp_fits(kind, hform, target):
                fitting.append(first + k)
    return tuple(fitting)


def apply_tactic(state: ProofState, tactic: Tactic) -> StepResult:
    """Apply one tactic to the first goal. Total: always returns exactly one
    of Ok / Proved / EnvError; never raises on modeled inputs."""
    if not state.goals:
        return _NO_GOALS
    goal, rest = state.goals[0], state.goals[1:]
    kind = _KINDS[tactic]

    if kind in _ARGLESS:
        if not _target_fits(kind, goal.target):
            return _SHAPE_MISMATCH
        if kind is TacticKind.INTRO:
            hyps = goal.hyps + ((_fresh_name(goal.hyps), goal.target.lhs),)
            return _finish((Goal(hyps, goal.target.rhs),) + rest)
        if kind is TacticKind.SPLIT:
            return _finish(
                (Goal(goal.hyps, goal.target.lhs), Goal(goal.hyps, goal.target.rhs)) + rest
            )
        side = goal.target.lhs if kind is TacticKind.LEFT else goal.target.rhs
        return _finish((Goal(goal.hyps, side),) + rest)

    # Hypothesis tactics: 1-based positional argument.
    k = _ARGS[tactic]
    if k > len(goal.hyps):
        return _NO_SUCH_HYPOTHESIS
    hname, hform = goal.hyps[k - 1]
    if not _hyp_fits(kind, hform, goal.target):
        return _SHAPE_MISMATCH

    if kind is TacticKind.EXACT:
        return _finish(rest)

    if kind is TacticKind.APPLY:
        return _finish((Goal(goal.hyps, hform.lhs),) + rest)

    if kind is TacticKind.CASES:
        def with_hyp(f: Formula) -> Goal:
            hyps = goal.hyps[: k - 1] + ((hname, f),) + goal.hyps[k:]
            return Goal(hyps, goal.target)
        return _finish((with_hyp(hform.lhs), with_hyp(hform.rhs)) + rest)

    if kind is TacticKind.DESTRUCT:
        hyps = goal.hyps[: k - 1] + goal.hyps[k:]
        n1 = _fresh_name(hyps)
        n2 = _fresh_name(hyps, bump=1)
        hyps = hyps + ((n1, hform.lhs), (n2, hform.rhs))
        return _finish((Goal(hyps, goal.target),) + rest)

    raise AssertionError(f"unhandled tactic kind {kind}")


def state_fingerprint(state: ProofState) -> int:
    """64-bit content hash of the canonical rendering; stable across runs."""
    digest = hashlib.blake2b(state.render().encode(), digest_size=8, person=b"miniprop").digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True, slots=True)
class Replay(StepResult):
    """Result of a tactic-list walk: the final kind, state and error, plus
    ``states``, the state before each applied tactic followed, unless a
    tactic failed, by the state reached (``ProofState(())`` once proved)."""

    states: tuple[ProofState, ...] = ()


def replay(state: ProofState, tactics: list[Tactic] | tuple[Tactic, ...]) -> Replay:
    """Apply every tactic in order from ``state``, stopping at the first
    error; a tactic after the proof closes fails with NO_GOALS. An empty
    sequence returns Ok on ``state``. It walks tactic lists outside any
    ``gfn.ProofTree``: the corpus's ground-truth checks and the re-check of
    a search proof."""
    states = [state]
    result = StepResult(StepKind.OK, state=state)
    for t in tactics:
        result = apply_tactic(states[-1], t)
        if result.failed:
            break
        states.append(result.state if result.ok else ProofState(()))
    return Replay(result.kind, result.state, result.error, tuple(states))
