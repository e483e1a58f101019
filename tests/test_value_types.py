"""The value types the library makes in bulk are slotted dataclasses: no
instance carries a ``__dict__``, and equality, hashing and ``replace``
behave as for plain dataclasses. A tactic is an interned ``int``, its
action index: the 36 instances of ``ACTIONS`` are the only ones."""

import copy
import dataclasses
import pickle

import pytest

from flowprover.corpus import Theorem
from flowprover.env import (
    ACTIONS,
    Goal,
    ProofState,
    Replay,
    StepKind,
    StepResult,
    Tactic,
    TacticKind,
    parse_tactic,
)
from flowprover.formulas import And, Atom, Formula, Implies, Or
from flowprover.gfn import StepMetrics, Trajectory

a = Atom("a")
goal = Goal((("h1", a),), a)
state = ProofState((goal,))
intro = Tactic(TacticKind.INTRO)

INSTANCES = [
    Formula(),
    a,
    Implies(a, a),
    And(a, a),
    Or(a, a),
    goal,
    state,
    StepResult(StepKind.OK, state=state),
    Replay(StepKind.OK, state=state, states=(state,)),
    Theorem("t", state, (intro,)),
    Trajectory("t", (intro,), StepKind.PROVED, log_pf=-1.0, proof_states=(state, state)),
    StepMetrics(step=1, mode="gfn", loss=0.5, mean_log_r=0.0, mean_log_pf=-1.0, log_z=0.0,
                env_calls=2),
]


@pytest.mark.parametrize("value", INSTANCES, ids=lambda v: type(v).__name__)
def test_value_type_is_slotted(value):
    assert not hasattr(value, "__dict__")
    copy = dataclasses.replace(value)
    assert copy == value and copy is not value
    if type(value).__hash__ is not None:  # the frozen types
        assert hash(copy) == hash(value)


def test_a_tactic_is_its_action_index():
    assert len(ACTIONS) == 36
    for i, t in enumerate(ACTIONS):
        assert type(t) is Tactic and int(t) == i and hash(t) == i
        assert Tactic(t.kind, t.arg) is t and parse_tactic(t.render()) is t
        assert pickle.loads(pickle.dumps(t)) is t
        assert copy.deepcopy(t) is t and copy.copy(t) is t
        assert not hasattr(t, "__dict__")
        assert eval(repr(t), {"parse_tactic": parse_tactic}) is t
