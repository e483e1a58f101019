"""The value types the library makes in bulk are slotted dataclasses: no
instance carries a ``__dict__``, and equality, hashing and ``replace``
behave as for plain dataclasses."""

import dataclasses

import pytest

from flowprover.corpus import Theorem
from flowprover.env import Goal, ProofState, Replay, StepKind, StepResult, Tactic, TacticKind
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
    intro,
    goal,
    state,
    StepResult(StepKind.OK, state=state),
    Replay(StepKind.OK, state=state, states=(state,)),
    Theorem("t", state, (intro,)),
    Trajectory("t", (intro,), "proved", log_pf=-1.0, proof_states=(state, state)),
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
