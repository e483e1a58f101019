import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowprover.formulas import (
    And,
    Atom,
    Formula,
    FormulaSyntaxError,
    Implies,
    Or,
    formula_depth,
    parse_formula,
    print_formula,
)

a, b, c = Atom("a"), Atom("b"), Atom("c")


class TestParse:
    def test_precedence_and_over_implies(self):
        assert parse_formula("a -> b & c") == Implies(a, And(b, c))

    def test_implies_right_associative(self):
        assert parse_formula("a -> b -> c") == Implies(a, Implies(b, c))

    def test_explicit_parens(self):
        assert parse_formula("(a | b) -> a") == Implies(Or(a, b), a)

    def test_or_binds_tighter_than_implies(self):
        assert parse_formula("a | b -> a") == Implies(Or(a, b), a)

    def test_and_binds_tighter_than_or(self):
        assert parse_formula("a | b & c") == Or(a, And(b, c))

    def test_left_associative_chains(self):
        assert parse_formula("a & b & c") == And(And(a, b), c)
        assert parse_formula("a | b | c") == Or(Or(a, b), c)

    def test_multichar_atoms(self):
        assert parse_formula("foo1 -> bar") == Implies(Atom("foo1"), Atom("bar"))

    @pytest.mark.parametrize("text", ["", "a ->", "-> a", "(a", "a)", "a b", "A", "a -> (b"])
    def test_syntax_errors_carry_offsets(self, text):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula(text)
        assert exc.value.offset >= 0


class TestPrint:
    def test_and(self):
        assert print_formula(And(a, b)) == "a & b"

    def test_minimal_parens_or_under_implies(self):
        assert print_formula(Implies(Or(a, b), a)) == "a | b -> a"

    def test_atom_identity(self):
        assert print_formula(Atom("p")) == "p"

    def test_nested_implies_lhs_parenthesized(self):
        assert print_formula(Implies(Implies(a, b), c)) == "(a -> b) -> c"
        assert print_formula(Implies(a, Implies(b, c))) == "a -> b -> c"

    def test_right_nested_and_parenthesized(self):
        assert print_formula(And(a, And(b, c))) == "a & (b & c)"
        assert print_formula(And(And(a, b), c)) == "a & b & c"


def _formula_strategy():
    atoms = st.sampled_from([Atom(n) for n in ("a", "b", "c", "p", "q", "x1")])
    return st.recursive(
        atoms,
        lambda sub: st.one_of(
            st.builds(Implies, sub, sub),
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
        ),
        max_leaves=24,
    )


@given(_formula_strategy())
@settings(max_examples=300, deadline=None)
def test_print_parse_round_trip(f: Formula):
    assert parse_formula(print_formula(f)) == f


def test_round_trip_on_seeded_random_formulas():
    from conftest import random_formula

    rng = np.random.default_rng(123)
    for _ in range(500):
        f = random_formula(rng, 5)
        assert parse_formula(print_formula(f)) == f


def test_helpers():
    f = Implies(And(a, b), a)
    assert formula_depth(f) == 3
