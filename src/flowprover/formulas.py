"""Propositional formulas: AST, parser, and minimal-parenthesis printer.

Grammar (ASCII): atoms match ``[a-z][a-z0-9]*``; connectives are ``->``,
``&``, ``|``; parentheses group. Precedence is ``&`` > ``|`` > ``->``,
with ``->`` right-associative and ``&``/``|`` left-associative.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class FormulaSyntaxError(ValueError):
    """Malformed formula text; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


@dataclass(frozen=True, slots=True)
class Formula:
    """Base class for formula nodes. Equality is syntactic."""


@dataclass(frozen=True, slots=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True, slots=True)
class Implies(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True, slots=True)
class And(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True, slots=True)
class Or(Formula):
    lhs: Formula
    rhs: Formula


_ATOM_RE = re.compile(r"[a-z][a-z0-9]*")
_TOKEN_RE = re.compile(r"\s*(->|&|\||\(|\)|[a-z][a-z0-9]*)")

# Binding strength; higher binds tighter. Atoms never need parens.
_PREC = {Implies: 1, Or: 2, And: 3, Atom: 4}


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            # skip whitespace-only tail
            if text[pos:].strip() == "":
                break
            bad = pos + len(text[pos:]) - len(text[pos:].lstrip())
            raise FormulaSyntaxError(f"unexpected character {text[bad]!r}", bad)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def next(self) -> tuple[str, int]:
        if self.i >= len(self.tokens):
            raise FormulaSyntaxError("unexpected end of input", len(self.text))
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> Formula:
        f = self.implies()
        if self.i < len(self.tokens):
            tok, off = self.tokens[self.i]
            raise FormulaSyntaxError(f"unexpected token {tok!r}", off)
        return f

    def implies(self) -> Formula:
        lhs = self.disj()
        if self.peek() == "->":
            self.next()
            return Implies(lhs, self.implies())  # right-associative
        return lhs

    def disj(self) -> Formula:
        f = self.conj()
        while self.peek() == "|":
            self.next()
            f = Or(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.primary()
        while self.peek() == "&":
            self.next()
            f = And(f, self.primary())
        return f

    def primary(self) -> Formula:
        tok, off = self.next()
        if tok == "(":
            f = self.implies()
            close, coff = self.next()
            if close != ")":
                raise FormulaSyntaxError(f"expected ')', got {close!r}", coff)
            return f
        if _ATOM_RE.fullmatch(tok):
            return Atom(tok)
        raise FormulaSyntaxError(f"expected atom or '(', got {tok!r}", off)


def parse_formula(text: str) -> Formula:
    """Parse ASCII formula text into a Formula tree.

    Raises FormulaSyntaxError (with byte offset) on malformed input.
    """
    return _Parser(text).parse()


def print_formula(f: Formula) -> str:
    """Canonical minimal-parenthesis rendering; parse(print(f)) == f."""
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Implies):
        # right-assoc: parenthesize an Implies on the left only
        lhs = _render(f.lhs, min_prec=2)
        rhs = _render(f.rhs, min_prec=1)
        return f"{lhs} -> {rhs}"
    if isinstance(f, And):
        lhs = _render(f.lhs, min_prec=3)
        rhs = _render(f.rhs, min_prec=4)
        return f"{lhs} & {rhs}"
    if isinstance(f, Or):
        lhs = _render(f.lhs, min_prec=2)
        rhs = _render(f.rhs, min_prec=3)
        return f"{lhs} | {rhs}"
    raise TypeError(f"not a Formula: {f!r}")


def _render(f: Formula, min_prec: int) -> str:
    s = print_formula(f)
    if _PREC[type(f)] < min_prec:
        return f"({s})"
    return s


def formula_depth(f: Formula) -> int:
    """Tree depth; atoms have depth 1."""
    if isinstance(f, Atom):
        return 1
    return 1 + max(formula_depth(f.lhs), formula_depth(f.rhs))
