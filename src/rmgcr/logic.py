"""Propositional formulas over a named vocabulary: AST, parser, evaluation, DNF.

Formulas guard the edges of reward machines. Atoms are plain identifier
strings; a truth assignment is the set of atoms that hold (closed world).
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence, Union

from .errors import InputError

ATOM_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")

_KEYWORDS = {"true", "false"}

# to_dnf refuses formulas whose distribution yields more clauses than this
MAX_DNF_CLAUSES = 4096


def check_vocab(vocab: Iterable[str]) -> tuple[str, ...]:
    """Validate a vocabulary of atom names; returns it as a tuple."""
    names = tuple(vocab)
    seen = set()
    for name in names:
        if not ATOM_RE.match(name):
            raise ValueError(f"invalid atom name: {name!r}")
        if name in _KEYWORDS:
            raise ValueError(f"atom name collides with keyword: {name!r}")
        if name in seen:
            raise ValueError(f"duplicate atom name: {name!r}")
        seen.add(name)
    return names


class FormulaSyntaxError(InputError):
    """Raised on malformed formula text; carries the offending position."""

    def __init__(self, position: int, message: str):
        super().__init__(f"at position {position}: {message}")
        self.position = position
        self.message = message


class UnknownAtomError(InputError):
    def __init__(self, name: str):
        super().__init__(f"unknown atom: {name!r}")
        self.name = name


class ClauseLimitExceeded(InputError):
    """DNF expansion exceeded the clause cap."""


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class TrueConst:
    def __repr__(self):
        return "true"


@dataclass(frozen=True)
class FalseConst:
    def __repr__(self):
        return "false"


@dataclass(frozen=True)
class Var:
    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class Not:
    child: "Formula"

    def __repr__(self):
        return f"!{self.child!r}"


@dataclass(frozen=True)
class And:
    children: tuple

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("And requires at least two children")

    def __repr__(self):
        return "(" + " & ".join(map(repr, self.children)) + ")"


@dataclass(frozen=True)
class Or:
    children: tuple

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("Or requires at least two children")

    def __repr__(self):
        return "(" + " | ".join(map(repr, self.children)) + ")"


Formula = Union[TrueConst, FalseConst, Var, Not, And, Or]

TRUE = TrueConst()
FALSE = FalseConst()


# ---------------------------------------------------------------------------
# DNF representation

# A literal is (atom, positive); a clause is a tuple of literals with
# distinct atoms, sorted by name.
Literal = tuple[str, bool]
Clause = tuple[Literal, ...]


@dataclass(frozen=True)
class DnfFormula:
    """Disjunction of conjunctive clauses, canonically sorted and deduplicated."""

    clauses: tuple[Clause, ...]

    def __post_init__(self):
        if not self.clauses:
            raise ValueError("DnfFormula must have at least one clause (use FALSE)")
        for clause in self.clauses:
            if not clause:
                raise ValueError("empty clause (use TRUE)")
            atoms = [a for a, _ in clause]
            if len(set(atoms)) != len(atoms):
                raise ValueError("clause contains a repeated atom")

    def __repr__(self):
        def lit(l):
            return ("" if l[1] else "!") + l[0]

        return " | ".join("&".join(lit(l) for l in c) for c in self.clauses)


# ---------------------------------------------------------------------------
# Parser
#
# Grammar (precedence ! > & > |, both binary ops left-associative):
#   disj  := conj ('|' conj)*
#   conj  := unary ('&' unary)*
#   unary := '!' unary | '(' disj ')' | 'true' | 'false' | IDENT

_TOKEN_RE = re.compile(r"\s*(?:(?P<op>[!&|()])|(?P<ident>[A-Za-z_][A-Za-z0-9_]*))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise FormulaSyntaxError(pos, f"unexpected character {text[pos:].lstrip()[0]!r}")
        tokens.append((m.group("op") or m.group("ident"), m.start("op") if m.group("op") else m.start("ident")))
        pos = m.end()
    return tokens


def parse_formula(text: str, vocab: Sequence[str]) -> Formula:
    """Parse formula text against a vocabulary of atom names.

    Raises FormulaSyntaxError on bad syntax and UnknownAtomError for
    identifiers outside the vocabulary.
    """
    if not text.strip():
        raise FormulaSyntaxError(0, "empty formula")
    vocab_set = set(check_vocab(vocab))
    tokens = _tokenize(text)
    idx = 0

    def peek():
        return tokens[idx][0] if idx < len(tokens) else None

    def pos():
        return tokens[idx][1] if idx < len(tokens) else len(text)

    def advance():
        nonlocal idx
        idx += 1

    def parse_disj() -> Formula:
        parts = [parse_conj()]
        while peek() == "|":
            advance()
            parts.append(parse_conj())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def parse_conj() -> Formula:
        parts = [parse_unary()]
        while peek() == "&":
            advance()
            parts.append(parse_unary())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def parse_unary() -> Formula:
        tok = peek()
        if tok is None:
            raise FormulaSyntaxError(pos(), "unexpected end of formula")
        if tok == "!":
            advance()
            return Not(parse_unary())
        if tok == "(":
            advance()
            inner = parse_disj()
            if peek() != ")":
                raise FormulaSyntaxError(pos(), "expected ')'")
            advance()
            return inner
        if tok in "&|)":
            raise FormulaSyntaxError(pos(), f"unexpected {tok!r}")
        advance()
        if tok == "true":
            return TRUE
        if tok == "false":
            return FALSE
        if tok not in vocab_set:
            raise UnknownAtomError(tok)
        return Var(tok)

    result = parse_disj()
    if idx < len(tokens):
        raise FormulaSyntaxError(pos(), f"trailing input {peek()!r}")
    return result


# ---------------------------------------------------------------------------
# Evaluation


def evaluate(f, assignment: Iterable[str]) -> bool:
    """Evaluate a Formula or DnfFormula under a closed-world truth assignment."""
    w = assignment if isinstance(assignment, (set, frozenset)) else frozenset(assignment)
    if isinstance(f, TrueConst):
        return True
    if isinstance(f, FalseConst):
        return False
    if isinstance(f, Var):
        return f.name in w
    if isinstance(f, Not):
        return not evaluate(f.child, w)
    if isinstance(f, And):
        return all(evaluate(c, w) for c in f.children)
    if isinstance(f, Or):
        return any(evaluate(c, w) for c in f.children)
    if isinstance(f, DnfFormula):
        return clauses_hold(f.clauses, w)
    raise TypeError(f"not a formula: {f!r}")


def assignment_columns(assignments: Sequence[Iterable[str]]) -> dict[str, int]:
    """Per atom, the int whose bit j says whether it holds in assignments[j] (see truth_bits)."""
    columns: dict[str, int] = {}
    for j, w in enumerate(assignments):
        for atom in w:
            columns[atom] = columns.get(atom, 0) | 1 << j
    return columns


def truth_bits(f, columns: dict[str, int], full: int) -> int:
    """Where a Formula or DnfFormula holds over many assignments at once, as one int.

    Bit j is set iff f holds on assignment j. columns[atom] is the int of the
    assignments where atom holds (an atom without a column holds nowhere),
    and full has one bit per assignment. The connectives are &, | and full ^ x.
    """
    if isinstance(f, TrueConst):
        return full
    if isinstance(f, FalseConst):
        return 0
    if isinstance(f, Var):
        return columns.get(f.name, 0)
    if isinstance(f, Not):
        return full ^ truth_bits(f.child, columns, full)
    if isinstance(f, (And, Or)):
        bits = (truth_bits(c, columns, full) for c in f.children)
        return reduce(operator.and_ if isinstance(f, And) else operator.or_, bits)
    if isinstance(f, DnfFormula):  # an OR of ANDs of literal columns, a negative literal's ^ full
        flip = {True: 0, False: full}
        ands = (reduce(operator.and_, (columns.get(a, 0) ^ flip[p] for a, p in c)) for c in f.clauses)
        return reduce(operator.or_, ands)
    raise TypeError(f"not a formula: {f!r}")


def truth_table(f, vocab: Sequence[str]) -> int:
    """The assignments over vocab where a Formula or DnfFormula holds, as one int.

    Bit m is set iff f holds on the assignment of mask m, where bit i of m
    says whether vocab[i] holds (as `rm.label_mask` encodes labels): the
    truth_bits of all 2^|vocab| assignments, columns built in closed form.
    """
    n = 1 << len(vocab)
    full = (1 << n) - 1
    columns = {}
    for i, atom in enumerate(vocab):
        period = 2 << i  # masks alternate 2^i without the atom, then 2^i with it
        block = ((1 << (1 << i)) - 1) << (1 << i)
        columns[atom] = block * (full // ((1 << period) - 1))
    return truth_bits(f, columns, full)


def clauses_hold(clauses: Sequence[Clause], assignment: frozenset[str]) -> bool:
    """Truth of a disjunction of clauses under a closed-world assignment, such as a
    true label: some clause has each of its positive atoms in the assignment and
    none of its negative ones."""
    return any(all((atom in assignment) == positive for atom, positive in c) for c in clauses)


# ---------------------------------------------------------------------------
# DNF normalization


def _to_nnf(f: Formula, negate: bool) -> Formula:
    """Push negations to literals, simplifying constants along the way."""
    if isinstance(f, TrueConst):
        return FALSE if negate else TRUE
    if isinstance(f, FalseConst):
        return TRUE if negate else FALSE
    if isinstance(f, Var):
        return Not(f) if negate else f
    if isinstance(f, Not):
        return _to_nnf(f.child, not negate)
    if isinstance(f, (And, Or)):
        flip = isinstance(f, And) == negate  # And under negation becomes Or
        children = [_to_nnf(c, negate) for c in f.children]
        absorbing, neutral = (TRUE, FALSE) if flip else (FALSE, TRUE)
        kept = []
        for c in children:
            if c == absorbing:
                return absorbing
            if c != neutral:
                kept.append(c)
        if not kept:
            return neutral
        if len(kept) == 1:
            return kept[0]
        return Or(tuple(kept)) if flip else And(tuple(kept))
    raise TypeError(f"not a formula: {f!r}")


def _merge_clauses(a: Clause, b: Clause) -> Clause | None:
    """Conjoin two clauses; None if the result is contradictory."""
    merged = dict(a)
    for atom, positive in b:
        if merged.setdefault(atom, positive) != positive:
            return None
    return tuple(sorted(merged.items()))


def to_dnf(f: Formula):
    """Normalize to DNF via negation-pushing and distribution.

    Returns a DnfFormula, or TRUE/FALSE for formulas equivalent to a
    constant at the structural level (contradictory clauses are deleted;
    no further minimization is performed). Raises ClauseLimitExceeded if
    distribution produces more than MAX_DNF_CLAUSES clauses.
    """
    nnf = _to_nnf(f, negate=False)
    if isinstance(nnf, TrueConst):
        return TRUE
    if isinstance(nnf, FalseConst):
        return FALSE

    def clauses_of(node) -> list[Clause]:
        if isinstance(node, Var):
            return [((node.name, True),)]
        if isinstance(node, Not):  # NNF: child is a Var
            return [((node.child.name, False),)]
        if isinstance(node, Or):
            out = []
            for c in node.children:
                out.extend(clauses_of(c))
                if len(out) > MAX_DNF_CLAUSES:
                    raise ClauseLimitExceeded(f"more than {MAX_DNF_CLAUSES} clauses")
            return out
        if isinstance(node, And):
            acc: list[Clause] = [()]
            for c in node.children:
                nxt = []
                for left in acc:
                    for right in clauses_of(c):
                        merged = _merge_clauses(left, right)
                        if merged is not None:
                            nxt.append(merged)
                if len(nxt) > MAX_DNF_CLAUSES:
                    raise ClauseLimitExceeded(f"more than {MAX_DNF_CLAUSES} clauses")
                acc = nxt
            return acc
        raise TypeError(f"unexpected NNF node: {node!r}")

    clauses = sorted(set(clauses_of(nnf)))
    if not clauses:
        return FALSE
    return DnfFormula(tuple(clauses))


def dnf_to_formula(dnf) -> Formula:
    """Rebuild an AST from a DNF (or pass constants through)."""
    if isinstance(dnf, (TrueConst, FalseConst)):
        return dnf

    def lit(l: Literal) -> Formula:
        return Var(l[0]) if l[1] else Not(Var(l[0]))

    def clause(c: Clause) -> Formula:
        return lit(c[0]) if len(c) == 1 else And(tuple(lit(l) for l in c))

    terms = [clause(c) for c in dnf.clauses]
    return terms[0] if len(terms) == 1 else Or(tuple(terms))
