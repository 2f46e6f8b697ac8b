import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rmgcr.logic import (
    FALSE,
    TRUE,
    And,
    ClauseLimitExceeded,
    DnfFormula,
    FalseConst,
    FormulaSyntaxError,
    Not,
    Or,
    TrueConst,
    UnknownAtomError,
    Var,
    check_vocab,
    dnf_to_formula,
    evaluate,
    parse_formula,
    to_dnf,
    truth_bits,
    truth_table,
)
from rmgcr.logic import assignment_columns, clauses_hold
from rmgcr.rm import label_mask

from conftest import all_assignments
from test_compose import dnf_guards

GEO = ("red", "green", "blue", "triangle", "circle")


class TestVocab:
    def test_valid(self):
        assert check_vocab(["a", "B2", "_x"]) == ("a", "B2", "_x")

    @pytest.mark.parametrize("bad", ["1a", "", "a-b", "true", "false"])
    def test_invalid_names(self, bad):
        with pytest.raises(ValueError):
            check_vocab([bad])

    def test_duplicate(self):
        with pytest.raises(ValueError):
            check_vocab(["a", "a"])


class TestParse:
    def test_not_binds_tighter_than_and(self):
        assert parse_formula("!X&Y", ["X", "Y"]) == And((Not(Var("X")), Var("Y")))

    def test_true_keyword(self):
        assert parse_formula("true", GEO) == TRUE

    def test_false_keyword(self):
        assert parse_formula("false", GEO) == FALSE

    def test_parentheses_override_precedence(self):
        f = parse_formula("red & (triangle | circle)", GEO)
        assert f == And((Var("red"), Or((Var("triangle"), Var("circle")))))

    def test_and_binds_tighter_than_or(self):
        f = parse_formula("red & triangle | circle", GEO)
        assert f == Or((And((Var("red"), Var("triangle"))), Var("circle")))

    def test_left_associative(self):
        f = parse_formula("red & green & blue", GEO)
        assert f == And((Var("red"), Var("green"), Var("blue")))

    def test_double_negation_parses(self):
        assert parse_formula("!!red", GEO) == Not(Not(Var("red")))

    def test_unknown_atom(self):
        with pytest.raises(UnknownAtomError) as e:
            parse_formula("red & yellow", GEO)
        assert e.value.name == "yellow"

    def test_empty(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("   ", GEO)

    def test_unbalanced_paren(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("(red | blue", GEO)

    def test_error_carries_position(self):
        with pytest.raises(FormulaSyntaxError) as e:
            parse_formula("red & $", GEO)
        assert e.value.position == 5
        assert "$" in e.value.message

    def test_appending_garbage_fails(self):
        # no silent truncation: a valid formula plus trailing tokens is an error
        for suffix in [") red", "red", "(", "!"]:
            with pytest.raises(FormulaSyntaxError):
                parse_formula("red & triangle " + suffix, GEO)


class TestEvaluate:
    def test_conjunction_with_negation(self):
        f = And((Var("red"), Not(Var("triangle"))))
        assert evaluate(f, {"red"}) is True
        assert evaluate(f, {"red", "triangle"}) is False

    def test_empty_assignment(self):
        f = Or(tuple(Var(a) for a in GEO))
        assert evaluate(f, frozenset()) is False

    def test_constants(self):
        assert evaluate(TRUE, frozenset()) is True
        assert evaluate(FALSE, {"red"}) is False

    def test_dnf_formula(self):
        dnf = DnfFormula(((("red", True), ("triangle", False)),))
        assert evaluate(dnf, {"red"}) is True
        assert evaluate(dnf, {"red", "triangle"}) is False


class TestToDnf:
    def test_de_morgan(self):
        f = Not(Or((Var("red"), Var("green"))))
        assert to_dnf(f) == DnfFormula(((("green", False), ("red", False)),))

    def test_contradiction_collapses(self):
        assert to_dnf(And((Var("red"), Not(Var("red"))))) == FALSE

    def test_already_dnf_is_sorted(self):
        f = Or((And((Var("blue"), Not(Var("triangle")))), And((Var("red"), Var("triangle")))))
        d = to_dnf(f)
        assert d.clauses == (
            (("blue", True), ("triangle", False)),
            (("red", True), ("triangle", True)),
        )

    def test_constants_pass_through(self):
        assert to_dnf(TRUE) == TRUE
        assert to_dnf(FALSE) == FALSE
        assert to_dnf(Not(TRUE)) == FALSE

    def test_tautology_via_distribution(self):
        assert to_dnf(Or((Var("red"), TRUE))) == TRUE

    def test_duplicate_clauses_removed(self):
        d = to_dnf(Or((Var("red"), Var("red"))))
        assert d.clauses == ((("red", True),),)

    def test_clause_cap(self):
        # distributing (a1|b1)&...&(a13|b13) needs 2^13 > 4096 clauses
        names = [f"a{i}" for i in range(13)] + [f"b{i}" for i in range(13)]
        f = And(tuple(Or((Var(f"a{i}"), Var(f"b{i}"))) for i in range(13)))
        with pytest.raises(ClauseLimitExceeded):
            to_dnf(f)
        assert names  # vocabulary only needed for readability here

    def test_idempotent(self):
        f = Or((And((Var("red"), Var("triangle"))), Not(Var("blue"))))
        once = to_dnf(f)
        again = to_dnf(dnf_to_formula(once))
        assert once == again


def random_formula(rng, atoms, depth):
    kind = int(rng.integers(6)) if depth > 0 else int(rng.integers(3))
    if kind == 0:
        return Var(str(rng.choice(atoms)))
    if kind == 1:
        return TRUE if rng.random() < 0.5 else FALSE
    if kind == 2:
        return Not(random_formula(rng, atoms, depth - 1))
    n = int(rng.integers(2, 4))
    children = tuple(random_formula(rng, atoms, depth - 1) for _ in range(n))
    return And(children) if kind in (3, 4) else Or(children)


class TestRoundTripProperty:
    def test_dnf_preserves_semantics(self):
        atoms = GEO
        rng = np.random.default_rng(7)
        for _ in range(500):
            f = random_formula(rng, atoms, depth=4)
            d = to_dnf(f)
            for w in all_assignments(atoms):
                assert evaluate(d, w) == evaluate(f, w), f"{f!r} vs {d!r} at {sorted(w)}"

    def test_normalization_idempotent(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            f = random_formula(rng, GEO, depth=4)
            d = to_dnf(f)
            assert to_dnf(dnf_to_formula(d)) == d


class TestHelpers:
    def test_dnf_invariants_enforced(self):
        with pytest.raises(ValueError):
            DnfFormula(())
        with pytest.raises(ValueError):
            DnfFormula(((),))
        with pytest.raises(ValueError):
            DnfFormula(((("red", True), ("red", False)),))

    def test_connectives_need_two_children(self):
        with pytest.raises(ValueError):
            And((Var("red"),))
        with pytest.raises(ValueError):
            Or((Var("red"),))

    def test_constants_are_distinct_types(self):
        assert isinstance(TRUE, TrueConst)
        assert isinstance(FALSE, FalseConst)
        assert TRUE != FALSE


@st.composite
def formulas_over_vocabs(draw):
    """A vocabulary of 1-6 atoms and a formula over it, as a tree or in DNF."""
    vocab = tuple(f"a{i}" for i in range(draw(st.integers(1, 6))))
    leaves = st.sampled_from([Var(a) for a in vocab] + [TRUE, FALSE])
    tree = draw(
        st.recursive(
            leaves,
            lambda sub: st.one_of(
                sub.map(Not),
                st.lists(sub, min_size=2, max_size=3).map(lambda c: And(tuple(c))),
                st.lists(sub, min_size=2, max_size=3).map(lambda c: Or(tuple(c))),
            ),
            max_leaves=8,
        )
    )
    return vocab, draw(st.sampled_from([tree, to_dnf(tree)]))


class TestTruthTable:
    @settings(max_examples=300, deadline=None)
    @given(formulas_over_vocabs())
    def test_agrees_with_evaluate_on_every_assignment(self, case):
        vocab, f = case
        table = truth_table(f, vocab)
        assert 0 <= table < 1 << (1 << len(vocab))
        for mask, w in enumerate(all_assignments(vocab)):
            assert label_mask(vocab, w) == mask
            assert bool(table >> mask & 1) == evaluate(f, w), (f, sorted(w))

    def test_columns_and_constants(self):
        vocab = ("a", "b", "c")
        assert truth_table(Var("a"), vocab) == 0b10101010
        assert truth_table(Var("c"), vocab) == 0b11110000
        assert truth_table(Not(Var("b")), vocab) == 0b00110011
        assert truth_table(TRUE, vocab) == 0xFF
        assert truth_table(FALSE, vocab) == 0


class TestTruthBits:
    @settings(max_examples=200, deadline=None)
    @given(
        guard=st.one_of(dnf_guards(), st.just(TRUE), st.just(FALSE)),
        labels=st.lists(st.frozensets(st.sampled_from(GEO), max_size=2), max_size=6),
    )
    def test_dnf_equals_its_formula_tree(self, guard, labels):
        # a few short labels leave most atoms without a column
        columns, full = assignment_columns(labels), (1 << len(labels)) - 1
        bits = truth_bits(guard, columns, full)
        assert bits == truth_bits(dnf_to_formula(guard), columns, full)
        if isinstance(guard, DnfFormula):
            assert [bool(bits >> j & 1) for j in range(len(labels))] == [
                clauses_hold(guard.clauses, label) for label in labels
            ]
        else:
            assert bits == (full if guard == TRUE else 0)
