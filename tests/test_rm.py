from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rmgcr import logic, rm as rm_module
from rmgcr.logic import FALSE, TRUE, And, Not, Or, Var, evaluate, to_dnf
from rmgcr.rm import (
    MAX_EXHAUSTIVE_VOCAB,
    DanglingStateError,
    NondeterministicGuardError,
    RmSyntaxError,
    RmTransition,
    StepFromTerminalError,
    TransitionFromTerminalError,
    check_determinism,
    label_mask,
    load_rm,
    make_rm,
    parse_rm,
    reachability_rm,
    rm_step,
    run_rm,
)

from conftest import TASKS_DIR, all_assignments

GEO = ("red", "green", "blue", "triangle", "circle")


class TestParse:
    def test_sequence_file(self, sequence_rm):
        assert sequence_rm.num_states == 4
        assert sequence_rm.initial == 1
        assert sequence_rm.terminals == frozenset({0})
        final = [t for t in sequence_rm.transitions if t.dst == 0]
        assert len(final) == 1 and final[0].reward == 1.0

    def test_single_unconditional_edge(self):
        rm = parse_rm("vocab: red\nstates: 2\n(1, 0, true, 1)\n")
        step = rm_step(rm, 1, frozenset())
        assert (step.next_state, step.reward, step.terminated) == (0, 1.0, True)

    def test_overlapping_guards_rejected(self):
        text = "vocab: red triangle\nstates: 2\n(1, 0, red, 1)\n(1, 0, red & triangle, 1)\n"
        with pytest.raises(NondeterministicGuardError) as e:
            parse_rm(text)
        assert e.value.state == 1

    def test_comments_and_defaults(self):
        rm = parse_rm("# header comment\nvocab: a\nstates: 2\n(1, 0, a, 1)  # inline\n")
        assert rm.terminals == frozenset({0})
        assert rm.initial == 1

    def test_empty_terminals_means_never_terminates(self, loop_rm):
        assert loop_rm.terminals == frozenset()

    def test_missing_headers(self):
        with pytest.raises(RmSyntaxError):
            parse_rm("states: 2\n(1, 0, true, 1)\n")
        with pytest.raises(RmSyntaxError):
            parse_rm("vocab: a\n(1, 0, a, 1)\n")

    def test_bad_guard_reports_line(self):
        with pytest.raises(RmSyntaxError) as e:
            parse_rm("vocab: a\nstates: 2\n(1, 0, a &, 1)\n")
        assert e.value.line_no == 3

    def test_dangling_state(self):
        with pytest.raises(DanglingStateError):
            parse_rm("vocab: a\nstates: 2\n(1, 5, a, 1)\n")

    def test_transition_from_terminal(self):
        with pytest.raises(TransitionFromTerminalError):
            parse_rm("vocab: a\nstates: 2\n(0, 1, a, 1)\n")

    def test_vocabulary_checked_per_machine_not_per_guard(self, monkeypatch):
        calls = []
        for module in (logic, rm_module):
            original = module.check_vocab
            monkeypatch.setattr(module, "check_vocab", lambda v, _o=original: calls.append(v) or _o(v))
        rm = load_rm(TASKS_DIR / "logic.rm")
        assert len(rm.transitions) > 2
        assert len(calls) == 2  # the vocab: line and make_rm

    def test_formula_may_contain_commas_never(self):
        # parentheses inside guards survive the transition-line split
        rm = parse_rm("vocab: a b\nstates: 2\n(1, 0, (a | b) & !(a & b), 1)\n")
        assert rm_step(rm, 1, {"a"}).reward == 1.0
        assert rm_step(rm, 1, {"a", "b"}).reward == 0.0


class TestStep:
    def test_sequence_first_edge(self, sequence_rm):
        step = rm_step(sequence_rm, 1, {"red", "triangle"})
        assert (step.next_state, step.reward, step.terminated) == (2, 0.0, False)

    def test_sequence_implicit_self_loop(self, sequence_rm):
        step = rm_step(sequence_rm, 1, {"green"})
        assert (step.next_state, step.reward, step.terminated) == (1, 0.0, False)

    def test_lava_self_loop_penalty(self, lava_rm):
        step = rm_step(lava_rm, 1, {"lava"})
        assert (step.next_state, step.reward, step.terminated) == (1, -1.0, False)

    def test_step_from_terminal_rejected(self, sequence_rm):
        with pytest.raises(StepFromTerminalError):
            rm_step(sequence_rm, 0, frozenset())

    def test_terminated_flag_matches_terminals(self, sequence_rm):
        step = rm_step(sequence_rm, 3, {"blue", "circle"})
        assert step.terminated and step.next_state == 0


class TestRun:
    def test_sequence_trace(self, sequence_rm):
        ws = [{"red", "triangle"}, {"green", "triangle"}, {"blue", "circle"}]
        rewards, states, terminated_at = run_rm(sequence_rm, ws)
        assert rewards == [0.0, 0.0, 1.0]
        assert states == [2, 3, 0]
        assert terminated_at == 2

    def test_empty_sequence(self, sequence_rm):
        assert run_rm(sequence_rm, []) == ([], [], None)

    def test_loop_two_passes(self, loop_rm):
        cycle = [{"red", "triangle"}, {"green", "triangle"}, {"blue", "triangle"}]
        rewards, states, terminated_at = run_rm(loop_rm, cycle * 2)
        assert sum(rewards) == 2.0
        assert terminated_at is None
        assert states == [2, 0, 1, 2, 0, 1]

    def test_stops_at_first_terminal(self, sequence_rm):
        ws = [{"red", "triangle"}, {"green"}, {"blue", "circle"}, {"red"}]
        rewards, states, terminated_at = run_rm(sequence_rm, ws)
        assert terminated_at == 2
        assert len(rewards) == len(states) == 3

    def test_fold_equivalence(self, safety_rm):
        rng = np.random.default_rng(3)
        assignments = list(all_assignments(GEO))
        for _ in range(50):
            ws = [assignments[i] for i in rng.integers(len(assignments), size=12)]
            rewards, states, terminated_at = run_rm(safety_rm, ws)
            u = safety_rm.initial
            manual = []
            for w in ws:
                step = rm_step(safety_rm, u, w)
                manual.append(step.reward)
                u = step.next_state
                if step.terminated:
                    break
            assert rewards == manual


class TestConstruction:
    def test_initial_cannot_be_terminal(self):
        with pytest.raises(ValueError):
            make_rm(["a"], 2, [], initial=0, terminals=[0])

    def test_determinism_over_all_assignments(self, logic_rm):
        from rmgcr.logic import evaluate

        for u in range(logic_rm.num_states):
            if logic_rm.is_terminal(u):
                continue
            for w in all_assignments(logic_rm.vocab):
                firing = [e for e in logic_rm.outgoing(u) if evaluate(e.guard, w)]
                assert len(firing) <= 1

    def test_reachability_rm_shape(self):
        rm = reachability_rm(GEO, Var("red"))
        assert rm.num_states == 2
        step = rm_step(rm, 1, {"red", "triangle"})
        assert (step.next_state, step.reward, step.terminated) == (0, 1.0, True)

    def test_transitions_preserve_order(self):
        rm = make_rm(
            ["a", "b"],
            3,
            [RmTransition(1, 2, Var("a"), 0.0), RmTransition(2, 0, Var("b"), 1.0)],
        )
        assert rm.outgoing(1)[0].dst == 2
        assert rm.outgoing(2)[0].dst == 0


def _assert_table_matches_rm_step(rm):
    for mask, w in enumerate(all_assignments(rm.vocab)):
        column = rm.column(mask)
        assert len(column) == rm.num_states and rm.column(mask) is column
        for u in range(rm.num_states):
            if rm.is_terminal(u):
                assert column[u] is None  # where rm_step raises StepFromTerminalError
                continue
            stp = rm_step(rm, u, w)
            assert column[u] == (stp.next_state, stp.reward, stp.terminated)


@st.composite
def random_machines(draw):
    """Machines over 1-5 atoms with random guards; determinism is not required,
    since rm_step (and so the table) takes the first edge that fires."""
    vocab = tuple(f"a{i}" for i in range(draw(st.integers(1, 5))))
    leaves = st.sampled_from([Var(a) for a in vocab] + [TRUE, FALSE])
    formulas = st.recursive(
        leaves,
        lambda sub: st.one_of(
            sub.map(Not),
            st.lists(sub, min_size=2, max_size=3).map(lambda c: And(tuple(c))),
            st.lists(sub, min_size=2, max_size=3).map(lambda c: Or(tuple(c))),
        ),
        max_leaves=6,
    )
    n = draw(st.integers(2, 5))
    terminals = draw(st.sets(st.integers(0, n - 1), max_size=n - 1).filter(lambda t: 1 not in t))
    sources = [u for u in range(n) if u not in terminals]
    edge = st.builds(
        RmTransition,
        st.sampled_from(sources),
        st.integers(0, n - 1),
        formulas,
        st.sampled_from([0.0, 1.0, -1.0, 0.5]),
    )
    edges = draw(st.lists(edge, max_size=8))
    return make_rm(vocab, n, edges, terminals=terminals, check=False)


class TestStepTable:
    """The machine's table of steps by assignment bitmask: RewardMachine.column."""

    def test_label_mask_bits_and_foreign_atoms(self):
        assert label_mask(GEO, ()) == 0
        assert label_mask(GEO, {"red", "circle"}) == 0b10001
        assert label_mask(GEO, {"green", "lava"}) == 0b10  # lava is not in the vocab

    @pytest.mark.parametrize("path", sorted(TASKS_DIR.glob("*.rm")), ids=lambda p: p.name)
    def test_matches_rm_step_on_task_files(self, path):
        _assert_table_matches_rm_step(load_rm(path))

    @settings(max_examples=200, deadline=None)
    @given(random_machines())
    def test_matches_rm_step_on_random_machines(self, rm):
        _assert_table_matches_rm_step(rm)

    def test_steps_beyond_the_exhaustive_vocab(self):
        vocab = tuple(f"a{i}" for i in range(MAX_EXHAUSTIVE_VOCAB + 1))
        rm = make_rm(vocab, 2, [RmTransition(1, 0, And((Var("a0"), Var(vocab[-1]))), 1.0)])
        assert rm.column(label_mask(vocab, {"a0"})) == (None, (1, 0.0, False))
        assert rm.column(label_mask(vocab, {"a0", vocab[-1]})) == (None, (0, 1.0, True))

    def test_a_machine_keeps_its_columns_and_compares_without_them(self):
        rm = load_rm(TASKS_DIR / "logic.rm")
        twin = load_rm(TASKS_DIR / "logic.rm")
        column = rm.column(0b101)
        assert rm == twin and hash(rm) == hash(twin)
        assert rm.column(0b101) is column and twin.column(0b101) == column

    def test_a_machine_keeps_each_guards_dnf_and_a_copy_by_replace_its_own(self):
        rm = load_rm(TASKS_DIR / "logic.rm")
        dnfs = [rm.dnf(t) for t in rm.transitions]
        assert dnfs == [to_dnf(t.guard) for t in rm.transitions]
        assert all(rm.dnf(t) is dnf for t, dnf in zip(rm.transitions, dnfs))
        copy = replace(rm, transitions=rm.transitions[:1])
        assert copy._dnfs == {} and copy == replace(rm, transitions=rm.transitions[:1])
        assert copy.dnf(rm.transitions[0]) == dnfs[0] and list(copy._dnfs) == [rm.transitions[0]]

    def test_a_copy_by_replace_derives_its_own_edges_and_columns(self):
        rm = load_rm(TASKS_DIR / "sequence.rm")
        green = label_mask(rm.vocab, {"green"})
        column = rm.column(green)
        copy = replace(rm, transitions=rm.transitions[:1])
        assert [len(rm.outgoing(u)) for u in range(rm.num_states)] == [0, 1, 1, 1]
        assert [len(copy.outgoing(u)) for u in range(copy.num_states)] == [0, 1, 0, 0]
        assert copy._columns == {} and rm._columns == {green: column}
        # green moves sequence.rm from state 2 to 3; the copy has no edge out of 2
        assert column[2] == (3, 0.0, False) and copy.column(green)[2] == (2, 0.0, False)
        assert rm.column(green) is column and copy._columns == {green: copy.column(green)}


def _first_overlap(rm):
    """The reference scan: the first state, lowest-mask assignment and first two edges that both fire."""
    for u in range(rm.num_states):
        if rm.is_terminal(u):
            continue
        for w in all_assignments(rm.vocab):
            firing = [e for e in rm.outgoing(u) if evaluate(e.guard, w)]
            if len(firing) > 1:
                return u, w, (firing[0], firing[1])
    return None


class TestDeterminism:
    def _error(self, vocab, edges):
        rm = make_rm(vocab, 3, edges, check=False)
        with pytest.raises(NondeterministicGuardError) as e:
            check_determinism(rm)
        return e.value

    def test_overlap_at_mask_zero(self):
        edges = [RmTransition(1, 0, Not(Var("a")), 1.0), RmTransition(1, 2, Not(Var("b")), 0.0)]
        err = self._error(("a", "b"), edges)
        assert (err.state, err.assignment, err.edges) == (1, frozenset(), tuple(edges))

    def test_overlap_at_a_middle_mask(self):
        # a & !c and b & !c first fire together on {a, b}, mask 0b011 of 0..7
        edges = [
            RmTransition(1, 0, And((Var("a"), Not(Var("c")))), 1.0),
            RmTransition(1, 2, And((Var("b"), Not(Var("c")))), 0.0),
        ]
        err = self._error(("a", "b", "c"), edges)
        assert (err.state, err.assignment, err.edges) == (1, frozenset({"a", "b"}), tuple(edges))

    def test_only_the_second_and_third_edges_overlap(self):
        edges = [
            RmTransition(2, 0, And((Var("a"), Var("b"))), 1.0),
            RmTransition(2, 1, And((Not(Var("a")), Var("c"))), 0.0),
            RmTransition(2, 0, And((Not(Var("b")), Var("c"))), -1.0),
        ]
        err = self._error(("a", "b", "c"), edges)
        # !a & c and !b & c both fire first on {c} (mask 0b100), where a & b does not
        assert (err.state, err.assignment, err.edges) == (2, frozenset({"c"}), (edges[1], edges[2]))

    @settings(max_examples=300, deadline=None)
    @given(random_machines())
    def test_raises_as_the_exhaustive_scan(self, rm):
        want = _first_overlap(rm)
        if want is None:
            check_determinism(rm)
            return
        with pytest.raises(NondeterministicGuardError) as e:
            check_determinism(rm)
        assert (e.value.state, e.value.assignment, e.value.edges) == want
