import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rmgcr.compose import (
    ComposedValueFn,
    NoOutgoingEdgeError,
    StateSpaceTooLargeError,
    UnsatisfiableGuardError,
    check_shaping,
    clause_value,
    composed_table,
    composed_value,
    composition_bounds,
    exact_product_values,
    formula_value,
    label_bits,
    make_composed_value_fn,
    max_self_loop_rewards,
    rm_value_iteration,
    shaping_term,
)
from rmgcr import cli, compose
from rmgcr.geogrid import (
    VOCAB,
    CellGraph,
    GridConfig,
    cell_states,
    encode_obs,
    obs_key,
    reset,
    step,
    true_label,
)
from rmgcr.ground import LinearPvf, PvfSet, TabularPvf, observation_features
from rmgcr.logic import (
    FALSE,
    TRUE,
    And,
    DnfFormula,
    Not,
    Or,
    Var,
    clauses_hold,
    dnf_to_formula,
    evaluate,
)
from rmgcr.rm import RmTransition, load_rm, make_rm, reachability_rm, rm_step

from conftest import TASKS_DIR, all_assignments
from test_geogrid import grid_configs

GEO = ("red", "green", "blue", "triangle", "circle")
GAMMA = 0.97
GAMMA_RM = 0.97 ** 10


class ConstPvf:
    """Stub estimator returning a fixed value regardless of observation."""

    def __init__(self, value):
        self._value = value

    def value(self, obs):
        return self._value


def const_pvfs(vocab, values, gamma=GAMMA):
    """PvfSet whose literal values are the given constants (default 0)."""
    estimators = {
        (a, pol): ConstPvf(values.get((a, pol), 0.0)) for a in vocab for pol in (True, False)
    }
    return PvfSet(tuple(vocab), gamma, "fqi", estimators)


@st.composite
def dnf_guards(draw):
    """DNF guards over the grid's vocabulary: 1-3 clauses of 1-3 literals each."""
    clause = st.sets(st.sampled_from(VOCAB), min_size=1, max_size=3).flatmap(
        lambda atoms: st.tuples(*(st.tuples(st.just(a), st.booleans()) for a in sorted(atoms)))
    )
    return DnfFormula(tuple(draw(st.lists(clause, min_size=1, max_size=3, unique=True))))


@st.composite
def small_machines(draw, reward_cycles=True):
    """RMs of 2-4 states over the grid's vocabulary, with random DNF or `true` guards,
    rewarded self-loops and at least one edge out of every non-terminal state.

    Without reward_cycles, every edge on a cycle (self-loops included) has
    reward 0, and the other rewards share one sign."""
    n = draw(st.integers(2, 4))
    terminals = draw(st.sets(st.integers(0, n - 1), max_size=n - 1).filter(lambda t: 1 not in t))
    guard = st.one_of(dnf_guards().map(dnf_to_formula), st.just(TRUE))
    rewards = [0.0, -0.0, 1.0, -1.0, 0.5]
    if not reward_cycles:
        rewards = [0.0, -0.0, draw(st.sampled_from([1.0, -1.0])), draw(st.sampled_from([0.5, -0.5]))]
        rewards = [r for r in rewards if r * rewards[2] >= 0]
    reward = st.sampled_from(rewards)
    edges = []
    for u in range(n):
        if u not in terminals:
            for dst in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)):
                edges.append(RmTransition(u, dst, draw(guard), draw(reward)))
    if not reward_cycles:
        edges = [t if not reaches(edges, t.dst, t.src) else RmTransition(t.src, t.dst, t.guard, 0.0) for t in edges]
    return make_rm(VOCAB, n, edges, terminals=terminals, check=False)


def reaches(edges, start, goal):
    """Whether the RM graph of edges has a path, maybe empty, from start to goal."""
    seen, todo = {start}, [start]
    while todo:
        u = todo.pop()
        for t in edges:
            if t.src == u and t.dst not in seen:
                seen.add(t.dst)
                todo.append(t.dst)
    return goal in seen


class TestRmValueIteration:
    def test_single_edge(self):
        rm = reachability_rm(("a",), Var("a"))
        vals = rm_value_iteration(rm, gamma_rm=0.5, gamma=0.97)
        assert vals[1] == pytest.approx(0.5, abs=1e-9)
        assert vals[0] == 0.0
        assert vals.residual < 1e-9

    def test_sequence_chain(self, sequence_rm):
        vals = rm_value_iteration(sequence_rm, gamma_rm=0.5, gamma=0.97)
        assert vals[3] == pytest.approx(0.5, abs=1e-9)
        assert vals[2] == pytest.approx(0.25, abs=1e-9)
        assert vals[1] == pytest.approx(0.125, abs=1e-9)

    def test_lava_self_loop_formula(self, lava_rm):
        vals = rm_value_iteration(lava_rm, gamma_rm=0.5, gamma=0.9)
        assert vals[1] == pytest.approx(-0.5 / 0.9, abs=1e-9)

    def test_reduces_to_plain_update_without_self_loop_rewards(self, sequence_rm, logic_rm):
        for rm in (sequence_rm, logic_rm):
            assert all(r == 0.0 for r in max_self_loop_rewards(rm).values())
            vals = rm_value_iteration(rm, GAMMA_RM, GAMMA)
            # replicate the no-self-loop update directly
            v = {u: 0.0 for u in range(rm.num_states)}
            for _ in range(10_000):
                delta = 0.0
                for u in range(rm.num_states):
                    if rm.is_terminal(u):
                        continue
                    best = max(
                        GAMMA_RM * (t.reward + v[t.dst])
                        for t in rm.outgoing(u)
                        if t.dst != u
                    )
                    delta = max(delta, abs(best - v[u]))
                    v[u] = best
                if delta < 1e-12:
                    break
            for u in range(rm.num_states):
                assert vals[u] == v[u]  # bit-identical

    def test_no_outgoing_edge(self):
        rm = make_rm(("a",), 3, [RmTransition(1, 0, Var("a"), 1.0)])
        with pytest.raises(NoOutgoingEdgeError):
            rm_value_iteration(rm, 0.5, 0.9)

    def test_dead_end_self_loop_value(self):
        rm = make_rm(
            ("a",),
            3,
            [RmTransition(1, 0, Var("a"), 1.0), RmTransition(2, 2, Var("a"), -1.0)],
        )
        vals = rm_value_iteration(rm, 0.5, 0.9)
        assert vals[2] == pytest.approx(-1.0 / 0.1, abs=1e-9)

    def test_gamma_validation(self, sequence_rm):
        with pytest.raises(ValueError):
            rm_value_iteration(sequence_rm, 0.0, 0.9)
        with pytest.raises(ValueError):
            rm_value_iteration(sequence_rm, 0.5, 1.0)

    def test_probe_rejects_no_gamma_rm_that_converges(self):
        # the digest of the acyclic task files' values and residuals at these
        # gamma_rm, recorded on the solver that swept to a tolerance and probed
        # for a gamma_rm it could not reach: the exact solve keeps them bit for bit
        values = {}
        for name in ("lava.rm", "logic.rm", "safety.rm", "sequence.rm"):
            rm = load_rm(TASKS_DIR / name)
            for gamma_rm in (0.97**10, 0.5, 0.9, 0.97, 0.99, 0.999, 0.9999):
                values[(name, gamma_rm)] = rm_value_iteration(rm, gamma_rm, 0.97)
        assert all(v.residual == 0.0 for v in values.values())
        flat = sorted((k, sorted(v.values.items()), v.residual) for k, v in values.items())
        assert hashlib.sha256(repr(flat).encode()).hexdigest()[:16] == "1b2d262c4a215b1b"

    @pytest.mark.parametrize("gamma_rm", [0.97**10, 0.5, 0.9, 0.97, 0.99, 0.999])
    def test_loop_matches_its_closed_form(self, loop_rm, gamma_rm):
        vals = rm_value_iteration(loop_rm, gamma_rm, 0.97)
        closed = {0: gamma_rm, 2: gamma_rm**2, 1: gamma_rm**3}
        for u, numerator in closed.items():
            want = numerator / (1.0 - gamma_rm**3)
            assert abs(vals[u] - want) <= 1e-12 * max(1.0, abs(want))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_bellman_residual_vanishes_on_random_machines(self, data):
        # cyclic and acyclic machines, with self-loops, dead ends, terminals and
        # negative rewards; every gamma_rm in (0, 1) returns
        n = data.draw(st.integers(2, 7))
        terminals = data.draw(st.sets(st.sampled_from([u for u in range(n) if u != 1])))
        reward = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5])
        edges = []
        for u in sorted(set(range(n)) - terminals):
            for dst in data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4)):
                edges.append(RmTransition(u, dst, TRUE, data.draw(reward)))
        rm = make_rm(VOCAB, n, edges, terminals=terminals, check=False)
        pinned = st.sampled_from([0.5, 0.999, 1 - 1e-6])
        gamma_rm = data.draw(st.one_of(st.floats(1e-3, 1 - 1e-6), pinned))
        gamma = data.draw(st.floats(0.5, 0.999))
        vals = rm_value_iteration(rm, gamma_rm, gamma)
        r_self = max_self_loop_rewards(rm)
        for u in range(n):
            out = [t for t in rm.outgoing(u) if t.dst != u]
            if rm.is_terminal(u):
                assert vals[u] == 0.0
            elif not out:
                assert vals[u] == r_self[u] / (1.0 - gamma)
            else:
                stay = r_self[u] * (1.0 - gamma_rm) / gamma
                best = max(stay + gamma_rm * (t.reward + vals[t.dst]) for t in out)
                assert abs(best - vals[u]) <= 1e-12 * max(1.0, abs(vals[u]))
        assert vals.residual <= 1e-12 * max(1.0, *(abs(x) for x in vals.values.values()))

    def test_high_level_potential(self, sequence_rm):
        vals = rm_value_iteration(sequence_rm, gamma_rm=0.5, gamma=0.97)
        assert vals[1] == pytest.approx(0.125, abs=1e-9)
        assert vals[0] == 0.0


class TestFuzzyValuation:
    def test_clause_is_min(self):
        pvfs = const_pvfs(GEO, {("red", True): 0.9, ("triangle", True): 0.7})
        obs = np.zeros((6, 6, 6))
        assert clause_value(pvfs, (("red", True), ("triangle", True)), obs) == 0.7

    def test_singleton_clause(self):
        pvfs = const_pvfs(GEO, {("blue", True): 0.4})
        obs = np.zeros((6, 6, 6))
        assert clause_value(pvfs, (("blue", True),), obs) == 0.4

    def test_zero_literal_zeroes_clause(self):
        pvfs = const_pvfs(GEO, {("red", True): 0.9})
        obs = np.zeros((6, 6, 6))
        assert clause_value(pvfs, (("red", True), ("circle", True)), obs) == 0.0

    def test_formula_is_max_over_clauses(self):
        pvfs = const_pvfs(
            GEO,
            {
                ("red", True): 0.9,
                ("triangle", True): 0.7,
                ("blue", True): 0.4,
                ("triangle", False): 0.6,
            },
        )
        f = Or((And((Var("red"), Var("triangle"))), And((Var("blue"), Not(Var("triangle"))))))
        assert formula_value(pvfs, f, np.zeros((6, 6, 6))) == 0.7

    def test_true_guard_convention(self):
        pvfs = const_pvfs(GEO, {})
        obs = np.zeros((6, 6, 6))
        assert formula_value(pvfs, TRUE, obs) == 1.0

    def test_false_guard_rejected(self):
        pvfs = const_pvfs(GEO, {})
        with pytest.raises(UnsatisfiableGuardError):
            formula_value(pvfs, FALSE, np.zeros((6, 6, 6)))

    def test_literal_value_clamped(self):
        # PvfSet.value is the one place literal values are clipped to [0, 1]
        pvfs = const_pvfs(GEO, {("red", True): 1.5, ("blue", True): -0.2})
        obs = np.zeros((6, 6, 6))
        assert pvfs.value(("red", True), obs) == 1.0
        assert pvfs.value(("blue", True), obs) == 0.0
        assert clause_value(pvfs, (("red", True),), obs) == 1.0


class TestComposedValue:
    def test_degenerate_collapse(self):
        rm = reachability_rm(GEO, Var("red"))
        pvfs = const_pvfs(GEO, {("red", True): 0.8})
        cvf = make_composed_value_fn(rm, pvfs, gamma_rm=0.5)
        assert composed_value(cvf, np.zeros((6, 6, 6)), 1) == pytest.approx(0.8)

    def test_lava_substitution(self, lava_rm):
        pvfs = const_pvfs(("lava",), {("lava", False): 0.5}, gamma=0.9)
        cvf = make_composed_value_fn(lava_rm, pvfs, gamma_rm=0.5, gamma=0.9)
        assert composed_value(cvf, np.zeros((2, 2, 6)), 1) == pytest.approx(-5.0)

    def test_terminal_is_zero(self, sequence_rm, desk_pvfs, desk_cfg):
        cvf = make_composed_value_fn(sequence_rm, desk_pvfs, GAMMA_RM)
        assert composed_value(cvf, encode_obs(reset(desk_cfg)), 0) == 0.0

    def test_vocab_mismatch(self, lava_rm, desk_pvfs):
        with pytest.raises(ValueError):
            make_composed_value_fn(lava_rm, desk_pvfs, GAMMA_RM)

    def test_unsatisfiable_guard_surfaces(self):
        rm = make_rm(GEO, 2, [RmTransition(1, 0, FALSE, 1.0)])
        pvfs = const_pvfs(GEO, {})
        cvf = make_composed_value_fn(rm, pvfs, gamma_rm=0.5)
        with pytest.raises(UnsatisfiableGuardError):
            composed_value(cvf, np.zeros((6, 6, 6)), 1)

    def test_rank_orders_like_oracle_along_optimal_path(self, sequence_rm, desk_pvfs, desk_cfg):
        oracle = exact_product_values(desk_cfg, sequence_rm, GAMMA)
        cvf = make_composed_value_fn(sequence_rm, desk_pvfs, GAMMA_RM)
        # start chosen so the optimal route keeps clear of the red circle;
        # next to it the min over literals dips (nearest red and nearest
        # triangle are different objects), which is the documented
        # conjunction overestimation, not a bug
        state = cell_states(desk_cfg)[(3, 0)]
        u = sequence_rm.initial
        oracle_path, composed_path = [], []
        for _ in range(60):
            if sequence_rm.is_terminal(u):
                break
            oracle_path.append(oracle.value_at(state.agent, u))
            composed_path.append(composed_value(cvf, encode_obs(state), u))
            best = None
            for a in range(4):
                s2 = step(state, a)
                stp = rm_step(sequence_rm, u, true_label(s2))
                cont = 0.0 if stp.terminated else oracle.value_at(s2.agent, stp.next_state)
                val = GAMMA * (stp.reward + cont)
                if best is None or val > best[0]:
                    best = (val, s2, stp)
            state, u = best[1], best[2].next_state
        assert sequence_rm.is_terminal(u)
        assert np.argsort(oracle_path).tolist() == np.argsort(composed_path).tolist()
        # the potential rises monotonically toward the goal
        assert all(b > a for a, b in zip(composed_path, composed_path[1:]))


class TestShaping:
    def _two_point_cvf(self):
        o1 = np.zeros((1, 2, 6), dtype=np.uint8)
        o2 = np.ones((1, 2, 6), dtype=np.uint8)
        table = {obs_key(o1): 0.5, obs_key(o2): 0.6}
        estimators = {
            (a, pol): (
                TabularPvf(GAMMA, dict(table))
                if (a, pol) == ("red", True)
                else ConstPvf(0.0)
            )
            for a in GEO
            for pol in (True, False)
        }
        pvfs = PvfSet(GEO, GAMMA, "fqi", estimators)
        rm = reachability_rm(GEO, Var("red"))
        return make_composed_value_fn(rm, pvfs, gamma_rm=0.5), o1, o2

    def test_undiscounted_difference(self):
        cvf, o1, o2 = self._two_point_cvf()
        v, v2 = composed_value(cvf, o1, 1), composed_value(cvf, o2, 1)
        assert shaping_term(v, v2, 1.0, "undiscounted", cvf.gamma) == pytest.approx(0.1)

    def test_plateau_is_zero(self):
        cvf, o1, _ = self._two_point_cvf()
        v = composed_value(cvf, o1, 1)
        assert shaping_term(v, v, 1.0, "undiscounted", cvf.gamma) == 0.0

    def test_discounted_terminal(self):
        cvf, o1, o2 = self._two_point_cvf()
        cvf.pvfs.estimators[("red", True)].v[obs_key(o1)] = 0.9
        v, v2 = composed_value(cvf, o1, 1), composed_value(cvf, o2, 0)
        assert v2 == 0.0  # a terminal RM state has potential 0
        assert shaping_term(v, v2, 1.0, "discounted", 0.97) == pytest.approx(-0.9)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            check_shaping(-1.0, "undiscounted")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            check_shaping(1.0, "sideways")

    def test_discounted_telescoping(self, sequence_rm, desk_pvfs, desk_cfg):
        cvf = make_composed_value_fn(sequence_rm, desk_pvfs, GAMMA_RM)
        rng = np.random.default_rng(12)
        state = reset(desk_cfg, seed=5)
        u = sequence_rm.initial
        v0 = composed_value(cvf, encode_obs(state), u)
        total = 0.0
        for t in range(200):
            a = int(rng.integers(4))
            s2 = step(state, a)
            stp = rm_step(sequence_rm, u, true_label(s2))
            v = composed_value(cvf, encode_obs(state), u)
            v2 = composed_value(cvf, encode_obs(s2), stp.next_state)
            total += GAMMA**t * shaping_term(v, v2, 1.0, "discounted", cvf.gamma)
            state, u = s2, stp.next_state
            if stp.terminated:
                break
        if sequence_rm.is_terminal(u):
            assert total == pytest.approx(-v0, abs=1e-9)


class TestExactProductValues:
    def test_terminal_rows_zero(self, sequence_rm, desk_cfg):
        oracle = exact_product_values(desk_cfg, sequence_rm, GAMMA)
        for r in range(6):
            for c in range(6):
                assert oracle.value_at((r, c), 0) == 0.0

    def test_randomized_layout_rejected(self, sequence_rm):
        cfg = GridConfig(layout_mode="randomized")
        with pytest.raises(StateSpaceTooLargeError):
            exact_product_values(cfg, sequence_rm, GAMMA)

    def test_state_cap(self, sequence_rm, desk_cfg):
        with pytest.raises(StateSpaceTooLargeError):
            exact_product_values(desk_cfg, sequence_rm, GAMMA, max_states=10)

    def test_gamma_one_raises_instead_of_hanging(self, loop_rm):
        with pytest.raises(ValueError):
            exact_product_values(GridConfig(), loop_rm, 1.0)

    def test_sweep_cap_turns_to_policy_iteration(self, sequence_rm, desk_cfg, monkeypatch):
        swept = exact_product_values(desk_cfg, sequence_rm, GAMMA)
        monkeypatch.setattr(compose, "MAX_ORACLE_SWEEPS", 3)
        capped = exact_product_values(desk_cfg, sequence_rm, GAMMA)
        assert capped.residual <= compose.ORACLE_TOL
        assert np.abs(capped.values - swept.values).max() <= 1e-9

    def test_residual_converged(self, sequence_rm, desk_cfg):
        oracle = exact_product_values(desk_cfg, sequence_rm, GAMMA)
        assert oracle.residual < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(rm=small_machines(), cfg=grid_configs(layouts=("fixed",)))
    def test_values_satisfy_bellman(self, rm, cfg):
        assert_bellman(exact_product_values(cfg, rm, GAMMA), rm, lambda v: 1e-8)

    def test_loop_table_is_a_fixed_point(self, loop_rm, desk_cfg):
        # sweeps stopped at a residual of ORACLE_TOL left it 7.1e-11 (relative) away
        oracle = exact_product_values(desk_cfg, loop_rm, GAMMA)
        assert_bellman(oracle, loop_rm, lambda v: 1e-12 * max(1.0, abs(v)))

    @settings(max_examples=60, deadline=None)
    @given(rm=small_machines(reward_cycles=False), cfg=grid_configs(layouts=("fixed",)))
    def test_no_rewarding_cycle_stops_before_the_exact_evaluation(self, rm, cfg):
        oracle, evaluations = solve_counting_evaluations(cfg, rm)
        assert evaluations == 0
        assert_bellman(oracle, rm, lambda v: 1e-8)

    @settings(max_examples=60, deadline=None)
    @given(
        rm=small_machines(), cfg=grid_configs(layouts=("fixed",)), reward=st.sampled_from([1.0, -1.0, 0.5])
    )
    def test_rewarding_cycle_is_valued_exactly(self, rm, cfg, reward):
        # one more state, which loops on `true` with a reward: the sweeps alone would
        # need about 756 sweeps, and the product has at most 25 x 5 states
        n = rm.num_states
        edges = [*rm.transitions, RmTransition(n, n, TRUE, reward)]
        rm = make_rm(rm.vocab, n + 1, edges, terminals=rm.terminals, check=False)
        oracle, evaluations = solve_counting_evaluations(cfg, rm)
        assert evaluations
        assert oracle.values[n].tolist() == pytest.approx([GAMMA * reward / (1 - GAMMA)] * len(oracle.graph.cells))
        assert_bellman(oracle, rm, lambda v: 1e-12 * max(1.0, abs(v)))

    def test_rewards_of_both_signs_may_need_the_exact_evaluation(self, desk_cfg):
        # no rewarding cycle, but a short horizon sees the +1 and not the -10 after it,
        # so the sweeps shrink that +1 by gamma each and run past the 144 product states
        edges = [RmTransition(1, 2, And((Var("red"), Var("triangle"))), 0.0)]
        edges += [RmTransition(2, 3, TRUE, 1.0), RmTransition(3, 0, TRUE, -10.0)]
        rm = make_rm(GEO, 4, edges)
        oracle, evaluations = solve_counting_evaluations(desk_cfg, rm)
        assert evaluations
        assert_bellman(oracle, rm, lambda v: 1e-12 * max(1.0, abs(v)))

    def test_guard_past_the_dnf_and_truth_table_limits(self, desk_cfg):
        # 26 atoms (no exhaustive truth table) and a guard whose DNF has 2^13 clauses
        extra = [f"x{i}" for i in range(21)]
        pairs = zip([*VOCAB, *extra[:8]], extra[8:])
        guard = And(tuple(Or((Var(a), Var(b))) for a, b in pairs))
        rm = make_rm([*VOCAB, *extra], 2, [RmTransition(1, 0, guard, 1.0), RmTransition(1, 1, Var("red"), 0.5)])
        assert_bellman(exact_product_values(desk_cfg, rm, GAMMA), rm, lambda v: 1e-8)

    def test_loop_at_a_gamma_the_sweeps_could_not_reach(self, loop_rm, desk_cfg):
        oracle = exact_product_values(desk_cfg, loop_rm, 0.9999)
        assert_bellman(oracle, loop_rm, lambda v: 1e-12 * max(1.0, abs(v)))


def solve_counting_evaluations(cfg, rm):
    """exact_product_values at GAMMA, and how many times it called evaluate_policy."""
    calls = []
    real = compose.evaluate_policy
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(compose, "evaluate_policy", lambda *args: calls.append(real(*args)))
        return exact_product_values(cfg, rm, GAMMA), len(calls)


def assert_bellman(oracle, rm, within):
    """Check the oracle's table against one Bellman backup at every cell and RM state,
    stepping the RM with rm_step on true_label; within(v) bounds the gap at value v."""
    for cell, s in cell_states(oracle.graph.cfg).items():
        for u in range(rm.num_states):
            v = oracle.value_at(cell, u)
            if rm.is_terminal(u):
                assert v == 0.0 and not np.signbit(v)
                continue
            best = -np.inf
            for a in range(4):
                s2 = step(s, a)
                stp = rm_step(rm, u, true_label(s2))
                cont = 0.0 if stp.terminated else oracle.value_at(s2.agent, stp.next_state)
                best = max(best, oracle.gamma * (stp.reward + cont))
            assert abs(v - best) <= within(v), (cell, u, v, best)


class TestCompositionBounds:
    def test_disjunction_underestimates_spot(self, desk_cfg):
        # max over exact clause values never exceeds the exact disjunction value
        c1 = And((Var("red"), Var("triangle")))
        c2 = And((Var("blue"), Not(Var("triangle"))))
        phi = Or((c1, c2))
        v1 = exact_product_values(desk_cfg, reachability_rm(GEO, c1), GAMMA)
        v2 = exact_product_values(desk_cfg, reachability_rm(GEO, c2), GAMMA)
        vp = exact_product_values(desk_cfg, reachability_rm(GEO, phi), GAMMA)
        for r in range(6):
            for c in range(6):
                assert max(v1.value_at((r, c), 1), v2.value_at((r, c), 1)) <= vp.value_at(
                    (r, c), 1
                ) + 1e-12

    def test_conjunction_overestimates_spot(self, desk_cfg):
        lits = (Var("red"), Var("triangle"))
        vr = exact_product_values(desk_cfg, reachability_rm(GEO, lits[0]), GAMMA)
        vt = exact_product_values(desk_cfg, reachability_rm(GEO, lits[1]), GAMMA)
        vc = exact_product_values(desk_cfg, reachability_rm(GEO, And(lits)), GAMMA)
        for r in range(6):
            for c in range(6):
                assert min(vr.value_at((r, c), 1), vt.value_at((r, c), 1)) >= vc.value_at(
                    (r, c), 1
                ) - 1e-12


# ---------------------------------------------------------------------------
# The cell-graph paths against the per-cell references they replace


@st.composite
def tabular_pvfs(draw):
    """Tabular PVFs with values chosen to hit the clip and both signed zeros."""
    values = st.sampled_from([-0.5, -0.0, 0.0, 0.25, 0.5, 0.97, 1.0, 1.5])
    observations = [encode_obs(s) for s in cell_states(GridConfig()).values()]
    keys = [obs_key(obs) for obs in observations]
    estimators = {
        (a, pol): TabularPvf(GAMMA, {k: draw(values) for k in keys if draw(st.booleans())})
        for a in VOCAB
        for pol in (True, False)
    }
    return PvfSet(VOCAB, GAMMA, "fqi", estimators, observations[0].shape)


@st.composite
def linear_pvfs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_features = len(observation_features(encode_obs(reset(GridConfig()))))
    estimators = {
        (a, pol): LinearPvf(GAMMA, rng.normal(0.3, 0.5, size=(4, n_features)))
        for a in VOCAB
        for pol in (True, False)
    }
    return PvfSet(VOCAB, GAMMA, "fqi", estimators)


class TestCellGraphPaths:
    @settings(max_examples=100, deadline=None)
    @given(dnf_guards())
    def test_label_truth_equals_evaluate(self, guard):
        # evaluate on the formula tree, not on the DNF that delegates to clauses_hold
        tree = dnf_to_formula(guard)
        for w in all_assignments(VOCAB):
            assert clauses_hold(guard.clauses, w) == evaluate(tree, w)

    @settings(max_examples=60, deadline=None)
    @given(small_machines(), st.one_of(tabular_pvfs(), linear_pvfs()))
    def test_composed_table_equals_composed_value_bit_for_bit(self, rm, pvfs):
        cvf = make_composed_value_fn(rm, pvfs, GAMMA_RM)
        observations = [encode_obs(s) for s in CellGraph(GridConfig()).states]
        table = composed_table(cvf, observations)
        for i, obs in enumerate(observations):
            for u in range(rm.num_states):
                assert table[u, i].hex() == composed_value(cvf, obs, u).hex()

    @pytest.mark.parametrize(
        "guard, values, want",
        [
            # min(0.0, -0.0) is 0.0 and max(-0.0, 0.0) is -0.0: the first of equal values
            (And((Var("red"), Var("triangle"))), {("red", True): 0.0, ("triangle", True): -0.0}, "0x0.0p+0"),
            (Or((Var("red"), Var("triangle"))), {("red", True): -0.0, ("triangle", True): 0.0}, "-0x0.0p+0"),
        ],
    )
    def test_composed_table_keeps_the_first_of_equal_zeros(self, guard, values, want):
        # a -0 self-loop reward makes the sign of a zero guard value reach the output
        edges = [RmTransition(1, 1, Var("blue"), -0.0), RmTransition(1, 0, guard, 1.0)]
        rm = make_rm(GEO, 2, edges, check=False)
        cvf = make_composed_value_fn(rm, const_pvfs(GEO, values), GAMMA_RM)
        observations = [encode_obs(s) for s in CellGraph(GridConfig()).states]
        assert composed_value(cvf, observations[0], 1).hex() == want
        assert {x.hex() for x in composed_table(cvf, observations)[1]} == {want}

    @settings(max_examples=40, deadline=None)
    @given(dnf_guards())
    def test_composition_bounds_hold_on_random_guards(self, desk_cfg, guard):
        checks = composition_bounds(desk_cfg, VOCAB, [guard], GAMMA)
        assert all(check.ok for check in checks), checks


class TestLabelBits:
    @settings(max_examples=60, deadline=None)
    @given(cfg=grid_configs(layouts=("fixed",)), guards=st.lists(dnf_guards(), min_size=1, max_size=5))
    def test_keys_partition_clause_sets_as_clauses_hold_does(self, cfg, guards):
        labels = CellGraph(cfg).distinct_labels
        bits = label_bits(labels)
        sets = needed_clause_sets(guards) + [g.clauses for g in guards]
        by_bits, by_holds = {}, {}
        for k, clauses in enumerate(sets):
            key = bits(clauses)
            holds = tuple(clauses_hold(clauses, label) for label in labels)
            assert [bool(key >> j & 1) for j in range(len(labels))] == list(holds)
            assert key >> len(labels) == 0
            by_bits.setdefault(key, set()).add(k)
            by_holds.setdefault(holds, set()).add(k)
        assert sorted(map(sorted, by_bits.values())) == sorted(map(sorted, by_holds.values()))


def needed_clause_sets(guards):
    """The clause sets composition_bounds compares, by the rules in its docstring."""
    needed = []
    for guard in guards:
        if len(guard.clauses) >= 2:
            needed += [guard.clauses] + [(c,) for c in guard.clauses]
        for clause in guard.clauses:
            if len(clause) >= 2:
                needed += [(clause,)] + [((lit,),) for lit in clause]
    return needed


def capture_solves(monkeypatch):
    """Record (rm, table) for every exact_product_values call made through the module."""
    solves = []
    real = compose.exact_product_values

    def wrapped(*args, **kwargs):
        table = real(*args, **kwargs)
        solves.append((args[1], table))
        return table

    monkeypatch.setattr(compose, "exact_product_values", wrapped)
    return solves


class TestBoundSolves:
    @settings(max_examples=60, deadline=None)
    @given(
        cfg=grid_configs(layouts=("fixed",)),
        guards=st.lists(dnf_guards(), min_size=1, max_size=4),
        gamma=st.sampled_from([0.5, 0.9, GAMMA]),
    )
    def test_one_stacked_solve_equals_the_per_table_solves(self, cfg, guards, gamma):
        graph = CellGraph(cfg)
        needed = needed_clause_sets(guards)
        with pytest.MonkeyPatch.context() as mp:
            solves = capture_solves(mp)
            composition_bounds(graph, VOCAB, guards, gamma)
        assert len(solves) == (1 if needed else 0)

        def holds(clauses):
            return tuple(clauses_hold(clauses, label) for label in graph.distinct_labels)

        formulas = {dnf_to_formula(DnfFormula(c)): c for c in needed}
        for rm, table in solves:
            row_sets = []
            for k, edge in enumerate(rm.transitions, start=1):
                assert (edge.src, edge.dst, edge.reward) == (k, 0, 1.0)
                clauses = formulas[edge.guard]
                want = exact_product_values(
                    graph, reachability_rm(VOCAB, dnf_to_formula(DnfFormula(clauses))), gamma
                ).values[1]
                assert table.values[k].tobytes() == want.tobytes()
                row_sets.append(holds(clauses))
            # one row per distinct set of labels a needed clause set holds on
            assert sorted(row_sets) == sorted({holds(c) for c in needed})

    def test_sets_split_into_as_few_solves_as_fit_the_cap(self, desk_cfg, monkeypatch):
        # 6 x 6 cells and a cap of 4 RM states: 3 clause sets a solve
        guards = [DnfFormula(((("red", True),), (("blue", True),), (("green", True),)))]
        want = composition_bounds(desk_cfg, VOCAB, guards, GAMMA)
        monkeypatch.setattr(compose, "MAX_PRODUCT_STATES", 36 * 4)
        solves = capture_solves(monkeypatch)
        assert composition_bounds(desk_cfg, VOCAB, guards, GAMMA) == want
        assert [rm.num_states for rm, _ in solves] == [4, 2]

    def test_a_cap_that_fits_one_set_solves_each_alone(self, desk_cfg, monkeypatch):
        # the per-table solves each needed 2 x 36 product states
        guards = [DnfFormula(((("red", True), ("circle", True)),))]
        monkeypatch.setattr(compose, "MAX_PRODUCT_STATES", 36 * 2)
        solves = capture_solves(monkeypatch)
        assert all(check.ok for check in composition_bounds(desk_cfg, VOCAB, guards, GAMMA))
        assert [rm.num_states for rm, _ in solves] == [2, 2, 2]

    def test_oracle_on_logic_rm_solves_twice(self, monkeypatch, capsys):
        # the task RM once, then every bound table of its guards in one solve
        solves = capture_solves(monkeypatch)
        assert cli.main(["oracle", "--rm", str(TASKS_DIR / "logic.rm")]) == 0
        assert len(solves) == 2
        assert capsys.readouterr().out.rstrip().endswith("bounds PASS")
