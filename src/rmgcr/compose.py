"""Compositional value machinery for reward-machine tasks.

Approximates the optimal value of any RM task from the 2|vocab| primitive
value functions: guards are normalized to DNF and valued with fuzzy
max/min over literal values, each outgoing RM edge is scored as an option
(with accumulation of the best self-loop reward while the option runs),
and an exact RM-graph solve, independent of the MDP state, supplies the
bootstrap for the next RM state.

The DNF of a formula is not unique and logically equivalent DNFs can
yield different composed values; this module values whatever DNF the
normalizer produces.

The brute-force checks (the exact product-MDP oracle and the composition
bounds) read a fixed layout through a `geogrid.CellGraph`: its cells,
their successors and their true labels, computed once and then only read.
`composed_table` values many observations, such as a layout's, at once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import geogrid
from .geogrid import CellGraph, GridConfig, StateSpaceTooLargeError
from .ground import OutOfRangeError, PvfSet, check_open_unit
from .logic import Clause, DnfFormula, FalseConst, TrueConst, dnf_to_formula, to_dnf
from .logic import assignment_columns, truth_bits
from .rm import RewardMachine, RmTransition, make_rm

# exact oracle: sweeps stop at a residual of ORACLE_TOL, about 23 / (1 - gamma) sweeps on a rewarding
# cycle; past min(product states, MAX_ORACLE_SWEEPS) sweeps, policy iteration values it exactly
ORACLE_TOL = 1e-10
MAX_ORACLE_SWEEPS = 100_000
# default cap on the product states (cells x RM states) of one exact solve
MAX_PRODUCT_STATES = 2_000_000
# slack on both composition bounds, for floating-point noise in the oracle
BOUND_TOL = 1e-9


class NoOutgoingEdgeError(ValueError):
    def __init__(self, state: int):
        super().__init__(f"non-terminal RM state {state} has no outgoing transitions")
        self.state = state


class UnsatisfiableGuardError(ValueError):
    pass


class ConfigMismatchError(ValueError):
    """Models, a task and settings that do not fit together, such as two vocabularies."""


# ---------------------------------------------------------------------------
# Exact RM-graph solve, independent of the MDP state


@dataclass(frozen=True)
class RmStateValues:
    values: dict  # RM state -> value
    gamma_rm: float
    gamma: float
    residual: float

    def __getitem__(self, u: int) -> float:
        return self.values[u]


def max_self_loop_rewards(rm: RewardMachine) -> dict[int, float]:
    """Largest explicit self-loop reward per state; 0 for the implicit self-loop."""
    out = {}
    for u in range(rm.num_states):
        loops = [t.reward for t in rm.outgoing(u) if t.dst == u]
        out[u] = max(loops) if loops else 0.0
    return out


def _non_self_edges(rm: RewardMachine, u: int) -> tuple[RmTransition, ...]:
    return tuple(t for t in rm.outgoing(u) if t.dst != u)


def evaluate_policy(
    states: Iterable[int], succ, backup: Callable[[int], float], v, known: set, discount: float
) -> None:
    """Exact values, written into v, of the policy that moves from w to succ[w], walked from states.

    backup(w) is its affine backup a_w + discount * v[succ[w]]. A walk
    follows succ to a known state or round a cycle of k states, valued
    sum_i discount**i * a_i / (1 - discount**k); the states before are
    backed up from there. Walked states become known.
    """
    for u in states:
        path: dict = {}  # state -> its position on the walk
        while u not in known and u not in path:
            path[u] = len(path)
            u = succ[u]
        walk = list(path)
        if u in path:  # the walk came back to u round a cycle of k states
            k = len(walk) - path[u]
            v[u] = 0.0  # one round of backups from 0 leaves the closed form's sum at u
            for w in reversed(walk[-k:]):
                v[w] = backup(w)
            v[u] /= 1.0 - discount**k
        for w in reversed(walk):
            if w != u:
                v[w] = backup(w)
        known.update(walk)


def rm_value_iteration(rm: RewardMachine, gamma_rm: float, gamma: float) -> RmStateValues:
    """Exact fixed point of v(u) = max over non-self edges of
    r_self(u)*(1-gamma_rm)/gamma + gamma_rm*(r + v(u')), by policy iteration.

    Terminals are pinned at 0. A non-terminal state whose only explicit
    edges are self-loops is a dead end valued r_self(u)/(1-gamma); a
    non-terminal state with no explicit edges at all is an error. Each
    policy is valued by evaluate_policy. The residual is the final Bellman
    residual.
    """
    check_open_unit("gamma_rm", gamma_rm)
    check_open_unit("gamma", gamma)
    r_self = max_self_loop_rewards(rm)
    v = {u: 0.0 for u in range(rm.num_states)}
    edges = {u: _non_self_edges(rm, u) for u in v if not rm.is_terminal(u)}
    for u, out in edges.items():
        if not rm.outgoing(u):
            raise NoOutgoingEdgeError(u)
        if not out:
            v[u] = r_self[u] / (1.0 - gamma)
    solved = [u for u in edges if edges[u]]

    def backup(u: int, t: RmTransition) -> float:
        return r_self[u] * (1.0 - gamma_rm) / gamma + gamma_rm * (t.reward + v[t.dst])

    # an edge changes only for a strict gain, so no policy recurs in exact arithmetic;
    # one that does is rounding, and as policies are finite, stopping there always ends
    policy = {u: edges[u][0] for u in solved}
    seen = set()
    while (key := tuple(policy.values())) not in seen:
        seen.add(key)
        succ = {u: t.dst for u, t in policy.items()}
        known = set(v).difference(solved)  # terminals and dead ends
        evaluate_policy(solved, succ, lambda w: backup(w, policy[w]), v, known, gamma_rm)
        residual = 0.0
        for u in solved:
            options = [backup(u, t) for t in edges[u]]
            best = max(options)
            residual = max(residual, abs(best - v[u]))
            if best > backup(u, policy[u]):
                policy[u] = edges[u][options.index(best)]
    return RmStateValues(v, gamma_rm, gamma, residual)


# ---------------------------------------------------------------------------
# Fuzzy DNF valuation from PVFs


def clause_value(pvfs: PvfSet, clause: Clause, obs: np.ndarray) -> float:
    """Conjunction valued as the min over its literals."""
    return min(pvfs.value(lit, obs) for lit in clause)


def formula_value(pvfs: PvfSet, f, obs: np.ndarray) -> float:
    """Disjunction-of-clauses valued as max over clause values.

    Accepts a Formula (normalized here) or a pre-normalized DnfFormula.
    A `true` guard fires on the next step with certainty and is valued 1.
    A `false` guard is an error.
    """
    if isinstance(f, TrueConst):
        return 1.0
    if isinstance(f, FalseConst):
        raise UnsatisfiableGuardError("guard is unsatisfiable")
    if not isinstance(f, DnfFormula):
        return formula_value(pvfs, to_dnf(f), obs)
    return max(clause_value(pvfs, c, obs) for c in f.clauses)


# ---------------------------------------------------------------------------
# Composed value function over (MDP state, RM state)


@dataclass
class ComposedValueFn:
    rm: RewardMachine
    pvfs: PvfSet
    rm_values: RmStateValues
    gamma: float
    _edge_dnfs: dict = field(default_factory=dict, repr=False)
    _r_self: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if tuple(self.rm.vocab) != tuple(self.pvfs.vocab):
            raise ConfigMismatchError("RM and PVF vocabularies differ")
        self._r_self = max_self_loop_rewards(self.rm)
        for u in range(self.rm.num_states):
            for t in _non_self_edges(self.rm, u):
                self._edge_dnfs[t] = to_dnf(t.guard)


def make_composed_value_fn(
    rm: RewardMachine,
    pvfs: PvfSet,
    gamma_rm: float,
    gamma: Optional[float] = None,
) -> ComposedValueFn:
    gamma = pvfs.gamma if gamma is None else gamma
    rmvals = rm_value_iteration(rm, gamma_rm, gamma)
    return ComposedValueFn(rm, pvfs, rmvals, gamma)


def composed_value(cvf: ComposedValueFn, obs: np.ndarray, u: int) -> float:
    """Best option value over the outgoing edges of u:
    r_self*(1-V_guard)/(1-gamma) + V_guard*(r + gamma*v(u')).

    Terminal u is worth 0; ties break to the lowest edge index.
    """
    rm = cvf.rm
    if rm.is_terminal(u):
        return 0.0
    edges = _non_self_edges(rm, u)
    r_self = cvf._r_self[u]
    if not edges:
        if not rm.outgoing(u):
            raise NoOutgoingEdgeError(u)
        return r_self / (1.0 - cvf.gamma)
    dnfs = cvf._edge_dnfs
    return float(max(_option_value(cvf, r_self, formula_value(cvf.pvfs, dnfs[t], obs), t) for t in edges))


def _option_value(cvf: ComposedValueFn, r_self: float, fv, t: RmTransition):
    """Edge t taken as an option whose guard is valued fv (a float, or an array of them)."""
    return r_self * (1.0 - fv) / (1.0 - cvf.gamma) + fv * (
        t.reward + cvf.gamma * cvf.rm_values.values[t.dst]
    )


def _first_best(better, rows: list):
    """Elementwise best of rows, keeping the earliest of equal values as Python's min and max do.

    better is np.less for a min, np.greater for a max. Equal values
    include 0.0 and -0.0, so the sign of a zero matches the scalar path.
    """
    out = rows[0]
    for row in rows[1:]:
        out = np.where(better(row, out), row, out)
    return out


def composed_table(cvf: ComposedValueFn, observations: Sequence[np.ndarray]) -> np.ndarray:
    """composed_value at every (RM state, observation), as an array indexed [u, observation].

    Bit for bit equal to composed_value, signed zeros included: each
    literal is valued once per observation, in one PvfSet.values call, then
    the min over each clause, the max over clauses and the best edge make
    the same comparisons, in the same order, on whole rows of observations.
    """
    rm = cvf.rm
    dnfs = [dnf for dnf in cvf._edge_dnfs.values() if isinstance(dnf, DnfFormula)]
    lits = sorted({lit for dnf in dnfs for clause in dnf.clauses for lit in clause})
    lit_rows = dict(zip(lits, cvf.pvfs.values(lits, observations)))

    def guard_value(dnf):
        if isinstance(dnf, TrueConst):
            return 1.0
        if isinstance(dnf, FalseConst):
            raise UnsatisfiableGuardError("guard is unsatisfiable")
        clauses = [_first_best(np.less, [lit_rows[lit] for lit in c]) for c in dnf.clauses]
        return _first_best(np.greater, clauses)

    table = np.zeros((rm.num_states, len(observations)))
    for u in range(rm.num_states):
        if rm.is_terminal(u):
            continue
        edges = _non_self_edges(rm, u)
        r_self = cvf._r_self[u]
        if not edges:
            if not rm.outgoing(u):
                raise NoOutgoingEdgeError(u)
            table[u] = r_self / (1.0 - cvf.gamma)
            continue
        options = [_option_value(cvf, r_self, guard_value(cvf._edge_dnfs[t]), t) for t in edges]
        table[u] = _first_best(np.greater, options)
    return table


def check_shaping(lam: float, mode: str) -> None:
    """Reject a negative shaping weight or an unknown shaping mode."""
    if not lam >= 0:
        raise OutOfRangeError(f"lam must be non-negative, not {lam!r}")
    if mode not in ("discounted", "undiscounted"):
        raise ValueError(f"unknown shaping mode {mode!r}")


def shaping_term(v: float, v2: float, lam: float, mode: str, gamma: float) -> float:
    """Potential-based shaping from potential v to v2 (Ng, Harada & Russell, 1999).

    discounted: lam*(gamma*v2 - v); undiscounted: lam*(v2 - v). Arguments
    are assumed to have passed check_shaping.
    """
    if mode == "discounted":
        return lam * (gamma * v2 - v)
    return lam * (v2 - v)


# ---------------------------------------------------------------------------
# Brute-force oracle: exact values of the product MDP
#
# The transition arrays are gathered from the layout's CellGraph: the RM
# step into a cell depends only on the RM state and that cell's label, so
# each guard's truth is taken once on all distinct labels together, as the
# bits of one logic.truth_bits int, and next_cell maps those steps onto
# every (cell, action).


@dataclass
class ProductValueTable:
    values: np.ndarray  # [u, cell] -> value, cells in graph order
    graph: CellGraph
    gamma: float
    residual: float

    def value_at(self, cell, u: int) -> float:
        return float(self.values[u, self.graph.index[tuple(cell)]])


def _cell_graph(layout: GridConfig | CellGraph) -> CellGraph:
    return layout if isinstance(layout, CellGraph) else CellGraph(layout)


def exact_product_values(
    layout: GridConfig | CellGraph,
    rm: RewardMachine,
    gamma: float,
    max_states: int = MAX_PRODUCT_STATES,
) -> ProductValueTable:
    """Exact optimal values of the product MDP under the ground-truth labelling.

    Fixed layouts only (the reachable state space must be enumerable as
    agent cell x RM state), given as a GridConfig or as its CellGraph; the
    table keeps the graph for later checks on the same layout. Terminal RM
    states step to themselves with reward 0, so they are worth +0.0.

    Value iteration sweeps from 0 to a residual of ORACLE_TOL, within as many
    sweeps as product states if no cycle is rewarded and rewards share a sign.
    Past that many, or MAX_ORACLE_SWEEPS, evaluate_policy values each sweep's
    greedy policy exactly: policy iteration, to the tolerance or a repeat.
    """
    check_open_unit("gamma", gamma)
    cfg = layout.cfg if isinstance(layout, CellGraph) else layout
    n = cfg.width * cfg.height * rm.num_states
    if n > max_states:
        raise StateSpaceTooLargeError(f"{n} product states exceeds cap {max_states}")
    graph = _cell_graph(layout)
    n_cells = len(graph.cells)
    n_labels = len(graph.distinct_labels)
    columns, full = assignment_columns(graph.distinct_labels), (1 << n_labels) - 1
    arrive = np.arange(n_cells)

    n_total = rm.num_states * n_cells  # flat index: u * n_cells + cell
    # action-major, so the max over actions is a max of contiguous rows
    nxt = np.zeros((len(geogrid.ACTIONS), n_total), dtype=np.int64)
    rew = np.zeros((len(geogrid.ACTIONS), n_total))
    moves = graph.next_cell.T  # [action, cell] -> cell
    for u in range(rm.num_states):
        # the RM step on each distinct label: the first edge that fires, as in rm_step, else
        # the implicit self-loop; a terminal state has no edges, so it stays with reward 0
        u2, reward = np.full(n_labels, u), np.zeros(n_labels)
        for t in reversed(rm.outgoing(u)):
            bits = truth_bits(t.guard, columns, full)
            fires = [j for j in range(n_labels) if bits >> j & 1]
            u2[fires], reward[fires] = t.dst, t.reward
        block = slice(u * n_cells, (u + 1) * n_cells)
        nxt[:, block] = (u2[graph.label_ids] * n_cells + arrive)[moves]
        rew[:, block] = reward[graph.label_ids][moves]

    v = np.zeros(n_total)
    policies = set()
    for sweep in itertools.count(1):
        q = gamma * (rew + v[nxt])
        v_new = q.max(axis=0)
        residual = float(np.abs(v_new - v).max())
        v = v_new
        if residual <= ORACLE_TOL:
            break
        if sweep >= min(n_total, MAX_ORACLE_SWEEPS):
            policy = q.argmax(axis=0)
            if (key := policy.tobytes()) in policies:
                break
            policies.add(key)
            succ, gain, values = np.choose(policy, nxt).tolist(), np.choose(policy, rew).tolist(), v.tolist()
            evaluate_policy(
                range(n_total), succ, lambda w: gamma * (gain[w] + values[succ[w]]), values, set(), gamma
            )
            v = np.array(values)
    return ProductValueTable(v.reshape(rm.num_states, n_cells), graph, gamma, residual)


# ---------------------------------------------------------------------------
# Composition bounds, checked against the oracle


@dataclass(frozen=True)
class BoundCheck:
    """One composition bound on a guard, checked against exact values at every cell.

    "disjunction underestimation": max over the clauses never exceeds the
    guard. "conjunction overestimation": min over the literals of the
    one-clause guard never falls below it.
    """

    kind: str
    guard: DnfFormula
    ok: bool


def _reachability_tables(graph: CellGraph, vocab: Sequence[str], clause_sets: list, gamma: float) -> list:
    """Exact value of reaching each clause set, at every cell, in as few solves as fit MAX_PRODUCT_STATES.

    One machine values a batch: its state k + 1 moves to the terminal state
    0 with reward 1 when clause set k holds, so its row k + 1 is row 1 of
    exact_product_values on reachability_rm of that set. The rows do not
    interact, and sweep s changes a row only at the cells s steps from where
    its set holds, each from 0 to the same gamma ** s. So each row alone
    would stop at the first sweep where gamma ** s <= ORACLE_TOL or it no
    longer changes, the batch stops no sooner, and in between the row does
    not change: the rows equal the separate solves bit for bit.
    """
    per_solve = max(1, MAX_PRODUCT_STATES // (graph.cfg.width * graph.cfg.height) - 1)
    tables = []
    for start in range(0, len(clause_sets), per_solve):
        batch = clause_sets[start : start + per_solve]
        edges = [RmTransition(k + 1, 0, dnf_to_formula(DnfFormula(c)), 1.0) for k, c in enumerate(batch)]
        tables.extend(exact_product_values(graph, make_rm(vocab, len(batch) + 1, edges), gamma).values[1:])
    return tables


def label_bits(labels: Sequence[frozenset]) -> Callable[[tuple], int]:
    """The truth of a clause set on each label, as a function of the clause set.

    It returns an int whose bit j says whether the set holds on labels[j],
    as clauses_hold does, by logic.truth_bits on the labels' atom columns.
    """
    columns, full = assignment_columns(labels), (1 << len(labels)) - 1
    return lambda clauses: truth_bits(DnfFormula(clauses), columns, full)


def composition_bounds(
    layout: GridConfig | CellGraph, vocab: Sequence[str], guards: Iterable, gamma: float
) -> list[BoundCheck]:
    """Check the composition bounds on each guard, in order, up to BOUND_TOL.

    A guard (Formula or DnfFormula) of two or more clauses gets a
    disjunction check, then each clause of two or more literals a
    conjunction check; constant guards are skipped. The exact reachability
    values of a clause set depend only on the cells where it holds, and so
    on the cell labels it holds on: each distinct set of such labels is
    valued once, and all of them together (see _reachability_tables).
    """
    graph = _cell_graph(layout)
    bits = label_bits(graph.distinct_labels)
    clause_sets: dict = {}  # label bits of a clause set -> the first clause set seen with them

    def key(clauses: tuple) -> int:
        holds = bits(clauses)
        clause_sets.setdefault(holds, clauses)
        return holds

    planned = []  # (kind, guard, key of the clause set checked, keys of those it is bounded by)
    for guard in guards:
        dnf = guard if isinstance(guard, DnfFormula) else to_dnf(guard)
        if isinstance(dnf, (TrueConst, FalseConst)):
            continue
        if len(dnf.clauses) >= 2:
            parts = [key((c,)) for c in dnf.clauses]
            planned.append(("disjunction underestimation", dnf, key(dnf.clauses), parts))
        for clause in dnf.clauses:
            if len(clause) >= 2:
                parts = [key(((lit,),)) for lit in clause]
                planned.append(("conjunction overestimation", DnfFormula((clause,)), key((clause,)), parts))

    exact = dict(zip(clause_sets, _reachability_tables(graph, vocab, list(clause_sets.values()), gamma)))
    checks = []
    for kind, dnf, whole, parts in planned:
        if kind == "disjunction underestimation":
            ok = np.maximum.reduce([exact[p] for p in parts]) <= exact[whole] + BOUND_TOL
        else:
            ok = exact[whole] <= np.minimum.reduce([exact[p] for p in parts]) + BOUND_TOL
        checks.append(BoundCheck(kind, dnf, bool(ok.all())))
    return checks
