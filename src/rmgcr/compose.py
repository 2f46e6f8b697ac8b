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
bounds) read a fixed layout through its `geogrid.Layout`: the successors
and the distinct true labels of its cells, computed once and then only
read. `composed_table` values many observations, such as a layout's
`obs`, at once.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import geogrid
from .geogrid import GridConfig, Layout, StateSpaceTooLargeError
from .errors import InputError, OutOfRangeError, check_open_unit
from .ground import PvfSet
from .logic import Clause, DnfFormula, FalseConst, TrueConst, to_dnf
from .logic import assignment_columns, truth_bits
from .rm import RewardMachine, RmTransition

# exact oracle: sweeps stop at a residual of ORACLE_TOL, about 23 / (1 - gamma) sweeps on a rewarding
# cycle; past min(product states, MAX_ORACLE_SWEEPS) sweeps, policy iteration values it exactly
ORACLE_TOL = 1e-10
MAX_ORACLE_SWEEPS = 100_000
# default cap on the product states (cells x RM states) of one exact solve
MAX_PRODUCT_STATES = 2_000_000
# slack on both composition bounds, for floating-point noise in the oracle
BOUND_TOL = 1e-9


class NoOutgoingEdgeError(InputError):
    def __init__(self, state: int):
        super().__init__(f"non-terminal RM state {state} has no outgoing transitions")
        self.state = state


class UnsatisfiableGuardError(InputError):
    pass


class ConfigMismatchError(InputError):
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
    """The composed value of rm from pvfs. Its fields are read as fixed once it is made, and it alone
    derives from them: the guards' literals and their seen keys, and, through table, the composed_table
    rows and unseen flags of each batch of observations it is asked for. Each guard's DNF is rm.dnf."""

    rm: RewardMachine
    pvfs: PvfSet
    rm_values: RmStateValues
    gamma: float
    _r_self: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _lits: list = field(default_factory=list, init=False, repr=False, compare=False)  # sorted
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if tuple(self.rm.vocab) != tuple(self.pvfs.vocab):
            raise ConfigMismatchError("RM and PVF vocabularies differ")
        self._r_self = max_self_loop_rewards(self.rm)
        dnfs = [self.rm.dnf(t) for t in self.rm.transitions if t.src != t.dst]
        dnfs = [dnf for dnf in dnfs if isinstance(dnf, DnfFormula)]
        self._lits = sorted({lit for dnf in dnfs for clause in dnf.clauses for lit in clause})

    @functools.cached_property
    def seen(self) -> Optional[set]:
        """pvfs.seen of the guards' literals, taken on first use."""
        return self.pvfs.seen(self._lits)

    def table(self, obs: np.ndarray) -> tuple[list, list]:
        """(rows, flags): composed_table(self, obs) as lists [u][observation], and pvfs.unseen of obs on
        the guards' literals. Callers only read them. They are kept by obs's shape and a blake2b digest
        of its bytes, so a layout is valued once per value function; a false guard keeps nothing."""
        key = (obs.shape, hashlib.blake2b(np.ascontiguousarray(obs)).digest())
        kept = self._tables.get(key)
        if kept is None:
            kept = self._tables[key] = composed_table(self, obs).tolist(), self.pvfs.unseen(obs, self._lits)
        return kept


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
    return float(max(_option_value(cvf, r_self, formula_value(cvf.pvfs, rm.dnf(t), obs), t) for t in edges))


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
    ComposedValueFn.table keeps its rows.
    """
    rm = cvf.rm
    lit_rows = dict(zip(cvf._lits, cvf.pvfs.values(cvf._lits, observations)))

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
        options = [_option_value(cvf, r_self, guard_value(rm.dnf(t)), t) for t in edges]
        table[u] = _first_best(np.greater, options)
    return table


def check_shaping(lam: float, mode: str) -> None:
    """Reject a negative shaping weight or an unknown shaping mode."""
    if not lam >= 0:
        raise OutOfRangeError(f"lam must be non-negative, not {lam!r}")
    if mode not in ("discounted", "undiscounted"):
        raise InputError(f"unknown shaping mode {mode!r}")


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
# The transition arrays are gathered from the fixed Layout: the RM
# step into a cell depends only on the RM state and that cell's label, so
# each guard's truth is taken once on all distinct labels together, as the
# bits of one logic.truth_bits int, and solve_product maps those steps
# through next_cell onto every (cell, action). The bound checks hand it
# their label bits straight, with no reward machine.


@dataclass
class ProductValueTable:
    values: np.ndarray  # [u, cell] -> value, cells in row-major order
    layout: Layout
    gamma: float
    residual: float

    def value_at(self, cell, u: int) -> float:
        """The value at (row, col) cell and RM state u; KeyError for a cell off the grid."""
        r, c = cell
        if not (0 <= r < self.layout.height and 0 <= c < self.layout.width):
            raise KeyError(f"cell {tuple(cell)} is off the {self.layout.height} x {self.layout.width} grid")
        return float(self.values[u, r * self.layout.width + c])


def exact_product_values(
    cfg: GridConfig,
    rm: RewardMachine,
    gamma: float,
    max_states: int = MAX_PRODUCT_STATES,
) -> ProductValueTable:
    """Exact optimal values of the product MDP under the ground-truth labelling.

    Fixed layouts only (the reachable state space must be enumerable as
    agent cell x RM state); the table keeps cfg's Layout for later checks
    on the same layout. Terminal RM states step to themselves with reward
    0, so they are worth +0.0.
    """
    check_open_unit("gamma", gamma)
    n = cfg.width * cfg.height * rm.num_states
    if n > max_states:
        raise StateSpaceTooLargeError(f"{n} product states exceeds cap {max_states}")
    layout = Layout.fixed(cfg)
    n_labels = len(layout.distinct_labels)
    columns, full = assignment_columns(layout.distinct_labels), (1 << n_labels) - 1
    # the RM step on each distinct label: the first edge that fires, as in rm_step, else
    # the implicit self-loop; a terminal state has no edges, so it stays with reward 0
    dst, reward = np.indices((rm.num_states, n_labels))[0], np.zeros((rm.num_states, n_labels))
    for u in range(rm.num_states):
        for t in reversed(rm.outgoing(u)):
            bits = truth_bits(t.guard, columns, full)
            fires = [j for j in range(n_labels) if bits >> j & 1]
            dst[u, fires], reward[u, fires] = t.dst, t.reward
    values, residual = solve_product(layout, dst, reward, gamma)
    return ProductValueTable(values, layout, gamma, residual)


def solve_product(layout: Layout, dst: np.ndarray, reward: np.ndarray, gamma: float) -> tuple:
    """Exact optimal values [u, cell], and the final residual, of a product MDP on a fixed layout.

    Entering a cell of label layout.distinct_labels[j] from RM state u steps
    the RM to dst[u, j] with reward reward[u, j]. Value iteration sweeps
    from 0 to a residual of ORACLE_TOL, within as many sweeps as product
    states if no cycle is rewarded and rewards share a sign. Past that many,
    or MAX_ORACLE_SWEEPS, evaluate_policy values each sweep's greedy policy
    exactly: policy iteration, to the tolerance or a repeat.
    """
    n_cells = len(layout.labels)
    n_total = dst.shape[0] * n_cells  # flat index: u * n_cells + cell
    moves = layout.next_cell.T  # [action, cell] -> cell

    def action_major(per_cell):  # [u, cell entered] -> [action, flat product state]
        return per_cell[:, moves].transpose(1, 0, 2).reshape(geogrid.N_ACTIONS, n_total)

    # action-major, so the max over actions is a max of contiguous rows
    nxt = action_major(dst[:, layout.label_ids] * n_cells + np.arange(n_cells))
    rew = action_major(reward[:, layout.label_ids])
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
    return v.reshape(dst.shape[0], n_cells), residual


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


def _reachability_tables(layout: Layout, keys: list, gamma: float) -> list:
    """Exact value of reaching each set of labels, at every cell, in as few solves as fit MAX_PRODUCT_STATES.

    keys[k] has bit j where a clause set holds on layout.distinct_labels[j] (see
    label_bits). One solve values a batch: its state k + 1 steps to the terminal
    state 0 with reward 1 on those labels, so its row k + 1 is row 1 of
    exact_product_values on reachability_rm of that set. The rows do not
    interact, and sweep s changes a row only at the cells s steps from where
    its set holds, each from 0 to the same gamma ** s. So each row alone
    would stop at the first sweep where gamma ** s <= ORACLE_TOL or it no
    longer changes, the batch stops no sooner, and in between the row does
    not change: the rows equal the separate solves bit for bit.
    """
    per_solve = max(1, MAX_PRODUCT_STATES // len(layout.labels) - 1)
    labels = range(len(layout.distinct_labels))
    tables = []
    for start in range(0, len(keys), per_solve):
        batch = [0, *keys[start : start + per_solve]]  # the terminal state 0 holds nowhere
        holds = np.array([[key >> j & 1 for j in labels] for key in batch], dtype=bool)
        dst = np.where(holds, 0, np.arange(len(batch))[:, None])
        tables.extend(solve_product(layout, dst, holds.astype(float), gamma)[0][1:])
    return tables


def label_bits(labels: Sequence[frozenset]) -> Callable[[tuple], int]:
    """The truth of a clause set on each label, as a function of the clause set.

    It returns an int whose bit j says whether the set holds on labels[j],
    as clauses_hold does, by logic.truth_bits on the labels' atom columns.
    """
    columns, full = assignment_columns(labels), (1 << len(labels)) - 1
    return lambda clauses: truth_bits(DnfFormula(clauses), columns, full)


def composition_bounds(layout: GridConfig | Layout, guards: Iterable, gamma: float) -> list[BoundCheck]:
    """Check the composition bounds on each guard, in order, up to BOUND_TOL.

    A guard (Formula or DnfFormula) of two or more clauses gets a
    disjunction check, then each clause of two or more literals a
    conjunction check; constant guards are skipped. The exact reachability
    values of a clause set depend only on the cells where it holds, and so
    on the cell labels it holds on: each distinct set of such labels is
    valued once, and all of them together (see _reachability_tables).
    """
    layout = layout if isinstance(layout, Layout) else Layout.fixed(layout)
    bits = label_bits(layout.distinct_labels)
    planned = []  # (kind, guard, label bits of the clause set checked, those of the sets bounding it)
    for guard in guards:
        dnf = guard if isinstance(guard, DnfFormula) else to_dnf(guard)
        if isinstance(dnf, (TrueConst, FalseConst)):
            continue
        if len(dnf.clauses) >= 2:
            parts = [bits((c,)) for c in dnf.clauses]
            planned.append(("disjunction underestimation", dnf, bits(dnf.clauses), parts))
        for clause in dnf.clauses:
            if len(clause) >= 2:
                parts = [bits(((lit,),)) for lit in clause]
                planned.append(("conjunction overestimation", DnfFormula((clause,)), bits((clause,)), parts))

    keys = list(dict.fromkeys(k for *_, whole, parts in planned for k in (*parts, whole)))
    exact = dict(zip(keys, _reachability_tables(layout, keys, gamma)))
    checks = []
    for kind, dnf, whole, parts in planned:
        if kind == "disjunction underestimation":
            ok = np.maximum.reduce([exact[p] for p in parts]) <= exact[whole] + BOUND_TOL
        else:
            ok = exact[whole] <= np.minimum.reduce([exact[p] for p in parts]) + BOUND_TOL
        checks.append(BoundCheck(kind, dnf, bool(ok.all())))
    return checks
