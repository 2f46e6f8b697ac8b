"""Compositional value machinery for reward-machine tasks.

Approximates the optimal value of any RM task from the 2|vocab| primitive
value functions: guards are normalized to DNF and valued with fuzzy
max/min over literal values, each outgoing RM edge is scored as an option
(with accumulation of the best self-loop reward while the option runs),
and a state-independent value iteration over the RM graph supplies the
bootstrap for the next RM state.

The DNF of a formula is not unique and logically equivalent DNFs can
yield different composed values; this module values whatever DNF the
normalizer produces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from . import geogrid
from .geogrid import GridConfig
from .ground import PvfSet
from .logic import Clause, DnfFormula, FalseConst, TrueConst, dnf_to_formula, evaluate, to_dnf
from .rm import RewardMachine, RmTransition, StepTable, label_mask, reachability_rm

# exact oracle: reaching ORACLE_TOL takes about 23 / (1 - gamma) sweeps,
# so the sweep cap allows gamma up to about 0.9997
ORACLE_TOL = 1e-10
MAX_ORACLE_SWEEPS = 100_000
# RM-graph value iteration: stops below RM_TOL, raises after MAX_RM_SWEEPS
RM_TOL = 1e-12
MAX_RM_SWEEPS = 1_000_000
# slack on both composition bounds, for floating-point noise in the oracle
BOUND_TOL = 1e-9


class NoOutgoingEdgeError(ValueError):
    def __init__(self, state: int):
        super().__init__(f"non-terminal RM state {state} has no outgoing transitions")
        self.state = state


class UnsatisfiableGuardError(ValueError):
    pass


class StateSpaceTooLargeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# State-independent value iteration over RM states


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


def rm_value_iteration(
    rm: RewardMachine,
    gamma_rm: float,
    gamma: float,
) -> RmStateValues:
    """Fixed point of v(u) = max over non-self edges of
    r_self(u)*(1-gamma_rm)/gamma + gamma_rm*(r + v(u')).

    Terminals are pinned at 0. A non-terminal state whose only explicit
    edges are self-loops is a dead end valued r_self(u)/(1-gamma); a
    non-terminal state with no explicit edges at all is an error. Raises
    if the sweeps have not converged after MAX_RM_SWEEPS.
    """
    if not (0.0 < gamma_rm < 1.0):
        raise ValueError("gamma_rm must lie in (0, 1)")
    if not (0.0 < gamma < 1.0):
        raise ValueError("gamma must lie in (0, 1)")
    r_self = max_self_loop_rewards(rm)
    v = {u: 0.0 for u in range(rm.num_states)}
    dead_ends = []
    for u in range(rm.num_states):
        if rm.is_terminal(u):
            continue
        if not rm.outgoing(u):
            raise NoOutgoingEdgeError(u)
        if not _non_self_edges(rm, u):
            dead_ends.append(u)
            v[u] = r_self[u] / (1.0 - gamma)
    residual = np.inf
    for _ in range(MAX_RM_SWEEPS):
        residual = 0.0
        for u in range(rm.num_states):
            if rm.is_terminal(u) or u in dead_ends:
                continue
            best = max(
                r_self[u] * (1.0 - gamma_rm) / gamma + gamma_rm * (t.reward + v[t.dst])
                for t in _non_self_edges(rm, u)
            )
            residual = max(residual, abs(best - v[u]))
            v[u] = best
        if residual < RM_TOL:
            break
    else:
        raise RuntimeError(
            f"RM state values did not converge in {MAX_RM_SWEEPS} sweeps (residual {residual:.3g})"
        )
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
            raise ValueError("RM and PVF vocabularies differ")
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
    best = None
    for t in edges:
        fv = formula_value(cvf.pvfs, cvf._edge_dnfs[t], obs)
        val = r_self * (1.0 - fv) / (1.0 - cvf.gamma) + fv * (
            t.reward + cvf.gamma * cvf.rm_values.values[t.dst]
        )
        if best is None or val > best:
            best = val
    return float(best)


def shaping_reward(
    cvf: ComposedValueFn,
    prev: tuple[np.ndarray, int],
    nxt: tuple[np.ndarray, int],
    lam: float = 1.0,
    mode: str = "undiscounted",
    gamma: Optional[float] = None,
) -> float:
    """Potential-based shaping term between consecutive product states.

    Terminal next states have potential 0; see shaping_term for the formula.
    """
    check_shaping(lam, mode)
    gamma = cvf.gamma if gamma is None else gamma
    return shaping_term(composed_value(cvf, *prev), composed_value(cvf, *nxt), lam, mode, gamma)


def check_shaping(lam: float, mode: str) -> None:
    """Reject a negative shaping weight or an unknown shaping mode."""
    if lam < 0:
        raise ValueError("lam must be non-negative")
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
# Brute-force oracle: exact value iteration on the product MDP


@dataclass
class ProductValueTable:
    values: dict  # ((row, col), u) -> value
    gamma: float
    residual: float

    def value_at(self, cell, u: int) -> float:
        return self.values[(tuple(cell), u)]


def exact_product_values(
    cfg: GridConfig,
    rm: RewardMachine,
    gamma: float,
    max_states: int = 2_000_000,
) -> ProductValueTable:
    """Exact optimal values of the product MDP under the ground-truth labelling.

    Fixed layouts only (the reachable state space must be enumerable as
    agent cell x RM state). Terminal RM states are worth 0. Raises if the
    sweeps have not converged after MAX_ORACLE_SWEEPS.
    """
    if not (0.0 < gamma < 1.0):
        raise ValueError("gamma must lie in (0, 1)")
    if cfg.layout_mode != "fixed":
        raise StateSpaceTooLargeError("randomized layouts are not enumerable")
    n = cfg.width * cfg.height * rm.num_states
    if n > max_states:
        raise StateSpaceTooLargeError(f"{n} product states exceeds cap {max_states}")
    states = geogrid.cell_states(cfg)
    cells = list(states)
    n_cells = len(cells)
    cell_idx = {cell: i for i, cell in enumerate(cells)}
    n_actions = len(geogrid.ACTIONS)

    # Guards are evaluated once up front; the sweeps below are pure array ops.
    next_cell = np.zeros((n_cells, n_actions), dtype=np.int64)
    next_mask = {}
    for i, s in enumerate(states.values()):
        for a in range(n_actions):
            s2 = geogrid.step(s, a)
            next_cell[i, a] = cell_idx[s2.agent]
            next_mask[(i, a)] = label_mask(rm.vocab, geogrid.true_label(s2))

    n_total = rm.num_states * n_cells  # flat index: u * n_cells + cell
    nxt = np.zeros((n_total, n_actions), dtype=np.int64)
    rew = np.zeros((n_total, n_actions))
    cont = np.ones((n_total, n_actions))  # 0 where the RM terminates
    terminal_mask = np.zeros(n_total, dtype=bool)
    table = StepTable(rm)
    for u in range(rm.num_states):
        if rm.is_terminal(u):
            terminal_mask[u * n_cells : (u + 1) * n_cells] = True
            continue
        for i in range(n_cells):
            flat = u * n_cells + i
            for a in range(n_actions):
                u2, reward, terminated = table.step(u, next_mask[(i, a)])
                nxt[flat, a] = u2 * n_cells + next_cell[i, a]
                rew[flat, a] = reward
                if terminated:
                    cont[flat, a] = 0.0

    v = np.zeros(n_total)
    residual = np.inf
    for _ in range(MAX_ORACLE_SWEEPS):
        q = gamma * (rew + cont * v[nxt])
        v_new = q.max(axis=1)
        v_new[terminal_mask] = 0.0
        residual = float(np.abs(v_new - v).max())
        v = v_new
        if residual <= ORACLE_TOL:
            break
    else:
        raise RuntimeError(
            f"exact values did not converge in {MAX_ORACLE_SWEEPS} sweeps (residual {residual:.3g})"
        )
    values = {
        (cell, u): float(v[u * n_cells + i])
        for u in range(rm.num_states)
        for i, cell in enumerate(cells)
    }
    return ProductValueTable(values, gamma, residual)


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


def composition_bounds(
    cfg: GridConfig, vocab: Sequence[str], guards: Iterable, gamma: float
) -> list[BoundCheck]:
    """Check the composition bounds on each guard, in order, up to BOUND_TOL.

    A guard (Formula or DnfFormula) of two or more clauses gets a
    disjunction check, then each clause of two or more literals a
    conjunction check; constant guards are skipped. The exact reachability
    values of a clause set depend only on the cells where it holds, so
    they are computed once per distinct set of such cells.
    """
    states = geogrid.cell_states(cfg)
    labels = [geogrid.true_label(s) for s in states.values()]
    tables: dict = {}  # truth at each cell -> exact value at each cell

    def exact(clauses: tuple) -> np.ndarray:
        dnf = DnfFormula(clauses)
        holds = tuple(evaluate(dnf, label) for label in labels)
        if holds not in tables:
            table = exact_product_values(cfg, reachability_rm(vocab, dnf_to_formula(dnf)), gamma)
            tables[holds] = np.array([table.value_at(cell, 1) for cell in states])
        return tables[holds]

    checks = []
    for guard in guards:
        dnf = guard if isinstance(guard, DnfFormula) else to_dnf(guard)
        if isinstance(dnf, (TrueConst, FalseConst)):
            continue
        if len(dnf.clauses) >= 2:
            lower = np.maximum.reduce([exact((c,)) for c in dnf.clauses])
            ok = bool((lower <= exact(dnf.clauses) + BOUND_TOL).all())
            checks.append(BoundCheck("disjunction underestimation", dnf, ok))
        for clause in dnf.clauses:
            if len(clause) >= 2:
                upper = np.minimum.reduce([exact(((lit,),)) for lit in clause])
                ok = bool((exact((clause,)) <= upper + BOUND_TOL).all())
                checks.append(BoundCheck("conjunction overestimation", DnfFormula((clause,)), ok))
    return checks
