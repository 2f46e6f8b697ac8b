"""Reward machines: data type, text format, validation, step semantics.

A reward machine reads a sequence of truth assignments and emits a reward
per step, possibly terminating. Transitions are guarded by propositional
formulas; if no explicit guard fires the machine self-loops with reward 0.

Text format (one transition per line, `#` starts a comment):

    vocab: red green blue triangle circle
    states: 4
    terminals: 0          # optional, defaults to {0}
    initial: 1            # optional, defaults to 1
    (1, 2, red & triangle, 0)
    ...

By convention state 1 is initial and state 0 is terminal when terminals
exist; `terminals:` with no ids declares a machine that never terminates.

`rm_step` defines a step; `RewardMachine.column` keeps a machine's steps by
assignment bitmask, filled once per machine and mask and shared by its callers,
and `RewardMachine.dnf` keeps each transition's guard in DNF the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .errors import InputError
from .logic import Formula, check_vocab, evaluate, parse_checked_formula, to_dnf, truth_table

MAX_EXHAUSTIVE_VOCAB = 12  # determinism checked over all 2^|vocab| assignments


class RmSyntaxError(InputError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message


class NondeterministicGuardError(InputError):
    def __init__(self, state: int, assignment: frozenset, edges: tuple):
        super().__init__(
            f"state {state}: guards of edges {edges[0]} and {edges[1]} "
            f"both fire on assignment {sorted(assignment)}"
        )
        self.state = state
        self.assignment = assignment
        self.edges = edges


class DanglingStateError(InputError):
    pass


class TransitionFromTerminalError(InputError):
    pass


class StepFromTerminalError(ValueError):
    pass


@dataclass(frozen=True)
class RmTransition:
    src: int
    dst: int
    guard: Formula
    reward: float


@dataclass(frozen=True)
class RmStep:
    next_state: int
    reward: float
    terminated: bool


@dataclass(frozen=True)
class RewardMachine:
    vocab: tuple[str, ...]
    num_states: int
    initial: int
    terminals: frozenset[int]
    transitions: tuple[RmTransition, ...]
    _outgoing: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _columns: dict = field(default_factory=dict, init=False, repr=False, compare=False)  # mask -> column
    _dnfs: dict = field(default_factory=dict, init=False, repr=False, compare=False)  # transition -> DNF

    def __post_init__(self):
        for u in range(self.num_states):
            self._outgoing[u] = tuple(t for t in self.transitions if t.src == u)

    def outgoing(self, u: int) -> tuple[RmTransition, ...]:
        return self._outgoing[u]

    def is_terminal(self, u: int) -> bool:
        return u in self.terminals

    def column(self, mask: int) -> tuple[Optional[tuple[int, float, bool]], ...]:
        """`rm_step` of each state u on assignment bitmask mask (see `label_mask`): (next_state, reward,
        terminated), or None at a terminal u. Filled on the mask's first use and kept on the machine."""
        col = self._columns.get(mask)
        if col is None:
            w = [atom for i, atom in enumerate(self.vocab) if mask >> i & 1]
            steps = [None if self.is_terminal(u) else rm_step(self, u, w) for u in range(self.num_states)]
            col = tuple(None if s is None else (s.next_state, s.reward, s.terminated) for s in steps)
            self._columns[mask] = col
        return col

    def dnf(self, t: RmTransition):
        """to_dnf of transition t's guard, normalized on its first use and kept on the machine."""
        dnf = self._dnfs.get(t)
        if dnf is None:
            dnf = self._dnfs[t] = to_dnf(t.guard)
        return dnf


def make_rm(
    vocab: Sequence[str],
    num_states: int,
    transitions: Iterable[RmTransition],
    initial: int = 1,
    terminals: Iterable[int] = (0,),
    check: bool = True,
) -> RewardMachine:
    """Construct and validate a reward machine."""
    vocab = check_vocab(vocab)
    terminals = frozenset(terminals)
    transitions = tuple(transitions)
    if num_states < 1:
        raise InputError("need at least one state")
    if not (0 <= initial < num_states):
        raise DanglingStateError(f"initial state {initial} out of range")
    if initial in terminals:
        raise InputError("initial state cannot be terminal")
    for t in terminals:
        if not (0 <= t < num_states):
            raise DanglingStateError(f"terminal state {t} out of range")
    for t in transitions:
        if not (0 <= t.src < num_states) or not (0 <= t.dst < num_states):
            raise DanglingStateError(f"transition {t} references a missing state")
        if t.src in terminals:
            raise TransitionFromTerminalError(f"transition out of terminal state {t.src}")
    rm = RewardMachine(vocab, num_states, initial, terminals, transitions)
    if check:
        check_determinism(rm)
    return rm


def check_determinism(rm: RewardMachine) -> None:
    """Verify that at most one explicit guard fires on each of the 2^|vocab| assignments.

    Each guard's `truth_table` is taken once; on an overlap the error names
    the lowest assignment mask where two guards fire, and the first two
    edges that fire there. Skipped for vocabularies larger than
    MAX_EXHAUSTIVE_VOCAB atoms.
    """
    if len(rm.vocab) > MAX_EXHAUSTIVE_VOCAB:
        return
    for u in range(rm.num_states):
        if rm.is_terminal(u):
            continue
        edges = rm.outgoing(u)
        if len(edges) < 2:
            continue
        tables = [truth_table(e.guard, rm.vocab) for e in edges]
        seen = overlap = 0
        for t in tables:
            overlap |= seen & t
            seen |= t
        if overlap:
            mask = (overlap & -overlap).bit_length() - 1
            firing = [e for e, t in zip(edges, tables) if t >> mask & 1]
            w = frozenset(a for i, a in enumerate(rm.vocab) if mask >> i & 1)
            raise NondeterministicGuardError(u, w, (firing[0], firing[1]))


def parse_rm(text: str) -> RewardMachine:
    """Parse the RM text format; runs full validation including determinism."""
    vocab: Optional[tuple[str, ...]] = None
    num_states: Optional[int] = None
    terminals: Optional[frozenset[int]] = None
    initial = 1
    raw_edges: list[tuple[int, int, int, str, float]] = []  # (line, i, j, formula, r)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vocab:"):
            try:
                vocab = check_vocab(line[len("vocab:"):].split())
            except ValueError as e:
                raise RmSyntaxError(line_no, str(e))
        elif line.startswith("states:"):
            try:
                num_states = int(line[len("states:"):].strip())
            except ValueError:
                raise RmSyntaxError(line_no, "states: expects an integer")
        elif line.startswith("terminals:"):
            try:
                terminals = frozenset(int(t) for t in line[len("terminals:"):].split())
            except ValueError:
                raise RmSyntaxError(line_no, "terminals: expects integers")
        elif line.startswith("initial:"):
            try:
                initial = int(line[len("initial:"):].strip())
            except ValueError:
                raise RmSyntaxError(line_no, "initial: expects an integer")
        elif line.startswith("("):
            if not line.endswith(")"):
                raise RmSyntaxError(line_no, "transition must end with ')'")
            parts = line[1:-1].split(",")
            if len(parts) < 4:
                raise RmSyntaxError(line_no, "transition needs (from, to, formula, reward)")
            try:
                i = int(parts[0])
                j = int(parts[1])
                reward = float(parts[-1])
            except ValueError:
                raise RmSyntaxError(line_no, "bad state index or reward")
            formula_text = ",".join(parts[2:-1]).strip()
            raw_edges.append((line_no, i, j, formula_text, reward))
        else:
            raise RmSyntaxError(line_no, f"unrecognized line: {line!r}")

    if vocab is None:
        raise RmSyntaxError(0, "missing vocab: header")
    if num_states is None:
        raise RmSyntaxError(0, "missing states: header")
    if terminals is None:
        terminals = frozenset({0})

    transitions = []
    vocab_set = frozenset(vocab)  # checked once above, not once per guard
    for line_no, i, j, formula_text, reward in raw_edges:
        try:
            guard = parse_checked_formula(formula_text, vocab_set)
        except ValueError as e:
            raise RmSyntaxError(line_no, f"bad guard: {e}")
        transitions.append(RmTransition(i, j, guard, reward))

    return make_rm(vocab, num_states, transitions, initial=initial, terminals=terminals)


def load_rm(path) -> RewardMachine:
    with open(path) as fh:
        return parse_rm(fh.read())


def rm_step(rm: RewardMachine, u: int, w: Iterable[str]) -> RmStep:
    """Apply one truth assignment; implicit zero-reward self-loop if no guard fires."""
    if rm.is_terminal(u):
        raise StepFromTerminalError(f"state {u} is terminal")
    w = frozenset(w)
    for edge in rm.outgoing(u):
        if evaluate(edge.guard, w):
            return RmStep(edge.dst, edge.reward, rm.is_terminal(edge.dst))
    return RmStep(u, 0.0, False)


def label_mask(vocab: Sequence[str], w: Iterable[str]) -> int:
    """Assignment bitmask: bit i is set iff vocab[i] holds in w.

    Atoms outside the vocabulary are ignored, as `evaluate` ignores them.
    """
    w = frozenset(w)
    return sum(1 << i for i, atom in enumerate(vocab) if atom in w)


def run_rm(rm: RewardMachine, ws: Iterable[Iterable[str]]):
    """Simulate over a sequence of assignments until termination.

    Returns (rewards, states, terminated_at) where terminated_at is the
    index of the terminating input, or None.
    """
    rewards: list[float] = []
    states: list[int] = []
    u = rm.initial
    for t, w in enumerate(ws):
        step = rm_step(rm, u, w)
        rewards.append(step.reward)
        states.append(step.next_state)
        u = step.next_state
        if step.terminated:
            return rewards, states, t
    return rewards, states, None


def reachability_rm(vocab: Sequence[str], guard: Formula) -> RewardMachine:
    """The two-state machine for 'reach a state satisfying guard': reward 1, then stop."""
    return make_rm(vocab, 2, [RmTransition(1, 0, guard, 1.0)])
