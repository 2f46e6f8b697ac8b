# Composing a task value function out of the 2|vocab| primitive value
# functions, and checking the result against a brute-force oracle.
#
# The recipe: value guards in DNF with max over clauses and min over
# literals, then score each RM edge as an option using a state-independent
# exact solve of the RM graph for the tail.

from pathlib import Path

from rmgcr.compose import (
    composed_value,
    exact_product_values,
    make_composed_value_fn,
    rm_value_iteration,
)
from rmgcr.geogrid import GridConfig, cell_states, encode_obs, full_coverage_dataset
from rmgcr.ground import train_pvfs_fqi
from rmgcr.rm import load_rm

GAMMA = 0.97
GAMMA_RM = 0.97 ** 10  # one RM transition spans many environment steps
TASKS = Path(__file__).resolve().parent.parent / "tasks"

cfg = GridConfig()
rm = load_rm(TASKS / "sequence.rm")
pvfs = train_pvfs_fqi(full_coverage_dataset(cfg), GAMMA)

# state-independent values over the RM graph
rm_values = rm_value_iteration(rm, GAMMA_RM, GAMMA)
print("RM-graph values:", {u: round(v, 4) for u, v in rm_values.values.items()})

cvf = make_composed_value_fn(rm, pvfs, GAMMA_RM)
oracle = exact_product_values(cfg, rm, GAMMA)

print()
print("composed vs exact value at a few product states:")
cell_obs = {cell: encode_obs(state) for cell, state in cell_states(cfg).items()}
for cell, u in [((3, 0), 1), ((0, 0), 2), ((4, 2), 3), ((2, 3), 3)]:
    got = composed_value(cvf, cell_obs[cell], u)
    want = oracle.value_at(cell, u)
    print(f"  cell {cell} RM state {u}: composed {got:.4f}  exact {want:.4f}")

# Where does the approximation come from? The conjunction red & triangle
# is valued min(V_red, V_triangle), which pretends the nearest red thing
# and the nearest triangle are the same object. Next to the red circle
# they are not, and the composed value overshoots.
worst = max(
    abs(composed_value(cvf, obs, u) - oracle.value_at(cell, u))
    for cell, obs in cell_obs.items()
    for u in (1, 2, 3)
)
print()
print(f"max deviation over the whole product space: {worst:.4f}")

# For a single literal the composition is exact
from rmgcr.logic import Var
from rmgcr.rm import reachability_rm

reach = reachability_rm(pvfs.vocab, Var("green"))
reach_cvf = make_composed_value_fn(reach, pvfs, GAMMA_RM)
reach_oracle = exact_product_values(cfg, reach, GAMMA)
dev = max(
    abs(composed_value(reach_cvf, obs, 1) - reach_oracle.value_at(cell, 1))
    for cell, obs in cell_obs.items()
)
print(f"single-literal task deviation: {dev:.2e} (exact up to arithmetic)")
