# Offline grounding: learn the labelling function and the primitive
# value functions from a random-walk dataset, no reward signal needed.

from rmgcr.geogrid import (
    GridConfig,
    ObjectSpec,
    cell_states,
    encode_obs,
    full_coverage_dataset,
    generate_dataset,
    label_frequencies,
)
from rmgcr.ground import predict_labels, train_label_model, train_pvfs_fqi

GAMMA = 0.97

# 500 random walks of length 60 on the fixed 6x6 layout
cfg = GridConfig()
dataset = generate_dataset(cfg, 500, seed=0)

print("label frequencies in the dataset:")
for atom, freq in label_frequencies(dataset).items():
    print(f"  {atom:<10} {freq:.3f}")

# each proposition is linearly realizable from the observation features,
# so a logistic model per atom gets essentially perfect held-out accuracy
label_model = train_label_model(dataset)
print("held-out accuracy:", {a: round(v, 4) for a, v in label_model.holdout_accuracy.items()})

obs = encode_obs(cell_states(cfg)[(0, 0)])
print("predicted labels on the red triangle:", sorted(predict_labels(label_model, obs)))

# --- primitive value functions ----------------------------------------
# V(reach literal) estimates gamma^(steps to first satisfaction). A tiny
# corridor makes the numbers easy to read: the red triangle sits at the
# right end, three moves from the left wall.

corridor = GridConfig(
    width=4, height=1, objects=(ObjectSpec("red", "triangle", (0, 3)),), episode_len=10
)
pvfs = train_pvfs_fqi(full_coverage_dataset(corridor), GAMMA)

print()
print("corridor values for reaching `red` (expect 0.97^k):")
corridor_states = cell_states(corridor)
for col in range(4):
    obs = encode_obs(corridor_states[(0, col)])
    v = pvfs.value(("red", True), obs)
    print(f"  column {col}: {v:.6f}   (0.97^{3 - col if col < 3 else 1} = {GAMMA ** (3 - col if col < 3 else 1):.6f})")

# negations are a one-step affair almost everywhere
obs = encode_obs(corridor_states[(0, 3)])
print("value of reaching `!red` from the red cell:", round(pvfs.value(("red", False), obs), 6))
