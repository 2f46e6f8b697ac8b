"""Ground-Compose-Reinforce for reward machines at desk scale.

Pipeline: ground propositions and primitive value functions from a
labelled trajectory dataset, compose them into approximate optimal value
functions for any reward-machine task, and train RL agents on
self-generated, potential-shaped rewards.
"""

from .logic import parse_formula, evaluate, to_dnf
from .rm import RewardMachine, parse_rm, load_rm, rm_step, run_rm
from .geogrid import GridConfig, generate_dataset, save_dataset, load_dataset
from .ground import train_label_model, predict_labels, train_pvfs_fqi, train_pvfs_mc
from .compose import (
    rm_value_iteration,
    make_composed_value_fn,
    composed_value,
    exact_product_values,
)
from .agent import AgentConfig, train, evaluate as evaluate_policy

__all__ = [
    "parse_formula",
    "evaluate",
    "to_dnf",
    "RewardMachine",
    "parse_rm",
    "load_rm",
    "rm_step",
    "run_rm",
    "GridConfig",
    "generate_dataset",
    "save_dataset",
    "load_dataset",
    "train_label_model",
    "predict_labels",
    "train_pvfs_fqi",
    "train_pvfs_mc",
    "rm_value_iteration",
    "make_composed_value_fn",
    "composed_value",
    "exact_product_values",
    "AgentConfig",
    "train",
    "evaluate_policy",
]

__version__ = "0.1.0"
