"""GFlowNet fine-tuning on a miniature tactic prover.

The package bundles a deterministic propositional tactic environment, a
small MLP policy with a learned log-partition head, trajectory-balance
training with replay and shaped rewards, SFT and PPO baselines, best-first
search evaluation, and an exhaustive enumeration oracle that certifies
reward-proportional sampling.
"""

__version__ = "0.1.0"

from .corpus import CorpusSplit, Theorem, build_corpus, load_split, save_split
from .env import (
    ACTIONS,
    N_ACTIONS,
    ProofState,
    StepResult,
    Tactic,
    apply_tactic,
    initial_state,
    parse_tactic,
    state_fingerprint,
)
from .formulas import Formula, parse_formula, print_formula
from .gfn import (
    GFNTrainer,
    ReplayBuffer,
    TrainConfig,
    Trajectory,
    log_reward,
    sample_trajectory,
    tb_loss,
)
from .oracle import (
    ExactDist,
    enumerate_trajectories,
    flow_check,
    flow_residuals,
    policy_trajectory_probs,
    tv_distance,
)
from .policy import PolicyNet, encode_state, predict_log_z
from .reward_model import RewardModel, mine_hard_negatives, rm_train
from .search import SearchConfig, SolveReport, evaluate_split

__all__ = [
    "ACTIONS",
    "CorpusSplit",
    "ExactDist",
    "Formula",
    "GFNTrainer",
    "N_ACTIONS",
    "PolicyNet",
    "ProofState",
    "ReplayBuffer",
    "RewardModel",
    "SearchConfig",
    "SolveReport",
    "StepResult",
    "Tactic",
    "Theorem",
    "TrainConfig",
    "Trajectory",
    "apply_tactic",
    "build_corpus",
    "encode_state",
    "enumerate_trajectories",
    "evaluate_split",
    "flow_check",
    "flow_residuals",
    "initial_state",
    "load_split",
    "log_reward",
    "mine_hard_negatives",
    "parse_formula",
    "parse_tactic",
    "policy_trajectory_probs",
    "predict_log_z",
    "print_formula",
    "rm_train",
    "sample_trajectory",
    "save_split",
    "state_fingerprint",
    "tb_loss",
    "tv_distance",
]
