"""Personalized QoS ranking prediction for cloud services.

Predicts how an active user would rank a set of cloud services from other
users' past QoS observations: rank-correlation similarity, Top-K neighbor
selection, pairwise preference/confidence inference and greedy rank
aggregation, plus a small VM-allocation simulator for generating synthetic
QoS matrices under different placement policies.
"""

from .allocsim import (
    AllocationPlan,
    AllocPolicy,
    Scenario,
    allocate,
    load_scenario,
    synth_matrix,
)
from .errors import (
    AllocationError,
    BadValueError,
    ConfigError,
    DataError,
    DomainError,
    DuplicateKeyError,
    ParseError,
    QosRankError,
)
from .experiment import (
    ExperimentConfig,
    load_config,
    run_experiment,
)
from .matrix import (
    MetricOrientation,
    QoSMatrix,
    load_matrix,
    save_matrix,
    split_train_test,
)
from .metrics import (
    ExperimentReport,
    QoSPerformanceRow,
    SummaryRow,
)
from .ranker import (
    RankerKind,
    Ranking,
    rank,
    rank_orders,
)

__version__ = "0.1.0"
