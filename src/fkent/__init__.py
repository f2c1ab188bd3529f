"""Entropy estimation for random dynamical systems under two metrics.

The package builds driven systems (random expanding maps, random tent maps,
random full shifts), equips orbit segments with the synchronized sup metric
and with the edit-style rematching metric, and estimates topological, local,
and spanning-set entropies under both.  The headline experiment checks that
the two metrics produce the same entropy numbers.
"""

__version__ = "0.1.0"

from .systems import (
    DrivingProcess,
    InvariantViolation,
    OmegaPath,
    OrbitSegment,
    RandomSystemSpec,
    ResourceCapExceeded,
    bernoulli_process,
    child_rng,
    expanding_system,
    orbit,
    orbit_batch,
    sample_path,
    shift_system,
    tent_system,
)
from .matching import (
    BOWEN,
    FK,
    FkDistance,
    bowen_distance,
    fk_distance,
    lcs_mismatch,
    max_match_size,
)
from .oracles import OracleValue, expected_entropy, match_count_bound, stirling_rate
from .spanning import (
    CellTable,
    EntropyEstimate,
    count_table,
    entropy_from_counts,
    path_seeds,
)
from .local import (
    EmpiricalMeasure,
    GridPartition,
    ball_measure,
    local_entropy,
    sample_measure,
    smb_estimate,
)
from .katok import KatokCount, katok_spanning_count
from .harness import ExperimentConfig, load_config, run_experiment
