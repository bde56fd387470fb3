"""Reprogramming algebra, measure-and-reprogram simulators, and lifting bounds
for permutation and ideal-cipher oracles at exhaustively checkable sizes."""

from .bounds import (
    SpongeParams,
    double_sided_zero_bound,
    fixed_point_bound,
    generalized_search_bound,
    icm_collision_bound,
    sponge_collision_bound,
    sponge_lift_bound,
    sponge_multi_collision_bound,
    sponge_oneway_bound,
    sponge_preimage_bound,
)
from .circuits import (
    CircuitBuilder,
    CombinedCircuit,
    NormalFormCircuit,
    Projector,
    normalize,
    run_circuit,
    run_combined,
    run_with_insertions,
)
from .errors import CapabilityError, DomainError, PreconditionError, ProtocolError
from .games import (
    Relation,
    best_k_classical,
    game_bound,
    get_game,
    p_max_bound,
    r_max,
    relation_double_sided_zero,
    relation_fixed_point,
)
from .perms import (
    Cipher,
    HitMiss,
    PartialPermutation,
    Permutation,
    all_ciphers,
    all_permutations,
    bad_probability_bound,
    hit_miss_queries,
    is_disjoint,
    is_good_pair,
    is_good_tuple,
    reprogram,
    reprogram_seq,
)
from .qsim import (
    Registers,
    StateVector,
    apply_combined_oracle,
    apply_oracle,
    measure_distribution,
)
from .simulators import (
    ClassicalAdversary,
    QuantumAdversary,
    SimChoice,
    build_lifted_adversary,
    decompose_state,
    decomposition_residual,
    run_classical_sim,
    run_quantum_sim,
    sample_sim_choice,
    sim_choice_space,
)
from .sponge import davies_meyer, sponge

__version__ = "0.1.0"
