"""Quantum walks on graph embeddings given by rotation systems.

Build a rotation system over a symmetric digraph, trace its faces, lift it
to the double cover and blow it up into the degree-2 walk graph, then
study the walk either by direct simulation or through the face-block
scattering matrix and the comfortability functionals.
"""

from .comfortability import (
    ComfortReport,
    average_by_enumeration,
    average_comfortability,
    comfortability,
    compare_partitions,
    island_energy,
    island_h,
    kn_best_worst,
    limit_comfortability,
    positive_coin_average,
)
from .covering_blowup import (
    BlowUpGraph,
    DoubleCover,
    attach_hedgehog,
    blow_up,
    double_cover,
    hedgehog,
)
from .enumeration import (
    EmbeddingClass,
    enumerate_embeddings,
    min_max_genus,
    rank_by_comfortability,
)
from .errors import (
    AssumptionError,
    BudgetError,
    ConvergenceError,
    GraphError,
    ParseError,
)
from .fileformat import parse_rotation_system, serialize_rotation_system
from .graph_core import (
    SymmetricDigraph,
    complete_graph,
    cycle_graph,
    path_graph,
)
from .rotation_system import (
    FacialDecomposition,
    RotationSystem,
    detect_orientability,
    flip_vertex,
    mirror,
    trace_faces,
)
from .scattering import (
    ScatteringMatrix,
    orientability_from_scattering,
    scattering_matrix,
    stationary_closed_form,
)
from .walk_dynamics import (
    Coin,
    WaveState,
    check_unitary_equivalence,
    flip_correspondence,
    internal_energy,
    outflow_map,
    run_to_stationary,
    step,
    step_matrix,
)

__version__ = "0.1.0"
