"""tritcirc: qutrit circuit compilation toolkit.

Compiles exponentials of Weyl-Heisenberg Z-strings and diagonal Gell-Mann
strings into CX/CX^2/rotation circuits, builds ternary-encoded QAOA layers
for graph k-coloring, and synthesizes connectivity-respecting CX-only
circuits from GF(3) parity maps.  Everything is checked against a simulator
up to global phase: monomial circuits as a basis permutation plus a phase
vector, the rest as a dense unitary.
"""

from .decompose import (
    GateCounts,
    count_gates,
    decompose_gellmann,
    decompose_weyl,
    gray_order,
    merge_cx_ladders,
    rotation_synthesis,
)
from .gates import (
    Circuit,
    Gate,
    circuit_from_dict,
    circuit_to_dict,
    cx,
    cx_dag,
    cx_pow,
    hadamard,
    inverse_circuit,
    rot_x,
    rot_z,
    sigma_x,
)
from .qaoa import (
    ColoringProblem,
    QaoaLayerSpec,
    build_qaoa_circuit,
    cost_expectation,
    cost_layer,
    edge_circuit,
    edge_hamiltonian_terms,
    initial_layer,
    mixer_layer,
    resource_report,
)
from .routing import (
    SteinerTree,
    SynthesisResult,
    TernaryParityMap,
    Topology,
    apply_circuit_to_trits,
    decreasing_steiner_tree,
    grid_topology_3x3,
    line_topology,
    parity_map_of_circuit,
    steiner_gauss_synthesize,
    steiner_tree,
)
from .sim import (
    apply_circuit,
    basis_state,
    circuit_diagonal,
    circuit_unitary,
    gate_unitary,
    monomial_action,
    phase_distance,
)
from .weyl import (
    GellMannString,
    WeylExpansion,
    WeylZString,
    expand_closed_form,
    expand_oracle,
    gellmann_matrix,
    s_from_index,
)

__version__ = "0.1.0"
