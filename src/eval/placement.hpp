// Placement-quality analysis.
//
// The standalone-routing experiments show that on QUBIKOS the tools'
// optimality gap is dominated by *initial-mapping* quality, not routing
// (routing from the planted mapping is near-perfect). These counts
// quantify how far a tool's chosen initial mapping is from the planted
// optimal one:
//   - program qubits placed exactly as in the reference;
//   - token-swap distance (swaps needed to morph one mapping into the
//     other on the coupling graph) — the operational cost of the
//     placement error;
//   - adjacency preservation: how many of the reference mapping's
//     realized interaction edges the tool's mapping also realizes.
// run_tool_record publishes them as the placement.* counters.
#pragma once

#include <cstddef>

#include "circuit/circuit.hpp"
#include "circuit/mapping.hpp"
#include "graph/graph.hpp"

namespace qubikos::eval {

struct placement_quality {
    /// Program qubits compared (the mappings' common program count).
    std::size_t program_qubits = 0;
    /// Program qubits placed exactly as in the reference.
    std::size_t exact_match = 0;
    /// Swaps required to transform `candidate` into `reference` on the
    /// coupling graph (approximate token swapping).
    std::size_t token_swap_distance = 0;
    /// Interaction edges executable in place under `reference`.
    std::size_t adjacency_planted = 0;
    /// Of those, the edges also executable in place under `candidate`.
    std::size_t adjacency_kept = 0;
};

[[nodiscard]] placement_quality compare_placements(const circuit& logical,
                                                   const graph& coupling,
                                                   const mapping& candidate,
                                                   const mapping& reference);

}  // namespace qubikos::eval
