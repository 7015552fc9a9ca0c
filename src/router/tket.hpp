// t|ket>-style slice router (Cowtan et al. [32], "On the qubit routing
// problem").
//
// The routing strategy that distinguishes t|ket> from SABRE-family tools:
//   - initial placement by greedy interaction-graph matching;
//   - the circuit is viewed as timeslices of parallel two-qubit gates;
//   - swap selection minimizes the summed coupling distance of the
//     current slice plus geometrically down-weighted future slices;
//   - deterministic (no random restarts), no decay term;
//   - progress guaranteed by the stagnation escape shared with SABRE
//     (router/common.hpp).
// On QUBIKOS circuits this slice-global view is exactly what the paper
// observes to lag SABRE by a wide margin (Sec. IV-B).
#pragma once

#include "circuit/circuit.hpp"
#include "circuit/routed.hpp"
#include "graph/distance.hpp"
#include "graph/graph.hpp"

namespace qubikos::router {

struct tket_options {
    /// How many future slices the swap cost looks at.
    int lookahead_slices = 4;
    /// Geometric weight applied per future slice.
    double slice_discount = 0.5;
    /// Initial placement only sees this many leading two-qubit gates —
    /// mirroring tket's GraphPlacement, which matches a pattern built
    /// from the first slices of the circuit rather than the whole
    /// interaction graph (0 = whole circuit).
    std::size_t placement_window = 50;
};

/// Routes `logical` on `coupling` with distances from `dist`. A null
/// `initial` places the circuit greedily first; a caller-fixed one is the
/// standalone-router evaluation mode of Sec. IV-C.
[[nodiscard]] routed_circuit route_tket(const circuit& logical, const graph& coupling,
                                        const distance_provider& dist,
                                        const tket_options& options = {},
                                        const mapping* initial = nullptr);

}  // namespace qubikos::router
