// QMAP-style heuristic mapper (Zulehner/Wille lineage [33]).
//
// The circuit is partitioned into dependency layers; for each layer an A*
// search over swap sequences transforms the current mapping into one where
// every layer gate is executable. The heuristic is the admissible
// "each swap fixes at most two distance units" bound plus a discounted
// lookahead on the next layer (which makes the search fast but the overall
// result heuristic — the behaviour the paper measures). The search is
// node-capped; on exhaustion a greedy best-swap loop with a forced-routing
// backstop finishes the layer, mirroring how the real tool degrades on
// large devices.
#pragma once

#include <cstddef>

#include "circuit/circuit.hpp"
#include "circuit/routed.hpp"
#include "graph/distance.hpp"
#include "graph/graph.hpp"
#include "obs/obs.hpp"

namespace qubikos::router {

struct qmap_options {
    /// A* node budget per layer before falling back to greedy routing.
    std::size_t node_limit = 20000;
    /// Weight of the next-layer lookahead term (0 disables it).
    double lookahead_weight = 0.75;
    /// Initial placement only sees this many leading two-qubit gates —
    /// Zulehner-style mappers derive the start mapping from the first
    /// layers, not the global interaction graph (0 = whole circuit).
    std::size_t placement_window = 25;
};

/// Routes `logical` on `coupling` with distances from `dist`. A null
/// `initial` places the circuit greedily first; a caller-fixed one is the
/// standalone-router evaluation mode of Sec. IV-C; it must span exactly
/// the device's vertices (std::invalid_argument otherwise).
///
/// Every route publishes its counters to obs and, when `stats` is
/// non-null, stores them in `*stats` — on every exit path past the
/// initial-mapping check, a throw included:
///   qmap.routes               1
///   qmap.layers               dependency layers
///   qmap.astar_solved_layers  layers the A* search solved
///   qmap.fallback_layers      layers finished by the greedy fallback
///   qmap.expanded_nodes       A* expansions over every layer
[[nodiscard]] routed_circuit route_qmap(const circuit& logical, const graph& coupling,
                                        const distance_provider& dist,
                                        const qmap_options& options = {},
                                        const mapping* initial = nullptr,
                                        obs::snapshot* stats = nullptr);

}  // namespace qubikos::router
