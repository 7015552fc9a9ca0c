// ML-QLS-style multilevel layout synthesis (Lin & Cong [27]).
//
// The multilevel skeleton:
//   1. coarsen the weighted interaction graph by heavy-edge matching
//      until it is small;
//   2. place the coarsest graph with t|ket>'s and qmap's greedy loop
//      (router::greedy_positions) on gate multiplicities. Steps 1 and 2
//      draw no randomness, so they run once per route;
//   3. per placement trial, uncoarsen level by level, splitting merged
//      qubits onto nearby free physical qubits and refining by
//      pairwise-swap hill climbing on each move's exact objective delta;
//   4. route with a SABRE-style pass from the refined initial mapping.
// The quality lever versus plain SABRE is the global placement; the paper
// finds it competitive with LightSABRE except on the largest device.
#pragma once

#include <cstdint>

#include "circuit/circuit.hpp"
#include "circuit/routed.hpp"
#include "graph/distance.hpp"
#include "graph/graph.hpp"
#include "obs/obs.hpp"

namespace qubikos::router {

struct mlqls_options {
    /// Stop coarsening at this many coarse vertices.
    int coarsest_size = 8;
    /// Hill-climbing sweeps per uncoarsening level.
    int refine_sweeps = 3;
    /// Full V-cycles with different refinement orders; the best routed
    /// result is kept (ML-QLS iterates placement with router feedback).
    int placement_trials = 4;
    std::uint64_t seed = 1;
};

/// Routes `logical` on `coupling` with distances from `dist`. Throws
/// std::invalid_argument when `logical` has more qubits than `coupling`.
/// Publishes route_sabre's counters once per route (trials_run counts
/// placement trials, arena_slots is 1) and stores them in `*stats`.
[[nodiscard]] routed_circuit route_mlqls(const circuit& logical, const graph& coupling,
                                         const distance_provider& dist,
                                         const mlqls_options& options = {},
                                         obs::snapshot* stats = nullptr);

}  // namespace qubikos::router
