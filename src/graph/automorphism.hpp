// Orbits of a graph's automorphism group with some vertices fixed.
//
// The exact solver breaks the coupling graph's symmetry: an automorphism
// of the device turns one refuted initial mapping into another, so an
// UNSAT proof need only refute one representative per orbit (see
// docs/symmetry.md). This module supplies those orbits.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/distance.hpp"
#include "graph/graph.hpp"

namespace qubikos {

/// Search nodes (vertex images placed) one automorphism_orbits call may
/// spend before it gives up. Far above what the devices need: 32 for
/// aspen4, 18 for grid3x3, 127 for eagle127.
inline constexpr std::uint64_t kAutomorphismNodeBudget = std::uint64_t{1} << 15;

/// Vertex ids equal exactly when the sorted distance rows are; an
/// automorphism preserves them. `dist` must be `g`'s distance provider.
[[nodiscard]] std::vector<int> distance_profiles(const graph& g, const distance_provider& dist);

/// Orbits of the automorphisms of `g` that fix every vertex of `fixed`:
/// entry v is the smallest vertex of v's orbit. `dist` must be `g`'s
/// distance provider. Two vertices share an orbit only when a witness
/// automorphism was found, so the result is exact when the search
/// completes. When it would need more than `node_budget` search nodes it
/// returns identity orbits (every vertex alone), which claim nothing.
/// `profiles` (optional) is distance_profiles(g, dist), passed by a
/// caller that asks about many fixed sets; without it they are computed.
[[nodiscard]] std::vector<int> automorphism_orbits(
    const graph& g, const distance_provider& dist, const std::vector<int>& fixed,
    std::uint64_t node_budget = kAutomorphismNodeBudget,
    const std::vector<int>* profiles = nullptr);

}  // namespace qubikos
