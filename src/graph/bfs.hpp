// Breadth-first traversals.
//
// Algorithm 2 of the paper orders a section's gates by the sequence in
// which BFS discovers the corresponding interaction-graph edges: every
// emitted edge shares an endpoint with an earlier-emitted edge (or a
// source vertex), which is exactly what turns the sequence into a chain of
// dependencies in the gate DAG.
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace qubikos {

/// Edges in BFS emission order from the source set. When a vertex u is
/// processed, all incident not-yet-emitted edges are emitted. Every edge
/// reachable from the sources appears exactly once, and every emitted edge
/// shares an endpoint with an earlier-emitted edge or contains a source.
[[nodiscard]] std::vector<edge> bfs_edge_order(const graph& g, const std::vector<int>& sources);

/// BFS distance from the nearest source; -1 for unreachable vertices.
[[nodiscard]] std::vector<int> bfs_distances(const graph& g, const std::vector<int>& sources);

/// Shortest path between two vertices (inclusive); empty if disconnected.
[[nodiscard]] std::vector<int> shortest_path(const graph& g, int from, int to);

}  // namespace qubikos
