// Graph families the tests need beyond the device builders: stars and
// complete graphs for VF2/distance edge cases, a smallest asymmetric
// graph for the automorphism search, and random connected graphs for
// property tests. Lines, rings and grids come from
// arch::line/ring/grid.
#pragma once

#include <algorithm>
#include <stdexcept>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace qubikos {

inline graph star_graph(int leaves) {
    if (leaves < 0) throw std::invalid_argument("star_graph: negative leaves");
    graph g(leaves + 1);
    for (int i = 1; i <= leaves; ++i) g.add_edge(0, i);
    return g;
}

inline graph complete_graph(int n) {
    graph g(n);
    for (int i = 0; i < n; ++i) {
        for (int j = i + 1; j < n; ++j) g.add_edge(i, j);
    }
    return g;
}

/// A path 0-1-2-3-4 with vertex 5 on both 1 and 2: six vertices, and
/// the identity is its only automorphism.
inline graph asymmetric_graph() {
    return graph(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {1, 5}, {2, 5}});
}

/// Connected random graph: a random spanning tree plus `extra_edges`
/// additional distinct random edges (clamped to the complete graph).
inline graph random_connected_graph(int n, int extra_edges, rng& random) {
    if (n < 1) throw std::invalid_argument("random_connected_graph: need n >= 1");
    graph g(n);
    // Random spanning tree: attach each vertex (in shuffled order) to a
    // uniformly chosen earlier vertex.
    const auto order = random.permutation(n);
    for (int i = 1; i < n; ++i) {
        const int parent = order[static_cast<std::size_t>(
            random.below(static_cast<std::uint64_t>(i)))];
        g.add_edge(order[static_cast<std::size_t>(i)], parent);
    }
    const long long max_edges = static_cast<long long>(n) * (n - 1) / 2;
    long long budget = std::min<long long>(extra_edges, max_edges - g.num_edges());
    int attempts_left = static_cast<int>(budget) * 30 + 100;
    while (budget > 0 && attempts_left-- > 0) {
        const int u = random.range(0, n - 1);
        const int v = random.range(0, n - 1);
        if (u != v && g.add_edge_if_absent(u, v)) --budget;
    }
    return g;
}

}  // namespace qubikos
