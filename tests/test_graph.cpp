// Tests for the graph substrate: core graph type, BFS orders, distances,
// connectivity utilities, automorphism orbits.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <thread>

#include "arch/architectures.hpp"
#include "graph/automorphism.hpp"
#include "graph/bfs.hpp"
#include "graph/connectivity.hpp"
#include "graph/distance.hpp"
#include "graph/graph.hpp"
#include "graph_families.hpp"
#include "util/rng.hpp"

namespace qubikos {
namespace {

TEST(graph, edges_and_degrees) {
    graph g(4);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    EXPECT_EQ(g.num_vertices(), 4);
    EXPECT_EQ(g.num_edges(), 2);
    EXPECT_TRUE(g.has_edge(0, 1));
    EXPECT_TRUE(g.has_edge(1, 0));
    EXPECT_FALSE(g.has_edge(0, 2));
    EXPECT_FALSE(g.has_edge(0, 0));
    EXPECT_EQ(g.degree(1), 2);
    EXPECT_EQ(g.degree(3), 0);
    EXPECT_EQ(g.max_degree(), 2);
}

TEST(graph, rejects_bad_edges) {
    graph g(3);
    g.add_edge(0, 1);
    EXPECT_THROW(g.add_edge(0, 1), std::invalid_argument);   // duplicate
    EXPECT_THROW(g.add_edge(1, 0), std::invalid_argument);   // reversed duplicate
    EXPECT_THROW(g.add_edge(0, 0), std::invalid_argument);   // self loop
    EXPECT_THROW(g.add_edge(0, 3), std::out_of_range);       // out of range
    EXPECT_THROW(g.add_edge(-1, 0), std::out_of_range);
    EXPECT_FALSE(g.add_edge_if_absent(0, 1));
    EXPECT_TRUE(g.add_edge_if_absent(1, 2));
}

TEST(graph, edge_normalization) {
    const edge e(3, 1);
    EXPECT_EQ(e.a, 1);
    EXPECT_EQ(e.b, 3);
    EXPECT_EQ(e, edge(1, 3));
}

TEST(bfs, edge_order_covers_component_and_chains) {
    rng random(5);
    for (int trial = 0; trial < 30; ++trial) {
        const graph g = random_connected_graph(random.range(2, 12), random.range(0, 8), random);
        const int source = random.range(0, g.num_vertices() - 1);
        const auto order = bfs_edge_order(g, {source});
        ASSERT_EQ(order.size(), static_cast<std::size_t>(g.num_edges()));
        // Property used by Algorithm 2: every emitted edge shares an
        // endpoint with an earlier edge or contains the source.
        std::set<int> touched{source};
        for (const auto& e : order) {
            EXPECT_TRUE(touched.count(e.a) || touched.count(e.b))
                << "edge (" << e.a << "," << e.b << ") disconnected from prefix";
            touched.insert(e.a);
            touched.insert(e.b);
        }
    }
}

TEST(bfs, distances_and_unreachable) {
    graph g(5);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    const auto dist = bfs_distances(g, {0});
    EXPECT_EQ(dist[0], 0);
    EXPECT_EQ(dist[1], 1);
    EXPECT_EQ(dist[2], 2);
    EXPECT_EQ(dist[3], -1);
    EXPECT_THROW(bfs_distances(g, {}), std::invalid_argument);
    EXPECT_THROW(bfs_distances(g, {9}), std::out_of_range);
}

TEST(bfs, shortest_path_endpoints) {
    const graph g = arch::grid(3, 3).coupling;
    const auto path = shortest_path(g, 0, 8);
    ASSERT_EQ(path.size(), 5u);  // manhattan distance 4
    EXPECT_EQ(path.front(), 0);
    EXPECT_EQ(path.back(), 8);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        EXPECT_TRUE(g.has_edge(path[i], path[i + 1]));
    }

    graph disconnected(4);
    disconnected.add_edge(0, 1);
    EXPECT_TRUE(shortest_path(disconnected, 0, 3).empty());
}

TEST(distance_matrix, matches_bfs) {
    rng random(17);
    for (int trial = 0; trial < 10; ++trial) {
        const graph g = random_connected_graph(random.range(2, 15), random.range(0, 10), random);
        const distance_matrix dist(g);
        for (int v = 0; v < g.num_vertices(); ++v) {
            const auto row = bfs_distances(g, {v});
            for (int u = 0; u < g.num_vertices(); ++u) {
                EXPECT_EQ(dist(v, u), row[static_cast<std::size_t>(u)]);
            }
        }
    }
}

TEST(distance_matrix, diameter_of_known_graphs) {
    EXPECT_EQ(distance_matrix(arch::line(6).coupling).diameter(), 5);
    EXPECT_EQ(distance_matrix(arch::ring(6).coupling).diameter(), 3);
    EXPECT_EQ(distance_matrix(arch::grid(3, 4).coupling).diameter(), 5);
    EXPECT_EQ(distance_matrix(complete_graph(5)).diameter(), 1);
}

TEST(distance_provider, lazy_matches_dense_values_and_diameter) {
    rng random(41);
    distance_options lazy_opts;
    lazy_opts.mode = distance_options::storage_mode::lazy;
    for (int trial = 0; trial < 10; ++trial) {
        const graph g = random_connected_graph(random.range(2, 20), random.range(0, 12), random);
        const distance_matrix dense(g);
        const distance_provider lazy(g, lazy_opts);
        ASSERT_TRUE(lazy.is_lazy());
        for (int v = 0; v < g.num_vertices(); ++v) {
            for (int u = 0; u < g.num_vertices(); ++u) {
                EXPECT_EQ(lazy(v, u), dense(v, u));
            }
        }
        // The stagnation escape's threshold derives from diameter(); lazy
        // and dense must agree exactly or routing would diverge by mode.
        EXPECT_EQ(lazy.diameter(), dense.diameter());
    }
}

TEST(distance_provider, mode_selection_by_threshold_and_force) {
    const graph small = arch::grid(4, 4).coupling;  // 16 vertices
    // The automatic default flips to lazy rows at exactly 512 vertices.
    const graph below = arch::line(distance_options::kLazyThreshold - 1).coupling;
    const graph at = arch::line(distance_options::kLazyThreshold).coupling;
    EXPECT_EQ(distance_options::kLazyThreshold, 512);
    EXPECT_FALSE(distance_provider(small).is_lazy());
    EXPECT_FALSE(distance_provider(below).is_lazy());
    EXPECT_TRUE(distance_provider(at).is_lazy());

    distance_options forced_dense;
    forced_dense.mode = distance_options::storage_mode::dense;
    EXPECT_FALSE(distance_provider(at, forced_dense).is_lazy());

    distance_options forced_lazy;
    forced_lazy.mode = distance_options::storage_mode::lazy;
    EXPECT_TRUE(distance_provider(small, forced_lazy).is_lazy());
}

TEST(distance_provider, lazy_builds_rows_on_demand_only) {
    const graph g = arch::grid(5, 5).coupling;
    distance_options opts;
    opts.mode = distance_options::storage_mode::lazy;
    const distance_provider dist(g, opts);
    const auto from_3 = bfs_distances(g, {3});
    EXPECT_EQ(dist.rows_built(), 0u);
    EXPECT_EQ(dist(3, 7), from_3[7]);
    EXPECT_EQ(dist.rows_built(), 1u);
    EXPECT_EQ(dist(3, 21), from_3[21]);  // same source: row is reused
    EXPECT_EQ(dist.rows_built(), 1u);
    (void)dist.row(9);
    EXPECT_EQ(dist.rows_built(), 2u);
    const distance_provider dense(g);
    EXPECT_FALSE(dense.is_lazy());
    EXPECT_TRUE(dist.is_lazy());
}

TEST(distance_provider, concurrent_lazy_queries_are_consistent) {
    rng random(53);
    const graph g = random_connected_graph(60, 40, random);
    const distance_matrix dense(g);
    distance_options opts;
    opts.mode = distance_options::storage_mode::lazy;
    const distance_provider lazy(g, opts);
    // Four threads race to materialize overlapping rows; every read must
    // equal the dense answer regardless of which thread built the row.
    std::vector<std::thread> workers;
    std::vector<int> mismatches(4, 0);
    for (int t = 0; t < 4; ++t) {
        workers.emplace_back([&, t] {
            for (int v = t; v < g.num_vertices(); v += 2) {
                for (int u = 0; u < g.num_vertices(); ++u) {
                    if (lazy(v, u) != dense(v, u)) ++mismatches[static_cast<std::size_t>(t)];
                }
            }
        });
    }
    for (auto& w : workers) w.join();
    for (const int m : mismatches) EXPECT_EQ(m, 0);
    EXPECT_EQ(lazy.rows_built(), static_cast<std::size_t>(g.num_vertices()));
}

TEST(connectivity, components) {
    graph g(6);
    g.add_edge(0, 1);
    g.add_edge(2, 3);
    g.add_edge(3, 4);
    const auto labels = connected_components(g);
    EXPECT_EQ(labels[0], labels[1]);
    EXPECT_EQ(labels[2], labels[3]);
    EXPECT_EQ(labels[3], labels[4]);
    EXPECT_NE(labels[0], labels[2]);
    EXPECT_NE(labels[5], labels[0]);
    EXPECT_NE(labels[5], labels[2]);
    EXPECT_FALSE(is_connected(g));
    EXPECT_TRUE(is_connected(arch::line(4).coupling));
    EXPECT_TRUE(is_connected(graph(1)));
    EXPECT_TRUE(is_connected(graph(0)));
}

TEST(connectivity, connect_components_properties) {
    rng random(23);
    for (int trial = 0; trial < 40; ++trial) {
        const graph allowed = random_connected_graph(random.range(4, 14), random.range(2, 10), random);
        // Random existing edge set drawn from allowed edges.
        std::vector<edge> existing;
        std::vector<int> terminals;
        for (const auto& e : allowed.edges()) {
            if (random.chance(0.3)) existing.push_back(e);
        }
        for (int v = 0; v < allowed.num_vertices(); ++v) {
            if (random.chance(0.4)) terminals.push_back(v);
        }
        if (terminals.empty()) terminals.push_back(0);

        const auto patch = connect_components(allowed, existing, terminals);
        // Every patch edge must be an allowed edge.
        for (const auto& e : patch) EXPECT_TRUE(allowed.has_edge(e.a, e.b));
        // existing + patch must connect all terminals.
        graph combined(allowed.num_vertices());
        for (const auto& e : existing) combined.add_edge_if_absent(e.a, e.b);
        for (const auto& e : patch) combined.add_edge_if_absent(e.a, e.b);
        const auto labels = connected_components(combined);
        for (const int t : terminals) {
            EXPECT_EQ(labels[static_cast<std::size_t>(t)],
                      labels[static_cast<std::size_t>(terminals.front())]);
        }
    }
}

TEST(connectivity, connect_components_impossible) {
    graph allowed(4);
    allowed.add_edge(0, 1);
    allowed.add_edge(2, 3);
    EXPECT_THROW(connect_components(allowed, {}, {0, 3}), std::runtime_error);
}

TEST(gen, random_connected_graph_is_connected) {
    rng random(31);
    for (int trial = 0; trial < 20; ++trial) {
        const int n = random.range(1, 20);
        const graph g = random_connected_graph(n, random.range(0, 10), random);
        EXPECT_EQ(g.num_vertices(), n);
        EXPECT_TRUE(is_connected(g));
        EXPECT_GE(g.num_edges(), n - 1);
    }
}

/// automorphism_orbits as a set of orbits.
std::set<std::set<int>> orbits_of(const graph& g, const std::vector<int>& fixed,
                                  std::uint64_t budget = kAutomorphismNodeBudget) {
    const distance_provider dist(g);
    const std::vector<int> orbit = automorphism_orbits(g, dist, fixed, budget);
    std::vector<std::set<int>> by_min(orbit.size());
    for (std::size_t v = 0; v < orbit.size(); ++v) {
        EXPECT_LE(orbit[v], static_cast<int>(v));  // the smallest vertex names the orbit
        by_min[static_cast<std::size_t>(orbit[v])].insert(static_cast<int>(v));
    }
    std::set<std::set<int>> out;
    for (auto& o : by_min) {
        if (!o.empty()) out.insert(std::move(o));
    }
    return out;
}

std::set<std::set<int>> identity_orbits(int n) {
    std::set<std::set<int>> out;
    for (int v = 0; v < n; ++v) out.insert({v});
    return out;
}

TEST(automorphism_orbits, aspen4_has_four_orbits_of_four) {
    const std::set<std::set<int>> expected{
        {0, 3, 12, 15}, {1, 2, 13, 14}, {4, 7, 8, 11}, {5, 6, 9, 10}};
    EXPECT_EQ(orbits_of(arch::aspen4().coupling, {}), expected);
}

TEST(automorphism_orbits, grid3x3_free_and_with_a_corner_fixed) {
    const graph& g = arch::grid(3, 3).coupling;
    const std::set<std::set<int>> free{{0, 2, 6, 8}, {1, 3, 5, 7}, {4}};
    EXPECT_EQ(orbits_of(g, {}), free);
    // Fixing corner 0 leaves the reflection through the 0-4-8 diagonal.
    const std::set<std::set<int>> corner{{0}, {1, 3}, {2, 6}, {5, 7}, {4}, {8}};
    EXPECT_EQ(orbits_of(g, {0}), corner);
}

TEST(automorphism_orbits, asymmetric_graph_and_spent_budget_give_identity) {
    EXPECT_EQ(orbits_of(asymmetric_graph(), {}), identity_orbits(6));
    EXPECT_EQ(orbits_of(arch::grid(3, 3).coupling, {}, 1), identity_orbits(9));
    EXPECT_EQ(orbits_of(arch::aspen4().coupling, {}, 1), identity_orbits(16));
}

TEST(automorphism_orbits, match_every_permutation_on_small_graphs) {
    // Oracle: the orbit of v is every vertex some automorphism sends v
    // to, so its smallest vertex is the least image over all vertex
    // permutations that fix `fixed` and keep the edge set.
    rng random(17);
    for (int trial = 0; trial < 40; ++trial) {
        const int n = random.range(1, 7);
        const graph g =
            trial % 4 == 0 ? graph(n) : random_connected_graph(n, random.range(0, 4), random);
        std::vector<int> fixed;
        if (trial % 3 == 0) fixed.push_back(random.range(0, n - 1));
        std::vector<int> perm(static_cast<std::size_t>(n));
        std::iota(perm.begin(), perm.end(), 0);
        std::vector<int> least = perm;
        do {
            const bool keeps_fixed = std::all_of(fixed.begin(), fixed.end(), [&](int f) {
                return perm[static_cast<std::size_t>(f)] == f;
            });
            const bool keeps_edges = std::all_of(g.edges().begin(), g.edges().end(), [&](edge e) {
                return g.has_edge(perm[static_cast<std::size_t>(e.a)],
                                  perm[static_cast<std::size_t>(e.b)]);
            });
            if (!keeps_fixed || !keeps_edges) continue;
            for (std::size_t v = 0; v < perm.size(); ++v) least[v] = std::min(least[v], perm[v]);
        } while (std::next_permutation(perm.begin(), perm.end()));
        const distance_provider dist(g);
        EXPECT_EQ(automorphism_orbits(g, dist, fixed), least) << g.describe();
    }
}

}  // namespace
}  // namespace qubikos
