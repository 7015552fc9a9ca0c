// Tests for VF2 subgraph monomorphism, including a randomized
// cross-check against the exhaustive reference implementation.
#include <gtest/gtest.h>

#include "arch/architectures.hpp"
#include "graph/vf2.hpp"
#include "graph_families.hpp"
#include "util/rng.hpp"

namespace qubikos {
namespace {

TEST(vf2, path_embeds_into_grid) {
    const auto result = find_subgraph_monomorphism(arch::line(5).coupling, arch::grid(2, 3).coupling);
    ASSERT_TRUE(result.found);
    EXPECT_TRUE(check_monomorphism(arch::line(5).coupling, arch::grid(2, 3).coupling, result.mapping));
}

TEST(vf2, cycle_embeds_into_grid_only_if_even) {
    EXPECT_TRUE(is_subgraph_monomorphic(arch::ring(4).coupling, arch::grid(2, 3).coupling));
    // Grids are bipartite: odd cycles cannot embed.
    EXPECT_FALSE(is_subgraph_monomorphic(arch::ring(3).coupling, arch::grid(3, 3).coupling));
    EXPECT_FALSE(is_subgraph_monomorphic(arch::ring(5).coupling, arch::grid(3, 3).coupling));
    EXPECT_TRUE(is_subgraph_monomorphic(arch::ring(6).coupling, arch::grid(3, 3).coupling));
}

TEST(vf2, degree_obstruction) {
    // A degree-5 hub cannot embed into a max-degree-4 grid — the paper's
    // own example of a non-isomorphic interaction graph (Fig. 2(c)).
    EXPECT_FALSE(is_subgraph_monomorphic(star_graph(5), arch::grid(3, 3).coupling));
    EXPECT_TRUE(is_subgraph_monomorphic(star_graph(4), arch::grid(3, 3).coupling));
}

TEST(vf2, pigeonhole_obstruction) {
    // Two degree-3 hubs sharing no vertex vs a graph with only one
    // degree-3 vertex.
    graph pattern(8);
    for (int leaf = 1; leaf <= 3; ++leaf) pattern.add_edge(0, leaf);
    for (int leaf = 5; leaf <= 7; ++leaf) pattern.add_edge(4, leaf);
    const graph target = star_graph(6);  // one degree-6 hub; leaves degree 1
    EXPECT_FALSE(is_subgraph_monomorphic(pattern, target));
}

TEST(vf2, isolated_pattern_vertices_need_only_room) {
    graph pattern(4);
    pattern.add_edge(0, 1);  // vertices 2, 3 isolated
    EXPECT_TRUE(is_subgraph_monomorphic(pattern, arch::line(4).coupling));
    graph small_target(3);
    small_target.add_edge(0, 1);
    small_target.add_edge(1, 2);
    EXPECT_FALSE(is_subgraph_monomorphic(pattern, small_target));  // not enough vertices
}

TEST(vf2, empty_pattern_embeds) {
    EXPECT_TRUE(is_subgraph_monomorphic(graph(0), arch::line(3).coupling));
    EXPECT_TRUE(is_subgraph_monomorphic(graph(2), arch::line(3).coupling));
}

TEST(vf2, mapping_witness_is_checked) {
    const auto result = find_subgraph_monomorphism(arch::ring(4).coupling, arch::grid(3, 3).coupling);
    ASSERT_TRUE(result.found);
    EXPECT_TRUE(check_monomorphism(arch::ring(4).coupling, arch::grid(3, 3).coupling, result.mapping));
    // Corrupt the witness.
    auto bad = result.mapping;
    bad[0] = bad[1];
    EXPECT_FALSE(check_monomorphism(arch::ring(4).coupling, arch::grid(3, 3).coupling, bad));
    EXPECT_FALSE(check_monomorphism(arch::ring(4).coupling, arch::grid(3, 3).coupling, {}));
}

TEST(vf2, node_limit_reports_abort) {
    // A hard instance with a tiny node budget must flag limit_hit instead
    // of concluding.
    rng random(3);
    const graph pattern = random_connected_graph(12, 6, random);
    const graph target = random_connected_graph(20, 40, random);
    vf2_options options;
    options.node_limit = 1;
    const auto result = find_subgraph_monomorphism(pattern, target, options);
    if (!result.found) {
        EXPECT_TRUE(result.limit_hit || result.nodes_explored <= 1);
    }
    EXPECT_THROW(
        {
            vf2_options strict;
            strict.node_limit = 1;
            // Only throws when the limit actually cut the search short.
            const bool answer = is_subgraph_monomorphic(pattern, target, strict);
            (void)answer;
            throw std::runtime_error("searched within one node");
        },
        std::runtime_error);
}

/// Randomized agreement with brute force over seed sweep.
class vf2_random : public ::testing::TestWithParam<int> {};

TEST_P(vf2_random, agrees_with_brute_force) {
    rng random(static_cast<std::uint64_t>(GetParam()));
    for (int trial = 0; trial < 25; ++trial) {
        const int pn = random.range(2, 6);
        const int tn = random.range(pn, 8);
        const graph pattern = random_connected_graph(pn, random.range(0, 4), random);
        const graph target = random_connected_graph(tn, random.range(0, 8), random);
        const auto fast = find_subgraph_monomorphism(pattern, target);
        ASSERT_FALSE(fast.limit_hit);
        const bool slow = brute_force_monomorphic(pattern, target);
        EXPECT_EQ(fast.found, slow) << pattern.describe() << " into " << target.describe();
        if (fast.found) {
            EXPECT_TRUE(check_monomorphism(pattern, target, fast.mapping));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(seeds, vf2_random, ::testing::Range(1, 9));

/// Planted embeddings must always be found.
class vf2_planted : public ::testing::TestWithParam<int> {};

TEST_P(vf2_planted, finds_planted_subgraph) {
    rng random(static_cast<std::uint64_t>(GetParam()) * 77);
    const graph target = random_connected_graph(random.range(6, 14), random.range(4, 14), random);
    // Sample a random subset of target edges as the pattern (relabeled).
    const auto relabel = random.permutation(target.num_vertices());
    graph pattern(target.num_vertices());
    for (const auto& e : target.edges()) {
        if (random.chance(0.5)) {
            pattern.add_edge(relabel[static_cast<std::size_t>(e.a)],
                             relabel[static_cast<std::size_t>(e.b)]);
        }
    }
    const auto result = find_subgraph_monomorphism(pattern, target);
    ASSERT_TRUE(result.found) << "planted embedding missed";
    EXPECT_TRUE(check_monomorphism(pattern, target, result.mapping));
}

INSTANTIATE_TEST_SUITE_P(seeds, vf2_planted, ::testing::Range(1, 13));

}  // namespace
}  // namespace qubikos
