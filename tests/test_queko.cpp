// QUEKO generator tests: swap-free by construction, known depth, solvable
// by subgraph isomorphism (the property QUBIKOS removes).
#include <gtest/gtest.h>

#include "arch/architectures.hpp"
#include "circuit/interaction.hpp"
#include "core/queko.hpp"
#include "exact/brute.hpp"
#include "exact/olsq.hpp"
#include "graph/vf2.hpp"

namespace qubikos {
namespace {

TEST(queko, every_gate_executable_under_hidden_mapping) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const auto device = arch::grid(3, 3);
        core::queko_options options;
        options.depth = 8;
        options.seed = seed;
        const auto instance = core::generate_queko(device, options);
        for (const auto& g : instance.logical.gates()) {
            if (!g.is_two_qubit()) continue;
            EXPECT_TRUE(device.coupling.has_edge(instance.hidden_mapping.physical(g.q0),
                                                 instance.hidden_mapping.physical(g.q1)))
                << "gate not executable in place under the hidden mapping";
        }
    }
}

TEST(queko, depth_matches_design) {
    for (const int depth : {1, 4, 10, 25}) {
        const auto instance =
            core::generate_queko(arch::sycamore54(), {.depth = depth, .density = 0.5, .seed = 3});
        EXPECT_EQ(instance.logical.depth(), depth);
        EXPECT_EQ(instance.optimal_depth, depth);
    }
}

TEST(queko, zero_swaps_confirmed_by_exact_solver) {
    const auto device = arch::grid(2, 3);
    const auto instance = core::generate_queko(device, {.depth = 6, .density = 0.8, .seed = 7});
    const auto brute = exact::brute_force_optimal_swaps(instance.logical, device.coupling);
    ASSERT_TRUE(brute.solved);
    EXPECT_EQ(brute.optimal_swaps, 0);
    const auto olsq = exact::certify(instance.logical, device.coupling, 1);
    ASSERT_TRUE(olsq.fewest.proven);
    EXPECT_EQ(olsq.fewest.swaps, 0);
}

TEST(queko, solvable_by_subgraph_isomorphism) {
    // The QUEKO weakness the paper fixes: the whole interaction graph
    // embeds into the device, so VF2 alone finds a zero-swap mapping.
    const auto device = arch::rochester53();
    const auto instance = core::generate_queko(device, {.depth = 12, .density = 0.5, .seed = 9});
    const graph gi = interaction_graph(instance.logical);
    const auto embedding = find_subgraph_monomorphism(gi, device.coupling, {10'000'000});
    ASSERT_FALSE(embedding.limit_hit);
    EXPECT_TRUE(embedding.found);
}

TEST(queko, argument_validation) {
    EXPECT_THROW((void)core::generate_queko(arch::line(3), {.depth = 0}), std::invalid_argument);
    EXPECT_THROW((void)core::generate_queko(arch::line(3), {.depth = 3, .density = 0.0}),
                 std::invalid_argument);
    EXPECT_THROW((void)core::generate_queko(arch::line(3), {.depth = 3, .density = 1.5}),
                 std::invalid_argument);
}

}  // namespace
}  // namespace qubikos
