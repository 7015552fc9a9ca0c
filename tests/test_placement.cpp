// Placement-quality metric tests, plus the extra architectures.
#include <gtest/gtest.h>

#include "arch/architectures.hpp"
#include "core/qubikos.hpp"
#include "eval/placement.hpp"
#include "graph/connectivity.hpp"
#include "util/rng.hpp"

namespace qubikos {
namespace {

TEST(placement, identical_mappings_are_perfect) {
    const auto device = arch::aspen4();
    core::generator_options options;
    options.num_swaps = 3;
    options.seed = 4;
    options.total_two_qubit_gates = 80;
    const auto instance = core::generate(device, options);
    const auto quality = eval::compare_placements(
        instance.logical, device.coupling, instance.answer.initial, instance.answer.initial);
    EXPECT_EQ(quality.program_qubits, 16u);
    EXPECT_EQ(quality.exact_match, quality.program_qubits);
    EXPECT_EQ(quality.token_swap_distance, 0u);
    EXPECT_GT(quality.adjacency_planted, 0u);
    EXPECT_EQ(quality.adjacency_kept, quality.adjacency_planted);
}

TEST(placement, one_swap_away_is_cheap) {
    const auto device = arch::aspen4();
    core::generator_options options;
    options.num_swaps = 2;
    options.seed = 6;
    options.total_two_qubit_gates = 60;
    const auto instance = core::generate(device, options);
    mapping shifted = instance.answer.initial;
    const auto& e = device.coupling.edges().front();
    shifted.swap_physical(e.a, e.b);
    const auto quality = eval::compare_placements(instance.logical, device.coupling, shifted,
                                                  instance.answer.initial);
    // One swap moves at most two program qubits.
    EXPECT_EQ(quality.program_qubits, 16u);
    EXPECT_LT(quality.exact_match, quality.program_qubits);
    EXPECT_GE(quality.exact_match + 2, quality.program_qubits);
    EXPECT_LE(quality.adjacency_kept, quality.adjacency_planted);
    EXPECT_GE(quality.token_swap_distance, 1u);
    EXPECT_LE(quality.token_swap_distance, 3u);
}

TEST(placement, random_mapping_scores_poorly) {
    const auto device = arch::rochester53();
    core::generator_options options;
    options.num_swaps = 5;
    options.seed = 9;
    options.total_two_qubit_gates = 400;
    const auto instance = core::generate(device, options);
    rng random(123);
    const mapping shuffled = mapping::random(53, 53, random);
    const auto quality = eval::compare_placements(instance.logical, device.coupling, shuffled,
                                                  instance.answer.initial);
    EXPECT_EQ(quality.program_qubits, 53u);
    EXPECT_LT(quality.exact_match * 10, quality.program_qubits * 3);  // under 30%
    EXPECT_GT(quality.token_swap_distance, 10u);
    EXPECT_LT(quality.adjacency_kept * 2, quality.adjacency_planted);  // under half
}

TEST(placement, shape_mismatch_rejected) {
    const auto device = arch::aspen4();
    EXPECT_THROW((void)eval::compare_placements(circuit(3), device.coupling,
                                                mapping::identity(3, 16),
                                                mapping::identity(3, 17)),
                 std::invalid_argument);
}

TEST(arch_extra, tokyo20_shape) {
    const auto a = arch::tokyo20();
    EXPECT_EQ(a.num_qubits(), 20);
    EXPECT_EQ(a.num_couplers(), 43);  // 31 lattice + 12 diagonals
    EXPECT_TRUE(is_connected(a.coupling));
    EXPECT_GE(a.coupling.max_degree(), 5);
}

TEST(arch_extra, guadalupe16_shape) {
    const auto a = arch::guadalupe16();
    EXPECT_EQ(a.num_qubits(), 16);
    EXPECT_EQ(a.num_couplers(), 16);
    EXPECT_TRUE(is_connected(a.coupling));
    EXPECT_EQ(a.coupling.max_degree(), 3);  // heavy-hex style
}

TEST(arch_extra, by_name_covers_new_devices) {
    EXPECT_EQ(arch::by_name("tokyo20").num_qubits(), 20);
    EXPECT_EQ(arch::by_name("guadalupe16").num_qubits(), 16);
}

TEST(arch_extra, generator_works_on_new_devices) {
    for (const auto& device : {arch::tokyo20(), arch::guadalupe16()}) {
        core::generator_options options;
        options.num_swaps = 3;
        options.seed = 11;
        options.total_two_qubit_gates = 120;
        const auto instance = core::generate(device, options);
        const auto report =
            validate_routed(instance.logical, instance.answer, device.coupling);
        EXPECT_TRUE(report.valid) << device.name << ": " << report.error;
        EXPECT_EQ(report.swap_count, 3u);
    }
}

}  // namespace
}  // namespace qubikos
