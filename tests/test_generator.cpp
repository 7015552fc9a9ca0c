// Property tests for the QUBIKOS generator — the paper's own validation
// loop (Sec. IV-A): every generated instance must pass structural
// verification, and on small architectures both exact engines must
// confirm the designed SWAP count exactly.
#include <gtest/gtest.h>

#include "arch/architectures.hpp"
#include "circuit/qasm.hpp"
#include "core/qubikos.hpp"
#include "core/verifier.hpp"
#include "exact/brute.hpp"
#include "exact/olsq.hpp"

namespace qubikos {
namespace {

struct generator_case {
    const char* arch;
    int swaps;
    std::uint64_t seed;
};

void PrintTo(const generator_case& c, std::ostream* os) {
    *os << c.arch << "/n" << c.swaps << "/s" << c.seed;
}

class generator_small : public ::testing::TestWithParam<generator_case> {};

TEST_P(generator_small, designed_count_confirmed_by_both_exact_engines) {
    const auto& param = GetParam();
    const auto device = arch::by_name(param.arch);
    core::generator_options options;
    options.num_swaps = param.swaps;
    options.seed = param.seed;
    options.total_two_qubit_gates = 20;
    options.single_qubit_rate = 0.15;
    const auto instance = core::generate(device, options);

    const auto structure = core::verify_structure(instance, device);
    ASSERT_TRUE(structure.valid) << structure.error;

    const auto brute =
        exact::brute_force_optimal_swaps(instance.logical, device.coupling, {.max_swaps = 7});
    ASSERT_TRUE(brute.solved);
    EXPECT_EQ(brute.optimal_swaps, param.swaps);

    const auto olsq = exact::certify(instance.logical, device.coupling, param.swaps + 1);
    ASSERT_TRUE(olsq.fewest.proven);
    EXPECT_EQ(olsq.fewest.swaps, param.swaps);
}

INSTANTIATE_TEST_SUITE_P(
    sweep, generator_small,
    ::testing::Values(generator_case{"line4", 1, 1}, generator_case{"line4", 2, 2},
                      generator_case{"line5", 1, 3}, generator_case{"line5", 3, 4},
                      generator_case{"ring5", 2, 5}, generator_case{"ring6", 2, 6},
                      generator_case{"grid2x3", 1, 7}, generator_case{"grid2x3", 2, 8},
                      generator_case{"grid2x3", 3, 9}, generator_case{"line6", 2, 10}));

class generator_platforms : public ::testing::TestWithParam<generator_case> {};

TEST_P(generator_platforms, structure_verified_on_paper_platforms) {
    const auto& param = GetParam();
    const auto device = arch::by_name(param.arch);
    core::generator_options options;
    options.num_swaps = param.swaps;
    options.seed = param.seed;
    options.total_two_qubit_gates = 400;
    const auto instance = core::generate(device, options);

    const auto structure = core::verify_structure(instance, device);
    EXPECT_TRUE(structure.valid) << structure.error;
    EXPECT_EQ(instance.optimal_swaps, param.swaps);
    EXPECT_GE(instance.logical.num_two_qubit_gates(), 400u);
    EXPECT_EQ(instance.sections.size(), static_cast<std::size_t>(param.swaps));
}

INSTANTIATE_TEST_SUITE_P(
    sweep, generator_platforms,
    ::testing::Values(generator_case{"aspen4", 5, 11}, generator_case{"aspen4", 10, 12},
                      generator_case{"sycamore54", 5, 13}, generator_case{"sycamore54", 15, 14},
                      generator_case{"rochester53", 10, 15}, generator_case{"eagle127", 5, 16},
                      generator_case{"grid3x3", 4, 17}));

TEST(generator, deterministic_for_equal_seeds) {
    const auto device = arch::aspen4();
    core::generator_options options;
    options.num_swaps = 3;
    options.seed = 77;
    options.total_two_qubit_gates = 100;
    const auto a = core::generate(device, options);
    const auto b = core::generate(device, options);
    ASSERT_EQ(a.logical.size(), b.logical.size());
    for (std::size_t i = 0; i < a.logical.size(); ++i) EXPECT_EQ(a.logical[i], b.logical[i]);
    EXPECT_EQ(a.answer.initial.program_to_physical(), b.answer.initial.program_to_physical());
    EXPECT_EQ(qasm::write(a.answer.physical), qasm::write(b.answer.physical));
}

TEST(generator, different_seeds_differ) {
    const auto device = arch::aspen4();
    core::generator_options options;
    options.num_swaps = 3;
    options.total_two_qubit_gates = 100;
    options.seed = 1;
    const auto a = core::generate(device, options);
    options.seed = 2;
    const auto b = core::generate(device, options);
    EXPECT_NE(qasm::write(a.logical), qasm::write(b.logical));
}

TEST(generator, padding_reaches_target_count) {
    const auto device = arch::sycamore54();
    core::generator_options options;
    options.num_swaps = 5;
    options.seed = 5;
    options.total_two_qubit_gates = 1500;
    const auto instance = core::generate(device, options);
    EXPECT_GE(instance.logical.num_two_qubit_gates(), 1500u);
    EXPECT_EQ(instance.logical.num_swap_gates(), 0u);  // logical circuit has no swaps
    EXPECT_EQ(instance.answer.physical.num_swap_gates(), 5u);
}

TEST(generator, single_qubit_decoration) {
    const auto device = arch::aspen4();
    core::generator_options options;
    options.num_swaps = 2;
    options.seed = 3;
    options.total_two_qubit_gates = 60;
    options.single_qubit_rate = 0.5;
    const auto instance = core::generate(device, options);
    EXPECT_GE(instance.logical.num_single_qubit_gates(), 25u);
    // Decoration must not break anything.
    const auto structure = core::verify_structure(instance, device);
    EXPECT_TRUE(structure.valid) << structure.error;
}

TEST(generator, zero_swaps_gives_executable_circuit) {
    const auto device = arch::grid(2, 3);
    core::generator_options options;
    options.num_swaps = 0;
    options.seed = 9;
    options.total_two_qubit_gates = 30;
    const auto instance = core::generate(device, options);
    EXPECT_EQ(instance.optimal_swaps, 0);
    const auto report =
        validate_routed(instance.logical, instance.answer, device.coupling);
    EXPECT_TRUE(report.valid) << report.error;
    EXPECT_EQ(report.swap_count, 0u);
    const auto brute = exact::brute_force_optimal_swaps(instance.logical, device.coupling);
    ASSERT_TRUE(brute.solved);
    EXPECT_EQ(brute.optimal_swaps, 0);
}

TEST(generator, rejects_bad_arguments) {
    const auto device = arch::line(4);
    core::generator_options options;
    options.num_swaps = -1;
    EXPECT_THROW((void)core::generate(device, options), core::generator_error);
    options.num_swaps = 1;
    options.single_qubit_rate = -0.5;
    EXPECT_THROW((void)core::generate(device, options), core::generator_error);

    // Complete graphs admit no forcing swap.
    arch::architecture complete{"k4", graph(4)};
    for (int i = 0; i < 4; ++i) {
        for (int j = i + 1; j < 4; ++j) complete.coupling.add_edge(i, j);
    }
    core::generator_options one;
    one.num_swaps = 1;
    EXPECT_THROW((void)core::generate(complete, one), core::generator_error);
}

TEST(generator, sections_record_swap_edges_in_order) {
    const auto device = arch::rochester53();
    core::generator_options options;
    options.num_swaps = 4;
    options.seed = 21;
    const auto instance = core::generate(device, options);
    ASSERT_EQ(instance.sections.size(), 4u);
    // The answer's swap gates must appear in section order.
    std::size_t section_index = 0;
    for (const auto& g : instance.answer.physical.gates()) {
        if (!g.is_swap()) continue;
        ASSERT_LT(section_index, instance.sections.size());
        EXPECT_EQ(edge(g.q0, g.q1), instance.sections[section_index].swap_physical);
        ++section_index;
    }
    EXPECT_EQ(section_index, 4u);
}

}  // namespace
}  // namespace qubikos
