// End-to-end smoke tests: the generator's designed swap count must agree
// with both exact engines on small architectures. This is the paper's own
// validation loop (Sec. IV-A) in miniature.
#include <gtest/gtest.h>

#include "arch/architectures.hpp"
#include "core/qubikos.hpp"
#include "core/verifier.hpp"
#include "exact/brute.hpp"
#include "exact/olsq.hpp"

namespace qubikos {
namespace {

TEST(smoke, generator_line4_one_swap_verified_by_both_exact_engines) {
    const auto device = arch::line(4);
    core::generator_options options;
    options.num_swaps = 1;
    options.seed = 7;
    const auto instance = core::generate(device, options);

    const auto report = core::verify_structure(instance, device);
    ASSERT_TRUE(report.valid) << report.error;

    const auto brute = exact::brute_force_optimal_swaps(instance.logical, device.coupling);
    ASSERT_TRUE(brute.solved);
    EXPECT_EQ(brute.optimal_swaps, 1);

    const auto olsq = exact::certify(instance.logical, device.coupling, 3);
    ASSERT_TRUE(olsq.fewest.proven);
    EXPECT_EQ(olsq.fewest.swaps, 1);
}

TEST(smoke, generator_grid2x3_two_swaps_verified) {
    const auto device = arch::grid(2, 3);
    core::generator_options options;
    options.num_swaps = 2;
    options.seed = 3;
    const auto instance = core::generate(device, options);

    const auto report = core::verify_structure(instance, device);
    ASSERT_TRUE(report.valid) << report.error;

    const auto brute = exact::brute_force_optimal_swaps(instance.logical, device.coupling);
    ASSERT_TRUE(brute.solved);
    EXPECT_EQ(brute.optimal_swaps, 2);

    const auto olsq = exact::certify(instance.logical, device.coupling, 4);
    ASSERT_TRUE(olsq.fewest.proven);
    EXPECT_EQ(olsq.fewest.swaps, 2);
}

}  // namespace
}  // namespace qubikos
