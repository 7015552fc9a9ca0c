// Quality-regression tests: not just "is the output valid" but "is it
// good". These lock in the qualitative behaviours the paper's evaluation
// depends on; loosening them should be a conscious decision.
#include <gtest/gtest.h>

#include "arch/architectures.hpp"
#include "core/qubikos.hpp"
#include "router/mlqls.hpp"
#include "router/qmap.hpp"
#include "router/sabre.hpp"
#include "router/tket.hpp"

namespace qubikos {
namespace {

core::benchmark_instance aspen_instance(int swaps, std::uint64_t seed) {
    core::generator_options options;
    options.num_swaps = swaps;
    options.total_two_qubit_gates = 300;
    options.seed = seed;
    return core::generate(arch::aspen4(), options);
}

TEST(quality, sabre_with_trials_reaches_optimum_on_aspen) {
    // Fig. 4(a): LightSABRE (many trials) is essentially optimal on
    // Aspen-4. 128 trials must reach within 2x on designed n=5 (the
    // paper uses 1000 trials; this instance needs ~100 to hit 5 exactly).
    const auto instance = aspen_instance(5, 2025);
    router::sabre_options options;
    options.trials = 128;
    options.seed = 9;
    const auto device = arch::aspen4();
    const distance_provider dist(device.coupling);
    const auto routed = router::route_sabre(instance.logical, device.coupling, dist, options);
    EXPECT_LE(routed.swap_count(), 10u);
}

TEST(quality, sabre_routing_from_optimal_mapping_is_optimal_on_small_instances) {
    // Sec. IV-C mode: from the optimal initial mapping, SABRE routing
    // should land on (or extremely close to) the optimal count.
    const auto device = arch::aspen4();
    const distance_provider dist(device.coupling);
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const auto instance = aspen_instance(5, seed);
        const auto routed = router::route_sabre(instance.logical, device.coupling, dist, {},
                                                &instance.answer.initial);
        EXPECT_LE(routed.swap_count(), static_cast<std::size_t>(instance.optimal_swaps) + 2)
            << "seed " << seed;
    }
}

TEST(quality, tool_ordering_on_sycamore) {
    // The paper's central finding restated: SABRE-family beats the
    // slice/layer routers on QUBIKOS. Averaged over a few instances to
    // be robust to draws.
    const auto device = arch::sycamore54();
    const distance_provider dist(device.coupling);
    std::size_t sabre_total = 0;
    std::size_t tket_total = 0;
    std::size_t qmap_total = 0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        core::generator_options options;
        options.num_swaps = 10;
        options.total_two_qubit_gates = 1000;
        options.seed = seed;
        const auto instance = core::generate(device, options);
        router::sabre_options sabre;
        sabre.trials = 12;
        sabre_total +=
            router::route_sabre(instance.logical, device.coupling, dist, sabre).swap_count();
        tket_total += router::route_tket(instance.logical, device.coupling, dist).swap_count();
        qmap_total += router::route_qmap(instance.logical, device.coupling, dist).swap_count();
    }
    EXPECT_LT(sabre_total, tket_total);
    EXPECT_LT(sabre_total, qmap_total);
}

TEST(quality, gap_grows_with_architecture_size) {
    // Sec. IV-B: the same tool's gap grows from Aspen-4 to Sycamore.
    const auto measure = [](const arch::architecture& device, std::size_t gates) {
        const distance_provider dist(device.coupling);
        double total_ratio = 0.0;
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            core::generator_options options;
            options.num_swaps = 10;
            options.total_two_qubit_gates = gates;
            options.seed = seed;
            const auto instance = core::generate(device, options);
            router::sabre_options sabre;
            sabre.trials = 8;
            const auto routed =
                router::route_sabre(instance.logical, device.coupling, dist, sabre);
            total_ratio += static_cast<double>(routed.swap_count()) / 10.0;
        }
        return total_ratio / 3.0;
    };
    const double aspen_gap = measure(arch::aspen4(), 300);
    const double sycamore_gap = measure(arch::sycamore54(), 1000);
    EXPECT_LT(aspen_gap, sycamore_gap);
}

TEST(quality, mlqls_beats_naive_sabre_single_trial_on_structure) {
    // The multilevel placement must be worth something: against a single
    // random-initial SABRE trial, ML-QLS (4 V-cycles) should win on
    // structured instances more often than not.
    const auto device = arch::sycamore54();
    const distance_provider dist(device.coupling);
    int mlqls_wins = 0;
    const int rounds = 5;
    for (std::uint64_t seed = 1; seed <= rounds; ++seed) {
        core::generator_options options;
        options.num_swaps = 10;
        options.total_two_qubit_gates = 800;
        options.seed = seed;
        const auto instance = core::generate(device, options);
        router::sabre_options single;
        single.trials = 1;
        single.seed = seed + 9000;  // independent of the instance seed
        const auto sabre =
            router::route_sabre(instance.logical, device.coupling, dist, single);
        router::mlqls_options mlqls;
        mlqls.seed = seed + 9000;
        const auto ml = router::route_mlqls(instance.logical, device.coupling, dist, mlqls);
        if (ml.swap_count() <= sabre.swap_count()) ++mlqls_wins;
    }
    EXPECT_GE(mlqls_wins, (rounds + 1) / 2);
}

TEST(quality, exact_witness_is_never_beaten_by_heuristics) {
    // Sanity on optimality: no tool may ever use fewer swaps than the
    // certified optimum.
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const auto instance = aspen_instance(5, seed * 17);
        const auto device = arch::aspen4();
        const distance_provider dist(device.coupling);
        router::sabre_options sabre;
        sabre.trials = 32;
        sabre.seed = seed;
        const auto tools = {
            router::route_sabre(instance.logical, device.coupling, dist, sabre),
            router::route_tket(instance.logical, device.coupling, dist),
            router::route_qmap(instance.logical, device.coupling, dist),
            router::route_mlqls(instance.logical, device.coupling, dist, router::mlqls_options{}),
        };
        for (const auto& routed : tools) {
            EXPECT_GE(routed.swap_count(), static_cast<std::size_t>(instance.optimal_swaps));
        }
    }
}

TEST(quality, standalone_router_entry_points_respect_initial_mapping) {
    const auto instance = aspen_instance(5, 3);
    const auto& device = arch::aspen4();
    const distance_provider dist(device.coupling);
    const mapping& optimal = instance.answer.initial;

    const auto tket = router::route_tket(instance.logical, device.coupling, dist, {}, &optimal);
    EXPECT_EQ(tket.initial.program_to_physical(), optimal.program_to_physical());
    EXPECT_TRUE(validate_routed(instance.logical, tket, device.coupling).valid);

    const auto qmap = router::route_qmap(instance.logical, device.coupling, dist, {}, &optimal);
    EXPECT_EQ(qmap.initial.program_to_physical(), optimal.program_to_physical());
    EXPECT_TRUE(validate_routed(instance.logical, qmap, device.coupling).valid);
}

}  // namespace
}  // namespace qubikos
