// Placement-quality decomposition (extension analysis).
//
// The standalone_routing experiment shows routing from the planted
// mapping is near-optimal, so the Fig. 4 gaps must come from placement. This bench
// quantifies that directly: for each tool, compare its *chosen* initial
// mapping against the planted optimal one — exact-match fraction,
// token-swap distance (operational cost of the placement error on the
// coupling graph) and preserved adjacency. It explains, mechanically, why
// trial count is LightSABRE's dominant lever on QUBIKOS.
#include <cstdio>

#include "arch/architectures.hpp"
#include "bench_common.hpp"
#include "core/qubikos.hpp"
#include "eval/placement.hpp"
#include "router/common.hpp"
#include "router/mlqls.hpp"
#include "router/sabre.hpp"
#include "util/table.hpp"

int main() {
    using namespace qubikos;
    bench::print_header("Placement quality vs the planted optimal mapping",
                        "extension analysis of Sec. IV-B/IV-C (placement dominates the gap)");

    int per_config = 5;
    int trials = 32;
    switch (bench::bench_scale()) {
        case bench::scale::smoke:
            per_config = 2;
            trials = 8;
            break;
        case bench::scale::standard: break;
        case bench::scale::paper:
            per_config = 20;
            trials = 1000;
            break;
    }

    ascii_table table({"arch", "placer", "exact match", "token-swap dist", "adjacency kept",
                       "swaps used"});
    csv::writer raw({"arch", "placer", "seed", "exact_match", "token_distance",
                     "adjacency", "swaps"});

    for (const auto& device : {arch::aspen4(), arch::sycamore54()}) {
        struct accumulator {
            double match = 0, adjacency = 0, swaps = 0;
            double distance = 0;
        };
        accumulator sabre_acc, mlqls_acc, greedy_acc;

        for (int seed = 1; seed <= per_config; ++seed) {
            core::generator_options options;
            options.num_swaps = 10;
            options.total_two_qubit_gates = device.num_qubits() > 20 ? 1000 : 300;
            options.seed = static_cast<std::uint64_t>(seed) * 31;
            const auto instance = core::generate(device, options);
            const mapping& planted = instance.answer.initial;

            const auto record = [&](const char* name, accumulator& acc,
                                    const mapping& chosen, std::size_t swaps) {
                const auto q = eval::compare_placements(instance.logical, device.coupling,
                                                        chosen, planted);
                acc.match += q.exact_match;
                acc.distance += static_cast<double>(q.token_swap_distance);
                acc.adjacency += q.adjacency_preserved;
                acc.swaps += static_cast<double>(swaps);
                raw.add(device.name, name, seed, q.exact_match, q.token_swap_distance,
                        q.adjacency_preserved, swaps);
            };

            const distance_provider dist(device.coupling);
            router::sabre_options so;
            so.trials = trials;
            const auto sabre = router::route_sabre(instance.logical, device.coupling, dist, so);
            record("lightsabre", sabre_acc, sabre.initial, sabre.swap_count());

            router::mlqls_options mo;
            const auto ml = router::route_mlqls(instance.logical, device.coupling, dist, mo);
            record("mlqls", mlqls_acc, ml.initial, ml.swap_count());

            const mapping greedy =
                router::greedy_placement(instance.logical, device.coupling, dist);
            const auto greedy_routed =
                router::route_sabre(instance.logical, device.coupling, dist, {}, &greedy);
            record("greedy+route", greedy_acc, greedy, greedy_routed.swap_count());
        }

        const auto row = [&](const char* name, const accumulator& acc) {
            table.add(device.name, name,
                      ascii_table::num(acc.match / per_config * 100.0, 1) + "%",
                      ascii_table::num(acc.distance / per_config, 1),
                      ascii_table::num(acc.adjacency / per_config * 100.0, 1) + "%",
                      ascii_table::num(acc.swaps / per_config, 1));
        };
        row("lightsabre", sabre_acc);
        row("mlqls", mlqls_acc);
        row("greedy+route", greedy_acc);
    }
    std::printf("%s\n", table.str().c_str());
    std::printf("reading: a tool whose mapping preserves the planted adjacency needs few\n"
                "swaps; token-swap distance prices the placement error in SWAP units.\n");
    bench::save_results(raw, "placement_quality");
    return 0;
}
