// Scaling series: optimality gap vs architecture size (extension).
//
// Sec. IV-B observes the gap growing 1x -> 233.97x across its four
// devices. Because QUBIKOS works on any coupling graph, we can chart the
// trend as a dense series: square grids from 9 to 64 qubits, fixed
// designed swap count, LightSABRE at a fixed trial budget. The paper's
// connectivity claim is also probed by pairing each grid with a
// heavy-hex device of similar size (sparser; expected larger gap).
#include <chrono>
#include <cstdio>

#include "arch/architectures.hpp"
#include "bench_common.hpp"
#include "circuit/circuit.hpp"
#include "circuit/mapping.hpp"
#include "core/qubikos.hpp"
#include "graph/distance.hpp"
#include "router/sabre.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

int main() {
    using namespace qubikos;
    bench::print_header("Scaling: LightSABRE optimality gap vs device size",
                        "extension of Sec. IV-B (gap grows with architecture size)");

    int per_size = 3;
    int trials = 32;
    switch (bench::bench_scale()) {
        case bench::scale::smoke:
            per_size = 1;
            trials = 8;
            break;
        case bench::scale::standard: break;
        case bench::scale::paper:
            per_size = 10;
            trials = 200;
            break;
    }
    constexpr int kSwaps = 8;

    ascii_table table({"device", "qubits", "couplers", "gap (mean over seeds)"});
    csv::writer raw({"device", "qubits", "seed", "swaps", "ratio"});

    std::vector<arch::architecture> devices;
    for (const int side : {3, 4, 5, 6, 7, 8}) devices.push_back(arch::grid(side, side));
    devices.push_back(arch::heavy_hex(3, 9));   // ~31 qubits, sparse
    devices.push_back(arch::heavy_hex(5, 11));  // ~65 qubits, sparse

    for (const auto& device : devices) {
        // One distance provider per device, shared across every seed —
        // the per-seed rebuild used to dominate the small grids.
        const distance_provider dist(device.coupling);
        double ratio_sum = 0.0;
        for (int seed = 1; seed <= per_size; ++seed) {
            core::generator_options options;
            options.num_swaps = kSwaps;
            options.total_two_qubit_gates =
                static_cast<std::size_t>(device.num_qubits()) * 12;
            options.seed = static_cast<std::uint64_t>(seed) * 101;
            const auto instance = core::generate(device, options);

            router::sabre_options sabre;
            sabre.trials = trials;
            const auto routed =
                router::route_sabre(instance.logical, device.coupling, dist, sabre);
            const auto report =
                validate_routed(instance.logical, routed, device.coupling);
            if (!report.valid) {
                std::printf("ERROR: invalid routing on %s\n", device.name.c_str());
                return 1;
            }
            const double ratio = static_cast<double>(report.swap_count) / kSwaps;
            ratio_sum += ratio;
            raw.add(device.name, device.num_qubits(), seed, report.swap_count, ratio);
        }
        table.add(device.name, device.num_qubits(), device.num_couplers(),
                  ascii_table::num(ratio_sum / per_size, 2) + "x");
    }
    std::printf("%s\n", table.str().c_str());
    std::printf("paper claim:     the optimality gap grows with device size, and sparse\n"
                "                 (heavy-hex) connectivity amplifies it at equal size.\n");
    std::printf("measured:        the grid series should rise monotonically (up to draw\n"
                "                 noise), with each heavy-hex point above the similarly\n"
                "                 sized grid point.\n");
    bench::save_results(raw, "scaling");

    // Large-device sweep: a fixed 64-qubit workload routed on a growing
    // heavy-hex family through the automatic distance policy. Above the
    // lazy threshold the provider serves on-demand BFS rows, so the cost
    // of "a small circuit on a huge device" tracks the circuit, not the
    // device — the row counts below show how little of O(V^2) is touched.
    std::printf("\nLarge-device sweep: 64-qubit circuit, lazy distance provider\n");
    std::vector<std::pair<int, int>> hex_sizes = {{8, 14}, {16, 28}, {24, 42}, {32, 56}};
    if (bench::bench_scale() == bench::scale::smoke) {
        hex_sizes = {{16, 28}, {32, 56}};
    }
    constexpr int kSweepQubits = 64;
    rng sweep_rng(7);
    circuit sweep_circuit(kSweepQubits);
    for (int i = 0; i < 200; ++i) {
        const int a = static_cast<int>(sweep_rng.below(kSweepQubits));
        int b = static_cast<int>(sweep_rng.below(kSweepQubits - 1));
        if (b >= a) ++b;
        sweep_circuit.append(gate::cx(a, b));
    }

    ascii_table sweep_table({"device", "qubits", "mode", "rows built", "swaps", "ms"});
    csv::writer sweep_raw({"device", "qubits", "mode", "rows_built", "swaps", "seconds"});
    for (const auto& [rows, row_len] : hex_sizes) {
        const auto device = arch::heavy_hex(rows, row_len);
        const distance_provider dist(device.coupling);
        const mapping initial = mapping::identity(kSweepQubits, device.num_qubits());
        const auto start = std::chrono::steady_clock::now();
        const auto routed =
            router::route_sabre(sweep_circuit, device.coupling, dist, {}, &initial);
        const double seconds = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - start)
                                   .count();
        const auto report = validate_routed(sweep_circuit, routed, device.coupling);
        if (!report.valid) {
            std::printf("ERROR: invalid routing on %s\n", device.name.c_str());
            return 1;
        }
        const char* mode = dist.is_lazy() ? "lazy" : "dense";
        const std::string rows_built =
            dist.is_lazy() ? std::to_string(dist.rows_built()) + "/" +
                                 std::to_string(device.num_qubits())
                           : "all (dense)";
        sweep_table.add(device.name, device.num_qubits(), mode, rows_built,
                        report.swap_count, ascii_table::num(seconds * 1e3, 1));
        sweep_raw.add(device.name, device.num_qubits(), mode,
                      dist.is_lazy() ? dist.rows_built()
                                     : static_cast<std::size_t>(device.num_qubits()),
                      report.swap_count, seconds);
    }
    std::printf("%s\n", sweep_table.str().c_str());
    bench::save_results(sweep_raw, "scaling_lazy");
    return 0;
}
