// Tool shoot-out: run the four QLS tools over a freshly generated QUBIKOS
// suite on one architecture and print a Fig. 4-style swap-ratio table.
//
//   $ ./evaluate_tools [arch] [gates] [per_count] [sabre_trials]
//   $ ./evaluate_tools rochester53 1500 3 32
#include <cstdio>
#include <cstdlib>
#include <string>

#include "arch/architectures.hpp"
#include "core/suite.hpp"
#include "eval/harness.hpp"
#include "tools/context.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
    using namespace qubikos;

    const std::string arch_name = argc > 1 ? argv[1] : "aspen4";
    const std::size_t gates = argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 300;
    const int per_count = argc > 3 ? std::atoi(argv[3]) : 3;
    const int trials = argc > 4 ? std::atoi(argv[4]) : 32;

    const arch::architecture device = arch::by_name(arch_name);

    core::suite_spec spec;
    spec.arch_name = device.name;
    spec.swap_counts = {5, 10, 15, 20};
    spec.circuits_per_count = per_count;
    spec.total_two_qubit_gates = gates;
    spec.base_seed = 7;
    const core::suite s = core::generate_suite(device, spec);

    // One shared routing context: the whole lineup reuses the device's
    // distance matrix instead of rebuilding it per routed circuit.
    const auto tools =
        eval::paper_toolbox(json::object{{"lightsabre", json::object{{"trials", trials}}}},
                            tools::make_routing_context(device.coupling));

    std::printf("running %zu tools x %zu circuits on %s...\n", tools.size(),
                s.instances.size(), device.name.c_str());
    const auto result = eval::evaluate_suite(s, device, tools);
    if (result.invalid_runs != 0) {
        std::printf("WARNING: %d invalid routed circuits!\n", result.invalid_runs);
    }

    ascii_table table({"tool", "designed swaps", "avg swaps", "swap ratio", "avg seconds"});
    for (const auto& cell : result.cells) {
        table.add(cell.tool, cell.designed_swaps, ascii_table::num(cell.average_swaps, 1),
                  ascii_table::num(cell.swap_ratio, 2) + "x",
                  ascii_table::num(cell.average_seconds, 3));
    }
    std::printf("%s", table.str().c_str());

    for (const auto& t : tools) {
        std::printf("%-10s overall optimality gap: %.2fx (geomean %.2fx)\n", t.name.c_str(),
                    eval::mean_ratio(result.cells, t.name),
                    eval::geomean_ratio(result.cells, t.name));
    }
    return result.invalid_runs == 0 ? 0 : 1;
}
