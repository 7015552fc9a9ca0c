// Abstract / Sec. IV-B aggregate optimality gaps.
//
// The paper's headline numbers aggregate each tool's swap ratio across
// all four architectures: LightSABRE 63x, ML-QLS 117x, QMAP 250x,
// t|ket> 330x. This bench runs a reduced cross-architecture sweep and
// prints the measured per-tool aggregates alongside the paper's. What
// must be preserved is the ordering (sabre-family < qmap/tket) and the
// orders of magnitude, not the exact constants (they depend on trial
// counts and circuit draws).
#include <cstdio>
#include <map>

#include "arch/architectures.hpp"
#include "bench_common.hpp"
#include "core/suite.hpp"
#include "eval/harness.hpp"
#include "tools/context.hpp"
#include "util/table.hpp"

int main() {
    using namespace qubikos;
    bench::print_header("Aggregate optimality gaps across all four architectures",
                        "Abstract / Sec. IV-B (LightSABRE 63x, ML-QLS 117x, QMAP 250x, "
                        "t|ket> 330x)");

    int per_count = 2;
    int sabre_trials = 50;
    std::vector<int> swap_counts = {5, 15};
    switch (bench::bench_scale()) {
        case bench::scale::smoke:
            per_count = 1;
            sabre_trials = 8;
            swap_counts = {5};
            break;
        case bench::scale::standard: break;
        case bench::scale::paper:
            per_count = 10;
            sabre_trials = 1000;
            swap_counts = {5, 10, 15, 20};
            break;
    }

    const std::map<std::string, std::size_t> gate_targets = {
        {"aspen4", 300}, {"sycamore54", 1500}, {"rochester53", 1500}, {"eagle127", 3000}};
    const std::map<std::string, const char*> paper = {{"lightsabre", "63x"},
                                                      {"mlqls", "117x"},
                                                      {"qmap", "250x"},
                                                      {"tket", "330x"}};

    const auto tools =
        eval::paper_toolbox(json::object{{"lightsabre", json::object{{"trials", sabre_trials}}}});

    std::map<std::string, double> gap_sum;
    std::map<std::string, int> gap_count;
    csv::writer raw({"arch", "tool", "designed_n", "swap_ratio"});

    ascii_table per_arch({"arch", "tool", "mean gap"});
    for (const auto& device : arch::paper_platforms()) {
        // Eagle at standard scale: one circuit per count, fewer trials.
        core::suite_spec spec;
        spec.arch_name = device.name;
        spec.swap_counts = swap_counts;
        spec.circuits_per_count =
            (bench::bench_scale() == bench::scale::standard && device.num_qubits() > 100)
                ? 1
                : per_count;
        spec.total_two_qubit_gates = gate_targets.at(device.name);
        spec.base_seed = 424242;
        const core::suite s = core::generate_suite(device, spec);

        const int trials =
            device.num_qubits() > 100 && bench::bench_scale() != bench::scale::paper
                ? 24
                : sabre_trials;
        // Shared per-device routing context: the 4-tool lineup reuses one
        // distance matrix across every circuit of the sweep.
        const auto result = eval::evaluate_suite(
            s, device,
            eval::paper_toolbox(json::object{{"lightsabre", json::object{{"trials", trials}}}},
                                tools::make_routing_context(device.coupling)));
        if (result.invalid_runs != 0) {
            std::printf("ERROR: %d invalid routed circuits on %s\n", result.invalid_runs,
                        device.name.c_str());
            return 1;
        }
        for (const auto& tool : tools) {
            const double gap = eval::mean_ratio(result.cells, tool.name);
            per_arch.add(device.name, tool.name, ascii_table::num(gap, 2) + "x");
            gap_sum[tool.name] += gap;
            gap_count[tool.name] += 1;
        }
        for (const auto& cell : result.cells) {
            raw.add(device.name, cell.tool, cell.designed_swaps, cell.swap_ratio);
        }
    }
    std::printf("%s\n", per_arch.str().c_str());

    ascii_table summary({"tool", "measured aggregate gap", "paper aggregate gap"});
    for (const auto& tool : tools) {
        summary.add(tool.name,
                    ascii_table::num(gap_sum[tool.name] / gap_count[tool.name], 2) + "x",
                    paper.at(tool.name));
    }
    std::printf("%s\n", summary.str().c_str());
    bench::save_results(raw, "abstract_gaps");
    return 0;
}
