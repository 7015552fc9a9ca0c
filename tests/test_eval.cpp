// Evaluation-layer tests: metrics aggregation, the suite harness
// end-to-end, and the case-study analyzer.
#include <gtest/gtest.h>

#include <cmath>

#include "arch/architectures.hpp"
#include "core/suite.hpp"
#include "eval/case_study.hpp"
#include "eval/harness.hpp"
#include "eval/metrics.hpp"

namespace qubikos {
namespace {

TEST(metrics, aggregate_groups_and_ratios) {
    std::vector<eval::run_record> records;
    records.push_back({"sabre", 5, 10, 0.1, true});
    records.push_back({"sabre", 5, 20, 0.3, true});
    records.push_back({"sabre", 10, 10, 0.2, true});
    records.push_back({"tket", 5, 50, 0.1, true});
    records.push_back({"tket", 5, 999, 9.9, false});  // invalid: excluded

    const auto cells = eval::aggregate(records);
    ASSERT_EQ(cells.size(), 3u);
    // map iteration order: (sabre,5), (sabre,10), (tket,5)
    EXPECT_EQ(cells[0].tool, "sabre");
    EXPECT_EQ(cells[0].designed_swaps, 5);
    EXPECT_EQ(cells[0].runs, 2);
    EXPECT_DOUBLE_EQ(cells[0].average_swaps, 15.0);
    EXPECT_DOUBLE_EQ(cells[0].swap_ratio, 3.0);
    EXPECT_DOUBLE_EQ(cells[1].swap_ratio, 1.0);
    EXPECT_DOUBLE_EQ(cells[2].swap_ratio, 10.0);
    EXPECT_EQ(cells[0].total_swaps, 30u);
    EXPECT_EQ(cells[0].total_optimal_swaps, 10);
    EXPECT_EQ(cells[2].total_swaps, 50u);
    EXPECT_EQ(cells[2].total_optimal_swaps, 5);

    EXPECT_DOUBLE_EQ(eval::mean_ratio(cells, "sabre"), 2.0);
    EXPECT_NEAR(eval::geomean_ratio(cells, "sabre"), std::sqrt(3.0), 1e-12);
    EXPECT_THROW((void)eval::mean_ratio(cells, "unknown"), std::invalid_argument);
    EXPECT_THROW((void)eval::geomean_ratio(cells, "unknown"), std::invalid_argument);
}

TEST(metrics, zero_designed_cell_carries_totals_but_no_ratio) {
    // A 0-optimal-swaps cell (the QUEKO family's claim) must aggregate
    // without dividing by zero: the ratio is undefined, the absolute
    // totals are not.
    std::vector<eval::run_record> records;
    records.push_back({"sabre", 0, 4, 0.1, true});
    records.push_back({"sabre", 0, 6, 0.1, true});
    const auto cells = eval::aggregate(records);
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_FALSE(cells[0].has_ratio());
    EXPECT_DOUBLE_EQ(cells[0].swap_ratio, 0.0);
    EXPECT_EQ(cells[0].total_swaps, 10u);
    EXPECT_EQ(cells[0].total_optimal_swaps, 0);
    // The gap means have no ratio-bearing cells to average.
    EXPECT_FALSE(eval::has_ratio_cells(cells, "sabre"));
    EXPECT_THROW((void)eval::mean_ratio(cells, "sabre"), std::invalid_argument);
}

TEST(harness, evaluates_suite_end_to_end) {
    const auto device = arch::aspen4();
    core::suite_spec spec;
    spec.arch_name = device.name;
    spec.swap_counts = {2, 4};
    spec.circuits_per_count = 2;
    spec.total_two_qubit_gates = 60;
    spec.base_seed = 3;
    const auto s = core::generate_suite(device, spec);
    ASSERT_EQ(s.instances.size(), 4u);

    const auto tools =
        eval::paper_toolbox(json::object{{"lightsabre", json::object{{"trials", 4}}}});
    ASSERT_EQ(tools.size(), 4u);

    const auto result = eval::evaluate_suite(s, device, tools);
    EXPECT_EQ(result.invalid_runs, 0);
    EXPECT_EQ(result.records.size(), 16u);  // 4 instances x 4 tools
    EXPECT_EQ(result.cells.size(), 8u);     // 4 tools x 2 designed counts
    for (const auto& cell : result.cells) {
        EXPECT_GE(cell.swap_ratio, 1.0) << cell.tool;  // never below optimal
        // Swaps only add depth, so routed depth >= logical depth.
        EXPECT_GE(cell.average_depth_ratio, 1.0) << cell.tool;
    }
}

TEST(harness, custom_tool) {
    const auto device = arch::line(4);
    core::suite_spec spec;
    spec.arch_name = device.name;
    spec.swap_counts = {1};
    spec.circuits_per_count = 1;
    spec.base_seed = 1;
    const auto s = core::generate_suite(device, spec);

    // A "cheating" tool that returns the reference answer.
    std::vector<eval::tool> tools;
    const auto& instance = s.instances.front();
    tools.push_back({"oracle", {},
                     [&instance](const circuit&, const graph&, eval::tool_run_stats&) {
                         return instance.answer;
                     }});
    const auto result = eval::evaluate_suite(s, device, tools);
    ASSERT_EQ(result.cells.size(), 1u);
    EXPECT_DOUBLE_EQ(result.cells.front().swap_ratio, 1.0);
}

TEST(case_study, analyzer_reports_consistent_counts) {
    const auto device = arch::rochester53();
    core::generator_options options;
    options.num_swaps = 5;
    options.seed = 8;
    options.total_two_qubit_gates = 300;
    const auto instance = core::generate(device, options);

    router::sabre_options sabre;
    sabre.seed = 2;
    const auto analysis = eval::analyze_lightsabre(instance, device.coupling, sabre);
    EXPECT_EQ(analysis.optimal_swaps, 5);
    EXPECT_GE(analysis.sabre_swaps, 5u);
    EXPECT_EQ(analysis.decisions.size(), analysis.sabre_swaps);
    if (analysis.deviation.has_value()) {
        const auto& dev = *analysis.deviation;
        EXPECT_LT(dev.decision_index, analysis.decisions.size());
        // The chosen swap's breakdown must match the recorded decision.
        const auto& decision = analysis.decisions[dev.decision_index];
        EXPECT_EQ(dev.chosen.candidate, decision.chosen);
    }
}

TEST(case_study, optimal_routing_yields_no_deviation) {
    // On a tiny instance SABRE follows the optimal sequence; the analyzer
    // must report no deviation in that case.
    const auto device = arch::grid(2, 3);
    core::generator_options options;
    options.num_swaps = 1;
    options.seed = 2;
    const auto instance = core::generate(device, options);
    router::sabre_options sabre;
    sabre.seed = 1;
    const auto analysis = eval::analyze_lightsabre(instance, device.coupling, sabre);
    if (analysis.sabre_swaps == 1u && !analysis.decisions.empty() &&
        analysis.decisions.front().chosen == instance.sections.front().swap_physical) {
        EXPECT_FALSE(analysis.deviation.has_value());
    }
}

}  // namespace
}  // namespace qubikos
