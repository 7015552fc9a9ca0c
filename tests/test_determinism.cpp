// Determinism regression drills for the reporting pipeline (the DET-001
// guarantee): report and profile bytes must be invariant under the order
// records arrive in. Permuting the input order changes every internal
// unordered_map's insertion history — and therefore its iteration order —
// so any code path that iterates a hash table into the output shows up
// here as a byte diff.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "campaign/merge.hpp"
#include "campaign/plan.hpp"
#include "campaign/profile.hpp"
#include "campaign/report.hpp"
#include "campaign/spec.hpp"
#include "campaign/store.hpp"

namespace qubikos {
namespace {

campaign::campaign_spec small_spec() {
    campaign::campaign_spec spec;
    spec.name = "det-drill";
    spec.sabre_trials = 4;
    core::suite_spec suite;
    suite.arch_name = "grid3x3";
    suite.swap_counts = {1, 2};
    suite.circuits_per_count = 2;
    suite.total_two_qubit_gates = 25;
    suite.base_seed = 5;
    spec.suites.push_back(suite);
    return spec;
}

/// Fresh per-test scratch directory (removed up front, not after, so a
/// failing test leaves its store behind for inspection).
std::string scratch_dir(const std::string& name) {
    const auto dir = std::filesystem::temp_directory_path() / "qubikos_determinism_tests" / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

/// One synthetic success record per plan unit, with deterministic
/// non-trivial metrics so aggregate cells differ from each other.
std::vector<campaign::stored_run> synthetic_runs(const campaign::campaign_plan& plan) {
    std::vector<campaign::stored_run> runs;
    for (std::size_t i = 0; i < plan.units.size(); ++i) {
        const auto& unit = plan.units[i];
        campaign::stored_run run;
        run.unit_id = unit.id;
        run.record.tool = unit.tool;
        run.record.designed_swaps = unit.designed_swaps;
        run.record.measured_swaps = static_cast<std::size_t>(unit.designed_swaps) + i % 3;
        run.record.seconds = 0.0;
        run.record.valid = true;
        run.record.depth_ratio = 1.5;
        run.attempt = 1;
        runs.push_back(std::move(run));
    }
    return runs;
}

/// A metrics sidecar per plan unit, as a worker running with
/// QUBIKOS_OBS=metrics would append.
std::vector<campaign::stored_run> synthetic_metrics(const campaign::campaign_plan& plan) {
    std::vector<campaign::stored_run> sidecars;
    for (std::size_t i = 0; i < plan.units.size(); ++i) {
        campaign::stored_run m;
        m.unit_id = plan.units[i].id;
        m.metrics.add("campaign.unit.ns", 250 + i);
        m.metrics.add("sat.propagations", 100 + i);
        sidecars.push_back(std::move(m));
    }
    return sidecars;
}

TEST(Determinism, ProfileBytesInvariantUnderRecordOrder) {
    const auto spec = small_spec();
    const auto plan = campaign::expand_plan(spec);
    std::vector<campaign::stored_run> runs = synthetic_runs(plan);
    for (auto& m : synthetic_metrics(plan)) runs.push_back(std::move(m));

    const std::string baseline = campaign::render_profile(plan, runs);
    ASSERT_NE(baseline.find("campaign profile"), std::string::npos);

    std::vector<campaign::stored_run> reversed = runs;
    std::reverse(reversed.begin(), reversed.end());
    EXPECT_EQ(campaign::render_profile(plan, reversed), baseline);

    std::vector<campaign::stored_run> rotated = runs;
    std::rotate(rotated.begin(), rotated.begin() + static_cast<long>(rotated.size() / 3),
                rotated.end());
    EXPECT_EQ(campaign::render_profile(plan, rotated), baseline);
}

TEST(Determinism, ReportBytesInvariantUnderStoreAppendOrder) {
    const auto spec = small_spec();
    const auto plan = campaign::expand_plan(spec);
    const std::vector<campaign::stored_run> runs = synthetic_runs(plan);

    const std::string dir_forward = scratch_dir("store_forward");
    const std::string dir_reversed = scratch_dir("store_reversed");
    {
        campaign::result_store store(dir_forward, spec);
        for (const auto& run : runs) store.append(run);
        store.flush();
    }
    {
        campaign::result_store store(dir_reversed, spec);
        for (auto it = runs.rbegin(); it != runs.rend(); ++it) store.append(*it);
        store.flush();
    }

    const auto merged_forward = campaign::merge_stores(plan, {dir_forward});
    const auto merged_reversed = campaign::merge_stores(plan, {dir_reversed});
    ASSERT_TRUE(merged_forward.complete());
    ASSERT_TRUE(merged_reversed.complete());

    const std::string report_forward = campaign::render_report(plan, merged_forward);
    EXPECT_FALSE(report_forward.empty());
    EXPECT_EQ(campaign::render_report(plan, merged_reversed), report_forward);
}

}  // namespace
}  // namespace qubikos
