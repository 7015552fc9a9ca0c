#include "campaign/merge.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace qubikos::campaign {

namespace {

/// Every field two runs of the same unit must agree on (seconds is
/// thread-CPU time and legitimately varies).
bool deterministic_fields_agree(const stored_run& a, const stored_run& b) {
    return a.record.tool == b.record.tool &&
           a.record.designed_swaps == b.record.designed_swaps &&
           a.record.measured_swaps == b.record.measured_swaps &&
           a.record.valid == b.record.valid &&
           // depth_ratio round-trips JSON exactly (%.17g), so equality is
           // meaningful; tolerate only the last-ulp of a double division.
           std::abs(a.record.depth_ratio - b.record.depth_ratio) < 1e-12 &&
           a.sat_at_n == b.sat_at_n && a.unsat_below == b.unsat_below &&
           a.structure_ok == b.structure_ok && a.vf2_solvable == b.vf2_solvable;
}

}  // namespace

merge_result merge_stores(const campaign_plan& plan, const std::vector<std::string>& store_dirs) {
    std::unordered_map<std::string, stored_run> by_id;
    by_id.reserve(plan.units.size());
    struct failure_info {
        /// Distinct attempt numbers seen, so the same error record loaded
        /// from overlapping stores (supported for successes, so it must
        /// be for failures too) doesn't inflate the attempt count.
        std::unordered_set<int> attempts;
        std::string error;

        [[nodiscard]] int attempt_count() const {
            int max_attempt = 0;
            // qubikos-lint: allow(DET-001) max over the set is order-independent
            for (const int a : attempts) max_attempt = std::max(max_attempt, a);
            return std::max(max_attempt, static_cast<int>(attempts.size()));
        }
    };
    std::unordered_map<std::string, failure_info> failures;
    std::unordered_map<std::string, stored_run> metrics_by_id;
    merge_result merged;

    const std::string fingerprint = spec_fingerprint(plan.spec);
    for (const auto& dir : store_dirs) {
        // The write path locks a store to its spec; the read path must
        // enforce the same thing, or results from a different experiment
        // whose unit IDs happen to collide (e.g. same suites, different
        // trial count) would silently mix into the report.
        require_store_fingerprint(dir, fingerprint);
        for (auto& run : result_store::load_runs(dir)) {
            if (run.is_metrics()) {
                // Keep the first sidecar seen per unit; values are
                // timings, so cross-store repeats are not conflicts.
                metrics_by_id.emplace(run.unit_id, std::move(run));
                continue;
            }
            if (run.failed()) {
                // A failed attempt is bookkeeping, not a result: it never
                // joins the merge, never conflicts, and a later success of
                // the same unit supersedes it entirely.
                auto& failure = failures[run.unit_id];
                failure.attempts.insert(run.attempt);
                failure.error = run.error;
                continue;
            }
            const auto it = by_id.find(run.unit_id);
            if (it == by_id.end()) {
                by_id.emplace(run.unit_id, std::move(run));
                continue;
            }
            if (!deterministic_fields_agree(it->second, run)) {
                throw std::runtime_error(
                    "campaign: conflicting records for unit " + run.unit_id + " (store " + dir +
                    " disagrees with an earlier store on a deterministic field)");
            }
            ++merged.duplicates;
        }
    }

    merged.runs.reserve(plan.units.size());
    for (const auto& unit : plan.units) {
        const auto it = by_id.find(unit.id);
        if (it == by_id.end()) {
            merged.missing.push_back(unit.id);
            const auto failure = failures.find(unit.id);
            if (failure != failures.end()) {
                merged.failed.push_back(
                    {unit.id, failure->second.attempt_count(), failure->second.error});
            }
            continue;
        }
        if (!it->second.record.valid) ++merged.invalid_runs;
        merged.runs.push_back(it->second);
        const auto metric = metrics_by_id.find(unit.id);
        if (metric != metrics_by_id.end()) merged.metrics.push_back(metric->second);
    }
    return merged;
}

}  // namespace qubikos::campaign
