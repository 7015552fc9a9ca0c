// Merger: combines one or more result stores back into the plan order.
//
// Shards (or repeated, partially overlapping runs) each produced a store;
// the merger loads them all, drops duplicate unit IDs, verifies that any
// duplicates agree on every deterministic field (two honest runs of the
// same unit can only differ in CPU seconds — a disagreement means the
// stores came from diverging builds or a corrupted file, and is a hard
// error), and emits the surviving records ordered exactly as a
// single-process evaluation would have produced them. Aggregating the
// merged records therefore reproduces the serial tables byte for byte.
// The merge is a read-only view for `campaign report`; combining stores
// on disk is `campaign sync`'s job, which keeps every record.
#pragma once

#include <string>
#include <vector>

#include "campaign/plan.hpp"
#include "campaign/store.hpp"

namespace qubikos::campaign {

/// A plan unit with failed attempts on record but no successful run.
struct failed_unit {
    std::string unit_id;
    int attempts = 0;
    std::string error;
};

struct merge_result {
    /// One entry per completed plan unit, in plan (= serial) order.
    /// Error records (failed attempts) never appear here: a unit that
    /// later succeeded contributes only its success, so a campaign that
    /// hit (and drained) faults merges identically to a fault-free one.
    std::vector<stored_run> runs;
    /// IDs of plan units no store had a *successful* record for, in plan
    /// order (units with only failed attempts are missing too).
    std::vector<std::string> missing;
    /// The subset of missing units that have failed attempts on record
    /// (quarantined or still retryable), in plan order.
    std::vector<failed_unit> failed;
    /// Duplicate records dropped (consistent repeats across stores).
    std::size_t duplicates = 0;
    int invalid_runs = 0;
    /// Metrics sidecar records, one per plan unit that had any, in plan
    /// order (first store to report a unit wins — values are timings, so
    /// duplicates are neither checked nor counted). Ignored by reports;
    /// `campaign profile` aggregates them.
    std::vector<stored_run> metrics;

    [[nodiscard]] bool complete() const { return missing.empty(); }
};

/// Loads and merges `store_dirs` against the plan. Every input store's
/// meta.json fingerprint must match the plan's spec (stores from a
/// different experiment throw, mirroring the write-path lock);
/// conflicting duplicates throw.
[[nodiscard]] merge_result merge_stores(const campaign_plan& plan,
                                        const std::vector<std::string>& store_dirs);

}  // namespace qubikos::campaign
