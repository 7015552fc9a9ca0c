// Live campaign status: a read-only progress probe over a result store.
//
// `campaign status` answers "how far along is this store, and is anything
// stuck?" while shard workers are running. It must therefore never touch
// the write path: the probe reads the record files via
// result_store::load_runs (a torn final line is skipped) and the spec
// snapshot via load_meta_spec — it never opens the store for appending,
// creates nothing, and takes no fingerprint lock, so pointing it at a
// store another process is actively writing is always safe.
//
// Reported per shard and per (suite, tool) cell:
//   done        — units with a successful record;
//   retryable   — units with failed attempts left before quarantine
//                 (a plain re-run will retry them);
//   quarantined — units whose attempt budget is exhausted (only
//                 `campaign run --retry-quarantined` re-opens them);
//   pending     — units with no record at all.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "campaign/merge.hpp"
#include "campaign/plan.hpp"
#include "campaign/store.hpp"

namespace qubikos::campaign {

struct status_options {
    /// Shard split to report against (the probe itself is shard-blind).
    int num_shards = 1;
};

struct status_counts {
    std::size_t done = 0;
    std::size_t retryable = 0;
    std::size_t quarantined = 0;
    std::size_t pending = 0;

    [[nodiscard]] std::size_t total() const {
        return done + retryable + quarantined + pending;
    }
};

struct campaign_status {
    status_counts totals;
    /// One entry per shard of options.num_shards.
    std::vector<status_counts> shards;
    /// Per (suite index, tool) cell, keyed in (suite, tool-name) order.
    std::map<std::pair<std::size_t, std::string>, status_counts> cells;
    /// Quarantined units in plan order, with their recorded failure.
    std::vector<failed_unit> quarantined_units;

    [[nodiscard]] bool complete() const { return totals.done == totals.total(); }
};

/// Classifies every plan unit against the runs of a store — one pass
/// over the runs, one over the plan.
[[nodiscard]] campaign_status probe_status(const campaign_plan& plan,
                                           const std::vector<stored_run>& runs,
                                           const status_options& options = {});

/// Renders a probed status (totals, per-shard and per-(suite, tool)
/// tables, and the first ten quarantined units with their errors).
[[nodiscard]] std::string render_status(const campaign_plan& plan,
                                        const campaign_status& status);

/// Machine-readable status (`campaign status --json`): the same probe as
/// a JSON document with stable key order (json::object is sorted), so
/// fleet scripts can stop scraping the text table. Includes what the
/// table omits: every quarantined unit's recorded error, uncapped.
[[nodiscard]] json::value status_to_json(const campaign_plan& plan,
                                         const campaign_status& status);

}  // namespace qubikos::campaign
