// Shard worker: executes a campaign plan's work units and streams the
// results into a persistent store.
//
// A worker owns one shard (k of n) of the plan. It skips every unit the
// store already holds a success for — so re-launching an interrupted
// shard resumes where the last fsync'd batch left off — and runs the
// remainder in batches on the shared thread pool (suite-level
// parallelism; the tools themselves stay serial). Batch results are
// appended to the store in unit order and fsync'd together, bounding
// both the fsync rate and the work a crash can lose.
//
// Fault isolation: a unit whose generator or tool throws never kills the
// shard. The failure is captured as a stored error record (message +
// attempt number) and the unit is retried — within the same invocation —
// until it succeeds or exhausts spec.max_attempts, at which point it is
// *quarantined*: later invocations skip it (so a poisoned unit cannot
// wedge a campaign) until a worker runs with retry_quarantined, which
// re-opens quarantined units for another max_attempts round.
//
// Faults vs. invalid results: only a *throw* is a fault. A unit that
// completes with record.valid = false (a tool emitting an invalid
// routing, a certify claim that fails its checks) is a deterministic
// *result* the paper's tables report — it is stored as a success, counted
// in invalid_runs, and never retried (retrying a deterministic outcome
// cannot change it, and quarantining it would block campaign completion
// on a legitimate finding). A generator whose claimed count contradicts the plan *is* a
// fault — it throws rather than poisoning downstream ratios.
//
// Instances are regenerated on demand from the spec's seeds instead of
// being loaded from disk: the generators (QUBIKOS, QUEKO, QUEKNO — per
// the suite's family) are deterministic and cheap relative to routing,
// and it keeps a shard fully self-contained — spec in, results out, no
// shared suite directory to distribute.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "campaign/plan.hpp"
#include "campaign/store.hpp"

namespace qubikos::campaign {

struct worker_options {
    int shard = 0;
    int num_shards = 1;
    /// Thread-pool size for units within a batch (0 = auto via
    /// QUBIKOS_THREADS / hardware_concurrency, 1 = serial). Tools always
    /// run serial inside a unit.
    int threads = 1;
    /// Units per append-and-fsync batch (also the parallel batch width
    /// when larger than the pool).
    std::size_t batch_size = 16;
    /// Stop after this many unit executions (0 = no limit). Lets tests
    /// and drills interrupt a shard at a deterministic point.
    std::size_t max_units = 0;
    /// Re-open quarantined units (failed attempts >= spec.max_attempts)
    /// for another max_attempts round.
    bool retry_quarantined = false;
    /// Per-unit progress lines on stdout.
    bool verbose = false;
    /// Persist one telemetry sidecar record ("kind":"metrics", the
    /// counters the executing thread accumulated around the unit) after
    /// each *successful* unit. -1 = follow the environment
    /// (QUBIKOS_OBS=metrics|full), 0 = off, 1 = on.
    int record_metrics = -1;
};

struct worker_report {
    /// Units this shard owns under the plan.
    std::size_t assigned = 0;
    /// Owned units already succeeded in the store (resumed past).
    std::size_t skipped = 0;
    /// Unit executions performed by this invocation (retries included).
    std::size_t executed = 0;
    /// Owned units still unresolved afterwards (only when max_units cut
    /// the run short).
    std::size_t remaining = 0;
    /// Failed attempts recorded by this invocation.
    std::size_t failed_attempts = 0;
    /// Owned units left quarantined: attempt budget exhausted with no
    /// success (pre-existing quarantine included unless retried).
    std::size_t quarantined = 0;
    int invalid_runs = 0;
};

/// Prebuilt read-only execution context shared by every unit of a run:
/// device graphs and the tool lineup are constructed once, units only
/// read them. Owns a copy of the spec, so it outlives the caller's.
class unit_executor {
public:
    explicit unit_executor(const campaign_spec& spec);
    ~unit_executor();
    unit_executor(const unit_executor&) = delete;
    unit_executor& operator=(const unit_executor&) = delete;

    /// Executes one unit; throws when the generator or tool fails (or the
    /// generator's claimed count contradicts the plan).
    [[nodiscard]] stored_run execute(const work_unit& unit) const;

    /// Never-throwing wrapper: a failure becomes a stored error record
    /// carrying the exception message and `attempt`.
    [[nodiscard]] stored_run execute_captured(const work_unit& unit, int attempt) const;

private:
    struct impl;
    std::unique_ptr<const impl> impl_;
};

/// Runs shard `options.shard` of `options.num_shards` of the plan,
/// appending into the store at `store_dir` (created if absent; must
/// match the plan's spec fingerprint).
worker_report run_campaign_shard(const campaign_plan& plan, const std::string& store_dir,
                                 const worker_options& options = {});

}  // namespace qubikos::campaign
