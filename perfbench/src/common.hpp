// Shared vocabulary of the benchmark: run configuration, metric sets,
// the outcome every workload returns, and small measurement helpers.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

struct run_config {
    std::string workload;
    std::uint64_t seed = 1;
    int seconds = 15;
    bool trace = false;
    /// Fresh per-run scratch directory (stores, daemon socket); removed
    /// when the run ends.
    std::filesystem::path work_dir;
};

struct metric {
    double value = 0.0;
    std::string unit;
};

using metric_set = std::map<std::string, metric>;

/// What one workload run reports. `attempted`/`failed` count operations
/// (campaign units or serve requests); `errors` keeps the first failure
/// messages for the result file.
struct run_outcome {
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> errors;
    /// Digest of the end-to-end pass's outputs, and of the traced pass
    /// when one ran (they must agree).
    std::string digest;
    std::string traced_digest;
    metric_set end_to_end;
    metric_set per_layer;
    /// Provenance and detail for the result file (sample counts, cache
    /// statistics, percentile choice).
    qubikos::json::object details;

    void fail(const std::string& message);
};

/// Incremental FNV-1a-64 over output lines; hex() is the digest.
class line_digest {
public:
    void add_line(const std::string& line);
    [[nodiscard]] std::string hex() const;

private:
    std::uint64_t state_ = 14695981039346656037ULL;
};

/// Linear-interpolated quantile (q in [0,1]) of unsorted samples; 0 for
/// an empty vector.
[[nodiscard]] double quantile(std::vector<double> samples, double q);

/// The highest whole percentile with at least ten samples beyond it
/// (99 needs >= 1000 samples); at least 50.
[[nodiscard]] int tail_percentile(std::size_t samples);

[[nodiscard]] double median(std::vector<double> samples);

/// Monotonic nanoseconds (steady_clock).
[[nodiscard]] std::int64_t now_ns();

/// User+system CPU seconds and peak RSS (MiB) of this process.
struct process_usage {
    double cpu_s = 0.0;
    double peak_rss_mb = 0.0;
};
[[nodiscard]] process_usage self_usage();

/// Latency/throughput/wall metrics shared by every workload: wall_s and
/// throughput_ops as the workload measured them (medians over rounds),
/// latencies pooled over every operation of the run. The tail percentile
/// is a per-layer (unbounded) metric: its seed-to-seed spread on these
/// heavy-tailed workloads is wider than any usable bound.
void add_op_metrics(run_outcome& out, const std::vector<double>& latencies_ms, double wall_s,
                    double ops_per_s);

}  // namespace perfbench
