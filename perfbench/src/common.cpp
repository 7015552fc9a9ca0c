#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

void run_outcome::fail(const std::string& message) {
    ++failed;
    if (errors.size() < 20) errors.push_back(message);
}

void line_digest::add_line(const std::string& line) {
    for (const char c : line) {
        state_ ^= static_cast<unsigned char>(c);
        state_ *= 1099511628211ULL;
    }
    state_ ^= static_cast<unsigned char>('\n');
    state_ *= 1099511628211ULL;
}

std::string line_digest::hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(state_));
    return buf;
}

double quantile(std::vector<double> samples, double q) {
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const double pos = q * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

int tail_percentile(std::size_t samples) {
    int best = 50;
    for (int p = 50; p <= 99; ++p) {
        const double beyond = static_cast<double>(samples) * (100 - p) / 100.0;
        if (beyond >= 10.0) best = p;
    }
    return best;
}

double median(std::vector<double> samples) { return quantile(std::move(samples), 0.5); }

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

process_usage self_usage() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    process_usage u;
    u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
    u.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return u;
}

void add_op_metrics(run_outcome& out, const std::vector<double>& latencies_ms, double wall_s,
                    double ops_per_s) {
    const int tail = tail_percentile(latencies_ms.size());
    out.end_to_end["wall_s"] = {wall_s, "s"};
    out.end_to_end["throughput_ops"] = {ops_per_s, "1/s"};
    out.end_to_end["latency_p50_ms"] = {quantile(latencies_ms, 0.5), "ms"};
    out.per_layer["latency_tail_ms"] = {quantile(latencies_ms, tail / 100.0), "ms"};
    out.details["latency_samples"] = latencies_ms.size();
    out.details["latency_tail_percentile"] = tail;
}

}  // namespace perfbench
