// The benchmark's workloads. Each builds its inputs from the run's seed,
// runs the end-to-end pass (and, with --trace 1, the traced pass), checks
// every output and returns the metrics.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>

#include "common.hpp"
#include "obs/obs.hpp"
#include "tracer.hpp"

namespace perfbench {

/// fig4-sycamore and certify-aspen.
[[nodiscard]] run_outcome run_campaign_workload(const run_config& cfg);

/// serve-mixed.
[[nodiscard]] run_outcome run_serve_workload(const run_config& cfg);

/// Library counters (obs) attributed to the layer that ran them:
/// bucket name -> counter name -> total.
using layer_counters = std::map<std::string, std::map<std::string, std::uint64_t>>;

/// Calls `fn` inside a span named `span_name`. While the tracer records,
/// the calling thread's obs counter deltas over the call are added to
/// `sink[bucket]` — so a counter lands on the layer whose call produced
/// it (mlqls's inner SABRE passes count under mlqls, not under sabre).
template <class Fn>
auto traced_call(const std::string& span_name, std::uint64_t trace_id, layer_counters* sink,
                 const std::string& bucket, Fn&& fn) -> std::invoke_result_t<Fn> {
    if (sink == nullptr || !tracer::instance().recording()) {
        const tracer::span span(span_name, trace_id);
        return fn();
    }
    const qubikos::obs::thread_delta delta;
    std::optional<std::invoke_result_t<Fn>> result;
    {
        const tracer::span span(span_name, trace_id);
        result.emplace(fn());
    }
    for (const auto& [name, value] : delta.deltas()) (*sink)[bucket][name] += value;
    return std::move(*result);
}

template <class Fn>
auto traced_call(const std::string& span_name, std::uint64_t trace_id, layer_counters* sink,
                 Fn&& fn) -> std::invoke_result_t<Fn> {
    return traced_call(span_name, trace_id, sink, span_name, std::forward<Fn>(fn));
}

void merge_counters(layer_counters& into, const layer_counters& from);

/// Fills the per-layer metrics that come from span totals and attributed
/// counters (the names are shared by every workload; layers a workload
/// never enters report 0).
void add_layer_metrics(run_outcome& out, const std::map<std::string, layer_total>& totals,
                       const layer_counters& counters);

/// obs counter value in a collect() snapshot delta.
[[nodiscard]] std::uint64_t counter_delta(const qubikos::obs::snapshot& before,
                                          const qubikos::obs::snapshot& after,
                                          const std::string& name);

}  // namespace perfbench
