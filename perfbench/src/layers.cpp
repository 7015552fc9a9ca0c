// Span totals and attributed counters -> the per-layer metric names that
// BENCHMARK.json lists (the map from each to the end-to-end metric it
// should move is in README.md).
#include <array>

#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::array<const char*, 4> kTools = {"lightsabre", "mlqls", "qmap", "tket"};

double seconds_of(const std::map<std::string, layer_total>& totals, const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.self_ns) / 1e9;
}

std::uint64_t calls_of(const std::map<std::string, layer_total>& totals, const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0 : it->second.calls;
}

std::uint64_t count_of(const layer_counters& counters, const std::string& bucket,
                       const std::string& name) {
    const auto b = counters.find(bucket);
    if (b == counters.end()) return 0;
    const auto it = b->second.find(name);
    return it == b->second.end() ? 0 : it->second;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void merge_counters(layer_counters& into, const layer_counters& from) {
    for (const auto& [bucket, values] : from) {
        for (const auto& [name, value] : values) into[bucket][name] += value;
    }
}

std::uint64_t counter_delta(const qubikos::obs::snapshot& before,
                            const qubikos::obs::snapshot& after, const std::string& name) {
    return after.value(name) - before.value(name);
}

void add_layer_metrics(run_outcome& out, const std::map<std::string, layer_total>& totals,
                       const layer_counters& counters) {
    auto& m = out.per_layer;
    const auto count = [](std::uint64_t v) { return metric{static_cast<double>(v), "count"}; };

    m["campaign.plan_s"] = {seconds_of(totals, "campaign.plan"), "s"};
    m["campaign.store_write_s"] = {
        seconds_of(totals, "campaign.store_append") + seconds_of(totals, "campaign.store_flush"),
        "s"};
    m["campaign.records"] = count(calls_of(totals, "campaign.store_append"));
    m["tools.context_build_s"] = {seconds_of(totals, "tools.context_build"), "s"};
    m["tools.context_builds"] = count(calls_of(totals, "tools.context_build"));
    m["core.generate_s"] = {seconds_of(totals, "core.generate"), "s"};
    m["core.generate_calls"] = count(calls_of(totals, "core.generate"));
    m["core.verify_structure_s"] = {seconds_of(totals, "core.verify_structure"), "s"};
    m["graph.vf2_s"] = {seconds_of(totals, "graph.vf2"), "s"};
    m["graph.vf2_nodes"] = count(count_of(counters, "graph.vf2", "vf2.nodes_explored"));
    m["circuit.validate_s"] = {seconds_of(totals, "circuit.validate"), "s"};

    for (const char* tool : kTools) {
        m[std::string("router.") + tool + "_s"] = {seconds_of(totals, std::string("router.") + tool),
                                                  "s"};
    }
    const double qmap_s = seconds_of(totals, "router.qmap");
    const auto qmap_layers = count_of(counters, "router.qmap", "qmap.layers");
    const auto expanded = count_of(counters, "router.qmap", "qmap.expanded_nodes");
    m["router.qmap.layers"] = count(qmap_layers);
    m["router.qmap.expanded_nodes"] = count(expanded);
    m["router.qmap.us_per_expansion"] = {ratio(qmap_s * 1e6, static_cast<double>(expanded)), "us"};
    m["router.qmap.fallback_layer_frac"] = {
        ratio(static_cast<double>(count_of(counters, "router.qmap", "qmap.fallback_layers")),
              static_cast<double>(qmap_layers)),
        "fraction"};
    const auto decisions = count_of(counters, "router.lightsabre", "sabre.pass_decisions");
    m["router.sabre.pass_decisions"] = count(decisions);
    m["router.sabre.ns_per_decision"] = {
        ratio(seconds_of(totals, "router.lightsabre") * 1e9, static_cast<double>(decisions)), "ns"};
    m["router.sabre.force_routes"] =
        count(count_of(counters, "router.lightsabre", "sabre.force_routes"));
    m["router.mlqls.pass_decisions"] =
        count(count_of(counters, "router.mlqls", "sabre.pass_decisions"));

    m["exact.check_sat_s"] = {seconds_of(totals, "exact.check_sat"), "s"};
    m["exact.check_unsat_s"] = {seconds_of(totals, "exact.check_unsat"), "s"};
    std::uint64_t sat[4] = {0, 0, 0, 0};
    const char* sat_names[4] = {"sat.conflicts", "sat.propagations", "sat.decisions",
                                "sat.restarts"};
    for (const auto& [bucket, values] : counters) {
        for (int i = 0; i < 4; ++i) {
            const auto it = values.find(sat_names[i]);
            if (it != values.end()) sat[i] += it->second;
        }
    }
    for (int i = 0; i < 4; ++i) m[sat_names[i]] = count(sat[i]);
    const double solve_s = seconds_of(totals, "exact.check_sat") +
                           seconds_of(totals, "exact.check_unsat") +
                           seconds_of(totals, "exact.certify");
    m["sat.propagations_per_s"] = {ratio(static_cast<double>(sat[1]), solve_s), "1/s"};

    m["serve.parse_s"] = {seconds_of(totals, "serve.parse"), "s"};
    m["serve.execute_s"] = {seconds_of(totals, "serve.execute"), "s"};
    // Transport counters only the serve workload measures.
    m.emplace("serve.context_hit_frac", metric{0.0, "fraction"});
    m.emplace("serve.context_evictions", metric{0.0, "count"});
    m.emplace("serve.queue_wait_s", metric{0.0, "s"});
    m.emplace("serve.batches", metric{0.0, "count"});
}

}  // namespace perfbench
