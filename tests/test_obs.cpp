// Observability-layer tests: counter-slab merging under pool contention,
// trace-file well-formedness, the telemetry-never-perturbs-results pin
// (bit-identical routing with obs on/off at any thread count), and the
// campaign metrics sidecar's round trip through store -> sync -> merge.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/architectures.hpp"
#include "campaign/merge.hpp"
#include "campaign/plan.hpp"
#include "campaign/profile.hpp"
#include "campaign/report.hpp"
#include "campaign/spec.hpp"
#include "campaign/status.hpp"
#include "campaign/store.hpp"
#include "campaign/sync.hpp"
#include "campaign/worker.hpp"
#include "core/qubikos.hpp"
#include "eval/harness.hpp"
#include "graph/vf2.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "router/qmap.hpp"
#include "router/sabre.hpp"
#include "sat/solver.hpp"
#include "tools/registry.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace qubikos {
namespace {

/// Scoped obs on/off override, restoring the previous state.
class scoped_obs {
public:
    explicit scoped_obs(bool on) : prev_(obs::enabled()) { obs::set_enabled(on); }
    ~scoped_obs() { obs::set_enabled(prev_); }
    scoped_obs(const scoped_obs&) = delete;
    scoped_obs& operator=(const scoped_obs&) = delete;

private:
    bool prev_;
};

std::string scratch_dir(const std::string& name) {
    const auto dir = std::filesystem::temp_directory_path() / "qubikos_obs_tests" / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

std::string read_file(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

campaign::campaign_spec small_spec() {
    campaign::campaign_spec spec;
    spec.name = "obs-test";
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

// --- counter/timer registry -------------------------------------------------

TEST(obs_registry, interning_is_idempotent) {
    const auto a = obs::counter("test.intern");
    const auto b = obs::counter("test.intern");
    EXPECT_EQ(a, b);
    EXPECT_NE(a, obs::counter("test.intern2"));
}

TEST(obs_registry, slab_merge_under_parallel_contention) {
    const scoped_obs on(true);
    obs::reset();
    const auto id = obs::counter("test.contended");
    constexpr std::size_t n = 20000;
    // Every pool slot adds into its own thread's slab; the merged
    // snapshot must see every add exactly once.
    thread_pool::shared().parallel_for_slots(
        0, n, 0, [&](std::size_t, std::size_t) { obs::add(id); }, /*chunk=*/16);
    EXPECT_EQ(obs::collect().value("test.contended"), n);

    // A thread that exits folds its slab into the retired totals.
    std::thread t([&] { obs::add(id, 7); });
    t.join();
    EXPECT_EQ(obs::collect().value("test.contended"), n + 7);
}

TEST(obs_registry, disabled_adds_are_dropped) {
    const scoped_obs off(false);
    obs::reset();
    const auto id = obs::counter("test.disabled");
    obs::add(id, 123);
    EXPECT_EQ(obs::collect().value("test.disabled"), 0u);
}

TEST(obs_registry, scoped_timer_records_calls_and_time) {
    const scoped_obs on(true);
    obs::reset();
    const auto id = obs::timer("test.timed");
    { const obs::scoped_timer t(id); }
    { const obs::scoped_timer t(id); }
    const auto snap = obs::collect();
    EXPECT_EQ(snap.value("test.timed.calls"), 2u);
}

TEST(obs_registry, thread_delta_sees_only_the_calling_thread) {
    const scoped_obs on(true);
    obs::reset();
    const auto id = obs::counter("test.delta");
    const obs::thread_delta delta;
    obs::add(id, 5);
    std::thread t([&] { obs::add(id, 100); });
    t.join();
    EXPECT_EQ(delta.deltas().to_json().dump(), "{\"test.delta\":5}");
    // The merged view still sees both threads.
    EXPECT_EQ(obs::collect().value("test.delta"), 105u);
}

TEST(obs_snapshot, add_keeps_names_sorted_and_counter_set_publishes) {
    obs::snapshot list;
    list.add("test.list.b", 2);
    list.add("test.list.a", 0);  // a zero still lists the name
    list.add("test.list.b", 3);
    EXPECT_EQ(list.value("test.list.b"), 5u);
    EXPECT_EQ(list.value("test.list.absent"), 0u);
    EXPECT_EQ(list.to_json().dump(), "{\"test.list.a\":0,\"test.list.b\":5}");

    const scoped_obs on(true);
    static const obs::counter_set names{"test.set.a", "test.set.b"};
    list = names.zeros;
    const obs::thread_delta delta;
    const std::array<std::uint64_t, 2> values{0, 5};
    names.publish(values, &list);
    {
        const scoped_obs off(false);
        names.publish(values, nullptr);
    }
    EXPECT_EQ(list.to_json().dump(), "{\"test.set.a\":0,\"test.set.b\":5}");
    EXPECT_EQ(delta.deltas().to_json().dump(), "{\"test.set.b\":5}");
}

// SAT's solve() and VF2's match each publish their call's statistics
// through one counter_set: every name, with exactly the call's values.
TEST(obs_registry, sat_and_vf2_publish_each_call_through_one_counter_set) {
    const scoped_obs on(true);
    const obs::thread_delta delta;
    // Three pigeons, two holes: unsatisfiable, with conflicts to count.
    sat::solver s;
    for (int v = 0; v < 6; ++v) s.new_var();
    for (int i = 0; i < 3; ++i) s.add_clause(sat::pos(2 * i), sat::pos(2 * i + 1));
    for (int h = 0; h < 2; ++h) {
        for (int i = 0; i < 3; ++i) {
            for (int j = i + 1; j < 3; ++j) s.add_clause(sat::neg(2 * i + h), sat::neg(2 * j + h));
        }
    }
    const sat::solver::statistics before = s.stats();
    ASSERT_EQ(s.solve(), sat::status::unsat);
    const sat::solver::statistics& after = s.stats();
    ASSERT_GT(after.conflicts, before.conflicts);
    const auto found = find_subgraph_monomorphism(arch::line(5).coupling, arch::grid(2, 3).coupling);
    ASSERT_TRUE(found.found);
    const auto cut = find_subgraph_monomorphism(arch::ring(5).coupling, arch::grid(3, 3).coupling,
                                                {.node_limit = 3});
    ASSERT_TRUE(cut.limit_hit);

    const obs::snapshot published = delta.deltas();
    EXPECT_EQ(published.value("sat.solves"), 1u);
    EXPECT_EQ(published.value("sat.conflicts"), after.conflicts - before.conflicts);
    EXPECT_EQ(published.value("sat.decisions"), after.decisions - before.decisions);
    EXPECT_EQ(published.value("sat.propagations"), after.propagations - before.propagations);
    EXPECT_EQ(published.value("sat.restarts"), after.restarts - before.restarts);
    EXPECT_EQ(published.value("sat.learned_clauses"),
              after.learned_clauses - before.learned_clauses);
    EXPECT_EQ(published.value("vf2.calls"), 2u);
    EXPECT_EQ(published.value("vf2.nodes_explored"), found.nodes_explored + cut.nodes_explored);
    EXPECT_EQ(published.value("vf2.limit_hits"), 1u);
}

// --- span tracing -----------------------------------------------------------

TEST(obs_trace, file_is_json_array_with_properly_nested_spans) {
    const std::string path = scratch_dir("trace") + "/trace.json";
    const auto configured = std::chrono::steady_clock::now();
    obs::set_trace_path(path);
    ASSERT_TRUE(obs::trace_enabled());
    {
        const obs::trace_span outer("test.outer");
        const obs::trace_span inner("test.inner");
    }
    // Spans from pool jobs land in per-thread rings and must still
    // serialize into one well-formed document.
    thread_pool::shared().parallel_for_slots(
        0, 64, 0,
        [&](std::size_t, std::size_t) { const obs::trace_span s("test.pool_item"); },
        /*chunk=*/4);
    obs::flush_trace();
    const double elapsed_us = std::chrono::duration<double, std::micro>(
                                  std::chrono::steady_clock::now() - configured)
                                  .count();
    obs::set_trace_path("");

    const json::value doc = json::parse(read_file(path));
    const auto& events = doc.as_array();
    ASSERT_GE(events.size(), 3u);
    for (const auto& e : events) {
        EXPECT_EQ(e.at("ph").as_string(), "X");
        EXPECT_FALSE(e.at("name").as_string().empty());
        EXPECT_GE(e.at("dur").as_number(), 0.0);
        // Timestamps are offsets from the moment tracing was configured:
        // never negative (wrapped) and never past the flush.
        const double ts = e.at("ts").as_number();
        EXPECT_GE(ts, 0.0) << e.at("name").as_string();
        EXPECT_LE(ts, elapsed_us) << e.at("name").as_string();
        (void)e.at("tid").as_number();
    }
    // Same-thread spans are RAII-scoped, so any two events of one tid
    // are either disjoint or strictly nested — never partially
    // overlapping.
    for (std::size_t i = 0; i < events.size(); ++i) {
        for (std::size_t j = i + 1; j < events.size(); ++j) {
            const auto& a = events[i];
            const auto& b = events[j];
            if (a.at("tid").as_number() != b.at("tid").as_number()) continue;
            const double a0 = a.at("ts").as_number();
            const double a1 = a0 + a.at("dur").as_number();
            const double b0 = b.at("ts").as_number();
            const double b1 = b0 + b.at("dur").as_number();
            const bool partial_overlap = (a0 < b0 && b0 < a1 && a1 < b1) ||
                                         (b0 < a0 && a0 < b1 && b1 < a1);
            EXPECT_FALSE(partial_overlap) << i << " vs " << j;
        }
    }
}

// --- telemetry never perturbs results ---------------------------------------

TEST(obs_routing, bit_identical_with_obs_on_off_and_any_thread_count) {
    const auto device = arch::aspen4();
    const distance_provider dist(device.coupling);
    core::generator_options gen;
    gen.num_swaps = 6;
    gen.total_two_qubit_gates = 120;
    gen.seed = 11;
    const auto instance = core::generate(device, gen);

    router::sabre_options options;
    options.trials = 8;
    options.seed = 5;
    options.threads = 1;

    routed_circuit reference;
    obs::snapshot reference_stats;
    {
        const scoped_obs off(false);
        reference = router::route_sabre(instance.logical, device.coupling, dist, options,
                                        nullptr, &reference_stats);
    }

    const std::string trace = scratch_dir("routing_trace") + "/trace.json";
    for (const bool enabled : {false, true}) {
        const scoped_obs mode(enabled);
        if (enabled) obs::set_trace_path(trace);  // tracing must not perturb either
        for (const int threads : {1, 2, 4}) {
            router::sabre_options plain = options;
            plain.threads = threads;
            obs::snapshot stats;
            const auto routed =
                router::route_sabre(instance.logical, device.coupling, dist, plain, nullptr,
                                    &stats);
            EXPECT_EQ(routed.initial, reference.initial) << enabled << " " << threads;
            EXPECT_EQ(routed.physical.gates(), reference.physical.gates())
                << enabled << " " << threads;
            EXPECT_EQ(stats.value("sabre.best_swaps"), reference_stats.value("sabre.best_swaps"));
        }
        if (enabled) {
            obs::flush_trace();
            obs::set_trace_path("");
        }
    }
}

// --- harness router-stats wiring --------------------------------------------

TEST(obs_harness, lightsabre_reports_router_stats_in_records) {
    const scoped_obs on(true);
    const auto device = arch::grid(3, 3);
    core::generator_options gen;
    gen.num_swaps = 2;
    gen.total_two_qubit_gates = 25;
    gen.seed = 5;
    auto instance = core::generate(device, gen);
    instance.optimal_swaps = gen.num_swaps;

    for (const auto& name : tools::paper_tool_names()) {
        const auto t = tools::make_tool(
            name, name == "lightsabre" ? json::value(json::object{{"trials", 4}}) : json::value());
        const obs::thread_delta delta;
        const auto record = eval::run_tool_record(t, instance, device, nullptr);
        const obs::snapshot published = delta.deltas();
        EXPECT_TRUE(record.valid) << t.name;
        // tket reports no counters; the others record exactly what they
        // publish.
        EXPECT_EQ(record.stats.empty(), t.name == "tket") << t.name;
        for (const auto& [name, n] : record.stats) EXPECT_EQ(published.value(name), n) << name;
        if (t.name == "qmap") EXPECT_GT(record.stats.value("qmap.layers"), 0u);
        if (t.name == "lightsabre") {
            EXPECT_EQ(record.stats.value("sabre.trials_run"), 4u);
            EXPECT_EQ(record.stats.value("sabre.arena_slots"), 1u);  // tools run serial
            EXPECT_GT(record.stats.value("sabre.pass_decisions"), 0u);
        }
        // mlqls publishes SABRE's counters once per route, not once per
        // placement trial.
        if (t.name == "mlqls") {
            EXPECT_EQ(record.stats.value("sabre.routes"), 1u);
            EXPECT_EQ(record.stats.value("sabre.trials_run"), 4u);  // placement trials
            EXPECT_EQ(record.stats.value("sabre.arena_slots"), 1u);
            EXPECT_EQ(record.stats.value("sabre.best_swaps"), record.measured_swaps);
            EXPECT_GT(record.stats.value("sabre.pass_decisions"), 0u);
        }
        // Routing without a counter list must route identically (same
        // options, same seed).
        const auto plain = t.route(instance.logical, device.coupling, nullptr, nullptr);
        EXPECT_EQ(plain.swap_count(), record.measured_swaps) << t.name;
    }
}

// --- campaign metrics sidecar -----------------------------------------------

TEST(obs_campaign, metrics_round_trip_store_sync_merge) {
    const scoped_obs on(true);
    const auto spec = small_spec();
    const auto plan = campaign::expand_plan(spec);

    const std::string store_a = scratch_dir("metrics_store");
    campaign::worker_options with_metrics;
    with_metrics.record_metrics = 1;
    const auto report = campaign::run_campaign_shard(plan, store_a, with_metrics);
    EXPECT_EQ(report.executed, plan.units.size());

    // One sidecar per successful unit, each carrying the unit timer and
    // never affecting completion bookkeeping.
    const auto runs = campaign::result_store::load_runs(store_a);
    std::size_t results = 0;
    std::size_t sidecars = 0;
    for (const auto& run : runs) {
        if (run.is_metrics()) {
            ++sidecars;
            EXPECT_EQ(run.metrics.value("campaign.unit.calls"), 1u) << run.unit_id;
        } else {
            ++results;
        }
    }
    EXPECT_EQ(results, plan.units.size());
    EXPECT_EQ(sidecars, plan.units.size());

    // Serialization round-trips the sidecar byte-exactly.
    for (const auto& run : runs) {
        const auto round = campaign::run_from_json(campaign::run_to_json(run));
        EXPECT_EQ(round.is_metrics(), run.is_metrics());
        EXPECT_EQ(campaign::run_to_json(round).dump(), campaign::run_to_json(run).dump());
    }

    // Status ignores sidecars: everything counts done exactly once.
    const auto status = campaign::probe_status(plan, runs);
    EXPECT_TRUE(status.complete());
    EXPECT_EQ(status.totals.done, plan.units.size());

    // Sidecars flow through sync untouched.
    const std::string synced = scratch_dir("metrics_synced");
    campaign::sync_stores(synced, {store_a});
    const auto synced_runs = campaign::result_store::load_runs(synced);
    EXPECT_EQ(synced_runs.size(), runs.size());
    std::size_t synced_sidecars = 0;
    for (const auto& run : synced_runs) synced_sidecars += run.is_metrics() ? 1 : 0;
    EXPECT_EQ(synced_sidecars, plan.units.size());

    // Merge keeps one sidecar per unit; the report is byte-identical to
    // a metrics-free campaign.
    const auto merged = campaign::merge_stores(plan, {synced});
    EXPECT_TRUE(merged.complete());
    EXPECT_EQ(merged.runs.size(), plan.units.size());
    EXPECT_EQ(merged.metrics.size(), plan.units.size());

    const std::string store_b = scratch_dir("metrics_free_store");
    campaign::worker_options without_metrics;
    without_metrics.record_metrics = 0;
    campaign::run_campaign_shard(plan, store_b, without_metrics);
    const auto merged_b = campaign::merge_stores(plan, {store_b});
    EXPECT_EQ(campaign::render_report(plan, merged), campaign::render_report(plan, merged_b));

    // Profile aggregates the sidecars byte-deterministically; a
    // metrics-free store gets the hint instead.
    const std::string profile = campaign::render_profile(plan, synced_runs);
    EXPECT_EQ(profile, campaign::render_profile(plan, synced_runs));
    EXPECT_NE(profile.find("campaign.unit.calls"), std::string::npos);
    EXPECT_NE(profile.find("lightsabre"), std::string::npos);
    const std::string no_metrics_profile =
        campaign::render_profile(plan, campaign::result_store::load_runs(store_b));
    EXPECT_NE(no_metrics_profile.find("QUBIKOS_OBS=metrics"), std::string::npos);
}

TEST(obs_campaign, status_json_is_stable_and_reports_quarantine_reasons) {
    auto spec = small_spec();
    spec.max_attempts = 1;
    const auto plan = campaign::expand_plan(spec);
    const std::string poisoned = plan.units.front().id;

    const std::string dir = scratch_dir("status_json");
    {
        ::setenv("QUBIKOS_CAMPAIGN_FAULT_UNIT", poisoned.c_str(), 1);
        campaign::worker_options options;
        options.record_metrics = 0;
        campaign::run_campaign_shard(plan, dir, options);
        ::unsetenv("QUBIKOS_CAMPAIGN_FAULT_UNIT");
    }

    const auto runs = campaign::result_store::load_runs(dir);
    campaign::status_options options;
    options.num_shards = 2;
    const auto status = campaign::probe_status(plan, runs, options);
    EXPECT_EQ(status.totals.quarantined, 1u);

    const json::value doc = campaign::status_to_json(plan, status);
    EXPECT_EQ(doc.dump(2), campaign::status_to_json(plan, status).dump(2));
    EXPECT_EQ(doc.at("campaign").as_string(), spec.name);
    EXPECT_FALSE(doc.at("complete").as_bool());
    EXPECT_EQ(doc.at("totals").at("quarantined").as_number(), 1.0);
    EXPECT_EQ(doc.at("shards").as_array().size(), 2u);
    const auto& quarantined = doc.at("quarantined_units").as_array();
    ASSERT_EQ(quarantined.size(), 1u);
    EXPECT_EQ(quarantined[0].at("unit_id").as_string(), poisoned);
    // The reason — which the text table truncates — is first-class here.
    EXPECT_NE(quarantined[0].at("error").as_string().find("injected fault"),
              std::string::npos);
}

}  // namespace
}  // namespace qubikos
