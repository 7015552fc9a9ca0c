// Campaign-engine tests: spec round-trip, plan stability, shard
// partitioning, result-store crash tolerance, and the core guarantee —
// a sharded, interrupted, resumed, merged campaign reproduces a
// serial one-shard run exactly.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>

#include "arch/architectures.hpp"
#include "campaign/merge.hpp"
#include "campaign/plan.hpp"
#include "campaign/report.hpp"
#include "campaign/spec.hpp"
#include "campaign/status.hpp"
#include "campaign/store.hpp"
#include "campaign/sync.hpp"
#include "campaign/worker.hpp"
#include "circuit/interaction.hpp"
#include "core/queko.hpp"
#include "core/quekno.hpp"
#include "core/suite.hpp"
#include "eval/harness.hpp"
#include "exact/olsq.hpp"
#include "graph/vf2.hpp"
#include "obs/obs.hpp"
#include "router/sabre.hpp"

namespace qubikos {
namespace {

campaign::campaign_spec small_spec() {
    campaign::campaign_spec spec;
    spec.name = "test";
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

/// The merged records alone, in plan order, for eval::aggregate.
std::vector<eval::run_record> records_of(const campaign::merge_result& merged) {
    std::vector<eval::run_record> records;
    for (const auto& run : merged.runs) records.push_back(run.record);
    return records;
}

/// Fresh per-test scratch directory (removed up front, not after, so a
/// failing test leaves its store behind for inspection).
std::string scratch_dir(const std::string& name) {
    const auto dir = std::filesystem::temp_directory_path() / "qubikos_campaign_tests" / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

/// The record file a lone shard-0 writer appends to — where a crash can
/// tear bytes.
std::string writer0_file(const std::string& dir) {
    return dir + "/" + campaign::runs_file_name(0);
}

/// Scoped QUBIKOS_CAMPAIGN_FAULT_UNIT, so a failing test can't leak the
/// fault hook into later tests.
class scoped_fault {
public:
    explicit scoped_fault(const std::string& pattern) {
        ::setenv("QUBIKOS_CAMPAIGN_FAULT_UNIT", pattern.c_str(), 1);
    }
    ~scoped_fault() { ::unsetenv("QUBIKOS_CAMPAIGN_FAULT_UNIT"); }
    scoped_fault(const scoped_fault&) = delete;
    scoped_fault& operator=(const scoped_fault&) = delete;
};

TEST(campaign_spec, json_round_trip_and_fingerprint) {
    const auto spec = campaign::example_spec();
    const auto restored = campaign::spec_from_json(campaign::spec_to_json(spec));
    EXPECT_EQ(campaign::spec_to_json(restored).dump(), campaign::spec_to_json(spec).dump());
    EXPECT_EQ(campaign::spec_fingerprint(restored), campaign::spec_fingerprint(spec));

    auto changed = spec;
    changed.sabre_trials += 1;
    EXPECT_NE(campaign::spec_fingerprint(changed), campaign::spec_fingerprint(spec));

    // save_spec creates missing parent directories (the README's
    // `campaign init exp/spec.json` flow on a fresh checkout).
    const std::string path = scratch_dir("spec_rt") + "/nested/exp/spec.json";
    campaign::save_spec(spec, path);
    EXPECT_EQ(campaign::spec_fingerprint(campaign::load_spec(path)),
              campaign::spec_fingerprint(spec));
}

TEST(campaign_plan, expansion_order_and_stable_ids) {
    const auto plan = campaign::expand_plan(small_spec());
    // 2 counts x 2 circuits x 4 tools, instance-major tool-minor.
    ASSERT_EQ(plan.units.size(), 16u);
    EXPECT_EQ(plan.units[0].id, "u0:grid3x3:n1:i0:seed5:lightsabre");
    EXPECT_EQ(plan.units[1].id, "u0:grid3x3:n1:i0:seed5:mlqls");
    EXPECT_EQ(plan.units[4].id, "u0:grid3x3:n1:i1:seed6:lightsabre");
    EXPECT_EQ(plan.units[8].designed_swaps, 2);
    EXPECT_EQ(plan.units[8].instance_seed, 7u);
    // Expansion is deterministic.
    const auto again = campaign::expand_plan(small_spec());
    for (std::size_t i = 0; i < plan.units.size(); ++i) {
        EXPECT_EQ(plan.units[i].id, again.units[i].id);
    }
}

TEST(campaign_plan, shards_partition_the_plan) {
    const auto plan = campaign::expand_plan(small_spec());
    for (const int n : {1, 2, 3, 5, 16, 20}) {
        std::set<std::size_t> seen;
        std::size_t total = 0;
        for (int k = 0; k < n; ++k) {
            const auto indices = campaign::shard_indices(plan.units.size(), k, n);
            total += indices.size();
            for (std::size_t i = 1; i < indices.size(); ++i) {
                EXPECT_LT(indices[i - 1], indices[i]);  // ascending
            }
            for (const auto i : indices) {
                EXPECT_TRUE(seen.insert(i).second) << "index assigned twice with n=" << n;
            }
        }
        EXPECT_EQ(total, plan.units.size()) << "n=" << n;       // completeness
        EXPECT_EQ(seen.size(), plan.units.size()) << "n=" << n;  // disjointness
    }
    EXPECT_THROW((void)campaign::shard_indices(4, 2, 2), std::invalid_argument);
    EXPECT_THROW((void)campaign::shard_indices(4, -1, 2), std::invalid_argument);
    EXPECT_THROW((void)campaign::shard_indices(4, 0, 0), std::invalid_argument);
}

TEST(campaign_store, interrupted_run_with_torn_tail_resumes) {
    const auto spec = small_spec();
    const auto plan = campaign::expand_plan(spec);
    const std::string dir = scratch_dir("resume");

    campaign::worker_options options;
    options.max_units = 3;  // deterministic "interruption"
    options.batch_size = 2;
    auto report = campaign::run_campaign_shard(plan, dir, options);
    EXPECT_EQ(report.executed, 3u);
    EXPECT_EQ(report.remaining, plan.units.size() - 3);

    // Simulate the crash tearing the writer's file mid-append.
    {
        std::ofstream tail(writer0_file(dir), std::ios::app);
        tail << "{\"unit_id\": \"torn-by-cra";
    }

    // Reopen: the torn tail is discarded, the 3 durable units are known.
    {
        campaign::result_store store(dir, spec);
        EXPECT_EQ(store.completed().size(), 3u);
        EXPECT_TRUE(store.is_complete(plan.units[0].id));
    }
    EXPECT_EQ(campaign::result_store::load_runs(dir).size(), 3u);

    options.max_units = 0;
    report = campaign::run_campaign_shard(plan, dir, options);
    EXPECT_EQ(report.skipped, 3u);
    EXPECT_EQ(report.executed, plan.units.size() - 3);

    const auto merged = campaign::merge_stores(plan, {dir});
    EXPECT_TRUE(merged.complete());
    EXPECT_EQ(merged.runs.size(), plan.units.size());
}

TEST(campaign_store, truncation_inside_a_record_drops_only_that_record) {
    const auto spec = small_spec();
    const auto plan = campaign::expand_plan(spec);
    const std::string dir = scratch_dir("truncate");
    campaign::worker_options options;
    options.max_units = 2;
    (void)campaign::run_campaign_shard(plan, dir, options);
    ASSERT_EQ(campaign::result_store::load_runs(dir).size(), 2u);

    const std::string path = writer0_file(dir);
    std::filesystem::resize_file(path, std::filesystem::file_size(path) - 7);
    EXPECT_EQ(campaign::result_store::load_runs(dir).size(), 1u);

    // Reopening truncates the torn bytes and resumes cleanly.
    campaign::result_store store(dir, spec);
    EXPECT_EQ(store.completed().size(), 1u);
}

TEST(campaign_store, corruption_before_the_tail_is_a_hard_error) {
    const auto spec = small_spec();
    const auto plan = campaign::expand_plan(spec);
    const std::string dir = scratch_dir("corrupt");
    campaign::worker_options options;
    options.max_units = 2;
    (void)campaign::run_campaign_shard(plan, dir, options);

    // Garbage with records after it is not a torn tail.
    const std::string path = writer0_file(dir);
    std::string content;
    {
        std::ifstream in(path);
        std::getline(in, content);
    }
    std::ofstream out(path, std::ios::trunc);
    out << "this is not json\n" << content << "\n";
    out.close();
    EXPECT_THROW((void)campaign::result_store::load_runs(dir), std::runtime_error);
}

TEST(campaign_store, rejects_store_of_a_different_spec) {
    const auto spec = small_spec();
    const std::string dir = scratch_dir("fingerprint");
    { campaign::result_store store(dir, spec); }
    auto other = spec;
    other.sabre_trials = 99;
    EXPECT_THROW(campaign::result_store(dir, other), std::runtime_error);
    // The matching spec still opens.
    campaign::result_store store(dir, spec);
    EXPECT_TRUE(store.completed().empty());
}

TEST(campaign_merge, sharded_interrupted_run_equals_serial_run) {
    const auto spec = small_spec();
    const auto plan = campaign::expand_plan(spec);

    // Serial reference: one shard on one thread, uninterrupted.
    const std::string serial_dir = scratch_dir("merge_serial");
    (void)campaign::run_campaign_shard(plan, serial_dir, {});
    const auto serial_merged = campaign::merge_stores(plan, {serial_dir});
    ASSERT_TRUE(serial_merged.complete());
    const auto serial_records = records_of(serial_merged);
    const auto serial_cells = eval::aggregate(serial_records);

    // Campaign: two shards, one interrupted and resumed, workers parallel.
    const std::string dir0 = scratch_dir("merge_s0");
    const std::string dir1 = scratch_dir("merge_s1");
    campaign::worker_options options;
    options.num_shards = 2;
    options.threads = 2;
    options.batch_size = 3;
    options.shard = 0;
    (void)campaign::run_campaign_shard(plan, dir0, options);
    options.shard = 1;
    options.max_units = 2;
    (void)campaign::run_campaign_shard(plan, dir1, options);  // interrupted...
    options.max_units = 0;
    (void)campaign::run_campaign_shard(plan, dir1, options);  // ...and resumed

    const auto merged = campaign::merge_stores(plan, {dir0, dir1});
    ASSERT_TRUE(merged.complete());
    const auto records = records_of(merged);
    ASSERT_EQ(records.size(), serial_records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].tool, serial_records[i].tool) << i;
        EXPECT_EQ(records[i].designed_swaps, serial_records[i].designed_swaps) << i;
        EXPECT_EQ(records[i].measured_swaps, serial_records[i].measured_swaps) << i;
        EXPECT_EQ(records[i].valid, serial_records[i].valid) << i;
        EXPECT_DOUBLE_EQ(records[i].depth_ratio, serial_records[i].depth_ratio) << i;
    }

    // Aggregates agree cell by cell, so the paper tables are identical.
    const auto cells = eval::aggregate(records);
    ASSERT_EQ(cells.size(), serial_cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(cells[i].tool, serial_cells[i].tool);
        EXPECT_EQ(cells[i].designed_swaps, serial_cells[i].designed_swaps);
        EXPECT_EQ(cells[i].runs, serial_cells[i].runs);
        EXPECT_DOUBLE_EQ(cells[i].swap_ratio, serial_cells[i].swap_ratio);
        EXPECT_DOUBLE_EQ(cells[i].average_depth_ratio, serial_cells[i].average_depth_ratio);
    }

    // And the rendered report is byte-identical to the serial run's.
    EXPECT_EQ(campaign::render_report(plan, merged),
              campaign::render_report(plan, serial_merged));

    // The shard stores synced into one behave like any other store.
    const std::string out = scratch_dir("merge_out");
    (void)campaign::sync_stores(out, {dir0, dir1});
    const auto reloaded = campaign::merge_stores(plan, {out});
    EXPECT_TRUE(reloaded.complete());
    EXPECT_EQ(campaign::render_report(plan, reloaded), campaign::render_report(plan, merged));
}

TEST(campaign_merge, overlapping_stores_dedup_and_conflicts_throw) {
    const auto spec = small_spec();
    const auto plan = campaign::expand_plan(spec);
    const std::string dir0 = scratch_dir("dup_a");
    const std::string dir1 = scratch_dir("dup_b");
    campaign::worker_options options;
    options.max_units = 4;
    (void)campaign::run_campaign_shard(plan, dir0, options);
    (void)campaign::run_campaign_shard(plan, dir1, options);  // same units again

    auto merged = campaign::merge_stores(plan, {dir0, dir1});
    EXPECT_EQ(merged.duplicates, 4u);
    EXPECT_EQ(merged.runs.size(), 4u);

    // A record disagreeing on a deterministic field is a hard error.
    const std::string dir2 = scratch_dir("dup_conflict");
    {
        campaign::result_store store(dir2, spec);
        campaign::stored_run bad = campaign::result_store::load_runs(dir0).front();
        bad.record.measured_swaps += 1;
        store.append(bad);
        store.flush();
    }
    EXPECT_THROW((void)campaign::merge_stores(plan, {dir0, dir2}), std::runtime_error);
}

TEST(campaign_merge, rejects_store_of_a_different_spec) {
    const auto spec = small_spec();
    const auto plan = campaign::expand_plan(spec);
    auto other = spec;
    other.sabre_trials = 99;  // same unit IDs, different experiment
    const std::string dir = scratch_dir("merge_fingerprint");
    campaign::worker_options options;
    options.max_units = 1;
    (void)campaign::run_campaign_shard(campaign::expand_plan(other), dir, options);
    EXPECT_THROW((void)campaign::merge_stores(plan, {dir}), std::runtime_error);
    // A directory that is not a store at all is also an error.
    EXPECT_THROW((void)campaign::merge_stores(plan, {scratch_dir("merge_not_a_store")}),
                 std::exception);
}

TEST(campaign_certify, confirms_designed_counts) {
    campaign::campaign_spec spec;
    spec.name = "certify_test";
    spec.mode = campaign::campaign_mode::certify;
    core::suite_spec suite;
    suite.arch_name = "grid3x3";
    suite.swap_counts = {1, 2};
    suite.circuits_per_count = 1;
    suite.total_two_qubit_gates = 20;
    suite.base_seed = 3;
    spec.suites.push_back(suite);

    const auto plan = campaign::expand_plan(spec);
    ASSERT_EQ(plan.units.size(), 2u);  // one "exact" pseudo-tool
    EXPECT_EQ(plan.units[0].tool, "exact");

    const std::string dir = scratch_dir("certify");
    const auto report = campaign::run_campaign_shard(plan, dir, {});
    EXPECT_EQ(report.invalid_runs, 0);

    const auto merged = campaign::merge_stores(plan, {dir});
    ASSERT_TRUE(merged.complete());
    for (const auto& run : merged.runs) {
        EXPECT_TRUE(run.record.valid);
        EXPECT_EQ(run.sat_at_n, 1);
        EXPECT_EQ(run.unsat_below, 1);
        EXPECT_EQ(run.structure_ok, 1);
        EXPECT_EQ(run.record.measured_swaps,
                  static_cast<std::size_t>(run.record.designed_swaps));
    }
    const auto rendered = campaign::render_report(plan, merged);
    EXPECT_NE(rendered.find("confirmed 2/2"), std::string::npos);
}

TEST(campaign_certify, sat_at_k_starts_from_the_planted_answer) {
    campaign::campaign_spec spec;
    spec.name = "hinted_certify";
    spec.mode = campaign::campaign_mode::certify;
    core::suite_spec suite;
    suite.arch_name = "aspen4";
    suite.swap_counts = {1, 2, 3};
    suite.circuits_per_count = 1;
    suite.total_two_qubit_gates = 30;
    suite.base_seed = 5;
    spec.suites.push_back(suite);

    const auto plan = campaign::expand_plan(spec);
    const campaign::unit_executor executor(spec);
    const bool was_enabled = obs::enabled();
    obs::set_enabled(true);
    const obs::snapshot before = obs::collect();
    for (const auto& unit : plan.units) {
        const auto run = executor.execute(unit);
        EXPECT_TRUE(run.record.valid) << unit.id;
        EXPECT_EQ(run.sat_at_n, 1) << unit.id;
        EXPECT_EQ(run.unsat_below, 1) << unit.id;
    }
    const obs::snapshot after = obs::collect();
    // rochester53's only automorphism is the identity, so its encoding
    // has no symmetry to break.
    circuit triangle(3);
    triangle.append(gate::cx(0, 1));
    triangle.append(gate::cx(1, 2));
    triangle.append(gate::cx(0, 2));
    EXPECT_EQ(exact::check_swap_count(triangle, arch::rochester53().coupling, 0),
              exact::feasibility::infeasible);
    const obs::snapshot asymmetric = obs::collect();
    obs::set_enabled(was_enabled);
    const auto delta = [&](const char* name) { return after.value(name) - before.value(name); };
    // One encoding, two solves per unit (SAT at k, UNSAT at k-1); only
    // the UNSAT proofs search.
    EXPECT_EQ(delta("sat.solves"), 2 * plan.units.size());
    EXPECT_EQ(delta("exact.feasible_conflicts"), 0u);
    EXPECT_GT(delta("sat.conflicts"), 0u);
    EXPECT_GT(delta("exact.encode_ns"), 0u);
    // aspen4 has four automorphisms, and every encoding breaks them.
    EXPECT_GT(delta("exact.symmetry_clauses"), 0u);
    EXPECT_EQ(asymmetric.value("exact.symmetry_clauses"), after.value("exact.symmetry_clauses"));
}

TEST(campaign_spec, v1_specs_keep_their_schema_and_fingerprint) {
    // Schema v2 must not disturb v1 canonical JSON: the fingerprint keys
    // every existing result store, so this value is load-bearing (it is
    // the PR-2 fingerprint of example_spec, verified against that build).
    const auto spec = campaign::example_spec();
    EXPECT_EQ(campaign::spec_to_json(spec).at("schema").as_string(),
              "qubikos.campaign_spec.v1");
    EXPECT_EQ(campaign::spec_fingerprint(spec), "c309e38a59ed4985");

    // Any v2 feature flips the schema (and the fingerprint with it).
    auto v2 = spec;
    v2.max_attempts = 3;
    EXPECT_EQ(campaign::spec_to_json(v2).at("schema").as_string(), "qubikos.campaign_spec.v2");
    EXPECT_NE(campaign::spec_fingerprint(v2), campaign::spec_fingerprint(spec));
}

TEST(campaign_spec, v2_family_spec_round_trips) {
    campaign::campaign_spec spec;
    spec.name = "contrast";
    spec.mode = campaign::campaign_mode::certify;
    spec.vf2_check = true;
    spec.max_attempts = 3;
    campaign::campaign_suite queko;
    queko.arch_name = "grid3x3";
    queko.family = campaign::benchmark_family::queko;
    queko.swap_counts = {4};
    queko.circuits_per_count = 2;
    queko.queko_density = 0.6;
    queko.base_seed = 1;
    spec.suites.push_back(queko);
    campaign::campaign_suite quekno;
    quekno.arch_name = "grid3x3";
    quekno.family = campaign::benchmark_family::quekno;
    quekno.swap_counts = {1};
    quekno.circuits_per_count = 2;
    quekno.quekno_gates_per_epoch = 4;
    quekno.base_seed = 1;
    spec.suites.push_back(quekno);

    const auto restored = campaign::spec_from_json(campaign::spec_to_json(spec));
    EXPECT_EQ(campaign::spec_to_json(restored).dump(), campaign::spec_to_json(spec).dump());
    EXPECT_EQ(campaign::spec_fingerprint(restored), campaign::spec_fingerprint(spec));
    ASSERT_EQ(restored.suites.size(), 2u);
    EXPECT_EQ(restored.suites[0].family, campaign::benchmark_family::queko);
    EXPECT_DOUBLE_EQ(restored.suites[0].queko_density, 0.6);
    EXPECT_EQ(restored.suites[1].family, campaign::benchmark_family::quekno);
    EXPECT_EQ(restored.suites[1].quekno_gates_per_epoch, 4);
    EXPECT_EQ(restored.max_attempts, 3);
    EXPECT_TRUE(restored.vf2_check);
}

TEST(campaign_spec, v3_tool_variants_round_trip_and_plain_specs_keep_v1_bytes) {
    // Plain-name tool lists — the entire pre-v3 world — must keep their
    // schema and canonical bytes, or every store fingerprint breaks.
    auto plain = campaign::example_spec();
    plain.tools = {"lightsabre", "tket"};
    EXPECT_EQ(campaign::spec_to_json(plain).at("schema").as_string(),
              "qubikos.campaign_spec.v1");
    const auto plain_restored = campaign::spec_from_json(campaign::spec_to_json(plain));
    EXPECT_EQ(campaign::spec_to_json(plain_restored).dump(),
              campaign::spec_to_json(plain).dump());
    EXPECT_EQ(campaign::spec_fingerprint(plain_restored), campaign::spec_fingerprint(plain));

    // One option-carrying variant flips the spec (and only then) to v3.
    auto v3 = plain;
    v3.tools.emplace_back("sabre", json::value(json::object{{"lookahead_decay", 0.5}}),
                          "sabre-decay");
    const auto v3_json = campaign::spec_to_json(v3);
    EXPECT_EQ(v3_json.at("schema").as_string(), "qubikos.campaign_spec.v3");
    EXPECT_NE(campaign::spec_fingerprint(v3), campaign::spec_fingerprint(plain));

    const auto restored = campaign::spec_from_json(v3_json);
    EXPECT_EQ(campaign::spec_to_json(restored).dump(), v3_json.dump());
    EXPECT_EQ(campaign::spec_fingerprint(restored), campaign::spec_fingerprint(v3));
    ASSERT_EQ(restored.tools.size(), 3u);
    EXPECT_TRUE(restored.tools[0].plain());
    EXPECT_EQ(restored.tools[2].name, "sabre");
    EXPECT_EQ(restored.tools[2].display(), "sabre-decay");
    EXPECT_DOUBLE_EQ(restored.tools[2].options.at("lookahead_decay").as_number(), 0.5);

    // Labels become the tool column; names are validated in the registry.
    EXPECT_EQ(campaign::resolved_tool_names(v3),
              (std::vector<std::string>{"lightsabre", "tket", "sabre-decay"}));
    auto unknown = plain;
    unknown.tools = {"olsq"};
    EXPECT_THROW((void)campaign::resolved_tool_names(unknown), std::invalid_argument);
    EXPECT_THROW((void)campaign::expand_plan(unknown), std::invalid_argument);
    auto bad_option = plain;
    bad_option.tools = {campaign::tool_variant(
        "lightsabre", json::value(json::object{{"trails", 8}}), "typo")};
    EXPECT_THROW((void)campaign::resolved_tool_names(bad_option), std::invalid_argument);
    auto duplicate = plain;
    duplicate.tools = {"lightsabre", "lightsabre"};
    EXPECT_THROW((void)campaign::resolved_tool_names(duplicate), std::invalid_argument);
}

/// `spec`'s canonical JSON with `key` set to `value` at the top level
/// (`list` null) or in the last entry of its `list` ("suites", "tools").
json::value with_key(const campaign::campaign_spec& spec, const char* list, const std::string& key,
                     json::value value) {
    json::object top = campaign::spec_to_json(spec).as_object();
    json::object* target = &top;
    json::array items;
    json::object last;
    if (list != nullptr) {
        items = top[list].as_array();
        last = items.back().as_object();
        target = &last;
    }
    (*target)[key] = std::move(value);
    if (list != nullptr) {
        items.back() = json::value(std::move(last));
        top[list] = json::value(std::move(items));
    }
    return json::value(std::move(top));
}

/// Expects spec_from_json(`v`) to throw std::invalid_argument whose
/// message contains `needle`.
void expect_load_error(const json::value& v, const std::string& needle) {
    try {
        (void)campaign::spec_from_json(v);
        ADD_FAILURE() << "loaded a spec that should fail on " << needle;
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
}

TEST(campaign_spec, unknown_keys_are_load_errors) {
    auto spec = campaign::example_spec();
    spec.tools = {"lightsabre",
                  campaign::tool_variant("sabre", json::value(json::object{{"trials", 2}}),
                                         "sabre2")};
    (void)campaign::spec_from_json(campaign::spec_to_json(spec));
    expect_load_error(with_key(spec, nullptr, "vf2_chek", true), "'vf2_chek'");
    expect_load_error(with_key(spec, "suites", "circuit_per_count", 3), "'circuit_per_count'");
    expect_load_error(with_key(spec, "tools", "optoins", json::object{{"trials", 4}}),
                      "'optoins'");
    // A family knob on a suite of another family would be dropped by the
    // writer, so it is refused too.
    expect_load_error(with_key(spec, "suites", "queko_density", 0.3), "'queko_density'");
}

TEST(campaign_spec, planted_variants_round_trip_and_unrunnable_ones_are_load_errors) {
    auto spec = campaign::example_spec();
    campaign::tool_variant planted("sabre", json::value(), "sabre-planted");
    planted.planted = true;
    spec.tools = {"sabre", planted};
    const auto v = campaign::spec_to_json(spec);
    EXPECT_EQ(v.at("schema").as_string(), "qubikos.campaign_spec.v3");
    EXPECT_EQ(v.at("tools").as_array()[1].at("initial").as_string(), "planted");
    const auto restored = campaign::spec_from_json(v);
    EXPECT_EQ(campaign::spec_to_json(restored).dump(), v.dump());
    EXPECT_TRUE(restored.tools[1].planted);
    EXPECT_FALSE(restored.tools[0].planted);
    // The field is part of the fingerprint: the same label without it is
    // another experiment.
    auto unplanted = spec;
    unplanted.tools[1].planted = false;
    EXPECT_NE(campaign::spec_fingerprint(unplanted), campaign::spec_fingerprint(spec));

    expect_load_error(with_key(spec, "tools", "initial", "identity"), "initial");
    expect_load_error(with_key(spec, "tools", "initial", true), "initial");
    expect_load_error(with_key(spec, "tools", "name", "mlqls"), "mlqls");
    for (const auto family :
         {campaign::benchmark_family::queko, campaign::benchmark_family::quekno}) {
        auto other = spec;
        other.suites[1].family = family;
        expect_load_error(campaign::spec_to_json(other), campaign::family_name(family));
    }
    // A spec built in code meets the same rule at plan time.
    auto mlqls = spec;
    mlqls.tools[1].name = "mlqls";
    EXPECT_THROW((void)campaign::expand_plan(mlqls), std::invalid_argument);
}

TEST(campaign_merge, planted_unit_routes_from_the_planted_mapping) {
    campaign::campaign_spec spec;
    spec.name = "planted_test";
    campaign::tool_variant planted("sabre", json::value(), "sabre-planted");
    planted.planted = true;
    spec.tools = {planted};
    core::suite_spec suite;
    suite.arch_name = "aspen4";
    suite.swap_counts = {3};
    suite.circuits_per_count = 2;
    suite.total_two_qubit_gates = 60;
    suite.base_seed = 11;
    spec.suites.push_back(suite);

    const auto plan = campaign::expand_plan(spec);
    ASSERT_EQ(plan.units.size(), 2u);
    const auto device = arch::by_name("aspen4");
    const auto s = core::generate_suite(device, suite);
    const distance_provider dist(device.coupling);
    const campaign::unit_executor executor(spec);
    for (const auto& unit : plan.units) {
        const auto& instance = s.instances[unit.instance_index];
        router::sabre_options options;
        options.seed = spec.toolbox_seed;
        const auto direct = router::route_sabre(instance.logical, device.coupling, dist, options,
                                                &instance.answer.initial);
        const auto run = executor.execute(unit);
        EXPECT_TRUE(run.record.valid) << unit.id;
        EXPECT_EQ(run.record.measured_swaps, direct.swap_count()) << unit.id;
        EXPECT_EQ(run.record.designed_swaps, 3);
    }
}

TEST(campaign_merge, v3_variant_campaign_runs_and_reports_under_labels) {
    // Two variants of one tool in one campaign: the label (not the
    // registry name) flows through unit IDs, stored records and report
    // tables, and each variant honors its own overrides.
    campaign::campaign_spec spec;
    spec.name = "variant_test";
    spec.sabre_trials = 3;  // spec-level default for plain lightsabre
    spec.tools = {"lightsabre",
                  campaign::tool_variant("lightsabre",
                                         json::value(json::object{{"trials", 1}}), "ls1")};
    core::suite_spec suite;
    suite.arch_name = "grid3x3";
    suite.swap_counts = {2};
    suite.circuits_per_count = 2;
    suite.total_two_qubit_gates = 25;
    suite.base_seed = 5;
    spec.suites.push_back(suite);

    const auto plan = campaign::expand_plan(spec);
    ASSERT_EQ(plan.units.size(), 4u);
    EXPECT_EQ(plan.units[0].id, "u0:grid3x3:n2:i0:seed5:lightsabre");
    EXPECT_EQ(plan.units[1].id, "u0:grid3x3:n2:i0:seed5:ls1");

    const std::string dir = scratch_dir("v3_variants");
    const auto report = campaign::run_campaign_shard(plan, dir, {});
    EXPECT_EQ(report.failed_attempts, 0u);
    EXPECT_EQ(report.invalid_runs, 0);
    const auto merged = campaign::merge_stores(plan, {dir});
    ASSERT_TRUE(merged.complete());

    // The stored records reproduce direct router calls with the variant's
    // effective options (spec defaults for the plain entry, the override
    // for ls1).
    const auto device = arch::by_name("grid3x3");
    const auto s = core::generate_suite(device, suite);
    const distance_provider dist(device.coupling);
    for (std::size_t i = 0; i < merged.runs.size(); ++i) {
        const auto& run = merged.runs[i];
        const auto& unit = plan.units[i];
        router::sabre_options options;
        options.trials = unit.tool == "ls1" ? 1 : spec.sabre_trials;
        options.seed = spec.toolbox_seed;
        const auto direct = router::route_sabre(s.instances[unit.instance_index].logical,
                                                device.coupling, dist, options);
        EXPECT_EQ(run.record.tool, unit.tool);
        EXPECT_EQ(run.record.measured_swaps, direct.swap_count()) << unit.id;
    }

    const auto rendered = campaign::render_report(plan, merged);
    EXPECT_NE(rendered.find("ls1"), std::string::npos);
}

TEST(campaign_merge, labelled_variant_is_campaign_usable_with_stable_unit_ids) {
    // A labelled lightsabre variant with option overrides rides the
    // ordinary spec-v3 variant path: it gets label-stable unit IDs and
    // stores results identical to the direct router call.
    campaign::campaign_spec spec;
    spec.name = "variant_test";
    spec.tools = {campaign::tool_variant(
        "lightsabre", json::value(json::object{{"trials", 12}, {"lookahead_decay", 0.9}}),
        "ls-decay")};
    core::suite_spec suite;
    suite.arch_name = "grid3x3";
    suite.swap_counts = {2};
    suite.circuits_per_count = 2;
    suite.total_two_qubit_gates = 25;
    suite.base_seed = 5;
    spec.suites.push_back(suite);

    const auto plan = campaign::expand_plan(spec);
    ASSERT_EQ(plan.units.size(), 2u);
    EXPECT_EQ(plan.units[0].id, "u0:grid3x3:n2:i0:seed5:ls-decay");
    EXPECT_EQ(plan.units[1].id, "u0:grid3x3:n2:i1:seed6:ls-decay");

    const std::string dir = scratch_dir("v3_decay");
    const auto report = campaign::run_campaign_shard(plan, dir, {});
    EXPECT_EQ(report.failed_attempts, 0u);
    EXPECT_EQ(report.invalid_runs, 0);
    const auto merged = campaign::merge_stores(plan, {dir});
    ASSERT_TRUE(merged.complete());

    const auto device = arch::by_name("grid3x3");
    const auto s = core::generate_suite(device, suite);
    const distance_provider dist(device.coupling);
    router::sabre_options options;
    options.trials = 12;
    options.lookahead_decay = 0.9;
    options.seed = spec.toolbox_seed;
    for (std::size_t i = 0; i < merged.runs.size(); ++i) {
        const auto& unit = plan.units[i];
        const auto direct = router::route_sabre(s.instances[unit.instance_index].logical,
                                                device.coupling, dist, options);
        EXPECT_EQ(merged.runs[i].record.tool, "ls-decay");
        EXPECT_EQ(merged.runs[i].record.measured_swaps, direct.swap_count()) << unit.id;
    }
}

TEST(campaign_plan, family_units_get_tagged_ids_and_claimed_counts) {
    campaign::campaign_spec spec;
    spec.mode = campaign::campaign_mode::certify;
    campaign::campaign_suite queko;
    queko.arch_name = "grid3x3";
    queko.family = campaign::benchmark_family::queko;
    queko.swap_counts = {3};
    queko.circuits_per_count = 2;
    queko.base_seed = 1;
    spec.suites.push_back(queko);
    campaign::campaign_suite quekno;
    quekno.arch_name = "grid3x3";
    quekno.family = campaign::benchmark_family::quekno;
    quekno.swap_counts = {2};
    quekno.circuits_per_count = 1;
    quekno.base_seed = 5;
    spec.suites.push_back(quekno);

    const auto plan = campaign::expand_plan(spec);
    ASSERT_EQ(plan.units.size(), 3u);
    EXPECT_EQ(plan.units[0].id, "u0:grid3x3:queko:d3:i0:seed1:exact");
    EXPECT_EQ(plan.units[0].family, campaign::benchmark_family::queko);
    EXPECT_EQ(plan.units[0].sweep_value, 3);
    EXPECT_EQ(plan.units[0].designed_swaps, 0);  // QUEKO's claim is 0 swaps
    EXPECT_EQ(plan.units[2].id, "u1:grid3x3:quekno:t2:i0:seed5:exact");
    EXPECT_EQ(plan.units[2].designed_swaps, 2);  // construction upper bound

    // Tools mode runs the full lineup on family suites too. QUEKO's
    // claimed count stays 0 — ratios are undefined (rendered n/a) but
    // the absolute-swap totals make the units meaningful.
    spec.mode = campaign::campaign_mode::tools;
    const auto tools_plan = campaign::expand_plan(spec);
    ASSERT_EQ(tools_plan.units.size(), 12u);  // 3 instances x 4 tools
    EXPECT_EQ(tools_plan.units[0].id, "u0:grid3x3:queko:d3:i0:seed1:lightsabre");
    EXPECT_EQ(tools_plan.units[0].designed_swaps, 0);
    EXPECT_EQ(tools_plan.units[8].family, campaign::benchmark_family::quekno);
    EXPECT_EQ(tools_plan.units[8].designed_swaps, 2);
}

TEST(campaign_family, certify_matches_direct_generator_checks) {
    campaign::campaign_spec spec;
    spec.name = "family_certify";
    spec.mode = campaign::campaign_mode::certify;
    spec.vf2_check = true;
    campaign::campaign_suite queko;
    queko.arch_name = "grid3x3";
    queko.family = campaign::benchmark_family::queko;
    queko.swap_counts = {3};
    queko.circuits_per_count = 2;
    queko.queko_density = 0.6;
    queko.base_seed = 1;
    spec.suites.push_back(queko);
    campaign::campaign_suite quekno;
    quekno.arch_name = "grid3x3";
    quekno.family = campaign::benchmark_family::quekno;
    quekno.swap_counts = {1};
    quekno.circuits_per_count = 2;
    quekno.quekno_gates_per_epoch = 4;
    quekno.base_seed = 1;
    spec.suites.push_back(quekno);
    campaign::campaign_suite qubikos_suite;
    qubikos_suite.arch_name = "grid3x3";
    qubikos_suite.swap_counts = {1};
    qubikos_suite.circuits_per_count = 1;
    qubikos_suite.total_two_qubit_gates = 15;
    qubikos_suite.base_seed = 3;
    spec.suites.push_back(qubikos_suite);

    const auto plan = campaign::expand_plan(spec);
    const std::string dir = scratch_dir("family_certify");
    const auto report = campaign::run_campaign_shard(plan, dir, {});
    EXPECT_EQ(report.failed_attempts, 0u);
    const auto merged = campaign::merge_stores(plan, {dir});
    ASSERT_TRUE(merged.complete());
    const auto device = arch::by_name("grid3x3");

    for (std::size_t i = 0; i < merged.runs.size(); ++i) {
        const auto& run = merged.runs[i];
        const auto& unit = plan.units[i];
        EXPECT_TRUE(run.record.valid) << unit.id;
        switch (unit.family) {
            case campaign::benchmark_family::queko: {
                // The stored claims must agree with running the checks
                // directly on the regenerated instance.
                const auto instance = core::generate_queko(
                    device, {.depth = 3, .density = 0.6, .seed = unit.instance_seed});
                const bool vf2 =
                    is_subgraph_monomorphic(interaction_graph(instance.logical),
                                            device.coupling);
                EXPECT_EQ(run.vf2_solvable, vf2 ? 1 : 0) << unit.id;
                EXPECT_EQ(run.record.designed_swaps, 0);
                EXPECT_EQ(run.sat_at_n, 1) << unit.id;  // exact optimum is 0
                break;
            }
            case campaign::benchmark_family::quekno: {
                const auto instance = core::generate_quekno(
                    device, {.num_transitions = 1, .gates_per_epoch = 4,
                             .seed = unit.instance_seed});
                EXPECT_EQ(run.record.designed_swaps, instance.construction_swaps);
                const auto exact = exact::certify(instance.logical, device.coupling,
                                                  instance.construction_swaps);
                ASSERT_TRUE(exact.fewest.proven) << unit.id;
                EXPECT_EQ(run.sat_at_n, 1) << unit.id;
                EXPECT_EQ(run.record.measured_swaps,
                          static_cast<std::size_t>(exact.fewest.swaps))
                    << unit.id;
                EXPECT_EQ(run.unsat_below,
                          exact.fewest.swaps == instance.construction_swaps ? 1 : 0)
                    << unit.id;
                EXPECT_EQ(run.structure_ok, 1) << unit.id;
                break;
            }
            case campaign::benchmark_family::qubikos:
                EXPECT_EQ(run.vf2_solvable, 0) << unit.id;  // VF2-proof by construction
                EXPECT_EQ(run.sat_at_n, 1) << unit.id;
                EXPECT_EQ(run.unsat_below, 1) << unit.id;
                break;
        }
    }

    // The certify report renders the VF2 column for family campaigns.
    const auto rendered = campaign::render_report(plan, merged);
    EXPECT_NE(rendered.find("VF2 solvable"), std::string::npos);
    EXPECT_NE(rendered.find("[queko]"), std::string::npos);
    EXPECT_NE(rendered.find("[quekno]"), std::string::npos);
}

TEST(campaign_report, queko_tools_mode_renders_na_ratios_and_finite_totals) {
    // Regression: tools-mode QUEKO campaigns used to be rejected at plan
    // time because their 0-swap claim made eval::aggregate divide by
    // zero. The absolute-swaps aggregate unblocks them: ratios render
    // "n/a", totals stay finite.
    campaign::campaign_spec spec;
    spec.name = "queko_tools";
    spec.mode = campaign::campaign_mode::tools;
    spec.sabre_trials = 2;
    spec.tools = {"lightsabre", "tket"};
    campaign::campaign_suite queko;
    queko.arch_name = "grid3x3";
    queko.family = campaign::benchmark_family::queko;
    queko.swap_counts = {3};
    queko.circuits_per_count = 2;
    queko.base_seed = 1;
    spec.suites.push_back(queko);

    const auto plan = campaign::expand_plan(spec);
    ASSERT_EQ(plan.units.size(), 4u);  // 2 instances x 2 tools
    const std::string dir = scratch_dir("queko_tools");
    const auto report = campaign::run_campaign_shard(plan, dir, {});
    EXPECT_EQ(report.failed_attempts, 0u);
    EXPECT_EQ(report.invalid_runs, 0);

    const auto merged = campaign::merge_stores(plan, {dir});
    ASSERT_TRUE(merged.complete());
    const auto cells = eval::aggregate(records_of(merged));
    ASSERT_FALSE(cells.empty());
    for (const auto& cell : cells) {
        EXPECT_FALSE(cell.has_ratio());
        EXPECT_DOUBLE_EQ(cell.swap_ratio, 0.0);  // undefined, never infinite
        EXPECT_EQ(cell.total_optimal_swaps, 0);
    }

    // Rendering this report used to throw; now every undefined ratio is
    // an explicit "n/a" and the absolute totals carry the numbers.
    const auto rendered = campaign::render_report(plan, merged);
    EXPECT_NE(rendered.find("n/a"), std::string::npos);
    EXPECT_NE(rendered.find("total swaps"), std::string::npos);
    EXPECT_NE(rendered.find("total optimal"), std::string::npos);
    EXPECT_NE(rendered.find("[queko]"), std::string::npos);
}

TEST(campaign_fault, tampered_plan_is_detected_not_trusted) {
    const auto spec = small_spec();
    const auto plan = campaign::expand_plan(spec);
    // A unit whose claimed count contradicts what the generator produces
    // must fail loudly instead of poisoning the ratios.
    auto unit = plan.units[0];
    unit.designed_swaps += 1;
    const campaign::unit_executor executor(spec);
    EXPECT_THROW((void)executor.execute(unit), std::runtime_error);
    // The untampered unit executes fine on the same executor.
    const auto run = executor.execute(plan.units[0]);
    EXPECT_FALSE(run.failed());
    EXPECT_EQ(run.record.designed_swaps, plan.units[0].designed_swaps);
}

TEST(campaign_fault, throwing_unit_quarantines_retries_and_merges_byte_identically) {
    const auto spec = small_spec();  // max_attempts = 2 (default)
    const auto plan = campaign::expand_plan(spec);
    const std::string dir = scratch_dir("fault");
    const std::string& poisoned = plan.units[5].id;

    {
        const scoped_fault fault(poisoned);
        const auto report = campaign::run_campaign_shard(plan, dir, {});
        // The shard survives: every other unit completes, the poisoned
        // unit burns its attempt budget and is quarantined.
        EXPECT_EQ(report.executed, plan.units.size() + 1);  // one retry
        EXPECT_EQ(report.failed_attempts, 2u);
        EXPECT_EQ(report.quarantined, 1u);
        EXPECT_EQ(report.invalid_runs, 0);

        campaign::result_store store(dir, spec);
        EXPECT_EQ(store.completed().size(), plan.units.size() - 1);
        EXPECT_FALSE(store.is_complete(poisoned));
        EXPECT_EQ(store.status(poisoned).failed_attempts, 2);

        // A quarantined unit is skipped by a plain re-run (even while the
        // fault persists — nothing new is attempted).
        const auto again = campaign::run_campaign_shard(plan, dir, {});
        EXPECT_EQ(again.executed, 0u);
        EXPECT_EQ(again.quarantined, 1u);
        EXPECT_EQ(again.skipped, plan.units.size() - 1);
    }

    // status: read-only probe sees the quarantined unit.
    const auto runs = campaign::result_store::load_runs(dir);
    campaign::status_options status_options;
    status_options.num_shards = 2;
    const auto status = campaign::probe_status(plan, runs, status_options);
    EXPECT_EQ(status.totals.done, plan.units.size() - 1);
    EXPECT_EQ(status.totals.quarantined, 1u);
    EXPECT_FALSE(status.complete());
    const auto rendered_status = campaign::render_status(plan, status);
    EXPECT_NE(rendered_status.find(poisoned), std::string::npos);
    EXPECT_NE(rendered_status.find("injected fault"), std::string::npos);

    // The merger reports the failure but never mixes it into the runs.
    auto merged = campaign::merge_stores(plan, {dir});
    EXPECT_FALSE(merged.complete());
    ASSERT_EQ(merged.failed.size(), 1u);
    EXPECT_EQ(merged.failed[0].unit_id, poisoned);
    EXPECT_EQ(merged.failed[0].attempts, 2);
    EXPECT_NE(campaign::render_report(plan, merged).find("failed units: 1 quarantined"),
              std::string::npos);
    // Merging the same store twice dedups failure records like success
    // records — the attempt count must not inflate.
    const auto doubled = campaign::merge_stores(plan, {dir, dir});
    ASSERT_EQ(doubled.failed.size(), 1u);
    EXPECT_EQ(doubled.failed[0].attempts, 2);

    // Fault cleared: --retry-quarantined re-opens the unit and drains it.
    campaign::worker_options retry;
    retry.retry_quarantined = true;
    const auto drained = campaign::run_campaign_shard(plan, dir, retry);
    EXPECT_EQ(drained.executed, 1u);
    EXPECT_EQ(drained.quarantined, 0u);
    EXPECT_EQ(drained.failed_attempts, 0u);

    merged = campaign::merge_stores(plan, {dir});
    ASSERT_TRUE(merged.complete());
    EXPECT_TRUE(merged.failed.empty());
    // The success after two failures records which attempt landed it.
    for (const auto& run : campaign::result_store::load_runs(dir)) {
        if (run.unit_id == poisoned && !run.failed()) EXPECT_EQ(run.attempt, 3);
    }

    // And the drained report is byte-identical to a fault-free run.
    const std::string clean = scratch_dir("fault_clean");
    (void)campaign::run_campaign_shard(plan, clean, {});
    const auto clean_merged = campaign::merge_stores(plan, {clean});
    EXPECT_EQ(campaign::render_report(plan, merged),
              campaign::render_report(plan, clean_merged));

    // A fault-free store writes the v1 record layout: first-attempt
    // successes carry no attempt/error keys at all.
    std::size_t lines = 0;
    for (const auto& file : campaign::scan_store_files(clean)) {
        std::ifstream raw(clean + "/" + file.name);
        std::string line;
        while (std::getline(raw, line)) {
            ++lines;
            EXPECT_EQ(line.find("\"attempt\""), std::string::npos);
            EXPECT_EQ(line.find("\"error\""), std::string::npos);
        }
    }
    EXPECT_EQ(lines, plan.units.size());
}

TEST(campaign_fault, synced_store_keeps_quarantined_units) {
    const auto spec = small_spec();
    const auto plan = campaign::expand_plan(spec);
    const std::string dir = scratch_dir("fault_sync_src");
    const std::string& poisoned = plan.units[2].id;
    {
        const scoped_fault fault(poisoned);
        (void)campaign::run_campaign_shard(plan, dir, {});
    }

    // Sync copies the failure records with the results, so the
    // collected store still knows the unit is quarantined — a later run
    // there must not re-open it with a fresh attempt budget.
    const std::string synced = scratch_dir("fault_sync_dest");
    (void)campaign::sync_stores(synced, {dir});
    const auto status =
        campaign::probe_status(plan, campaign::result_store::load_runs(synced));
    EXPECT_EQ(status.totals.quarantined, 1u);
    EXPECT_EQ(status.totals.pending, 0u);
    ASSERT_EQ(status.quarantined_units.size(), 1u);
    EXPECT_EQ(status.quarantined_units[0].unit_id, poisoned);

    const std::string report =
        campaign::render_report(plan, campaign::merge_stores(plan, {synced}));
    EXPECT_NE(report.find("failed units: 1 quarantined"), std::string::npos) << report;
    EXPECT_NE(report.find(poisoned), std::string::npos) << report;
}

TEST(campaign_store, counters_that_are_not_whole_counts_are_load_errors) {
    const std::string current_line =
        "{\"depth_ratio\":1.25,\"designed_swaps\":1,\"measured_swaps\":2,\"seconds\":0.25,"
        "\"stats\":{\"sabre.arena_slots\":1,\"sabre.pass_decisions\":123,"
        "\"sabre.trials_run\":4},\"tool\":\"lightsabre\",\"unit_id\":\"u\",\"valid\":true}";
    // A line in the current format round-trips byte for byte.
    EXPECT_EQ(campaign::run_to_json(campaign::run_from_json(json::parse(current_line))).dump(),
              current_line);

    // Loads the current line with `field` set to the JSON text `value`.
    const auto load = [&](const std::string& field, const std::string& value) {
        json::object record = json::parse(current_line).as_object();
        record[field] = json::parse(value);
        return campaign::run_from_json(json::value(std::move(record)));
    };
    // Every count a record carries goes through the same whole-number
    // check: router counters, swap counts, the attempt number and the
    // four certify flags.
    for (const std::string bad : {"-1", "0.5", "1e300"}) {
        EXPECT_THROW((void)load("stats", "{\"sabre.routes\":" + bad + "}"), std::runtime_error);
        for (const char* field : {"designed_swaps", "measured_swaps", "attempt", "sat_at_n",
                                  "unsat_below", "structure_ok", "vf2_solvable"}) {
            EXPECT_THROW((void)load(field, bad), std::runtime_error) << field << "=" << bad;
        }
        EXPECT_THROW((void)campaign::run_from_json(json::parse(
                         "{\"kind\":\"metrics\",\"metrics\":{\"sat.conflicts\":" + bad +
                         "},\"unit_id\":\"u\"}")),
                     std::runtime_error);
    }
    EXPECT_THROW((void)campaign::run_from_json(json::parse(
                     "{\"kind\":\"metrics\",\"metrics\":{\"sat.conflicts\":-3.5},"
                     "\"unit_id\":\"u\"}")),
                 std::runtime_error);
    const auto largest = load("stats", "{\"sabre.routes\":9007199254740992}");
    EXPECT_EQ(largest.record.stats.value("sabre.routes"), 9007199254740992u);
    EXPECT_EQ(load("attempt", "3").attempt, 3);
    EXPECT_THROW((void)load("attempt", "2147483648"), std::runtime_error);
}

TEST(campaign_store, keys_outside_the_record_schema_are_load_errors) {
    const std::string head =
        "{\"depth_ratio\":1,\"designed_swaps\":1,\"measured_swaps\":1,\"seconds\":0.1,"
        "\"tool\":\"lightsabre\",\"unit_id\":\"u\",\"valid\":true";
    EXPECT_NO_THROW((void)campaign::run_from_json(json::parse(head + "}")));
    // The top-level router counters of records written before "stats"
    // existed, and any other unknown key, fail loudly rather than load
    // with the value dropped.
    for (const char* key : {"trials_run", "pass_decisions", "arena_slots", "trials_pruned",
                            "comment"}) {
        EXPECT_THROW(
            (void)campaign::run_from_json(json::parse(head + ",\"" + key + "\":1}")),
            std::runtime_error)
            << key;
    }
    EXPECT_THROW((void)campaign::run_from_json(json::parse(
                     "{\"kind\":\"metrics\",\"metrics\":{\"a\":1},\"tool\":\"x\","
                     "\"unit_id\":\"u\"}")),
                 std::runtime_error);
    // A sidecar without counters would read as a result: rejected too.
    EXPECT_THROW((void)campaign::run_from_json(
                     json::parse("{\"kind\":\"metrics\",\"metrics\":{},\"unit_id\":\"u\"}")),
                 std::runtime_error);

    // In a store, such a line is an error even as the final line of a
    // writer's file, where a torn (unparseable) line is skipped.
    const auto spec = small_spec();
    const auto plan = campaign::expand_plan(spec);
    const std::string dir = scratch_dir("unknown_key");
    campaign::worker_options options;
    options.max_units = 1;
    (void)campaign::run_campaign_shard(plan, dir, options);
    {
        std::ofstream tail(dir + "/" + campaign::runs_file_name(0), std::ios::app);
        tail << head << ",\"trials_run\":4}\n";
    }
    EXPECT_THROW((void)campaign::result_store::load_runs(dir), std::runtime_error);
    EXPECT_THROW(campaign::result_store(dir, spec), std::runtime_error);
}

}  // namespace
}  // namespace qubikos
