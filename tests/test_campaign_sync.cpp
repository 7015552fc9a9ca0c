// Store-layout and multi-machine sync tests: the torn-tail rule on each
// writer's record file, content-addressed sync (idempotent, grow-only),
// rejection of retired-layout and malformed store files — and the
// distributed guarantee: stores collected over `campaign sync` report
// byte-identically to a single-process run.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/merge.hpp"
#include "campaign/plan.hpp"
#include "campaign/report.hpp"
#include "campaign/spec.hpp"
#include "campaign/store.hpp"
#include "campaign/sync.hpp"
#include "campaign/worker.hpp"

namespace qubikos {
namespace {

campaign::campaign_spec small_spec() {
    campaign::campaign_spec spec;
    spec.name = "sync_test";
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

/// Fresh per-test scratch directory (removed up front, not after, so a
/// failing test leaves its store behind for inspection).
std::string scratch_dir(const std::string& name) {
    const auto dir = std::filesystem::temp_directory_path() / "qubikos_sync_tests" / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

/// Path of writer `writer`'s record file in `dir`.
std::string runs_file(const std::string& dir, int writer) {
    return dir + "/" + campaign::runs_file_name(writer);
}

std::string read_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

campaign::worker_options shard_options(int shard, int num_shards) {
    campaign::worker_options options;
    options.shard = shard;
    options.num_shards = num_shards;
    options.batch_size = 2;  // several flushes per shard
    return options;
}

TEST(campaign_segments, torn_tail_tolerated_and_truncated_on_the_writers_file) {
    const auto spec = small_spec();
    const auto plan = campaign::expand_plan(spec);
    const std::string dir = scratch_dir("torn");

    (void)campaign::run_campaign_shard(plan, dir, shard_options(0, 1));
    const std::string path = runs_file(dir, 0);
    const std::string intact_bytes = read_bytes(path);
    const std::size_t intact = campaign::result_store::load_runs(dir).size();
    ASSERT_EQ(intact, plan.units.size());

    // Torn bytes at the end of the writer's file are the crash signature:
    // tolerated on load, and truncated away when the writer reopens.
    const std::string torn = "{\"unit_id\": \"torn-by-cra";
    std::ofstream(path, std::ios::app) << torn;
    EXPECT_EQ(campaign::result_store::load_runs(dir).size(), intact);
    { campaign::result_store store(dir, spec); }
    EXPECT_EQ(read_bytes(path), intact_bytes);

    // The same bytes with a record after them are corruption, not a
    // torn tail.
    std::ofstream(path, std::ios::app)
        << torn << "\n" << intact_bytes.substr(0, intact_bytes.find('\n') + 1);
    EXPECT_THROW((void)campaign::result_store::load_runs(dir), std::runtime_error);
    EXPECT_THROW(campaign::result_store(dir, spec), std::runtime_error);
}

TEST(campaign_sync, two_machine_campaign_merges_byte_identical_to_single_process) {
    const auto spec = small_spec();
    const auto plan = campaign::expand_plan(spec);

    // Single-process reference.
    const std::string single = scratch_dir("sync_single");
    (void)campaign::run_campaign_shard(plan, single, {});
    const std::string reference =
        campaign::render_report(plan, campaign::merge_stores(plan, {single}));

    // "Machine" A runs shard 0/2 to completion; "machine" B runs shard
    // 1/2 and is interrupted mid-run with a torn append.
    const std::string machine_a = scratch_dir("sync_a");
    const std::string machine_b = scratch_dir("sync_b");
    (void)campaign::run_campaign_shard(plan, machine_a, shard_options(0, 2));
    auto interrupted = shard_options(1, 2);
    interrupted.max_units = 3;
    (void)campaign::run_campaign_shard(plan, machine_b, interrupted);
    std::ofstream(runs_file(machine_b, 1), std::ios::app) << "{\"unit_id\": \"torn-by-cra";

    // First collection: the torn tail rides along harmlessly (reads
    // tolerate a torn final line).
    const std::string collected = scratch_dir("sync_collected");
    const auto first = campaign::sync_stores(collected, {machine_a, machine_b});
    EXPECT_EQ(first.copied, 2u);
    EXPECT_EQ(campaign::result_store::load_runs(collected).size(),
              campaign::shard_indices(plan.units.size(), 0, 2).size() + 3);

    // Machine B resumes and finishes; the next sync replaces only B's
    // grown file.
    (void)campaign::run_campaign_shard(plan, machine_b, shard_options(1, 2));
    const auto second = campaign::sync_stores(collected, {machine_a, machine_b});
    EXPECT_EQ(second.grown, 1u);      // B's file grew
    EXPECT_EQ(second.unchanged, 1u);  // A's did not
    EXPECT_EQ(read_bytes(runs_file(collected, 1)), read_bytes(runs_file(machine_b, 1)));

    // The collected store reports byte-identical to the single-process
    // reference — the acceptance guarantee of the distributed workflow.
    const auto merged = campaign::merge_stores(plan, {collected});
    ASSERT_TRUE(merged.complete());
    EXPECT_EQ(campaign::render_report(plan, merged), reference);

    // And it behaves like any other store: a run over it resumes every
    // unit and executes nothing.
    const auto resumed = campaign::run_campaign_shard(plan, collected, {});
    EXPECT_EQ(resumed.skipped, plan.units.size());
    EXPECT_EQ(resumed.executed, 0u);
}

TEST(campaign_sync, resync_is_a_noop) {
    const auto spec = small_spec();
    const auto plan = campaign::expand_plan(spec);

    const std::string src = scratch_dir("noop_src");
    (void)campaign::run_campaign_shard(plan, src, shard_options(0, 1));
    const std::string dest = scratch_dir("noop_dest");

    const auto first = campaign::sync_stores(dest, {src});
    EXPECT_FALSE(first.noop());
    const auto again = campaign::sync_stores(dest, {src});
    EXPECT_TRUE(again.noop());
    EXPECT_EQ(again.copied, 0u);
    EXPECT_EQ(again.grown, 0u);
    EXPECT_EQ(again.unchanged, 1u);

    // Syncing back into the source is also a no-op (nothing is newer).
    const auto reverse = campaign::sync_stores(src, {dest});
    EXPECT_TRUE(reverse.noop());
}

TEST(campaign_sync, divergent_same_name_files_are_a_hard_error) {
    const auto spec = small_spec();
    const auto plan = campaign::expand_plan(spec);

    // Two "machines" both running shard 0 produce same-named files with
    // identical content (determinism) — that syncs fine. Make them
    // genuinely diverge by corrupting one byte of the copy.
    const std::string src_a = scratch_dir("diverge_a");
    const std::string src_b = scratch_dir("diverge_b");
    campaign::worker_options options;
    options.max_units = 2;
    (void)campaign::run_campaign_shard(plan, src_a, options);
    (void)campaign::run_campaign_shard(plan, src_b, options);

    const std::string path = runs_file(src_b, 0);
    std::string content = read_bytes(path);
    const std::size_t digit = content.find("\"measured_swaps\":");
    ASSERT_NE(digit, std::string::npos);
    content[digit + 17] = content[digit + 17] == '1' ? '2' : '1';
    std::ofstream(path, std::ios::binary | std::ios::trunc) << content;

    const std::string dest = scratch_dir("diverge_dest");
    (void)campaign::sync_stores(dest, {src_a});
    EXPECT_THROW((void)campaign::sync_stores(dest, {src_b}), std::runtime_error);
}

TEST(campaign_sync, rejects_stores_of_a_different_spec) {
    const auto spec = small_spec();
    const auto plan = campaign::expand_plan(spec);
    auto other = spec;
    other.sabre_trials = 99;

    const std::string src = scratch_dir("fp_src");
    const std::string off = scratch_dir("fp_off");
    campaign::worker_options options;
    options.max_units = 1;
    (void)campaign::run_campaign_shard(plan, src, options);
    (void)campaign::run_campaign_shard(campaign::expand_plan(other), off, options);

    const std::string dest = scratch_dir("fp_dest");
    EXPECT_THROW((void)campaign::sync_stores(dest, {src, off}), std::runtime_error);
    (void)campaign::sync_stores(dest, {src});
    EXPECT_THROW((void)campaign::sync_stores(dest, {off}), std::runtime_error);
    // A source that is not a store at all is also an error.
    EXPECT_THROW((void)campaign::sync_stores(dest, {scratch_dir("fp_not_a_store")}),
                 std::exception);
}

/// Runs `fn`, which must throw std::runtime_error, and returns its message.
template <typename Fn>
std::string error_of(Fn&& fn) {
    try {
        fn();
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    ADD_FAILURE() << "expected std::runtime_error";
    return {};
}

TEST(campaign_segments, stray_runs_jsonl_is_rejected_by_open_load_and_sync) {
    const auto spec = small_spec();
    const auto plan = campaign::expand_plan(spec);
    campaign::worker_options options;
    options.max_units = 2;
    const std::string src = scratch_dir("stray_src");
    (void)campaign::run_campaign_shard(plan, src, options);
    const std::string dest = scratch_dir("stray_dest");
    (void)campaign::sync_stores(dest, {src});

    // The retired rotated layout: records in a runs-<writer>-<seq>.jsonl
    // segment beside a head-<writer>.json manifest. Every entry point
    // rejects it, naming the file, and the failed sync creates nothing.
    const std::string rotated = scratch_dir("stray_rotated");
    std::filesystem::copy_file(src + "/meta.json", rotated + "/meta.json");
    std::filesystem::copy_file(runs_file(src, 0), rotated + "/runs-0-000000.jsonl");
    std::ofstream(rotated + "/head-0.json")
        << "{\"open_seq\": 0, \"schema\": \"qubikos.campaign_head.v1\", \"sealed\": [], "
           "\"writer\": 0}\n";
    const std::string rotated_dest = scratch_dir("stray_rotated_dest");
    std::filesystem::remove(rotated_dest);
    for (const std::string& message :
         {error_of([&] { campaign::result_store store(rotated, spec); }),
          error_of([&] { (void)campaign::result_store::load_runs(rotated); }),
          error_of([&] { (void)campaign::sync_stores(rotated_dest, {rotated}); })}) {
        EXPECT_NE(message.find("runs-0-000000.jsonl"), std::string::npos) << message;
        EXPECT_NE(message.find("retired"), std::string::npos) << message;
    }
    EXPECT_FALSE(std::filesystem::exists(rotated_dest));

    // The retired single-file layout: one record file named runs.jsonl,
    // holding a line that is otherwise a valid record.
    {
        std::ofstream out(src + "/runs.jsonl");
        out << campaign::run_to_json(campaign::unit_executor(spec).execute(plan.units[3])).dump() << "\n";
    }
    EXPECT_NE(error_of([&] { campaign::result_store store(src, spec); }).find("runs.jsonl"),
              std::string::npos);
    EXPECT_NE(error_of([&] { (void)campaign::result_store::load_runs(src); }).find("runs.jsonl"),
              std::string::npos);
    EXPECT_NE(error_of([&] { (void)campaign::sync_stores(dest, {src}); }).find("runs.jsonl"),
              std::string::npos);
    // The failed sync wrote nothing; the destination still loads.
    EXPECT_FALSE(std::filesystem::exists(dest + "/runs.jsonl"));
    EXPECT_EQ(campaign::result_store::load_runs(dest).size(), 2u);

    // Opening a fresh directory that holds only a stray runs.jsonl leaves
    // it as it was: no meta.json is created.
    const std::string bare = scratch_dir("stray_bare");
    std::ofstream(bare + "/runs.jsonl") << "\n";
    EXPECT_THROW(campaign::result_store(bare, spec), std::runtime_error);
    EXPECT_FALSE(std::filesystem::exists(bare + "/meta.json"));
}

}  // namespace
}  // namespace qubikos
