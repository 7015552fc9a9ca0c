// Segmented-store and multi-machine sync tests: rotation, head
// manifests, the torn-tail-only-on-newest rule, content-addressed sync
// (idempotent, grow-only), rejection of malformed store files — and the
// distributed guarantee:
// stores collected over `campaign sync` merge into a report that is
// byte-identical to a single-process run.
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

std::vector<campaign::store_file> segments_of(const std::string& dir, int writer) {
    std::vector<campaign::store_file> out;
    for (const auto& file : campaign::scan_store_files(dir)) {
        if (file.writer == writer) out.push_back(file);
    }
    return out;
}

/// Runs one shard with a tiny rotation threshold so even a mini-campaign
/// spans several segments.
campaign::worker_options shard_options(int shard, int num_shards) {
    campaign::worker_options options;
    options.shard = shard;
    options.num_shards = num_shards;
    options.batch_size = 2;  // several flushes -> several rotation points
    return options;
}

class scoped_segment_bytes {
public:
    explicit scoped_segment_bytes(const char* value) {
        ::setenv("QUBIKOS_CAMPAIGN_SEGMENT_BYTES", value, 1);
    }
    ~scoped_segment_bytes() { ::unsetenv("QUBIKOS_CAMPAIGN_SEGMENT_BYTES"); }
    scoped_segment_bytes(const scoped_segment_bytes&) = delete;
    scoped_segment_bytes& operator=(const scoped_segment_bytes&) = delete;
};

TEST(campaign_segments, rotation_seals_segments_and_reloads_everything) {
    const auto spec = small_spec();
    const auto plan = campaign::expand_plan(spec);
    const std::string dir = scratch_dir("rotate");

    const scoped_segment_bytes tiny("300");
    (void)campaign::run_campaign_shard(plan, dir, shard_options(0, 1));

    // The store rotated: several sealed segments plus the open one, all
    // owned by writer 0, and the head manifest records every seal.
    const auto segments = segments_of(dir, 0);
    ASSERT_GE(segments.size(), 3u);
    for (std::size_t i = 0; i < segments.size(); ++i) {
        EXPECT_EQ(segments[i].seq, static_cast<long>(i));
        EXPECT_EQ(segments[i].newest_of_writer, i + 1 == segments.size());
    }
    const auto heads = campaign::load_store_heads(dir);
    ASSERT_EQ(heads.size(), 1u);
    const campaign::writer_head& head = heads.front();
    EXPECT_EQ(head.writer, 0);
    EXPECT_EQ(head.open_seq, segments.back().seq);
    EXPECT_EQ(head.sealed.size(), segments.size() - 1);

    // Every record is reachable across the segment boundary, and a
    // reopened store resumes (nothing re-executes).
    EXPECT_EQ(campaign::result_store::load_runs(dir).size(), plan.units.size());
    const auto resumed = campaign::run_campaign_shard(plan, dir, shard_options(0, 1));
    EXPECT_EQ(resumed.skipped, plan.units.size());
    EXPECT_EQ(resumed.executed, 0u);

    // The merged result is complete, so rotation lost nothing.
    EXPECT_TRUE(campaign::merge_stores(plan, {dir}).complete());
}

TEST(campaign_segments, torn_tail_tolerated_only_on_newest_segment) {
    const auto spec = small_spec();
    const auto plan = campaign::expand_plan(spec);
    const std::string dir = scratch_dir("torn");

    const scoped_segment_bytes tiny("300");
    (void)campaign::run_campaign_shard(plan, dir, shard_options(0, 1));
    const auto segments = segments_of(dir, 0);
    ASSERT_GE(segments.size(), 2u);

    // Torn bytes on the newest (open) segment are the crash signature —
    // tolerated, and truncated away on reopen.
    const std::size_t intact = campaign::result_store::load_runs(dir).size();
    {
        std::ofstream tail(dir + "/" + segments.back().name, std::ios::app);
        tail << "{\"unit_id\": \"torn-by-cra";
    }
    EXPECT_EQ(campaign::result_store::load_runs(dir).size(), intact);

    // The same bytes on a *sealed* segment are corruption: sealed
    // segments are immutable, so nothing legitimate can have torn them.
    std::ofstream tail(dir + "/" + segments.front().name, std::ios::app);
    tail << "{\"unit_id\": \"torn-by-cra";
    tail.close();
    EXPECT_THROW((void)campaign::result_store::load_runs(dir), std::runtime_error);
}

TEST(campaign_segments, sealed_segment_must_match_its_head_manifest) {
    const auto spec = small_spec();
    const auto plan = campaign::expand_plan(spec);
    const std::string dir = scratch_dir("tamper");

    const scoped_segment_bytes tiny("300");
    (void)campaign::run_campaign_shard(plan, dir, shard_options(0, 1));
    const auto segments = segments_of(dir, 0);
    ASSERT_GE(segments.size(), 2u);

    // Flip one byte inside a sealed segment, keeping it parseable JSON —
    // the head manifest's content fingerprint still catches it.
    const std::string path = dir + "/" + segments.front().name;
    std::string content;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        content = buffer.str();
    }
    const std::size_t digit = content.find("\"seconds\":");
    ASSERT_NE(digit, std::string::npos);
    content[digit + 10] = content[digit + 10] == '1' ? '2' : '1';
    std::ofstream(path, std::ios::binary | std::ios::trunc) << content;
    EXPECT_THROW((void)campaign::result_store::load_runs(dir), std::runtime_error);
}

TEST(campaign_sync, two_machine_campaign_merges_byte_identical_to_single_process) {
    const auto spec = small_spec();
    const auto plan = campaign::expand_plan(spec);
    const scoped_segment_bytes tiny("300");

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
    {
        const auto segments = segments_of(machine_b, 1);
        ASSERT_FALSE(segments.empty());
        std::ofstream tail(machine_b + "/" + segments.back().name, std::ios::app);
        tail << "{\"unit_id\": \"torn-by-cra";
    }

    // First collection: the torn tail rides along harmlessly (it lands
    // on the newest segment of writer 1, where reads tolerate it).
    const std::string collected = scratch_dir("sync_collected");
    const auto first = campaign::sync_stores(collected, {machine_a, machine_b});
    EXPECT_GT(first.copied, 0u);

    // Machine B resumes and finishes; the next sync copies only the
    // missing/grown segments.
    (void)campaign::run_campaign_shard(plan, machine_b, shard_options(1, 2));
    const auto second = campaign::sync_stores(collected, {machine_a, machine_b});
    EXPECT_FALSE(second.noop());  // B's segments grew or rotated
    EXPECT_GT(second.unchanged, 0u);  // A's did not

    // The collected store merges byte-identical to the single-process
    // reference — the acceptance guarantee of the distributed workflow.
    const auto merged = campaign::merge_stores(plan, {collected});
    ASSERT_TRUE(merged.complete());
    EXPECT_EQ(campaign::render_report(plan, merged), reference);

    // And a merged store written from it behaves like any other store.
    const std::string out = scratch_dir("sync_out");
    campaign::write_merged_store(merged, spec, out);
    EXPECT_EQ(campaign::render_report(plan, campaign::merge_stores(plan, {out})), reference);
}

TEST(campaign_sync, resync_is_a_noop) {
    const auto spec = small_spec();
    const auto plan = campaign::expand_plan(spec);
    const scoped_segment_bytes tiny("300");

    const std::string src = scratch_dir("noop_src");
    (void)campaign::run_campaign_shard(plan, src, shard_options(0, 1));
    const std::string dest = scratch_dir("noop_dest");

    const auto first = campaign::sync_stores(dest, {src});
    EXPECT_FALSE(first.noop());
    const auto again = campaign::sync_stores(dest, {src});
    EXPECT_TRUE(again.noop());
    EXPECT_EQ(again.copied, 0u);
    EXPECT_EQ(again.grown, 0u);
    EXPECT_EQ(again.heads, 0u);
    EXPECT_GT(again.unchanged, 0u);

    // Syncing back into the source is also a no-op (nothing is newer).
    const auto reverse = campaign::sync_stores(src, {dest});
    EXPECT_TRUE(reverse.noop());
}

TEST(campaign_sync, divergent_same_name_segments_are_a_hard_error) {
    const auto spec = small_spec();
    const auto plan = campaign::expand_plan(spec);

    // Two "machines" both running shard 0 produce same-named segments
    // with identical content (determinism) — that syncs fine. Make them
    // genuinely diverge by corrupting one byte of the copy.
    const std::string src_a = scratch_dir("diverge_a");
    const std::string src_b = scratch_dir("diverge_b");
    campaign::worker_options options;
    options.max_units = 2;
    (void)campaign::run_campaign_shard(plan, src_a, options);
    (void)campaign::run_campaign_shard(plan, src_b, options);

    const auto segments = segments_of(src_b, 0);
    ASSERT_FALSE(segments.empty());
    const std::string path = src_b + "/" + segments.front().name;
    std::string content;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        content = buffer.str();
    }
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

    // The retired single-file layout: one record file named runs.jsonl,
    // holding a line that is otherwise a valid record.
    {
        std::ofstream out(src + "/runs.jsonl");
        out << campaign::run_to_json(campaign::execute_unit(spec, plan.units[3])).dump() << "\n";
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

TEST(campaign_segments, head_with_a_negative_byte_count_is_a_load_error) {
    const auto spec = small_spec();
    const auto plan = campaign::expand_plan(spec);
    const scoped_segment_bytes tiny("300");
    const std::string src = scratch_dir("neg_head");
    (void)campaign::run_campaign_shard(plan, src, shard_options(0, 1));

    // Hand-edit the first sealed entry's byte count to -5.
    const std::string path = src + "/" + campaign::head_file_name(0);
    std::string content;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        content = buffer.str();
    }
    const std::size_t bytes = content.find("\"bytes\": ");
    ASSERT_NE(bytes, std::string::npos);
    const std::size_t end = content.find_first_of(",\n}", bytes);
    content.replace(bytes, end - bytes, "\"bytes\": -5");
    std::ofstream(path, std::ios::binary | std::ios::trunc) << content;

    EXPECT_THROW((void)campaign::result_store::load_runs(src), std::runtime_error);
    const std::string dest = scratch_dir("neg_head_dest");
    EXPECT_THROW((void)campaign::sync_stores(dest, {src}), std::runtime_error);
}

}  // namespace
}  // namespace qubikos
