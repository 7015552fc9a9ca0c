// Persistent result store: append-only JSON-lines with crash tolerance.
//
// On disk a store is a directory, laid out for multi-machine collection:
//   meta.json                 - spec snapshot + fingerprint (written once)
//   runs-<writer>-<seq>.jsonl - record segments; <writer> is the shard id
//                               of the process that wrote them, <seq> a
//                               rotation counter. Only the highest-seq
//                               segment of a writer is ever open for
//                               appending; lower-seq segments are sealed
//                               and immutable.
//   head-<writer>.json        - tiny per-writer manifest, atomically
//                               replaced (temp + fsync + rename): which
//                               segment is open and the byte length +
//                               content fingerprint of every sealed one.
// Nothing else holds records: a stray runs.jsonl (the retired
// single-file layout) is a load error, not a second format.
//
// The write path buffers records and flushes them in batches: each flush
// fwrites the buffered lines, fflushes and fsyncs, so a crash loses at
// most one unsynced batch and can tear at most the final line of the
// writer's open segment. The read path tolerates exactly that failure
// mode — an unparseable *final* line of the newest segment of a writer
// is discarded; a torn or corrupt sealed segment is a hard error, as is
// garbage anywhere but the tail. A line that parses as JSON but breaks
// the record schema (an unknown key, a count that is not a whole
// number) is never a torn tail: it is a load error wherever it sits.
// Sealed segments named by a head manifest are verified against their
// recorded byte length and fingerprint on every load.
//
// Opening a store checks the spec fingerprint in meta.json, so results
// from different experiments can never silently mix in one store.
#pragma once

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "campaign/spec.hpp"
#include "eval/metrics.hpp"
#include "obs/obs.hpp"
#include "util/json.hpp"

namespace qubikos::campaign {

/// One stored record: either a completed work unit, or one *failed
/// attempt* at a unit (`error` nonempty — the tool or generator threw;
/// the record carries the message and the attempt number instead of a
/// result). `record.seconds` is per-record thread-CPU time (see
/// eval::run_tool_record) — the only nondeterministic field of a completed
/// unit; everything else must agree between any two runs of the same
/// unit, and the merger enforces that. attempt/error never participate in
/// that check (how often a unit failed before succeeding is not part of
/// the experiment). A first-attempt success writes neither key and loads
/// as attempt 0 / no error.
struct stored_run {
    std::string unit_id;
    eval::run_record record;
    /// Certify-mode detail (-1 when not a certify run): did the exact
    /// solver find the instance SAT at n / UNSAT at n-1, and did the
    /// structural verifier pass? For quekno units "UNSAT at n-1" means
    /// the construction bound is tight.
    int sat_at_n = -1;
    int unsat_below = -1;
    int structure_ok = -1;
    /// Certify-mode VF2 probe (-1 when not run): does plain subgraph
    /// monomorphism solve the instance with 0 swaps? Expected 1 for
    /// queko, 0 for qubikos.
    int vf2_solvable = -1;
    /// Which execution attempt produced this record (0 when the record
    /// omits the key).
    int attempt = 0;
    /// Nonempty = this is a failed attempt, not a result.
    std::string error;
    /// Nonempty = this is a *metrics sidecar* record ("kind":"metrics"):
    /// the per-unit telemetry counters the worker captured around the
    /// unit's execution (QUBIKOS_OBS=metrics). It is not a result: it
    /// never marks a unit complete, never counts as an attempt, is
    /// excluded from merge's determinism checks (its values are timings)
    /// and from reports/status — only `campaign profile` reads it.
    obs::snapshot metrics;

    [[nodiscard]] bool failed() const { return !error.empty(); }
    [[nodiscard]] bool is_metrics() const { return !metrics.empty(); }
};

/// What a store knows about one unit ID after replaying its records.
struct unit_status {
    bool succeeded = false;
    /// Failed attempts on record (max of the attempt numbers seen and
    /// the count of error records, so hand-edited files stay sane).
    int failed_attempts = 0;
    std::string last_error;
};

[[nodiscard]] json::value run_to_json(const stored_run& run);
/// Strict inverse of run_to_json: a key outside the record schema, a
/// missing required key, or a count that is not a whole number in range
/// throws std::runtime_error.
[[nodiscard]] stored_run run_from_json(const json::value& v);

// --- segmented-layout vocabulary (shared with campaign sync) ----------------

/// "runs-<writer>-<seq>.jsonl" (seq zero-padded for sortable listings).
[[nodiscard]] std::string segment_file_name(int writer, long seq);
/// Parses a segment file name; false for anything else.
[[nodiscard]] bool parse_segment_file_name(const std::string& name, int& writer, long& seq);
/// "head-<writer>.json".
[[nodiscard]] std::string head_file_name(int writer);
[[nodiscard]] bool parse_head_file_name(const std::string& name, int& writer);

/// FNV-1a-64 hex fingerprint of raw bytes — the content address `sync`
/// and the head manifests use to recognize identical / grown segments.
[[nodiscard]] std::string content_fingerprint(const std::string& bytes);

/// Byte length of the longest record-valid prefix of JSONL content: every
/// line up to and including the last one that parses as a record. An
/// unparseable *final* line (torn tail) is excluded; unparseable content
/// anywhere else throws. This is the durable part of a segment — what the
/// writer keeps on reopen and what `sync` compares across machines.
[[nodiscard]] std::size_t valid_record_prefix(const std::string& content);

/// One sealed (immutable) segment as recorded in a head manifest.
struct sealed_segment {
    std::string file;
    std::size_t bytes = 0;
    std::string fingerprint;
};

/// A writer's head manifest (head-<writer>.json).
struct writer_head {
    int writer = 0;
    /// Sequence number of the segment the writer has open (or will open).
    long open_seq = 0;
    std::vector<sealed_segment> sealed;
};

[[nodiscard]] json::value head_to_json(const writer_head& head);
[[nodiscard]] writer_head head_from_json(const json::value& v);
/// Loads every head-<writer>.json manifest of a store directory, sorted
/// by writer. A manifest whose "writer" disagrees with its file name is
/// a load error.
[[nodiscard]] std::vector<writer_head> load_store_heads(const std::string& directory);

/// One record-bearing file of a store as the read path sees it.
struct store_file {
    /// File name within the store directory.
    std::string name;
    /// Writer (shard) id.
    int writer = 0;
    long seq = 0;
    /// Torn trailing bytes are tolerated only here: the newest segment of
    /// its writer (the one spot a live or killed writer can have been
    /// appending to).
    bool newest_of_writer = false;
};

/// Record-bearing files of a store in deterministic replay order:
/// segments by (writer, seq). Throws when the directory holds a stray
/// runs.jsonl (the retired single-file layout).
[[nodiscard]] std::vector<store_file> scan_store_files(const std::string& directory);

/// Writes `bytes` to `path` atomically: sibling temp file, fsync, rename.
void atomic_write_file(const std::filesystem::path& path, const std::string& bytes);

/// Reads a whole file into a string (binary); throws when unreadable.
[[nodiscard]] std::string read_file_bytes(const std::filesystem::path& path);

/// Throws unless the store's meta.json carries `fingerprint` — the lock
/// that keeps results of different experiments out of one store, shared
/// by the write path, merge and sync.
void require_store_fingerprint(const std::string& directory, const std::string& fingerprint);

class result_store {
public:
    /// Opens `directory` for appending as writer (shard) `writer`,
    /// creating it (and meta.json) if absent; writers of different ids
    /// can share one directory. Replays every record file to learn which
    /// unit IDs are already complete; a torn tail on the writer's open
    /// segment is truncated away. The open segment is sealed once a
    /// flush leaves it at or past QUBIKOS_CAMPAIGN_SEGMENT_BYTES (default
    /// 8 MiB). Throws if the store belongs to a different spec
    /// (fingerprint mismatch) or a record file fails to load.
    result_store(const std::string& directory, const campaign_spec& spec, int writer = 0);
    ~result_store();

    result_store(const result_store&) = delete;
    result_store& operator=(const result_store&) = delete;

    [[nodiscard]] const std::string& directory() const { return directory_; }
    /// Unit IDs with a *successful* record (failed attempts don't count).
    [[nodiscard]] const std::unordered_set<std::string>& completed() const { return completed_; }
    [[nodiscard]] bool is_complete(const std::string& unit_id) const {
        return completed_.contains(unit_id);
    }
    /// Per-unit success/attempt bookkeeping (only units with records).
    [[nodiscard]] const std::unordered_map<std::string, unit_status>& statuses() const {
        return statuses_;
    }
    /// Status of one unit (default-constructed when it has no records).
    [[nodiscard]] unit_status status(const std::string& unit_id) const;

    /// Buffers one record (not yet durable until flush()).
    void append(const stored_run& run);

    /// Writes the buffered records, fflushes and fsyncs, then rotates the
    /// open segment if it crossed the size threshold. No-op when the
    /// buffer is empty.
    void flush();

    /// Reads every intact record of a store (no spec check), segment by
    /// segment in (writer, seq) order. Torn tails are skipped only
    /// on the newest segment of each writer; corruption anywhere else —
    /// including a sealed segment disagreeing with its head manifest —
    /// throws.
    [[nodiscard]] static std::vector<stored_run> load_runs(const std::string& directory);

    /// Reads the spec snapshot out of a store's meta.json.
    [[nodiscard]] static campaign_spec load_meta_spec(const std::string& directory);

    /// Reads the fingerprint a store was created under. Throws when
    /// meta.json is missing (not a store).
    [[nodiscard]] static std::string load_meta_fingerprint(const std::string& directory);

private:
    void note(const stored_run& run);
    void open_segment(long seq, std::size_t resume_bytes, std::uint64_t resume_hash,
                      bool needs_newline);
    void seal_and_rotate();
    void write_head() const;

    std::string directory_;
    /// Path of this writer's open segment.
    std::string runs_path_;
    std::FILE* file_ = nullptr;
    std::string buffer_;
    std::unordered_set<std::string> completed_;
    std::unordered_map<std::string, unit_status> statuses_;

    int writer_ = 0;
    long open_seq_ = 0;
    std::size_t segment_bytes_ = 0;
    /// Bytes and running FNV-1a state of the open segment's content.
    std::size_t current_bytes_ = 0;
    std::uint64_t current_hash_ = 0;
    /// This writer's sealed segments (mirrored into head-<writer>.json).
    std::vector<sealed_segment> sealed_;
};

/// Folds one record into a unit's status — THE attempt-counting rule
/// (failed_attempts = max of error-record count and attempt numbers
/// seen). Shared by the store's replay bookkeeping and unit_statuses so
/// resume admission, `campaign status` and the merge report can never
/// disagree on what counts as an attempt.
void fold_unit_status(unit_status& status, const stored_run& run);

/// Folds a run list into per-unit statuses (the read-only counterpart of
/// result_store's bookkeeping, for `campaign status` and the merger).
[[nodiscard]] std::unordered_map<std::string, unit_status> unit_statuses(
    const std::vector<stored_run>& runs);

}  // namespace qubikos::campaign
