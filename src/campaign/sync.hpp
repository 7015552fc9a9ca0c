// Multi-machine store sync: collect segmented result stores into one.
//
// The campaign engine's distributed workflow is share-nothing: every
// machine runs its own disjoint shard(s) into its own store directory.
// `sync_stores` collects those directories into a destination store by
// copying record segments, and only the segments it is missing — each
// file is compared over its *durable* (record-valid) prefix, so an
// already-identical segment is skipped
// (re-sync is a no-op), a *grown* segment (the source writer appended
// since the last sync — the only legal way a segment's records change,
// since sealed segments are immutable and the open one is append-only)
// is prefix-verified and replaced, and durable prefixes that disagree
// are a hard error: append-only files that diverge mean two writers
// shared a (writer, seq) name, a corrupt disk, or mixed experiments —
// never something to paper over.
//
// Pulling from a *live* writer is safe: a segment copied mid-append can
// tear at most its final line, lands as the newest segment of that
// writer in the destination (exactly where the read path tolerates a
// torn tail), and is healed by a later sync once the writer has resumed
// (truncating the torn line) and appended past it — which is exactly why
// the content address covers only the record-valid prefix, not raw
// bytes. Head manifests
// are snapshotted before their segments are copied, so a head in the
// destination never claims more sealed bytes than the files beside it
// hold.
//
// Copies are atomic (temp + fsync + rename into the destination), so a
// killed sync leaves the destination a valid store — at worst missing
// files it would have copied next. Every source's heads and file list
// are read before anything is written, so a source that fails to load
// (e.g. a stray runs.jsonl) aborts the sync with the destination as it
// was.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace qubikos::campaign {

struct sync_options {
    /// Per-file action lines on stdout.
    bool verbose = false;
};

struct sync_report {
    /// Record files the destination lacked entirely.
    std::size_t copied = 0;
    /// Existing record files replaced by a longer, prefix-identical
    /// version.
    std::size_t grown = 0;
    /// Record files already up to date (or newer in the destination).
    /// Head manifests never count here, so the three record counters sum
    /// to the record files examined.
    std::size_t unchanged = 0;
    /// Head manifests written or advanced (unadvanced ones are skipped
    /// without being counted anywhere).
    std::size_t heads = 0;

    /// True when the pass moved no record bytes (the idempotence check).
    [[nodiscard]] bool noop() const { return copied == 0 && grown == 0; }
};

/// Syncs every source store into `destination` (created if absent, spec
/// snapshot copied from the first source). All stores — sources and a
/// pre-existing destination — must carry the same spec fingerprint.
/// Throws on fingerprint mismatch, divergent same-name files, a source
/// that is not a store, or a store file that fails to load.
sync_report sync_stores(const std::string& destination,
                        const std::vector<std::string>& sources,
                        const sync_options& options = {});

}  // namespace qubikos::campaign
