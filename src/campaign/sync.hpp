// Multi-machine store sync: collect result stores into one.
//
// The campaign engine's distributed workflow is share-nothing: every
// machine runs its own disjoint shard(s) into its own store directory.
// `sync_stores` collects those directories into a destination store by
// copying record files, and only the ones it is missing — each file is
// compared over its *durable* (record-valid) prefix, so an
// already-identical file is skipped (re-sync is a no-op), a *grown*
// file (the source writer appended since the last sync — the only legal
// way a record file changes, since it is append-only) is
// prefix-verified and replaced, and durable prefixes that disagree are
// a hard error: append-only files that diverge mean two writers shared
// a shard id, a corrupt disk, or mixed experiments — never something to
// paper over. Failure records travel like any other record, so a
// quarantined unit stays quarantined in the destination.
//
// Pulling from a *live* writer is safe: a file copied mid-append can
// tear at most its final line, which the read path tolerates, and is
// healed by a later sync once the writer has resumed (truncating the
// torn line) and appended past it — which is exactly why files are
// compared over the record-valid prefix, not raw bytes.
//
// Copies are atomic (temp + fsync + rename into the destination), so a
// killed sync leaves the destination a valid store — at worst missing
// files it would have copied next. Every source's file list is read
// before anything is written, so a source that fails to load (e.g. a
// file of a retired layout) aborts the sync with the destination as it
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
    std::size_t unchanged = 0;

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
