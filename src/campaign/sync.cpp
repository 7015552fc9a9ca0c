#include "campaign/sync.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "campaign/store.hpp"

namespace qubikos::campaign {

namespace {

namespace fs = std::filesystem;

/// Copies one record file from a source into the destination under the
/// append-only contract. The durable (record-valid) prefixes must nest:
/// a record file only ever changes by appending records — or by losing an
/// unparseable torn tail when its writer truncates it on resume — so the
/// copy with the longer valid prefix wins, a clean copy replaces a torn
/// one of equal prefix (healing junk a pull from a live writer picked
/// up), and valid prefixes that disagree are a hard error.
void sync_record_file(const fs::path& src_path, const fs::path& dest_path,
                      const std::string& name, const sync_options& options,
                      sync_report& report) {
    const std::string src_content = read_file_bytes(src_path);
    if (!fs::exists(dest_path)) {
        atomic_write_file(dest_path, src_content);
        ++report.copied;
        if (options.verbose) std::printf("  copy  %s (%zu bytes)\n", name.c_str(), src_content.size());
        return;
    }
    const std::string dest_content = read_file_bytes(dest_path);
    if (src_content == dest_content) {
        ++report.unchanged;
        if (options.verbose) std::printf("  keep  %s\n", name.c_str());
        return;
    }
    const std::size_t src_end = valid_record_prefix(src_content);
    const std::size_t dest_end = valid_record_prefix(dest_content);
    const std::size_t common = std::min(src_end, dest_end);
    const bool prefix_ok =
        std::equal(src_content.begin(),
                   src_content.begin() + static_cast<std::ptrdiff_t>(common),
                   dest_content.begin());
    if (!prefix_ok) {
        throw std::runtime_error(
            "campaign: sync: " + name + " in " + src_path.parent_path().string() +
            " diverges from the destination's copy (same name, different records — "
            "two writers shared a shard id, or the stores mix experiments)");
    }
    const bool src_clean = src_content.size() == src_end;
    const bool dest_torn = dest_content.size() > dest_end;
    if (src_end > dest_end || (src_end == dest_end && src_clean && dest_torn)) {
        atomic_write_file(dest_path, src_content);
        ++report.grown;
        if (options.verbose) {
            std::printf("  grow  %s (%zu -> %zu bytes)\n", name.c_str(), dest_content.size(),
                        src_content.size());
        }
    } else {
        ++report.unchanged;
        if (options.verbose) std::printf("  keep  %s\n", name.c_str());
    }
}

}  // namespace

sync_report sync_stores(const std::string& destination, const std::vector<std::string>& sources,
                        const sync_options& options) {
    if (sources.empty()) {
        throw std::invalid_argument("campaign: sync needs at least one source store");
    }

    // Every store involved must be the same experiment.
    const std::string fingerprint = result_store::load_meta_fingerprint(sources.front());
    for (const auto& src : sources) require_store_fingerprint(src, fingerprint);
    const fs::path dest_dir(destination);
    const fs::path dest_meta = dest_dir / "meta.json";
    if (fs::exists(dest_meta)) require_store_fingerprint(destination, fingerprint);

    // Every source is listed up front, so one that fails to load leaves
    // the destination untouched.
    std::vector<std::vector<store_file>> source_files;
    for (const auto& src : sources) source_files.push_back(scan_store_files(src));
    (void)scan_store_files(destination);  // the destination obeys the same layout

    if (!fs::exists(dest_meta)) {
        fs::create_directories(dest_dir);
        // Byte-for-byte copy of the first source's snapshot, so the
        // destination opens under the exact same meta a worker wrote.
        atomic_write_file(dest_meta, read_file_bytes(fs::path(sources[0]) / "meta.json"));
    }

    sync_report report;
    for (std::size_t i = 0; i < sources.size(); ++i) {
        const std::string& src = sources[i];
        if (options.verbose) std::printf("sync %s -> %s\n", src.c_str(), destination.c_str());
        for (const auto& file : source_files[i]) {
            sync_record_file(fs::path(src) / file.name, dest_dir / file.name, file.name,
                             options, report);
        }
    }
    return report;
}

}  // namespace qubikos::campaign
