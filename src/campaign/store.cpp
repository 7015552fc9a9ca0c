#include "campaign/store.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "util/check.hpp"

#if defined(_WIN32)
#include <io.h>
#else
#include <unistd.h>
#endif

namespace qubikos::campaign {

namespace {

constexpr std::uint64_t fnv_offset = 0xcbf29ce484222325ULL;

std::uint64_t fnv1a(std::uint64_t state, const char* data, std::size_t size) {
    for (std::size_t i = 0; i < size; ++i) {
        state ^= static_cast<unsigned char>(data[i]);
        state *= 0x100000001b3ULL;
    }
    return state;
}

std::string fnv_hex(std::uint64_t hash) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(hash));
    return buf;
}

void fsync_file(std::FILE* file) {
#if defined(_WIN32)
    _commit(_fileno(file));
#else
    if (::fsync(fileno(file)) != 0) {
        throw std::runtime_error(std::string("campaign: fsync failed: ") + std::strerror(errno));
    }
#endif
}

/// Store files come from disk and other machines' shards, so every count
/// read from one passes this check before it converts: only a whole
/// number in [0, max] does, where max is T's largest value or 2^53 (past
/// which doubles stop being exact), whichever is smaller.
template <typename T>
T read_count(const json::value& v, const std::string& name) {
    constexpr double max =
        std::min(9007199254740992.0, static_cast<double>(std::numeric_limits<T>::max()));
    const double d = v.as_number();
    if (!(d >= 0 && d <= max && d == std::floor(d))) {
        throw std::runtime_error("campaign store: '" + name + "' is not a whole number in [0, " +
                                 json::value(max).dump() + "]");
    }
    return static_cast<T>(d);
}

obs::snapshot read_counters(const json::value& v) {
    obs::snapshot counters;
    for (const auto& [name, n] : v.as_object()) {
        counters.add(name, read_count<std::uint64_t>(n, name));
    }
    return counters;
}

/// Rejects any key of the object `v` outside `schema`: a file written by
/// another format must fail loudly, not load with fields dropped.
void require_schema(const json::value& v, std::initializer_list<std::string_view> schema,
                    const char* what) {
    if (const std::string* key = json::unknown_key(v.as_object(), schema)) {
        throw std::runtime_error("campaign store: unknown key '" + *key + "' in " + what);
    }
}

/// Splits JSONL content into parsed records. Returns the byte length of
/// the valid prefix (everything up to and including the last line that
/// parsed). A line that is not JSON is tolerated only when nothing but
/// that line follows it — the torn-tail signature of a crash mid-append;
/// corruption earlier in the file throws. Whether a torn tail is
/// *acceptable* for this particular file is the caller's decision. A
/// complete JSON line that breaks the record schema is never torn: it
/// throws wherever it sits.
std::size_t parse_runs(const std::string& content, const std::string& path,
                       std::vector<stored_run>& out) {
    std::size_t offset = 0;
    std::size_t valid_end = 0;
    std::size_t line_number = 0;
    while (offset < content.size()) {
        std::size_t newline = content.find('\n', offset);
        const bool final_line = newline == std::string::npos;
        const std::size_t end = final_line ? content.size() : newline;
        ++line_number;
        const std::string line = content.substr(offset, end - offset);
        const std::size_t next = final_line ? content.size() : newline + 1;
        if (line.find_first_not_of(" \t\r") != std::string::npos) {
            json::value parsed;
            try {
                parsed = json::parse(line);
            } catch (const json::error&) {
                if (next >= content.size()) return valid_end;  // torn tail: discard
                throw std::runtime_error("campaign: corrupt record at " + path + ":" +
                                         std::to_string(line_number));
            }
            try {
                out.push_back(run_from_json(parsed));
            } catch (const std::exception& e) {
                throw std::runtime_error("campaign: invalid record at " + path + ":" +
                                         std::to_string(line_number) + ": " + e.what());
            }
        }
        valid_end = next;
        offset = next;
    }
    return valid_end;
}

/// Manifest the writer is about to publish: every sealed entry must be
/// one of this writer's own segments, strictly before the open seq, with
/// no duplicate names. Contract-scan material — a head violating this
/// would poison every later open, sync and merge of the store.
[[maybe_unused]] bool manifest_consistent(const std::vector<sealed_segment>& sealed, int writer,
                                          long open_seq) {
    for (std::size_t i = 0; i < sealed.size(); ++i) {
        int seg_writer = 0;
        long seg_seq = 0;
        if (!parse_segment_file_name(sealed[i].file, seg_writer, seg_seq)) return false;
        if (seg_writer != writer || seg_seq >= open_seq) return false;
        for (std::size_t j = i + 1; j < sealed.size(); ++j) {
            if (sealed[j].file == sealed[i].file) return false;
        }
    }
    return true;
}

/// `name` without `prefix` and `suffix`, or nullopt when it lacks either
/// or nothing lies between them.
std::optional<std::string_view> name_field(std::string_view name, std::string_view prefix,
                                           std::string_view suffix) {
    if (name.size() <= prefix.size() + suffix.size() || !name.starts_with(prefix) ||
        !name.ends_with(suffix)) {
        return std::nullopt;
    }
    return name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
}

/// Parses `digits` whole as a decimal number; false for anything but
/// digits (a sign included) and for a value that overflows T.
template <typename T>
bool parse_digits(std::string_view digits, T& out) {
    const char* end = digits.data() + digits.size();
    return !digits.empty() && digits.front() != '-' &&
           std::from_chars(digits.data(), end, out) == std::from_chars_result{end, std::errc()};
}

json::value load_meta(const std::string& directory) {
    return json::parse(read_file_bytes(std::filesystem::path(directory) / "meta.json"));
}

std::size_t resolve_segment_bytes() {
    if (const char* env = std::getenv("QUBIKOS_CAMPAIGN_SEGMENT_BYTES")) {
        char* end = nullptr;
        const unsigned long long value = std::strtoull(env, &end, 10);
        if (end != nullptr && *end == '\0' && value > 0) {
            return static_cast<std::size_t>(value);
        }
    }
    return std::size_t{8} << 20;  // 8 MiB
}

/// One record file of a store, parsed. `content` (the raw bytes) is
/// retained only for each writer's newest segment — the file an
/// appender may need to reopen; sealed segments keep just
/// their size + fingerprint, so peak memory is bounded by one segment
/// plus the open tails, not the whole store.
struct loaded_file {
    store_file info;
    std::string content;
    std::size_t size = 0;
    std::string fingerprint;
    std::size_t valid_end = 0;
    std::vector<stored_run> runs;
};

/// A store as the read path sees it: head manifests (snapshotted first)
/// and every record file.
struct store_contents {
    std::vector<writer_head> heads;
    std::vector<loaded_file> files;
};

/// Reads and parses every record file of a store, enforcing the
/// torn-tail-only-on-newest rule and verifying every sealed segment
/// named by a head manifest against its recorded byte length and content
/// fingerprint. The single gateway of the read path: result_store's
/// replay and load_runs both go through it.
///
/// Heads are snapshotted BEFORE the segment bytes are read: a live
/// writer can seal a segment between the two reads, and a head claiming
/// more bytes than an earlier segment snapshot holds would look like
/// corruption. The stale direction is always safe — an old head's sealed
/// claims are immutable facts about bytes every later read will see —
/// which is what keeps `campaign status` (and sync pulls) safe against
/// stores that are actively being written.
store_contents load_store_contents(const std::string& directory) {
    store_contents contents;
    contents.heads = load_store_heads(directory);

    std::vector<loaded_file>& out = contents.files;
    for (const auto& info : scan_store_files(directory)) {
        loaded_file file;
        file.info = info;
        const std::filesystem::path path = std::filesystem::path(directory) / info.name;
        file.content = read_file_bytes(path);
        file.size = file.content.size();
        file.fingerprint = content_fingerprint(file.content);
        file.valid_end = parse_runs(file.content, path.string(), file.runs);
        if (!info.newest_of_writer && file.valid_end != file.size) {
            throw std::runtime_error("campaign: sealed segment " + path.string() +
                                     " has torn trailing bytes (only the newest segment of a "
                                     "writer may be torn)");
        }
        if (!info.newest_of_writer) {
            file.content = std::string();  // sealed: size + fingerprint suffice
        }
        out.push_back(std::move(file));
    }

    // Every sealed segment a head names must exist with exactly the
    // recorded bytes — sealed segments are immutable, so (with the
    // snapshot order above) any disagreement is corruption or
    // tampering, never a benign race.
    for (const auto& head : contents.heads) {
        for (const auto& sealed : head.sealed) {
            const auto it =
                std::find_if(out.begin(), out.end(),
                             [&](const loaded_file& f) { return f.info.name == sealed.file; });
            if (it == out.end()) {
                throw std::runtime_error("campaign: " + head_file_name(head.writer) + " in " +
                                         directory + " names sealed segment " + sealed.file +
                                         " which is missing from the store");
            }
            if (it->size != sealed.bytes || it->fingerprint != sealed.fingerprint) {
                throw std::runtime_error(
                    "campaign: sealed segment " + sealed.file + " in " + directory +
                    " does not match its head manifest (corrupt or tampered store)");
            }
        }
    }
    return contents;
}

}  // namespace

json::value run_to_json(const stored_run& run) {
    if (run.is_metrics()) {
        // Metrics sidecar record: a distinct kind, deliberately without
        // the result fields so no reader can mistake it for a run.
        json::object o;
        o["kind"] = "metrics";
        o["metrics"] = run.metrics.to_json();
        o["unit_id"] = run.unit_id;
        return json::value(std::move(o));
    }
    json::object o;
    o["unit_id"] = run.unit_id;
    o["tool"] = run.record.tool;
    o["designed_swaps"] = run.record.designed_swaps;
    o["measured_swaps"] = run.record.measured_swaps;
    o["seconds"] = run.record.seconds;
    o["valid"] = run.record.valid;
    o["depth_ratio"] = run.record.depth_ratio;
    if (run.sat_at_n >= 0) o["sat_at_n"] = run.sat_at_n;
    if (run.unsat_below >= 0) o["unsat_below"] = run.unsat_below;
    if (run.structure_ok >= 0) o["structure_ok"] = run.structure_ok;
    // Optional fields are emitted only when they carry information: a
    // first-attempt success writes neither attempt nor error, so a
    // fault-free store is byte-comparable across runs of the same spec.
    // Failed attempts always record their attempt number.
    if (run.vf2_solvable >= 0) o["vf2_solvable"] = run.vf2_solvable;
    if (run.attempt > 1 || (run.failed() && run.attempt > 0)) o["attempt"] = run.attempt;
    if (!run.error.empty()) o["error"] = run.error;
    // Router counters are emitted only when the tool reported them.
    if (!run.record.stats.empty()) o["stats"] = run.record.stats.to_json();
    return json::value(std::move(o));
}

stored_run run_from_json(const json::value& v) {
    stored_run run;
    run.unit_id = v.at("unit_id").as_string();
    if (v.contains("kind")) {
        require_schema(v, {"kind", "metrics", "unit_id"}, "a metrics record");
        if (v.at("kind").as_string() != "metrics") {
            throw std::runtime_error("campaign store: unknown record kind '" +
                                     v.at("kind").as_string() + "'");
        }
        run.metrics = read_counters(v.at("metrics"));
        if (run.metrics.empty()) {
            throw std::runtime_error("campaign store: metrics record of " + run.unit_id +
                                     " carries no counters");
        }
        return run;
    }
    require_schema(v,
                   {"attempt", "depth_ratio", "designed_swaps", "error", "measured_swaps",
                    "sat_at_n", "seconds", "stats", "structure_ok", "tool", "unit_id",
                    "unsat_below", "valid", "vf2_solvable"},
                   "a run record");
    run.record.tool = v.at("tool").as_string();
    run.record.designed_swaps = read_count<int>(v.at("designed_swaps"), "designed_swaps");
    run.record.measured_swaps = read_count<std::size_t>(v.at("measured_swaps"), "measured_swaps");
    run.record.seconds = v.at("seconds").as_number();
    run.record.valid = v.at("valid").as_bool();
    run.record.depth_ratio = v.at("depth_ratio").as_number();
    for (const auto& [key, field] : {std::pair{"sat_at_n", &run.sat_at_n},
                                     std::pair{"unsat_below", &run.unsat_below},
                                     std::pair{"structure_ok", &run.structure_ok},
                                     std::pair{"vf2_solvable", &run.vf2_solvable},
                                     std::pair{"attempt", &run.attempt}}) {
        if (v.contains(key)) *field = read_count<int>(v.at(key), key);
    }
    if (v.contains("error")) run.error = v.at("error").as_string();
    if (v.contains("stats")) run.record.stats = read_counters(v.at("stats"));
    return run;
}

// --- segmented-layout vocabulary --------------------------------------------

std::string segment_file_name(int writer, long seq) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "runs-%d-%06ld.jsonl", writer, seq);
    return buf;
}

bool parse_segment_file_name(const std::string& name, int& writer, long& seq) {
    const auto middle = name_field(name, "runs-", ".jsonl");
    if (!middle) return false;
    const std::size_t dash = middle->find('-');
    return dash != std::string_view::npos && parse_digits(middle->substr(0, dash), writer) &&
           parse_digits(middle->substr(dash + 1), seq);
}

std::string head_file_name(int writer) {
    return "head-" + std::to_string(writer) + ".json";
}

bool parse_head_file_name(const std::string& name, int& writer) {
    const auto middle = name_field(name, "head-", ".json");
    return middle && parse_digits(*middle, writer);
}

std::string content_fingerprint(const std::string& bytes) {
    return fnv_hex(fnv1a(fnv_offset, bytes.data(), bytes.size()));
}

std::size_t valid_record_prefix(const std::string& content) {
    std::vector<stored_run> discard;
    return parse_runs(content, "<buffer>", discard);
}

json::value head_to_json(const writer_head& head) {
    json::object o;
    o["schema"] = "qubikos.campaign_head.v1";
    o["writer"] = head.writer;
    o["open_seq"] = static_cast<std::int64_t>(head.open_seq);
    json::array sealed;
    for (const auto& s : head.sealed) {
        json::object e;
        e["file"] = s.file;
        e["bytes"] = s.bytes;
        e["fingerprint"] = s.fingerprint;
        sealed.push_back(json::value(std::move(e)));
    }
    o["sealed"] = std::move(sealed);
    return json::value(std::move(o));
}

writer_head head_from_json(const json::value& v) {
    require_schema(v, {"open_seq", "schema", "sealed", "writer"}, "a head manifest");
    if (v.at("schema").as_string() != "qubikos.campaign_head.v1") {
        throw std::runtime_error("campaign store: unknown head schema '" +
                                 v.at("schema").as_string() + "'");
    }
    writer_head head;
    head.writer = read_count<int>(v.at("writer"), "writer");
    head.open_seq = read_count<long>(v.at("open_seq"), "open_seq");
    for (const auto& e : v.at("sealed").as_array()) {
        require_schema(e, {"bytes", "file", "fingerprint"}, "a sealed segment entry");
        sealed_segment s;
        s.file = e.at("file").as_string();
        s.bytes = read_count<std::size_t>(e.at("bytes"), "bytes");
        s.fingerprint = e.at("fingerprint").as_string();
        head.sealed.push_back(std::move(s));
    }
    return head;
}

std::vector<writer_head> load_store_heads(const std::string& directory) {
    std::vector<writer_head> out;
    if (!std::filesystem::is_directory(directory)) return out;
    for (const auto& entry : std::filesystem::directory_iterator(directory)) {
        int writer = 0;
        if (!entry.is_regular_file() ||
            !parse_head_file_name(entry.path().filename().string(), writer)) {
            continue;
        }
        try {
            out.push_back(head_from_json(json::parse(read_file_bytes(entry.path()))));
        } catch (const std::exception& e) {
            throw std::runtime_error("campaign: invalid head manifest " + entry.path().string() +
                                     ": " + e.what());
        }
        if (out.back().writer != writer) {
            throw std::runtime_error("campaign: " + entry.path().string() +
                                     " is the manifest of writer " +
                                     std::to_string(out.back().writer));
        }
    }
    std::sort(out.begin(), out.end(),
              [](const writer_head& a, const writer_head& b) { return a.writer < b.writer; });
    return out;
}

std::vector<store_file> scan_store_files(const std::string& directory) {
    std::vector<store_file> segments;
    if (!std::filesystem::is_directory(directory)) return segments;
    const std::filesystem::path retired = std::filesystem::path(directory) / "runs.jsonl";
    if (std::filesystem::exists(retired)) {
        throw std::runtime_error("campaign: " + retired.string() +
                                 " is the retired single-file store layout; stores hold "
                                 "records only in runs-<writer>-<seq>.jsonl segments");
    }
    for (const auto& entry : std::filesystem::directory_iterator(directory)) {
        if (!entry.is_regular_file()) continue;
        store_file f;
        f.name = entry.path().filename().string();
        if (parse_segment_file_name(f.name, f.writer, f.seq)) segments.push_back(std::move(f));
    }
    std::sort(segments.begin(), segments.end(), [](const store_file& a, const store_file& b) {
        return a.writer != b.writer ? a.writer < b.writer : a.seq < b.seq;
    });
    for (std::size_t i = 0; i < segments.size(); ++i) {
        segments[i].newest_of_writer =
            i + 1 == segments.size() || segments[i + 1].writer != segments[i].writer;
    }
    return segments;
}

std::string read_file_bytes(const std::filesystem::path& path) {
    std::ifstream file(path, std::ios::binary);
    if (!file) throw std::runtime_error("campaign: cannot read " + path.string());
    std::ostringstream buffer;
    buffer << file.rdbuf();
    return buffer.str();
}

void atomic_write_file(const std::filesystem::path& path, const std::string& bytes) {
    const std::filesystem::path tmp_path = path.string() + ".tmp";
    std::FILE* out = std::fopen(tmp_path.c_str(), "wb");
    if (out == nullptr) {
        throw std::runtime_error("campaign: cannot write " + tmp_path.string());
    }
    const bool ok = std::fwrite(bytes.data(), 1, bytes.size(), out) == bytes.size() &&
                    std::fflush(out) == 0;
    if (ok) fsync_file(out);
    std::fclose(out);
    if (!ok) throw std::runtime_error("campaign: write failed for " + tmp_path.string());
    std::filesystem::rename(tmp_path, path);
}

// --- result_store -----------------------------------------------------------

void require_store_fingerprint(const std::string& directory, const std::string& fingerprint) {
    const std::string stored = result_store::load_meta_fingerprint(directory);
    if (stored != fingerprint) {
        throw std::runtime_error("campaign: store " + directory +
                                 " belongs to a different spec (fingerprint " + stored +
                                 " != " + fingerprint + ")");
    }
}

result_store::result_store(const std::string& directory, const campaign_spec& spec, int writer)
    : directory_(directory), writer_(writer), segment_bytes_(resolve_segment_bytes()) {
    if (writer < 0) {
        throw std::invalid_argument("campaign: store writer id must be >= 0");
    }

    const std::filesystem::path dir(directory);
    std::filesystem::create_directories(dir);
    const std::filesystem::path meta_path = dir / "meta.json";
    const std::string fingerprint = spec_fingerprint(spec);
    const bool existing = std::filesystem::exists(meta_path);
    if (existing) require_store_fingerprint(directory, fingerprint);

    // Loaded before meta.json is created, so a directory that fails to
    // load (a stray runs.jsonl, a corrupt segment) is left as it was.
    const store_contents contents = load_store_contents(directory);
    if (!existing) {
        json::object meta;
        meta["schema"] = "qubikos.campaign_store.v1";
        meta["name"] = spec.name;
        meta["fingerprint"] = fingerprint;
        meta["spec"] = spec_to_json(spec);
        // Written atomically (temp + fsync + rename): every later open
        // parses this file, so a crash mid-write must leave either no
        // meta.json or a complete one — a torn meta.json would brick the
        // resume path the store exists to provide.
        atomic_write_file(meta_path, json::value(std::move(meta)).dump(2) + "\n");
    }

    std::vector<const loaded_file*> own;
    for (const auto& file : contents.files) {
        for (const auto& run : file.runs) note(run);
        if (file.info.writer == writer_) own.push_back(&file);
    }

    // Decide which of this writer's seqs to open. A head whose open_seq
    // is past every existing segment marks a crash between sealing and
    // opening the next file; a newest segment the head lists as sealed
    // marks one between head write and fopen. Both resume by opening the
    // next (fresh) seq.
    const writer_head* head = nullptr;
    for (const auto& h : contents.heads) {
        if (h.writer == writer_) head = &h;
    }

    long open_seq = 0;
    const loaded_file* reopen = nullptr;
    if (!own.empty()) {
        const loaded_file* newest = own.back();
        const bool newest_sealed =
            head != nullptr &&
            std::any_of(head->sealed.begin(), head->sealed.end(), [&](const sealed_segment& s) {
                return s.file == newest->info.name;
            });
        if (head != nullptr && head->open_seq > newest->info.seq) {
            open_seq = head->open_seq;
        } else if (newest_sealed) {
            open_seq = newest->info.seq + 1;
        } else {
            open_seq = newest->info.seq;
            reopen = newest;
        }
    } else if (head != nullptr) {
        open_seq = head->open_seq;
    }

    // Rebuild this writer's sealed list from the verified on-disk bytes
    // (self-healing: a lost or stale head is regenerated here).
    for (const loaded_file* file : own) {
        if (file->info.seq >= open_seq) continue;
        sealed_.push_back({file->info.name, file->size, file->fingerprint});
    }

    if (reopen != nullptr) {
        const std::filesystem::path path = dir / reopen->info.name;
        if (reopen->valid_end < reopen->content.size()) {
            std::filesystem::resize_file(path, reopen->valid_end);
        }
        const bool needs_newline =
            reopen->valid_end > 0 && reopen->content[reopen->valid_end - 1] != '\n';
        open_segment(open_seq, reopen->valid_end,
                     fnv1a(fnv_offset, reopen->content.data(), reopen->valid_end),
                     needs_newline);
    } else {
        open_segment(open_seq, 0, fnv_offset, false);
    }
    write_head();
    if (current_bytes_ >= segment_bytes_) seal_and_rotate();
}

result_store::~result_store() {
    if (file_ != nullptr) {
        try {
            flush();
        } catch (...) {  // NOLINT: a destructor must not throw
        }
        std::fclose(file_);
    }
}

void result_store::open_segment(long seq, std::size_t resume_bytes, std::uint64_t resume_hash,
                                bool needs_newline) {
    // A fresh segment starts from the FNV offset basis; only a reopened
    // torn tail may carry bytes (and then must carry their hash).
    QUBIKOS_ASSERT(resume_bytes > 0 || resume_hash == fnv_offset);
    open_seq_ = seq;
    runs_path_ =
        (std::filesystem::path(directory_) / segment_file_name(writer_, seq)).string();
    file_ = std::fopen(runs_path_.c_str(), "ab");
    if (file_ == nullptr) {
        throw std::runtime_error("campaign: cannot open " + runs_path_ + " for appending");
    }
    current_bytes_ = resume_bytes;
    current_hash_ = resume_hash;
    if (needs_newline) buffer_ += '\n';
}

void result_store::seal_and_rotate() {
    QUBIKOS_ASSERT(file_ != nullptr);
    std::fclose(file_);
    file_ = nullptr;
    sealed_.push_back(
        {segment_file_name(writer_, open_seq_), current_bytes_, fnv_hex(current_hash_)});
    // The head records the seal and the next open seq in one atomic
    // replace; a crash on either side of it reopens consistently (see
    // the constructor's open-seq decision).
    open_seq_ += 1;
    write_head();
    open_segment(open_seq_, 0, fnv_offset, false);
}

void result_store::write_head() const {
    QUBIKOS_CHECK_MSG(manifest_consistent(sealed_, writer_, open_seq_),
                      "writer " << writer_ << " about to publish a head manifest whose sealed "
                                << "list disagrees with its own segments (open seq " << open_seq_
                                << ", " << sealed_.size() << " sealed)");
    writer_head head;
    head.writer = writer_;
    head.open_seq = open_seq_;
    head.sealed = sealed_;
    atomic_write_file(std::filesystem::path(directory_) / head_file_name(writer_),
                      head_to_json(head).dump(2) + "\n");
}

void result_store::note(const stored_run& run) {
    if (run.is_metrics()) return;  // sidecar: never completes a unit
    fold_unit_status(statuses_[run.unit_id], run);
    if (!run.failed()) completed_.insert(run.unit_id);
}

unit_status result_store::status(const std::string& unit_id) const {
    const auto it = statuses_.find(unit_id);
    return it == statuses_.end() ? unit_status{} : it->second;
}

void result_store::append(const stored_run& run) {
    buffer_ += run_to_json(run).dump();
    buffer_ += '\n';
    note(run);
}

void result_store::flush() {
    if (buffer_.empty()) return;
    // Bytes handed to the FILE must never be written twice: drop them
    // from the buffer immediately, whatever happens next. On a short
    // write (disk full) the remainder stays buffered — a retry continues
    // exactly where the partial write stopped, so the worst outcome of
    // repeated failure is a torn tail, which reopen recovers from, never
    // a duplicated prefix mid-file, which it cannot.
    const std::size_t written = std::fwrite(buffer_.data(), 1, buffer_.size(), file_);
    current_hash_ = fnv1a(current_hash_, buffer_.data(), written);
    current_bytes_ += written;
    buffer_.erase(0, written);
    if (!buffer_.empty()) {
        throw std::runtime_error("campaign: short write to " + runs_path_);
    }
    if (std::fflush(file_) != 0) {
        throw std::runtime_error("campaign: flush failed for " + runs_path_);
    }
    fsync_file(file_);
    if (current_bytes_ >= segment_bytes_) seal_and_rotate();
}

std::vector<stored_run> result_store::load_runs(const std::string& directory) {
    std::vector<stored_run> out;
    for (auto& file : load_store_contents(directory).files) {
        out.insert(out.end(), std::make_move_iterator(file.runs.begin()),
                   std::make_move_iterator(file.runs.end()));
    }
    return out;
}

campaign_spec result_store::load_meta_spec(const std::string& directory) {
    return spec_from_json(load_meta(directory).at("spec"));
}

std::string result_store::load_meta_fingerprint(const std::string& directory) {
    return load_meta(directory).at("fingerprint").as_string();
}

void fold_unit_status(unit_status& status, const stored_run& run) {
    if (run.is_metrics()) return;  // sidecar: neither success nor attempt
    if (run.failed()) {
        status.failed_attempts = std::max(status.failed_attempts + 1, run.attempt);
        status.last_error = run.error;
    } else {
        status.succeeded = true;
    }
}

std::unordered_map<std::string, unit_status> unit_statuses(const std::vector<stored_run>& runs) {
    std::unordered_map<std::string, unit_status> statuses;
    for (const auto& run : runs) fold_unit_status(statuses[run.unit_id], run);
    return statuses;
}

}  // namespace qubikos::campaign
