#include "campaign/store.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>

#if defined(_WIN32)
#include <io.h>
#else
#include <unistd.h>
#endif

namespace qubikos::campaign {

namespace {

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

/// Parses a record file name; false for anything but the exact spelling
/// runs_file_name produces.
bool parse_runs_file_name(const std::string& name, int& writer) {
    if (!name.starts_with("runs-")) return false;
    const bool parsed =
        std::from_chars(name.data() + 5, name.data() + name.size(), writer).ec == std::errc();
    // No sign, no leading zeros, nothing but ".jsonl" after the digits.
    return parsed && writer >= 0 && name == runs_file_name(writer);
}

json::value load_meta(const std::string& directory) {
    return json::parse(read_file_bytes(std::filesystem::path(directory) / "meta.json"));
}

/// One record file of a store, parsed. The raw bytes are dropped once
/// parsed; a writer reopening its file needs only where the durable
/// prefix ends and whether its last line lacks a newline.
struct loaded_file {
    store_file info;
    std::size_t size = 0;
    std::size_t valid_end = 0;
    bool needs_newline = false;
    std::vector<stored_run> runs;
};

/// Reads and parses every record file of a store, tolerating a torn
/// final line in each. The single gateway of the read path:
/// result_store's replay and load_runs both go through it.
std::vector<loaded_file> load_store_files(const std::string& directory) {
    std::vector<loaded_file> out;
    for (const auto& info : scan_store_files(directory)) {
        loaded_file file;
        file.info = info;
        const std::filesystem::path path = std::filesystem::path(directory) / info.name;
        const std::string content = read_file_bytes(path);
        file.size = content.size();
        file.valid_end = parse_runs(content, path.string(), file.runs);
        file.needs_newline = file.valid_end > 0 && content[file.valid_end - 1] != '\n';
        out.push_back(std::move(file));
    }
    return out;
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

// --- store layout -----------------------------------------------------------

std::string runs_file_name(int writer) {
    return "runs-" + std::to_string(writer) + ".jsonl";
}

std::string content_fingerprint(const std::string& bytes) {
    std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a-64
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(hash));
    return buf;
}

std::size_t valid_record_prefix(const std::string& content) {
    std::vector<stored_run> discard;
    return parse_runs(content, "<buffer>", discard);
}

std::vector<store_file> scan_store_files(const std::string& directory) {
    std::vector<store_file> files;
    if (!std::filesystem::is_directory(directory)) return files;
    for (const auto& entry : std::filesystem::directory_iterator(directory)) {
        if (!entry.is_regular_file()) continue;
        store_file f;
        f.name = entry.path().filename().string();
        if (parse_runs_file_name(f.name, f.writer)) {
            files.push_back(std::move(f));
        } else if (f.name.starts_with("runs") && f.name.ends_with(".jsonl")) {
            throw std::runtime_error(
                "campaign: " + entry.path().string() +
                " belongs to a retired store layout (the single-file runs.jsonl or the "
                "rotated runs-<writer>-<seq>.jsonl segments); a store holds its records "
                "only in one runs-<writer>.jsonl per writer");
        }
    }
    std::sort(files.begin(), files.end(),
              [](const store_file& a, const store_file& b) { return a.writer < b.writer; });
    return files;
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
    : directory_(directory), writer_(writer) {
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
    // load (a retired-layout file, a corrupt record) is left as it was.
    const std::vector<loaded_file> files = load_store_files(directory);
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

    runs_path_ = (dir / runs_file_name(writer_)).string();
    for (const auto& file : files) {
        for (const auto& run : file.runs) note(run);
        if (file.info.writer != writer_) continue;
        // Cut a torn tail away before appending past it.
        if (file.valid_end < file.size) std::filesystem::resize_file(runs_path_, file.valid_end);
        if (file.needs_newline) buffer_ += '\n';
    }
    file_ = std::fopen(runs_path_.c_str(), "ab");
    if (file_ == nullptr) {
        throw std::runtime_error("campaign: cannot open " + runs_path_ + " for appending");
    }
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
    buffer_.erase(0, written);
    if (!buffer_.empty()) {
        throw std::runtime_error("campaign: short write to " + runs_path_);
    }
    if (std::fflush(file_) != 0) {
        throw std::runtime_error("campaign: flush failed for " + runs_path_);
    }
    fsync_file(file_);
}

std::vector<stored_run> result_store::load_runs(const std::string& directory) {
    std::vector<stored_run> out;
    for (auto& file : load_store_files(directory)) {
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
