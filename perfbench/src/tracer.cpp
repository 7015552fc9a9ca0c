#include "tracer.hpp"

#include <cstdio>
#include <fstream>

#include "common.hpp"
#include "util/json.hpp"

namespace perfbench {

struct thread_buffer {
    int thread = 0;
    std::vector<span_record> records;
    /// Indices of the spans open on this thread, innermost last.
    std::vector<std::size_t> open;
};

tracer& tracer::instance() {
    static tracer t;
    return t;
}

tracer::tracer() : t0_ns_(now_ns()) {}

std::int64_t tracer::now() const { return now_ns() - t0_ns_; }

thread_buffer& tracer::local_buffer() {
    thread_local thread_buffer* mine = nullptr;
    if (mine == nullptr) {
        const std::lock_guard<std::mutex> lock(mutex_);
        buffers_.push_back(std::make_unique<thread_buffer>());
        mine = buffers_.back().get();
        mine->thread = static_cast<int>(buffers_.size());
    }
    return *mine;
}

tracer::span::span(const std::string& name, std::uint64_t trace_id) {
    tracer& t = instance();
    if (!t.recording()) return;
    buffer_ = &t.local_buffer();
    span_record r;
    r.name = name;
    r.trace_id = trace_id;
    r.thread = buffer_->thread;
    r.parent = buffer_->open.empty() ? -1 : static_cast<std::int64_t>(buffer_->open.back());
    index_ = buffer_->records.size();
    // The buffer is only ever touched by its own thread while spans are
    // open; readers run after every traced pass has joined.
    buffer_->records.push_back(std::move(r));
    buffer_->open.push_back(index_);
    buffer_->records[index_].start_ns = t.now();
}

tracer::span::~span() {
    if (buffer_ == nullptr) return;
    span_record& r = buffer_->records[index_];
    r.end_ns = instance().now();
    buffer_->open.pop_back();
    if (r.parent >= 0) {
        buffer_->records[static_cast<std::size_t>(r.parent)].child_ns += r.duration();
    }
}

std::vector<span_record> tracer::spans() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<span_record> all;
    for (const auto& b : buffers_) all.insert(all.end(), b->records.begin(), b->records.end());
    return all;
}

std::map<std::string, layer_total> tracer::totals(std::int64_t from_ns, std::int64_t to_ns) const {
    std::map<std::string, layer_total> out;
    for (const span_record& r : spans()) {
        if (r.start_ns < from_ns || r.start_ns > to_ns) continue;
        layer_total& t = out[r.name];
        ++t.calls;
        t.total_ns += r.duration();
        t.self_ns += r.self();
    }
    return out;
}

std::int64_t tracer::covered_ns(std::int64_t from_ns, std::int64_t to_ns,
                                const std::vector<std::string>& roots) const {
    const auto is_root = [&](const std::string& name) {
        for (const auto& root : roots) {
            if (name == root) return true;
        }
        return false;
    };
    std::int64_t covered = 0;
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& b : buffers_) {
        for (const span_record& r : b->records) {
            if (r.start_ns < from_ns || r.end_ns > to_ns || is_root(r.name)) continue;
            if (r.parent >= 0 && !is_root(b->records[static_cast<std::size_t>(r.parent)].name)) {
                continue;
            }
            covered += r.duration();
        }
    }
    return covered;
}

bool tracer::write_chrome_trace(const std::string& path, std::int64_t run_end_ns,
                                std::string& error) const {
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    char buf[160];
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& b : buffers_) {
        if (!b->open.empty()) {
            error = "span '" + b->records[b->open.back()].name + "' never closed";
            return false;
        }
        for (const span_record& r : b->records) {
            if (r.start_ns < 0 || r.end_ns < r.start_ns || r.end_ns > run_end_ns) {
                error = "span '" + r.name + "' lies outside [0, run end]";
                return false;
            }
            if (!first) out += ',';
            first = false;
            out += "{\"name\":";
            qubikos::json::append_quoted(out, r.name);
            std::snprintf(buf, sizeof buf,
                          ",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                          "\"args\":{\"trace_id\":%llu,\"parent\":%lld}}",
                          r.thread, static_cast<double>(r.start_ns) / 1e3,
                          static_cast<double>(r.duration()) / 1e3,
                          static_cast<unsigned long long>(r.trace_id),
                          static_cast<long long>(r.parent));
            out += buf;
        }
    }
    out += "]}\n";
    std::ofstream file(path, std::ios::binary);
    file << out;
    if (!file) {
        error = "cannot write " + path;
        return false;
    }
    return true;
}

}  // namespace perfbench
