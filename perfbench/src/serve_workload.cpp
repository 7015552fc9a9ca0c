// serve-mixed: the routing daemon under a closed-loop request stream.
//
// End-to-end pass: spawn `qubikos_cli serve --socket` as a child process
// and drive it over kConnections closed-loop connections (each sends its
// next request only after the previous response arrived). Traced run:
// replay the same lines through an in-process serve::server on adopted
// socketpair fds (transport counters: batches, queue wait, context
// cache), then call parse_request, engine::device_for and execute
// directly, once untraced and once with spans, for the per-layer split.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "arch/architectures.hpp"
#include "core/qubikos.hpp"
#include "serve/engine.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {

namespace {

using namespace qubikos;
namespace fs = std::filesystem;

constexpr std::size_t kConnections = 4;
/// Throughput and peak RSS are medians over this many equal time
/// slices of the stream.
constexpr int kWindows = 5;
constexpr int kSetupReps = 11;
/// Requests per second of --seconds (calibrated so the stream takes
/// about that long on a 4-core x86 host at the baseline commit); never
/// fewer than 1000 so p99 has ten samples beyond it.
constexpr int kRequestsPerSecond = 50;
constexpr std::array<const char*, 4> kTools = {"lightsabre", "mlqls", "qmap", "tket"};
/// Ten devices against the engine's 8-entry LRU, so both the cached and
/// the cold context path run.
constexpr std::array<const char*, 10> kDevices = {
    "guadalupe16", "aspen4", "tokyo20", "sycamore54", "rochester53",
    "grid3x3",     "grid4x4", "grid5x5", "grid3x5",   "grid4x6"};

struct request_spec {
    std::string line;
    /// Registry tool, or "certify".
    std::string tool;
    std::string device;
    serve::generator_params generate;
};

std::uint64_t splitmix(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// A fixed mix (each tool x device pair equally often, 2% certify on
/// aspen4 at k <= 4) in a seed-shuffled order with seed-drawn circuits.
std::vector<request_spec> make_requests(const run_config& cfg) {
    const std::size_t total =
        std::max<std::size_t>(1000, static_cast<std::size_t>(cfg.seconds) * kRequestsPerSecond);
    const std::size_t certify = total / 50;
    std::uint64_t rng = cfg.seed * 0x2545f4914f6cdd1dULL + 7;
    std::vector<request_spec> reqs(total);
    for (std::size_t i = 0; i < total; ++i) {
        request_spec& r = reqs[i];
        if (i < certify) {
            r.tool = "certify";
            r.device = "aspen4";
            r.generate.swaps = 2 + static_cast<int>(splitmix(rng) % 3);
            r.generate.gates = 30 + splitmix(rng) % 11;
        } else {
            const std::size_t k = i - certify;
            r.tool = kTools[k % kTools.size()];
            r.device = kDevices[(k / kTools.size()) % kDevices.size()];
            r.generate.swaps = 1 + static_cast<int>(splitmix(rng) % 4);
            r.generate.gates = 40 + splitmix(rng) % 41;
        }
        r.generate.seed = 1 + splitmix(rng) % 1'000'000'000;
    }
    for (std::size_t i = total - 1; i > 0; --i) {
        std::swap(reqs[i], reqs[splitmix(rng) % (i + 1)]);
    }
    for (std::size_t i = 0; i < total; ++i) {
        request_spec& r = reqs[i];
        json::object o;
        o["id"] = "r" + std::to_string(i);
        o["device"] = r.device;
        json::object g;
        g["swaps"] = r.generate.swaps;
        g["gates"] = r.generate.gates;
        g["seed"] = static_cast<std::int64_t>(r.generate.seed);
        o["generate"] = json::value(std::move(g));
        o["timing"] = true;
        if (r.tool == "certify") {
            o["op"] = "certify";
        } else {
            o["op"] = "route";
            o["tool"] = r.tool;
        }
        r.line = json::value(std::move(o)).dump();
    }
    return reqs;
}

// --- transport ---------------------------------------------------------------

class line_conn {
public:
    explicit line_conn(int fd) : fd_(fd) {}
    ~line_conn() {
        if (fd_ >= 0) ::close(fd_);
    }
    line_conn(const line_conn&) = delete;
    line_conn& operator=(const line_conn&) = delete;

    static std::unique_ptr<line_conn> connect_unix(const std::string& path) {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd < 0) throw std::runtime_error("socket() failed");
        auto conn = std::make_unique<line_conn>(fd);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (path.size() >= sizeof addr.sun_path) throw std::runtime_error("socket path too long");
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
            throw std::runtime_error("connect(" + path + ") failed: " + std::strerror(errno));
        }
        return conn;
    }

    void send_line(const std::string& line) {
        std::string data = line + '\n';
        std::size_t done = 0;
        while (done < data.size()) {
            const ssize_t n = ::send(fd_, data.data() + done, data.size() - done, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR) continue;
            if (n <= 0) throw std::runtime_error("send failed");
            done += static_cast<std::size_t>(n);
        }
    }

    std::string read_line() {
        for (;;) {
            const auto nl = buf_.find('\n');
            if (nl != std::string::npos) {
                std::string line = buf_.substr(0, nl);
                buf_.erase(0, nl + 1);
                return line;
            }
            char chunk[65536];
            const ssize_t n = ::read(fd_, chunk, sizeof chunk);
            if (n < 0 && errno == EINTR) continue;
            if (n <= 0) throw std::runtime_error("connection closed mid-response");
            buf_.append(chunk, static_cast<std::size_t>(n));
        }
    }

private:
    int fd_;
    std::string buf_;
};

struct stream_result {
    std::vector<std::string> responses;
    std::vector<double> latency_ms;
    /// Completion time of each request, ns after the stream started.
    std::vector<std::int64_t> done_ns;
    double wall_s = 0.0;

    /// Completions per second in each of `windows` equal slices of the
    /// stream: the median is the throughput a burst of host load in one
    /// slice cannot move.
    [[nodiscard]] std::vector<double> window_rates(int windows) const {
        std::vector<double> counts(static_cast<std::size_t>(windows), 0.0);
        const double width = wall_s / windows;
        for (const std::int64_t t : done_ns) {
            const auto w = static_cast<std::size_t>(static_cast<double>(t) / 1e9 / width);
            counts[std::min(w, counts.size() - 1)] += 1.0;
        }
        for (double& c : counts) c /= width;
        return counts;
    }
};

/// Closed loop: each connection's thread claims the next request, sends
/// it and waits for its response.
stream_result drive(std::vector<std::unique_ptr<line_conn>>& conns,
                    const std::vector<request_spec>& reqs) {
    stream_result out;
    out.responses.resize(reqs.size());
    out.latency_ms.resize(reqs.size());
    out.done_ns.resize(reqs.size());
    std::atomic<std::size_t> next{0};
    std::atomic<bool> broken{false};
    std::string error;
    std::mutex error_mutex;
    const std::int64_t t0 = now_ns();
    std::vector<std::thread> threads;
    for (auto& conn : conns) {
        threads.emplace_back([&, c = conn.get()] {
            try {
                for (std::size_t i = next++; i < reqs.size() && !broken; i = next++) {
                    const std::int64_t start = now_ns();
                    c->send_line(reqs[i].line);
                    out.responses[i] = c->read_line();
                    const std::int64_t done = now_ns();
                    out.latency_ms[i] = static_cast<double>(done - start) / 1e6;
                    out.done_ns[i] = done - t0;
                }
            } catch (const std::exception& e) {
                const std::lock_guard<std::mutex> lock(error_mutex);
                error = e.what();
                broken = true;
            }
        });
    }
    for (auto& t : threads) t.join();
    out.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    if (broken) throw std::runtime_error("request stream: " + error);
    return out;
}

// --- the daemon --------------------------------------------------------------

/// A `qubikos_cli serve --socket` child. The destructor terminates and
/// reaps it on every exit path.
class daemon_process {
public:
    struct exit_info {
        double cpu_s = 0.0;
        double peak_rss_mb = 0.0;
        std::string summary;
    };

    explicit daemon_process(const std::string& socket_path) {
        int pipe_fds[2];
        if (::pipe2(pipe_fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
        out_fd_ = pipe_fds[0];
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
        std::string cli = PERFBENCH_CLI_PATH;
        std::string serve = "serve", flag = "--socket", path = socket_path;
        char* argv[] = {cli.data(), serve.data(), flag.data(), path.data(), nullptr};
        const std::int64_t t0 = now_ns();
        const int rc = posix_spawn(&pid_, cli.c_str(), &actions, nullptr, argv, environ);
        posix_spawn_file_actions_destroy(&actions);
        ::close(pipe_fds[1]);
        if (rc != 0) {
            pid_ = -1;
            throw std::runtime_error("cannot spawn " + cli + ": " + std::strerror(rc));
        }
        const std::string line = read_stdout_line(30'000);
        if (line.rfind("serving on", 0) != 0) {
            // The destructor does not run for a throwing constructor.
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
            ::close(out_fd_);
            throw std::runtime_error("daemon did not report readiness (got '" + line + "')");
        }
        ready_s_ = static_cast<double>(now_ns() - t0) / 1e9;
    }

    ~daemon_process() {
        try {
            stop();
        } catch (...) {
            // stop() already killed and reaped; nothing left to report.
        }
    }
    daemon_process(const daemon_process&) = delete;
    daemon_process& operator=(const daemon_process&) = delete;

    [[nodiscard]] double ready_s() const { return ready_s_; }
    [[nodiscard]] pid_t pid() const { return pid_; }

    /// SIGTERM (the daemon drains and prints its summary), then reap;
    /// SIGKILL if it has not exited within 20 s.
    exit_info stop() {
        exit_info info;
        if (pid_ < 0) return info;
        ::kill(pid_, SIGTERM);
        info.summary = read_stdout_line(20'000);
        int status = 0;
        rusage ru{};
        pid_t got = 0;
        for (int waited_ms = 0; waited_ms < 20'000; waited_ms += 10) {
            got = ::wait4(pid_, &status, WNOHANG, &ru);
            if (got != 0) break;
            ::usleep(10'000);
        }
        if (got == 0) {
            ::kill(pid_, SIGKILL);
            got = ::wait4(pid_, &status, 0, &ru);
        }
        pid_ = -1;
        ::close(out_fd_);
        out_fd_ = -1;
        if (got < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            throw std::runtime_error("daemon did not exit cleanly");
        }
        info.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                     static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
        info.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
        return info;
    }

private:
    std::string read_stdout_line(int timeout_ms) {
        for (int waited = 0;;) {
            const auto nl = pending_.find('\n');
            if (nl != std::string::npos) {
                std::string line = pending_.substr(0, nl);
                pending_.erase(0, nl + 1);
                return line;
            }
            if (waited >= timeout_ms) return pending_;
            pollfd p{out_fd_, POLLIN, 0};
            if (::poll(&p, 1, 100) == 0) {
                waited += 100;
                continue;
            }
            char chunk[4096];
            const ssize_t n = ::read(out_fd_, chunk, sizeof chunk);
            if (n < 0 && errno == EINTR) continue;
            if (n <= 0) return pending_;
            pending_.append(chunk, static_cast<std::size_t>(n));
        }
    }

    pid_t pid_ = -1;
    int out_fd_ = -1;
    std::string pending_;
    double ready_s_ = 0.0;
};

/// Samples a process's resident set (VmRSS) every 10 ms until stopped.
class rss_sampler {
public:
    explicit rss_sampler(pid_t pid)
        : path_("/proc/" + std::to_string(pid) + "/status"), t0_(now_ns()), thread_([this] {
              while (!stop_.load()) {
                  sample();
                  std::this_thread::sleep_for(std::chrono::milliseconds(10));
              }
          }) {}
    ~rss_sampler() { finish(); }
    rss_sampler(const rss_sampler&) = delete;
    rss_sampler& operator=(const rss_sampler&) = delete;

    void finish() {
        stop_ = true;
        if (thread_.joinable()) thread_.join();
    }

    /// Median over `windows` equal time slices of each slice's peak, MiB.
    [[nodiscard]] double median_window_peak_mb(int windows) const {
        if (samples_.empty()) return 0.0;
        const double span = static_cast<double>(samples_.back().first) + 1.0;
        std::vector<double> peaks(static_cast<std::size_t>(windows), 0.0);
        for (const auto& [t, kb] : samples_) {
            const auto w = std::min(
                static_cast<std::size_t>(static_cast<double>(t) / span * windows), peaks.size() - 1);
            peaks[w] = std::max(peaks[w], kb / 1024.0);
        }
        return median(peaks);
    }

private:
    void sample() {
        std::ifstream in(path_);
        std::string line;
        while (std::getline(in, line)) {
            if (line.rfind("VmRSS:", 0) == 0) {
                samples_.emplace_back(now_ns() - t0_, std::stod(line.substr(6)));
                return;
            }
        }
    }

    std::string path_;
    std::int64_t t0_;
    std::vector<std::pair<std::int64_t, double>> samples_;
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

// --- checks ------------------------------------------------------------------

struct stream_summary {
    std::string digest;
    std::map<std::string, double> tool_cpu;
    std::map<std::string, std::pair<double, double>> tool_swaps;  // measured, designed
};

/// Digest (responses without "seconds", in request order) and, when
/// `out` is given, every failure rule.
stream_summary check_responses(const std::vector<request_spec>& reqs,
                               const std::vector<std::string>& responses, run_outcome* out) {
    stream_summary s;
    line_digest digest;
    const auto fail = [&](std::size_t i, const std::string& why) {
        if (out != nullptr) out->fail("r" + std::to_string(i) + ": " + why);
    };
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        json::value v;
        try {
            v = json::parse(responses[i]);
        } catch (const std::exception&) {
            fail(i, "unparseable response");
            digest.add_line("unparseable");
            continue;
        }
        json::object o = v.as_object();
        o.erase("seconds");
        digest.add_line(json::value(o).dump());
        if (!v.contains("ok") || !v.at("ok").as_bool()) {
            fail(i, "error response " + responses[i]);
            continue;
        }
        if (v.contains("seconds")) s.tool_cpu[reqs[i].tool] += v.at("seconds").as_number();
        if (reqs[i].tool == "certify") {
            if (!v.at("confirmed").as_bool()) fail(i, "certify not confirmed");
            continue;
        }
        const double swaps = v.at("swaps").as_number();
        if (!v.at("legal").as_bool()) fail(i, "illegal routing");
        if (swaps < reqs[i].generate.swaps) fail(i, "swaps below the designed optimum");
        s.tool_swaps[reqs[i].tool].first += swaps;
        s.tool_swaps[reqs[i].tool].second += reqs[i].generate.swaps;
    }
    s.digest = digest.hex();
    return s;
}

// --- traced run --------------------------------------------------------------

struct direct_result {
    std::vector<std::string> responses;
    double wall_s = 0.0;
    std::int64_t start = 0;
    std::int64_t end = 0;
    layer_counters counters;
    /// Synthetic layer totals the spans cannot name on their own: a
    /// device_for that missed is a context build, and execute time is
    /// split by the tool (or certify) the request ran.
    std::map<std::string, layer_total> extra;
};

/// kConnections threads call parse_request, engine::device_for and
/// execute for each request in turn (spans only while the tracer
/// records).
direct_result direct_replay(const std::vector<request_spec>& reqs) {
    direct_result out;
    out.responses.resize(reqs.size());
    serve::engine eng;
    tracer& tr = tracer::instance();
    const bool traced = tr.recording();
    std::atomic<std::size_t> next{0};
    std::vector<layer_counters> thread_counters(kConnections);
    std::vector<std::map<std::string, layer_total>> thread_extra(kConnections);
    out.start = tr.now();
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kConnections; ++t) {
        threads.emplace_back([&, t] {
            layer_counters& counters = thread_counters[t];
            auto& extra = thread_extra[t];
            const auto note = [&](const std::string& name, std::int64_t ns) {
                layer_total& lt = extra[name];
                ++lt.calls;
                lt.total_ns += ns;
                lt.self_ns += ns;
            };
            for (std::size_t i = next++; i < reqs.size(); i = next++) {
                const tracer::span root("serve.request", i);
                const serve::request req = traced_call(
                    "serve.parse", i, nullptr, [&] { return serve::parse_request(reqs[i].line); });
                layer_counters local;
                const std::int64_t d0 = tr.now();
                traced_call("serve.device_for", i, traced ? &local : nullptr, [&] {
                    return eng.device_for(reqs[i].device);
                });
                const std::int64_t d1 = tr.now();
                const std::string bucket =
                    reqs[i].tool == "certify" ? "exact.certify" : "router." + reqs[i].tool;
                out.responses[i] = traced_call("serve.execute", i, traced ? &local : nullptr,
                                               bucket, [&] { return serve::execute(eng, req); });
                const std::int64_t d2 = tr.now();
                if (!traced) continue;
                if (local["serve.device_for"]["serve.context_miss"] > 0) {
                    note("tools.context_build", d1 - d0);
                }
                note(bucket, d2 - d1);
                merge_counters(counters, local);
            }
        });
    }
    for (auto& th : threads) th.join();
    out.end = tr.now();
    out.wall_s = static_cast<double>(out.end - out.start) / 1e9;
    for (std::size_t t = 0; t < kConnections; ++t) {
        merge_counters(out.counters, thread_counters[t]);
        for (const auto& [name, lt] : thread_extra[t]) {
            layer_total& into = out.extra[name];
            into.calls += lt.calls;
            into.total_ns += lt.total_ns;
            into.self_ns += lt.self_ns;
        }
    }
    return out;
}

/// The same stream through an in-process serve::server on socketpairs.
stream_result in_process_server(const std::vector<request_spec>& reqs) {
    serve::engine eng;
    serve::server srv(eng);
    std::vector<std::unique_ptr<line_conn>> conns;
    for (std::size_t c = 0; c < kConnections; ++c) {
        int fds[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
            throw std::runtime_error("socketpair failed");
        }
        srv.add_client(fds[0]);
        conns.push_back(std::make_unique<line_conn>(fds[1]));
    }
    stream_result r = drive(conns, reqs);
    conns.clear();
    srv.stop();
    return r;
}

}  // namespace

run_outcome run_serve_workload(const run_config& cfg) {
    const std::vector<request_spec> reqs = make_requests(cfg);
    run_outcome out;
    out.attempted = reqs.size();
    // Relative to the working directory, which the daemon shares: a unix
    // socket path must fit in 108 bytes wherever the checkout lives.
    const std::string socket_path =
        fs::relative(cfg.work_dir / "d.sock", fs::current_path()).string();

    // Set-up: daemon spawn to its readiness line, kSetupReps times; the
    // last daemon serves the measured stream.
    std::vector<double> setups;
    for (int rep = 0; rep < kSetupReps - 1; ++rep) {
        daemon_process d(socket_path);
        setups.push_back(d.ready_s());
        d.stop();
    }
    auto daemon = std::make_unique<daemon_process>(socket_path);
    setups.push_back(daemon->ready_s());
    out.end_to_end["setup_s"] = {median(setups), "s"};

    std::vector<std::unique_ptr<line_conn>> conns;
    for (std::size_t c = 0; c < kConnections; ++c) {
        conns.push_back(line_conn::connect_unix(socket_path));
    }
    rss_sampler rss(daemon->pid());
    const stream_result e2e = drive(conns, reqs);
    rss.finish();
    conns.clear();
    const daemon_process::exit_info exit = daemon->stop();
    daemon.reset();

    const stream_summary summary = check_responses(reqs, e2e.responses, &out);
    out.digest = summary.digest;
    const double rate = median(e2e.window_rates(kWindows));
    add_op_metrics(out, e2e.latency_ms, static_cast<double>(reqs.size()) / rate, rate);
    out.end_to_end["cpu_s"] = {exit.cpu_s, "s"};
    // The lifetime peak follows which large qmap searches happened to
    // overlap; the median of per-slice peaks is what the mix sets.
    out.end_to_end["peak_rss_mb"] = {rss.median_window_peak_mb(kWindows), "MB"};
    out.details["daemon_lifetime_peak_rss_mb"] = exit.peak_rss_mb;
    out.details["requests"] = reqs.size();
    out.details["stream_wall_s"] = e2e.wall_s;
    out.details["connections"] = kConnections;
    out.details["daemon_summary"] = exit.summary;
    out.details["setup_samples_s"] = json::array(setups.begin(), setups.end());

    if (!cfg.trace) return out;

    for (const char* tool : kTools) {
        const auto it = summary.tool_swaps.find(tool);
        const auto cpu = summary.tool_cpu.find(tool);
        out.per_layer[std::string("tool_cpu_s.") + tool] = {
            cpu == summary.tool_cpu.end() ? 0.0 : cpu->second, "s"};
        out.per_layer[std::string("swap_ratio.") + tool] = {
            it == summary.tool_swaps.end() || it->second.second <= 0
                ? 0.0
                : it->second.first / it->second.second,
            "ratio"};
    }

    // Transport pass: batching, queue wait and the context cache as the
    // daemon sees them.
    const obs::snapshot before = obs::collect();
    const stream_result served = in_process_server(reqs);
    const obs::snapshot after = obs::collect();
    if (check_responses(reqs, served.responses, nullptr).digest != out.digest) {
        out.fail("in-process server responses differ from the daemon's");
    }
    const auto delta = [&](const char* name) {
        return static_cast<double>(counter_delta(before, after, name));
    };
    const double lookups = delta("serve.context_hit") + delta("serve.context_miss");
    out.per_layer["serve.context_hit_frac"] = {
        lookups > 0 ? delta("serve.context_hit") / lookups : 0.0, "fraction"};
    out.per_layer["serve.context_evictions"] = {delta("serve.context_evict"), "count"};
    out.per_layer["serve.queue_wait_s"] = {delta("serve.queue_wait.ns") / 1e9, "s"};
    out.per_layer["serve.batches"] = {delta("serve.batches"), "count"};
    out.per_layer["pool.jobs"] = {delta("pool.jobs"), "count"};
    out.per_layer["pool.idle_s"] = {delta("pool.idle.ns") / 1e9, "s"};

    // Layer split: the same calls untraced, then traced.
    const direct_result untraced = direct_replay(reqs);
    tracer& tr = tracer::instance();
    tr.set_recording(true);
    const direct_result traced = direct_replay(reqs);
    // Generation runs inside execute, where no span reaches; time it by
    // generating each request's circuit again, after the timed pass.
    const std::int64_t gen_start = tr.now();
    std::map<std::string, arch::architecture> devices;
    for (const char* name : kDevices) devices.emplace(name, arch::by_name(name));
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const arch::architecture& device = devices.at(reqs[i].device);
        core::generator_options g;
        g.num_swaps = reqs[i].generate.swaps;
        g.total_two_qubit_gates = reqs[i].generate.gates;
        g.seed = reqs[i].generate.seed;
        traced_call("core.generate", i, nullptr, [&] { return core::generate(device, g); });
    }
    const std::int64_t gen_end = tr.now();
    tr.set_recording(false);

    out.traced_digest = check_responses(reqs, traced.responses, nullptr).digest;
    if (check_responses(reqs, untraced.responses, nullptr).digest != out.digest) {
        out.fail("untraced direct responses differ from the daemon's");
    }
    auto totals = tr.totals(traced.start, gen_end);
    for (const auto& [name, lt] : traced.extra) totals[name] = lt;
    add_layer_metrics(out, totals, traced.counters);
    out.per_layer["trace.overhead_frac"] = {traced.wall_s / untraced.wall_s - 1.0, "fraction"};
    const double covered =
        static_cast<double>(tr.covered_ns(traced.start, traced.end, {"serve.request"}));
    out.per_layer["trace.unattributed_frac"] = {
        1.0 - covered / (static_cast<double>(traced.end - traced.start) * kConnections),
        "fraction"};
    out.details["served_wall_s"] = served.wall_s;
    out.details["direct_untraced_wall_s"] = untraced.wall_s;
    out.details["direct_traced_wall_s"] = traced.wall_s;
    out.details["generate_replay_s"] = static_cast<double>(gen_end - gen_start) / 1e9;
    return out;
}

}  // namespace perfbench
