// qubikos_perfbench: one run of one workload.
//
//   qubikos_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     [--expected <digests.json>] [--commit <id>] [--out-dir <dir>]
//
// Pins the library's environment knobs, refuses builds whose timings are
// distorted (Debug, contract checks on), runs the workload, checks its
// output digest against the traced pass and the committed expectation,
// writes a result file (and the Chrome trace with --trace 1) and prints
// the result object as its last stdout line:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set. Exit code 0 when the run completed, 1 otherwise.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"
#include "router/score_kernel.hpp"
#include "tracer.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;
using namespace perfbench;
namespace json = qubikos::json;

namespace {

struct args {
    run_config cfg;
    std::string expected_path;
    std::string commit = "unknown";
    std::string out_dir = ".bench_out";
};

[[noreturn]] void usage(const std::string& why) {
    std::fprintf(stderr,
                 "qubikos_perfbench: %s\nusage: qubikos_perfbench --workload "
                 "fig4-sycamore|certify-aspen|serve-mixed --seed N --seconds S --trace 0|1 "
                 "[--expected FILE] [--commit ID] [--out-dir DIR]\n",
                 why.c_str());
    std::exit(2);
}

args parse_args(int argc, char** argv) {
    args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc) usage("missing value for " + key);
        const std::string value = argv[++i];
        try {
            if (key == "--workload") {
                a.cfg.workload = value;
                have_workload = true;
            } else if (key == "--seed") {
                a.cfg.seed = std::stoull(value);
            } else if (key == "--seconds") {
                a.cfg.seconds = std::stoi(value);
            } else if (key == "--trace") {
                a.cfg.trace = value == "1";
                if (value != "0" && value != "1") usage("--trace takes 0 or 1");
            } else if (key == "--expected") {
                a.expected_path = value;
            } else if (key == "--commit") {
                a.commit = value;
            } else if (key == "--out-dir") {
                a.out_dir = value;
            } else {
                usage("unknown option " + key);
            }
        } catch (const std::logic_error&) {
            usage("bad value for " + key);
        }
    }
    if (!have_workload) usage("--workload is required");
    if (a.cfg.workload != "fig4-sycamore" && a.cfg.workload != "certify-aspen" &&
        a.cfg.workload != "serve-mixed") {
        usage("unknown workload " + a.cfg.workload);
    }
    if (a.cfg.seconds < 1 || a.cfg.seconds > 600) usage("--seconds must be in 1..600");
    return a;
}

/// Every environment knob the library reads is pinned or cleared before
/// the library is first touched (the pool size and QUBIKOS_OBS are read
/// once). The daemon inherits the same environment.
std::string pin_environment(const run_config& cfg) {
    for (const char* name :
         {"QUBIKOS_SIMD", "QUBIKOS_LAZY_DIST", "QUBIKOS_TRACE", "QUBIKOS_CAMPAIGN_STORE_DIR",
          "QUBIKOS_CAMPAIGN_SEGMENT_BYTES", "QUBIKOS_CAMPAIGN_FAULT_UNIT", "QUBIKOS_BENCH_SCALE"}) {
        ::unsetenv(name);
    }
    ::setenv("QUBIKOS_OBS", "on", 1);
    // Campaigns: the pool is exactly the worker's thread count. Serve:
    // one pool thread per core, as a deployed daemon runs.
    std::string threads = cfg.workload == "fig4-sycamore"   ? "2"
                          : cfg.workload == "certify-aspen" ? "1"
                                                            : std::to_string(std::max(
                                                                  1u, std::thread::hardware_concurrency()));
    ::setenv("QUBIKOS_THREADS", threads.c_str(), 1);
    return threads;
}

/// The committed digest for (workload, seed, seconds), or "" when none.
std::string expected_digest(const std::string& path, const run_config& cfg) {
    if (path.empty()) return "";
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read " + path);
    std::stringstream ss;
    ss << in.rdbuf();
    const json::value doc = json::parse(ss.str());
    if (!doc.contains(cfg.workload)) return "";
    const json::value& entry = doc.at(cfg.workload);
    if (static_cast<std::uint64_t>(entry.at("seed").as_number()) != cfg.seed ||
        entry.at("seconds").as_int() != cfg.seconds) {
        return "";
    }
    return entry.at("digest").as_string();
}

json::value metrics_json(const metric_set& metrics) {
    json::object o;
    for (const auto& [name, m] : metrics) {
        json::object v;
        v["value"] = m.value;
        v["unit"] = m.unit;
        o[name] = json::value(std::move(v));
    }
    return json::value(std::move(o));
}

}  // namespace

int main(int argc, char** argv) {
    const std::int64_t run_start = tracer::instance().now();
    args a = parse_args(argc, argv);
    run_config& cfg = a.cfg;
    const std::string pinned_threads = pin_environment(cfg);

    const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
    const bool ndebug = true;
#else
    const bool ndebug = false;
#endif
    if ((build_type != "Release" && build_type != "RelWithDebInfo") || !ndebug ||
        qubikos::checks_enabled) {
        std::fprintf(stderr,
                     "qubikos_perfbench: refusing to time a %s build (NDEBUG %s, checks %s); "
                     "configure with -DCMAKE_BUILD_TYPE=Release and checks off\n",
                     build_type.c_str(), ndebug ? "on" : "off",
                     qubikos::checks_enabled ? "on" : "off");
        return 3;
    }

    json::object provenance;
    provenance["nproc"] = static_cast<std::size_t>(std::thread::hardware_concurrency());
    provenance["pool_threads"] = qubikos::thread_pool::shared().size();
    provenance["qubikos_threads"] = pinned_threads;
    provenance["simd_backend"] =
        qubikos::router::simd_backend_name(qubikos::router::active_simd_backend());
    provenance["build_type"] = build_type;
    provenance["checks_enabled"] = qubikos::checks_enabled;
    provenance["commit"] = a.commit;
    provenance["seed"] = static_cast<std::int64_t>(cfg.seed);
    provenance["seconds"] = cfg.seconds;
    provenance["workload"] = cfg.workload;
    provenance["trace"] = cfg.trace;

    const fs::path tmp_root = ".bench_tmp";
    cfg.work_dir = tmp_root / (cfg.workload + "-" + std::to_string(::getpid()));
    fs::remove_all(cfg.work_dir);
    fs::create_directories(cfg.work_dir);
    fs::create_directories(a.out_dir);
    const std::string stem = a.out_dir + "/" + cfg.workload + "-seed" + std::to_string(cfg.seed);

    run_outcome out;
    bool completed = true;
    try {
        out = cfg.workload == "serve-mixed" ? run_serve_workload(cfg) : run_campaign_workload(cfg);
        if (cfg.trace && out.traced_digest != out.digest) {
            out.fail("traced pass digest " + out.traced_digest + " differs from end-to-end " +
                     out.digest);
        }
        const std::string expected = expected_digest(a.expected_path, cfg);
        if (!expected.empty() && expected != out.digest) {
            out.fail("digest " + out.digest + " differs from the committed " + expected);
        }
        provenance["expected_digest"] = expected;
        if (cfg.trace) {
            std::string error;
            if (!tracer::instance().write_chrome_trace(stem + "-trace.json",
                                                       tracer::instance().now(), error)) {
                out.fail("trace: " + error);
            }
        }
    } catch (const std::exception& e) {
        completed = false;
        out.attempted = std::max<std::size_t>(out.attempted, 1);
        out.fail(std::string("run aborted: ") + e.what());
    }
    std::error_code ignored;
    fs::remove_all(cfg.work_dir, ignored);
    fs::remove(tmp_root, ignored);  // only when empty

    const bool correct = out.failed == 0;
    json::object result;
    result["correct"] = correct;
    result["attempted"] = out.attempted;
    result["failed"] = out.failed;
    result["metrics"] = metrics_json(cfg.trace ? out.per_layer : out.end_to_end);

    json::object file = result;
    file["digest"] = out.digest;
    file["traced_digest"] = out.traced_digest;
    file["errors"] = json::array(out.errors.begin(), out.errors.end());
    file["provenance"] = json::value(std::move(provenance));
    file["details"] = json::value(std::move(out.details));
    file["end_to_end"] = metrics_json(out.end_to_end);
    file["per_layer"] = metrics_json(out.per_layer);
    file["run_s"] = static_cast<double>(tracer::instance().now() - run_start) / 1e9;
    std::ofstream(stem + "-trace" + (cfg.trace ? "1" : "0") + "-result.json")
        << json::value(std::move(file)).dump(2) << '\n';

    for (const auto& e : out.errors) std::fprintf(stderr, "qubikos_perfbench: FAIL %s\n", e.c_str());
    std::printf("%s\n", json::value(std::move(result)).dump().c_str());
    return completed ? 0 : 1;
}
