// qubikos_cli — command-line driver for the whole library.
//
// Built around a declarative command table: every subcommand is one
// entry (name, argument synopsis, one-line summary, handler), the global
// usage text and per-command `--help` are generated from it, and
// dispatch is longest-prefix matching over the table — adding a command
// means adding one entry and one handler, nothing else.
//
// Exit codes, uniformly: 0 success, 1 runtime failure (a command that
// ran and failed), 2 usage error (bad command line; the command never
// ran).
//
// `route` and `serve` execute through the typed serve request API
// (src/serve/request.hpp): `route --json` prints exactly the response
// line the daemon would send for the equivalent request, pinned
// byte-identical by tests/test_serve.cpp.
#include <signal.h>

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <sstream>
#include <string>
#include <vector>

#include "arch/architectures.hpp"
#include "campaign/merge.hpp"
#include "campaign/plan.hpp"
#include "campaign/profile.hpp"
#include "campaign/report.hpp"
#include "campaign/spec.hpp"
#include "campaign/status.hpp"
#include "campaign/store.hpp"
#include "campaign/sync.hpp"
#include "campaign/worker.hpp"
#include "circuit/qasm.hpp"
#include "core/qubikos.hpp"
#include "core/suite.hpp"
#include "core/verifier.hpp"
#include "exact/olsq.hpp"
#include "serve/engine.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "tools/registry.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace qubikos;

/// Arguments after the command words.
using arg_list = std::vector<std::string>;

struct command {
    const char* name;     ///< space-separated words ("campaign run")
    const char* args;     ///< synopsis of the remaining arguments
    const char* summary;  ///< one line for the usage listing
    int (*handler)(const arg_list& args);
};

const std::vector<command>& command_table();

const command& find_command(const char* name) {
    for (const auto& cmd : command_table()) {
        if (std::strcmp(cmd.name, name) == 0) return cmd;
    }
    std::fprintf(stderr, "internal: no such command '%s'\n", name);
    std::abort();
}

/// Prints one command's usage line to `out`.
void print_command_usage(std::FILE* out, const command& cmd) {
    std::fprintf(out, "  qubikos_cli %s%s%s\n", cmd.name, cmd.args[0] != '\0' ? " " : "",
                 cmd.args);
}

int print_usage(std::FILE* out) {
    std::fprintf(out, "usage:\n");
    for (const auto& cmd : command_table()) print_command_usage(out, cmd);
    std::fprintf(out, "run any command with --help for its synopsis\n");
    return 2;
}

/// Usage-error exit for a specific command: message (optional) plus the
/// command's own usage line, never the full table.
int usage_error(const char* name, const std::string& message = {}) {
    if (!message.empty()) std::fprintf(stderr, "%s\n", message.c_str());
    std::fprintf(stderr, "usage:\n");
    print_command_usage(stderr, find_command(name));
    return 2;
}

/// A malformed command line found inside a handler; main() turns it into
/// the command's usage error (exit 2).
struct usage_exception : std::invalid_argument {
    using std::invalid_argument::invalid_argument;
};

/// `text` as a whole base-10 integer in [lo, hi]. Trailing junk, overflow
/// and out-of-range values throw usage_exception naming `what`, so a typo
/// never silently runs something else.
long long parse_int_arg(const std::string& text, const std::string& what, long long lo = 0,
                        long long hi = LLONG_MAX) {
    char* end = nullptr;
    errno = 0;
    const long long value = std::strtoll(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || errno != 0 || value < lo || value > hi) {
        throw usage_exception("bad " + what + " '" + text + "' (expected an integer in [" +
                              std::to_string(lo) + ", " +
                              (hi == LLONG_MAX ? std::string("inf") : std::to_string(hi)) + "])");
    }
    return value;
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot read " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

// --- library commands -------------------------------------------------------

int cmd_arches(const arg_list& args) {
    if (!args.empty()) return usage_error("arches");
    for (const auto& name : arch::known_names()) {
        if (name.find('<') != std::string::npos) {
            std::printf("%-16s (parametric)\n", name.c_str());
            continue;
        }
        const auto device = arch::by_name(name);
        std::printf("%-16s %3d qubits, %3d couplers\n", name.c_str(), device.num_qubits(),
                    device.num_couplers());
    }
    return 0;
}

int cmd_generate(const arg_list& args) {
    if (args.size() < 4 || args.size() > 5) return usage_error("generate");
    const auto device = arch::by_name(args[0]);
    core::generator_options options;
    options.num_swaps = static_cast<int>(parse_int_arg(args[1], "swaps", 0, INT_MAX));
    options.total_two_qubit_gates = static_cast<std::size_t>(parse_int_arg(args[2], "gates"));
    options.seed = static_cast<std::uint64_t>(parse_int_arg(args[3], "seed"));
    const auto instance = core::generate(device, options);
    const auto report = core::verify_structure(instance, device);
    std::printf("arch=%s optimal_swaps=%d two_qubit_gates=%zu verified=%s\n",
                device.name.c_str(), instance.optimal_swaps,
                instance.logical.num_two_qubit_gates(),
                report.valid ? "yes" : report.error.c_str());
    if (args.size() > 4) {
        const std::string& prefix = args[4];
        qasm::save(instance.logical, prefix + ".qasm");
        qasm::save(instance.answer.physical, prefix + ".answer.qasm");
        std::printf("wrote %s.qasm and %s.answer.qasm\n", prefix.c_str(), prefix.c_str());
    }
    return report.valid ? 0 : 1;
}

int cmd_suite(const arg_list& args) {
    if (args.size() < 2 || args.size() > 5) return usage_error("suite");
    const auto device = arch::by_name(args[0]);
    core::suite_spec spec;
    spec.arch_name = device.name;
    spec.swap_counts = {5, 10, 15, 20};
    spec.total_two_qubit_gates =
        args.size() > 2 ? static_cast<std::size_t>(parse_int_arg(args[2], "gates")) : 300;
    spec.circuits_per_count =
        args.size() > 3 ? static_cast<int>(parse_int_arg(args[3], "per_count", 1, INT_MAX)) : 10;
    spec.base_seed =
        args.size() > 4 ? static_cast<std::uint64_t>(parse_int_arg(args[4], "seed")) : 1;
    const auto s = core::generate_suite(device, spec);
    core::save_suite(s, args[1]);
    std::printf("wrote %zu instances to %s\n", s.instances.size(), args[1].c_str());
    return 0;
}

int cmd_verify(const arg_list& args) {
    if (args.size() != 1) return usage_error("verify");
    const auto s = core::load_suite(args[0]);
    const auto device = arch::by_name(s.spec.arch_name);
    int ok = 0;
    for (std::size_t i = 0; i < s.instances.size(); ++i) {
        const auto report = core::verify_structure(s.instances[i], device);
        if (report.valid) {
            ++ok;
        } else {
            std::printf("instance #%zu FAILED: %s\n", i, report.error.c_str());
        }
    }
    std::printf("structural verification: %d/%zu\n", ok, s.instances.size());
    return ok == static_cast<int>(s.instances.size()) ? 0 : 1;
}

int cmd_certify(const arg_list& args) {
    if (args.empty() || args.size() > 2) return usage_error("certify");
    const std::uint64_t conflict_limit =
        args.size() > 1 ? static_cast<std::uint64_t>(parse_int_arg(args[1], "conflict_limit")) : 0;
    const auto s = core::load_suite(args[0]);
    const auto device = arch::by_name(s.spec.arch_name);
    int confirmed = 0;
    int aborted = 0;
    for (std::size_t i = 0; i < s.instances.size(); ++i) {
        const auto& instance = s.instances[i];
        stopwatch timer;
        const auto cert = exact::certify(instance.logical, device.coupling, instance.optimal_swaps,
                                         conflict_limit, &instance.answer);
        if (cert.confirmed()) {
            ++confirmed;
            std::printf("instance #%zu: confirmed optimal=%d (%.2fs)\n", i, cert.k,
                        timer.seconds());
        } else if (cert.aborted()) {
            ++aborted;
            std::printf("instance #%zu: aborted (conflict limit)\n", i);
        } else {
            std::printf("instance #%zu: MISMATCH (solver says %d, declared %d)\n", i,
                        cert.solver_swaps(), instance.optimal_swaps);
        }
    }
    std::printf("certified %d/%zu (%d aborted)\n", confirmed, s.instances.size(), aborted);
    return confirmed + aborted == static_cast<int>(s.instances.size()) ? 0 : 1;
}

// --- tools subcommands ------------------------------------------------------

int cmd_tools_list(const arg_list& args) {
    if (!args.empty()) return usage_error("tools list");
    std::fputs(tools::render_tool_table().c_str(), stdout);
    std::printf("select options with tool:key=val,... "
                "(`qubikos_cli tools describe <tool>` shows the schema)\n");
    return 0;
}

int cmd_tools_describe(const arg_list& args) {
    bool as_json = false;
    std::string tool;
    for (const auto& arg : args) {
        if (arg == "--json") {
            as_json = true;
        } else if (tool.empty()) {
            tool = arg;
        } else {
            return usage_error("tools describe", "unexpected argument '" + arg + "'");
        }
    }
    if (as_json) {
        // Machine-readable registry dump: the whole registry, or one
        // tool's schema. Byte-deterministic (snapshot-pinned by test).
        const json::value doc =
            tool.empty() ? tools::registry_to_json()
                         : tools::tool_info_to_json(tools::tool_registry_info(tool));
        std::printf("%s\n", doc.dump(2).c_str());
        return 0;
    }
    if (tool.empty()) return usage_error("tools describe", "which tool? (or --json for all)");
    std::fputs(tools::describe_tool(tool).c_str(), stdout);
    return 0;
}

// --- routing service --------------------------------------------------------

int cmd_route(const arg_list& args) {
    bool as_json = false;
    bool timing = false;
    bool emit_qasm = false;
    arg_list pos;
    for (const auto& arg : args) {
        if (arg == "--json") {
            as_json = true;
        } else if (arg == "--timing") {
            timing = true;
        } else if (arg == "--emit-qasm") {
            emit_qasm = true;
        } else if (arg.size() > 1 && arg[0] == '-' && arg[1] == '-') {
            return usage_error("route", "unknown option '" + arg + "'");
        } else {
            pos.push_back(arg);
        }
    }
    if (pos.size() < 3 || pos.size() > 4) return usage_error("route");
    const int trials =
        pos.size() > 3 ? static_cast<int>(parse_int_arg(pos[3], "trials", 1, INT_MAX)) : 0;

    // Any registry tool, with inline overrides: route sabre:trials=8,...
    // A bad selector is a usage error (exit 2), distinct from a failed
    // routing (exit 1).
    tools::tool_selection selection;
    try {
        selection = tools::parse_tool_spec(pos[0]);
        (void)tools::resolve_options(tools::tool_registry_info(selection.name),
                                     selection.options);
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
    if (pos.size() > 3 && tools::tool_registry_info(selection.name).find_option("trials") !=
                              nullptr) {
        // Positional trial count (back-compat; ignored by trial-less
        // tools as before); explicit overrides win.
        json::object overrides =
            selection.options.is_null() ? json::object{} : selection.options.as_object();
        if (overrides.find("trials") == overrides.end()) {
            overrides["trials"] = trials;
        }
        selection.options = json::value(std::move(overrides));
    }

    // The CLI is just another client of the typed request API: build the
    // exact route_request a serve client would send and execute it on a
    // local engine — `route --json` output and a daemon's response line
    // for the same request are byte-identical by construction.
    serve::route_request req;
    req.id = "cli";
    req.device = pos[1];
    req.tool = selection.name;
    req.options = selection.options;
    req.qasm = read_file(pos[2]);
    req.timing = as_json ? timing : true;
    req.emit_qasm = emit_qasm;

    serve::engine eng;
    serve::route_response resp;
    try {
        resp = eng.route(req);
    } catch (const serve::request_error& e) {
        std::fprintf(stderr, "%s\n", e.what());
        switch (e.code()) {
            case serve::error_code::unknown_device:
            case serve::error_code::unknown_tool:
            case serve::error_code::bad_option: return 2;
            default: return 1;
        }
    }
    if (as_json) {
        std::printf("%s\n", resp.to_json().dump().c_str());
        return resp.legal ? 0 : 1;
    }
    if (!resp.legal) {
        std::printf("INVALID routing: %s\n", resp.validation_error.c_str());
        return 1;
    }
    std::printf("tool=%s swaps=%zu seconds=%.3f\n", resp.tool.c_str(), resp.swaps,
                resp.seconds);
    return 0;
}

int cmd_serve(const arg_list& args) {
    std::string socket_path;
    long long port = -1;
    serve::server_options sopts;
    serve::engine_options eopts;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string& arg = args[i];
        const auto value = [&]() -> const std::string& {
            if (i + 1 >= args.size()) {
                throw std::invalid_argument(arg + " needs a value");
            }
            return args[++i];
        };
        try {
            if (arg == "--socket") {
                socket_path = value();
            } else if (arg == "--port") {
                port = parse_int_arg(value(), arg, 0, 65535);
            } else if (arg == "--max-line-bytes") {
                sopts.max_line_bytes = static_cast<std::size_t>(parse_int_arg(value(), arg, 2));
            } else if (arg == "--cache-devices") {
                eopts.max_cached_devices = static_cast<std::size_t>(parse_int_arg(value(), arg, 1));
            } else if (arg == "--no-cache") {
                eopts.cache_contexts = false;
            } else {
                return usage_error("serve", "unknown option '" + arg + "'");
            }
        } catch (const std::invalid_argument& e) {
            return usage_error("serve", e.what());
        }
    }
    if (socket_path.empty() == (port < 0)) {
        return usage_error("serve", "exactly one of --socket and --port is required");
    }

    // Block the shutdown signals *before* the server spawns its threads
    // so every thread inherits the mask and sigwait below is the only
    // consumer — the clean-shutdown path (stop() answers every request
    // on the wire) runs on ctrl-C and on `kill`.
    sigset_t set;
    sigemptyset(&set);
    sigaddset(&set, SIGINT);
    sigaddset(&set, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &set, nullptr);

    serve::engine eng(eopts);
    serve::server srv(eng, sopts);
    if (!socket_path.empty()) {
        srv.listen_unix(socket_path);
        std::printf("serving on %s\n", socket_path.c_str());
    } else {
        const int bound = srv.listen_tcp(static_cast<int>(port));
        std::printf("serving on 127.0.0.1:%d\n", bound);
    }
    std::fflush(stdout);  // readiness line: scripts wait for it

    int sig = 0;
    sigwait(&set, &sig);
    srv.stop();
    const auto stats = eng.stats();
    std::printf("served %llu requests (context cache: %llu hits, %llu misses, "
                "%llu evictions)\n",
                static_cast<unsigned long long>(srv.requests_served()),
                static_cast<unsigned long long>(stats.hits),
                static_cast<unsigned long long>(stats.misses),
                static_cast<unsigned long long>(stats.evictions));
    return 0;
}

// --- campaign subcommands ---------------------------------------------------

int cmd_campaign_init(const arg_list& args) {
    if (args.empty()) return usage_error("campaign init");
    auto spec = campaign::example_spec();
    for (std::size_t i = 1; i < args.size(); ++i) {
        if (args[i] == "--tool") {
            if (i + 1 >= args.size()) {
                return usage_error("campaign init", "--tool needs a value (name[:key=val,...])");
            }
            // A selection with overrides becomes a labeled variant; the
            // canonical "name:key=val,..." form keeps two variants of the
            // same tool distinguishable in unit IDs and tables.
            const auto selection = tools::parse_tool_spec(args[++i]);
            spec.tools.emplace_back(selection.name, selection.options, selection.canonical());
        } else {
            return usage_error("campaign init", "unknown option '" + args[i] + "'");
        }
    }
    campaign::save_spec(spec, args[0]);
    const auto plan = campaign::expand_plan(spec);
    std::printf("wrote example spec '%s' to %s (%zu work units over %zu tools)\n",
                spec.name.c_str(), args[0].c_str(), plan.units.size(),
                campaign::resolved_tool_names(spec).size());
    return 0;
}

int cmd_campaign_plan(const arg_list& args) {
    if (args.empty() || args.size() > 2) return usage_error("campaign plan");
    const int num_shards =
        args.size() > 1 ? static_cast<int>(parse_int_arg(args[1], "shard count", 1, INT_MAX)) : 1;
    const auto spec = campaign::load_spec(args[0]);
    const auto plan = campaign::expand_plan(spec);
    std::printf("campaign '%s' (mode %s, fingerprint %s)\n", spec.name.c_str(),
                campaign::mode_name(spec.mode), campaign::spec_fingerprint(spec).c_str());
    std::printf("%zu work units over %zu suites\n", plan.units.size(), spec.suites.size());
    for (int shard = 0; shard < num_shards; ++shard) {
        const auto indices = campaign::shard_indices(plan.units.size(), shard, num_shards);
        std::printf("  shard %d/%d: %zu units", shard, num_shards, indices.size());
        if (!indices.empty()) {
            std::printf("  (%s ... %s)", plan.units[indices.front()].id.c_str(),
                        plan.units[indices.back()].id.c_str());
        }
        std::printf("\n");
    }
    return 0;
}

int cmd_campaign_run(const arg_list& args) {
    if (args.size() < 2) return usage_error("campaign run");
    const std::string& store_dir = args[1];
    campaign::worker_options options;
    options.threads = 0;  // auto: QUBIKOS_THREADS / hardware_concurrency
    for (std::size_t i = 2; i < args.size(); ++i) {
        const std::string& arg = args[i];
        if (arg == "--shard" && i + 1 < args.size()) {
            const std::string& value = args[++i];
            const std::size_t slash = value.find('/');
            if (slash == std::string::npos) {
                return usage_error("campaign run", "bad --shard '" + value + "' (expected k/n)");
            }
            options.num_shards =
                static_cast<int>(parse_int_arg(value.substr(slash + 1), "--shard n", 1, INT_MAX));
            options.shard = static_cast<int>(
                parse_int_arg(value.substr(0, slash), "--shard k", 0, options.num_shards - 1));
        } else if (arg == "--threads" && i + 1 < args.size()) {
            options.threads = static_cast<int>(parse_int_arg(args[++i], arg, 0, INT_MAX));
        } else if (arg == "--max-units" && i + 1 < args.size()) {
            options.max_units = static_cast<std::size_t>(parse_int_arg(args[++i], arg));
        } else if (arg == "--batch" && i + 1 < args.size()) {
            options.batch_size = static_cast<std::size_t>(parse_int_arg(args[++i], arg, 1));
        } else if (arg == "--retry-quarantined") {
            options.retry_quarantined = true;
        } else if (arg == "-v" || arg == "--verbose") {
            options.verbose = true;
        } else {
            return usage_error("campaign run", "unknown option '" + arg + "'");
        }
    }
    const auto spec = campaign::load_spec(args[0]);
    const auto plan = campaign::expand_plan(spec);
    stopwatch timer;
    const auto report = campaign::run_campaign_shard(plan, store_dir, options);
    std::printf(
        "shard %d/%d: %zu assigned, %zu resumed (skipped), %zu executed, %zu remaining, "
        "%zu failed attempts, %zu quarantined, %d invalid (%.2fs)\n",
        options.shard, options.num_shards, report.assigned, report.skipped, report.executed,
        report.remaining, report.failed_attempts, report.quarantined, report.invalid_runs,
        timer.seconds());
    return report.invalid_runs == 0 && report.quarantined == 0 ? 0 : 1;
}

int cmd_campaign_status(const arg_list& args) {
    if (args.empty()) return usage_error("campaign status");
    const std::string& store_dir = args[0];
    campaign::status_options options;
    bool as_json = false;
    for (std::size_t i = 1; i < args.size(); ++i) {
        const std::string& arg = args[i];
        if (arg == "--shards" && i + 1 < args.size()) {
            options.num_shards = static_cast<int>(parse_int_arg(args[++i], arg, 1, INT_MAX));
        } else if (arg == "--json") {
            as_json = true;
        } else {
            return usage_error("campaign status", "unknown option '" + arg + "'");
        }
    }
    // Read-only probe: the spec comes out of the store's own meta.json
    // and the runs are loaded without opening the store for appending,
    // so probing a store a worker is writing to is always safe.
    const auto spec = campaign::result_store::load_meta_spec(store_dir);
    const auto plan = campaign::expand_plan(spec);
    const auto runs = campaign::result_store::load_runs(store_dir);
    const auto status = campaign::probe_status(plan, runs, options);
    if (as_json) {
        std::printf("%s\n", campaign::status_to_json(plan, status).dump(2).c_str());
    } else {
        std::fputs(campaign::render_status(plan, status).c_str(), stdout);
    }
    return status.complete() ? 0 : 1;
}

int cmd_campaign_profile(const arg_list& args) {
    if (args.size() != 1) return usage_error("campaign profile");
    // Read-only like status: aggregates the store's metrics sidecar
    // records into per-(suite, tool) cost tables.
    const auto spec = campaign::result_store::load_meta_spec(args[0]);
    const auto plan = campaign::expand_plan(spec);
    const auto runs = campaign::result_store::load_runs(args[0]);
    std::fputs(campaign::render_profile(plan, runs).c_str(), stdout);
    return 0;
}

int cmd_campaign_sync(const arg_list& args) {
    // Collecting from live worker stores is safe: a mid-append copy
    // tears at most a file's final line, exactly what the read path
    // tolerates.
    if (args.size() < 2) return usage_error("campaign sync");
    const std::string& dest = args[0];
    std::vector<std::string> sources;
    campaign::sync_options options;
    for (std::size_t i = 1; i < args.size(); ++i) {
        if (args[i] == "-v" || args[i] == "--verbose") {
            options.verbose = true;
        } else {
            sources.push_back(args[i]);
        }
    }
    if (sources.empty()) return usage_error("campaign sync");
    const auto report = campaign::sync_stores(dest, sources, options);
    std::printf("synced %zu stores into %s: %zu copied, %zu grown, %zu unchanged\n",
                sources.size(), dest.c_str(), report.copied, report.grown, report.unchanged);
    return 0;
}

int cmd_campaign_report(const arg_list& args) {
    if (args.size() < 2) return usage_error("campaign report");
    const auto spec = campaign::load_spec(args[0]);
    const auto plan = campaign::expand_plan(spec);
    std::vector<std::string> stores(args.begin() + 1, args.end());
    const auto merged = campaign::merge_stores(plan, stores);
    const std::string report = campaign::render_report(plan, merged);
    std::fputs(report.c_str(), stdout);
    // An invalid routed circuit (or an unconfirmed certify claim) fails
    // the report like a missing unit does: the tables still render, but
    // a collector scripting `campaign report` must not read them as good.
    return merged.complete() && merged.invalid_runs == 0 ? 0 : 1;
}

// --- the table --------------------------------------------------------------

const std::vector<command>& command_table() {
    static const std::vector<command> table = {
        {"arches", "", "list known device architectures", cmd_arches},
        {"tools list", "", "list the registered QLS tools", cmd_tools_list},
        {"tools describe", "[<tool>] [--json]", "show a tool's option schema (or the whole registry as JSON)",
         cmd_tools_describe},
        {"generate", "<arch> <swaps> <gates> <seed> [out_prefix]",
         "generate one QUBIKOS instance", cmd_generate},
        {"suite", "<arch> <out_dir> [gates] [per_count] [seed]",
         "generate a benchmark suite", cmd_suite},
        {"verify", "<suite_dir>", "structurally verify a suite's optimal counts", cmd_verify},
        {"certify", "<suite_dir> [conflict_limit]",
         "confirm a suite's optimal counts with the exact solver", cmd_certify},
        {"route", "<tool[:key=val,...]> <arch> <circuit.qasm> [trials] [--json] [--timing] [--emit-qasm]",
         "route one circuit with a registry tool", cmd_route},
        {"serve",
         "(--socket <path> | --port <n>) [--max-line-bytes n] [--cache-devices n] [--no-cache]",
         "run the JSONL routing service until SIGINT/SIGTERM", cmd_serve},
        {"campaign init", "<spec.json> [--tool name[:key=val,...]]...",
         "write an example campaign spec", cmd_campaign_init},
        {"campaign plan", "<spec.json> [num_shards]", "show a campaign's work units and shards",
         cmd_campaign_plan},
        {"campaign run",
         "<spec.json> <store_dir> [--shard k/n] [--threads t] [--max-units m] [--batch b] [--retry-quarantined] [-v]",
         "execute (a shard of) a campaign into a result store", cmd_campaign_run},
        {"campaign status", "<store> [--shards n] [--json]", "probe a store's completion state",
         cmd_campaign_status},
        {"campaign profile", "<store>", "aggregate a store's per-unit cost metrics",
         cmd_campaign_profile},
        {"campaign sync", "<dest_store> <src_store>... [-v]",
         "collect (possibly live) stores into dest", cmd_campaign_sync},
        {"campaign report", "<spec.json> <store>...", "render the paper tables from stores",
         cmd_campaign_report},
    };
    return table;
}

std::vector<std::string> split_words(const char* text) {
    std::vector<std::string> words;
    std::string word;
    for (const char* p = text;; ++p) {
        if (*p == ' ' || *p == '\0') {
            if (!word.empty()) words.push_back(word);
            word.clear();
            if (*p == '\0') break;
        } else {
            word += *p;
        }
    }
    return words;
}

}  // namespace

int main(int argc, char** argv) {
    const std::vector<std::string> tokens(argv + 1, argv + argc);
    if (tokens.empty()) return print_usage(stderr);
    if (tokens[0] == "help" || tokens[0] == "--help" || tokens[0] == "-h") {
        print_usage(stdout);
        return 0;
    }

    // Longest-prefix match over the table ("campaign run" beats any
    // one-word interpretation of "campaign").
    const command* best = nullptr;
    std::size_t best_words = 0;
    bool group_seen = false;  // some entry shares the first word
    for (const auto& cmd : command_table()) {
        const auto words = split_words(cmd.name);
        if (words[0] == tokens[0]) group_seen = true;
        if (words.size() > tokens.size()) continue;
        bool match = true;
        for (std::size_t i = 0; i < words.size(); ++i) {
            if (words[i] != tokens[i]) {
                match = false;
                break;
            }
        }
        if (match && words.size() > best_words) {
            best = &cmd;
            best_words = words.size();
        }
    }
    if (best == nullptr) {
        if (group_seen) {
            // "qubikos_cli campaign frobnicate" — list the group.
            std::fprintf(stderr, "unknown %s subcommand\nusage:\n", tokens[0].c_str());
            for (const auto& cmd : command_table()) {
                if (split_words(cmd.name)[0] == tokens[0]) print_command_usage(stderr, cmd);
            }
            return 2;
        }
        std::fprintf(stderr, "unknown command '%s'\n", tokens[0].c_str());
        return print_usage(stderr);
    }

    const arg_list args(tokens.begin() + static_cast<std::ptrdiff_t>(best_words), tokens.end());
    for (const auto& arg : args) {
        if (arg == "--help" || arg == "-h") {
            std::printf("usage:\n");
            print_command_usage(stdout, *best);
            std::printf("  %s\n", best->summary);
            return 0;
        }
    }
    try {
        return best->handler(args);
    } catch (const usage_exception& e) {
        return usage_error(best->name, e.what());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
