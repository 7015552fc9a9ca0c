// Microbenchmarks: throughput of the core components.
//
// Two layers:
//   1. Timed sections (always built) covering the hot paths this repo
//      optimizes — distance_matrix construction, a single routing pass,
//      and the 32-trial SABRE engine at 1, 2 and hardware_concurrency
//      threads — emitted as machine-readable BENCH_micro.json so the
//      perf trajectory is tracked PR over PR.
//   2. The original google-benchmark suite (built when the library is
//      available), skipped at smoke scale to keep CI fast.
//
// Scale via QUBIKOS_BENCH_SCALE=smoke|standard|paper (see bench_common).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <new>
#include <thread>
#include <vector>

#include "arch/architectures.hpp"
#include "bench_common.hpp"
#include "circuit/dag.hpp"
#include "circuit/mapping.hpp"
#include "core/qubikos.hpp"
#include "graph/distance.hpp"
#include "obs/obs.hpp"
#include "router/common.hpp"
#include "router/sabre.hpp"
#include "tools/context.hpp"
#include "tools/registry.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

#if defined(QUBIKOS_HAVE_GBENCH)
#include <benchmark/benchmark.h>

#include "circuit/interaction.hpp"
#include "core/verifier.hpp"
#include "exact/olsq.hpp"
#include "graph/vf2.hpp"
#include "router/mlqls.hpp"
#include "router/qmap.hpp"
#include "router/tket.hpp"
#endif

// --- allocation counter ------------------------------------------------------
//
// The trial_arena section proves the steady-state claim ("extra trials
// allocate nothing") by counting heap allocations, not by timing: a
// global operator new tally is immune to scheduler noise. Bench binary
// only; the library itself is untouched.

namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace qubikos;

const arch::architecture& device_by_index(int index) {
    static const auto platforms = arch::paper_platforms();
    return platforms[static_cast<std::size_t>(index)];
}

core::benchmark_instance make_instance(const arch::architecture& device, int swaps,
                                       std::size_t gates) {
    core::generator_options options;
    options.num_swaps = swaps;
    options.total_two_qubit_gates = gates;
    options.seed = 99;
    return core::generate(device, options);
}

// --- timed sections ---------------------------------------------------------

/// Best-of-`reps` wall time of fn() in seconds (min filters scheduler
/// noise better than the mean at these sub-second durations).
template <typename Fn>
double best_seconds(int reps, Fn&& fn) {
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < reps; ++r) {
        stopwatch timer;
        fn();
        best = std::min(best, timer.seconds());
    }
    return best;
}

json::array time_distance_matrix(int reps) {
    json::array out;
    for (int i = 0; i < 4; ++i) {
        const auto& device = device_by_index(i);
        volatile int sink = 0;
        const double seconds = best_seconds(reps, [&] {
            const distance_matrix dist(device.coupling);
            sink = dist.diameter();
        });
        (void)sink;
        std::printf("  distance_matrix  %-12s %9.1f us\n", device.name.c_str(),
                    seconds * 1e6);
        out.push_back(json::object{{"arch", device.name},
                                   {"reps", reps},
                                   {"seconds", seconds}});
    }
    return out;
}

json::value time_route_pass(int reps, std::size_t gates) {
    const auto device = arch::sycamore54();
    const auto instance = make_instance(device, 10, gates);
    const mapping initial =
        mapping::identity(instance.logical.num_qubits(), device.num_qubits());
    router::sabre_options options;
    std::size_t swaps = 0;
    const double seconds = best_seconds(reps, [&] {
        // The provider is built inside the timed region, as the route
        // always has, so the numbers stay comparable across revisions.
        const distance_provider dist(device.coupling);
        const auto routed =
            router::route_sabre(instance.logical, device.coupling, dist, options, &initial);
        swaps = routed.swap_count();
    });
    std::printf("  route_pass       %-12s %9.1f us  (%zu gates, %zu swaps)\n",
                device.name.c_str(), seconds * 1e6, gates, swaps);
    return json::object{{"arch", device.name},
                        {"gates", gates},
                        {"reps", reps},
                        {"swaps", swaps},
                        {"seconds", seconds}};
}

json::value time_obs_overhead(int reps, std::size_t gates) {
    // Telemetry must be free on the hot path: counters batch-publish at
    // route boundaries, never per decision. This times the route_pass
    // workload with the registry enabled vs disabled; the gate script
    // enforces the recorded threshold on the ratio.
    const auto device = arch::sycamore54();
    const auto instance = make_instance(device, 10, gates);
    const mapping initial =
        mapping::identity(instance.logical.num_qubits(), device.num_qubits());
    router::sabre_options options;
    const int obs_reps = std::max(reps, 7);  // a few-% gate needs the extra noise filtering
    const bool was_enabled = obs::enabled();
    std::size_t swaps_on = 0;
    std::size_t swaps_off = 0;
    obs::set_enabled(true);
    const auto route = [&] {
        const distance_provider dist(device.coupling);  // timed, as in route_pass
        return router::route_sabre(instance.logical, device.coupling, dist, options, &initial)
            .swap_count();
    };
    const double seconds_enabled = best_seconds(obs_reps, [&] { swaps_on = route(); });
    obs::set_enabled(false);
    const double seconds_disabled = best_seconds(obs_reps, [&] { swaps_off = route(); });
    obs::set_enabled(was_enabled);
    // The absolute telemetry cost is a few counter flushes per route; a
    // faster score kernel shrinks the route itself, so the same cost is
    // a larger fraction of a faster denominator — 5% keeps the gate about
    // as tight in absolute microseconds as the pre-kernel 3% was.
    const double threshold = 1.05;
    const double ratio =
        seconds_disabled > 0.0 ? seconds_enabled / seconds_disabled : 1.0;
    std::printf("  obs_overhead     %-12s %9.3fx (on %.1f us, off %.1f us, ceiling %.2fx)\n",
                device.name.c_str(), ratio, seconds_enabled * 1e6,
                seconds_disabled * 1e6, threshold);
    return json::object{{"arch", device.name},
                        {"gates", gates},
                        {"reps", obs_reps},
                        {"identical_swaps", swaps_on == swaps_off},
                        {"seconds_enabled", seconds_enabled},
                        {"seconds_disabled", seconds_disabled},
                        {"overhead_ratio", ratio},
                        {"threshold", threshold}};
}

json::value time_candidate_swaps(int reps, std::size_t gates) {
    // One representative decision point: the initial front layer of a
    // sycamore-sized instance under the identity mapping. The routers
    // call candidate_swaps once per emitted swap, so per-call cost is
    // the number that matters; `calls` per rep amortizes timer overhead.
    const auto device = arch::sycamore54();
    const auto instance = make_instance(device, 10, gates);
    const gate_dag dag(instance.logical);
    const router::dag_frontier frontier(dag);
    const mapping current =
        mapping::identity(instance.logical.num_qubits(), device.num_qubits());
    const int calls = 2000;
    std::vector<edge> out;  // reused across calls, as in the routers
    const double seconds = best_seconds(reps, [&] {
        for (int i = 0; i < calls; ++i) {
            router::candidate_swaps(frontier.front(), dag, device.coupling, current, out);
        }
    });
    const double per_call_us = seconds / calls * 1e6;
    std::printf("  candidate_swaps  %-12s %9.3f us/call  (front %zu gates, %zu candidates)\n",
                device.name.c_str(), per_call_us, frontier.front().size(), out.size());
    return json::object{{"arch", device.name},
                        {"front_gates", frontier.front().size()},
                        {"candidates", out.size()},
                        {"reps", reps},
                        {"calls", calls},
                        {"seconds_per_call", seconds / calls}};
}

json::value time_routing_context(int reps, bool& ok) {
    // The shared-routing-context win: small circuits on the biggest
    // device make the APSP build a visible fraction of each routing call —
    // exactly the fraction a per-device context amortizes away across a
    // (tool x instance) grid. A batch of instances per rep mirrors that
    // grid (one context, many calls) and averages out scheduler noise;
    // tket keeps the routing side of a call cheap and deterministic.
    // Both tools come from the registry; the only difference is the
    // bound context. The gate tracks seconds_shared (the registry hot
    // path); the rebuild column measures the fallback for contrast.
    const auto device = arch::eagle127();
    std::vector<core::benchmark_instance> batch;
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        core::generator_options options;
        options.num_swaps = 1;
        options.total_two_qubit_gates = 8;
        options.seed = 99 + seed;
        batch.push_back(core::generate(device, options));
    }
    const auto shared_tool =
        tools::make_tool("tket", {}, tools::make_routing_context(device.coupling));
    const auto rebuild_tool = tools::make_tool("tket");

    std::size_t swaps_shared = 0;
    std::size_t swaps_rebuild = 0;
    const auto run_batch = [&](const eval::tool& tool, std::size_t& swaps) {
        swaps = 0;
        for (const auto& instance : batch) {
            swaps += tool.route(instance.logical, device.coupling, nullptr, nullptr).swap_count();
        }
    };
    const double seconds_shared =
        best_seconds(reps, [&] { run_batch(shared_tool, swaps_shared); }) / batch.size();
    const double seconds_rebuild =
        best_seconds(reps, [&] { run_batch(rebuild_tool, swaps_rebuild); }) / batch.size();
    if (swaps_shared != swaps_rebuild) {
        // The shared context must be invisible in the results; a
        // divergence is a correctness bug, so the bench fails, not just
        // grumbles.
        std::printf("  routing_context  ERROR: shared/rebuild results diverge (%zu vs %zu)\n",
                    swaps_shared, swaps_rebuild);
        ok = false;
    }
    const double speedup = seconds_shared > 0.0 ? seconds_rebuild / seconds_shared : 0.0;
    std::printf(
        "  routing_context  %-12s %9.1f us/call shared, %9.1f us/call rebuilt (%.2fx)\n",
        device.name.c_str(), seconds_shared * 1e6, seconds_rebuild * 1e6, speedup);
    return json::object{{"arch", device.name},
                        {"reps", reps},
                        {"calls", batch.size()},
                        {"swaps", swaps_shared},
                        {"seconds_shared", seconds_shared},
                        {"seconds_rebuild", seconds_rebuild},
                        {"speedup", speedup}};
}

json::value time_sabre_trials(std::size_t gates, int trials) {
    const auto device = arch::sycamore54();
    const auto instance = make_instance(device, 10, gates);

    // How many threads a request can actually get: the shared pool's
    // size, itself capped by the machine. Speedup numbers measured with
    // fewer than 2 live workers are noise, so they carry an explicit
    // validity flag the regression gate keys off instead of silently
    // gating 1-core runs.
    const std::size_t max_workers = thread_pool::shared().size();
    // Two live workers timesharing one core cannot show a speedup, so
    // scaling is only measurable when the hardware has >= 2 cores too.
    const bool scaling_valid =
        max_workers >= 2 && std::thread::hardware_concurrency() >= 2;

    std::vector<std::size_t> thread_counts = {1, 2,
                                              thread_pool::resolve_threads(0)};
    std::sort(thread_counts.begin(), thread_counts.end());
    thread_counts.erase(std::unique(thread_counts.begin(), thread_counts.end()),
                        thread_counts.end());

    json::array entries;
    double serial_seconds = 0.0;
    for (const std::size_t threads : thread_counts) {
        router::sabre_options options;
        options.trials = trials;
        options.threads = static_cast<int>(threads);
        const std::size_t resolved =
            std::min({threads, max_workers, static_cast<std::size_t>(trials)});
        obs::snapshot stats;
        stopwatch timer;
        const distance_provider dist(device.coupling);  // timed, as it always was
        const auto routed =
            router::route_sabre(instance.logical, device.coupling, dist, options, nullptr, &stats);
        const double seconds = timer.seconds();
        if (threads == 1) serial_seconds = seconds;
        const double speedup = seconds > 0.0 ? serial_seconds / seconds : 0.0;
        std::printf(
            "  route_sabre      %2d trials x %2zu threads (%zu live) %9.3f s  "
            "(speedup %.2fx, %zu swaps)\n",
            trials, threads, resolved, seconds, speedup, routed.swap_count());
        entries.push_back(json::object{{"threads", threads},
                                       {"resolved_threads", resolved},
                                       {"trials", trials},
                                       {"gates", gates},
                                       {"seconds", seconds},
                                       {"speedup_vs_serial", speedup},
                                       {"best_swaps", static_cast<std::size_t>(
                                                          stats.value("sabre.best_swaps"))}});
    }
    return json::object{{"max_workers", max_workers},
                        {"thread_scaling_valid", scaling_valid},
                        {"entries", std::move(entries)}};
}

json::value time_pool_dispatch(int reps) {
    // Cost of putting a job on the persistent shared pool: many
    // dispatches of a near-empty loop. Before the pool was persistent
    // this number included a pool's worth of thread spawns per call; the
    // gate tracks it so the dispatch path stays cheap.
    const std::size_t range = 64;
    const int calls = 200;
    std::vector<std::size_t> sink(thread_pool::shared().size(), 0);
    const double seconds = best_seconds(reps, [&] {
        for (int c = 0; c < calls; ++c) {
            thread_pool::shared().parallel_for_slots(
                0, range, 0, [&](std::size_t i, std::size_t slot) { sink[slot] += i; });
        }
    });
    const double per_dispatch_us = seconds / calls * 1e6;
    std::printf("  pool_dispatch    %zu workers %11.3f us/dispatch  (%zu indices)\n",
                thread_pool::shared().size(), per_dispatch_us, range);
    return json::object{{"workers", thread_pool::shared().size()},
                        {"indices", range},
                        {"reps", reps},
                        {"calls", calls},
                        {"seconds_per_dispatch", seconds / calls}};
}

json::value time_trial_arena(std::size_t gates, bool& ok) {
    // Steady-state allocation discipline: once a trial slot's arena is
    // warm, additional trials must allocate (almost) nothing. Measured as
    // the marginal heap allocations per extra trial between an 8-trial
    // and a 40-trial serial run — the 32 extra trials reuse one warm
    // arena, so the only allowed allocations are the rare best-trial
    // copies into a grown buffer.
    const auto device = arch::sycamore54();
    const auto instance = make_instance(device, 10, gates);
    const distance_provider dist(device.coupling);

    const auto count_allocs = [&](int trials) {
        router::sabre_options options;
        options.trials = trials;
        options.threads = 1;
        const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
        (void)router::route_sabre(instance.logical, device.coupling, dist, options);
        return g_alloc_count.load(std::memory_order_relaxed) - before;
    };

    const std::size_t allocs_small = count_allocs(8);
    const std::size_t allocs_large = count_allocs(40);
    const double per_extra_trial =
        allocs_large > allocs_small
            ? static_cast<double>(allocs_large - allocs_small) / 32.0
            : 0.0;
    // Generous vs the target of 0: a handful of best-copy reallocations
    // is fine, a per-trial emission_buffer/circuit rebuild (hundreds of
    // allocations each) is the regression this flags.
    const double threshold = 16.0;
    if (per_extra_trial > threshold) {
        std::printf("  trial_arena      ERROR: %.1f allocs per extra trial (limit %.0f)\n",
                    per_extra_trial, threshold);
        ok = false;
    } else {
        std::printf("  trial_arena      %6.2f allocs/extra trial  (8 trials: %zu, 40 trials: %zu)\n",
                    per_extra_trial, allocs_small, allocs_large);
    }
    return json::object{{"gates", gates},
                        {"allocs_8_trials", allocs_small},
                        {"allocs_40_trials", allocs_large},
                        {"allocs_per_extra_trial", per_extra_trial},
                        {"threshold", threshold}};
}

json::value time_distance_lazy(bool& ok) {
    // Part 1 — equivalence: eagle127 routed through a forced-dense and a
    // forced-lazy provider must produce the identical circuit.
    const auto equiv_device = arch::eagle127();
    const auto instance = make_instance(equiv_device, 10, 400);
    router::sabre_options options;
    options.trials = 2;
    options.threads = 1;
    distance_options dense_opts;
    dense_opts.mode = distance_options::storage_mode::dense;
    distance_options lazy_opts;
    lazy_opts.mode = distance_options::storage_mode::lazy;
    const distance_provider dense_dist(equiv_device.coupling, dense_opts);
    const distance_provider lazy_dist(equiv_device.coupling, lazy_opts);
    const auto routed_dense =
        router::route_sabre(instance.logical, equiv_device.coupling, dense_dist, options);
    const auto routed_lazy =
        router::route_sabre(instance.logical, equiv_device.coupling, lazy_dist, options);
    const bool identical_swaps =
        routed_dense.swap_count() == routed_lazy.swap_count() &&
        routed_dense.physical.gates() == routed_lazy.physical.gates();

    // Part 2 — scale: a 64-qubit workload routed end-to-end on a
    // 2000+-qubit heavy-hex device. The automatic policy must pick the
    // lazy backend, and the route must touch only the rows near the
    // mapped region — never a dense O(V^2) build.
    const auto big = arch::heavy_hex(32, 56);
    const int big_n = big.num_qubits();
    constexpr int kCircuitQubits = 64;
    rng random(7);
    circuit logical(kCircuitQubits);
    for (int i = 0; i < 200; ++i) {
        const int a = static_cast<int>(random.below(kCircuitQubits));
        int b = static_cast<int>(random.below(kCircuitQubits - 1));
        if (b >= a) ++b;
        logical.append(gate::cx(a, b));
    }
    const mapping initial = mapping::identity(kCircuitQubits, big_n);
    const distance_provider big_dist(big.coupling);
    std::size_t big_swaps = 0;
    const double seconds_route = best_seconds(1, [&] {
        big_swaps =
            router::route_sabre(logical, big.coupling, big_dist, {}, &initial).swap_count();
    });
    const double row_fraction =
        static_cast<double>(big_dist.rows_built()) / static_cast<double>(big_n);
    const double max_row_fraction = 0.5;
    const bool lazy_ok = big_dist.is_lazy() && row_fraction <= max_row_fraction;

    std::printf("  distance_lazy    %s: %s; %s (%d qubits): %zu/%d rows (%.1f%%), %.1f ms route%s\n",
                equiv_device.name.c_str(),
                identical_swaps ? "lazy==dense" : "ERROR: lazy!=dense", big.name.c_str(),
                big_n, big_dist.rows_built(), big_n, row_fraction * 100.0,
                seconds_route * 1e3, lazy_ok ? "" : "  ERROR: lazy policy violated");
    if (!identical_swaps || !lazy_ok) ok = false;
    return json::object{{"equiv_arch", equiv_device.name},
                        {"identical_swaps", identical_swaps},
                        {"equiv_swaps", routed_lazy.swap_count()},
                        {"big_arch", big.name},
                        {"big_qubits", big_n},
                        {"circuit_qubits", kCircuitQubits},
                        {"is_lazy", big_dist.is_lazy()},
                        {"rows_built", big_dist.rows_built()},
                        {"row_fraction", row_fraction},
                        {"max_row_fraction", max_row_fraction},
                        {"big_swaps", big_swaps},
                        {"seconds_route", seconds_route}};
}

int run_timed_sections() {
    const bench::scale s = bench::bench_scale();
    const int reps = s == bench::scale::smoke ? 3 : (s == bench::scale::paper ? 50 : 10);
    const std::size_t gates =
        s == bench::scale::smoke ? 300 : (s == bench::scale::paper ? 3000 : 1500);

    bench::print_header("bench_micro: hot-path timed sections",
                        "infrastructure (no paper figure)");
    std::printf("threads available: %zu (QUBIKOS_THREADS overrides)\n\n",
                thread_pool::resolve_threads(0));

    json::object doc;
    doc["schema"] = "qubikos.bench_micro.v2";
    doc["scale"] = bench::scale_name(s);
    // Both recorded: the machine's real core count, and what a thread
    // request of 0 resolves to here (differs when QUBIKOS_THREADS is
    // set) — trajectory comparisons need to tell the two apart.
    doc["hardware_concurrency"] =
        static_cast<std::size_t>(std::thread::hardware_concurrency());
    doc["resolved_threads"] = thread_pool::resolve_threads(0);
    bool ok = true;
    doc["distance_matrix"] = time_distance_matrix(reps);
    doc["candidate_swaps"] = time_candidate_swaps(reps, gates);
    doc["route_pass"] = time_route_pass(reps, gates);
    doc["obs_overhead"] = time_obs_overhead(reps, gates);
    doc["routing_context"] = time_routing_context(reps, ok);
    doc["pool_dispatch"] = time_pool_dispatch(reps);
    doc["trial_arena"] = time_trial_arena(gates, ok);
    doc["route_sabre_trials"] = time_sabre_trials(gates, 32);
    doc["distance_lazy"] = time_distance_lazy(ok);

    const std::string path = "BENCH_micro.json";
    std::ofstream file(path);
    file << json::value(std::move(doc)).dump(2) << "\n";
    file.flush();  // surface deferred write errors before the good() check
    std::printf("\n[raw data: %s]\n", path.c_str());
    return file.good() && ok ? 0 : 1;
}

// --- google-benchmark suite (optional) --------------------------------------

#if defined(QUBIKOS_HAVE_GBENCH)

void bm_generate(benchmark::State& state) {
    const auto& device = device_by_index(static_cast<int>(state.range(0)));
    std::uint64_t seed = 1;
    for (auto _ : state) {
        core::generator_options options;
        options.num_swaps = 10;
        options.total_two_qubit_gates = 500;
        options.seed = seed++;
        benchmark::DoNotOptimize(core::generate(device, options));
    }
    state.SetLabel(device.name);
}
BENCHMARK(bm_generate)->DenseRange(0, 3);

void bm_verify_structure(benchmark::State& state) {
    const auto& device = device_by_index(static_cast<int>(state.range(0)));
    const auto instance = make_instance(device, 10, 500);
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::verify_structure(instance, device));
    }
    state.SetLabel(device.name);
}
BENCHMARK(bm_verify_structure)->DenseRange(0, 3);

void bm_vf2_nonisomorphism(benchmark::State& state) {
    const auto& device = device_by_index(static_cast<int>(state.range(0)));
    const auto instance = make_instance(device, 5, 300);
    std::vector<edge> edges = instance.sections.front().body;
    edges.push_back(instance.sections.front().special);
    const graph gi = interaction_graph_of_edges(device.num_qubits(), edges);
    for (auto _ : state) {
        benchmark::DoNotOptimize(find_subgraph_monomorphism(gi, device.coupling));
    }
    state.SetLabel(device.name);
}
BENCHMARK(bm_vf2_nonisomorphism)->DenseRange(0, 3);

void bm_distance_matrix(benchmark::State& state) {
    const auto& device = device_by_index(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(distance_matrix(device.coupling));
    }
    state.SetLabel(device.name);
}
BENCHMARK(bm_distance_matrix)->DenseRange(0, 3);

void bm_gate_dag(benchmark::State& state) {
    const auto instance = make_instance(arch::sycamore54(), 10, 1500);
    for (auto _ : state) {
        benchmark::DoNotOptimize(gate_dag(instance.logical));
    }
}
BENCHMARK(bm_gate_dag);

void bm_exact_solve_n2(benchmark::State& state) {
    const auto device = arch::aspen4();
    const auto instance = make_instance(device, 2, 30);
    for (auto _ : state) {
        exact::olsq_options options;
        options.max_swaps = 3;
        benchmark::DoNotOptimize(
            exact::solve_optimal(instance.logical, device.coupling, options));
    }
}
BENCHMARK(bm_exact_solve_n2);

void bm_route_sabre_1trial(benchmark::State& state) {
    const auto& device = device_by_index(static_cast<int>(state.range(0)));
    const auto instance =
        make_instance(device, 10, device.num_qubits() > 100 ? 3000 : 500);
    for (auto _ : state) {
        router::sabre_options options;
        options.trials = 1;
        const distance_provider dist(device.coupling);
        benchmark::DoNotOptimize(
            router::route_sabre(instance.logical, device.coupling, dist, options));
    }
    state.SetLabel(device.name);
}
BENCHMARK(bm_route_sabre_1trial)->DenseRange(0, 3);

void bm_route_tket(benchmark::State& state) {
    const auto device = arch::sycamore54();
    const auto instance = make_instance(device, 10, 1500);
    for (auto _ : state) {
        const distance_provider dist(device.coupling);
        benchmark::DoNotOptimize(router::route_tket(instance.logical, device.coupling, dist));
    }
}
BENCHMARK(bm_route_tket);

void bm_route_qmap(benchmark::State& state) {
    const auto device = arch::aspen4();
    const auto instance = make_instance(device, 10, 300);
    for (auto _ : state) {
        const distance_provider dist(device.coupling);
        benchmark::DoNotOptimize(router::route_qmap(instance.logical, device.coupling, dist));
    }
}
BENCHMARK(bm_route_qmap);

void bm_route_mlqls(benchmark::State& state) {
    const auto device = arch::sycamore54();
    const auto instance = make_instance(device, 10, 1500);
    for (auto _ : state) {
        const distance_provider dist(device.coupling);
        benchmark::DoNotOptimize(router::route_mlqls(instance.logical, device.coupling, dist,
                                                     router::mlqls_options{}));
    }
}
BENCHMARK(bm_route_mlqls);

#endif  // QUBIKOS_HAVE_GBENCH

}  // namespace

int main(int argc, char** argv) {
    const int status = run_timed_sections();
    if (status != 0) return status;
#if defined(QUBIKOS_HAVE_GBENCH)
    if (bench::bench_scale() != bench::scale::smoke) {
        std::printf("\n");
        benchmark::Initialize(&argc, argv);
        if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
        benchmark::RunSpecifiedBenchmarks();
    }
#else
    (void)argc;
    (void)argv;
#endif
    return 0;
}
