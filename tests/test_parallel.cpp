// Concurrency-subsystem tests: the thread pool itself, and the promise
// that every parallel path (SABRE trials, the flat distance matrix) is
// bit-identical to its serial counterpart. (Parallel campaign batches are
// checked against a serial run in test_campaign.)
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "arch/architectures.hpp"
#include "core/qubikos.hpp"
#include "graph/bfs.hpp"
#include "graph/distance.hpp"
#include "graph/gen.hpp"
#include "obs/obs.hpp"
#include "router/sabre.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace qubikos {
namespace {

// --- thread pool ------------------------------------------------------------

TEST(thread_pool, covers_every_index_exactly_once) {
    thread_pool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    constexpr std::size_t n = 10000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(0, n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(thread_pool, single_thread_runs_inline_in_order) {
    thread_pool pool(1);
    std::vector<std::size_t> order;
    pool.parallel_for(3, 8, [&](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{3, 4, 5, 6, 7}));
}

TEST(thread_pool, empty_range_is_a_noop) {
    thread_pool pool(2);
    pool.parallel_for(5, 5, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(thread_pool, reusable_across_jobs) {
    thread_pool pool(3);
    for (int round = 0; round < 20; ++round) {
        std::atomic<std::size_t> sum{0};
        pool.parallel_for(0, 100, [&](std::size_t i) { sum.fetch_add(i); });
        EXPECT_EQ(sum.load(), 4950u);
    }
}

TEST(thread_pool, propagates_exceptions) {
    thread_pool pool(2);
    EXPECT_THROW(pool.parallel_for(0, 64,
                                   [](std::size_t i) {
                                       if (i == 13) throw std::runtime_error("boom");
                                   }),
                 std::runtime_error);
}

TEST(thread_pool, cancellation_skips_indices_after_a_throw) {
    // Two participants, two chunks of two. Whoever claims the chunk
    // {0, 1} throws at index 0; the cancellation check before every
    // index guarantees index 1 — same chunk, already claimed — never
    // runs. (The other chunk may or may not run, depending on timing.)
    thread_pool pool(2);
    std::vector<std::atomic<int>> hits(4);
    EXPECT_THROW(pool.parallel_for_slots(0, 4, 0,
                                         [&](std::size_t i, std::size_t) {
                                             if (i == 0) throw std::runtime_error("boom");
                                             hits[i].fetch_add(1);
                                         },
                                         /*chunk=*/2),
                 std::runtime_error);
    EXPECT_EQ(hits[1].load(), 0);
}

TEST(thread_pool, inline_path_stops_at_the_throw) {
    thread_pool pool(1);
    std::vector<int> hits(10, 0);
    EXPECT_THROW(pool.parallel_for(0, 10,
                                   [&](std::size_t i) {
                                       if (i == 5) throw std::runtime_error("boom");
                                       hits[i] = 1;
                                   }),
                 std::runtime_error);
    EXPECT_EQ(hits, (std::vector<int>{1, 1, 1, 1, 1, 0, 0, 0, 0, 0}));
}

TEST(thread_pool, slots_cover_indices_in_ascending_claim_order) {
    // Width-capped chunked dispatch: every index exactly once, slot ids
    // below the cap, and each slot's claims monotonically increasing —
    // the property the per-slot best reduction of route_sabre relies on.
    thread_pool pool(8);
    constexpr std::size_t n = 5000;
    constexpr std::size_t width = 3;
    std::vector<std::vector<std::size_t>> per_slot(width);
    pool.parallel_for_slots(
        0, n, width,
        [&](std::size_t i, std::size_t slot) {
            ASSERT_LT(slot, width);
            per_slot[slot].push_back(i);  // slot-local, no synchronization needed
        },
        /*chunk=*/7);
    std::vector<char> seen(n, 0);
    for (const auto& claimed : per_slot) {
        for (std::size_t k = 0; k < claimed.size(); ++k) {
            if (k > 0) EXPECT_LT(claimed[k - 1], claimed[k]);
            ASSERT_LT(claimed[k], n);
            EXPECT_EQ(seen[claimed[k]], 0) << claimed[k];
            seen[claimed[k]] = 1;
        }
    }
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(seen[i], 1) << i;
}

TEST(thread_pool, shared_pool_supports_nested_parallel_for) {
    // The hot paths all dispatch onto one process-wide pool; a nested
    // publish from inside a running job (campaign batch -> route_sabre)
    // must complete rather than deadlock, because publishers always
    // participate in their own jobs.
    auto& pool = thread_pool::shared();
    EXPECT_GE(pool.size(), 1u);
    std::atomic<std::size_t> total{0};
    pool.parallel_for(0, 8, [&](std::size_t) {
        pool.parallel_for(0, 100, [&](std::size_t i) { total.fetch_add(i); });
    });
    EXPECT_EQ(total.load(), 8u * 4950u);
}

TEST(thread_pool, env_override_resolves_auto_size) {
    ASSERT_EQ(setenv("QUBIKOS_THREADS", "3", 1), 0);
    EXPECT_EQ(thread_pool::resolve_threads(0), 3u);
    EXPECT_EQ(thread_pool::resolve_threads(7), 7u);  // explicit beats env
    ASSERT_EQ(unsetenv("QUBIKOS_THREADS"), 0);
    EXPECT_GE(thread_pool::resolve_threads(0), 1u);
}

// --- parallel SABRE trials ---------------------------------------------------

TEST(parallel_sabre, identical_output_for_any_thread_count) {
    const auto device = arch::aspen4();
    const distance_provider dist(device.coupling);
    core::generator_options gen;
    gen.num_swaps = 6;
    gen.total_two_qubit_gates = 120;
    gen.seed = 11;
    const auto instance = core::generate(device, gen);

    // 20 trials > the 16-slot recycling block, so the reduction crosses
    // a block boundary in both the serial and parallel configurations.
    router::sabre_options serial;
    serial.trials = 20;
    serial.seed = 5;
    serial.threads = 1;
    obs::snapshot serial_stats;
    const auto serial_routed =
        router::route_sabre(instance.logical, device.coupling, dist, serial, nullptr,
                            &serial_stats);

    for (const int threads : {2, 4}) {
        router::sabre_options parallel = serial;
        parallel.threads = threads;
        obs::snapshot parallel_stats;
        const auto parallel_routed = router::route_sabre(instance.logical, device.coupling, dist,
                                                         parallel, nullptr, &parallel_stats);
        // Every trial runs in full, so the work is thread-count invariant
        // too; only the live slot count follows the threads.
        for (const auto& [name, n] : serial_stats) {
            if (name != "sabre.arena_slots") EXPECT_EQ(parallel_stats.value(name), n) << name;
        }
        EXPECT_EQ(parallel_routed.initial, serial_routed.initial) << threads;
        EXPECT_EQ(parallel_routed.physical.gates(), serial_routed.physical.gates())
            << threads;
    }
}

TEST(parallel_sabre, more_threads_than_trials) {
    const auto device = arch::grid(2, 3);
    const distance_provider dist(device.coupling);
    core::generator_options gen;
    gen.num_swaps = 2;
    gen.seed = 4;
    const auto instance = core::generate(device, gen);

    router::sabre_options one_trial;
    one_trial.trials = 1;
    one_trial.threads = 8;
    router::sabre_options serial = one_trial;
    serial.threads = 1;
    const auto a = router::route_sabre(instance.logical, device.coupling, dist, one_trial);
    const auto b = router::route_sabre(instance.logical, device.coupling, dist, serial);
    EXPECT_EQ(a.initial, b.initial);
    EXPECT_EQ(a.physical.gates(), b.physical.gates());
}

TEST(parallel_sabre, stats_report_live_arena_slots) {
    // Peak trial-result memory is O(min(threads, trials)): the engine
    // sizes its arenas to the live slots, not the trial count.
    const auto device = arch::aspen4();
    const distance_provider dist(device.coupling);
    core::generator_options gen;
    gen.num_swaps = 3;
    gen.total_two_qubit_gates = 60;
    gen.seed = 21;
    const auto instance = core::generate(device, gen);

    router::sabre_options options;
    options.trials = 3;
    options.threads = 8;  // more threads than trials: slots clamp to trials
    obs::snapshot stats;
    (void)router::route_sabre(instance.logical, device.coupling, dist, options, nullptr, &stats);
    EXPECT_EQ(stats.value("sabre.arena_slots"), 3u);
    EXPECT_EQ(stats.value("sabre.trials_run"), 3u);
    EXPECT_GT(stats.value("sabre.pass_decisions"), 0u);

    options.trials = 20;
    options.threads = 2;
    (void)router::route_sabre(instance.logical, device.coupling, dist, options, nullptr, &stats);
    EXPECT_EQ(stats.value("sabre.arena_slots"), 2u);
    EXPECT_EQ(stats.value("sabre.trials_run"), 20u);
}

TEST(parallel_sabre, rejects_negative_threads) {
    const auto device = arch::line(3);
    const distance_provider dist(device.coupling);
    core::generator_options gen;
    gen.num_swaps = 1;
    gen.seed = 1;
    const auto instance = core::generate(device, gen);
    router::sabre_options options;
    options.threads = -1;
    EXPECT_THROW((void)router::route_sabre(instance.logical, device.coupling, dist, options),
                 std::invalid_argument);
}

// --- flat distance matrix ----------------------------------------------------

TEST(flat_distance, matches_naive_bfs_on_random_graphs) {
    rng random(17);
    for (int round = 0; round < 20; ++round) {
        const int n = random.range(2, 40);
        const graph g = random_connected_graph(n, random.range(0, n), random);
        const distance_matrix dist(g);
        ASSERT_EQ(dist.num_vertices(), n);
        for (int v = 0; v < n; ++v) {
            const auto row = bfs_distances(g, {v});
            for (int u = 0; u < n; ++u) {
                ASSERT_EQ(dist(v, u), row[static_cast<std::size_t>(u)])
                    << "round " << round << " pair (" << v << "," << u << ")";
            }
        }
    }
}

TEST(flat_distance, disconnected_pairs_unreachable) {
    graph g(4);
    g.add_edge(0, 1);
    g.add_edge(2, 3);
    const distance_matrix dist(g);
    EXPECT_EQ(dist(0, 1), 1);
    EXPECT_EQ(dist(0, 2), distance_matrix::unreachable());
    EXPECT_EQ(dist(3, 1), distance_matrix::unreachable());
    EXPECT_EQ(dist.diameter(), 1);
}

}  // namespace
}  // namespace qubikos
