// Router tests: every tool must produce validated routings on every
// architecture; SABRE-specific behaviours (trials, fixed initial mapping,
// observer, lookahead decay) are exercised directly.
#include <gtest/gtest.h>

#include <map>

#include "arch/architectures.hpp"
#include "campaign/store.hpp"
#include "circuit/dag.hpp"
#include "circuit/qasm.hpp"
#include "core/qubikos.hpp"
#include "core/queko.hpp"
#include "obs/obs.hpp"
#include "router/common.hpp"
#include "router/mlqls.hpp"
#include "router/qmap.hpp"
#include "router/sabre.hpp"
#include "router/tket.hpp"
#include "tools/registry.hpp"
#include "util/rng.hpp"

namespace qubikos {
namespace {

/// Random circuit with both 1q and 2q gates.
circuit random_circuit(int num_qubits, int gates, std::uint64_t seed) {
    rng random(seed);
    circuit c(num_qubits);
    for (int i = 0; i < gates; ++i) {
        if (random.chance(0.2)) {
            c.append(gate::h(random.range(0, num_qubits - 1)));
            continue;
        }
        const int a = random.range(0, num_qubits - 1);
        const int b = random.range(0, num_qubits - 1);
        if (a != b) c.append(gate::cx(a, b));
    }
    return c;
}

struct router_case {
    const char* arch;
    int gates;
    std::uint64_t seed;
};

void PrintTo(const router_case& c, std::ostream* os) {
    *os << c.arch << "/" << c.gates << "g/s" << c.seed;
}

class all_routers : public ::testing::TestWithParam<router_case> {};

TEST_P(all_routers, produce_valid_routings) {
    const auto& param = GetParam();
    const auto device = arch::by_name(param.arch);
    const circuit logical = random_circuit(device.num_qubits(), param.gates, param.seed);
    const distance_provider dist(device.coupling);

    router::sabre_options sabre;
    sabre.trials = 2;
    const auto results = {
        std::pair{"sabre", router::route_sabre(logical, device.coupling, dist, sabre)},
        std::pair{"tket", router::route_tket(logical, device.coupling, dist)},
        std::pair{"qmap", router::route_qmap(logical, device.coupling, dist)},
        std::pair{"mlqls", router::route_mlqls(logical, device.coupling, dist)},
    };
    for (const auto& [name, routed] : results) {
        const auto report = validate_routed(logical, routed, device.coupling);
        EXPECT_TRUE(report.valid) << name << " on " << device.name << ": " << report.error;
    }
}

INSTANTIATE_TEST_SUITE_P(sweep, all_routers,
                         ::testing::Values(router_case{"line4", 20, 1},
                                           router_case{"line8", 40, 2},
                                           router_case{"ring7", 40, 3},
                                           router_case{"grid3x3", 60, 4},
                                           router_case{"aspen4", 80, 5},
                                           router_case{"rochester53", 120, 6},
                                           router_case{"sycamore54", 120, 7}));

TEST(sabre, executable_in_place_circuit_needs_no_swaps) {
    // A QUEKO circuit is executable under its hidden mapping; SABRE given
    // that mapping must insert zero swaps.
    const auto device = arch::grid(3, 3);
    const auto queko = core::generate_queko(device, {.depth = 10, .density = 0.6, .seed = 3});
    const distance_provider dist(device.coupling);
    const auto routed = router::route_sabre(queko.logical, device.coupling, dist, {},
                                            &queko.hidden_mapping);
    EXPECT_EQ(routed.swap_count(), 0u);
    EXPECT_TRUE(validate_routed(queko.logical, routed, device.coupling).valid);
}

TEST(sabre, more_trials_never_worse) {
    const auto device = arch::aspen4();
    core::generator_options options;
    options.num_swaps = 5;
    options.seed = 17;
    options.total_two_qubit_gates = 150;
    const auto instance = core::generate(device, options);
    const distance_provider dist(device.coupling);

    router::sabre_options one;
    one.trials = 1;
    one.seed = 5;
    router::sabre_options many = one;
    many.trials = 16;
    const auto few = router::route_sabre(instance.logical, device.coupling, dist, one);
    const auto lots = router::route_sabre(instance.logical, device.coupling, dist, many);
    EXPECT_LE(lots.swap_count(), few.swap_count());
    EXPECT_GE(lots.swap_count(), static_cast<std::size_t>(instance.optimal_swaps));
}

TEST(sabre, stats_and_observer) {
    const auto device = arch::aspen4();
    core::generator_options options;
    options.num_swaps = 3;
    options.seed = 2;
    options.total_two_qubit_gates = 80;
    const auto instance = core::generate(device, options);

    const distance_provider dist(device.coupling);
    obs::snapshot stats;
    std::size_t observed = 0;
    const auto routed = router::route_sabre(
        instance.logical, device.coupling, dist, {}, &instance.answer.initial, &stats,
        [&observed](const router::sabre_decision& d) {
            ++observed;
            EXPECT_FALSE(d.front_nodes.empty());
            EXPECT_FALSE(d.scores.empty());
            // The chosen swap must be among the scored candidates, with
            // the minimal total.
            double best = 1e18;
            double chosen_total = -1;
            for (const auto& s : d.scores) {
                best = std::min(best, s.total());
                if (s.candidate == d.chosen) chosen_total = s.total();
            }
            EXPECT_NEAR(chosen_total, best, 1e-9);
        });
    EXPECT_EQ(stats.value("sabre.best_swaps"), routed.swap_count());
    EXPECT_EQ(observed, routed.swap_count());  // one decision per emitted swap
}

TEST(sabre, lookahead_decay_produces_valid_routings) {
    const auto device = arch::sycamore54();
    core::generator_options options;
    options.num_swaps = 5;
    options.seed = 4;
    options.total_two_qubit_gates = 300;
    const auto instance = core::generate(device, options);
    const distance_provider dist(device.coupling);
    for (const double decay : {1.0, 0.8, 0.5, 0.2}) {
        router::sabre_options sabre;
        sabre.trials = 2;
        sabre.lookahead_decay = decay;
        const auto routed = router::route_sabre(instance.logical, device.coupling, dist, sabre);
        EXPECT_TRUE(validate_routed(instance.logical, routed, device.coupling).valid)
            << "decay " << decay;
    }
}

TEST(sabre, rejects_bad_trials) {
    const auto device = arch::line(2);
    const distance_provider dist(device.coupling);
    EXPECT_THROW((void)router::route_sabre(circuit(2), device.coupling, dist, {.trials = 0}),
                 std::invalid_argument);
}

TEST(qmap, stats_reflect_layers) {
    const auto device = arch::grid(3, 3);
    const distance_provider dist(device.coupling);
    core::generator_options gen;
    gen.num_swaps = 3;
    gen.total_two_qubit_gates = 40;
    gen.seed = 2;
    // A random circuit and a generated QUBIKOS instance.
    const circuit generated = core::generate(device, gen).logical;
    for (const circuit& logical : {random_circuit(9, 40, 11), generated}) {
        obs::snapshot stats;
        const auto routed =
            router::route_qmap(logical, device.coupling, dist, {}, nullptr, &stats);
        EXPECT_TRUE(validate_routed(logical, routed, device.coupling).valid);
        EXPECT_GT(stats.value("qmap.layers"), 0u);
        EXPECT_EQ(stats.value("qmap.layers"),
                  stats.value("qmap.astar_solved_layers") + stats.value("qmap.fallback_layers"));
    }
}

TEST(qmap, rejects_initial_mapping_sized_for_another_device) {
    const auto device = arch::line(6);
    const distance_provider dist(device.coupling);
    circuit logical(2);
    logical.append(gate::cx(0, 1));
    const mapping five = mapping::from_program_to_physical({0, 1}, 5);
    EXPECT_THROW((void)router::route_qmap(logical, device.coupling, dist, {}, &five),
                 std::invalid_argument);
}

// Devices above 65536 vertices take the four-byte search-state layout.
// Routing must not depend on the layout: a route on a long line matches
// the same route on a short one.
TEST(qmap, wide_state_layout_routes_like_narrow) {
    circuit logical(3);
    logical.append(gate::cx(0, 1));
    logical.append(gate::cx(1, 2));
    logical.append(gate::cx(0, 2));
    distance_options lazy;
    lazy.mode = distance_options::storage_mode::lazy;
    const auto route_on_line = [&](int n) {
        const auto device = arch::line(n);
        const distance_provider dist(device.coupling, lazy);
        const mapping initial = mapping::from_program_to_physical({0, 9, 20}, n);
        const auto routed = router::route_qmap(logical, device.coupling, dist, {}, &initial);
        EXPECT_TRUE(validate_routed(logical, routed, device.coupling).valid) << n;
        return routed.physical.gates();
    };
    const auto wide = route_on_line(70000);
    EXPECT_FALSE(wide.empty());
    EXPECT_EQ(wide, route_on_line(64));
}

TEST(routers, empty_and_single_qubit_circuits) {
    const auto device = arch::line(4);
    circuit empty(4);
    circuit only_1q(4);
    only_1q.append(gate::h(0));
    only_1q.append(gate::rz(3, 0.25));
    const distance_provider dist(device.coupling);
    for (const auto& logical : {empty, only_1q}) {
        const auto sabre = router::route_sabre(logical, device.coupling, dist, {.trials = 1});
        EXPECT_TRUE(validate_routed(logical, sabre, device.coupling).valid);
        EXPECT_EQ(sabre.swap_count(), 0u);
        const auto tket = router::route_tket(logical, device.coupling, dist);
        EXPECT_TRUE(validate_routed(logical, tket, device.coupling).valid);
        const auto qmap = router::route_qmap(logical, device.coupling, dist);
        EXPECT_TRUE(validate_routed(logical, qmap, device.coupling).valid);
        const auto mlqls = router::route_mlqls(logical, device.coupling, dist);
        EXPECT_TRUE(validate_routed(logical, mlqls, device.coupling).valid);
    }
}

// A gate whose operands sit in different components of the device can
// never become executable: every router must report it, not spin.
TEST(routers, disconnected_operands_throw) {
    const graph coupling(6, {edge(0, 1), edge(1, 2), edge(3, 4), edge(4, 5)});
    const distance_provider dist(coupling);
    circuit logical(2);
    logical.append(gate::cx(0, 1));
    const mapping initial = mapping::from_program_to_physical({0, 5}, 6);
    const auto expect_no_path = [](const char* name, const auto& route) {
        try {
            (void)route();
            ADD_FAILURE() << name << " returned a routing";
        } catch (const std::logic_error& e) {
            EXPECT_STREQ(e.what(), "force_route: no distance-decreasing neighbor") << name;
        }
    };
    // A route that throws still hands its counters to the caller and to
    // obs alike.
    const bool obs_was_enabled = obs::enabled();
    obs::set_enabled(true);
    const obs::thread_delta delta;
    obs::snapshot stats;
    expect_no_path("qmap", [&] {
        return router::route_qmap(logical, coupling, dist, {}, &initial, &stats);
    });
    const obs::snapshot published = delta.deltas();
    obs::set_enabled(obs_was_enabled);
    EXPECT_EQ(stats.value("qmap.routes"), 1u);
    EXPECT_EQ(stats.value("qmap.layers"), 1u);
    for (const auto& [name, n] : stats) EXPECT_EQ(published.value(name), n) << name;
    expect_no_path("tket",
                   [&] { return router::route_tket(logical, coupling, dist, {}, &initial); });
    expect_no_path("sabre",
                   [&] { return router::route_sabre(logical, coupling, dist, {}, &initial); });
    // The mapping-only release valve (SABRE's refinement passes, ML-QLS)
    // walks the same shortest path, so it throws too instead of spinning.
    expect_no_path("sabre_final_mapping", [&] {
        return router::sabre_final_mapping(logical, coupling, dist, initial);
    });
    router::sabre_options trials;
    trials.trials = 8;
    expect_no_path("sabre trials",
                   [&] { return router::route_sabre(logical, coupling, dist, trials); });
    expect_no_path("mlqls", [&] { return router::route_mlqls(logical, coupling, dist); });
}

TEST(router_common, dag_frontier_tracks_execution) {
    circuit c(3);
    c.append(gate::cx(0, 1));
    c.append(gate::cx(1, 2));
    c.append(gate::cx(0, 1));
    const gate_dag dag(c);
    router::dag_frontier frontier(dag);
    EXPECT_EQ(frontier.front(), std::vector<int>{0});
    EXPECT_FALSE(frontier.done());
    EXPECT_THROW(frontier.execute(1), std::logic_error);  // not in front
    frontier.execute(0);
    EXPECT_EQ(frontier.front(), std::vector<int>{1});
    frontier.execute(1);
    frontier.execute(2);
    EXPECT_TRUE(frontier.done());
    EXPECT_EQ(frontier.executed_count(), 3);
}

TEST(router_common, lookahead_set_respects_limit_and_order) {
    circuit c(4);
    c.append(gate::cx(0, 1));  // front
    c.append(gate::cx(1, 2));  // depth 1
    c.append(gate::cx(2, 3));  // depth 2
    c.append(gate::cx(0, 3));  // depth 3
    const gate_dag dag(c);
    router::dag_frontier frontier(dag);
    // Both node 1 (via q1) and node 3 (via q0) are direct successors of
    // the front node, so BFS discovery order is {1, 3}.
    const auto set2 = frontier.lookahead_set(2);
    EXPECT_EQ(set2, (std::vector<int>{1, 3}));
    EXPECT_TRUE(frontier.lookahead_set(0).empty());
    EXPECT_EQ(frontier.lookahead_set(100).size(), 3u);
}

TEST(router_common, greedy_placement_is_injective) {
    const auto device = arch::rochester53();
    const circuit logical = random_circuit(53, 200, 13);
    const distance_provider dist(device.coupling);
    const mapping m = router::greedy_placement(logical, device.coupling, dist);
    std::set<int> images;
    for (int q = 0; q < 53; ++q) images.insert(m.physical(q));
    EXPECT_EQ(images.size(), 53u);
}

TEST(router_common, force_route_makes_gate_executable) {
    const auto device = arch::line(6);
    circuit c(6);
    c.append(gate::cx(0, 5));
    const gate_dag dag(c);
    const distance_provider dist(device.coupling);
    mapping m = mapping::identity(6, 6);
    router::emission_buffer emit(c, dag, 6);
    router::force_route(0, dag, device.coupling, dist, m, emit);
    EXPECT_TRUE(device.coupling.has_edge(m.physical(0), m.physical(5)));
    EXPECT_EQ(emit.swaps_emitted(), 4u);  // distance 5 -> 4 swaps
}

// The lazy distance provider is an optimization, never an observable:
// routed output must match the dense provider at every thread count
// (concurrent trials race to materialize rows — first writer wins, all
// readers see identical values).
TEST(distance_provider_routing, lazy_matches_dense_at_1_2_4_threads) {
    const auto device = arch::rochester53();
    const circuit logical = random_circuit(device.num_qubits(), 200, 23);
    distance_options dense_opts;
    dense_opts.mode = distance_options::storage_mode::dense;
    distance_options lazy_opts;
    lazy_opts.mode = distance_options::storage_mode::lazy;
    const distance_provider dense_dist(device.coupling, dense_opts);
    for (const int threads : {1, 2, 4}) {
        router::sabre_options options;
        options.trials = 8;
        options.threads = threads;
        const distance_provider lazy_dist(device.coupling, lazy_opts);
        const auto dense_routed =
            router::route_sabre(logical, device.coupling, dense_dist, options);
        const auto lazy_routed =
            router::route_sabre(logical, device.coupling, lazy_dist, options);
        EXPECT_EQ(dense_routed.swap_count(), lazy_routed.swap_count())
            << "lazy diverged from dense at threads=" << threads;
        EXPECT_TRUE(dense_routed.physical.gates() == lazy_routed.physical.gates())
            << "lazy emitted a different circuit at threads=" << threads;
    }
}

/// FNV-1a fingerprint of a routed circuit: its initial mapping, then its
/// physical gate stream as OpenQASM.
std::string routing_digest(const routed_circuit& routed) {
    std::string text;
    for (const int p : routed.initial.program_to_physical()) text += std::to_string(p) + " ";
    return campaign::content_fingerprint(text + "\n" + qasm::write(routed.physical));
}

// Routing pinned across commits: digests of every registry tool, the
// fixed-initial mode of sabre/tket/qmap (from the generator's optimal
// mapping) and one lazy-provider route. Two call paths compared at one
// commit cannot catch a refactor that changes both the same way; these
// constants can. A legitimate routing change must re-pin them and say so.
TEST(routing_pin, digests_match_committed_constants) {
    struct instance_case {
        const char* arch;
        int swaps;
        int gates;
        std::uint64_t seed;
        bool decayed;  // also pin sabre with geometric lookahead decay
    };
    const std::vector<instance_case> cases = {{"aspen4", 3, 80, 11, true},
                                              {"aspen4", 5, 120, 12, false},
                                              {"sycamore54", 5, 200, 13, true}};
    const std::map<std::string, std::string> expected = {
        {"aspen4/11/lightsabre", "23181701c8d5cc70"},
        {"aspen4/11/mlqls", "d8c6c51045f60e45"},
        {"aspen4/11/qmap", "69b84402c583af50"},
        {"aspen4/11/qmap@initial", "134919e77a143cc2"},
        {"aspen4/11/sabre", "c51a9f20781a16da"},
        {"aspen4/11/sabre:lookahead_decay=0.8", "38c47883a77e80d9"},
        {"aspen4/11/sabre@initial", "df2bf311d124aa72"},
        {"aspen4/11/tket", "3ae2a4e4f158f729"},
        {"aspen4/11/tket@initial", "df2bf311d124aa72"},
        {"aspen4/12/lightsabre", "368d60bda9b67cce"},
        {"aspen4/12/mlqls", "148311a2beca3cdf"},
        {"aspen4/12/qmap", "e0cd271e4b0c82bd"},
        {"aspen4/12/qmap@initial", "a96062a21beaa880"},
        {"aspen4/12/sabre", "9637015e752e2570"},
        {"aspen4/12/sabre@initial", "db1318e0793acbde"},
        {"aspen4/12/tket", "0036110b5fac7bdf"},
        {"aspen4/12/tket@initial", "db1318e0793acbde"},
        {"sycamore54/13/lightsabre", "d6b4ebe7a38da1b9"},
        {"sycamore54/13/mlqls", "3003f6a401207fd1"},
        {"sycamore54/13/qmap", "1bb8f9612c9f3473"},
        {"sycamore54/13/qmap@initial", "29820e4ebbf1b4d6"},
        {"sycamore54/13/sabre", "2ab3f43102f8e993"},
        {"sycamore54/13/sabre:lookahead_decay=0.8", "8cd2b027450f9a78"},
        {"sycamore54/13/sabre@initial", "9ae4f3a3606c0a3a"},
        {"sycamore54/13/tket", "e37a858c7fc1d919"},
        {"sycamore54/13/tket@initial", "2be75fdf983d8fc6"},
        {"sycamore54/lazy/lightsabre", "f915d537159e3da2"},
        {"sycamore54/lazy/sabre", "f915d537159e3da2"},
    };

    std::map<std::string, std::string> actual;
    const auto pin = [&actual](const std::string& label, const circuit& logical,
                               const graph& coupling, const routed_circuit& routed) {
        EXPECT_TRUE(validate_routed(logical, routed, coupling).valid) << label;
        actual[label] = routing_digest(routed);
    };
    for (const auto& c : cases) {
        const auto device = arch::by_name(c.arch);
        core::generator_options options;
        options.num_swaps = c.swaps;
        options.total_two_qubit_gates = c.gates;
        options.seed = c.seed;
        const auto instance = core::generate(device, options);
        const distance_provider dist(device.coupling);
        const std::string prefix = std::string(c.arch) + "/" + std::to_string(c.seed) + "/";
        const circuit& logical = instance.logical;
        for (const auto& name : tools::registered_tool_names()) {
            pin(prefix + name, logical, device.coupling,
                tools::make_tool(name).route(logical, device.coupling, nullptr, nullptr));
        }
        // The fixed-initial mode must start from the caller's mapping,
        // whatever the pinned digests are.
        const mapping& initial = instance.answer.initial;
        const auto pin_initial = [&](const std::string& label, const routed_circuit& routed) {
            EXPECT_EQ(routed.initial.program_to_physical(), initial.program_to_physical())
                << label;
            pin(label, logical, device.coupling, routed);
        };
        pin_initial(prefix + "sabre@initial",
                    router::route_sabre(logical, device.coupling, dist, {}, &initial));
        pin_initial(prefix + "tket@initial",
                    router::route_tket(logical, device.coupling, dist, {}, &initial));
        pin_initial(prefix + "qmap@initial",
                    router::route_qmap(logical, device.coupling, dist, {}, &initial));
        // Non-uniform extended-set weights take the scorer's full loop.
        if (c.decayed) {
            const auto decayed = tools::parse_tool_spec("sabre:lookahead_decay=0.8");
            pin(prefix + decayed.canonical(), logical, device.coupling,
                tools::make_tool(decayed.name, decayed.options)
                    .route(logical, device.coupling, nullptr, nullptr));
        }
    }

    const auto device = arch::sycamore54();
    distance_options lazy_opts;
    lazy_opts.mode = distance_options::storage_mode::lazy;
    const distance_provider lazy_dist(device.coupling, lazy_opts);
    const circuit logical = random_circuit(device.num_qubits(), 150, 29);
    router::sabre_options sabre;
    sabre.trials = 4;
    pin("sycamore54/lazy/sabre", logical, device.coupling,
        router::route_sabre(logical, device.coupling, lazy_dist, sabre));
    pin("sycamore54/lazy/lightsabre", logical, device.coupling,
        tools::make_tool("lightsabre", {}, tools::make_routing_context(device.coupling, lazy_opts))
            .route(logical, device.coupling, nullptr, nullptr));

    EXPECT_EQ(actual, expected);
}

// qmap pinned at the edges of its A* search: the node cap (1 and 64,
// plus a default-budget sycamore54 route where some layers exhaust it and
// fall back to greedy), the lookahead weight (0 disables the term), the
// lazy distance provider and a fixed initial mapping. Each entry is the
// routing digest plus the exact search statistics, so a rewrite that
// reorders expansions shows up even when the swaps happen to agree.
TEST(qmap_pin, search_edges_match_committed_constants) {
    const std::map<std::string, std::string> expected = {
        {"aspen4/lazy",
         "488eeaa3f170b5ed expanded=3230 astar=45 fallback=1"},
        {"aspen4/initial",
         "851dcc60b578be19 expanded=2873 astar=46 fallback=0"},
        {"aspen4/lookahead=0",
         "59bd63ca403096ae expanded=4763 astar=45 fallback=1"},
        {"aspen4/lookahead=1.5",
         "488eeaa3f170b5ed expanded=3055 astar=45 fallback=1"},
        {"sycamore54/default",
         "4a303df880898e01 expanded=27856 astar=31 fallback=25"},
        {"sycamore54/node_limit=1",
         "37e5458de84d0cc5 expanded=53 astar=9 fallback=47"},
        {"sycamore54/node_limit=64",
         "cab30691d5f01c82 expanded=149 astar=22 fallback=34"},
    };

    std::map<std::string, std::string> actual;
    std::map<std::string, obs::snapshot> stats;
    const auto pin = [&](const std::string& label, const arch::architecture& device,
                         const circuit& logical, const distance_provider& dist,
                         const router::qmap_options& options, const mapping* initial = nullptr) {
        obs::snapshot& s = stats[label];
        const auto routed =
            router::route_qmap(logical, device.coupling, dist, options, initial, &s);
        EXPECT_TRUE(validate_routed(logical, routed, device.coupling).valid) << label;
        actual[label] = routing_digest(routed) +
                        " expanded=" + std::to_string(s.value("qmap.expanded_nodes")) +
                        " astar=" + std::to_string(s.value("qmap.astar_solved_layers")) +
                        " fallback=" + std::to_string(s.value("qmap.fallback_layers"));
    };
    const auto instance_of = [](const arch::architecture& device) {
        core::generator_options options;
        options.num_swaps = 3;
        options.total_two_qubit_gates = 80;
        options.seed = 17;
        return core::generate(device, options);
    };

    const auto aspen = arch::aspen4();
    const auto small = instance_of(aspen);
    const distance_provider aspen_dist(aspen.coupling);
    distance_options lazy_opts;
    lazy_opts.mode = distance_options::storage_mode::lazy;
    const distance_provider lazy_dist(aspen.coupling, lazy_opts);
    pin("aspen4/lazy", aspen, small.logical, lazy_dist, {});
    // The generator's optimal start needs almost no search; the identity
    // placement does.
    const mapping identity = mapping::identity(small.logical.num_qubits(), aspen.num_qubits());
    pin("aspen4/initial", aspen, small.logical, aspen_dist, {}, &identity);
    pin("aspen4/lookahead=0", aspen, small.logical, aspen_dist, {.lookahead_weight = 0.0});
    pin("aspen4/lookahead=1.5", aspen, small.logical, aspen_dist, {.lookahead_weight = 1.5});

    const auto sycamore = arch::sycamore54();
    const auto large = instance_of(sycamore);
    const distance_provider sycamore_dist(sycamore.coupling);
    pin("sycamore54/default", sycamore, large.logical, sycamore_dist, {});
    pin("sycamore54/node_limit=1", sycamore, large.logical, sycamore_dist, {.node_limit = 1});
    pin("sycamore54/node_limit=64", sycamore, large.logical, sycamore_dist, {.node_limit = 64});

    // The default-budget route must exercise both outcomes of the search.
    EXPECT_GT(stats["sycamore54/default"].value("qmap.fallback_layers"), 0u);
    EXPECT_GT(stats["sycamore54/default"].value("qmap.astar_solved_layers"), 0u);
    EXPECT_EQ(actual, expected);
}

}  // namespace
}  // namespace qubikos
