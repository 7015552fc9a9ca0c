// Tests for the exact QLS engines: hand-verifiable cases, witness
// validity, monotone feasibility, and randomized agreement between the
// SAT-based OLSQ encoding and the brute-force state search, on random
// and on symmetric devices (where the encoding breaks symmetry).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "arch/architectures.hpp"
#include "circuit/routed.hpp"
#include "exact/brute.hpp"
#include "core/qubikos.hpp"
#include "exact/olsq.hpp"
#include "graph/automorphism.hpp"
#include "graph/distance.hpp"
#include "graph_families.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"

namespace qubikos {
namespace {

/// cx(0,1), cx(1,2), cx(0,2) on a 3-line: the triangle interaction graph
/// cannot embed into a path, so at least one swap; one suffices.
circuit triangle_circuit() {
    circuit c(3);
    c.append(gate::cx(0, 1));
    c.append(gate::cx(1, 2));
    c.append(gate::cx(0, 2));
    return c;
}

TEST(olsq, zero_swap_when_embeddable) {
    circuit c(3);
    c.append(gate::cx(0, 1));
    c.append(gate::cx(1, 2));
    const auto result = exact::certify(c, arch::line(3).coupling, 2);
    ASSERT_TRUE(result.fewest.proven);
    EXPECT_EQ(result.fewest.swaps, 0);
    EXPECT_TRUE(validate_routed(c, result.witness, arch::line(3).coupling).valid);
}

TEST(olsq, triangle_on_line_needs_one_swap) {
    const auto result = exact::certify(triangle_circuit(), arch::line(3).coupling, 2);
    ASSERT_TRUE(result.fewest.proven);
    EXPECT_EQ(result.fewest.swaps, 1);
    const auto report =
        validate_routed(triangle_circuit(), result.witness, arch::line(3).coupling);
    EXPECT_TRUE(report.valid) << report.error;
    EXPECT_EQ(report.swap_count, 1u);
}

TEST(olsq, triangle_on_ring_is_free) {
    const auto result = exact::certify(triangle_circuit(), arch::ring(3).coupling, 1);
    ASSERT_TRUE(result.fewest.proven);
    EXPECT_EQ(result.fewest.swaps, 0);
}

TEST(olsq, feasibility_is_monotone) {
    const circuit c = triangle_circuit();
    const graph& line = arch::line(3).coupling;
    EXPECT_EQ(exact::check_swap_count(c, line, 0), exact::feasibility::infeasible);
    EXPECT_EQ(exact::check_swap_count(c, line, 1), exact::feasibility::feasible);
    EXPECT_EQ(exact::check_swap_count(c, line, 2), exact::feasibility::feasible);
    EXPECT_EQ(exact::check_swap_count(c, line, 3), exact::feasibility::feasible);
}

TEST(olsq, conflict_limit_aborts) {
    // A 9-qubit instance with a tiny conflict budget must abort cleanly.
    rng random(7);
    circuit c(9);
    for (int i = 0; i < 25; ++i) {
        const int a = random.range(0, 8);
        const int b = random.range(0, 8);
        if (a != b) c.append(gate::cx(a, b));
    }
    const auto result = exact::certify(c, arch::grid(3, 3).coupling, 6, 1);
    EXPECT_TRUE(result.aborted() || result.fewest.proven);
}

TEST(olsq, argument_validation) {
    EXPECT_THROW((void)exact::check_swap_count(circuit(3), arch::line(3).coupling, -1),
                 std::invalid_argument);
    EXPECT_THROW((void)exact::check_swap_count(circuit(5), arch::line(3).coupling, 0),
                 std::invalid_argument);
}

TEST(olsq, witness_replays_single_qubit_gates) {
    // The witness must validate against the full logical circuit,
    // including decoration gates.
    circuit c(3);
    c.append(gate::h(0));
    c.append(gate::cx(0, 1));
    c.append(gate::rz(1, 0.25));
    c.append(gate::cx(1, 2));
    c.append(gate::cx(0, 2));
    c.append(gate::h(2));
    const auto result = exact::certify(c, arch::line(3).coupling, 2);
    ASSERT_TRUE(result.fewest.proven);
    EXPECT_EQ(result.fewest.swaps, 1);
    const auto report = validate_routed(c, result.witness, arch::line(3).coupling);
    EXPECT_TRUE(report.valid) << report.error;
    EXPECT_EQ(result.witness.physical.num_single_qubit_gates(), 3u);
}

core::benchmark_instance planted_instance(const arch::architecture& device, int swaps,
                                          std::uint64_t seed) {
    core::generator_options gen;
    gen.num_swaps = swaps;
    gen.total_two_qubit_gates = 30;
    gen.seed = seed;
    return core::generate(device, gen);
}

TEST(olsq_hint, verdicts_at_k_and_below_match_the_unhinted_ones) {
    for (const char* name : {"aspen4", "grid3x3"}) {
        const auto device = arch::by_name(name);
        for (int k = 1; k <= 4; ++k) {
            const auto instance = planted_instance(device, k, 40 + static_cast<std::uint64_t>(k));
            const circuit& c = instance.logical;
            const graph& g = device.coupling;
            EXPECT_EQ(exact::check_swap_count(c, g, k), exact::feasibility::feasible);
            const exact::certificate cert = exact::certify(c, g, k, 0, &instance.answer);
            EXPECT_EQ(cert.at_k, exact::feasibility::feasible) << name << " k=" << k;
            EXPECT_EQ(cert.below, exact::feasibility::infeasible) << name << " k=" << k;
            const auto report = validate_routed(c, cert.witness, g);
            EXPECT_TRUE(report.valid) << report.error;
            EXPECT_EQ(report.swap_count, static_cast<std::size_t>(k));
            // The answer applied one swap short is a hint that cannot be
            // a model: the proof still goes through.
            EXPECT_EQ(exact::check_swap_count(c, g, k - 1), exact::feasibility::infeasible);
            EXPECT_EQ(exact::check_swap_count(c, g, k - 1, 0, &instance.answer),
                      exact::feasibility::infeasible)
                << name << " k=" << k;
        }
    }
}

/// A certify call and the obs counters it moved: `feasible` is
/// exact.feasible_conflicts (the conflicts of the solves that answered
/// sat, so SAT at k's alone when k-1 is UNSAT) and `total` is
/// sat.conflicts.
struct counted_certificate {
    exact::certificate cert;
    std::uint64_t feasible = 0;
    std::uint64_t total = 0;
};

counted_certificate counted_certify(const circuit& c, const graph& g, int k,
                                    std::uint64_t conflict_limit,
                                    const routed_circuit* hint) {
    const bool was_enabled = obs::enabled();
    obs::set_enabled(true);
    const obs::snapshot before = obs::collect();
    counted_certificate out{exact::certify(c, g, k, conflict_limit, hint)};
    const obs::snapshot after = obs::collect();
    obs::set_enabled(was_enabled);
    out.feasible =
        after.value("exact.feasible_conflicts") - before.value("exact.feasible_conflicts");
    out.total = after.value("sat.conflicts") - before.value("sat.conflicts");
    return out;
}

TEST(olsq_hint, planted_answer_is_found_without_conflicts) {
    std::uint64_t unhinted_conflicts = 0;
    for (const char* name : {"aspen4", "grid3x3"}) {
        const auto device = arch::by_name(name);
        for (int k = 1; k <= 4; ++k) {
            const auto instance = planted_instance(device, k, 70 + static_cast<std::uint64_t>(k));
            const auto plain = counted_certify(instance.logical, device.coupling, k, 0, nullptr);
            const auto hinted =
                counted_certify(instance.logical, device.coupling, k, 0, &instance.answer);
            ASSERT_TRUE(plain.cert.confirmed());
            ASSERT_TRUE(hinted.cert.confirmed()) << name << " k=" << k;
            EXPECT_EQ(hinted.feasible, 0u) << name << " k=" << k;
            unhinted_conflicts += plain.feasible;
            const auto report =
                validate_routed(instance.logical, hinted.cert.witness, device.coupling);
            EXPECT_TRUE(report.valid) << report.error;
        }
    }
    // Without the hint the same solves do search, so the zeros above
    // come from the hint.
    EXPECT_GT(unhinted_conflicts, 0u);
}

/// `answer` with every physical qubit p renamed to sigma[p].
routed_circuit relabeled(const routed_circuit& answer, const std::vector<int>& sigma) {
    routed_circuit out;
    std::vector<int> q2p = answer.initial.program_to_physical();
    for (int& p : q2p) p = sigma[static_cast<std::size_t>(p)];
    out.initial = mapping::from_program_to_physical(q2p, answer.initial.num_physical());
    out.physical = circuit(answer.physical.num_qubits());
    for (gate g : answer.physical.gates()) {
        g.q0 = sigma[static_cast<std::size_t>(g.q0)];
        if (g.is_two_qubit()) g.q1 = sigma[static_cast<std::size_t>(g.q1)];
        out.physical.append(g);
    }
    return out;
}

/// The program qubit with the most two-qubit gates, ties to the lower
/// index: the one whose block-0 position the symmetry breaking pins to
/// an orbit representative.
int busiest_qubit(const circuit& c) {
    std::vector<int> busy(static_cast<std::size_t>(c.num_qubits()), 0);
    for (const gate& g : c.gates()) {
        if (!g.is_two_qubit()) continue;
        ++busy[static_cast<std::size_t>(g.q0)];
        ++busy[static_cast<std::size_t>(g.q1)];
    }
    return static_cast<int>(std::max_element(busy.begin(), busy.end()) - busy.begin());
}

TEST(olsq_hint, relabeled_answer_is_found_without_conflicts) {
    // A device automorphism carries the planted answer to another k-swap
    // routing of the same circuit, one whose busiest qubit may start off
    // its orbit's smallest vertex. The symmetry breaking must keep every
    // such hint a model, so hinted SAT at k still spends no conflicts.
    const auto grid_rotation = [] {
        std::vector<int> sigma(9);
        for (int r = 0; r < 3; ++r) {
            for (int c = 0; c < 3; ++c) sigma[static_cast<std::size_t>(3 * r + c)] = 3 * c + 2 - r;
        }
        return sigma;
    };
    // aspen4: mirror each octagon through its bridge couplers, or swap
    // the octagons.
    std::vector<int> aspen_mirror(16), aspen_swap(16);
    for (int i = 0; i < 8; ++i) {
        aspen_mirror[static_cast<std::size_t>(i)] = (11 - i) % 8;
        aspen_mirror[static_cast<std::size_t>(8 + i)] = 8 + (11 - i) % 8;
        aspen_swap[static_cast<std::size_t>(i)] = 8 + (7 - i) % 8;
        aspen_swap[static_cast<std::size_t>(8 + i)] = (7 - i) % 8;
    }
    const struct {
        const char* device;
        std::vector<std::vector<int>> automorphisms;
    } cases[] = {
        {"aspen4", {aspen_mirror, aspen_swap}},
        {"grid3x3", {grid_rotation()}},
    };
    for (const auto& tc : cases) {
        const auto device = arch::by_name(tc.device);
        const graph& g = device.coupling;
        const distance_provider dist(g);
        const std::vector<int> orbit = automorphism_orbits(g, dist, {});
        bool moved_off_minimum = false;
        for (const std::vector<int>& sigma : tc.automorphisms) {
            for (const edge& e : g.edges()) {
                ASSERT_TRUE(g.has_edge(sigma[static_cast<std::size_t>(e.a)],
                                       sigma[static_cast<std::size_t>(e.b)]))
                    << tc.device << " relabeling is not an automorphism";
            }
            for (int k = 1; k <= 4; ++k) {
                const auto instance =
                    planted_instance(device, k, 70 + static_cast<std::uint64_t>(k));
                const routed_circuit hint = relabeled(instance.answer, sigma);
                const int start = hint.initial.physical(busiest_qubit(instance.logical));
                moved_off_minimum =
                    moved_off_minimum || orbit[static_cast<std::size_t>(start)] != start;
                const auto hinted = counted_certify(instance.logical, g, k, 0, &hint);
                ASSERT_TRUE(hinted.cert.confirmed()) << tc.device << " k=" << k;
                EXPECT_EQ(hinted.feasible, 0u) << tc.device << " k=" << k;
                const auto report = validate_routed(instance.logical, hinted.cert.witness, g);
                EXPECT_TRUE(report.valid) << report.error;
            }
        }
        EXPECT_TRUE(moved_off_minimum) << tc.device;
    }
}

TEST(olsq_hint, bad_hints_leave_the_verdict_unchanged) {
    const auto device = arch::aspen4();
    const graph& g = device.coupling;
    const int k = 3;
    const auto instance = planted_instance(device, k, 11);
    const circuit& c = instance.logical;

    // Another instance's answer, on the same device and on another one.
    const auto other = planted_instance(device, k, 12);
    const auto foreign = planted_instance(arch::by_name("grid3x3"), k, 11);
    const routed_circuit* foreign_answers[] = {&other.answer, &foreign.answer};
    for (const routed_circuit* hint : foreign_answers) {
        EXPECT_EQ(exact::check_swap_count(c, g, k, 0, hint),
                  exact::feasibility::feasible);
        EXPECT_EQ(exact::check_swap_count(c, g, k - 1, 0, hint),
                  exact::feasibility::infeasible);
    }

    // More swaps than k: a swap there and back in front of the answer
    // pushes its last two swaps past k.
    routed_circuit padded;
    padded.initial = instance.answer.initial;
    padded.physical = circuit(instance.answer.physical.num_qubits());
    const edge e = g.edges().front();
    padded.physical.append(gate::swap_gate(e.a, e.b));
    padded.physical.append(gate::swap_gate(e.a, e.b));
    padded.physical.extend(instance.answer.physical);
    ASSERT_EQ(padded.swap_count(), static_cast<std::size_t>(k + 2));
    EXPECT_EQ(exact::check_swap_count(c, g, k, 0, &padded),
              exact::feasibility::feasible);
    EXPECT_EQ(exact::check_swap_count(c, g, k - 1, 0, &padded),
              exact::feasibility::infeasible);

    // certify with the bad hints still lands on k, declared or walked to.
    const routed_circuit* hints[] = {&other.answer, &foreign.answer, &padded, &instance.answer,
                                     nullptr};
    for (const routed_circuit* hint : hints) {
        const auto result = exact::certify(c, g, k + 1, 0, hint);
        ASSERT_TRUE(result.fewest.proven);
        EXPECT_EQ(result.fewest.swaps, k);
        const exact::certificate cert = exact::certify(c, g, k, 0, hint);
        EXPECT_TRUE(cert.confirmed());
        EXPECT_EQ(cert.solver_swaps(), k);
        EXPECT_TRUE(validate_routed(c, cert.witness, g).valid);
    }
}

TEST(certify, matches_check_swap_count_and_brute_force) {
    // For every declared k from opt-1 to opt+3, the one-encoding
    // certificate must give check_swap_count's verdicts at k and k-1 on
    // separate encodings, confirm exactly the optimum, and from every
    // k >= opt walk down to it with a witness of exactly opt swaps. The
    // first circuit on each device runs hinted by an optimal routing.
    int unconfirmed = 0;
    const auto check = [&unconfirmed](const graph& coupling, const circuit& c, bool hinted) {
        const auto brute = exact::brute_force_optimal_swaps(c, coupling, {.max_swaps = 6});
        ASSERT_TRUE(brute.solved) << coupling.describe();
        const int opt = brute.optimal_swaps;
        const exact::certificate at_opt = exact::certify(c, coupling, opt);
        const routed_circuit* hint = hinted ? &at_opt.witness : nullptr;
        for (int k = std::max(0, opt - 1); k <= opt + 3; ++k) {
            const exact::certificate cert = exact::certify(c, coupling, k, 0, hint);
            EXPECT_EQ(cert.k, k);
            EXPECT_EQ(cert.at_k, exact::check_swap_count(c, coupling, k))
                << coupling.describe() << " k=" << k;
            EXPECT_EQ(cert.below, k == 0 ? exact::feasibility::infeasible
                                         : exact::check_swap_count(c, coupling, k - 1))
                << coupling.describe() << " k=" << k;
            EXPECT_EQ(cert.confirmed(), k == opt) << coupling.describe() << " k=" << k;
            EXPECT_FALSE(cert.aborted());
            EXPECT_EQ(cert.solver_swaps(), k < opt ? -1 : opt)
                << coupling.describe() << " k=" << k;
            if (k >= opt) {
                EXPECT_TRUE(cert.fewest.proven) << coupling.describe() << " k=" << k;
                EXPECT_EQ(cert.fewest.swaps, opt) << coupling.describe() << " k=" << k;
                const auto report = validate_routed(c, cert.witness, coupling);
                EXPECT_TRUE(report.valid) << report.error;
                EXPECT_EQ(report.swap_count, static_cast<std::size_t>(opt));
            }
            unconfirmed += cert.confirmed() ? 0 : 1;
        }
    };
    // The last device has an isolated vertex, whose moved variable is
    // always false. Circuits have at most as many program qubits as the
    // device has vertices on an edge, so there fewer than vertices, and
    // empty positions move.
    std::vector<graph> devices = {arch::line(4).coupling, arch::ring(5).coupling,
                                  arch::grid(2, 3).coupling, star_graph(4),
                                  graph(4, {{0, 1}, {1, 2}})};
    rng random(91);
    for (const graph& coupling : devices) {
        int movable = 0;
        for (int v = 0; v < coupling.num_vertices(); ++v) movable += coupling.degree(v) > 0;
        for (int trial = 0; trial < 4; ++trial) {
            const int n = random.range(2, movable);
            circuit c(n);
            const int gates = random.range(3, 10);
            for (int i = 0; i < gates; ++i) {
                const int a = random.range(0, n - 1);
                const int b = random.range(0, n - 1);
                if (a != b) c.append(gate::cx(a, b));
            }
            check(coupling, c, trial == 0);
        }
    }
    // Gate 0 has no successor, so no dependency keeps it out of block j:
    // each selector must forbid it there itself, or one swap (on a star,
    // two disjoint gates both need the center) would read as zero.
    circuit apart(4);
    apart.append(gate::cx(0, 1));
    apart.append(gate::cx(2, 3));
    check(star_graph(4), apart, false);
    // Some declared counts were wrong, so a certificate that confirms
    // everything would show.
    EXPECT_GT(unconfirmed, 0);
}

TEST(certify, zero_swaps_and_an_edgeless_device) {
    // k == 0: k-1 is vacuously infeasible and no second solve runs.
    const exact::certificate ring = exact::certify(triangle_circuit(), arch::ring(3).coupling, 0);
    EXPECT_TRUE(ring.confirmed());
    EXPECT_EQ(ring.solver_swaps(), 0);
    const exact::certificate line = exact::certify(triangle_circuit(), arch::line(3).coupling, 0);
    EXPECT_EQ(line.at_k, exact::feasibility::infeasible);
    EXPECT_EQ(line.below, exact::feasibility::infeasible);
    EXPECT_EQ(line.solver_swaps(), -1);

    // Without an edge no swap exists, so at most k swaps is 0 swaps: a
    // circuit of single-qubit gates routes at every k, a triangle at
    // none, and the walk's count is 0 whatever k was declared.
    const graph edgeless(3);
    circuit local(3);
    local.append(gate::h(0));
    local.append(gate::h(2));
    for (int k = 0; k <= 2; ++k) {
        const exact::certificate cert = exact::certify(local, edgeless, k);
        EXPECT_EQ(cert.at_k, exact::check_swap_count(local, edgeless, k)) << "k=" << k;
        EXPECT_EQ(cert.below, k == 0 ? exact::feasibility::infeasible
                                     : exact::check_swap_count(local, edgeless, k - 1))
            << "k=" << k;
        EXPECT_EQ(cert.confirmed(), k == 0) << "k=" << k;
        EXPECT_EQ(cert.at_k, exact::feasibility::feasible) << "k=" << k;
        EXPECT_EQ(cert.solver_swaps(), 0) << "k=" << k;
        EXPECT_TRUE(validate_routed(local, cert.witness, edgeless).valid);
    }
    const exact::certificate blocked = exact::certify(triangle_circuit(), edgeless, 1);
    EXPECT_EQ(blocked.at_k, exact::feasibility::infeasible);
    EXPECT_EQ(blocked.below, exact::feasibility::infeasible);

    EXPECT_THROW((void)exact::certify(circuit(3), arch::line(3).coupling, -1),
                 std::invalid_argument);
    EXPECT_THROW((void)exact::certify(circuit(5), arch::line(3).coupling, 0),
                 std::invalid_argument);
}

TEST(certify, walks_down_to_the_optimum_on_one_encoding) {
    // Declared two above the optimum: SAT at 5, 4 and 3, then UNSAT at 2.
    // Four solves on one encoding, which grows only by the three
    // selectors and their clauses: one per two-qubit gate each, less the
    // one that a unit learned in the earlier solves already satisfies
    // (the solver does not store it). The count is exact, so a selector
    // that leaves out a gate shows here.
    const auto device = arch::aspen4();
    const auto instance = planted_instance(device, 3, 4);
    const circuit& c = instance.logical;
    const graph& g = device.coupling;

    const bool was_enabled = obs::enabled();
    obs::set_enabled(true);
    const obs::snapshot start = obs::collect();
    EXPECT_EQ(exact::check_swap_count(c, g, 5), exact::feasibility::feasible);
    const obs::snapshot checked = obs::collect();
    const exact::certificate cert = exact::certify(c, g, 5);
    const obs::snapshot walked = obs::collect();
    obs::set_enabled(was_enabled);
    const auto delta = [](const obs::snapshot& from, const obs::snapshot& to, const char* name) {
        return to.value(name) - from.value(name);
    };

    EXPECT_EQ(cert.at_k, exact::feasibility::feasible);
    EXPECT_EQ(cert.below, exact::feasibility::feasible);
    ASSERT_TRUE(cert.fewest.proven);
    EXPECT_EQ(cert.fewest.swaps, 3);
    EXPECT_EQ(cert.solver_swaps(), 3);
    const auto report = validate_routed(c, cert.witness, g);
    EXPECT_TRUE(report.valid) << report.error;
    EXPECT_EQ(report.swap_count, 3u);

    EXPECT_EQ(delta(checked, walked, "sat.solves"), 4u);
    EXPECT_EQ(delta(checked, walked, "exact.vars"), delta(start, checked, "exact.vars") + 3);
    EXPECT_EQ(delta(checked, walked, "exact.clauses"),
              delta(start, checked, "exact.clauses") + 3 * c.num_two_qubit_gates() - 1);
    const std::uint64_t conflicts = delta(checked, walked, "sat.conflicts");
    EXPECT_LE(delta(checked, walked, "exact.feasible_conflicts"), conflicts);
    EXPECT_GT(conflicts, 0u);
}

TEST(certify, conflict_budget_applies_to_each_solve) {
    const auto device = arch::aspen4();
    core::generator_options gen;
    gen.num_swaps = 3;
    gen.total_two_qubit_gates = 40;
    gen.seed = 1000;
    const auto instance = core::generate(device, gen);
    const circuit& c = instance.logical;
    const graph& g = device.coupling;

    // One conflict cannot refute k-1, but the hinted SAT at k needs none.
    const auto hinted = counted_certify(c, g, 3, 1, &instance.answer);
    EXPECT_EQ(hinted.cert.at_k, exact::feasibility::feasible);
    EXPECT_EQ(hinted.cert.below, exact::feasibility::unknown);
    EXPECT_TRUE(hinted.cert.aborted());
    EXPECT_FALSE(hinted.cert.confirmed());
    EXPECT_EQ(hinted.cert.solver_swaps(), -1);
    EXPECT_EQ(hinted.total, 1u);

    // Unhinted, both solves search. A budget one above the costlier one
    // lets each succeed on its own. Shared by both, it would leave the
    // second solve fewer conflicts than it needs, as long as each needs
    // more than one, so each solve must get the whole budget.
    const auto free_run = counted_certify(c, g, 3, 0, nullptr);
    ASSERT_TRUE(free_run.cert.confirmed());
    const std::uint64_t at_k_conflicts = free_run.feasible;
    const std::uint64_t below_conflicts = free_run.total - at_k_conflicts;
    const std::uint64_t budget = std::max(at_k_conflicts, below_conflicts) + 1;
    ASSERT_GT(std::min(at_k_conflicts, below_conflicts), 1u);
    const auto limited = counted_certify(c, g, 3, budget, nullptr);
    EXPECT_TRUE(limited.cert.confirmed());
    EXPECT_EQ(limited.total, free_run.total);
}

TEST(brute, trivial_and_known_cases) {
    circuit empty(3);
    auto result = exact::brute_force_optimal_swaps(empty, arch::line(3).coupling);
    ASSERT_TRUE(result.solved);
    EXPECT_EQ(result.optimal_swaps, 0);

    result = exact::brute_force_optimal_swaps(triangle_circuit(), arch::line(3).coupling);
    ASSERT_TRUE(result.solved);
    EXPECT_EQ(result.optimal_swaps, 1);

    result = exact::brute_force_optimal_swaps(triangle_circuit(), arch::ring(3).coupling);
    ASSERT_TRUE(result.solved);
    EXPECT_EQ(result.optimal_swaps, 0);
}

TEST(brute, rejects_oversized_instances) {
    EXPECT_THROW(
        (void)exact::brute_force_optimal_swaps(circuit(17), arch::line(17).coupling),
        std::invalid_argument);
    circuit many(3);
    for (int i = 0; i < 70; ++i) many.append(gate::cx(i % 2, 2));
    EXPECT_THROW((void)exact::brute_force_optimal_swaps(many, arch::line(3).coupling),
                 std::invalid_argument);
}

/// Randomized agreement between the two exact engines.
class exact_agreement : public ::testing::TestWithParam<int> {};

TEST_P(exact_agreement, olsq_matches_brute_force) {
    rng random(static_cast<std::uint64_t>(GetParam()) * 31);
    for (int trial = 0; trial < 6; ++trial) {
        const int n = random.range(3, 5);
        const graph coupling = random_connected_graph(n, random.range(0, 2), random);
        circuit c(n);
        const int gates = random.range(1, 10);
        for (int i = 0; i < gates; ++i) {
            const int a = random.range(0, n - 1);
            const int b = random.range(0, n - 1);
            if (a != b) c.append(gate::cx(a, b));
        }
        const auto brute = exact::brute_force_optimal_swaps(c, coupling, {.max_swaps = 6});
        ASSERT_TRUE(brute.solved);
        const auto olsq = exact::certify(c, coupling, 6);
        ASSERT_TRUE(olsq.fewest.proven);
        EXPECT_EQ(olsq.fewest.swaps, brute.optimal_swaps) << coupling.describe();
        const auto report = validate_routed(c, olsq.witness, coupling);
        EXPECT_TRUE(report.valid) << report.error;
        EXPECT_EQ(report.swap_count, static_cast<std::size_t>(olsq.fewest.swaps));
    }
}

INSTANTIATE_TEST_SUITE_P(seeds, exact_agreement, ::testing::Range(1, 9));

/// The same agreement on devices with many automorphisms, where the
/// encoding's symmetry breaking adds the most clauses.
class exact_agreement_symmetric : public ::testing::TestWithParam<int> {};

TEST_P(exact_agreement_symmetric, olsq_matches_brute_force) {
    std::vector<graph> devices;
    for (int n = 3; n <= 6; ++n) devices.push_back(arch::line(n).coupling);
    for (int n = 4; n <= 6; ++n) devices.push_back(arch::ring(n).coupling);
    devices.push_back(arch::grid(2, 3).coupling);
    devices.push_back(star_graph(4));
    rng random(static_cast<std::uint64_t>(GetParam()) * 53);
    int total_swaps = 0;
    for (const graph& coupling : devices) {
        for (int trial = 0; trial < 2; ++trial) {
            const int n = random.range(2, coupling.num_vertices());
            circuit c(n);
            const int gates = random.range(3, 12);
            for (int i = 0; i < gates; ++i) {
                const int a = random.range(0, n - 1);
                const int b = random.range(0, n - 1);
                if (a != b) c.append(gate::cx(a, b));
            }
            const auto brute = exact::brute_force_optimal_swaps(c, coupling, {.max_swaps = 6});
            ASSERT_TRUE(brute.solved);
            const auto olsq = exact::certify(c, coupling, 6);
            ASSERT_TRUE(olsq.fewest.proven);
            EXPECT_EQ(olsq.fewest.swaps, brute.optimal_swaps) << coupling.describe();
            const auto report = validate_routed(c, olsq.witness, coupling);
            EXPECT_TRUE(report.valid) << report.error;
            EXPECT_EQ(report.swap_count, static_cast<std::size_t>(olsq.fewest.swaps));
            total_swaps += olsq.fewest.swaps;
        }
    }
    // Some UNSAT proofs ran, so a wrongly pruned mapping would show.
    EXPECT_GT(total_swaps, 0);
}

INSTANTIATE_TEST_SUITE_P(seeds, exact_agreement_symmetric, ::testing::Range(1, 9));

}  // namespace
}  // namespace qubikos
