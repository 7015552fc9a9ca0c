// Score-kernel tests: with unit extended-set weights the relative path
// (base sums plus the deltas of the gates a swap touches) must equal the
// full loop bit for bit. Exact double == on purpose — SABRE breaks score
// ties exactly, so a "close" score could change a routed circuit.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "arch/architectures.hpp"
#include "graph/distance.hpp"
#include "router/score_kernel.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace qubikos {
namespace {

using pairs = std::vector<std::pair<int, int>>;

/// One decision point, laid out as route_pass builds it.
struct decision {
    std::vector<std::int32_t> front_p0, front_p1, ext_p0, ext_p1;
    std::vector<edge> candidates;
    std::vector<double> ext_weight;  // empty = uniform
    router::score_batch batch(const distance_provider& dist) const {
        router::score_batch b;
        b.front_p0 = front_p0.data();
        b.front_p1 = front_p1.data();
        b.front_gates = front_p0.size();
        b.ext_p0 = ext_p0.data();
        b.ext_p1 = ext_p1.data();
        b.ext_gates = ext_p0.size();
        b.ext_norm = static_cast<double>(ext_p0.size());
        if (!ext_weight.empty()) {
            b.ext_weight = ext_weight.data();
            b.ext_norm = 0.0;
            for (const double w : ext_weight) b.ext_norm += w;
        }
        b.dist = &dist;
        return b;
    }
};

decision make_decision(const pairs& front, const pairs& ext, std::vector<edge> candidates) {
    decision d;
    for (const auto& [a, b] : front) {
        d.front_p0.push_back(a);
        d.front_p1.push_back(b);
    }
    for (const auto& [a, b] : ext) {
        d.ext_p0.push_back(a);
        d.ext_p1.push_back(b);
    }
    d.candidates = std::move(candidates);
    return d;
}

/// Scores `d` through score_candidates and through the full loop; every
/// candidate's terms must be identical doubles, and the scratch indexes
/// must be empty again afterwards. Returns {basic, lookahead}.
std::pair<std::vector<double>, std::vector<double>> expect_matches_full(
    const decision& d, const distance_provider& dist, router::score_scratch& scratch,
    const std::string& label) {
    const router::score_batch batch = d.batch(dist);
    const std::size_t n = d.candidates.size();
    std::vector<double> basic(n), lookahead(n), basic_full(n), lookahead_full(n);
    router::score_candidates(batch, d.candidates.data(), n, basic.data(), lookahead.data(),
                             scratch);
    router::score_candidates_full(batch, d.candidates.data(), n, basic_full.data(),
                                  lookahead_full.data());
    EXPECT_EQ(basic, basic_full) << label;
    EXPECT_EQ(lookahead, lookahead_full) << label;
    for (const router::gate_end& e : scratch.front_at) EXPECT_EQ(e.other, -1) << label;
    for (const std::int32_t head : scratch.ext_head) EXPECT_EQ(head, -1) << label;
    return {basic, lookahead};
}

/// Up to n/2 qubit-disjoint front gates, up to 40 extended gates on any
/// distinct pairs (so they share qubits with each other and with the
/// front), and every coupling edge as a candidate.
decision random_decision(const graph& coupling, rng& random) {
    const int n = coupling.num_vertices();
    const std::vector<int> perm = random.permutation(n);
    pairs front;
    pairs ext;
    for (int i = random.range(1, n / 2) - 1; i >= 0; --i) {
        front.emplace_back(perm[static_cast<std::size_t>(2 * i)],
                           perm[static_cast<std::size_t>(2 * i + 1)]);
    }
    for (int i = random.range(0, 40); i > 0; --i) {
        const int a = random.range(0, n - 1);
        const int b = random.range(0, n - 2);
        ext.emplace_back(a, b >= a ? b + 1 : b);
    }
    return make_decision(front, ext, coupling.edges());
}

TEST(score_kernel, relative_matches_full_on_random_decisions) {
    for (const auto& device : {arch::sycamore54(), arch::aspen4()}) {
        for (const auto mode :
             {distance_options::storage_mode::dense, distance_options::storage_mode::lazy}) {
            distance_options options;
            options.mode = mode;
            const distance_provider dist(device.coupling, options);
            // One scratch across every decision, as in a routing pass:
            // a stale index entry from an earlier decision would show.
            router::score_scratch scratch;
            rng random(41);
            for (int trial = 0; trial < 200; ++trial) {
                expect_matches_full(random_decision(device.coupling, random), dist, scratch,
                                    device.name + (dist.is_lazy() ? "/lazy/" : "/dense/") +
                                        std::to_string(trial));
            }
        }
    }
}

TEST(score_kernel, relative_matches_full_on_shared_qubits_and_small_layers) {
    // line(6): 0 - 1 - 2 - 3 - 4 - 5, every edge a candidate.
    const auto device = arch::line(6);
    const distance_provider dist(device.coupling);
    router::score_scratch scratch;
    const struct {
        const char* label;
        pairs front;
        pairs ext;
    } cases[] = {
        {"one front gate on both pa and pb", {{2, 3}, {0, 5}}, {{3, 2}}},
        {"front gates on pa and on pb", {{0, 2}, {3, 5}}, {{2, 4}}},
        {"extended gates sharing qubits with each other and the front",
         {{1, 3}, {0, 4}},
         {{2, 3}, {3, 2}, {3, 0}, {2, 5}, {1, 3}, {4, 2}}},
        {"empty extended set", {{0, 3}, {1, 5}}, {}},
        {"one front gate", {{0, 3}}, {{4, 5}}},
    };
    for (const auto& c : cases) {
        expect_matches_full(make_decision(c.front, c.ext, device.coupling.edges()), dist, scratch,
                            c.label);
    }
    // Anchored by hand: swap (2,3) turns front (2,3),(0,5) into distances
    // 1 + 5 and the extended gate (3,2) into distance 1.
    const decision d = make_decision({{2, 3}, {0, 5}}, {{3, 2}}, {edge(2, 3)});
    const auto [basic, lookahead] = expect_matches_full(d, dist, scratch, "hand-computed");
    EXPECT_EQ(basic[0], 3.0);
    EXPECT_EQ(lookahead[0], 0.5);
}

TEST(score_kernel, weighted_extended_set_takes_the_full_loop) {
    const auto device = arch::sycamore54();
    const distance_provider dist(device.coupling);
    router::score_scratch scratch;
    rng random(5);
    decision d = random_decision(device.coupling, random);
    double w = 1.0;
    for (std::size_t i = 0; i < d.ext_p0.size(); ++i, w *= 0.8) d.ext_weight.push_back(w);
    expect_matches_full(d, dist, scratch, "lookahead_decay=0.8");
}

TEST(score_kernel, front_gates_sharing_a_qubit_trip_the_dcheck) {
    if (!dchecks_enabled) GTEST_SKIP() << "QUBIKOS_DCHECK is compiled out";
    const auto device = arch::line(6);
    const distance_provider dist(device.coupling);
    router::score_scratch scratch;
    const decision d = make_decision({{0, 2}, {2, 4}}, {}, device.coupling.edges());
    const router::score_batch batch = d.batch(dist);
    std::vector<double> basic(d.candidates.size());
    std::vector<double> lookahead(d.candidates.size());
    EXPECT_DEATH(router::score_candidates(batch, d.candidates.data(), d.candidates.size(),
                                          basic.data(), lookahead.data(), scratch),
                 "contract violated");
}

}  // namespace
}  // namespace qubikos
