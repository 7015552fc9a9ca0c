// qubikos-lint: hot-path — the OLSQ encoding writes every clause of a certify here.
#include "exact/olsq.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "circuit/dag.hpp"
#include "graph/automorphism.hpp"
#include "graph/distance.hpp"
#include "obs/obs.hpp"
#include "sat/encodings.hpp"
#include "sat/solver.hpp"

namespace qubikos::exact {

namespace {

using sat::lit;
using sat::neg;
using sat::pos;
using sat::var;

/// Variable bookkeeping for one (circuit, coupling, k) encoding.
struct encoding {
    int num_program;
    int num_physical;
    int num_blocks;  // k + 1
    int num_gates;
    int num_edges;

    // x[t][q][p], y[g][t], sigma[t][e] flattened.
    std::vector<var> x, y, sigma;

    [[nodiscard]] var map_var(int t, int q, int p) const {
        return x[(static_cast<std::size_t>(t) * static_cast<std::size_t>(num_program) +
                  static_cast<std::size_t>(q)) *
                     static_cast<std::size_t>(num_physical) +
                 static_cast<std::size_t>(p)];
    }
    [[nodiscard]] var gate_var(int g, int t) const {
        return y[static_cast<std::size_t>(g) * static_cast<std::size_t>(num_blocks) +
                 static_cast<std::size_t>(t)];
    }
    [[nodiscard]] var swap_var(int t, int e) const {
        return sigma[static_cast<std::size_t>(t) * static_cast<std::size_t>(num_edges) +
                     static_cast<std::size_t>(e)];
    }
};

encoding build(sat::solver& s, const circuit& c, const gate_dag& dag, const graph& coupling,
               int k) {
    encoding enc;
    enc.num_program = c.num_qubits();
    enc.num_physical = coupling.num_vertices();
    enc.num_blocks = k + 1;
    enc.num_gates = dag.num_nodes();
    enc.num_edges = coupling.num_edges();

    const auto make_vars = [&s](std::size_t count) {
        std::vector<var> out(count);
        for (auto& v : out) v = s.new_var();
        return out;
    };
    enc.x = make_vars(static_cast<std::size_t>(enc.num_blocks) *
                      static_cast<std::size_t>(enc.num_program) *
                      static_cast<std::size_t>(enc.num_physical));
    enc.y = make_vars(static_cast<std::size_t>(enc.num_gates) *
                      static_cast<std::size_t>(enc.num_blocks));
    enc.sigma = make_vars(static_cast<std::size_t>(k) * static_cast<std::size_t>(enc.num_edges));

    // The literals of one row, column or long clause, refilled each time.
    std::vector<lit> lits;

    // 1. Each program qubit sits on exactly one physical qubit per block.
    for (int t = 0; t < enc.num_blocks; ++t) {
        for (int q = 0; q < enc.num_program; ++q) {
            lits.clear();
            for (int p = 0; p < enc.num_physical; ++p) lits.push_back(pos(enc.map_var(t, q, p)));
            sat::exactly_one(s, lits);
        }
        // 2. No physical qubit hosts two program qubits.
        for (int p = 0; p < enc.num_physical; ++p) {
            lits.clear();
            for (int q = 0; q < enc.num_program; ++q) lits.push_back(pos(enc.map_var(t, q, p)));
            sat::at_most_one(s, lits);
        }
    }

    // 3. Exactly one swap per transition.
    for (int t = 0; t < k; ++t) {
        lits.clear();
        for (int e = 0; e < enc.num_edges; ++e) lits.push_back(pos(enc.swap_var(t, e)));
        sat::exactly_one(s, lits);
    }

    // 4. Transition consistency in frame-axiom form: the chosen swap
    //    exchanges its endpoints' occupants, and a physical qubit keeps
    //    its occupant unless it is moved, where moved[t][p] is equivalent
    //    to a swap on one of p's edges (docs/symmetry.md).
    std::vector<std::vector<int>> incident(static_cast<std::size_t>(enc.num_physical));
    for (int e = 0; e < enc.num_edges; ++e) {
        const edge& ends = coupling.edges()[static_cast<std::size_t>(e)];
        incident[static_cast<std::size_t>(ends.a)].push_back(e);
        incident[static_cast<std::size_t>(ends.b)].push_back(e);
    }
    for (int t = 0; t < k; ++t) {
        for (int e = 0; e < enc.num_edges; ++e) {
            const lit sw = pos(enc.swap_var(t, e));
            const int pa = coupling.edges()[static_cast<std::size_t>(e)].a;
            const int pb = coupling.edges()[static_cast<std::size_t>(e)].b;
            for (int q = 0; q < enc.num_program; ++q) {
                // x[t+1][q][pa] <-> x[t][q][pb]
                s.add_clause(~sw, neg(enc.map_var(t, q, pb)), pos(enc.map_var(t + 1, q, pa)));
                s.add_clause(~sw, pos(enc.map_var(t, q, pb)), neg(enc.map_var(t + 1, q, pa)));
                // x[t+1][q][pb] <-> x[t][q][pa]
                s.add_clause(~sw, neg(enc.map_var(t, q, pa)), pos(enc.map_var(t + 1, q, pb)));
                s.add_clause(~sw, pos(enc.map_var(t, q, pa)), neg(enc.map_var(t + 1, q, pb)));
            }
        }
        for (int p = 0; p < enc.num_physical; ++p) {
            // moved <-> OR of the swaps on p's edges (¬moved without one).
            const lit moved = pos(s.new_var());
            lits.assign(1, ~moved);
            for (const int e : incident[static_cast<std::size_t>(p)]) {
                s.add_clause(neg(enc.swap_var(t, e)), moved);
                lits.push_back(pos(enc.swap_var(t, e)));
            }
            s.add_clause(lits);
            // An unmoved physical qubit keeps its occupant.
            for (int q = 0; q < enc.num_program; ++q) {
                s.add_clause(moved, neg(enc.map_var(t, q, p)), pos(enc.map_var(t + 1, q, p)));
                s.add_clause(moved, pos(enc.map_var(t, q, p)), neg(enc.map_var(t + 1, q, p)));
            }
        }
    }

    // 5. Each gate executes in exactly one block.
    for (int g = 0; g < enc.num_gates; ++g) {
        lits.clear();
        for (int t = 0; t < enc.num_blocks; ++t) lits.push_back(pos(enc.gate_var(g, t)));
        sat::exactly_one(s, lits);
    }

    // 6. Executability: a gate's qubits must be coupling-adjacent in its
    //    block.
    for (int g = 0; g < enc.num_gates; ++g) {
        const gate& gt = dag.node_gate(g);
        for (int t = 0; t < enc.num_blocks; ++t) {
            const lit yg = pos(enc.gate_var(g, t));
            for (int p = 0; p < enc.num_physical; ++p) {
                // y[g][t] & x[t][q0][p] -> OR_{p' in N(p)} x[t][q1][p']
                lits.assign({~yg, neg(enc.map_var(t, gt.q0, p))});
                for (const int pn : coupling.neighbors(p)) {
                    lits.push_back(pos(enc.map_var(t, gt.q1, pn)));
                }
                s.add_clause(lits);
            }
        }
    }

    // 7. Dependencies: an immediate successor may not run in an earlier
    //    block than its predecessor.
    for (int g = 0; g < enc.num_gates; ++g) {
        for (const int succ : dag.succs(g)) {
            for (int t = 1; t < enc.num_blocks; ++t) {
                for (int tp = 0; tp < t; ++tp) {
                    s.add_clause(neg(enc.gate_var(g, t)), neg(enc.gate_var(succ, tp)));
                }
            }
        }
    }

    return enc;
}

/// Reconstructs a routed circuit from a SAT model that runs every gate
/// in blocks 0..k, with the swaps of transitions 0..k-1.
routed_circuit decode(const sat::solver& s, const encoding& enc, const circuit& c,
                      const gate_dag& dag, const graph& coupling, int k) {
    routed_circuit out;

    std::vector<int> q2p(static_cast<std::size_t>(enc.num_program), -1);
    for (int q = 0; q < enc.num_program; ++q) {
        for (int p = 0; p < enc.num_physical; ++p) {
            if (s.model_value(enc.map_var(0, q, p))) {
                q2p[static_cast<std::size_t>(q)] = p;
                break;
            }
        }
    }
    out.initial = mapping::from_program_to_physical(q2p, enc.num_physical);

    // Block of each gate.
    std::vector<int> block(static_cast<std::size_t>(enc.num_gates), -1);
    for (int g = 0; g < enc.num_gates; ++g) {
        for (int t = 0; t < enc.num_blocks; ++t) {
            if (s.model_value(enc.gate_var(g, t))) {
                block[static_cast<std::size_t>(g)] = t;
                break;
            }
        }
    }

    // Single-qubit gates do not constrain the encoding; replay each one in
    // the block of the next two-qubit gate on the same qubit (or block k),
    // just before that gate, preserving per-qubit order.
    std::vector<int> block_of_circuit_gate(c.size(), k);
    for (int g = 0; g < enc.num_gates; ++g) {
        block_of_circuit_gate[dag.circuit_index(g)] = block[static_cast<std::size_t>(g)];
    }
    {
        // Sweep backwards: a 1q gate inherits the block of the next gate
        // on its qubit.
        std::vector<int> next_block(static_cast<std::size_t>(c.num_qubits()), k);
        for (std::size_t i = c.size(); i-- > 0;) {
            const gate& gt = c[i];
            if (gt.is_two_qubit()) {
                next_block[static_cast<std::size_t>(gt.q0)] = block_of_circuit_gate[i];
                next_block[static_cast<std::size_t>(gt.q1)] = block_of_circuit_gate[i];
            } else {
                block_of_circuit_gate[i] = next_block[static_cast<std::size_t>(gt.q0)];
            }
        }
    }

    circuit physical(enc.num_physical);
    mapping current = out.initial;
    for (int t = 0; t <= k; ++t) {
        // Gates of block t in original circuit order (a topological order).
        for (std::size_t i = 0; i < c.size(); ++i) {
            if (block_of_circuit_gate[i] != t) continue;
            const gate& gt = c[i];
            if (gt.is_two_qubit()) {
                physical.append(
                    gate::two(gt.kind, current.physical(gt.q0), current.physical(gt.q1)));
            } else {
                physical.append(gate::single(gt.kind, current.physical(gt.q0), gt.angle));
            }
        }
        if (t < k) {
            for (int e = 0; e < enc.num_edges; ++e) {
                if (!s.model_value(enc.swap_var(t, e))) continue;
                const auto& edge = coupling.edges()[static_cast<std::size_t>(e)];
                physical.append(gate::swap_gate(edge.a, edge.b));
                current.swap_physical(edge.a, edge.b);
                break;
            }
        }
    }
    out.physical = std::move(physical);
    return out;
}

/// Stabilizer-chain nodes (orbit computations) break_symmetry may spend
/// on one encoding. aspen4 needs 5 and grid3x3 58; a chain cut
/// here is still sound.
constexpr std::size_t kSymmetryChainNodes = 64;

/// Breaks the coupling graph's automorphism symmetry on the block-0
/// mapping and returns the number of clauses added. Program qubits go
/// busiest first (two-qubit gate count, ties to the lower index). A
/// chain node fixes the positions r1..rd of the first d of them; for
/// every position p that does not represent its orbit under the
/// automorphisms fixing r1..rd, it adds
///   ¬x0[q1][r1] ∨ … ∨ ¬x0[qd][rd] ∨ ¬x0[q(d+1)][p],
/// then descends to each representative while that stabilizer is
/// nontrivial. An automorphism maps every model to a model, so the
/// chain maps any model onto one of these clauses' models and no
/// verdict changes (docs/symmetry.md). On the path of `hinted` (block-0
/// positions of a usable hint, or empty) the hint's own position
/// represents its orbit, elsewhere the smallest vertex does, so the
/// hint stays a model.
std::uint64_t break_symmetry(sat::solver& s, const encoding& enc, const gate_dag& dag,
                             const graph& coupling, const std::vector<int>& hinted) {
    std::vector<int> busy(static_cast<std::size_t>(enc.num_program), 0);
    for (int g = 0; g < enc.num_gates; ++g) {
        ++busy[static_cast<std::size_t>(dag.node_gate(g).q0)];
        ++busy[static_cast<std::size_t>(dag.node_gate(g).q1)];
    }
    std::vector<int> order(static_cast<std::size_t>(enc.num_program));
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return busy[static_cast<std::size_t>(a)] > busy[static_cast<std::size_t>(b)];
    });

    // The chain is a tree: a node fixes its parent's positions and one
    // more. Its positions are rebuilt into `fixed` when it is visited.
    struct chain_node {
        int parent;    // index in chain, -1 at the root
        int position;  // where order[depth - 1] sits, -1 at the root
        std::size_t depth;
        bool on_hint;  // every fixed position is the hint's
    };
    std::vector<chain_node> chain{{-1, -1, 0, !hinted.empty()}};
    const distance_provider dist(coupling);
    const std::vector<int> profile = distance_profiles(coupling, dist);
    std::vector<int> fixed;  // positions of order[0..depth) at the visited node
    std::vector<int> orbit;
    std::vector<lit> clause;
    std::uint64_t added = 0;
    for (std::size_t head = 0; head < chain.size() && head < kSymmetryChainNodes; ++head) {
        const chain_node node = chain[head];
        const std::size_t depth = node.depth;
        if (depth >= order.size()) continue;
        fixed.assign(depth, -1);
        for (int n = static_cast<int>(head); n > 0; n = chain[static_cast<std::size_t>(n)].parent) {
            const chain_node& up = chain[static_cast<std::size_t>(n)];
            fixed[up.depth - 1] = up.position;
        }
        const int q = order[depth];
        orbit = automorphism_orbits(coupling, dist, fixed, kAutomorphismNodeBudget, &profile);
        bool nontrivial = false;
        for (int p = 0; p < enc.num_physical; ++p) {
            nontrivial = nontrivial || orbit[static_cast<std::size_t>(p)] != p;
        }
        if (!nontrivial) continue;
        const int h = node.on_hint ? hinted[static_cast<std::size_t>(q)] : -1;
        const auto represents = [&](int p) {
            const int o = orbit[static_cast<std::size_t>(p)];
            if (h != -1 && o == orbit[static_cast<std::size_t>(h)]) return p == h;
            return o == p;
        };
        clause.clear();
        for (std::size_t i = 0; i < depth; ++i) {
            clause.push_back(neg(enc.map_var(0, order[i], fixed[i])));
        }
        for (int p = 0; p < enc.num_physical; ++p) {
            if (!represents(p)) {
                clause.push_back(neg(enc.map_var(0, q, p)));
                s.add_clause(clause);
                clause.pop_back();
                ++added;
            } else if (std::find(fixed.begin(), fixed.end(), p) == fixed.end()) {
                chain.push_back({static_cast<int>(head), p, depth + 1, p == h});
            }
        }
    }
    return added;
}

/// True when `hint` has the encoding's program and physical sizes;
/// any other hint is dropped whole.
bool hint_fits(const encoding& enc, const routed_circuit& hint) {
    return hint.initial.num_program() == enc.num_program &&
           hint.initial.num_physical() == enc.num_physical &&
           hint.physical.num_qubits() == enc.num_physical;
}

/// Steers the solver toward `hint`'s routing: its mapping in every
/// block (x), its swap in every transition (sigma) and, for each
/// two-qubit gate, the block after the swaps that precede it (y). Parts
/// that do not fit the encoding are skipped: the swaps past k and
/// everything after them are dropped, and so is a gate that is not the
/// next one on both of its program qubits. `hint` must fit (hint_fits).
void apply_hint(sat::solver& s, const encoding& enc, const gate_dag& dag, const graph& coupling,
                const routed_circuit& hint) {
    mapping current = hint.initial;
    const auto hint_block = [&](int t) {
        for (int q = 0; q < enc.num_program; ++q) {
            s.hint(pos(enc.map_var(t, q, current.physical(q))));
        }
    };

    // Each program qubit's two-qubit gates in circuit order, and how many
    // of them the hint has executed so far.
    std::vector<std::vector<int>> gates_on(static_cast<std::size_t>(enc.num_program));
    for (int g = 0; g < enc.num_gates; ++g) {
        gates_on[static_cast<std::size_t>(dag.node_gate(g).q0)].push_back(g);
        gates_on[static_cast<std::size_t>(dag.node_gate(g).q1)].push_back(g);
    }
    std::vector<std::size_t> done(static_cast<std::size_t>(enc.num_program), 0);
    const auto next_on = [&](int q) {
        const auto& list = gates_on[static_cast<std::size_t>(q)];
        const std::size_t i = done[static_cast<std::size_t>(q)];
        return i < list.size() ? list[i] : -1;
    };

    int t = 0;
    hint_block(t);
    for (const gate& g : hint.physical.gates()) {
        if (!g.is_two_qubit()) continue;
        if (g.is_swap()) {
            const auto& edges = coupling.edges();
            const auto it = std::find(edges.begin(), edges.end(), edge(g.q0, g.q1));
            if (t == enc.num_blocks - 1 || it == edges.end()) return;
            s.hint(pos(enc.swap_var(t, static_cast<int>(it - edges.begin()))));
            current.swap_physical(g.q0, g.q1);
            hint_block(++t);
            continue;
        }
        const int qa = current.program_at(g.q0);
        const int qb = current.program_at(g.q1);
        if (qa == -1 || qb == -1) continue;
        const int node = next_on(qa);
        if (node == -1 || node != next_on(qb)) continue;
        s.hint(pos(enc.gate_var(node, t)));
        ++done[static_cast<std::size_t>(qa)];
        ++done[static_cast<std::size_t>(qb)];
    }
}

/// The one OLSQ search: encodes `c` at k swaps once and solves. With
/// `walk`, each feasible model is decoded and checked with
/// validate_routed (unknown if it fails), and while the last solve was
/// feasible and j > 0, a selector that forbids every gate in block j is
/// pushed and j-1 is solved under all selectors so far, the same as at
/// most j-1 swaps (docs/symmetry.md). Learned clauses carry over; each
/// solve has its own conflict budget. Publishes the encoding's size,
/// encode and solve time and the conflicts of the solves that answered
/// sat as exact.* counters.
certificate search(const circuit& c, const graph& coupling, int k, std::uint64_t conflict_limit,
                   const routed_circuit* hint, bool walk) {
    if (k < 0) throw std::invalid_argument("check_swap_count: negative k");
    if (c.num_qubits() > coupling.num_vertices()) {
        throw std::invalid_argument("check_swap_count: more program than physical qubits");
    }
    static const obs::counter_set names{"exact.clauses", "exact.encode_ns",
                                        "exact.feasible_conflicts", "exact.solve_ns",
                                        "exact.symmetry_clauses", "exact.vars"};
    const std::uint64_t start_ns = obs::now_ns();
    // Without an edge no swap exists, so at most k swaps means none.
    const int swaps = coupling.num_edges() == 0 ? 0 : k;
    const gate_dag dag(c);
    sat::solver s;
    const encoding enc = build(s, c, dag, coupling, swaps);
    const bool hinted = hint != nullptr && hint_fits(enc, *hint);
    const std::uint64_t symmetry_clauses = break_symmetry(
        s, enc, dag, coupling, hinted ? hint->initial.program_to_physical() : std::vector<int>{});
    if (hinted) apply_hint(s, enc, dag, coupling, *hint);
    const std::uint64_t encode_ns = obs::now_ns() - start_ns;
    std::uint64_t solve_ns = 0;
    std::uint64_t feasible_conflicts = 0;
    certificate out;
    out.k = k;
    // Solves at j swaps under `assumptions`; a model that does not
    // validate with at most j swaps is unknown.
    const auto solve = [&](int j, const std::vector<lit>& assumptions) {
        const std::uint64_t spent = s.stats().conflicts;
        if (conflict_limit != 0) s.set_conflict_limit(spent + conflict_limit);
        const std::uint64_t solve_start_ns = obs::now_ns();
        const sat::status st = s.solve(assumptions);
        solve_ns += obs::now_ns() - solve_start_ns;
        if (st == sat::status::unknown) return feasibility::unknown;
        if (st == sat::status::unsat) return feasibility::infeasible;
        feasible_conflicts += s.stats().conflicts - spent;
        if (!walk) return feasibility::feasible;
        routed_circuit model = decode(s, enc, c, dag, coupling, j);
        const validation_report report = validate_routed(c, model, coupling);
        if (!report.valid || report.swap_count > static_cast<std::size_t>(j)) {
            return feasibility::unknown;
        }
        out.fewest.swaps = j;
        out.witness = std::move(model);
        return feasibility::feasible;
    };
    out.at_k = solve(swaps, {});
    // At k == 0, k-1 is vacuous; below an infeasible k it is monotone;
    // without an edge it is the same question as k.
    if (k == 0 || out.at_k == feasibility::infeasible) {
        out.below = feasibility::infeasible;
    } else if (swaps == 0) {
        out.below = out.at_k;
    }
    feasibility last = out.at_k;
    std::vector<lit> selectors;
    for (int j = swaps; walk && last == feasibility::feasible && j > 0; --j) {
        selectors.push_back(pos(s.new_var()));
        for (int g = 0; g < enc.num_gates; ++g) {
            s.add_clause(~selectors.back(), neg(enc.gate_var(g, j)));
        }
        last = solve(j - 1, selectors);
        if (j == swaps) out.below = last;
    }
    out.fewest.proven =
        out.fewest.swaps == 0 || (out.fewest.swaps > 0 && last == feasibility::infeasible);
    const std::uint64_t values[] = {s.num_clauses(),  encode_ns, feasible_conflicts, solve_ns,
                                    symmetry_clauses, static_cast<std::uint64_t>(s.num_vars())};
    names.publish(values, nullptr);
    return out;
}

}  // namespace

feasibility check_swap_count(const circuit& c, const graph& coupling, int k,
                             std::uint64_t conflict_limit, const routed_circuit* hint) {
    return search(c, coupling, k, conflict_limit, hint, false).at_k;
}

certificate certify(const circuit& c, const graph& coupling, int k, std::uint64_t conflict_limit,
                    const routed_circuit* hint) {
    return search(c, coupling, k, conflict_limit, hint, true);
}

}  // namespace qubikos::exact
