// qubikos-lint: hot-path — every A* expansion and greedy step of a qmap route runs here.
#include "router/qmap.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "circuit/dag.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "router/common.hpp"
#include "util/check.hpp"

namespace qubikos::router {

namespace {

/// One route's counters (listed at route_qmap). The destructor publishes
/// them and fills in the caller's list, set up before the route, on
/// *every* exit path, exceptions included, so an early-exiting route
/// still accounts for the work it did. Nothing it does allocates.
struct route_counters {
    const obs::counter_set& names;
    obs::snapshot* out;
    std::size_t layers = 0;
    std::size_t astar_solved_layers = 0;
    std::size_t fallback_layers = 0;
    std::size_t expanded_nodes = 0;

    ~route_counters() {
        const std::array<std::uint64_t, 5> values{astar_solved_layers, expanded_nodes,
                                                  fallback_layers, layers, 1};
        names.publish(values, out);
    }
};

using qubit_pair = std::pair<int, int>;
using pair_span = std::span<const qubit_pair>;

/// Zobrist term of program qubit q sitting on physical qubit p: the
/// splitmix64 finalizer over (q, p). A state's hash is the XOR of its
/// qubits' terms, so a swap updates it with at most four XORs.
std::uint64_t zobrist(int q, int p) {
    std::uint64_t z = ((static_cast<std::uint64_t>(q) << 32) | static_cast<std::uint32_t>(p)) +
                      0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// Distance units a gate still needs: a swap moves a pair's distance by
/// at most one, so a pair at distance d needs at least d-1 swaps.
int need(int distance) { return std::max(0, distance - 1); }
int need(const distance_provider& dist, int pa, int pb) { return need(dist(pa, pb)); }

/// Per-route search memory, reused by every layer. Each A* node is one
/// packed program->physical row in `states_` (Slot-wide entries), with
/// g, parent, the swap that produced it and its Zobrist hash in parallel
/// vectors. The visited table is open-addressed on that hash and
/// confirms every hit against the full row. Nothing is sized by
/// node_limit: every buffer grows with the nodes a layer actually
/// pushes and keeps its capacity for the next layer.
///
/// The heuristic is incremental. In an ASAP layer each program qubit is
/// in at most one pair, so a swap changes at most two of the layer's
/// pairs and two of the next layer's; a child's h costs at most four
/// distance lookups against the expanded node's per-pair needs.
template <class Slot>
class astar_workspace {
public:
    astar_workspace(int num_program, const graph& coupling)
        : coupling_(&coupling),
          num_program_(static_cast<std::size_t>(num_program)),
          cur_(num_program_),
          p2q_(static_cast<std::size_t>(coupling.num_vertices()), -1),
          pair_of_(num_program_, -1),
          next_pair_of_(num_program_, -1),
          candidate_set_(coupling) {}

    /// The swaps found by the last astar_layer/greedy_layer call.
    [[nodiscard]] const std::vector<edge>& swaps() const { return swaps_; }

    /// Whether physical qubits u and v are coupled.
    [[nodiscard]] bool adjacent(int u, int v) const { return candidate_set_.adjacent(u, v); }

    /// Makes `layer` the layer to satisfy and `next` the lookahead layer.
    void bind_layers(pair_span layer, pair_span next) {
        bind(pair_of_, layer_, layer);
        bind(next_pair_of_, next_, next);
        need_.resize(layer.size());
        next_need_.resize(next.size());
    }

    /// A* over swap sequences from `start`; on success swaps() holds the
    /// path and true is returned, false on the node cap or an exhausted
    /// open list.
    bool astar_layer(const mapping& start, const distance_provider& dist,
                     const qmap_options& options, std::size_t* expanded);

    /// Greedy fallback from `start`: best single swap by heuristic until
    /// the layer is satisfied; forced shortest-path routing breaks
    /// plateaus. Fills swaps().
    void greedy_layer(const mapping& start, const distance_provider& dist);

private:
    struct table_slot {
        int node = 0;
        std::uint32_t generation = 0;  // live iff equal to generation_
    };
    struct ranked_need {
        int need = 0;
        int pair = -1;
    };

    static void bind(std::vector<int>& pair_of, pair_span& bound, pair_span pairs) {
        for (const auto& [qa, qb] : bound) {
            pair_of[static_cast<std::size_t>(qa)] = -1;
            pair_of[static_cast<std::size_t>(qb)] = -1;
        }
        bound = pairs;
        for (std::size_t i = 0; i < pairs.size(); ++i) {
            // The incremental heuristic relies on this: ASAP levels never
            // put two gates on one qubit.
            QUBIKOS_ASSERT(pair_of[static_cast<std::size_t>(pairs[i].first)] == -1 &&
                           pair_of[static_cast<std::size_t>(pairs[i].second)] == -1);
            pair_of[static_cast<std::size_t>(pairs[i].first)] = static_cast<int>(i);
            pair_of[static_cast<std::size_t>(pairs[i].second)] = static_cast<int>(i);
        }
    }

    [[nodiscard]] const Slot* row(int node) const {
        return states_.data() + static_cast<std::size_t>(node) * num_program_;
    }
    [[nodiscard]] int pos(int q) const {
        return static_cast<int>(cur_[static_cast<std::size_t>(q)]);
    }

    /// Makes `q2p` the current state (cur_ and its inverse p2q_).
    template <class Source>
    void load(const Source* q2p) {
        for (std::size_t q = 0; q < num_program_; ++q) {
            cur_[q] = static_cast<Slot>(q2p[q]);
            p2q_[static_cast<std::size_t>(cur_[q])] = static_cast<int>(q);
        }
    }
    void unload() {
        for (const Slot p : cur_) p2q_[static_cast<std::size_t>(p)] = -1;
    }
    [[nodiscard]] std::uint64_t current_hash() const {
        std::uint64_t h = 0;
        for (std::size_t q = 0; q < num_program_; ++q) h ^= zobrist(static_cast<int>(q), cur_[q]);
        return h;
    }
    void apply_swap(int a, int b) {
        const int qa = p2q_[static_cast<std::size_t>(a)];
        const int qb = p2q_[static_cast<std::size_t>(b)];
        p2q_[static_cast<std::size_t>(a)] = qb;
        p2q_[static_cast<std::size_t>(b)] = qa;
        if (qa != -1) cur_[static_cast<std::size_t>(qa)] = static_cast<Slot>(b);
        if (qb != -1) cur_[static_cast<std::size_t>(qb)] = static_cast<Slot>(a);
    }

    /// Scores the current state against the layer: per-pair needs, their
    /// sum, the three largest, and whether every pair is adjacent (at
    /// distance 1).
    bool measure_layer(const distance_provider& dist) {
        bool satisfied = true;
        total_ = 0;
        top_ = {};
        for (std::size_t i = 0; i < layer_.size(); ++i) {
            const int d = dist(pos(layer_[i].first), pos(layer_[i].second));
            if (d != 1) satisfied = false;
            const int n = need(d);
            need_[i] = n;
            total_ += n;
            ranked_need entry{n, static_cast<int>(i)};
            for (auto& slot : top_) {
                if (entry.need > slot.need) std::swap(entry, slot);
            }
        }
        return satisfied;
    }
    [[nodiscard]] int current_h() const { return std::max(top_[0].need, (total_ + 1) / 2); }

    void measure_next(const distance_provider& dist) {
        next_total_ = 0;
        for (std::size_t i = 0; i < next_.size(); ++i) {
            next_need_[i] = need(dist, pos(next_[i].first), pos(next_[i].second));
            next_total_ += next_need_[i];
        }
    }

    /// The at most two pairs (indices, -1 = none) that a swap moving
    /// program qubits qa and qb touches.
    static std::array<int, 2> touched(const std::vector<int>& pair_of, int qa, int qb) {
        const int i1 = qa == -1 ? -1 : pair_of[static_cast<std::size_t>(qa)];
        const int i2 = qb == -1 ? -1 : pair_of[static_cast<std::size_t>(qb)];
        return {i1, i2 == i1 ? -1 : i2};
    }

    /// `total`, the sum of `needs` over `pairs`, after swapping physical
    /// a (holding qa) with b (holding qb); `worst` is raised to every
    /// changed need.
    int swapped_total(pair_span pairs, std::array<int, 2> changed, const std::vector<int>& needs,
                      int total, int qa, int qb, int a, int b, const distance_provider& dist,
                      int& worst) const {
        const auto moved = [&](int q) { return q == qa ? b : (q == qb ? a : pos(q)); };
        for (const int i : changed) {
            if (i == -1) continue;
            const auto& [x, y] = pairs[static_cast<std::size_t>(i)];
            const int n = need(dist, moved(x), moved(y));
            total += n - needs[static_cast<std::size_t>(i)];
            worst = std::max(worst, n);
        }
        return total;
    }

    /// Admissible h after swapping a and b: the max of "one swap fixes at
    /// most two distance units" and the largest single need.
    int swapped_h(int qa, int qb, int a, int b, const distance_provider& dist) const {
        const auto changed = touched(pair_of_, qa, qb);
        int worst = 0;
        const int total = swapped_total(layer_, changed, need_, total_, qa, qb, a, b, dist, worst);
        for (const auto& entry : top_) {
            if (entry.pair == -1 || (entry.pair != changed[0] && entry.pair != changed[1])) {
                worst = std::max(worst, entry.need);
                break;
            }
        }
        return std::max(worst, (total + 1) / 2);
    }

    /// The next layer's summed need after swapping a and b.
    int swapped_next_total(int qa, int qb, int a, int b, const distance_provider& dist) const {
        int worst = 0;
        return swapped_total(next_, touched(next_pair_of_, qa, qb), next_need_, next_total_, qa,
                             qb, a, b, dist, worst);
    }

    /// Candidate swaps: edges incident to an operand of an unadjacent
    /// pair, in ascending (a, b) order without duplicates.
    void collect_candidates() {
        for (const auto& [qa, qb] : layer_) {
            const int pa = pos(qa);
            const int pb = pos(qb);
            if (candidate_set_.adjacent(pa, pb)) continue;
            candidate_set_.add(pa);
            candidate_set_.add(pb);
        }
        candidate_set_.take(candidates_);
    }

    /// Forces every unadjacent pair together along shortest paths.
    void force_layer(const distance_provider& dist) {
        for (const auto& [qa, qb] : layer_) {
            int pa = pos(qa);
            const int pb = pos(qb);
            const std::int32_t* to_pb = dist.row(pb);
            while (to_pb[pa] != 1) {
                const int pn = shortest_path_step(*coupling_, to_pb, pa);
                swaps_.emplace_back(pa, pn);
                apply_swap(pa, pn);
                pa = pn;
            }
        }
    }

    void new_search() {
        states_.clear();
        g_.clear();
        parent_.clear();
        via_.clear();
        hash_.clear();
        heap_.clear();
        table_used_ = 0;
        if (++generation_ == 0) {
            std::fill(table_.begin(), table_.end(), table_slot{});
            generation_ = 1;
        }
    }

    /// Slot holding the row at arena offset `key` (hash h), or the empty
    /// slot where it belongs.
    std::size_t find_slot(std::uint64_t h, const Slot* key) const {
        const std::size_t mask = table_.size() - 1;
        for (std::size_t i = static_cast<std::size_t>(h) & mask;; i = (i + 1) & mask) {
            const table_slot& slot = table_[i];
            if (slot.generation != generation_) return i;
            if (hash_[static_cast<std::size_t>(slot.node)] == h &&
                std::equal(key, key + num_program_, row(slot.node))) {
                return i;
            }
        }
    }

    /// Keeps the table at most half full with room for one more entry.
    void reserve_slot() {
        if ((table_used_ + 1) * 2 <= table_.size()) return;
        std::vector<table_slot> old = std::move(table_);
        const std::uint32_t live = generation_;
        table_.assign(std::max<std::size_t>(1024, old.size() * 2), table_slot{});
        generation_ = 1;
        for (const table_slot& slot : old) {
            if (slot.generation != live) continue;
            table_[find_slot(hash_[static_cast<std::size_t>(slot.node)], row(slot.node))] = {
                slot.node, generation_};
        }
    }

    /// Points `slot` (from find_slot) at `node`.
    void remember(std::size_t slot, int node) {
        if (table_[slot].generation != generation_) ++table_used_;
        table_[slot] = {node, generation_};
    }

    int push_node(std::uint64_t h, int g, int parent, edge via) {
        g_.push_back(g);
        parent_.push_back(parent);
        via_.push_back(via);
        hash_.push_back(h);
        return static_cast<int>(g_.size()) - 1;
    }

    const graph* coupling_;
    std::size_t num_program_;
    pair_span layer_;
    pair_span next_;

    // Node arena.
    std::vector<Slot> states_;
    std::vector<int> g_;
    std::vector<int> parent_;
    std::vector<edge> via_;
    std::vector<std::uint64_t> hash_;
    /// Open list as a binary heap of (f, node index) under std::greater,
    /// exactly std::priority_queue's operations: node indices are
    /// unique, so the pop order is fully determined.
    std::vector<std::pair<double, int>> heap_;
    std::vector<table_slot> table_;
    std::uint32_t generation_ = 0;
    std::size_t table_used_ = 0;

    // The state being expanded (or walked by the greedy fallback).
    std::vector<Slot> cur_;
    std::vector<int> p2q_;
    std::vector<int> pair_of_;
    std::vector<int> next_pair_of_;
    std::vector<int> need_;
    std::vector<int> next_need_;
    int total_ = 0;
    int next_total_ = 0;
    std::array<ranked_need, 3> top_{};
    swap_candidates candidate_set_;
    std::vector<edge> candidates_;
    std::vector<edge> swaps_;
};

template <class Slot>
bool astar_workspace<Slot>::astar_layer(const mapping& start, const distance_provider& dist,
                                        const qmap_options& options, std::size_t* expanded) {
    new_search();
    const bool lookahead = !(next_.empty() || options.lookahead_weight <= 0.0);

    load(start.program_to_physical().data());
    const std::uint64_t root_hash = current_hash();
    states_.insert(states_.end(), cur_.begin(), cur_.end());
    reserve_slot();
    remember(find_slot(root_hash, row(0)), push_node(root_hash, 0, -1, edge{}));
    measure_layer(dist);
    heap_.emplace_back(static_cast<double>(current_h()), 0);
    unload();

    while (!heap_.empty()) {
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
        const int index = heap_.back().second;
        heap_.pop_back();
        load(row(index));
        const bool satisfied = measure_layer(dist);
        if (satisfied) {
            unload();
            swaps_.clear();
            for (int at = index; parent_[static_cast<std::size_t>(at)] != -1;
                 at = parent_[static_cast<std::size_t>(at)]) {
                swaps_.push_back(via_[static_cast<std::size_t>(at)]);
            }
            std::reverse(swaps_.begin(), swaps_.end());
            return true;
        }
        if (g_.size() > options.node_limit) {
            unload();
            return false;
        }
        ++(*expanded);
        if (lookahead) measure_next(dist);
        collect_candidates();

        const int next_g = g_[static_cast<std::size_t>(index)] + 1;
        const std::uint64_t parent_hash = hash_[static_cast<std::size_t>(index)];
        for (const edge& cand : candidates_) {
            const int qa = p2q_[static_cast<std::size_t>(cand.a)];
            const int qb = p2q_[static_cast<std::size_t>(cand.b)];
            std::uint64_t h = parent_hash;
            const std::size_t base = states_.size();
            states_.insert(states_.end(), cur_.begin(), cur_.end());
            if (qa != -1) {
                h ^= zobrist(qa, cand.a) ^ zobrist(qa, cand.b);
                states_[base + static_cast<std::size_t>(qa)] = static_cast<Slot>(cand.b);
            }
            if (qb != -1) {
                h ^= zobrist(qb, cand.b) ^ zobrist(qb, cand.a);
                states_[base + static_cast<std::size_t>(qb)] = static_cast<Slot>(cand.a);
            }
            reserve_slot();
            const std::size_t slot = find_slot(h, states_.data() + base);
            const bool known = table_[slot].generation == generation_;
            if (known && g_[static_cast<std::size_t>(table_[slot].node)] <= next_g) {
                states_.resize(base);
                continue;
            }
            double f = static_cast<double>(next_g + swapped_h(qa, qb, cand.a, cand.b, dist));
            if (lookahead) {
                const int next_total = swapped_next_total(qa, qb, cand.a, cand.b, dist);
                f += options.lookahead_weight * static_cast<double>(next_total) / 2.0;
            }
            const int node = push_node(h, next_g, index, cand);
            remember(slot, node);
            heap_.emplace_back(f, node);
            std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
        }
        unload();
    }
    return false;
}

template <class Slot>
void astar_workspace<Slot>::greedy_layer(const mapping& start, const distance_provider& dist) {
    swaps_.clear();
    load(start.program_to_physical().data());
    int stagnation = 0;
    const std::size_t hard_cap =
        16 * (static_cast<std::size_t>(dist.diameter()) + layer_.size() + 4);
    while (!measure_layer(dist)) {
        if (swaps_.size() > hard_cap) {
            // Oscillation guard: finish by force-routing every remaining
            // gate along shortest paths.
            force_layer(dist);
            break;
        }
        collect_candidates();
        int best_h = std::numeric_limits<int>::max();
        edge best;
        for (const edge& cand : candidates_) {
            const int h = swapped_h(p2q_[static_cast<std::size_t>(cand.a)],
                                    p2q_[static_cast<std::size_t>(cand.b)], cand.a, cand.b, dist);
            if (h < best_h) {
                best_h = h;
                best = cand;
            }
        }
        if (best_h >= current_h()) ++stagnation;
        // No candidate means every stranded operand sits on an isolated
        // vertex; forced routing reports that instead of swapping nothing.
        if (stagnation > 4 || candidates_.empty()) {
            force_layer(dist);
            stagnation = 0;
            continue;
        }
        swaps_.push_back(best);
        apply_swap(best.a, best.b);
    }
    unload();
}

}  // namespace

routed_circuit route_qmap(const circuit& logical, const graph& coupling,
                          const distance_provider& dist, const qmap_options& options,
                          const mapping* initial, obs::snapshot* stats) {
    const mapping start = initial != nullptr
                              ? *initial
                              : greedy_placement(logical, coupling, dist, options.placement_window);
    if (start.num_physical() != coupling.num_vertices()) {
        throw std::invalid_argument("route_qmap: initial mapping does not cover the device");
    }
    const gate_dag dag(logical);
    mapping current = start;
    emission_buffer emit(logical, dag, coupling.num_vertices());
    dag_frontier frontier(dag);
    const obs::trace_span span("qmap.route");
    static const obs::counter_set names{"qmap.astar_solved_layers", "qmap.expanded_nodes",
                                        "qmap.fallback_layers", "qmap.layers", "qmap.routes"};
    if (stats != nullptr) *stats = names.zeros;
    route_counters counters{names, stats};

    // Dependency layers (ASAP levels) and their operand pairs, built once;
    // a trailing empty layer is the last layer's lookahead. Operands are
    // range-checked here, which is mapping::physical's check hoisted:
    // every search state is a permutation of `start`.
    const auto levels = dag.asap_levels();
    const int num_layers =
        dag.num_nodes() == 0 ? 0 : *std::max_element(levels.begin(), levels.end()) + 1;
    std::vector<std::vector<int>> layers(static_cast<std::size_t>(num_layers));
    std::vector<std::vector<qubit_pair>> layer_pairs(static_cast<std::size_t>(num_layers) + 1);
    for (int node = 0; node < dag.num_nodes(); ++node) {
        const gate& g = dag.node_gate(node);
        if (std::max(g.q0, g.q1) >= start.num_program() || std::min(g.q0, g.q1) < 0) {
            throw std::out_of_range("mapping::physical: bad qubit");
        }
        const auto level = static_cast<std::size_t>(levels[static_cast<std::size_t>(node)]);
        layers[level].push_back(node);
        layer_pairs[level].emplace_back(g.q0, g.q1);
    }
    counters.layers = static_cast<std::size_t>(num_layers);

    const auto route_layers = [&](auto& workspace) {
        std::vector<int> pending;
        for (int layer = 0; layer < num_layers; ++layer) {
            // An already satisfied layer is solved by the A* root itself:
            // the goal test runs before any expansion.
            workspace.bind_layers(layer_pairs[static_cast<std::size_t>(layer)],
                                  layer_pairs[static_cast<std::size_t>(layer) + 1]);
            if (workspace.astar_layer(current, dist, options, &counters.expanded_nodes)) {
                ++counters.astar_solved_layers;
            } else {
                ++counters.fallback_layers;
                workspace.greedy_layer(current, dist);
            }

            // Replay the swap sequence, executing layer gates eagerly as
            // they become adjacent (they are dependency-independent, so
            // early execution is always valid). Any gate still stranded
            // afterwards is force-routed — this keeps the result valid
            // even when the fallback returned an incomplete sequence.
            pending = layers[static_cast<std::size_t>(layer)];
            const auto execute_adjacent = [&]() {
                for (std::size_t i = 0; i < pending.size();) {
                    const gate& g = dag.node_gate(pending[i]);
                    if (workspace.adjacent(current.physical(g.q0), current.physical(g.q1))) {
                        emit.execute_two_qubit(pending[i], current);
                        frontier.execute(pending[i]);
                        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
                    } else {
                        ++i;
                    }
                }
            };
            execute_adjacent();
            for (const auto& s : workspace.swaps()) {
                if (pending.empty()) break;
                emit.emit_swap(s.a, s.b);
                current.swap_physical(s.a, s.b);
                execute_adjacent();
            }
            while (!pending.empty()) {
                force_route(pending.front(), dag, coupling, dist, current, &emit);
                execute_adjacent();
            }
        }
    };
    // Two-byte state entries cover every device up to 65536 vertices.
    if (coupling.num_vertices() <= (1 << 16)) {
        astar_workspace<std::uint16_t> workspace(start.num_program(), coupling);
        route_layers(workspace);
    } else {
        astar_workspace<std::uint32_t> workspace(start.num_program(), coupling);
        route_layers(workspace);
    }

    emit.finish(current);

    routed_circuit out;
    out.initial = start;
    out.physical = emit.take();
    return out;
}

}  // namespace qubikos::router
