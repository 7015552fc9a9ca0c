// qubikos-lint: hot-path — route_pass and the trial loop dominate campaign time.
#include "router/sabre.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

#include "circuit/routed.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "router/common.hpp"
#include "router/score_kernel.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace qubikos::router {

/// One slot of the layout stage: every buffer its passes touch, reused
/// across passes and trials, so steady-state trials allocate nothing,
/// and the counters of every pass it ran. The structure-of-arrays int32
/// operand buffers (one array per gate operand) are exactly the layout
/// the score kernel consumes.
struct sabre_layout::workspace {
    dag_frontier frontier;
    swap_candidates candidate_set;
    std::vector<double> decay;
    std::vector<edge> candidates;
    std::vector<int> extended;
    std::vector<char> lookahead_seen;
    std::vector<int> lookahead_queue;
    std::vector<std::int32_t> front_p0;
    std::vector<std::int32_t> front_p1;
    std::vector<std::int32_t> ext_p0;
    std::vector<std::int32_t> ext_p1;
    std::vector<double> ext_weight;
    score_scratch score;
    std::vector<double> basic_out;
    std::vector<double> lookahead_out;
    std::vector<swap_score> scores;
    std::vector<std::size_t> best_indices;
    emission_buffer emit;
    mapping current;  // the emitting pass's mapping
    std::size_t force_routes = 0;
    std::size_t decisions = 0;

    workspace(const circuit& logical, const gate_dag& dag, const graph& coupling)
        : frontier(dag), candidate_set(coupling), emit(logical, dag, coupling.num_vertices()) {}
};

namespace {

/// One routing pass over a prepared DAG. `current` is the initial
/// mapping on entry and the final mapping on return. The workspace's
/// counters accumulate the escapes taken and every swap applied.
///
/// The inner loops run on the reused workspace: per-gate physical operand
/// locations are looked up once per decision point (not once per
/// candidate x gate) into flat int32 buffers, and the score / tie-break
/// vectors keep their capacity across iterations.
void route_pass(const gate_dag& dag, const graph& coupling, const distance_provider& dist,
                const sabre_options& options, mapping& current, rng& random,
                emission_buffer* emit, const sabre_observer& observer,
                sabre_layout::workspace& ws) {
    dag_frontier& frontier = ws.frontier;
    frontier.reset(dag);
    ws.decay.assign(static_cast<std::size_t>(coupling.num_vertices()), 1.0);
    std::vector<double>& decay = ws.decay;
    int swaps_since_reset = 0;
    int swaps_since_progress = 0;
    const int escape_after = stagnation_threshold(dist);

    swap_candidates& candidate_set = ws.candidate_set;
    std::vector<edge>& candidates = ws.candidates;
    std::vector<std::int32_t>& front_p0 = ws.front_p0;
    std::vector<std::int32_t>& front_p1 = ws.front_p1;
    std::vector<std::int32_t>& ext_p0 = ws.ext_p0;
    std::vector<std::int32_t>& ext_p1 = ws.ext_p1;
    std::vector<double>& ext_weight = ws.ext_weight;
    std::vector<swap_score>& scores = ws.scores;
    std::vector<std::size_t>& best_indices = ws.best_indices;

    const auto reset_decay = [&decay, &swaps_since_reset]() {
        std::fill(decay.begin(), decay.end(), 1.0);
        swaps_since_reset = 0;
    };

    while (!frontier.done()) {
        if (frontier.execute_adjacent(current, candidate_set, emit)) {
            reset_decay();
            swaps_since_progress = 0;
        }
        if (frontier.done()) break;

        if (swaps_since_progress > escape_after) {
            ++ws.force_routes;
            ws.decisions += force_route(frontier.nearest_front_gate(current, dist), dag, coupling,
                                     dist, current, emit);
            swaps_since_progress = 0;
            reset_decay();
            continue;
        }

        // Physical operand locations, looked up once per decision point
        // and shared by every candidate's score. Structure-of-arrays
        // (one lane per operand), as the score kernel takes them. The
        // candidate swaps are the coupling edges at the front operands.
        const auto& front = frontier.front();
        front_p0.clear();
        front_p1.clear();
        for (const int node : front) {
            const gate& g = dag.node_gate(node);
            front_p0.push_back(current.physical(g.q0));
            front_p1.push_back(current.physical(g.q1));
            candidate_set.add(front_p0.back());
            candidate_set.add(front_p1.back());
        }
        candidate_set.take(candidates);
        frontier.lookahead_set(options.extended_set_size, ws.extended,
                               ws.lookahead_seen, ws.lookahead_queue);
        const std::vector<int>& extended = ws.extended;
        ext_p0.clear();
        ext_p1.clear();
        for (const int node : extended) {
            const gate& g = dag.node_gate(node);
            ext_p0.push_back(current.physical(g.q0));
            ext_p1.push_back(current.physical(g.q1));
        }

        // Extended-set position weights: uniform (null, every weight 1.0)
        // unless lookahead_decay < 1.
        score_batch batch;
        batch.ext_norm = static_cast<double>(extended.size());
        if (options.lookahead_decay < 1.0 && !extended.empty()) {
            ext_weight.resize(extended.size());
            double w = 1.0;
            batch.ext_norm = 0.0;
            for (std::size_t i = 0; i < extended.size(); ++i) {
                ext_weight[i] = w;
                batch.ext_norm += w;
                w *= options.lookahead_decay;
            }
            batch.ext_weight = ext_weight.data();
        }

        // All candidates of the decision point scored in one kernel call
        // (relative for uniform weights, else the full loop).
        batch.front_p0 = front_p0.data();
        batch.front_p1 = front_p1.data();
        batch.front_gates = front_p0.size();
        batch.ext_p0 = ext_p0.data();
        batch.ext_p1 = ext_p1.data();
        batch.ext_gates = ext_p0.size();
        batch.extended_set_weight = options.extended_set_weight;
        batch.dist = &dist;
        ws.basic_out.resize(candidates.size());
        ws.lookahead_out.resize(candidates.size());
        score_candidates(batch, candidates.data(), candidates.size(),
                         ws.basic_out.data(), ws.lookahead_out.data(), ws.score);

        scores.clear();
        scores.reserve(candidates.size());
        double best_total = std::numeric_limits<double>::infinity();
        for (std::size_t c = 0; c < candidates.size(); ++c) {
            swap_score s;
            s.candidate = candidates[c];
            s.basic = ws.basic_out[c];
            s.lookahead = ws.lookahead_out[c];
            s.decay_factor = std::max(decay[static_cast<std::size_t>(candidates[c].a)],
                                      decay[static_cast<std::size_t>(candidates[c].b)]);
            best_total = std::min(best_total, s.total());
            scores.push_back(s);
        }

        // Random tie-break among the best candidates (as Qiskit does).
        best_indices.clear();
        for (std::size_t i = 0; i < scores.size(); ++i) {
            if (scores[i].total() <= best_total + 1e-12) best_indices.push_back(i);
        }
        const std::size_t pick = best_indices[random.below(best_indices.size())];
        const edge chosen = scores[pick].candidate;

        if (observer) {
            sabre_decision d;
            d.front_nodes = front;
            d.extended_nodes = extended;
            d.scores = scores;
            d.chosen = chosen;
            d.swaps_so_far = emit != nullptr ? emit->swaps_emitted() : 0;
            observer(d);
        }

        if (emit != nullptr) emit->emit_swap(chosen.a, chosen.b);
        current.swap_physical(chosen.a, chosen.b);
        decay[static_cast<std::size_t>(chosen.a)] += options.decay_increment;
        decay[static_cast<std::size_t>(chosen.b)] += options.decay_increment;
        ++swaps_since_progress;
        if (++swaps_since_reset >= options.decay_reset_interval) reset_decay();
        ++ws.decisions;
    }
}

/// Per-slot trial state: the slot's draw buffers and running best.
/// Trials on one slot arrive in increasing index order (the pool's claim
/// cursor is monotonic), so keeping the first strictly-better result
/// reproduces the serial lowest-index tie-break; the cross-slot
/// reduction finishes the job lexicographically.
struct trial_arena {
    mapping initial;
    std::vector<int> perm;

    std::size_t best_swaps = std::numeric_limits<std::size_t>::max();
    long best_index = -1;  // trial that scored best_swaps
    mapping best_initial;
    circuit best_physical;
};

/// Runs one trial on `slot` of the layout stage and folds its result
/// into the slot's arena.
void run_trial(sabre_layout& layout, std::size_t slot, trial_arena& arena, std::size_t trial,
               const circuit& logical, const graph& coupling, std::uint64_t seed) {
    // Salted stream: tool seeds must never alias generator seeds, or
    // a trial would silently reproduce the planted optimal mapping.
    // Every pass of the trial draws from it.
    rng random((seed ^ 0x5ab3e7a1c2d9f04bULL) +
               static_cast<std::uint64_t>(trial) * 0x9e3779b97f4a7c15ULL);
    mapping::random_into(arena.initial, logical.num_qubits(), coupling.num_vertices(), random,
                         arena.perm);
    layout.refine(slot, arena.initial, random, random);
    const std::size_t swaps = layout.route(slot, arena.initial, random);
    if (swaps < arena.best_swaps) {
        arena.best_swaps = swaps;
        arena.best_index = static_cast<long>(trial);
        arena.best_initial = arena.initial;
        arena.best_physical = layout.routed(slot);
    }
}

/// Deterministic cross-slot reduction: fewest swaps wins, ties broken by
/// lowest trial index — together with the in-slot ascending-order scan
/// this is bit-identical to the serial loop for any thread count.
routed_circuit reduce_slots(std::vector<trial_arena>& arenas) {
    trial_arena* winner = nullptr;
    for (auto& arena : arenas) {
        if (arena.best_index < 0) continue;
        if (winner == nullptr || arena.best_swaps < winner->best_swaps ||
            (arena.best_swaps == winner->best_swaps && arena.best_index < winner->best_index)) {
            winner = &arena;
        }
    }
    QUBIKOS_DCHECK(winner != nullptr);  // trials >= 1, and every trial completes
    routed_circuit best;
    best.initial = std::move(winner->best_initial);
    best.physical = std::move(winner->best_physical);
    // The winning trial's initial mapping must still be a bijection —
    // a trial that corrupted its mapping would otherwise surface as a
    // silently-invalid routed circuit at report time.
    QUBIKOS_DCHECK(best.initial.is_consistent());
    return best;
}

}  // namespace

sabre_layout::sabre_layout(const circuit& logical, const graph& coupling,
                           const distance_provider& dist, const sabre_options& options,
                           std::size_t slots)
    : coupling_(coupling),
      dist_(dist),
      options_(options),
      dag_(logical),
      reverse_dag_(reversed(logical)) {
    slots_.reserve(slots);
    for (std::size_t i = 0; i < slots; ++i) slots_.emplace_back(logical, dag_, coupling);
}

sabre_layout::~sabre_layout() = default;

void sabre_layout::refine(std::size_t slot, mapping& current, rng& forward, rng& backward) {
    route_pass(dag_, coupling_, dist_, options_, current, forward, nullptr, {}, slots_[slot]);
    route_pass(reverse_dag_, coupling_, dist_, options_, current, backward, nullptr, {},
               slots_[slot]);
    // A mapping-only pass applies SWAPs in place; the result must still
    // be the same bijection up to permutation.
    QUBIKOS_DCHECK(current.is_consistent());
}

std::size_t sabre_layout::route(std::size_t slot, const mapping& initial, rng& random,
                                const sabre_observer& observer) {
    workspace& ws = slots_[slot];
    ws.emit.reset();
    ws.current = initial;
    route_pass(dag_, coupling_, dist_, options_, ws.current, random, &ws.emit, observer, ws);
    ws.emit.finish(ws.current);
    return ws.emit.swaps_emitted();
}

const circuit& sabre_layout::routed(std::size_t slot) const {
    return slots_[slot].emit.physical_circuit();
}

/// Publishes at the call boundary — never from the trial hot loop — so
/// enabling observability adds a handful of lock-free counter writes
/// per route.
void sabre_layout::report(obs::snapshot* stats, std::size_t trials_run,
                          std::size_t best_swaps) const {
    static const obs::counter_set names{"sabre.arena_slots",  "sabre.best_swaps",
                                        "sabre.force_routes", "sabre.pass_decisions",
                                        "sabre.routes",       "sabre.trials_run"};
    std::size_t force_routes = 0;
    std::size_t decisions = 0;
    for (const workspace& ws : slots_) {
        force_routes += ws.force_routes;
        decisions += ws.decisions;
    }
    if (stats != nullptr) *stats = names.zeros;
    const std::array<std::uint64_t, 6> values{slots_.size(), best_swaps, force_routes,
                                              decisions,     1,          trials_run};
    names.publish(values, stats);
}

routed_circuit route_sabre(const circuit& logical, const graph& coupling,
                           const distance_provider& dist, const sabre_options& options,
                           const mapping* initial, obs::snapshot* stats,
                           const sabre_observer& observer) {
    const obs::trace_span span("sabre.route");
    routed_circuit out;
    if (initial != nullptr) {
        // The fixed-initial mode: one routing pass from the caller's
        // mapping, no trials and no refinement.
        QUBIKOS_CHECK_MSG(initial->num_program() == logical.num_qubits() &&
                              initial->num_physical() == coupling.num_vertices(),
                          "initial mapping is " << initial->num_program() << "->"
                                                << initial->num_physical()
                                                << ", circuit/device is " << logical.num_qubits()
                                                << "/" << coupling.num_vertices());
        QUBIKOS_DCHECK(initial->is_consistent());
        sabre_layout layout(logical, coupling, dist, options);
        rng random(options.seed);
        const std::size_t swaps = layout.route(0, *initial, random, observer);
        out.initial = *initial;
        out.physical = layout.routed(0);
        layout.report(stats, /*trials_run=*/1, swaps);
    } else {
        if (options.trials < 1) throw std::invalid_argument("route_sabre: trials must be >= 1");
        if (options.threads < 0) throw std::invalid_argument("route_sabre: threads must be >= 0");
        // Trials draw from independent salted RNG streams and share only
        // the stage's read-only DAGs, so they are embarrassingly
        // parallel: each slot of the process-wide pool runs trials on
        // its own stage workspace and arena (steady state allocates
        // nothing) and keeps a running slot-local best, then a serial
        // reduction picks the winner. Peak memory is O(slots), not
        // O(trials) — at paper scale (1000 trials) holding every routed
        // circuit at once would dwarf the routing state itself.
        const std::size_t trials = static_cast<std::size_t>(options.trials);
        const std::size_t width = std::min(
            thread_pool::resolve_threads(static_cast<std::size_t>(options.threads)), trials);
        sabre_layout layout(logical, coupling, dist, options, width);
        std::vector<trial_arena> arenas(width);
        thread_pool::shared().parallel_for_slots(
            0, trials, width,
            [&](std::size_t trial, std::size_t slot) {
                run_trial(layout, slot, arenas[slot], trial, logical, coupling, options.seed);
            },
            /*chunk=*/1);
        out = reduce_slots(arenas);
        layout.report(stats, trials, out.swap_count());
    }
    // Legality before emission to the caller: every two-qubit gate on a
    // coupled pair, and the physical circuit replays the logical traces.
    QUBIKOS_DCHECK(validate_routed(logical, out, coupling).valid);
    return out;
}

}  // namespace qubikos::router
