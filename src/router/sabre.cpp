// qubikos-lint: hot-path — route_pass and the trial loop dominate campaign time.
#include "router/sabre.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

#include "circuit/dag.hpp"
#include "circuit/routed.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "router/common.hpp"
#include "router/score_kernel.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace qubikos::router {

namespace {

/// Publishes one route's counters (listed at route_sabre) and hands them
/// to the caller. Called once per route at the call boundary — never
/// from the trial hot loop — so enabling observability adds a handful
/// of lock-free counter writes per route.
void report_route(obs::snapshot* stats, std::size_t trials_run, std::size_t pass_decisions,
                  std::size_t force_routes, std::size_t best_swaps, std::size_t arena_slots) {
    static const obs::counter_set names{"sabre.arena_slots",  "sabre.best_swaps",
                                        "sabre.force_routes", "sabre.pass_decisions",
                                        "sabre.routes",       "sabre.trials_run"};
    if (stats != nullptr) *stats = names.zeros;
    const std::array<std::uint64_t, 6> values{arena_slots,    best_swaps, force_routes,
                                              pass_decisions, 1,          trials_run};
    names.publish(values, stats);
}

/// Every buffer one routing pass touches, bundled for reuse: a trial
/// arena holds one of these and resets it per pass, so steady-state
/// trials allocate nothing. The structure-of-arrays int32 operand
/// buffers (one array per gate operand) are exactly the layout the
/// score kernel consumes.
struct pass_scratch {
    dag_frontier frontier;
    std::vector<double> decay;
    std::vector<int> executable;
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

    explicit pass_scratch(const gate_dag& dag) : frontier(dag) {}
};

/// One routing pass over a prepared DAG. `current` is the initial
/// mapping on entry and the final mapping on return. `decisions`
/// accumulates every swap applied, across calls.
///
/// The inner loops run on the reused scratch: the executable drain
/// collects into one vector instead of copying the front layer per
/// sweep, per-gate physical operand locations are looked up once per
/// decision point (not once per candidate x gate) into flat int32
/// buffers, and the score / tie-break vectors keep their capacity across
/// iterations.
void route_pass(const gate_dag& dag, const graph& coupling, const distance_provider& dist,
                mapping& current, const sabre_options& options, rng& random,
                emission_buffer* emit, const sabre_observer& observer,
                std::size_t* force_route_count, pass_scratch& scratch,
                std::size_t& decisions) {
    dag_frontier& frontier = scratch.frontier;
    frontier.reset(dag);
    scratch.decay.assign(static_cast<std::size_t>(coupling.num_vertices()), 1.0);
    std::vector<double>& decay = scratch.decay;
    int swaps_since_reset = 0;
    int swaps_since_progress = 0;
    const int release_threshold =
        options.release_valve > 0 ? options.release_valve : 3 * dist.diameter() + 20;

    std::vector<int>& executable = scratch.executable;
    std::vector<edge>& candidates = scratch.candidates;
    std::vector<std::int32_t>& front_p0 = scratch.front_p0;
    std::vector<std::int32_t>& front_p1 = scratch.front_p1;
    std::vector<std::int32_t>& ext_p0 = scratch.ext_p0;
    std::vector<std::int32_t>& ext_p1 = scratch.ext_p1;
    std::vector<double>& ext_weight = scratch.ext_weight;
    std::vector<swap_score>& scores = scratch.scores;
    std::vector<std::size_t>& best_indices = scratch.best_indices;

    const auto reset_decay = [&decay, &swaps_since_reset]() {
        std::fill(decay.begin(), decay.end(), 1.0);
        swaps_since_reset = 0;
    };

    while (!frontier.done()) {
        // Execute everything executable. The mapping is fixed during a
        // sweep, so collecting first and executing second sees exactly
        // the nodes a front-layer snapshot would.
        bool executed_any = true;
        bool progressed = false;
        while (executed_any) {
            executed_any = false;
            executable.clear();
            for (const int node : frontier.front()) {
                const gate& g = dag.node_gate(node);
                if (coupling.has_edge(current.physical(g.q0), current.physical(g.q1))) {
                    executable.push_back(node);
                }
            }
            for (const int node : executable) {
                if (emit != nullptr) emit->execute_two_qubit(node, current);
                frontier.execute(node);
                executed_any = true;
                progressed = true;
            }
        }
        if (progressed) {
            reset_decay();
            swaps_since_progress = 0;
        }
        if (frontier.done()) break;

        // Release valve: guarantee progress on adversarial instances.
        if (swaps_since_progress > release_threshold) {
            if (force_route_count != nullptr) ++(*force_route_count);
            int best_node = frontier.front().front();
            int best_distance = std::numeric_limits<int>::max();
            for (const int node : frontier.front()) {
                const gate& g = dag.node_gate(node);
                const int d = dist(current.physical(g.q0), current.physical(g.q1));
                if (d < best_distance) {
                    best_distance = d;
                    best_node = node;
                }
            }
            if (emit != nullptr) {
                const std::size_t before = emit->swaps_emitted();
                force_route(best_node, dag, coupling, dist, current, *emit);
                decisions += emit->swaps_emitted() - before;
            } else {
                // Mapping-only pass: the same shortest-path walk as
                // force_route, applied without emission.
                const gate& g = dag.node_gate(best_node);
                int pa = current.physical(g.q0);
                const int pb = current.physical(g.q1);
                const std::int32_t* to_pb = dist.row(pb);
                while (!coupling.has_edge(pa, pb)) {
                    const int pn = shortest_path_step(coupling, to_pb, pa);
                    current.swap_physical(pa, pn);
                    pa = pn;
                    ++decisions;
                }
            }
            swaps_since_progress = 0;
            reset_decay();
            continue;
        }

        // Score candidate swaps.
        candidate_swaps(frontier.front(), dag, coupling, current, candidates);
        frontier.lookahead_set(options.extended_set_size, scratch.extended,
                               scratch.lookahead_seen, scratch.lookahead_queue);
        const std::vector<int>& extended = scratch.extended;
        const auto& front = frontier.front();

        // Physical operand locations, looked up once per decision point
        // and shared by every candidate's score. Structure-of-arrays
        // (one lane per operand), as the score kernel takes them.
        front_p0.clear();
        front_p1.clear();
        for (const int node : front) {
            const gate& g = dag.node_gate(node);
            front_p0.push_back(current.physical(g.q0));
            front_p1.push_back(current.physical(g.q1));
        }
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
        scratch.basic_out.resize(candidates.size());
        scratch.lookahead_out.resize(candidates.size());
        score_candidates(batch, candidates.data(), candidates.size(),
                         scratch.basic_out.data(), scratch.lookahead_out.data(), scratch.score);

        scores.clear();
        scores.reserve(candidates.size());
        double best_total = std::numeric_limits<double>::infinity();
        for (std::size_t c = 0; c < candidates.size(); ++c) {
            swap_score s;
            s.candidate = candidates[c];
            s.basic = scratch.basic_out[c];
            s.lookahead = scratch.lookahead_out[c];
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
        ++decisions;
    }
}

/// Reverses a circuit's gate order (dependency structure mirrored); used
/// by the bidirectional initial-mapping refinement.
circuit reversed(const circuit& c) {
    circuit out(c.num_qubits());
    for (std::size_t i = c.size(); i > 0; --i) out.append(c[i - 1]);
    return out;
}

/// Per-slot trial arena: all pass scratch plus the slot's running
/// reduction state. Trials on one slot arrive in increasing index order
/// (the pool's claim cursor is monotonic), so keeping the first
/// strictly-better result reproduces the serial lowest-index tie-break;
/// the cross-slot reduction finishes the job lexicographically.
struct trial_arena {
    pass_scratch scratch;
    emission_buffer emit;
    mapping initial;
    mapping current;
    std::vector<int> perm;

    std::size_t best_swaps = std::numeric_limits<std::size_t>::max();
    long best_index = -1;  // trial that scored best_swaps
    mapping best_initial;
    circuit best_physical;
    std::size_t force_routes = 0;
    std::size_t decisions = 0;

    trial_arena(const circuit& logical, const gate_dag& dag, int num_physical)
        : scratch(dag), emit(logical, dag, num_physical) {}
};

/// Shared fixtures of one route_sabre call.
struct trial_context {
    const circuit& logical;
    const graph& coupling;
    const distance_provider& dist;
    const gate_dag& dag;
    const gate_dag& reverse_dag;
    const sabre_options& options;
};

/// Runs one trial in `arena` and folds its result into the slot state.
void run_trial(const trial_context& ctx, trial_arena& arena, std::size_t trial) {
    // Salted stream: tool seeds must never alias generator seeds, or
    // a trial would silently reproduce the planted optimal mapping.
    rng random((ctx.options.seed ^ 0x5ab3e7a1c2d9f04bULL) +
               static_cast<std::uint64_t>(trial) * 0x9e3779b97f4a7c15ULL);
    mapping::random_into(arena.initial, ctx.logical.num_qubits(),
                         ctx.coupling.num_vertices(), random, arena.perm);

    if (ctx.options.bidirectional) {
        // Forward then backward mapping-only passes refine the initial
        // mapping (SABRE's bidirectional trick).
        arena.current = arena.initial;
        route_pass(ctx.dag, ctx.coupling, ctx.dist, arena.current, ctx.options, random, nullptr,
                   {}, nullptr, arena.scratch, arena.decisions);
        route_pass(ctx.reverse_dag, ctx.coupling, ctx.dist, arena.current, ctx.options, random,
                   nullptr, {}, nullptr, arena.scratch, arena.decisions);
        arena.initial = arena.current;
    }

    arena.emit.reset();
    arena.current = arena.initial;
    route_pass(ctx.dag, ctx.coupling, ctx.dist, arena.current, ctx.options, random, &arena.emit,
               {}, &arena.force_routes, arena.scratch, arena.decisions);
    arena.emit.finish(arena.current);

    const std::size_t swaps = arena.emit.swaps_emitted();
    if (swaps < arena.best_swaps) {
        arena.best_swaps = swaps;
        arena.best_index = static_cast<long>(trial);
        arena.best_initial = arena.initial;
        arena.best_physical = arena.emit.physical_circuit();
    }
}

/// Deterministic cross-slot reduction: fewest swaps wins, ties broken by
/// lowest trial index — together with the in-slot ascending-order scan
/// this is bit-identical to the serial loop for any thread count.
routed_circuit reduce_slots(std::vector<trial_arena>& arenas, std::size_t trials,
                            obs::snapshot* stats) {
    trial_arena* winner = nullptr;
    std::size_t total_force_routes = 0;
    std::size_t total_decisions = 0;
    for (auto& arena : arenas) {
        total_force_routes += arena.force_routes;
        total_decisions += arena.decisions;
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
    report_route(stats, trials, total_decisions, total_force_routes, winner->best_swaps,
                 arenas.size());
    return best;
}

void validate_options(const sabre_options& options) {
    if (options.trials < 1) throw std::invalid_argument("route_sabre: trials must be >= 1");
    if (options.threads < 0) throw std::invalid_argument("route_sabre: threads must be >= 0");
}

/// The fixed-initial mode of route_sabre: one routing pass from the
/// caller's mapping, no trials and no refinement.
routed_circuit route_from_initial(const circuit& logical, const graph& coupling,
                                  const distance_provider& dist, const mapping& initial,
                                  const sabre_options& options, obs::snapshot* stats,
                                  const sabre_observer& observer) {
    const obs::trace_span span("sabre.route");
    QUBIKOS_CHECK_MSG(initial.num_program() == logical.num_qubits() &&
                          initial.num_physical() == coupling.num_vertices(),
                      "initial mapping is " << initial.num_program() << "->"
                                            << initial.num_physical() << ", circuit/device is "
                                            << logical.num_qubits() << "/"
                                            << coupling.num_vertices());
    QUBIKOS_DCHECK(initial.is_consistent());
    const gate_dag dag(logical);
    rng random(options.seed);

    pass_scratch scratch(dag);
    emission_buffer emit(logical, dag, coupling.num_vertices());
    std::size_t force_routes = 0;
    std::size_t decisions = 0;
    mapping final_mapping = initial;
    route_pass(dag, coupling, dist, final_mapping, options, random, &emit, observer,
               &force_routes, scratch, decisions);
    emit.finish(final_mapping);

    routed_circuit out;
    out.initial = initial;
    out.physical = emit.take();
    // Legality before emission to the caller: every two-qubit gate on a
    // coupled pair, and the physical circuit replays the logical traces.
    QUBIKOS_DCHECK(validate_routed(logical, out, coupling).valid);
    report_route(stats, /*trials_run=*/1, decisions, force_routes, out.swap_count(),
                 /*arena_slots=*/1);
    return out;
}

}  // namespace

mapping sabre_final_mapping(const circuit& logical, const graph& coupling,
                            const distance_provider& dist, const mapping& initial,
                            const sabre_options& options) {
    const gate_dag dag(logical);
    rng random(options.seed);
    pass_scratch scratch(dag);
    std::size_t decisions = 0;
    mapping current = initial;
    route_pass(dag, coupling, dist, current, options, random, nullptr, {}, nullptr, scratch,
               decisions);
    // A mapping-only pass applies SWAPs in place; the result must still
    // be the same bijection up to permutation.
    QUBIKOS_DCHECK(current.is_consistent());
    return current;
}

routed_circuit route_sabre(const circuit& logical, const graph& coupling,
                           const distance_provider& dist, const sabre_options& options,
                           const mapping* initial, obs::snapshot* stats,
                           const sabre_observer& observer) {
    if (initial != nullptr) {
        return route_from_initial(logical, coupling, dist, *initial, options, stats, observer);
    }
    validate_options(options);
    const obs::trace_span span("sabre.route");
    const gate_dag dag(logical);
    const circuit reversed_logical = reversed(logical);
    const gate_dag reverse_dag(reversed_logical);
    const trial_context ctx{logical, coupling, dist, dag, reverse_dag, options};

    // Trials draw from independent salted RNG streams and share only
    // read-only state, so they are embarrassingly parallel: each slot of
    // the process-wide pool runs trials out of its own arena (steady
    // state allocates nothing) and keeps a running slot-local best, then
    // a serial reduction picks the winner. Peak memory is O(slots), not
    // O(trials) — at paper scale (1000 trials) holding every routed
    // circuit at once would dwarf the routing state itself.
    const std::size_t trials = static_cast<std::size_t>(options.trials);
    const std::size_t width = std::min(
        thread_pool::resolve_threads(static_cast<std::size_t>(options.threads)), trials);
    std::vector<trial_arena> arenas;
    arenas.reserve(width);
    for (std::size_t i = 0; i < width; ++i) {
        arenas.emplace_back(logical, dag, coupling.num_vertices());
    }

    thread_pool::shared().parallel_for_slots(
        0, trials, width,
        [&](std::size_t trial, std::size_t slot) { run_trial(ctx, arenas[slot], trial); },
        /*chunk=*/1);

    routed_circuit out = reduce_slots(arenas, trials, stats);
    QUBIKOS_DCHECK(validate_routed(logical, out, coupling).valid);
    return out;
}

}  // namespace qubikos::router
