// qubikos-lint: hot-path — every SABRE swap decision scores all candidates here.
#include "router/score_kernel.hpp"

#include "util/check.hpp"

namespace qubikos::router {

namespace {

/// Physical location of `p` after the hypothetical swap (pa, pb).
inline int swapped(int p, int pa, int pb) { return p == pa ? pb : (p == pb ? pa : p); }

/// Distance change of the gate at `e` when its operand moves from `from`
/// to `to`. A gate on both swapped qubits keeps its distance.
inline std::int64_t moved(const gate_end& e, int from, int to) {
    return e.other < 0 || e.other == to ? 0 : e.row[to] - e.row[from];
}

/// LightSABRE relative scoring for unit extended-set weights. A swap
/// moves only the gates on pa or pb, so each candidate is the decision's
/// base sums plus those gates' integer deltas. Distances are symmetric
/// (undirected coupling graph), so a gate's old and new distance are two
/// entries of its other operand's row. Front gates are qubit-disjoint
/// (one entry per qubit); extended gates may share qubits (a slot list
/// per qubit).
void score_candidates_relative(const score_batch& batch, const edge* candidates,
                               std::size_t count, double* basic, double* lookahead,
                               score_scratch& s) {
    const distance_provider& dist = *batch.dist;
    const auto n = static_cast<std::size_t>(dist.num_vertices());
    if (s.front_at.size() < n) {
        s.front_at.assign(n, gate_end{});
        s.ext_head.assign(n, -1);
    }
    gate_end* const front_at = s.front_at.data();
    std::int32_t* const ext_head = s.ext_head.data();

    std::int64_t front_base = 0;
    for (std::size_t i = 0; i < batch.front_gates; ++i) {
        const int p0 = batch.front_p0[i];
        const int p1 = batch.front_p1[i];
        // One front gate per qubit: a front layer never stacks gates.
        QUBIKOS_DCHECK(front_at[p0].other == -1 && front_at[p1].other == -1);
        front_at[p0] = {dist.row(p1), p1, -1};
        front_at[p1] = {dist.row(p0), p0, -1};
        front_base += front_at[p0].row[p0];
    }
    s.ext_slots.resize(2 * batch.ext_gates);
    gate_end* const slots = s.ext_slots.data();
    std::int64_t ext_base = 0;
    for (std::size_t i = 0; i < batch.ext_gates; ++i) {
        const int p0 = batch.ext_p0[i];
        const int p1 = batch.ext_p1[i];
        const auto slot = static_cast<std::int32_t>(2 * i);
        slots[2 * i] = {dist.row(p1), p1, ext_head[p0]};
        slots[2 * i + 1] = {dist.row(p0), p0, ext_head[p1]};
        ext_head[p0] = slot;
        ext_head[p1] = slot + 1;
        ext_base += slots[2 * i].row[p0];
    }

    for (std::size_t k = 0; k < count; ++k) {
        const int pa = candidates[k].a;
        const int pb = candidates[k].b;
        const std::int64_t front_sum =
            front_base + moved(front_at[pa], pa, pb) + moved(front_at[pb], pb, pa);
        basic[k] = static_cast<double>(front_sum) / static_cast<double>(batch.front_gates);

        if (batch.ext_gates > 0) {
            std::int64_t ext_sum = ext_base;
            for (std::int32_t i = ext_head[pa]; i >= 0; i = slots[i].next) {
                ext_sum += moved(slots[i], pa, pb);
            }
            for (std::int32_t i = ext_head[pb]; i >= 0; i = slots[i].next) {
                ext_sum += moved(slots[i], pb, pa);
            }
            lookahead[k] = batch.extended_set_weight * static_cast<double>(ext_sum) /
                           batch.ext_norm;
        } else {
            lookahead[k] = 0.0;
        }
    }

    for (std::size_t i = 0; i < batch.front_gates; ++i) {
        front_at[batch.front_p0[i]] = gate_end{};
        front_at[batch.front_p1[i]] = gate_end{};
    }
    for (std::size_t i = 0; i < batch.ext_gates; ++i) {
        ext_head[batch.ext_p0[i]] = -1;
        ext_head[batch.ext_p1[i]] = -1;
    }
}

}  // namespace

const char* simd_backend_name(simd_backend backend) {
    static_cast<void>(backend);
    return "scalar";
}

simd_backend active_simd_backend() { return simd_backend::scalar; }

/// Per candidate, ordered double accumulation of the front distances,
/// then of the weighted extended-set distances.
void score_candidates_full(const score_batch& batch, const edge* candidates, std::size_t count,
                           double* basic, double* lookahead) {
    const distance_provider& dist = *batch.dist;
    for (std::size_t k = 0; k < count; ++k) {
        const int pa = candidates[k].a;
        const int pb = candidates[k].b;
        double basic_sum = 0.0;
        for (std::size_t i = 0; i < batch.front_gates; ++i) {
            basic_sum += dist(swapped(batch.front_p0[i], pa, pb),
                              swapped(batch.front_p1[i], pa, pb));
        }
        basic[k] = basic_sum / static_cast<double>(batch.front_gates);
        if (batch.ext_gates > 0) {
            double ext = 0.0;
            for (std::size_t i = 0; i < batch.ext_gates; ++i) {
                const double w = batch.ext_weight != nullptr ? batch.ext_weight[i] : 1.0;
                ext += w * dist(swapped(batch.ext_p0[i], pa, pb),
                                swapped(batch.ext_p1[i], pa, pb));
            }
            lookahead[k] = batch.extended_set_weight * ext / batch.ext_norm;
        } else {
            lookahead[k] = 0.0;
        }
    }
}

void score_candidates(const score_batch& batch, const edge* candidates, std::size_t count,
                      double* basic, double* lookahead, score_scratch& scratch) {
    if (count == 0) return;
    if (batch.ext_weight == nullptr) {
        score_candidates_relative(batch, candidates, count, basic, lookahead, scratch);
    } else {
        score_candidates_full(batch, candidates, count, basic, lookahead);
    }
}

}  // namespace qubikos::router
