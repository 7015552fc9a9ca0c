// SABRE candidate-score kernel.
//
// route_pass scores every candidate swap of a decision point against the
// same front-layer and extended-set physical pairs. With uniform
// extended-set weights (lookahead_decay >= 1, the default of lightsabre,
// sabre and mlqls) it scores relatively, as LightSABRE does (Zou et al.
// 2024, arXiv:2409.08368): the distance sums are taken once per decision
// as int64, and a candidate (pa, pb) adds the deltas of only the gates
// on pa or pb, found through per-physical-qubit indexes. Weighted
// extended sets (lookahead_decay < 1, Sec. IV-C) run the full loop over
// every gate. With unit weights every sum is an exact integer, so both
// paths give bit-identical scores; the full loop is the test reference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/distance.hpp"
#include "graph/graph.hpp"

namespace qubikos::router {

/// The kernel's one, portable backend, named for run provenance.
enum class simd_backend { scalar };
[[nodiscard]] const char* simd_backend_name(simd_backend backend);
[[nodiscard]] simd_backend active_simd_backend();

/// One decision point's inputs, structure-of-arrays. All pointers borrow
/// the caller's buffers; `dist` must outlive the call.
struct score_batch {
    const std::int32_t* front_p0 = nullptr;  ///< front-gate operand 0, physical
    const std::int32_t* front_p1 = nullptr;  ///< front-gate operand 1, physical
    std::size_t front_gates = 0;
    const std::int32_t* ext_p0 = nullptr;  ///< extended-set operand 0, physical
    const std::int32_t* ext_p1 = nullptr;  ///< extended-set operand 1, physical
    std::size_t ext_gates = 0;
    /// Per extended gate, original order; nullptr = every weight is 1.0.
    const double* ext_weight = nullptr;
    double ext_norm = 1.0;
    double extended_set_weight = 0.5;
    const distance_provider* dist = nullptr;
};

/// One gate seen from one of its operands: the other operand and its
/// distance row, so row[p] is the gate's distance with this operand on p.
struct gate_end {
    const std::int32_t* row = nullptr;
    std::int32_t other = -1;  ///< -1 = no gate
    std::int32_t next = -1;   ///< next extended slot on the same qubit, -1 = end
};

/// The relative path's per-decision scratch, reused across decisions.
/// The per-qubit indexes are sized to the device once and are empty
/// between calls: a decision resets only the entries it set, so steady-
/// state scoring allocates nothing.
struct score_scratch {
    std::vector<gate_end> front_at;      ///< physical qubit -> its front gate
    std::vector<std::int32_t> ext_head;  ///< physical qubit -> first extended slot, -1 = none
    std::vector<gate_end> ext_slots;     ///< slot 2*gate+operand
};

/// Scores `count` candidate swaps against `batch`, writing per-candidate
/// basic and lookahead terms (decay is applied by the caller — it is
/// per-candidate state, not per-gate). Relative when `ext_weight` is
/// null, full otherwise. Requires front_gates > 0 when count > 0, and
/// qubit-disjoint front gates (every SABRE front layer is).
void score_candidates(const score_batch& batch, const edge* candidates, std::size_t count,
                      double* basic, double* lookahead, score_scratch& scratch);

/// The full loop on its own: the reference score_candidates must match
/// bit for bit.
void score_candidates_full(const score_batch& batch, const edge* candidates, std::size_t count,
                           double* basic, double* lookahead);

}  // namespace qubikos::router
