// Report rendering: the paper's aggregate tables from a merged campaign.
//
// Tools mode reproduces the Fig. 4 tables (swap ratio per tool and
// designed count, one table per suite/architecture) plus the per-suite
// and cross-suite optimality-gap summaries (mean and geometric mean of
// the swap ratios — the per-architecture and abstract-level numbers —
// alongside absolute swap totals: total measured vs total claimed-
// optimal swaps per tool). Ratios of suites that claim 0 optimal swaps
// (QUEKO) render as "n/a"; their results live in the totals, which are
// always finite.
// Certify mode reproduces the Sec. IV-A confirmation table (SAT at n /
// UNSAT at n-1 / structure per count).
//
// The rendered text contains only deterministic fields — timings live in
// the store but are deliberately excluded here — so a report produced
// from merged shards is byte-identical to one produced from a
// single-process run of the same spec.
#pragma once

#include <string>

#include "campaign/merge.hpp"
#include "campaign/plan.hpp"

namespace qubikos::campaign {

/// Renders the full report (deterministic; see file comment).
[[nodiscard]] std::string render_report(const campaign_plan& plan,
                                        const merge_result& merged);

}  // namespace qubikos::campaign
