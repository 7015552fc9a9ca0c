// Optimality-gap metrics (Sec. IV-B of the paper).
//
// The paper's headline metric is the SWAP ratio:
//     ratio = (average SWAP count over a batch) / (optimal SWAP count),
// always >= 1, with 1 meaning the tool found the optimum. Per-architecture
// "optimality gap" figures aggregate the ratios across the swap-count
// sweep; the abstract's per-tool gaps aggregate across architectures.
#pragma once

#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace qubikos::eval {

/// One tool run on one benchmark instance.
struct run_record {
    std::string tool;
    int designed_swaps = 0;
    std::size_t measured_swaps = 0;
    double seconds = 0.0;
    bool valid = false;
    /// Depth overhead: routed circuit depth / logical circuit depth
    /// (>= 1 in practice; swaps only add depth). 0 when not recorded.
    double depth_ratio = 0.0;

    /// The router's counters over this run, under their obs names (see
    /// route_sabre and route_qmap); empty for tools that report none.
    /// Campaign stores write them only when present, so records of
    /// non-reporting tools keep the v1 byte layout. They are not a
    /// result, so merge never treats them as identity-defining.
    obs::snapshot stats;
};

/// Aggregate for one (tool, designed swap count) cell of Fig. 4.
struct ratio_cell {
    std::string tool;
    int designed_swaps = 0;
    int runs = 0;
    double average_swaps = 0.0;
    /// average_swaps / designed_swaps; 0 when the ratio is undefined
    /// (designed_swaps == 0 — check has_ratio() before using).
    double swap_ratio = 0.0;
    double average_seconds = 0.0;
    double average_depth_ratio = 0.0;
    /// Absolute sums — always finite, even where the ratio is undefined
    /// (the QUEKO family claims 0 optimal swaps): total measured swaps
    /// and total claimed-optimal swaps (runs x designed) of the cell.
    std::size_t total_swaps = 0;
    long long total_optimal_swaps = 0;

    /// True when swap_ratio is meaningful (a nonzero denominator).
    [[nodiscard]] bool has_ratio() const { return designed_swaps > 0; }
};

/// Groups records by (tool, designed count) and computes swap ratios and
/// absolute totals. Invalid runs are excluded (and counted separately by
/// callers if needed). A cell with designed_swaps == 0 carries totals
/// only (swap_ratio = 0, has_ratio() false) — never a division by zero.
[[nodiscard]] std::vector<ratio_cell> aggregate(const std::vector<run_record>& records);

/// Mean of the swap ratios of one tool across its ratio-bearing cells
/// (the per-architecture "optimality gap" number quoted in the paper).
/// Cells without a defined ratio are skipped; throws when the tool has
/// none at all (guard with has_ratio_cells).
[[nodiscard]] double mean_ratio(const std::vector<ratio_cell>& cells, const std::string& tool);

/// Geometric mean variant (more robust; reported alongside).
[[nodiscard]] double geomean_ratio(const std::vector<ratio_cell>& cells, const std::string& tool);

/// Does the tool have at least one cell with a defined swap ratio?
[[nodiscard]] bool has_ratio_cells(const std::vector<ratio_cell>& cells,
                                   const std::string& tool);

}  // namespace qubikos::eval
