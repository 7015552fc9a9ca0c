// Device coupling graphs GC(P, EP).
//
// The four evaluation platforms of the paper (Sec. IV) plus parametric
// families for tests and the optimality study:
//   - Rigetti Aspen-4: 16 qubits, two octagon rings bridged by 2 couplers.
//   - Google Sycamore: 54 qubits, 88 couplers, diagonal square lattice.
//   - IBM Rochester: 53 qubits, 58 couplers, heavy-hex-like lattice
//     (explicit published coupling map).
//   - IBM Eagle: 127 qubits, 144 couplers, heavy-hex lattice
//     (ibm_washington layout, generated row/connector-wise).
#pragma once

#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace qubikos::arch {

/// A named device: coupling graph plus identification metadata.
struct architecture {
    std::string name;
    graph coupling;

    [[nodiscard]] int num_qubits() const { return coupling.num_vertices(); }
    [[nodiscard]] int num_couplers() const { return coupling.num_edges(); }
};

// --- parametric families -------------------------------------------------
[[nodiscard]] architecture line(int n);
[[nodiscard]] architecture ring(int n);
[[nodiscard]] architecture grid(int rows, int cols);
/// IBM-style heavy-hex: `rows` horizontal chains of `row_len` qubits with
/// 4-spaced connector qubits between adjacent chains. rows >= 2,
/// row_len >= 5. The first/last chains are one qubit shorter, matching
/// real devices.
[[nodiscard]] architecture heavy_hex(int rows, int row_len);

// --- evaluation platforms (Sec. IV) --------------------------------------
[[nodiscard]] architecture aspen4();
[[nodiscard]] architecture sycamore54();
[[nodiscard]] architecture rochester53();
[[nodiscard]] architecture eagle127();

// --- additional devices (QUEKO's platforms; handy for extensions) --------
/// IBM Tokyo: 20 qubits, dense 4x5 lattice with diagonal couplers.
[[nodiscard]] architecture tokyo20();
/// IBM Guadalupe: 16 qubits, small heavy-hex (falcon r4 layout).
[[nodiscard]] architecture guadalupe16();

/// All four paper platforms, in the order used by Fig. 4.
[[nodiscard]] std::vector<architecture> paper_platforms();

/// Lookup by name: a named device ("aspen4", "sycamore54", ...) or a
/// family member named the way its builder names it ("line5", "ring6",
/// "grid3x3", "heavyhex3x9"). The whole name must parse: trailing
/// characters, non-digit sizes and sizes whose qubit count overflows
/// int throw std::invalid_argument naming the input.
[[nodiscard]] architecture by_name(const std::string& name);
[[nodiscard]] std::vector<std::string> known_names();

}  // namespace qubikos::arch
