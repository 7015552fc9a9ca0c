// QUBIKOS benchmark generator (Sec. III of the paper).
//
// Generates circuits whose optimal SWAP count on a given coupling graph is
// known by construction, together with the optimal transpilation witness:
//
//   1. (Algorithm 1) For each SWAP to be forced, pick a coupling edge
//      (p1,p2) and an anchor p in it such that the swap gives the program
//      qubit q* = f^-1(p) a *new* neighbor q''. Emit q*'s full physical
//      neighborhood as gates, plus the full neighborhoods of every
//      program qubit sitting on a physical qubit of degree > deg(p)
//      (occupying all higher-degree nodes), plus the *special gate*
//      (q*, q''). By a degree pigeonhole (Lemma 1) this interaction graph
//      embeds in no subgraph of the device, while everything except the
//      special gate executes in place under f.
//   2. (Algorithm 2) Order each section's gates by BFS edge-discovery
//      order from the previous special gate (prefix) and by reversed BFS
//      order toward the own special gate (suffix, special last), patching
//      in executable edges to connect components first. This serializes
//      sections in the dependency DAG (Lemmas 2-3), so optimal counts add
//      (Theorem 4).
//   3. (Algorithm 3) Concatenate n sections against the evolving mapping,
//      then pad with redundant gates that are executable under the mapping
//      active at their insertion point, which changes neither bound.
//
// The returned instance carries the logical circuit, the n-SWAP answer,
// and per-section metadata consumed by the structural verifier.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/architectures.hpp"
#include "circuit/circuit.hpp"
#include "circuit/mapping.hpp"
#include "circuit/routed.hpp"
#include "graph/graph.hpp"

namespace qubikos::core {

class generator_error : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

struct generator_options {
    /// Number of forced SWAP gates (the known optimal count); >= 0.
    int num_swaps = 1;
    /// Pad the circuit with redundant executable gates up to this total
    /// two-qubit gate count (0 = backbone only; ignored when the backbone
    /// is already larger).
    std::size_t total_two_qubit_gates = 0;
    /// Expected single-qubit decoration gates per two-qubit gate (they
    /// never affect layout synthesis; default off).
    double single_qubit_rate = 0.0;
    std::uint64_t seed = 1;
};

/// Metadata of one backbone section (forces exactly one SWAP).
struct section_info {
    /// Program-qubit pairs executable under the section's mapping
    /// (anchor star + higher-degree stars + connectivity patch).
    std::vector<edge> body;
    /// The special gate (q*, q''): executable only after the swap.
    edge special;
    /// The physical coupling edge the forced SWAP acts on.
    edge swap_physical;
    /// Indices (into the logical circuit's gate list) of this section's
    /// backbone body gates, in order. Redundant padding gates interleave
    /// with these but are not part of any section.
    std::vector<std::size_t> body_gate_indices;
    /// Index of the special gate in the logical circuit.
    std::size_t special_gate_index = 0;
};

struct benchmark_instance {
    std::string arch_name;
    std::uint64_t seed = 0;
    /// The provably optimal SWAP count.
    int optimal_swaps = 0;
    /// The benchmark circuit (program qubits; |Q| = |P|).
    circuit logical;
    /// Reference optimal transpilation with exactly optimal_swaps SWAPs.
    routed_circuit answer;
    std::vector<section_info> sections;
};

/// Generates one QUBIKOS instance. Throws generator_error when the device
/// admits no forcing swap (e.g. complete coupling graphs) or has fewer
/// than 3 qubits.
[[nodiscard]] benchmark_instance generate(const arch::architecture& device,
                                          const generator_options& options);

}  // namespace qubikos::core
