#include "eval/placement.hpp"

#include <stdexcept>

#include "circuit/interaction.hpp"
#include "graph/token_swapping.hpp"

namespace qubikos::eval {

placement_quality compare_placements(const circuit& logical, const graph& coupling,
                                     const mapping& candidate, const mapping& reference) {
    if (candidate.num_program() != reference.num_program() ||
        candidate.num_physical() != reference.num_physical()) {
        throw std::invalid_argument("compare_placements: mapping shape mismatch");
    }
    const int num_program = candidate.num_program();

    placement_quality out;
    out.program_qubits = static_cast<std::size_t>(num_program);
    for (int q = 0; q < num_program; ++q) {
        if (candidate.physical(q) == reference.physical(q)) ++out.exact_match;
    }

    out.token_swap_distance = token_swap_distance(
        coupling, candidate.program_to_physical(), reference.program_to_physical());

    const graph interactions = interaction_graph(logical);
    for (const auto& e : interactions.edges()) {
        if (!coupling.has_edge(reference.physical(e.a), reference.physical(e.b))) continue;
        ++out.adjacency_planted;
        if (coupling.has_edge(candidate.physical(e.a), candidate.physical(e.b))) {
            ++out.adjacency_kept;
        }
    }
    return out;
}

}  // namespace qubikos::eval
