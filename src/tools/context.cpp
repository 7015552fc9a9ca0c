#include "tools/context.hpp"

namespace qubikos::tools {

routing_context::routing_context(const graph& coupling, distance_options options)
    : coupling_(coupling), dist_(coupling, options) {}

bool routing_context::matches(const graph& g) const {
    return g.num_vertices() == coupling_.num_vertices() && g.edges() == coupling_.edges();
}

std::shared_ptr<const routing_context> make_routing_context(const graph& coupling,
                                                            distance_options options) {
    return std::make_shared<const routing_context>(coupling, options);
}

}  // namespace qubikos::tools
