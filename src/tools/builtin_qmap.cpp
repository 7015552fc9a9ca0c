// Registration unit for the QMAP-style layered A* mapper.
#include "router/qmap.hpp"
#include "tools/builtin.hpp"
#include "tools/registry.hpp"

namespace qubikos::tools::detail {

void register_builtin_qmap() {
    tool_info info;
    info.name = "qmap";
    info.doc = "layered A* swap search with greedy fallback (QMAP, Zulehner/Wille)";
    info.options = {
        {"node_limit", option_kind::integer, 20000,
         "A* node budget per layer before falling back to greedy routing"},
        {"lookahead_weight", option_kind::real, 0.75,
         "weight of the next-layer lookahead term (0 disables it)"},
        {"placement_window", option_kind::integer, 25,
         "leading two-qubit gates the initial placement sees (0 = whole circuit)"},
    };
    register_tool(std::move(info), [](const json::value& options) -> route_fn {
        router::qmap_options q;
        q.node_limit = static_cast<std::size_t>(options.at("node_limit").as_number());
        q.lookahead_weight = options.at("lookahead_weight").as_number();
        q.placement_window =
            static_cast<std::size_t>(options.at("placement_window").as_number());
        return [q](const circuit& c, const graph& g, const distance_provider& dist,
                   eval::tool_run_stats*) { return router::route_qmap(c, g, dist, q); };
    });
}

}  // namespace qubikos::tools::detail
