// Registration unit for the ML-QLS-style multilevel tool. The routing_*
// options configure the final SABRE-style pass of each V-cycle (its
// trial/thread/seed/bidirectional knobs are controlled by the multilevel
// driver itself and deliberately not exposed).
#include <cstdint>

#include "router/mlqls.hpp"
#include "tools/builtin.hpp"
#include "tools/registry.hpp"

namespace qubikos::tools::detail {

namespace {

router::mlqls_options mlqls_from(const json::value& o) {
    router::mlqls_options m;
    m.coarsest_size = o.at("coarsest_size").as_int();
    m.refine_sweeps = o.at("refine_sweeps").as_int();
    m.placement_trials = o.at("placement_trials").as_int();
    m.seed = static_cast<std::uint64_t>(o.at("seed").as_number());
    m.routing.extended_set_size = o.at("routing_extended_set_size").as_int();
    m.routing.extended_set_weight = o.at("routing_extended_set_weight").as_number();
    m.routing.decay_increment = o.at("routing_decay_increment").as_number();
    m.routing.decay_reset_interval = o.at("routing_decay_reset_interval").as_int();
    m.routing.lookahead_decay = o.at("routing_lookahead_decay").as_number();
    m.routing.release_valve = o.at("routing_release_valve").as_int();
    return m;
}

}  // namespace

void register_builtin_mlqls() {
    tool_info info;
    info.name = "mlqls";
    info.doc = "multilevel placement + SABRE-style routing (ML-QLS, Lin & Cong)";
    info.options = {
        {"coarsest_size", option_kind::integer, 8,
         "stop coarsening the interaction graph at this many vertices"},
        {"refine_sweeps", option_kind::integer, 3,
         "hill-climbing sweeps per uncoarsening level"},
        {"placement_trials", option_kind::integer, 4,
         "full V-cycles with different refinement orders; best routed result wins"},
        {"seed", option_kind::integer, 1, "base RNG seed of the V-cycle trials", 0.0,
         max_seed_option},
        {"routing_extended_set_size", option_kind::integer, 20,
         "lookahead window of the final routing pass"},
        {"routing_extended_set_weight", option_kind::real, 0.5,
         "extended-set weight of the final routing pass"},
        {"routing_decay_increment", option_kind::real, 0.001,
         "decay increment of the final routing pass"},
        {"routing_decay_reset_interval", option_kind::integer, 5,
         "decay reset interval of the final routing pass"},
        {"routing_lookahead_decay", option_kind::real, 1.0,
         "extended-set position decay of the final routing pass"},
        {"routing_release_valve", option_kind::integer, 0,
         "no-progress bound of the final routing pass (0 = auto)"},
    };
    register_tool(std::move(info), [](const json::value& options) -> route_fn {
        return [m = mlqls_from(options)](const circuit& c, const graph& g,
                                         const distance_provider& dist, obs::snapshot*) {
            return router::route_mlqls(c, g, dist, m);
        };
    });
}

}  // namespace qubikos::tools::detail
