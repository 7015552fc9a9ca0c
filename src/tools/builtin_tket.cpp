// Registration unit for the t|ket>-style slice router.
#include "router/tket.hpp"
#include "tools/builtin.hpp"
#include "tools/registry.hpp"

namespace qubikos::tools::detail {

void register_builtin_tket() {
    tool_info info;
    info.name = "tket";
    info.doc = "deterministic timeslice router (t|ket>, Cowtan et al.)";
    info.options = {
        {"lookahead_slices", option_kind::integer, 4,
         "future slices the swap cost looks at"},
        {"slice_discount", option_kind::real, 0.5, "geometric weight per future slice"},
        {"stagnation_limit", option_kind::integer, 0,
         "stagnation bound before force-routing the nearest gate (0 = auto)"},
        {"placement_window", option_kind::integer, 50,
         "leading two-qubit gates the initial placement sees (0 = whole circuit)"},
    };
    register_tool(std::move(info), [](const json::value& options) -> route_fn {
        router::tket_options t;
        t.lookahead_slices = options.at("lookahead_slices").as_int();
        t.slice_discount = options.at("slice_discount").as_number();
        t.stagnation_limit = options.at("stagnation_limit").as_int();
        t.placement_window =
            static_cast<std::size_t>(options.at("placement_window").as_number());
        return [t](const circuit& c, const graph& g, const distance_provider& dist,
                   obs::snapshot*) { return router::route_tket(c, g, dist, t); };
    });
}

}  // namespace qubikos::tools::detail
