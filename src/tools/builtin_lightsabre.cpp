// Registration unit for the SABRE-engine tools:
//   lightsabre — the paper's headline tool (SABRE + many random trials);
//   sabre      — single-configuration SABRE for ablations (the Sec. IV-C
//                lookahead-decay study runs this with lookahead_decay
//                swept; defaults are one stock trial).
#include <cstdint>

#include "router/sabre.hpp"
#include "tools/builtin.hpp"
#include "tools/registry.hpp"

namespace qubikos::tools::detail {

namespace {

std::vector<option_spec> sabre_schema(int default_trials) {
    return {
        {"trials", option_kind::integer, default_trials,
         "random restarts; the best (fewest-swap) result is kept (paper: 1000)"},
        {"threads", option_kind::integer, 1,
         "trial-loop worker threads (0 = auto); results are thread-count-invariant"},
        {"seed", option_kind::integer, 1, "base RNG seed of the salted trial streams", 0.0,
         max_seed_option},
        {"extended_set_size", option_kind::integer, 20,
         "lookahead window size (Qiskit 1.2 default 20)"},
        {"extended_set_weight", option_kind::real, 0.5,
         "weight W of the extended-set term (Qiskit 1.2 default 0.5)"},
        {"decay_increment", option_kind::real, 0.001,
         "per-swap decay added to a touched qubit's factor"},
        {"decay_reset_interval", option_kind::integer, 5,
         "swaps between decay resets (Qiskit 1.2 default 5)"},
        {"lookahead_decay", option_kind::real, 1.0,
         "geometric decay over extended-set positions; 1.0 = Qiskit's uniform "
         "weighting, <1.0 = the Sec. IV-C proposed fix"},
        {"bidirectional", option_kind::boolean, json::value(true),
         "forward/backward/forward initial-mapping refinement"},
        {"release_valve", option_kind::integer, 0,
         "consecutive no-progress swaps before force-routing (0 = auto)"},
    };
}

router::sabre_options sabre_from(const json::value& o) {
    router::sabre_options s;
    s.trials = o.at("trials").as_int();
    s.threads = o.at("threads").as_int();
    s.seed = static_cast<std::uint64_t>(o.at("seed").as_number());
    s.extended_set_size = o.at("extended_set_size").as_int();
    s.extended_set_weight = o.at("extended_set_weight").as_number();
    s.decay_increment = o.at("decay_increment").as_number();
    s.decay_reset_interval = o.at("decay_reset_interval").as_int();
    s.lookahead_decay = o.at("lookahead_decay").as_number();
    s.bidirectional = o.at("bidirectional").as_bool();
    s.release_valve = o.at("release_valve").as_int();
    return s;
}

route_fn make_sabre_tool(const json::value& options) {
    return [s = sabre_from(options)](const circuit& c, const graph& g,
                                     const distance_provider& dist, eval::tool_run_stats* out) {
        router::sabre_stats stats;
        routed_circuit routed = router::route_sabre(c, g, dist, s, nullptr, &stats);
        if (out != nullptr) {
            out->present = true;
            out->trials_run = static_cast<long long>(stats.trials_run);
            out->pass_decisions = static_cast<long long>(stats.pass_decisions);
            out->arena_slots = static_cast<long long>(stats.arena_slots);
        }
        return routed;
    };
}

}  // namespace

void register_builtin_lightsabre() {
    register_tool({"lightsabre",
                   "SABRE with random-restart trials (LightSABRE; Qiskit 1.2 cost function)",
                   sabre_schema(/*default_trials=*/32)},
                  make_sabre_tool);
    register_tool({"sabre",
                   "single-configuration SABRE for ablations (Sec. IV-C lookahead study)",
                   sabre_schema(/*default_trials=*/1)},
                  make_sabre_tool);
}

}  // namespace qubikos::tools::detail
