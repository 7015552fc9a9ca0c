// The tool table: every tool the registry knows, declared once.
//
// A schema row names the options-struct field it sets. Its kind follows
// from the field's C++ type (bool -> boolean, floating -> real, integral
// -> integer) and its default is read from the tool's base options value,
// so each default lives only in its router's options struct; lightsabre's
// 32 trials are the one base that differs from `Opt{}`. Binding a resolved
// option object fills a default-constructed struct through the same rows.
//
// To add a tool, add an entry to tool_table() below.
#include "tools/builtin.hpp"

#include <stdexcept>
#include <string>
#include <type_traits>

#include "router/mlqls.hpp"
#include "router/qmap.hpp"
#include "router/sabre.hpp"
#include "router/tket.hpp"

namespace qubikos::tools::detail {

namespace {

using router::mlqls_options;
using router::qmap_options;
using router::sabre_options;
using router::tket_options;

/// One tool under construction: its self-description and, per schema row,
/// the setter that copies the row's resolved value into an `Opt`.
template <class Opt>
class table_entry {
public:
    table_entry(const char* name, const char* doc, Opt base = {})
        : info_{name, doc, {}}, base_(base) {}

    template <class Field>
    table_entry& opt(const char* key, Field Opt::*field, const char* doc,
                     double maximum = option_spec{}.maximum) {
        return row(key, [field](Opt& o) -> Field& { return o.*field; }, doc, maximum);
    }

    /// A row addressing a field of a nested options struct.
    template <class Inner, class Field>
    table_entry& opt(const char* key, Inner Opt::*outer, Field Inner::*field, const char* doc,
                     double maximum = option_spec{}.maximum) {
        return row(key, [outer, field](Opt& o) -> Field& { return (o.*outer).*field; }, doc,
                   maximum);
    }

    /// Marks a tool that refines its own placement: routing it from a
    /// given initial mapping throws std::invalid_argument.
    table_entry& places_itself() {
        info_.accepts_initial = false;
        return *this;
    }

    /// `route(logical, coupling, dist, options, initial, stats)` routes
    /// with the resolved options.
    template <class Route>
    tool_entry routes_with(Route route) {
        // Empty unless the tool places itself.
        std::string refusal = info_.accepts_initial
                                  ? ""
                                  : "tools: " + info_.name +
                                        " refines its own placement and takes no initial mapping";
        return {std::move(info_), [setters = std::move(setters_), route,
                                   refusal = std::move(refusal)](
                                      const json::value& resolved) -> bound_route {
                    Opt o{};
                    for (const auto& set : setters) set(o, resolved);
                    return [o, route, refusal](const circuit& c, const graph& g,
                                               const distance_provider& dist,
                                               const mapping* initial, obs::snapshot* stats) {
                        if (initial != nullptr && !refusal.empty()) {
                            throw std::invalid_argument(refusal);
                        }
                        return route(c, g, dist, o, initial, stats);
                    };
                }};
    }

private:
    template <class Access>
    table_entry& row(const char* key, Access access, const char* doc, double maximum) {
        using Field = std::remove_reference_t<decltype(access(base_))>;
        constexpr bool is_bool = std::is_same_v<Field, bool>;
        const option_kind kind = is_bool                           ? option_kind::boolean
                                 : std::is_floating_point_v<Field> ? option_kind::real
                                                                   : option_kind::integer;
        info_.options.push_back({key, kind, access(base_), doc, 0.0, maximum});
        setters_.push_back([key = std::string(key), access](Opt& o, const json::value& resolved) {
            const json::value& v = resolved.at(key);
            if constexpr (is_bool) {
                access(o) = v.as_bool();
            } else {
                access(o) = static_cast<Field>(v.as_number());
            }
        });
        return *this;
    }

    tool_info info_;
    Opt base_;
    std::vector<std::function<void(Opt&, const json::value& resolved)>> setters_;
};

/// lightsabre and sabre share the SABRE engine and schema; only their
/// base (and so their default trial count) differs.
tool_entry sabre_tool(const char* name, const char* doc, sabre_options base) {
    return table_entry<sabre_options>(name, doc, base)
        .opt("trials", &sabre_options::trials,
             "random restarts; the best (fewest-swap) result is kept (paper: 1000)")
        .opt("threads", &sabre_options::threads,
             "trial-loop worker threads (0 = auto); results are thread-count-invariant")
        .opt("seed", &sabre_options::seed, "base RNG seed of the salted trial streams",
             max_seed_option)
        .opt("extended_set_size", &sabre_options::extended_set_size,
             "lookahead window size (Qiskit 1.2 default 20)")
        .opt("extended_set_weight", &sabre_options::extended_set_weight,
             "weight W of the extended-set term (Qiskit 1.2 default 0.5)")
        .opt("decay_increment", &sabre_options::decay_increment,
             "per-swap decay added to a touched qubit's factor")
        .opt("decay_reset_interval", &sabre_options::decay_reset_interval,
             "swaps between decay resets (Qiskit 1.2 default 5)")
        .opt("lookahead_decay", &sabre_options::lookahead_decay,
             "geometric decay over extended-set positions; 1.0 = Qiskit's uniform "
             "weighting, <1.0 = the Sec. IV-C proposed fix")
        .opt("bidirectional", &sabre_options::bidirectional,
             "forward/backward/forward initial-mapping refinement")
        .opt("release_valve", &sabre_options::release_valve,
             "consecutive no-progress swaps before force-routing (0 = auto)")
        .routes_with([](const circuit& c, const graph& g, const distance_provider& dist,
                        const sabre_options& s, const mapping* initial, obs::snapshot* stats) {
            return router::route_sabre(c, g, dist, s, initial, stats);
        });
}

}  // namespace

const std::vector<tool_entry>& tool_table() {
    static const std::vector<tool_entry> table = {
        sabre_tool("lightsabre",
                   "SABRE with random-restart trials (LightSABRE; Qiskit 1.2 cost function)",
                   {.trials = 32}),
        sabre_tool("sabre", "single-configuration SABRE for ablations (Sec. IV-C lookahead study)",
                   {}),
        // The routing_* rows configure the final SABRE-style pass of each
        // V-cycle; its trial/thread/seed/bidirectional knobs belong to the
        // multilevel driver and are deliberately not exposed.
        table_entry<mlqls_options>(
            "mlqls", "multilevel placement + SABRE-style routing (ML-QLS, Lin & Cong)")
            .opt("coarsest_size", &mlqls_options::coarsest_size,
                 "stop coarsening the interaction graph at this many vertices")
            .opt("refine_sweeps", &mlqls_options::refine_sweeps,
                 "hill-climbing sweeps per uncoarsening level")
            .opt("placement_trials", &mlqls_options::placement_trials,
                 "full V-cycles with different refinement orders; best routed result wins")
            .opt("seed", &mlqls_options::seed, "base RNG seed of the V-cycle trials",
                 max_seed_option)
            .opt("routing_extended_set_size", &mlqls_options::routing,
                 &sabre_options::extended_set_size, "lookahead window of the final routing pass")
            .opt("routing_extended_set_weight", &mlqls_options::routing,
                 &sabre_options::extended_set_weight,
                 "extended-set weight of the final routing pass")
            .opt("routing_decay_increment", &mlqls_options::routing,
                 &sabre_options::decay_increment, "decay increment of the final routing pass")
            .opt("routing_decay_reset_interval", &mlqls_options::routing,
                 &sabre_options::decay_reset_interval,
                 "decay reset interval of the final routing pass")
            .opt("routing_lookahead_decay", &mlqls_options::routing,
                 &sabre_options::lookahead_decay,
                 "extended-set position decay of the final routing pass")
            .opt("routing_release_valve", &mlqls_options::routing,
                 &sabre_options::release_valve,
                 "no-progress bound of the final routing pass (0 = auto)")
            .places_itself()
            .routes_with([](const circuit& c, const graph& g, const distance_provider& dist,
                            const mlqls_options& m, const mapping*, obs::snapshot*) {
                return router::route_mlqls(c, g, dist, m);
            }),
        table_entry<qmap_options>(
            "qmap", "layered A* swap search with greedy fallback (QMAP, Zulehner/Wille)")
            .opt("node_limit", &qmap_options::node_limit,
                 "A* node budget per layer before falling back to greedy routing")
            .opt("lookahead_weight", &qmap_options::lookahead_weight,
                 "weight of the next-layer lookahead term (0 disables it)")
            .opt("placement_window", &qmap_options::placement_window,
                 "leading two-qubit gates the initial placement sees (0 = whole circuit)")
            .routes_with([](const circuit& c, const graph& g, const distance_provider& dist,
                            const qmap_options& q, const mapping* initial, obs::snapshot* stats) {
                return router::route_qmap(c, g, dist, q, initial, stats);
            }),
        table_entry<tket_options>("tket", "deterministic timeslice router (t|ket>, Cowtan et al.)")
            .opt("lookahead_slices", &tket_options::lookahead_slices,
                 "future slices the swap cost looks at")
            .opt("slice_discount", &tket_options::slice_discount,
                 "geometric weight per future slice")
            .opt("stagnation_limit", &tket_options::stagnation_limit,
                 "stagnation bound before force-routing the nearest gate (0 = auto)")
            .opt("placement_window", &tket_options::placement_window,
                 "leading two-qubit gates the initial placement sees (0 = whole circuit)")
            .routes_with([](const circuit& c, const graph& g, const distance_provider& dist,
                            const tket_options& t, const mapping* initial, obs::snapshot*) {
                return router::route_tket(c, g, dist, t, initial);
            }),
    };
    return table;
}

}  // namespace qubikos::tools::detail
