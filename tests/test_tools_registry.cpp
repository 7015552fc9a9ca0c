// Tool-registry tests: the self-describing tool catalog every consumer
// (campaign, serve, CLI, benches) selects tools from.
//
// The load-bearing guarantees:
//   - misuse is loud: unknown tool names, unknown option keys and
//     ill-typed option values throw instead of silently running defaults;
//   - the default registry lineup reproduces the pre-registry routers
//     knob for knob (pinned against direct router calls);
//   - a shared routing context is purely an optimization — bound or
//     not, matching device or not, results are identical.
#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <stdexcept>

#include "arch/architectures.hpp"
#include "campaign/store.hpp"
#include "core/qubikos.hpp"
#include "core/verifier.hpp"
#include "eval/harness.hpp"
#include "router/mlqls.hpp"
#include "router/qmap.hpp"
#include "router/sabre.hpp"
#include "router/tket.hpp"
#include "tools/context.hpp"
#include "tools/registry.hpp"

namespace qubikos {
namespace {

core::benchmark_instance aspen_instance(int swaps, std::uint64_t seed) {
    core::generator_options options;
    options.num_swaps = swaps;
    options.total_two_qubit_gates = 60;
    options.seed = seed;
    return core::generate(arch::aspen4(), options);
}

/// Two routed circuits are the same result for our purposes when their
/// swap counts, initial mappings and physical gate streams agree.
void expect_same_routing(const routed_circuit& a, const routed_circuit& b) {
    EXPECT_EQ(a.swap_count(), b.swap_count());
    EXPECT_EQ(a.initial.program_to_physical(), b.initial.program_to_physical());
    ASSERT_EQ(a.physical.size(), b.physical.size());
    for (std::size_t i = 0; i < a.physical.size(); ++i) {
        EXPECT_EQ(a.physical[i].kind, b.physical[i].kind) << i;
        EXPECT_EQ(a.physical[i].q0, b.physical[i].q0) << i;
        EXPECT_EQ(a.physical[i].q1, b.physical[i].q1) << i;
    }
}

TEST(tools_registry, paper_tools_and_ablation_variant_are_registered) {
    for (const auto& name : tools::paper_tool_names()) {
        EXPECT_TRUE(tools::is_registered_tool(name)) << name;
    }
    EXPECT_TRUE(tools::is_registered_tool("sabre"));  // the ablation variant
    EXPECT_FALSE(tools::is_registered_tool("olsq"));
}

TEST(tools_registry, unknown_tool_name_is_a_loud_error) {
    EXPECT_THROW((void)tools::tool_registry_info("lightsaber"), std::invalid_argument);
    EXPECT_THROW((void)tools::make_tool("lightsaber"), std::invalid_argument);
    EXPECT_THROW((void)tools::parse_tool_spec("lightsaber:trials=8"), std::invalid_argument);
    // The message names the known lineup, so a typo is self-correcting.
    try {
        (void)tools::make_tool("lightsaber");
        FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("lightsabre"), std::string::npos);
    }
}

TEST(tools_registry, unknown_and_ill_typed_options_are_loud_errors) {
    // Unknown key: never a silent default.
    EXPECT_THROW((void)tools::make_tool("lightsabre", json::object{{"trails", 8}}),
                 std::invalid_argument);
    // Ill-typed values: bool where a number is expected and vice versa,
    // and a fractional value for an integer option.
    EXPECT_THROW((void)tools::make_tool("lightsabre", json::object{{"trials", true}}),
                 std::invalid_argument);
    EXPECT_THROW((void)tools::make_tool("lightsabre", json::object{{"bidirectional", 1}}),
                 std::invalid_argument);
    EXPECT_THROW((void)tools::make_tool("lightsabre", json::object{{"trials", 1.5}}),
                 std::invalid_argument);
    // Options must be an object (or null), not a bare value.
    EXPECT_THROW((void)tools::make_tool("lightsabre", json::value(3)), std::invalid_argument);
    // A real option accepts an integral number.
    EXPECT_NO_THROW((void)tools::make_tool("sabre", json::object{{"lookahead_decay", 1}}));
    // Out-of-range numerics are rejected before any factory cast can
    // mangle them: negatives for non-negative knobs, and integers past
    // the int32 cap (seeds are widened to 2^53 and accept more).
    EXPECT_THROW((void)tools::make_tool("qmap", json::object{{"node_limit", -1}}),
                 std::invalid_argument);
    EXPECT_THROW((void)tools::make_tool("sabre", json::object{{"lookahead_decay", -0.5}}),
                 std::invalid_argument);
    EXPECT_THROW((void)tools::make_tool("lightsabre", json::object{{"trials", 3e9}}),
                 std::invalid_argument);
    EXPECT_NO_THROW(
        (void)tools::make_tool("lightsabre", json::object{{"seed", 4294967296.0}}));
    // NaN compares false against both bounds; it is still out of range.
    EXPECT_THROW((void)tools::make_tool(
                     "sabre", json::object{{"lookahead_decay",
                                            std::numeric_limits<double>::quiet_NaN()}}),
                 std::invalid_argument);
}

TEST(tools_registry, default_lineup_reproduces_direct_router_calls) {
    // The paper lineup's registry defaults equal the routers' own knob
    // for knob (lightsabre: 32 trials).
    const auto instance = aspen_instance(5, 42);
    const auto device = arch::aspen4();
    const distance_provider dist(device.coupling);
    EXPECT_EQ(tools::paper_tool_names(),
              (std::vector<std::string>{"lightsabre", "mlqls", "qmap", "tket"}));
    std::vector<eval::tool> lineup;
    for (const auto& name : tools::paper_tool_names()) lineup.push_back(tools::make_tool(name));
    const auto route = [&](const eval::tool& t) {
        return t.route(instance.logical, device.coupling, nullptr, nullptr);
    };

    // The documented lightsabre default: 32 trials.
    expect_same_routing(route(lineup[0]), router::route_sabre(instance.logical, device.coupling,
                                                              dist, {.trials = 32}));
    expect_same_routing(route(lineup[1]), router::route_mlqls(instance.logical, device.coupling,
                                                              dist, router::mlqls_options{}));
    expect_same_routing(route(lineup[2]),
                        router::route_qmap(instance.logical, device.coupling, dist));
    expect_same_routing(route(lineup[3]),
                        router::route_tket(instance.logical, device.coupling, dist));
    expect_same_routing(route(tools::make_tool("lightsabre", json::object{{"trials", 2}})),
                        router::route_sabre(instance.logical, device.coupling, dist, {.trials = 2}));
}

TEST(tools_registry, tools_route_from_a_planted_mapping) {
    // The standalone-router mode of Sec. IV-C through the tool table:
    // every tool that accepts an initial mapping starts from exactly the
    // one it is handed and matches its router's direct fixed-initial
    // call; mlqls places its own qubits and refuses one.
    const auto instance = aspen_instance(5, 17);
    const auto device = arch::aspen4();
    const distance_provider dist(device.coupling);
    const mapping& planted = instance.answer.initial;
    const auto direct = [&](const std::string& name) {
        if (name == "lightsabre") {
            return router::route_sabre(instance.logical, device.coupling, dist, {.trials = 32},
                                       &planted);
        }
        if (name == "sabre") {
            return router::route_sabre(instance.logical, device.coupling, dist, {}, &planted);
        }
        if (name == "qmap") {
            return router::route_qmap(instance.logical, device.coupling, dist, {}, &planted);
        }
        return router::route_tket(instance.logical, device.coupling, dist, {}, &planted);
    };
    for (const auto& name : tools::registered_tool_names()) {
        const auto tool = tools::make_tool(name);
        obs::snapshot stats;
        if (!tools::tool_registry_info(name).accepts_initial) {
            EXPECT_EQ(name, "mlqls");
            EXPECT_THROW((void)tool.route(instance.logical, device.coupling, &planted, &stats),
                         std::invalid_argument);
            continue;
        }
        const auto routed = tool.route(instance.logical, device.coupling, &planted, &stats);
        EXPECT_EQ(routed.initial.program_to_physical(), planted.program_to_physical()) << name;
        EXPECT_EQ(routed.swap_count(), direct(name).swap_count()) << name;
        EXPECT_TRUE(validate_routed(instance.logical, routed, device.coupling).valid) << name;
    }
}

TEST(tools_registry, option_overrides_reach_the_router) {
    const auto instance = aspen_instance(5, 7);
    const auto device = arch::aspen4();
    const distance_provider dist(device.coupling);
    const auto tool = tools::make_tool(
        "sabre", json::object{{"trials", 5}, {"seed", 9}, {"lookahead_decay", 0.5}});
    const router::sabre_options expected{.trials = 5, .lookahead_decay = 0.5, .seed = 9};
    expect_same_routing(tool.route(instance.logical, device.coupling, nullptr, nullptr),
                        router::route_sabre(instance.logical, device.coupling, dist, expected));
}

TEST(tools_registry, shared_context_changes_nothing_but_work) {
    const auto instance = aspen_instance(5, 11);
    const auto device = arch::aspen4();
    const auto context = tools::make_routing_context(device.coupling);
    ASSERT_TRUE(context->matches(device.coupling));

    for (const auto& name : tools::registered_tool_names()) {
        const auto bound = tools::make_tool(name, {}, context);
        const auto unbound = tools::make_tool(name);
        expect_same_routing(bound.route(instance.logical, device.coupling, nullptr, nullptr),
                            unbound.route(instance.logical, device.coupling, nullptr, nullptr));
    }

    // A tool bound to the *wrong* device falls back to computing its own
    // distances — the context is an optimization, never a correctness
    // hazard.
    const auto grid = arch::by_name("grid3x3");
    const auto grid_instance = [] {
        core::generator_options options;
        options.num_swaps = 2;
        options.total_two_qubit_gates = 20;
        options.seed = 3;
        return core::generate(arch::by_name("grid3x3"), options);
    }();
    EXPECT_FALSE(context->matches(grid.coupling));
    const auto misbound = tools::make_tool("tket", {}, context);
    const auto routed = misbound.route(grid_instance.logical, grid.coupling, nullptr, nullptr);
    const distance_provider dist(grid.coupling);
    expect_same_routing(routed, router::route_tket(grid_instance.logical, grid.coupling, dist));
    EXPECT_TRUE(validate_routed(grid_instance.logical, routed, grid.coupling).valid);
}

TEST(tools_registry, parse_tool_spec_round_trips_and_rejects_garbage) {
    const auto plain = tools::parse_tool_spec("tket");
    EXPECT_EQ(plain.name, "tket");
    EXPECT_TRUE(plain.options.is_null());
    EXPECT_EQ(plain.canonical(), "tket");

    const auto variant = tools::parse_tool_spec("sabre:trials=8,lookahead_decay=0.5");
    EXPECT_EQ(variant.name, "sabre");
    EXPECT_EQ(variant.options.at("trials").as_int(), 8);
    EXPECT_DOUBLE_EQ(variant.options.at("lookahead_decay").as_number(), 0.5);
    // Canonical form sorts keys (json objects are ordered maps).
    EXPECT_EQ(variant.canonical(), "sabre:lookahead_decay=0.5,trials=8");

    const auto flag = tools::parse_tool_spec("lightsabre:bidirectional=false");
    EXPECT_FALSE(flag.options.at("bidirectional").as_bool());

    EXPECT_THROW((void)tools::parse_tool_spec("sabre:trials"), std::invalid_argument);
    EXPECT_THROW((void)tools::parse_tool_spec("sabre:=8"), std::invalid_argument);
    EXPECT_THROW((void)tools::parse_tool_spec("sabre:trials=two"), std::invalid_argument);
    EXPECT_THROW((void)tools::parse_tool_spec("sabre:bidirectional=maybe"),
                 std::invalid_argument);
    EXPECT_THROW((void)tools::parse_tool_spec("sabre:unknown_knob=1"), std::invalid_argument);
    // strtod reads these; a knob value must still be a finite number.
    for (const char* bad : {"nan", "inf", "-inf"}) {
        EXPECT_THROW((void)tools::parse_tool_spec(std::string("sabre:lookahead_decay=") + bad),
                     std::invalid_argument)
            << bad;
    }
    // A repeated key is a typo, not a last-one-wins silent override.
    EXPECT_THROW((void)tools::parse_tool_spec("sabre:trials=100,trials=1"),
                 std::invalid_argument);
}

TEST(tools_registry, describe_output_snapshot) {
    // `qubikos_cli tools describe` is part of the workflow (specs and
    // --tool selectors are written against it), so its shape is pinned.
    EXPECT_EQ(
        tools::describe_tool("qmap"),
        "tool qmap: layered A* swap search with greedy fallback (QMAP, Zulehner/Wille)\n"
        "| option           | type | default | doc                                         "
        "                           |\n"
        "|------------------|------|---------|---------------------------------------------"
        "---------------------------|\n"
        "| node_limit       | int  | 20000   | A* node budget per layer before falling back"
        " to greedy routing         |\n"
        "| lookahead_weight | real | 0.75    | weight of the next-layer lookahead term (0 "
        "disables it)                |\n"
        "| placement_window | int  | 25      | leading two-qubit gates the initial placemen"
        "t sees (0 = whole circuit) |\n");

    const std::string table = tools::render_tool_table();
    for (const auto& name : tools::registered_tool_names()) {
        EXPECT_NE(table.find(name), std::string::npos) << name;
    }
}

TEST(tools_registry, json_dump_snapshot) {
    // `tools describe --json` and the serve protocol's "tools" op are
    // machine-readable interfaces: clients parse them, so the document
    // is byte-deterministic and its shape is pinned (one full tool, plus
    // the envelope).
    EXPECT_EQ(
        tools::tool_info_to_json(tools::tool_registry_info("qmap")).dump(),
        "{\"doc\":\"layered A* swap search with greedy fallback (QMAP, Zulehner/Wille)\","
        "\"name\":\"qmap\",\"options\":["
        "{\"default\":20000,\"doc\":\"A* node budget per layer before falling back to "
        "greedy routing\",\"key\":\"node_limit\",\"kind\":\"int\",\"maximum\":2147483647,"
        "\"minimum\":0},"
        "{\"default\":0.75,\"doc\":\"weight of the next-layer lookahead term (0 disables "
        "it)\",\"key\":\"lookahead_weight\",\"kind\":\"real\",\"maximum\":2147483647,"
        "\"minimum\":0},"
        "{\"default\":25,\"doc\":\"leading two-qubit gates the initial placement sees "
        "(0 = whole circuit)\",\"key\":\"placement_window\",\"kind\":\"int\","
        "\"maximum\":2147483647,\"minimum\":0}]}");

    const json::value doc = tools::registry_to_json();
    EXPECT_EQ(doc.at("schema").as_string(), "qubikos.tools.v1");
    EXPECT_EQ(doc.at("tools").as_array().size(), tools::registered_tool_names().size());
    // Byte-determinism: two dumps agree, and the whole document (every
    // tool's keys, kinds, defaults, docs, ranges and order) is pinned by
    // its digest.
    EXPECT_EQ(doc.dump(), tools::registry_to_json().dump());
    EXPECT_EQ(campaign::content_fingerprint(doc.dump()), "915e201a14e11224");

    // Boolean options omit the numeric range keys instead of emitting a
    // meaningless [0, INT32_MAX].
    const json::value sabre = tools::tool_info_to_json(tools::tool_registry_info("sabre"));
    for (const auto& option : sabre.at("options").as_array()) {
        const bool is_bool = option.at("kind").as_string() == "bool";
        EXPECT_EQ(option.contains("minimum"), !is_bool) << option.at("key").as_string();
        EXPECT_EQ(option.contains("maximum"), !is_bool) << option.at("key").as_string();
    }
}

TEST(tools_registry, table_invariants) {
    const auto names = tools::registered_tool_names();
    EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(), names.size());
    // Every tool is self-describing (a doc line and a typed schema), and
    // every default is of its declared kind and within its own
    // [minimum, maximum]: the full default object resolves cleanly.
    for (const auto& name : names) {
        const auto& info = tools::tool_registry_info(name);
        EXPECT_FALSE(info.doc.empty()) << name;
        EXPECT_FALSE(info.options.empty()) << name;
        json::object defaults;
        for (const auto& option : info.options) defaults[option.key] = option.default_value;
        EXPECT_NO_THROW((void)tools::resolve_options(info, json::value(std::move(defaults))))
            << name;
    }
}

}  // namespace
}  // namespace qubikos
