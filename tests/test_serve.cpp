// Routing-service tests: the typed request API, the engine's context
// cache, and the socket server.
//
// The load-bearing guarantees:
//   - a served response is byte-identical to the direct engine/CLI
//     execution of the same request (one code path, pinned here);
//   - malformed requests are rejected loudly with the right structured
//     error code, and never take the server down;
//   - the context cache is purely an optimization (identical responses
//     cached, cold, or evicting) and caches by identity (same
//     shared_ptr on a hit);
//   - concurrent clients each get their own responses, in their own
//     request order, and a client that stops reading stalls no other;
//   - stop() drains: every request a client got onto the wire before
//     shutdown is answered — unless the client has closed, in which
//     case its backlog is not executed.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "circuit/qasm.hpp"
#include "core/qubikos.hpp"
#include "serve/engine.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "tools/registry.hpp"
#include "util/json.hpp"

namespace qubikos {
namespace {

/// Blocking line-oriented client on one end of a socketpair.
class test_client {
public:
    explicit test_client(serve::server& srv) {
        int fds[2] = {-1, -1};
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        fd_ = fds[0];
        srv.add_client(fds[1]);
    }

    ~test_client() { close(); }

    void close() {
        if (fd_ >= 0) ::close(fd_);
        fd_ = -1;
    }

    void send_all(const std::string& bytes) {
        std::size_t off = 0;
        while (off < bytes.size()) {
            const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off, 0);
            ASSERT_GT(n, 0);
            off += static_cast<std::size_t>(n);
        }
    }

    void send_line(const std::string& line) { send_all(line + "\n"); }

    /// True once a response byte is ready to read within `timeout_ms`.
    bool readable_within(int timeout_ms) {
        pollfd p{fd_, POLLIN, 0};
        return ::poll(&p, 1, timeout_ms) == 1;
    }

    /// Reads one '\n'-terminated line (without the newline); "" on EOF.
    std::string read_line() {
        std::string line;
        char b = 0;
        for (;;) {
            const ssize_t n = ::recv(fd_, &b, 1, 0);
            if (n <= 0) return line;
            if (b == '\n') return line;
            line += b;
        }
    }

    void half_close() { ::shutdown(fd_, SHUT_WR); }

private:
    int fd_ = -1;
};

std::string route_line(const std::string& id, const std::string& device, int seed,
                       const std::string& extra = {}) {
    return "{\"id\":\"" + id + "\",\"op\":\"route\",\"device\":\"" + device +
           "\",\"tool\":\"lightsabre\",\"options\":{\"trials\":4},"
           "\"generate\":{\"swaps\":3,\"gates\":40,\"seed\":" +
           std::to_string(seed) + "}" + extra + "}";
}

serve::route_request direct_request(const std::string& id, const std::string& device,
                                    int seed) {
    serve::route_request req;
    req.id = id;
    req.device = device;
    req.tool = "lightsabre";
    json::object options;
    options["trials"] = 4;
    req.options = json::value(std::move(options));
    serve::generator_params gen;
    gen.swaps = 3;
    gen.gates = 40;
    gen.seed = static_cast<std::uint64_t>(seed);
    req.generate = gen;
    return req;
}

/// An inline-QASM route of a 40-qubit circuit — wider than aspen4's 16.
std::string wide_route_line(const std::string& id, const std::string& tool) {
    std::string qasm = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[40];\n";
    for (int q = 0; q + 1 < 40; ++q) {
        qasm += "cx q[" + std::to_string(q) + "],q[" + std::to_string(q + 1) + "];\n";
    }
    return "{\"id\":\"" + id + "\",\"op\":\"route\",\"device\":\"aspen4\",\"tool\":\"" +
           tool + "\",\"qasm\":" + json::quoted(qasm) + "}";
}

std::string error_code_of(const std::string& line) {
    return json::parse(line).at("error").at("code").as_string();
}

// --- request parsing / validation ------------------------------------------

TEST(serve_request, parses_a_full_route_request) {
    const auto req = serve::parse_request(route_line("a1", "grid4x4", 7));
    EXPECT_EQ(req.which, serve::op::route);
    EXPECT_EQ(req.id, "a1");
    EXPECT_EQ(req.route.device, "grid4x4");
    EXPECT_EQ(req.route.tool, "lightsabre");
    ASSERT_TRUE(req.route.generate.has_value());
    EXPECT_EQ(req.route.generate->swaps, 3);
    EXPECT_EQ(req.route.generate->seed, 7u);
    EXPECT_FALSE(req.route.timing);
}

TEST(serve_request, malformed_requests_carry_structured_codes) {
    serve::engine eng;
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"not json", "parse_error"},
        {"[1,2,3]", "parse_error"},
        {"{\"op\":\"route\"}", "bad_request"},                       // missing id
        {"{\"id\":\"\",\"op\":\"route\"}", "bad_request"},           // empty id
        {"{\"id\":\"x\",\"op\":\"frobnicate\"}", "unknown_op"},
        {"{\"id\":\"x\",\"op\":\"route\",\"device\":\"grid3x3\",\"tool\":\"nope\","
         "\"generate\":{\"swaps\":1}}",
         "unknown_tool"},
        {"{\"id\":\"x\",\"op\":\"route\",\"device\":\"grid3x3\",\"tool\":\"lightsabre\","
         "\"options\":{\"trails\":4},\"generate\":{\"swaps\":1}}",
         "bad_option"},  // unknown option key
        {"{\"id\":\"x\",\"op\":\"route\",\"device\":\"grid3x3\",\"tool\":\"lightsabre\","
         "\"options\":{\"trials\":true},\"generate\":{\"swaps\":1}}",
         "bad_option"},  // ill-typed option value
        {"{\"id\":\"x\",\"op\":\"route\",\"device\":\"grid3x3\",\"tool\":\"lightsabre\","
         "\"generate\":{\"swaps\":1.5}}",
         "bad_request"},  // non-integer generator field
        {"{\"id\":\"x\",\"op\":\"route\",\"device\":\"grid3x3\",\"tool\":\"lightsabre\"}",
         "bad_request"},  // neither qasm nor generate
        {"{\"id\":\"x\",\"op\":\"route\",\"device\":\"grid3x3\",\"tool\":\"lightsabre\","
         "\"qasm\":\"\",\"generate\":{\"swaps\":1}}",
         "bad_request"},  // both qasm and generate
        {"{\"id\":\"x\",\"op\":\"route\",\"device\":\"grid3x3\",\"tool\":\"lightsabre\","
         "\"generate\":{\"swaps\":1},\"frobnicate\":1}",
         "bad_request"},  // unknown top-level field
        {"{\"id\":\"x\",\"op\":\"tools\",\"extra\":true}", "bad_request"},
    };
    for (const auto& [line, code] : cases) {
        const std::string resp = serve::handle_line(eng, line);
        const auto doc = json::parse(resp);
        EXPECT_FALSE(doc.at("ok").as_bool()) << line;
        EXPECT_EQ(error_code_of(resp), code) << line;
    }
    // Validation failures after JSON parse still echo the request id.
    const std::string resp =
        serve::handle_line(eng, "{\"id\":\"echo-me\",\"op\":\"frobnicate\"}");
    EXPECT_EQ(json::parse(resp).at("id").as_string(), "echo-me");
}

TEST(serve_request, unknown_device_and_bad_qasm_reject_at_execution) {
    serve::engine eng;
    EXPECT_EQ(error_code_of(serve::handle_line(eng, route_line("x", "atlantis9000", 1))),
              "unknown_device");
    // A size that overflows is a malformed name like any other, not an
    // internal error.
    EXPECT_EQ(error_code_of(serve::handle_line(eng, route_line("x", "grid99999999999x2", 1))),
              "unknown_device");
    const std::string bad_qasm =
        "{\"id\":\"x\",\"op\":\"route\",\"device\":\"grid3x3\",\"tool\":\"lightsabre\","
        "\"qasm\":\"OPENQASM 2.0; garbage\"}";
    EXPECT_EQ(error_code_of(serve::handle_line(eng, bad_qasm)), "bad_request");
}

TEST(serve_request, circuit_wider_than_the_device_is_a_bad_request) {
    serve::engine eng;
    for (const auto& name : tools::registered_tool_names()) {
        EXPECT_EQ(error_code_of(serve::handle_line(eng, wide_route_line("w", name))),
                  "bad_request")
            << name;
    }
}

TEST(serve_request, response_is_deterministic_and_timing_is_opt_in) {
    serve::engine eng;
    const std::string a = serve::handle_line(eng, route_line("d1", "grid4x4", 7));
    const std::string b = serve::handle_line(eng, route_line("d1", "grid4x4", 7));
    EXPECT_EQ(a, b);  // byte-identical, no wall-clock noise
    EXPECT_EQ(a.find("seconds"), std::string::npos);

    const std::string timed =
        serve::handle_line(eng, route_line("d1", "grid4x4", 7, ",\"timing\":true"));
    EXPECT_NE(json::parse(timed).at("seconds").as_number(), -1.0);
}

TEST(serve_request, route_response_matches_direct_engine_execution) {
    serve::engine eng;
    const std::string wire = serve::handle_line(eng, route_line("m1", "grid4x4", 7));
    const std::string direct = eng.route(direct_request("m1", "grid4x4", 7)).to_json().dump();
    EXPECT_EQ(wire, direct);

    // And the response is truthful: re-derive the expected swap count
    // with a hand-built tool over the same instance.
    core::generator_options gen;
    gen.num_swaps = 3;
    gen.total_two_qubit_gates = 40;
    gen.seed = 7;
    const auto device = arch::by_name("grid4x4");
    const auto instance = core::generate(device, gen);
    json::object options;
    options["trials"] = 4;
    const auto tool = tools::make_tool("lightsabre", json::value(std::move(options)));
    const auto routed = tool.route(instance.logical, device.coupling, nullptr, nullptr);
    EXPECT_EQ(json::parse(wire).at("swaps").as_number(),
              static_cast<double>(routed.swap_count()));
    EXPECT_TRUE(json::parse(wire).at("legal").as_bool());
}

TEST(serve_request, emit_qasm_round_trips_the_routed_circuit) {
    serve::engine eng;
    const std::string wire =
        serve::handle_line(eng, route_line("q1", "grid3x3", 3, ",\"emit_qasm\":true"));
    const auto doc = json::parse(wire);
    const circuit physical = qasm::parse(doc.at("qasm").as_string());
    EXPECT_EQ(static_cast<double>(physical.num_swap_gates()), doc.at("swaps").as_number());
}

TEST(serve_request, tools_op_returns_the_registry_document) {
    serve::engine eng;
    const std::string wire = serve::handle_line(eng, "{\"id\":\"t\",\"op\":\"tools\"}");
    const auto doc = json::parse(wire);
    EXPECT_TRUE(doc.at("ok").as_bool());
    EXPECT_EQ(doc.at("registry").dump(), tools::registry_to_json().dump());
}

TEST(serve_request, certify_op_confirms_generated_instances) {
    serve::engine eng;
    const std::string wire = serve::handle_line(
        eng,
        "{\"id\":\"c\",\"op\":\"certify\",\"device\":\"grid3x3\","
        "\"generate\":{\"swaps\":2,\"gates\":20,\"seed\":1}}");
    const auto doc = json::parse(wire);
    EXPECT_TRUE(doc.at("ok").as_bool());
    EXPECT_TRUE(doc.at("confirmed").as_bool());
    EXPECT_EQ(doc.at("declared_swaps").as_number(), 2.0);
    EXPECT_EQ(doc.at("solver_swaps").as_number(), 2.0);
}

// --- engine context cache ---------------------------------------------------

TEST(serve_engine, context_cache_hits_by_identity_and_evicts_lru) {
    serve::engine_options options;
    options.max_cached_devices = 2;
    serve::engine eng(options);

    const auto a1 = eng.device_for("grid3x3");
    const auto a2 = eng.device_for("grid3x3");
    EXPECT_EQ(a1.get(), a2.get());  // cache hit = same entry
    EXPECT_EQ(a1->context.get(), a2->context.get());

    const auto b = eng.device_for("grid4x4");
    (void)b;
    const auto c = eng.device_for("line5");  // evicts grid3x3 (LRU)
    (void)c;
    const auto a3 = eng.device_for("grid3x3");
    EXPECT_NE(a1.get(), a3.get());  // rebuilt after eviction

    const auto stats = eng.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 4u);
    EXPECT_EQ(stats.evictions, 2u);
}

TEST(serve_engine, unknown_device_evicts_nothing) {
    serve::engine_options options;
    options.max_cached_devices = 2;
    serve::engine eng(options);
    const std::vector<std::string> devices = {"grid3x3", "grid4x4"};
    std::vector<std::shared_ptr<const serve::engine::device_entry>> entries;
    for (const auto& d : devices) entries.push_back(eng.device_for(d));
    const auto before = eng.stats();

    for (int attempt = 0; attempt < 2; ++attempt) {
        try {
            (void)eng.device_for("no_such_device");
            ADD_FAILURE() << "unknown device resolved";
        } catch (const serve::request_error& e) {
            EXPECT_EQ(e.code(), serve::error_code::unknown_device) << attempt;
        }
    }
    for (std::size_t i = 0; i < devices.size(); ++i) {
        EXPECT_EQ(eng.device_for(devices[i]).get(), entries[i].get()) << devices[i];
    }
    const auto after = eng.stats();
    EXPECT_EQ(after.hits, before.hits + devices.size());
    EXPECT_EQ(after.evictions, before.evictions);
}

TEST(serve_engine, concurrent_misses_share_one_build) {
    serve::engine eng;
    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const serve::engine::device_entry>> got(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            got[static_cast<std::size_t>(t)] = eng.device_for("grid20x20");
        });
    }
    for (auto& t : threads) t.join();
    for (const auto& entry : got) EXPECT_EQ(entry.get(), got.front().get());
    const auto stats = eng.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kThreads - 1));
}

TEST(serve_engine, responses_identical_with_cache_on_and_off) {
    serve::engine cached;
    serve::engine_options cold_options;
    cold_options.cache_contexts = false;
    serve::engine cold(cold_options);

    for (const char* device : {"grid4x4", "grid3x3", "grid4x4"}) {
        const std::string line = route_line("x", device, 5);
        EXPECT_EQ(serve::handle_line(cached, line), serve::handle_line(cold, line)) << device;
    }
    EXPECT_EQ(cold.stats().hits, 0u);
    EXPECT_GT(cached.stats().hits, 0u);
}

// --- socket server ----------------------------------------------------------

TEST(serve_server, round_trips_requests_and_rejects_oversized_lines) {
    serve::engine eng;
    serve::server_options options;
    options.max_line_bytes = 4096;
    serve::server srv(eng, options);
    test_client client(srv);

    const std::string line = route_line("s1", "grid4x4", 7);
    client.send_line(line);
    EXPECT_EQ(client.read_line(), serve::handle_line(eng, line));

    client.send_line(std::string(5000, 'x'));
    EXPECT_EQ(error_code_of(client.read_line()), "oversized_line");

    // The connection survived the oversized line; framing is intact.
    client.send_line(line);
    EXPECT_EQ(client.read_line(), serve::handle_line(eng, line));
}

TEST(serve_server, hostile_lines_get_error_envelopes_and_the_connection_survives) {
    serve::engine eng;
    serve::server srv(eng, {});  // the default 1 MiB line cap
    test_client client(srv);
    const std::string line = route_line("h1", "aspen4", 7);
    const std::vector<std::pair<std::string, std::string>> hostile = {
        {std::string(200000, '['), "parse_error"},  // nesting past the parser's cap
        // A duplicate key would hide one of its values.
        {"{\"id\":\"d\",\"op\":\"route\",\"device\":\"aspen4\",\"tool\":\"tket\","
         "\"tool\":\"nosuchtool\",\"generate\":{\"swaps\":1}}",
         "parse_error"},
        {wide_route_line("w", "mlqls"), "bad_request"},
    };
    for (const auto& [request, code] : hostile) {
        client.send_line(request);
        EXPECT_EQ(error_code_of(client.read_line()), code) << request.substr(0, 80);
        client.send_line(line);
        EXPECT_EQ(client.read_line(), serve::handle_line(eng, line));
    }
}

TEST(serve_server, concurrent_clients_get_ordered_matching_responses) {
    serve::engine eng;
    serve::server srv(eng);
    constexpr int kClients = 4;
    constexpr int kRequests = 6;

    // Expected bytes computed directly, before any serving.
    serve::engine reference;
    std::vector<std::vector<std::string>> expected(kClients);
    for (int c = 0; c < kClients; ++c) {
        for (int r = 0; r < kRequests; ++r) {
            const std::string device = (c + r) % 2 == 0 ? "grid4x4" : "grid3x3";
            expected[c].push_back(serve::handle_line(
                reference, route_line("c" + std::to_string(c) + "-" + std::to_string(r),
                                      device, c * 10 + r + 1)));
        }
    }

    std::vector<std::unique_ptr<test_client>> clients;
    for (int c = 0; c < kClients; ++c) clients.push_back(std::make_unique<test_client>(srv));
    std::vector<std::thread> threads;
    std::vector<int> mismatches(kClients, 0);
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            for (int r = 0; r < kRequests; ++r) {
                const std::string device = (c + r) % 2 == 0 ? "grid4x4" : "grid3x3";
                clients[static_cast<std::size_t>(c)]->send_line(
                    route_line("c" + std::to_string(c) + "-" + std::to_string(r), device,
                               c * 10 + r + 1));
            }
            // Responses come back in request order, bit-for-bit equal to
            // the direct execution.
            for (int r = 0; r < kRequests; ++r) {
                if (clients[static_cast<std::size_t>(c)]->read_line() !=
                    expected[static_cast<std::size_t>(c)][static_cast<std::size_t>(r)]) {
                    ++mismatches[static_cast<std::size_t>(c)];
                }
            }
        });
    }
    for (auto& t : threads) t.join();
    for (int c = 0; c < kClients; ++c) EXPECT_EQ(mismatches[static_cast<std::size_t>(c)], 0);
    EXPECT_EQ(srv.requests_served(), static_cast<std::uint64_t>(kClients * kRequests));
}

TEST(serve_server, stop_drains_queued_requests_before_closing) {
    serve::engine eng;
    serve::server srv(eng);
    test_client client(srv);

    serve::engine reference;
    constexpr int kRequests = 8;
    std::vector<std::string> expected;
    for (int r = 0; r < kRequests; ++r) {
        expected.push_back(
            serve::handle_line(reference, route_line("k" + std::to_string(r), "grid3x3", r + 1)));
    }
    for (int r = 0; r < kRequests; ++r) {
        client.send_line(route_line("k" + std::to_string(r), "grid3x3", r + 1));
    }
    client.half_close();  // everything is on the wire
    srv.stop();           // must answer all of it before closing

    for (int r = 0; r < kRequests; ++r) {
        EXPECT_EQ(client.read_line(), expected[static_cast<std::size_t>(r)]) << r;
    }
    EXPECT_EQ(client.read_line(), "");  // then EOF
}

TEST(serve_server, a_client_that_never_reads_does_not_stall_others) {
    serve::engine eng;
    serve::server srv(eng);
    test_client flooder(srv);
    test_client other(srv);

    // ~4 KB responses: a few dozen fill a socket buffer, so the flooder's
    // connection ends up blocked writing while most of its requests are
    // still unread. The ~50 KB of request bytes go out in one send and fit
    // the send buffer.
    constexpr int kFlood = 300;
    std::string flood;
    for (int r = 0; r < kFlood; ++r) {
        flood += "{\"id\":\"f" + std::to_string(r) +
                 "\",\"op\":\"route\",\"device\":\"grid5x5\",\"tool\":\"lightsabre\","
                 "\"options\":{\"trials\":4},\"generate\":{\"swaps\":3,\"gates\":200,"
                 "\"seed\":" +
                 std::to_string(r + 1) + "},\"emit_qasm\":true}\n";
    }
    flooder.send_all(flood);
    // Its first response proves the server is busy with the flood; from
    // here on the flooder reads nothing.
    EXPECT_EQ(json::parse(flooder.read_line()).at("id").as_string(), "f0");

    const std::string line = route_line("o", "grid3x3", 1);
    other.send_line(line);
    ASSERT_TRUE(other.readable_within(20000)) << "stalled behind a client that never reads";
    EXPECT_EQ(other.read_line(), serve::handle_line(eng, line));
    flooder.close();  // stop() would otherwise wait to flush its responses
}

TEST(serve_server, closed_client_backlog_is_not_executed) {
    serve::engine eng;
    serve::server srv(eng);
    constexpr int kRequests = 50;
    {
        test_client client(srv);
        std::string backlog;
        for (int r = 0; r < kRequests; ++r) {
            backlog += route_line("z" + std::to_string(r), "grid3x3", r + 1) + "\n";
        }
        client.send_all(backlog);
    }  // closed without reading a single response
    srv.stop();
    EXPECT_LT(srv.requests_served(), static_cast<std::uint64_t>(kRequests));
}

}  // namespace
}  // namespace qubikos
