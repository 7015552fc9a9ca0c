// Tests for src/util: rng determinism, JSON round trips, table
// formatting.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace qubikos {
namespace {

TEST(rng, deterministic_for_equal_seeds) {
    rng a(42), b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(rng, different_seeds_diverge) {
    rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i) {
        if (a() == b()) ++equal;
    }
    EXPECT_LT(equal, 3);
}

TEST(rng, below_respects_bound) {
    rng r(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
        for (int i = 0; i < 200; ++i) EXPECT_LT(r.below(bound), bound);
    }
    EXPECT_THROW(r.below(0), std::invalid_argument);
}

TEST(rng, below_hits_every_value) {
    rng r(3);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i) seen.insert(r.below(5));
    EXPECT_EQ(seen.size(), 5u);
}

TEST(rng, range_inclusive) {
    rng r(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 500; ++i) {
        const int v = r.range(2, 4);
        EXPECT_GE(v, 2);
        EXPECT_LE(v, 4);
        saw_lo = saw_lo || v == 2;
        saw_hi = saw_hi || v == 4;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
    EXPECT_THROW(r.range(3, 2), std::invalid_argument);
}

TEST(rng, permutation_is_valid) {
    rng r(11);
    const auto p = r.permutation(20);
    std::set<int> values(p.begin(), p.end());
    EXPECT_EQ(values.size(), 20u);
    EXPECT_EQ(*values.begin(), 0);
    EXPECT_EQ(*values.rbegin(), 19);
}

TEST(rng, uniform_in_unit_interval) {
    rng r(13);
    for (int i = 0; i < 1000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(rng, pick_rejects_empty) {
    rng r(1);
    std::vector<int> empty;
    EXPECT_THROW(r.pick(empty), std::invalid_argument);
}

TEST(json, scalar_round_trip) {
    EXPECT_EQ(json::parse("42").as_int(), 42);
    EXPECT_EQ(json::parse("-3.5").as_number(), -3.5);
    EXPECT_TRUE(json::parse("true").as_bool());
    EXPECT_FALSE(json::parse("false").as_bool());
    EXPECT_TRUE(json::parse("null").is_null());
    EXPECT_EQ(json::parse("\"hi\\nthere\"").as_string(), "hi\nthere");
}

TEST(json, object_round_trip) {
    json::object obj;
    obj["name"] = "qubikos";
    obj["count"] = 5;
    obj["values"] = json::array{1, 2, 3};
    json::object nested;
    nested["flag"] = true;
    obj["nested"] = json::object(nested);
    const json::value original{std::move(obj)};

    const json::value reparsed = json::parse(original.dump());
    EXPECT_EQ(reparsed.at("name").as_string(), "qubikos");
    EXPECT_EQ(reparsed.at("count").as_int(), 5);
    EXPECT_EQ(reparsed.at("values").as_array().size(), 3u);
    EXPECT_TRUE(reparsed.at("nested").at("flag").as_bool());

    // Pretty printing parses back equally.
    const json::value pretty = json::parse(original.dump(2));
    EXPECT_EQ(pretty.at("count").as_int(), 5);
}

TEST(json, parse_errors) {
    EXPECT_THROW(json::parse(""), json::error);
    EXPECT_THROW(json::parse("{"), json::error);
    EXPECT_THROW(json::parse("[1,]"), json::error);
    EXPECT_THROW(json::parse("tru"), json::error);
    EXPECT_THROW(json::parse("42 garbage"), json::error);
    EXPECT_THROW(json::parse("\"unterminated"), json::error);
}

TEST(json, nesting_deeper_than_the_cap_throws) {
    // 64 levels parse; one more, or a hostile 100k-deep line, throws
    // instead of overflowing the stack.
    EXPECT_NO_THROW(json::parse(std::string(64, '[') + std::string(64, ']')));
    EXPECT_THROW(json::parse(std::string(65, '[') + std::string(65, ']')), json::error);
    EXPECT_THROW(json::parse(std::string(100000, '[')), json::error);
    std::string objects;
    for (int i = 0; i < 65; ++i) objects += "{\"k\":";
    objects += "0" + std::string(65, '}');
    EXPECT_THROW(json::parse(objects), json::error);
}

TEST(json, duplicate_keys_throw) {
    EXPECT_THROW(json::parse("{\"tool\":\"tket\",\"tool\":\"sabre\"}"), json::error);
    EXPECT_THROW(json::parse("{\"a\":{\"b\":1,\"b\":1}}"), json::error);
    // The same key in sibling objects is fine.
    EXPECT_NO_THROW(json::parse("[{\"a\":1},{\"a\":2}]"));
}

TEST(json, type_errors) {
    const json::value v = json::parse("[1]");
    EXPECT_THROW((void)v.as_object(), json::error);
    EXPECT_THROW((void)v.at("x"), json::error);
    EXPECT_FALSE(v.contains("x"));
}

TEST(json, escapes_special_characters) {
    const json::value v{std::string("a\"b\\c\td")};
    EXPECT_EQ(json::parse(v.dump()).as_string(), "a\"b\\c\td");
}

TEST(table, aligns_columns) {
    ascii_table t({"x", "long header"});
    t.add("value", 1);
    const std::string text = t.str();
    EXPECT_NE(text.find("| x "), std::string::npos);
    EXPECT_NE(text.find("| long header "), std::string::npos);
    EXPECT_THROW(t.add_row({"too", "many", "cells"}), std::invalid_argument);
}

}  // namespace
}  // namespace qubikos
