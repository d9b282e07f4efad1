// Unit tests for the JSON parser/serialiser.
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace mcs {
namespace {

TEST(Json, DefaultIsNull) {
    const Json j;
    EXPECT_TRUE(j.is_null());
    EXPECT_EQ(j.dump(), "null");
}

TEST(Json, Scalars) {
    EXPECT_EQ(Json(true).dump(), "true");
    EXPECT_EQ(Json(false).dump(), "false");
    EXPECT_EQ(Json(42).dump(), "42");
    EXPECT_EQ(Json(2.5).dump(), "2.5");
    EXPECT_EQ(Json(-3).dump(), "-3");
    EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, TypedAccessorsThrowOnMismatch) {
    const Json j(1.5);
    EXPECT_DOUBLE_EQ(j.as_number(), 1.5);
    EXPECT_THROW(j.as_bool(), Error);
    EXPECT_THROW(j.as_string(), Error);
    EXPECT_THROW(j.at("k"), Error);
    EXPECT_THROW(j.at(std::size_t{0}), Error);
}

TEST(Json, ArrayBuildAndAccess) {
    Json a = Json::array();
    a.push_back(1);
    a.push_back("two");
    a.push_back(Json::array());
    EXPECT_EQ(a.size(), 3u);
    EXPECT_DOUBLE_EQ(a.at(std::size_t{0}).as_number(), 1.0);
    EXPECT_EQ(a.at(1).as_string(), "two");
    EXPECT_THROW(a.at(3), Error);
    EXPECT_EQ(a.dump(), "[1,\"two\",[]]");
}

TEST(Json, ObjectPreservesInsertionOrder) {
    Json o = Json::object();
    o["zeta"] = 1;
    o["alpha"] = 2;
    o["mid"] = 3;
    ASSERT_EQ(o.keys().size(), 3u);
    EXPECT_EQ(o.keys()[0], "zeta");
    EXPECT_EQ(o.keys()[2], "mid");
    EXPECT_EQ(o.dump(), "{\"zeta\":1,\"alpha\":2,\"mid\":3}");
}

TEST(Json, ObjectAutovivifiesFromNull) {
    Json j;  // null
    j["key"] = "value";
    EXPECT_TRUE(j.is_object());
    EXPECT_EQ(j.at("key").as_string(), "value");
    EXPECT_TRUE(j.contains("key"));
    EXPECT_FALSE(j.contains("other"));
    EXPECT_THROW(j.at("other"), Error);
}

TEST(Json, DefaultedLookups) {
    Json o = Json::object();
    o["present"] = 7;
    EXPECT_DOUBLE_EQ(o.number_or("present", 1.0), 7.0);
    EXPECT_DOUBLE_EQ(o.number_or("absent", 1.0), 1.0);
    EXPECT_TRUE(o.bool_or("absent", true));
    EXPECT_EQ(o.string_or("absent", "d"), "d");
}

TEST(Json, StringEscaping) {
    const Json j("line\n\"quoted\"\\tab\t");
    const std::string dumped = j.dump();
    EXPECT_EQ(dumped, "\"line\\n\\\"quoted\\\"\\\\tab\\t\"");
    EXPECT_EQ(Json::parse(dumped).as_string(), j.as_string());
}

TEST(Json, PrettyPrint) {
    Json o = Json::object();
    o["a"] = 1;
    Json arr = Json::array();
    arr.push_back(2);
    o["b"] = arr;
    EXPECT_EQ(o.dump(2), "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
}

TEST(Json, ParseScalars) {
    EXPECT_TRUE(Json::parse("null").is_null());
    EXPECT_TRUE(Json::parse(" true ").as_bool());
    EXPECT_FALSE(Json::parse("false").as_bool());
    EXPECT_DOUBLE_EQ(Json::parse("-12.5e2").as_number(), -1250.0);
    EXPECT_EQ(Json::parse("\"s\"").as_string(), "s");
}

TEST(Json, ParseNested) {
    const Json j = Json::parse(
        R"({"name":"run1","params":{"alpha":0.2,"tags":["a","b"]},"ok":true})");
    EXPECT_EQ(j.at("name").as_string(), "run1");
    EXPECT_DOUBLE_EQ(j.at("params").at("alpha").as_number(), 0.2);
    EXPECT_EQ(j.at("params").at("tags").at(1).as_string(), "b");
    EXPECT_TRUE(j.at("ok").as_bool());
}

TEST(Json, ParseUnicodeEscapes) {
    EXPECT_EQ(Json::parse("\"\\u0041\"").as_string(), "A");
    EXPECT_EQ(Json::parse("\"\\u00e9\"").as_string(), "\xc3\xa9");  // é
    EXPECT_EQ(Json::parse("\"\\u20ac\"").as_string(),
              "\xe2\x82\xac");  // €
}

TEST(Json, ParseRejectsMalformedInput) {
    EXPECT_THROW(Json::parse(""), Error);
    EXPECT_THROW(Json::parse("{"), Error);
    EXPECT_THROW(Json::parse("[1,]"), Error);
    EXPECT_THROW(Json::parse("{\"a\":}"), Error);
    EXPECT_THROW(Json::parse("\"unterminated"), Error);
    EXPECT_THROW(Json::parse("truefalse"), Error);
    EXPECT_THROW(Json::parse("1 2"), Error);
    EXPECT_THROW(Json::parse("nul"), Error);
    EXPECT_THROW(Json::parse("1.2.3"), Error);
}

TEST(Json, ParseRefusesNestingBeyondTheCap) {
    // A million unclosed '[' once overflowed the parser's stack. It must
    // stop at the depth cap with an mcs::Error naming the offset.
    try {
        Json::parse(std::string(1000000, '['));
        ADD_FAILURE() << "a 1,000,000-deep document parsed";
    } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("nesting deeper than 512 levels at offset 512"),
                  std::string::npos)
            << what;
    }
    std::string objects;
    for (int level = 0; level < 1000000; ++level) {
        objects += "{\"a\":";
    }
    EXPECT_THROW(Json::parse(objects), Error);

    // Exactly kMaxParseDepth levels still parse; one more does not.
    const std::size_t cap = Json::kMaxParseDepth;
    const std::string at_cap = std::string(cap, '[') + std::string(cap, ']');
    EXPECT_EQ(Json::parse(at_cap).dump(), at_cap);
    EXPECT_THROW(Json::parse("[" + at_cap + "]"), Error);
}

TEST(Json, RoundTripProperty) {
    Json o = Json::object();
    o["numbers"] = Json::array();
    for (int k = 0; k < 10; ++k) {
        o["numbers"].push_back(k * 0.1);
    }
    o["nested"] = Json::object();
    o["nested"]["deep"] = Json::array();
    o["nested"]["deep"].push_back("x");
    o["nested"]["flag"] = false;
    const Json reparsed = Json::parse(o.dump());
    EXPECT_TRUE(reparsed == o);
    const Json reparsed_pretty = Json::parse(o.dump(4));
    EXPECT_TRUE(reparsed_pretty == o);
}

TEST(Json, FileRoundTrip) {
    Json o = Json::object();
    o["experiment"] = "itscs";
    o["precision"] = 0.985;
    const std::string path = "/tmp/mcs_json_test.json";
    write_json_file(path, o);
    const Json loaded = read_json_file(path);
    EXPECT_TRUE(loaded == o);
    EXPECT_THROW(read_json_file("/nonexistent/x.json"), Error);
}

TEST(Json, NanRejectedOnDump) {
    const Json j(std::nan(""));
    EXPECT_THROW(j.dump(), Error);
}

// Property: randomly generated documents survive dump -> parse intact,
// both compact and pretty-printed.
class JsonRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

namespace {
Json random_json(Rng& rng, int depth) {
    const int kind = static_cast<int>(rng.uniform_int(0, depth > 2 ? 3 : 5));
    switch (kind) {
        case 0:
            return Json();
        case 1:
            return Json(rng.bernoulli(0.5));
        case 2:
            return Json(rng.uniform(-1e6, 1e6));
        case 3: {
            std::string s;
            const auto len = rng.uniform_int(0, 12);
            for (int k = 0; k < len; ++k) {
                s.push_back(static_cast<char>(rng.uniform_int(32, 126)));
            }
            return Json(s);
        }
        case 4: {
            Json a = Json::array();
            const auto len = rng.uniform_int(0, 4);
            for (int k = 0; k < len; ++k) {
                a.push_back(random_json(rng, depth + 1));
            }
            return a;
        }
        default: {
            Json o = Json::object();
            const auto len = rng.uniform_int(0, 4);
            for (int k = 0; k < len; ++k) {
                o["k" + std::to_string(k)] = random_json(rng, depth + 1);
            }
            return o;
        }
    }
}
}  // namespace

TEST_P(JsonRoundTrip, DumpParseIdentity) {
    Rng rng(GetParam());
    for (int trial = 0; trial < 20; ++trial) {
        const Json document = random_json(rng, 0);
        EXPECT_TRUE(Json::parse(document.dump()) == document);
        EXPECT_TRUE(Json::parse(document.dump(2)) == document);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundTrip,
                         ::testing::Range<std::uint64_t>(1, 7));

}  // namespace
}  // namespace mcs
