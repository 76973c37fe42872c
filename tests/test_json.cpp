/**
 * @file
 * The common JSON layer: building, dumping, escaping, parsing, and the
 * hostile-input defenses the wire protocol depends on.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "common/json.hpp"
#include "test_helpers.hpp"

namespace mse {
namespace {

TEST(Json, BuildAndDumpCompact)
{
    JsonValue j = JsonValue::object();
    j["name"] = "gemm";
    j["n"] = 42;
    j["pi"] = 3.5;
    j["ok"] = true;
    j["none"] = JsonValue();
    JsonValue &arr = j["xs"];
    arr = JsonValue::array();
    arr.push(1);
    arr.push(2);
    EXPECT_EQ(j.dump(),
              "{\"name\":\"gemm\",\"n\":42,\"pi\":3.5,\"ok\":true,"
              "\"none\":null,\"xs\":[1,2]}");
}

TEST(Json, InsertionOrderPreserved)
{
    JsonValue j = JsonValue::object();
    j["z"] = 1;
    j["a"] = 2;
    j["m"] = 3;
    const auto &m = j.members();
    ASSERT_EQ(m.size(), 3u);
    EXPECT_EQ(m[0].first, "z");
    EXPECT_EQ(m[1].first, "a");
    EXPECT_EQ(m[2].first, "m");
}

TEST(Json, StringEscaping)
{
    EXPECT_EQ(jsonEscaped("a\"b\\c\n\t\x01"),
              "a\\\"b\\\\c\\n\\t\\u0001");
    JsonValue j = JsonValue::object();
    j["k\"ey"] = "v\\al\nue";
    const auto parsed = parseJson(j.dump());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->getString("k\"ey", ""), "v\\al\nue");
}

TEST(Json, NumberRoundTrip)
{
    for (const double v :
         {0.0, -1.0, 42.0, 1e-300, 1e300, 1.0 / 3.0, 6.02214076e23,
          302419674.8642532, 9007199254740992.0}) {
        JsonValue j = JsonValue::object();
        j["v"] = v;
        const auto parsed = parseJson(j.dump());
        ASSERT_TRUE(parsed.has_value()) << j.dump();
        EXPECT_EQ(parsed->getDouble("v", -1.0), v) << j.dump();
    }
}

TEST(Json, IntegersPrintWithoutDecimalPoint)
{
    JsonValue j = JsonValue::object();
    j["v"] = static_cast<uint64_t>(524288);
    EXPECT_EQ(j.dump(), "{\"v\":524288}");
}

TEST(Json, NonFiniteBecomesNull)
{
    JsonValue j = JsonValue::object();
    j["inf"] = std::numeric_limits<double>::infinity();
    j["nan"] = std::nan("");
    EXPECT_EQ(j.dump(), "{\"inf\":null,\"nan\":null}");
}

TEST(Json, ParseBasics)
{
    const auto j = parseJson(
        " { \"a\" : [ 1 , -2.5e1 , \"x\" , true , null ] } ");
    ASSERT_TRUE(j.has_value());
    const JsonValue *a = j->find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->isArray());
    ASSERT_EQ(a->items().size(), 5u);
    EXPECT_EQ(a->items()[0].asDouble(), 1.0);
    EXPECT_EQ(a->items()[1].asDouble(), -25.0);
    EXPECT_EQ(a->items()[2].asString(""), "x");
    EXPECT_TRUE(a->items()[3].asBool(false));
    EXPECT_TRUE(a->items()[4].isNull());
}

TEST(Json, ParseUnicodeEscapes)
{
    const auto j = parseJson("{\"s\":\"\\u0041\\u00e9\\ud83d\\ude00\"}");
    ASSERT_TRUE(j.has_value());
    EXPECT_EQ(j->getString("s", ""), "A\xc3\xa9\xf0\x9f\x98\x80");
}

TEST(Json, MalformedInputsRejectedWithError)
{
    for (const char *bad :
         {"", "{", "}", "[1,", "{\"a\":}", "{\"a\" 1}", "tru",
          "\"unterminated", "{\"a\":1} trailing", "1e", "--2",
          "[1 2]", "{\"a\":1,}", "nulll", "\"bad \\x escape\"",
          "\"lone surrogate \\ud800\"", "\"raw\tcontrol\""}) {
        std::string err;
        EXPECT_FALSE(parseJson(bad, &err).has_value()) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
}

TEST(Json, DepthLimitStopsNestingBombs)
{
    std::string deep;
    for (int i = 0; i < 100; ++i)
        deep += '[';
    for (int i = 0; i < 100; ++i)
        deep += ']';
    EXPECT_FALSE(parseJson(deep).has_value());

    std::string ok = "[[[[[[[[[[1]]]]]]]]]]";
    EXPECT_TRUE(parseJson(ok).has_value());
}

TEST(Json, TypedGettersTolerateWrongTypes)
{
    const auto j = parseJson("{\"s\":\"x\",\"n\":3}");
    ASSERT_TRUE(j.has_value());
    EXPECT_EQ(j->getDouble("s", 7.0), 7.0);
    EXPECT_EQ(j->getString("n", "d"), "d");
    EXPECT_EQ(j->getInt("missing", 9), 9);
    // Null-tolerant chaining: find on a non-object is nullptr.
    EXPECT_EQ(j->find("s")->find("inner"), nullptr);
}

TEST(Json, WriteJsonFilePrettyRoundTrip)
{
    JsonValue doc = JsonValue::object();
    doc["total"] = 3;
    JsonValue &layers = doc["layers"];
    layers = JsonValue::array();
    for (int i = 0; i < 3; ++i) {
        JsonValue row = JsonValue::object();
        row["index"] = i;
        row["edp"] = 1.5 * i;
        layers.push(std::move(row));
    }
    const std::string path = test::tempPath("mse_test_json_out.json");
    ASSERT_TRUE(writeJsonFile(path, doc));

    FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::string text;
    int c;
    while ((c = std::fgetc(f)) != EOF)
        text += static_cast<char>(c);
    std::fclose(f);
    std::remove(path.c_str());

    EXPECT_EQ(text.back(), '\n');
    const auto parsed = parseJson(text);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->getInt("total", 0), 3);
    EXPECT_EQ(parsed->find("layers")->items()[2].getDouble("edp", 0.0),
              3.0);
}

} // namespace
} // namespace mse
