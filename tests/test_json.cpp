/**
 * @file
 * Unit tests for the dependency-free JSON writer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "sim/json.h"
#include "sim/json_parse.h"

namespace {

TEST(JsonEscape, QuotesBackslashesAndControls)
{
    EXPECT_EQ(sim::jsonEscape("plain"), "\"plain\"");
    EXPECT_EQ(sim::jsonEscape("a\"b"), "\"a\\\"b\"");
    EXPECT_EQ(sim::jsonEscape("a\\b"), "\"a\\\\b\"");
    EXPECT_EQ(sim::jsonEscape("a\nb\tc"), "\"a\\nb\\tc\"");
    EXPECT_EQ(sim::jsonEscape(std::string(1, '\x01')), "\"\\u0001\"");
    // UTF-8 payloads pass through byte-wise.
    EXPECT_EQ(sim::jsonEscape("\xc3\xa9"), "\"\xc3\xa9\"");
}

TEST(JsonNumber, ShortestRoundTripAndNonFinite)
{
    EXPECT_EQ(sim::jsonNumber(0.0), "0");
    EXPECT_EQ(sim::jsonNumber(2.0), "2");
    EXPECT_EQ(sim::jsonNumber(0.75), "0.75");
    EXPECT_EQ(sim::jsonNumber(0.1), "0.1");
    EXPECT_EQ(sim::jsonNumber(-3.5), "-3.5");
    EXPECT_EQ(
        sim::jsonNumber(std::numeric_limits<double>::infinity()),
        "null");
    EXPECT_EQ(sim::jsonNumber(std::nan("")), "null");
}

TEST(JsonWriter, CompactObjectWithNesting)
{
    std::ostringstream os;
    sim::JsonWriter jw(os, 0);
    jw.beginObject();
    jw.kv("a", std::uint64_t{1});
    jw.beginObject("nested");
    jw.kv("b", "text");
    jw.endObject();
    jw.beginArray("list");
    jw.value(1);
    jw.value(2.5);
    jw.value(true);
    jw.valueNull();
    jw.endArray();
    jw.endObject();
    EXPECT_TRUE(jw.done());
    EXPECT_EQ(os.str(),
              "{\"a\":1,\"nested\":{\"b\":\"text\"},"
              "\"list\":[1,2.5,true,null]}");
}

TEST(JsonWriter, IndentedOutputIsValidAndStable)
{
    std::ostringstream os;
    sim::JsonWriter jw(os, 2);
    jw.beginObject();
    jw.kv("x", 1);
    jw.beginArray("ys");
    jw.value("a");
    jw.endArray();
    jw.endObject();
    EXPECT_EQ(os.str(),
              "{\n  \"x\": 1,\n  \"ys\": [\n    \"a\"\n  ]\n}\n");
}

TEST(JsonWriter, EmptyContainers)
{
    std::ostringstream os;
    sim::JsonWriter jw(os, 0);
    jw.beginObject();
    jw.beginObject("o");
    jw.endObject();
    jw.beginArray("a");
    jw.endArray();
    jw.endObject();
    EXPECT_EQ(os.str(), "{\"o\":{},\"a\":[]}");
}

TEST(JsonWriter, ArrayOfObjects)
{
    std::ostringstream os;
    sim::JsonWriter jw(os, 0);
    jw.beginArray();
    for (int i = 0; i < 2; ++i) {
        jw.beginObject();
        jw.kv("i", i);
        jw.endObject();
    }
    jw.endArray();
    EXPECT_EQ(os.str(), "[{\"i\":0},{\"i\":1}]");
}

TEST(JsonWriter, KeysEscapedAndSignedValues)
{
    std::ostringstream os;
    sim::JsonWriter jw(os, 0);
    jw.beginObject();
    jw.kv("we\"ird", std::int64_t{-7});
    jw.endObject();
    EXPECT_EQ(os.str(), "{\"we\\\"ird\":-7}");
}

TEST(JsonWriterDeath, ValueWithoutKeyInObjectPanics)
{
    std::ostringstream os;
    sim::JsonWriter jw(os, 0);
    jw.beginObject();
    EXPECT_DEATH(jw.value(1), "key");
}

TEST(JsonWriter, GitDescribeIsNonEmpty)
{
    EXPECT_NE(sim::buildGitDescribe(), nullptr);
    EXPECT_GT(std::string(sim::buildGitDescribe()).size(), 0u);
    // The dirty flag must agree with the describe string itself.
    EXPECT_EQ(sim::buildGitDirty(),
              std::string(sim::buildGitDescribe()).find("-dirty")
                  != std::string::npos);
}

// ---- json_parse.h: the reader dual ----------------------------------

TEST(JsonParse, ValuesAndDocumentOrder)
{
    sim::JsonValue doc;
    std::string error;
    ASSERT_TRUE(sim::parseJson(
        "{\"b\": 1, \"a\": [true, null, \"x\\n\", -2.5e3], "
        "\"b\": 2}",
        &doc, &error))
        << error;
    ASSERT_TRUE(doc.isObject());
    // Members keep document order; duplicates survive, find() takes
    // the first.
    ASSERT_EQ(doc.members.size(), 3u);
    EXPECT_EQ(doc.members[0].first, "b");
    EXPECT_EQ(doc.members[1].first, "a");
    std::uint64_t b = 0;
    ASSERT_NE(doc.find("b"), nullptr);
    ASSERT_TRUE(doc.find("b")->asU64(&b));
    EXPECT_EQ(b, 1u);
    const sim::JsonValue *a = doc.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->isArray());
    ASSERT_EQ(a->items.size(), 4u);
    EXPECT_TRUE(a->items[0].isBool());
    EXPECT_TRUE(a->items[0].boolean);
    EXPECT_TRUE(a->items[1].isNull());
    EXPECT_EQ(a->items[2].text, "x\n");
    // Numbers keep the raw lexeme.
    EXPECT_EQ(a->items[3].text, "-2.5e3");
    EXPECT_FALSE(a->items[3].asU64(&b));
}

TEST(JsonParse, RejectsMalformedInput)
{
    sim::JsonValue doc;
    std::string error;
    const char *bad[] = {
        "",           "{",         "[1,]",     "{\"a\":}",
        "{\"a\" 1}",  "01",        "1.",       "1e",
        "\"\\q\"",    "tru",       "[1] 2",    "\"\\ud800\"",
        "nan",        "{]",        "\"unterminated",
    };
    for (const char *text : bad) {
        EXPECT_FALSE(sim::parseJson(text, &doc, &error)) << text;
        EXPECT_FALSE(error.empty()) << text;
    }
    // Deep nesting is bounded, not a stack overflow.
    const std::string deep(500, '[');
    EXPECT_FALSE(sim::parseJson(deep, &doc, &error));
}

TEST(JsonParse, ReadsBackWriterOutputExactly)
{
    // Whatever JsonWriter writes, indented or compact, parseJson must
    // read back as the same values: bench/e2e reads its golden
    // digests and every cell's stats dump this way.
    for (const int indent : {2, 0}) {
        std::ostringstream os;
        sim::JsonWriter jw(os, indent);
        jw.beginObject();
        jw.kv("name", "cell \"quoted\" \t line");
        jw.kv("rate", 0.1);
        jw.kv("count", std::uint64_t{18446744073709551615ULL});
        jw.kv("delta", -3.5);
        jw.kv("big", 1e+300);
        jw.kv("flag", false);
        jw.beginArray("list");
        jw.valueNull();
        jw.beginObject();
        jw.kv("ctrl", std::string(1, '\x01'));
        jw.endObject();
        jw.endArray();
        jw.beginArray("empty");
        jw.endArray();
        jw.endObject();

        sim::JsonValue doc;
        std::string error;
        ASSERT_TRUE(sim::parseJson(os.str(), &doc, &error))
            << "indent " << indent << ": " << error;
        ASSERT_TRUE(doc.isObject());
        std::vector<std::string> keys;
        for (const auto &member : doc.members)
            keys.push_back(member.first);
        ASSERT_EQ(keys,
                  (std::vector<std::string>{"name", "rate", "count",
                                            "delta", "big", "flag",
                                            "list", "empty"}))
            << "indent " << indent;
        const auto value = [&doc](std::size_t i) -> const auto & {
            return doc.members[i].second;
        };

        EXPECT_TRUE(value(0).isString());
        EXPECT_EQ(value(0).text, "cell \"quoted\" \t line");
        EXPECT_EQ(value(1).text, "0.1");
        std::uint64_t count = 0;
        EXPECT_TRUE(value(2).asU64(&count));
        EXPECT_EQ(count, std::numeric_limits<std::uint64_t>::max());
        EXPECT_EQ(value(3).text, "-3.5");
        EXPECT_EQ(value(4).text, "1e+300");
        for (std::size_t i = 1; i <= 4; ++i)
            EXPECT_TRUE(value(i).isNumber()) << "member " << i;
        EXPECT_TRUE(value(5).isBool());
        EXPECT_FALSE(value(5).boolean);

        const sim::JsonValue &list = value(6);
        ASSERT_TRUE(list.isArray());
        ASSERT_EQ(list.items.size(), 2u);
        EXPECT_TRUE(list.items[0].isNull());
        ASSERT_TRUE(list.items[1].isObject());
        const sim::JsonValue *ctrl = list.items[1].find("ctrl");
        ASSERT_NE(ctrl, nullptr);
        EXPECT_EQ(ctrl->text, std::string(1, '\x01'));

        EXPECT_TRUE(value(7).isArray());
        EXPECT_TRUE(value(7).items.empty());
    }
}

TEST(JsonParse, UnicodeEscapesDecodeToUtf8)
{
    sim::JsonValue doc;
    std::string error;
    ASSERT_TRUE(sim::parseJson(
        "\"\\u0041\\u00e9\\u20ac\\ud83d\\ude00\"", &doc, &error))
        << error;
    EXPECT_EQ(doc.text,
              "A\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80");
}

} // namespace
