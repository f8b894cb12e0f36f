/**
 * @file
 * Hardening tests for the JSON parser: malformed input must throw a
 * located ValidationError — never crash, hang, or invoke UB. The
 * ASan/UBSan CI job runs this same corpus with sanitizers enabled.
 * The formatting tests hold the printf-based writers the to_chars
 * ones replaced, as oracles, and compare the two byte for byte.
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/log.hh"

namespace sac {
namespace {

/** Silences the [invalid] console echo while each test runs. */
class JsonHardening : public ::testing::Test
{
  protected:
    void SetUp() override { log_detail::setQuiet(true); }
    void TearDown() override { log_detail::setQuiet(false); }
};

TEST_F(JsonHardening, MalformedCorpusThrowsInsteadOfCrashing)
{
    const std::vector<std::string> corpus = {
        "",
        " ",
        "{",
        "}",
        "[",
        "]",
        "{]",
        "[}",
        "{\"a\"}",
        "{\"a\":}",
        "{\"a\":1,}",
        "{\"a\" 1}",
        "{a:1}",
        "[1,]",
        "[1 2]",
        "\"unterminated",
        "\"bad escape \\q\"",
        "\"bad unicode \\u12g4\"",
        "\"truncated unicode \\u12",
        "01",
        "+1",
        "1.",
        "1e",
        "1e+",
        ".5",
        "-",
        "nul",
        "tru",
        "falsey",
        "nullx",
        "truex",
        "{\"a\":1}garbage",
        "[1]2",
        "{\"a\":\"\x01\"}", // raw control character in a string
        std::string("[1,\0,2]", 7), // embedded NUL
        "{\"\\u0000\":1}x",
    };
    for (const auto &text : corpus) {
        EXPECT_THROW(json::parse(text), ValidationError)
            << "input: " << text;
    }
}

TEST_F(JsonHardening, DeepNestingFailsCleanly)
{
    // One level under the cap parses; past the cap is rejected with a
    // clear message instead of a stack overflow.
    const auto nested = [](int depth) {
        return std::string(static_cast<std::size_t>(depth), '[') +
               std::string(static_cast<std::size_t>(depth), ']');
    };
    EXPECT_NO_THROW(json::parse(nested(json::maxDepth)));
    EXPECT_THROW(json::parse(nested(json::maxDepth + 1)),
                 ValidationError);
    EXPECT_THROW(json::parse(std::string(100000, '[')), ValidationError);

    // Same cap for objects.
    std::string obj;
    for (int i = 0; i < json::maxDepth + 1; ++i)
        obj += "{\"k\":";
    obj += "1";
    for (int i = 0; i < json::maxDepth + 1; ++i)
        obj += "}";
    EXPECT_THROW(json::parse(obj), ValidationError);

    try {
        json::parse(nested(json::maxDepth + 1));
        FAIL() << "expected ValidationError";
    } catch (const ValidationError &e) {
        EXPECT_NE(std::string(e.what()).find("nesting deeper"),
                  std::string::npos);
    }
}

TEST_F(JsonHardening, ErrorsCarryLineAndColumn)
{
    try {
        json::parse("{\"a\": 1,\n \"b\": oops}");
        FAIL() << "expected ValidationError";
    } catch (const ValidationError &e) {
        EXPECT_EQ(e.context(), "line 2, column 7");
        EXPECT_NE(std::string(e.what()).find("line 2, column 7"),
                  std::string::npos);
    }
}

TEST_F(JsonHardening, NumberConversionsRejectMismatches)
{
    EXPECT_EQ(json::parse("42").asU64(), 42u);
    EXPECT_THROW(json::parse("-42").asU64(), FatalError);
    EXPECT_THROW(json::parse("\"42\"").asU64(), FatalError);
    EXPECT_EQ(json::parse("-42").asDouble(), -42.0);
    EXPECT_THROW(json::parse("{}").at("missing"), FatalError);
}

TEST_F(JsonHardening, DoubleFormattingIsShortestRoundTrip)
{
    // Human-friendly values print exactly as written...
    EXPECT_EQ(json::number(2.3), "2.3");
    EXPECT_EQ(json::number(0.1), "0.1");
    EXPECT_EQ(json::number(1.5), "1.5");
    EXPECT_EQ(json::number(-1500.0), "-1500");
    EXPECT_EQ(json::number(0.0), "0");
    // ...and every double, friendly or not, must survive a
    // format -> parse round trip bit-exactly.
    const std::vector<double> hard = {
        2.2999999999999998, 1.0 / 3.0,      0.30000000000000004,
        1e-300,             1.7976931348623157e308,
        5.0000000000000009, 4.9406564584124654e-324,
    };
    for (const double v : hard) {
        const std::string text = json::number(v);
        EXPECT_EQ(json::parse(text).asDouble(), v) << text;
    }
}

TEST_F(JsonHardening, GoodDocumentsStillParse)
{
    const auto v = json::parse(
        "{\"s\":\"a\\u0041\\n\",\"n\":-1.5e3,\"b\":true,"
        "\"z\":null,\"arr\":[1,2,3],\"o\":{\"k\":\"v\"}}");
    EXPECT_EQ(v.at("s").asString(), "aA\n");
    EXPECT_EQ(v.at("n").asDouble(), -1500.0);
    EXPECT_TRUE(v.at("b").boolean);
    EXPECT_EQ(v.at("arr").array.size(), 3u);
    EXPECT_EQ(v.at("o").at("k").asString(), "v");
}

// --- number formatting against the printf oracles ---------------------

/** json::number as it was written with printf: the first precision in
 *  15..17 whose "%.*g" text strtod reads back to the same double. */
std::string
oracleNumber(double v)
{
    char buf[64];
    for (int prec = 15; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof buf, "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

/** The canonical key's double format as it was written: "%.17g". */
std::string
oracleDigits17(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
digits17(double v)
{
    std::string out;
    json::appendDigits17(out, v);
    return out;
}

/** Counts (and reports the first few) doubles where either writer
 *  differs from its oracle. */
class FormatCheck
{
  public:
    void operator()(double v)
    {
        ++checked;
        const std::string got = json::number(v);
        const std::string want = oracleNumber(v);
        const std::string got17 = digits17(v);
        const std::string want17 = oracleDigits17(v);
        if (got == want && got17 == want17)
            return;
        if (++mismatches <= 5) {
            ADD_FAILURE() << std::hexfloat << v << ": number '" << got
                          << "' vs '" << want << "', digits17 '" << got17
                          << "' vs '" << want17 << "'";
        }
    }

    std::uint64_t checked = 0;
    std::uint64_t mismatches = 0;
};

double
fromBits(std::uint64_t bits)
{
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

TEST(JsonFormatting, RandomBitPatternsMatchThePrintfOracles)
{
    // Uniform bit patterns cover every exponent, subnormals, NaN
    // payloads and infinities in proportion to their encodings.
    FormatCheck check;
    std::mt19937_64 rng(20230617);
    for (int i = 0; i < 1000000; ++i)
        check(fromBits(rng()));
    EXPECT_EQ(check.mismatches, 0u) << "of " << check.checked;
}

TEST(JsonFormatting, EdgeAndDecimalValuesMatchThePrintfOracles)
{
    FormatCheck check;
    const double edges[] = {
        0.0, -0.0, DBL_MAX, -DBL_MAX, DBL_MIN, -DBL_MIN,
        std::numeric_limits<double>::denorm_min(),
        std::nextafter(DBL_MIN, 0.0), std::nextafter(1.0, 2.0),
        std::nextafter(1.0, 0.0), 5.0000000000000009, 0.30000000000000004,
        1e23, 9007199254740993.0, 1e-300, 1e300,
    };
    for (const double v : edges)
        check(v);
    // Every power of two, and its neighbours: the one place the
    // round-trip interval is lopsided.
    for (int e = -1074; e <= 1023; ++e) {
        const double p = std::ldexp(1.0, e);
        for (const double v : {p, std::nextafter(p, 0.0),
                               std::nextafter(p, HUGE_VAL)}) {
            check(v);
            check(-v);
        }
    }
    // Decimal-looking values, the ones configs and results carry.
    for (int k = -200000; k <= 200000; ++k) {
        check(k / 1000.0);
        check(k / 3.0);
        check(k * 0.01);
    }
    // Random doubles in the ranges results use (rates, bandwidths).
    std::mt19937_64 rng(7);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (int i = 0; i < 200000; ++i) {
        const double u = unit(rng);
        check(u);
        check(u * 1e6);
    }
    EXPECT_EQ(check.mismatches, 0u) << "of " << check.checked;
    EXPECT_GE(check.checked, 1000000u);
}

TEST(JsonFormatting, NonFiniteValuesKeepTheirPrintfSpelling)
{
    // JSON has no spelling for these; the writers keep printf's, as
    // they always have, and the readers reject them.
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(json::number(inf), "inf");
    EXPECT_EQ(json::number(-inf), "-inf");
    EXPECT_EQ(json::number(nan), "nan");
    EXPECT_EQ(json::number(-nan), "-nan");
    EXPECT_EQ(digits17(inf), "inf");
    EXPECT_EQ(digits17(-inf), "-inf");
    EXPECT_EQ(digits17(nan), "nan");
    EXPECT_EQ(digits17(-nan), "-nan");
}

TEST(JsonFormatting, EscapeAndBuilderKeepTheirBytes)
{
    EXPECT_EQ(json::escape("a\"b\\c\n\t\r\x01\x1f~\xc3\xa9"),
              "\"a\\\"b\\\\c\\n\\t\\r\\u0001\\u001f~\xc3\xa9\"");
    EXPECT_EQ(json::escape(""), "\"\"");
    EXPECT_EQ(json::escape("plain"), "\"plain\"");
    json::Builder b('{');
    b.field("k", json::number(std::uint64_t{18446744073709551615ull}))
        .field("a long key name", json::escape("v"));
    EXPECT_EQ(b.close('}'),
              "{\"k\":18446744073709551615,\"a long key name\":\"v\"}");
}

} // namespace
} // namespace sac
