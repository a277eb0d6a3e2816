// Byte-identity tests for the JSON output layer: jsonDouble against the
// printf/strtod precision search it replaced, appendJsonString against a
// byte-at-a-time escaper, escape/parse round trips through JsonLineParser,
// and the streamed document against the whole one.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "engine/sweep_json.hpp"
#include "support/json_line.hpp"
#include "support/parallel.hpp"
#include "support/prng.hpp"
#include "support/string_utils.hpp"

using namespace paragraph;
using namespace paragraph::engine;

namespace {

/** The original jsonDouble: try `%.*g` precisions 1..17 until strtod
 *  reads the text back as @p v. The reference the fast path must match. */
std::string
referenceJsonDouble(double v)
{
    if (!std::isfinite(v))
        return "null";
    for (int prec = 1; prec <= 17; ++prec) {
        std::string s = strFormat("%.*g", prec, v);
        if (std::strtod(s.c_str(), nullptr) == v)
            return s;
    }
    return strFormat("%.17g", v);
}

/** The original jsonString: one byte at a time. */
std::string
referenceJsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strFormat("\\u%04x", c);
            else
                out += c;
        }
    }
    out += '"';
    return out;
}

double
fromBits(uint64_t bits)
{
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

uint64_t
toBits(double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

/** @p v and its @p ulps neighbours on each side, both signs. */
void
addNeighbours(std::vector<double> &out, double v, int ulps)
{
    const int64_t bits = static_cast<int64_t>(toBits(std::fabs(v)));
    for (int64_t d = -ulps; d <= ulps; ++d) {
        int64_t b = bits + d;
        if (b < 0)
            continue;
        double x = fromBits(static_cast<uint64_t>(b));
        out.push_back(x);
        out.push_back(-x);
    }
}

} // namespace

TEST(SweepJson, RendersStableNumbersAndStrings)
{
    EXPECT_EQ(jsonDouble(0.0), "0");
    EXPECT_EQ(jsonDouble(-0.0), "-0");
    EXPECT_EQ(jsonDouble(2.5), "2.5");
    EXPECT_EQ(jsonDouble(1.0 / 3.0), "0.3333333333333333");
    EXPECT_EQ(jsonDouble(1e21), "1e+21");
    EXPECT_EQ(jsonDouble(1e-5), "1e-05");
    EXPECT_EQ(jsonDouble(std::numeric_limits<double>::infinity()), "null");
    EXPECT_EQ(jsonDouble(std::nan("")), "null");
    // Round-trip: parsing the rendering recovers the exact double.
    double v = 3.0651797117314357;
    EXPECT_EQ(std::strtod(jsonDouble(v).c_str(), nullptr), v);

    EXPECT_EQ(jsonString("plain"), "\"plain\"");
    EXPECT_EQ(jsonString("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    EXPECT_EQ(jsonString(std::string("\0\x1f\x7f", 3)),
              "\"\\u0000\\u001f\x7f\"");

    std::string out = "x";
    JsonOut(out) << uint64_t{18446744073709551615u} << ' ' << -42 << ' '
                 << 0.5 << ' ' << quoted("q\"") << ' ' << 7u;
    EXPECT_EQ(out, "x18446744073709551615 -42 0.5 \"q\\\"\" 7");
}

TEST(SweepJson, DoubleMatchesThePrintfSearchOnOverAMillionValues)
{
    std::vector<double> values = {0.0, -0.0};
    Prng rng(0x5eed'2024);

    // Random bit patterns (the non-finite ones render as null both ways).
    for (int i = 0; i < 150000; ++i)
        values.push_back(fromBits(rng.next()));
    // Subnormals: the smallest ones, then random ones.
    for (uint64_t b = 1; b <= 2000; ++b)
        values.push_back(fromBits(b));
    for (int i = 0; i < 20000; ++i)
        values.push_back(fromBits(rng.next() & ((uint64_t{1} << 52) - 1)));
    // Every power of two and its neighbours (the round-trip interval is
    // asymmetric there).
    for (int e = -1074; e <= 1023; ++e)
        addNeighbours(values, std::ldexp(1.0, e), 4);
    // ±40 ulps around every power of ten.
    for (int e = -323; e <= 308; ++e)
        addNeighbours(values, std::strtod(("1e" + std::to_string(e)).c_str(),
                                          nullptr),
                      40);
    // Integer ratios, the shape of profile and parallelism values.
    for (int i = 0; i < 700000; ++i) {
        double num = static_cast<double>(rng.nextBelow(10000000) + 1);
        double den = static_cast<double>(rng.nextBelow(5000) + 1);
        values.push_back(num / den);
    }
    ASSERT_GE(values.size(), 1000000u);

    // The reference costs ~10 us a value, so the corpus is split across a
    // few threads; each keeps its own mismatches.
    constexpr size_t kThreads = 4;
    std::vector<std::vector<std::string>> mismatches(kThreads);
    runSegmentsParallel(kThreads, [&](size_t t) {
        for (size_t i = t; i < values.size(); i += kThreads) {
            std::string want = referenceJsonDouble(values[i]);
            std::string got = jsonDouble(values[i]);
            if (got != want) {
                mismatches[t].push_back(strFormat(
                    "bits 0x%016llx: got %s, reference %s",
                    static_cast<unsigned long long>(toBits(values[i])),
                    got.c_str(), want.c_str()));
            }
        }
    });
    size_t total = 0;
    for (const std::vector<std::string> &found : mismatches) {
        for (size_t k = 0; k < found.size() && k < 10; ++k)
            ADD_FAILURE() << found[k];
        total += found.size();
    }
    EXPECT_EQ(total, 0u) << "of " << values.size() << " values";
}

TEST(SweepJson, EscaperMatchesAByteAtATimeReference)
{
    // Every byte value at every offset 0..15 of strings of length 0..300
    // (the rest plain text with a sprinkling of escapes).
    Prng rng(7);
    const char filler[] = "ab\"c\\d\ne\tf\x01g";
    for (size_t len = 0; len <= 300; ++len) {
        std::string base(len, 'x');
        for (size_t i = 0; i < len; ++i) {
            if (rng.nextBelow(4) == 0)
                base[i] = filler[rng.nextBelow(sizeof(filler) - 1)];
        }
        for (size_t at = 0; at < 16 && at < len; ++at) {
            for (unsigned c = 0; c < 256; ++c) {
                std::string s = base;
                s[at] = static_cast<char>(c);
                ASSERT_EQ(jsonString(s), referenceJsonString(s))
                    << "len " << len << " offset " << at << " byte " << c;
            }
        }
        ASSERT_EQ(jsonString(base), referenceJsonString(base)) << len;
    }

    // Lengths around the escaper's internal block size (1024 input bytes),
    // escape-free, all-escapes and mixed, appended after existing text.
    for (size_t len : {1023u, 1024u, 1025u, 2047u, 2048u, 2049u, 3071u,
                       3072u, 3073u, 100000u}) {
        for (char fill : {'q', '\x02', '"'}) {
            std::string s(len, fill);
            for (size_t i = 0; i < len; i += 97)
                s[i] = static_cast<char>(rng.nextBelow(256));
            std::string out = "prefix:";
            appendJsonString(out, s);
            EXPECT_EQ(out, "prefix:" + referenceJsonString(s))
                << "len " << len << " fill " << int(fill);
        }
    }
}

TEST(SweepJson, EscapedStringsParseBackExactly)
{
    Prng rng(11);
    std::vector<std::string> cases = {"", "plain", "\"\\\n\t\r\b\f"};
    std::string all;
    for (unsigned c = 0; c < 256; ++c)
        all += static_cast<char>(c);
    cases.push_back(all);
    for (size_t len : {1u, 15u, 1023u, 1024u, 1025u, 5000u}) {
        std::string s(len, '\0');
        for (char &c : s)
            c = static_cast<char>(rng.nextBelow(256));
        cases.push_back(s);
    }
    for (const std::string &s : cases) {
        std::string line = "{\"s\": " + jsonString(s) + "}";
        JsonLineParser p(line);
        ASSERT_TRUE(p.parse()) << line;
        ASSERT_NE(p.str("s"), nullptr);
        EXPECT_EQ(*p.str("s"), s);
    }
}

TEST(SweepJson, StreamedDocumentEqualsTheWholeOne)
{
    SweepResult sweep;
    sweep.jobs = 2;
    for (size_t i = 0; i < 3; ++i) {
        SweepCell cell;
        cell.job.input = "in\"put";
        cell.job.configIndex = i;
        cell.job.configLabel = "w" + std::to_string(i);
        cell.status = i == 1 ? SweepCell::Status::Failed
                             : SweepCell::Status::Ok;
        cell.errorMessage = "bad\ncell";
        cell.result.instructions = 1000 + i;
        cell.result.availableParallelism = 10.0 / 3.0 + double(i);
        cell.wallSeconds = 0.25;
        sweep.cells.push_back(cell);
    }
    const std::string want = sweepToJson(sweep);
    std::string got;
    size_t pieces = 0;
    ASSERT_TRUE(streamSweepJson(sweep, {}, [&](std::string_view piece) {
        got.append(piece);
        ++pieces;
        return true;
    }));
    EXPECT_EQ(got, want);
    EXPECT_EQ(pieces, sweep.cells.size() + 1); // a cell at a time, then the end

    // A sink that refuses stops the render at once.
    pieces = 0;
    EXPECT_FALSE(streamSweepJson(sweep, {}, [&](std::string_view) {
        ++pieces;
        return false;
    }));
    EXPECT_EQ(pieces, 1u);
}
