#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>

#include "util/fault.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"

namespace foray::util {
namespace {

TEST(Strings, ToHexBasic) {
  EXPECT_EQ(to_hex(0), "0");
  EXPECT_EQ(to_hex(0x4002a0), "4002a0");
  EXPECT_EQ(to_hex(0x7fff5934), "7fff5934");
}

TEST(Strings, ParseI64) {
  int64_t v;
  ASSERT_TRUE(parse_i64("-42", &v));
  EXPECT_EQ(v, -42);
  ASSERT_TRUE(parse_i64("0", &v));
  EXPECT_EQ(v, 0);
  EXPECT_FALSE(parse_i64("4x", &v));
  EXPECT_FALSE(parse_i64("", &v));
}

TEST(Strings, SplitKeepsEmptyTokens) {
  auto t = split("a,,b,", ',');
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[0], "a");
  EXPECT_EQ(t[1], "");
  EXPECT_EQ(t[2], "b");
  EXPECT_EQ(t[3], "");
}

TEST(Strings, TrimDropsBlanksAndATrailingCarriageReturn) {
  EXPECT_EQ(trim(" \ta b\t "), "a b");
  EXPECT_EQ(trim("capacity = 1024\r"), "capacity = 1024");
  EXPECT_EQ(trim("x \t\r"), "x");
  EXPECT_EQ(trim(" \r\t "), "");
  EXPECT_EQ(trim("\rx"), "\rx");  // only a line ending's CR goes
}

TEST(Strings, FaultSpecEndingInCarriageReturnParses) {
  // A spec taken from a CRLF line keeps its '\r'; the trimmed field
  // still reads as param=7.
  ASSERT_TRUE(fault::configure("sim.slow:param=7\r").ok());
  const fault::Hit h = fault::hit("sim.slow");
  fault::reset();
  EXPECT_TRUE(h.fired);
  EXPECT_EQ(h.param, 7u);
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("Checkpoint: 12", "Checkpoint:"));
  EXPECT_FALSE(starts_with("Check", "Checkpoint:"));
}

TEST(Strings, CountLines) {
  EXPECT_EQ(count_lines(""), 0);
  EXPECT_EQ(count_lines("a"), 1);
  EXPECT_EQ(count_lines("a\n"), 1);
  EXPECT_EQ(count_lines("a\nb"), 2);
  EXPECT_EQ(count_lines("a\nb\n"), 2);
}

TEST(Strings, Pct) {
  EXPECT_EQ(pct(1, 2), "50.0%");
  EXPECT_EQ(pct(0, 5), "0.0%");
  EXPECT_EQ(pct(3, 0), "n/a");
}

TEST(Strings, AppendFormatKeepsLinesOfAnyLength) {
  std::string out = "head\n";
  const std::string name(300, 'x');
  append_format(&out, "%s: %llu\n", name.c_str(), 18446744073709551615ull);
  EXPECT_EQ(out, "head\n" + name + ": 18446744073709551615\n");
  append_format(&out, "%s", "");
  EXPECT_EQ(out.size(), 5 + name.size() + 23);
}

TEST(Strings, HumanCount) {
  EXPECT_EQ(human_count(123), "123");
  EXPECT_EQ(human_count(43'000'000), "43.0M");
  EXPECT_EQ(human_count(8'300'000), "8.30M");
  EXPECT_EQ(human_count(55'000), "55.0K");
}

TEST(Strings, Padding) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcd", 2), "abcd");
}

TEST(Strings, TablePrinterLaysOutColumns) {
  TablePrinter tp({"name", "value"});
  tp.add_row({"alpha", "1"});
  tp.add_row({"b", "22222"});
  std::string s = tp.str();
  EXPECT_NE(s.find("| name  | value |"), std::string::npos);
  EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(s.find("| b     | 22222 |"), std::string::npos);
}

TEST(Json, WriterBuildsObjectsAndArrays) {
  JsonWriter w;
  w.begin_object();
  w.key("a").value(int64_t{1});
  w.key("b").begin_array().value(true).value(2.5).end_array();
  w.end_object();
  EXPECT_EQ(w.take(), "{\"a\":1,\"b\":[true,2.5]}");
}

TEST(Json, EscapesQuotesAndBackslashes) {
  // Program names flow into sweep NDJSON verbatim, so hostile names
  // (quotes, backslashes, Windows paths) must stay valid JSON.
  JsonWriter w;
  w.begin_object();
  w.key("na\"me").value("c:\\tmp\\\"quoted\".mc");
  w.end_object();
  EXPECT_EQ(w.take(),
            "{\"na\\\"me\":\"c:\\\\tmp\\\\\\\"quoted\\\".mc\"}");
}

TEST(Json, EscapesControlCharacters) {
  JsonWriter w;
  const std::string ctl{"\n\r\t\x01\x1f"};
  w.begin_object();
  w.key("ctl").value(ctl);
  w.end_object();
  // Named escapes for the common three, \u00xx for the rest — and
  // never a raw newline, which would tear an NDJSON line in half.
  const std::string out = w.take();
  EXPECT_EQ(out, "{\"ctl\":\"\\n\\r\\t\\u0001\\u001f\"}");
  EXPECT_EQ(out.find('\n'), std::string::npos);
}

/// The escape rule the writer implements, one character at a time.
std::string escaped_char_by_char(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(c) & 0xff);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

TEST(Json, StringRunsEscapeLikeOneCharacterAtATime) {
  // Every escape class between, before and after plain runs: named
  // escapes, \u00xx (an embedded NUL among them), and 0x7f and bytes
  // >= 0x80, which pass through raw.
  const std::string mixed("a\"b\\c\nd\re\tf\0g\x01h\x1fi\x7fj\x80k\xff", 22);
  JsonWriter w;
  w.value(mixed);
  EXPECT_EQ(w.take(),
            "\"a\\\"b\\\\c\\nd\\re\\tf\\u0000g\\u0001h\\u001fi\x7fj\x80k\xff\"");
  for (const std::string& s :
       {mixed, std::string(), std::string("plain run only"),
        std::string("\"\"\n\n", 4), std::string("\0", 1),
        "tail\\" + mixed + "head"}) {
    JsonWriter one;
    one.value(s);
    EXPECT_EQ(one.take(), escaped_char_by_char(s));
  }
  for (int b = 0; b < 256; ++b) {
    std::string s = "x";
    s += static_cast<char>(b);
    s += "yz";
    JsonWriter one;
    one.value(s);
    EXPECT_EQ(one.take(), escaped_char_by_char(s)) << "byte " << b;
  }
}

TEST(Json, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.begin_array();
  w.value(std::numeric_limits<double>::infinity());
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.end_array();
  EXPECT_EQ(w.take(), "[null,null]");
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng r(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(r.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextInInclusiveBounds) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.next_in(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, NextDoubleUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BoolExtremes) {
  Rng r(5);
  EXPECT_FALSE(r.next_bool(0.0));
  EXPECT_TRUE(r.next_bool(1.0));
}

TEST(Status, DiagListFormatsLines) {
  DiagList d;
  d.add(3, "bad thing");
  d.add(0, "global thing");
  EXPECT_EQ(d.size(), 2u);
  EXPECT_NE(d.str().find("line 3: bad thing"), std::string::npos);
  EXPECT_NE(d.str().find("global thing"), std::string::npos);
}

TEST(Status, ForayCheckThrows) {
  EXPECT_THROW(FORAY_CHECK(false, "boom"), InternalError);
  EXPECT_NO_THROW(FORAY_CHECK(true, "fine"));
}

}  // namespace
}  // namespace foray::util
