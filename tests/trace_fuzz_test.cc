// Differential and seeded mutation-fuzz tests for the trace decoder.
//
// ParseTrace (whole string, staged schema) and TraceFileSource (file read
// through a fixed buffer, parsed into a recycled batch) share one line
// parser; over the same bytes they must yield identical events — type,
// timestamp, attributes in order, doubles bit-exact — or the identical
// error. The inputs straddle read-chunk boundaries, mix CRLF, comments,
// blank lines and an unterminated last line, and are mutated by seeded
// byte flips, truncations and insertions; none may crash (CI runs this
// suite under ASan/UBSan). An edge-token table pins the value and error
// each tricky token decodes to.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "common/schema.h"
#include "stream/trace_io.h"
#include "tests/fuzz_util.h"

namespace aseq {
namespace {

/// The read buffer TraceFileSource fills per fread.
constexpr size_t kChunkBytes = size_t{1} << 20;

std::string WriteTemp(const std::string& content) {
  const std::string path = ::testing::TempDir() + "/aseq_trace_fuzz.csv";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  return path;
}

uint64_t Bits(double d) {
  uint64_t b = 0;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

/// Bit-exact event comparison (a double's sign of zero and NaN payload
/// count; Value::Equals would not see them).
void ExpectSameEvent(const Event& a, const Event& b, size_t index,
                     const std::string& context) {
  ASSERT_EQ(a.type(), b.type()) << context << " event#" << index;
  ASSERT_EQ(a.ts(), b.ts()) << context << " event#" << index;
  ASSERT_EQ(a.attrs().size(), b.attrs().size()) << context << " event#"
                                                << index;
  for (size_t i = 0; i < a.attrs().size(); ++i) {
    const auto& [aa, av] = a.attrs()[i];
    const auto& [ba, bv] = b.attrs()[i];
    ASSERT_EQ(aa, ba) << context << " event#" << index << " attr#" << i;
    ASSERT_EQ(av.type(), bv.type()) << context << " event#" << index;
    switch (av.type()) {
      case ValueType::kInt64:
        ASSERT_EQ(av.AsInt64(), bv.AsInt64()) << context;
        break;
      case ValueType::kDouble:
        ASSERT_EQ(Bits(av.AsDouble()), Bits(bv.AsDouble())) << context;
        break;
      case ValueType::kString:
        ASSERT_EQ(av.AsString(), bv.AsString()) << context;
        break;
      case ValueType::kNull:
        break;
    }
  }
}

/// Drains a TraceFileSource over `content` through BorrowBatch with
/// `batch` events per call (1 = one event at a time). Returns the source's
/// final status; `*events` gets copies of everything yielded.
Status DrainSource(const std::string& content, size_t batch, Schema* schema,
                   std::vector<Event>* events) {
  auto source = TraceFileSource::Open(WriteTemp(content), schema);
  if (!source.ok()) return source.status();
  for (;;) {
    std::span<Event> view = (*source)->BorrowBatch(batch);
    if (view.empty()) break;
    events->insert(events->end(), view.begin(), view.end());
  }
  return (*source)->status();
}

/// The differential check: ParseTrace and TraceFileSource agree on
/// `content` — same events and schema, or the same error.
void CheckAgree(const std::string& content, const std::string& context) {
  Schema ref_schema;
  auto ref = ParseTrace(content, &ref_schema);
  for (size_t batch : {size_t{1}, size_t{7}, size_t{256}}) {
    const std::string ctx = context + " batch=" + std::to_string(batch);
    Schema schema;
    std::vector<Event> events;
    Status status = DrainSource(content, batch, &schema, &events);
    if (!ref.ok()) {
      ASSERT_FALSE(status.ok()) << ctx << ": source accepted what ParseTrace "
                                << "rejected: " << ref.status().ToString();
      ASSERT_EQ(status.ToString(), ref.status().ToString()) << ctx;
      continue;
    }
    ASSERT_TRUE(status.ok()) << ctx << ": " << status.ToString();
    ASSERT_EQ(events.size(), ref->size()) << ctx;
    for (size_t i = 0; i < events.size(); ++i) {
      ExpectSameEvent((*ref)[i], events[i], i, ctx);
    }
    // Both register names in first-seen order, so ids line up.
    ASSERT_EQ(schema.num_event_types(), ref_schema.num_event_types()) << ctx;
    ASSERT_EQ(schema.num_attributes(), ref_schema.num_attributes()) << ctx;
    for (EventTypeId t = 0; t < schema.num_event_types(); ++t) {
      ASSERT_EQ(schema.EventTypeName(t), ref_schema.EventTypeName(t)) << ctx;
    }
    for (AttrId a = 0; a < schema.num_attributes(); ++a) {
      ASSERT_EQ(schema.AttributeName(a), ref_schema.AttributeName(a)) << ctx;
    }
  }
}

/// A well-formed trace of `lines` events in the generator's shape, with a
/// comment, blank lines, CRLF ends, spaces and every value kind mixed in.
std::string MakeTrace(size_t lines, uint64_t seed) {
  static const char* const kTypes[] = {"DELL", "IPIX", "AMAT", "QQQ", "MSFT"};
  std::mt19937_64 rng(seed);
  std::string out = "# generated trace\n";
  int64_t ts = 0;
  for (size_t i = 0; i < lines; ++i) {
    ts += static_cast<int64_t>(rng() % 7);
    out += kTypes[rng() % 5];
    out += ",";
    out += std::to_string(ts);
    out += ",price=" + std::to_string(100 + rng() % 50) + "." +
           std::to_string(rng() % 1000);
    out += ",volume=" + std::to_string(rng() % 10000);
    if (rng() % 4 == 0) out += ", note = n" + std::to_string(rng() % 9) + " ";
    out += ",traderId=" + std::to_string(rng() % 50);
    out += (rng() % 8 == 0) ? "\r\n" : "\n";
    if (rng() % 50 == 0) out += "\n";
  }
  return out;
}

TEST(TraceFuzzTest, ChunkStraddlingTraceAgrees) {
  const std::string trace = MakeTrace(60000, 1);
  ASSERT_GT(trace.size(), 2 * kChunkBytes);
  CheckAgree(trace, "multi-chunk");
  // No final newline: the last line still counts.
  CheckAgree(trace.substr(0, trace.size() - 1), "no-final-newline");
  Schema schema;
  auto parsed = ParseTrace(trace, &schema);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->size(), 60000u);
}

TEST(TraceFuzzTest, LineLongerThanTheReadBufferAgrees) {
  std::string trace = "DELL,1,price=2.5\n";
  trace += "IPIX,2,note=" + std::string(kChunkBytes + kChunkBytes / 2, 'x') +
           ",volume=7\n";
  trace += "AMAT,3,volume=8";
  CheckAgree(trace, "long-line");
}

TEST(TraceFuzzTest, LateErrorInMultiChunkTraceAgrees) {
  std::string trace = MakeTrace(40000, 2);
  ASSERT_GT(trace.size(), kChunkBytes);
  trace += "DELL,oops\n";
  CheckAgree(trace, "late-error");
  Schema schema;
  auto parsed = ParseTrace(trace, &schema);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("bad timestamp 'oops'"),
            std::string::npos);
}

TEST(TraceFuzzTest, FormattingCornersAgree) {
  const char* const kCases[] = {
      "",
      "\n",
      "\r\n\r\n",
      "# only a comment",
      "DELL,1\r\nIPIX,2\r\n",
      "DELL,1,price=1.5",
      "  DELL , 3 , price = 4 , , volume=5,\n",
      "DELL,1,x=1,x=2.5,y=,z=-0\n",
      "DELL,1\n# c\n\n   \nIPIX,1\n",
      "A,1\nB\n",
      ",5\n",
      "DELL,2\nIPIX,1\n",
  };
  for (const char* c : kCases) CheckAgree(c, std::string("case '") + c + "'");
  // More attribute fields than the parser caches names for, repeated so
  // the second line reads the positions the first one filled.
  std::string wide = "DELL,1";
  for (int i = 0; i < 100; ++i) {
    wide += ",a" + std::to_string(i % 70) + "=" + std::to_string(i);
  }
  CheckAgree(wide + "\n" + wide + "\n", "wide lines");
}

TEST(TraceFuzzTest, ResetReplaysTheSameStream) {
  const std::string trace = MakeTrace(3000, 3);
  Schema schema;
  auto source = TraceFileSource::Open(WriteTemp(trace), &schema);
  ASSERT_TRUE(source.ok());
  std::vector<Event> first, second;
  for (std::span<Event> b; !(b = (*source)->BorrowBatch(64)).empty();) {
    first.insert(first.end(), b.begin(), b.end());
  }
  (*source)->Reset();
  for (std::span<Event> b; !(b = (*source)->BorrowBatch(100)).empty();) {
    second.insert(second.end(), b.begin(), b.end());
  }
  ASSERT_TRUE((*source)->status().ok());
  ASSERT_EQ(first.size(), 3000u);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    ExpectSameEvent(first[i], second[i], i, "reset");
  }
}

/// Seeded trace mutations: the shared mutator, inserting one of the bytes
/// the parser treats specially (or a digit).
std::string Mutate(std::string s, std::mt19937_64* rng) {
  static constexpr std::string_view kInsert[] = {
      ",", "=", "+", "-", ".", "\r", "\n", "#", "0", "1",
      "2", "3", "4", "5", "6", "7",  "8",  "9", " "};
  return testing_util::Mutate(std::move(s), rng, kInsert);
}

TEST(TraceFuzzTest, SeededMutationsAgreeAndNeverCrash) {
  const std::string base =
      "# header\n"
      "DELL,1,price=10.5,volume=300,traderId=7\r\n"
      "IPIX,2,price=+.5,volume=-0,note=abc\n"
      "\n"
      "AMAT,3,price=5.,volume=00012\n"
      "DELL,4, price = 1.25 , traderId=9\n"
      "QQQ,4,price=-.5,volume=9223372036854775807";
  std::mt19937_64 rng(20261017);
  size_t rejected = 0;
  for (int i = 0; i < 1500; ++i) {
    const std::string input = Mutate(base, &rng);
    Schema schema;
    if (!ParseTrace(input, &schema).ok()) ++rejected;
    CheckAgree(input, "mutation#" + std::to_string(i));
    if (HasFatalFailure()) return;
  }
  // The mutations must exercise both outcomes.
  EXPECT_GT(rejected, 100u);
  EXPECT_LT(rejected, 1400u);
}

TEST(TraceFuzzTest, SeededMutationsOfMultiChunkTrace) {
  const std::string base = MakeTrace(45000, 4);
  ASSERT_GT(base.size(), 2 * kChunkBytes);
  std::mt19937_64 rng(77);
  for (int i = 0; i < 6; ++i) {
    std::string input = base;
    // Mutate near the first chunk boundary, where a carried-over partial
    // line is reassembled.
    const size_t at = kChunkBytes - 40 + rng() % 80;
    std::string window = input.substr(at, 64);
    input.replace(at, 64, Mutate(window, &rng));
    CheckAgree(input, "chunk-mutation#" + std::to_string(i));
    if (HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Edge tokens: the value or error each decodes to (the values strtoll /
// strtod produced before the from_chars decoder, kept bit-exact)
// ---------------------------------------------------------------------------

struct ValueCase {
  std::string token;
  ValueType type;
  int64_t i;
  uint64_t double_bits;
  std::string error;  // non-empty: the expected message after the line
};

ValueCase Int(std::string token, int64_t v) {
  return {std::move(token), ValueType::kInt64, v, 0, ""};
}
ValueCase Dbl(std::string token, uint64_t bits) {
  return {std::move(token), ValueType::kDouble, 0, bits, ""};
}
ValueCase Str(std::string token) {
  return {std::move(token), ValueType::kString, 0, 0, ""};
}
ValueCase Err(std::string token, std::string error) {
  return {std::move(token), ValueType::kNull, 0, 0, std::move(error)};
}

TEST(TraceFuzzTest, EdgeValueTokens) {
  const std::string huge = std::string(400, '9') + ".5";
  const std::vector<ValueCase> cases = {
      Int("+5", 5),
      Int("-0", 0),
      Int("00012", 12),
      Int("9223372036854775807", INT64_MAX),
      Int("-9223372036854775808", INT64_MIN),
      Err("9223372036854775808",
          "integer value '9223372036854775808' overflows 64-bit range"),
      Err("-9223372036854775809",
          "integer value '-9223372036854775809' overflows 64-bit range"),
      Dbl("5.", Bits(5.0)),
      Dbl(".5", Bits(0.5)),
      Dbl("-.5", Bits(-0.5)),
      Dbl("+.5", Bits(0.5)),
      Dbl("-0.0", Bits(-0.0)),
      Dbl("0.1", 0x3fb999999999999aULL),
      // 400 zeros: underflows to +0.0 — a value, not an error.
      Dbl("0." + std::string(400, '0') + "1", 0),
      // Underflows to the subnormal 4.9e-311, rounded as strtod rounds it.
      Dbl("0." + std::string(310, '0') + "49", 0x905259b291aULL),
      Err(huge, "numeric value '" + huge + "' overflows double range"),
      // Not numbers: kept as strings.
      Str("+-5"),
      Str("++5"),
      Str("+"),
      Str("."),
      Str("1.2.3"),
      Str("1e5"),
      {"", ValueType::kNull, 0, 0, ""},
  };
  for (const ValueCase& c : cases) {
    const std::string line = "A,1,v=" + c.token + "\n";
    Schema schema;
    auto parsed = ParseTrace(line, &schema);
    const std::string ctx = "token '" + c.token.substr(0, 40) + "'";
    CheckAgree(line, ctx);
    if (!c.error.empty()) {
      ASSERT_FALSE(parsed.ok()) << ctx;
      EXPECT_EQ(parsed.status().code(), StatusCode::kParseError) << ctx;
      EXPECT_EQ(parsed.status().message(), "trace line 1: " + c.error)
          << ctx;
      continue;
    }
    ASSERT_TRUE(parsed.ok()) << ctx << ": " << parsed.status().ToString();
    ASSERT_EQ(parsed->size(), 1u) << ctx;
    const Value& v = (*parsed)[0].attrs()[0].second;
    ASSERT_EQ(v.type(), c.type) << ctx;
    if (c.type == ValueType::kInt64) {
      EXPECT_EQ(v.AsInt64(), c.i) << ctx;
    } else if (c.type == ValueType::kDouble) {
      EXPECT_EQ(Bits(v.AsDouble()), c.double_bits) << ctx;
    } else if (c.type == ValueType::kString) {
      EXPECT_EQ(v.AsString(), c.token) << ctx;
    }
  }
}

TEST(TraceFuzzTest, EdgeTimestampTokens) {
  struct TsCase {
    std::string token;
    int64_t ts;
    std::string error;  // the whole message, when the line is rejected
  };
  const std::vector<TsCase> cases = {
      {"+7", 7, ""},
      {" 8 ", 8, ""},
      {"-9223372036854775808", INT64_MIN, ""},
      {"12x", 0, "trace line 1: bad timestamp '12x'"},
      // Trailing garbage is "bad" before the digits are "overflowing".
      {"99999999999999999999999x", 0,
       "trace line 1: bad timestamp '99999999999999999999999x'"},
      {"99999999999999999999999", 0,
       "trace line 1: timestamp '99999999999999999999999' overflows 64-bit "
       "range"},
      {"+-5", 0, "trace line 1: bad timestamp '+-5'"},
      {"", 0, "trace line 1: bad timestamp ''"},
      {std::string("4\0x", 3), 0,
       "trace line 1: bad timestamp '" + std::string("4\0x", 3) + "'"},
  };
  for (const TsCase& c : cases) {
    const std::string line = "A," + c.token + ",v=1\n";
    Schema schema;
    auto parsed = ParseTrace(line, &schema);
    const std::string ctx = "timestamp '" + c.token + "'";
    CheckAgree(line, ctx);
    if (!c.error.empty()) {
      ASSERT_FALSE(parsed.ok()) << ctx;
      EXPECT_EQ(parsed.status().message(), c.error) << ctx;
      continue;
    }
    ASSERT_TRUE(parsed.ok()) << ctx << ": " << parsed.status().ToString();
    EXPECT_EQ((*parsed)[0].ts(), c.ts) << ctx;
  }
}

}  // namespace
}  // namespace aseq
