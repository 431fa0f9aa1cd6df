#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/event.h"
#include "common/rng.h"
#include "common/schema.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/value.h"

namespace aseq {
namespace {

// --------------------------------------------------------------------------
// Status / Result
// --------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad thing");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad thing");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kParseError), "ParseError");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kAlreadyExists), "AlreadyExists");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kUnsupported), "Unsupported");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kIoError), "IoError");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInternal), "Internal");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveValue) {
  Result<std::string> r = std::string("hello");
  std::string v = r.MoveValue();
  EXPECT_EQ(v, "hello");
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseAssignOrReturn(int x, int* out) {
  ASEQ_ASSIGN_OR_RETURN(int half, Half(x));
  *out = half;
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(10, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_EQ(UseAssignOrReturn(7, &out).code(), StatusCode::kInvalidArgument);
}

// --------------------------------------------------------------------------
// Value
// --------------------------------------------------------------------------

TEST(ValueTest, Types) {
  EXPECT_EQ(Value().type(), ValueType::kNull);
  EXPECT_EQ(Value(int64_t{5}).type(), ValueType::kInt64);
  EXPECT_EQ(Value(5).type(), ValueType::kInt64);
  EXPECT_EQ(Value(2.5).type(), ValueType::kDouble);
  EXPECT_EQ(Value("abc").type(), ValueType::kString);
  EXPECT_EQ(Value(std::string("abc")).type(), ValueType::kString);
}

TEST(ValueTest, NumericCrossTypeEquality) {
  EXPECT_TRUE(Value(5).Equals(Value(5.0)));
  EXPECT_FALSE(Value(5).Equals(Value(5.5)));
  EXPECT_TRUE(Value(5).Equals(Value(5)));
}

TEST(ValueTest, NullEqualsOnlyNull) {
  EXPECT_TRUE(Value().Equals(Value()));
  EXPECT_FALSE(Value().Equals(Value(0)));
  EXPECT_FALSE(Value(0).Equals(Value()));
}

TEST(ValueTest, StringVsNumberUnequal) {
  EXPECT_FALSE(Value("5").Equals(Value(5)));
  EXPECT_FALSE(Value("5").ComparableWith(Value(5)));
}

TEST(ValueTest, Ordering) {
  EXPECT_TRUE(Value(1).LessThan(Value(2)));
  EXPECT_TRUE(Value(1).LessThan(Value(1.5)));
  EXPECT_FALSE(Value(2).LessThan(Value(1)));
  EXPECT_TRUE(Value("a").LessThan(Value("b")));
  EXPECT_FALSE(Value("a").LessThan(Value(1)));  // unordered
}

TEST(ValueTest, HashConsistentWithEquals) {
  EXPECT_EQ(Value(7).Hash(), Value(7.0).Hash());
  EXPECT_EQ(Value("x").Hash(), Value(std::string("x")).Hash());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value().ToString(), "null");
  EXPECT_EQ(Value(42).ToString(), "42");
  EXPECT_EQ(Value("hi").ToString(), "hi");
  EXPECT_EQ(Value(2.5).ToString(), "2.5");
}

TEST(ValueTest, TotalOrderAcrossKinds) {
  ValueTotalLess less;
  EXPECT_TRUE(less(Value(), Value(0)));
  EXPECT_TRUE(less(Value(99), Value("a")));
  EXPECT_FALSE(less(Value("a"), Value(99)));
  EXPECT_FALSE(less(Value(5), Value(5.0)));
  EXPECT_FALSE(less(Value(5.0), Value(5)));
}

TEST(ValueTest, StringCopyMoveAndSelfAssignment) {
  // Short (in-place for std::string) and long strings alike.
  for (const std::string& text :
       {std::string("ip-7"), std::string(100, 'x'), std::string()}) {
    Value a(text);
    Value copy = a;
    EXPECT_EQ(copy.type(), ValueType::kString);
    EXPECT_EQ(copy.AsString(), text);
    EXPECT_EQ(a.AsString(), text);
    Value moved = std::move(copy);
    EXPECT_EQ(moved.AsString(), text);
    copy = Value(3);  // a moved-from value is assignable
    EXPECT_TRUE(copy.Equals(Value(3)));
    Value& alias = a;
    a = alias;
    EXPECT_EQ(a.AsString(), text);
    // Overwrite a string with a number and back.
    Value b = a;
    b = Value(1.5);
    EXPECT_EQ(b.type(), ValueType::kDouble);
    EXPECT_EQ(a.AsString(), text);
    b = a;
    EXPECT_EQ(b.AsString(), text);
    a = Value();
    EXPECT_TRUE(a.is_null());
    EXPECT_EQ(b.AsString(), text);
  }
}

TEST(ValueTest, StringHashEqualsAndToString) {
  const Value a("10.0.0.7");
  const Value b(std::string("10.0.0.7"));
  const Value c("10.0.0.8");
  EXPECT_TRUE(a.Equals(b));
  EXPECT_FALSE(a.Equals(c));
  EXPECT_TRUE(a == Value(a));
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_EQ(a.Hash(), Value(a).Hash());
  EXPECT_EQ(a.Hash(), HashMix64(std::hash<std::string>()("10.0.0.7")));
  EXPECT_EQ(a.ToString(), "10.0.0.7");
  EXPECT_TRUE(a.LessThan(c));
  EXPECT_FALSE(c.LessThan(a));
  EXPECT_FALSE(a.Equals(Value()));
  EXPECT_EQ(Value("").ToString(), "");
  EXPECT_EQ(Value(-7).Hash(), HashMix64(static_cast<uint64_t>(int64_t{-7})));
  EXPECT_EQ(Value().Hash(), HashMix64(0x9e3779b97f4a7c15ULL));
}

TEST(ValueTest, StringSharedAcrossThreads) {
  // Copies of one string value made and destroyed on several threads at
  // once (parser, coordinator and lane threads do this with event
  // attributes); ThreadSanitizer runs this case (ctest -L value).
  const Value shared(std::string(40, 'k'));
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&shared] {
      std::vector<Value> copies;
      for (int i = 0; i < 2000; ++i) {
        copies.push_back(shared);
        if (copies.size() == 16) copies.clear();
      }
      copies.push_back(shared);
      Value moved = std::move(copies.front());
      EXPECT_EQ(moved.AsString(), std::string(40, 'k'));
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(shared.AsString(), std::string(40, 'k'));
}

// --------------------------------------------------------------------------
// Schema
// --------------------------------------------------------------------------

TEST(SchemaTest, RegistrationIsIdempotent) {
  Schema schema;
  EventTypeId a1 = schema.RegisterEventType("A");
  EventTypeId a2 = schema.RegisterEventType("A");
  EventTypeId b = schema.RegisterEventType("B");
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_EQ(schema.num_event_types(), 2u);
}

TEST(SchemaTest, LookupAndNames) {
  Schema schema;
  EventTypeId a = schema.RegisterEventType("DELL");
  AttrId p = schema.RegisterAttribute("price");
  ASSERT_TRUE(schema.FindEventType("DELL").ok());
  EXPECT_EQ(*schema.FindEventType("DELL"), a);
  EXPECT_EQ(*schema.FindAttribute("price"), p);
  EXPECT_EQ(schema.EventTypeName(a), "DELL");
  EXPECT_EQ(schema.AttributeName(p), "price");
  EXPECT_FALSE(schema.FindEventType("IPIX").ok());
  EXPECT_EQ(schema.FindEventType("IPIX").status().code(),
            StatusCode::kNotFound);
}

TEST(SchemaTest, UnknownIdsRenderQuestionMark) {
  Schema schema;
  EXPECT_EQ(schema.EventTypeName(99), "?");
  EXPECT_EQ(schema.AttributeName(99), "?");
}

// --------------------------------------------------------------------------
// Event
// --------------------------------------------------------------------------

TEST(EventTest, AttributeAccess) {
  Schema schema;
  AttrId price = schema.RegisterAttribute("price");
  AttrId volume = schema.RegisterAttribute("volume");
  Event e(schema.RegisterEventType("DELL"), 100);
  e.SetAttr(price, Value(24.5));
  EXPECT_NE(e.FindAttr(price), nullptr);
  EXPECT_EQ(e.FindAttr(volume), nullptr);
  EXPECT_TRUE(e.GetAttr(price).Equals(Value(24.5)));
  EXPECT_TRUE(e.GetAttr(volume).is_null());
}

TEST(EventTest, SetAttrOverwrites) {
  Schema schema;
  AttrId price = schema.RegisterAttribute("price");
  Event e(schema.RegisterEventType("DELL"), 100);
  e.SetAttr(price, Value(1));
  e.SetAttr(price, Value(2));
  EXPECT_TRUE(e.GetAttr(price).Equals(Value(2)));
  EXPECT_EQ(e.attrs().size(), 1u);
}

TEST(EventTest, ToStringRendersTypeAndAttrs) {
  Schema schema;
  Event e(schema.RegisterEventType("DELL"), 7);
  e.SetAttr(schema.RegisterAttribute("v"), Value(3));
  EXPECT_EQ(e.ToString(schema), "DELL@7{v=3}");
}

TEST(EventTest, ManyAttributesCopyMoveAndClear) {
  // Enough attributes to outgrow any in-place storage, then shrink.
  Event e(3, 9);
  for (AttrId a = 0; a < 12; ++a) {
    e.SetAttr(a, a % 2 == 0 ? Value(int64_t{a}) : Value("s" + std::to_string(a)));
    ASSERT_EQ(e.attrs().size(), a + 1u);
    for (AttrId b = 0; b <= a; ++b) {
      ASSERT_NE(e.FindAttr(b), nullptr) << a << " " << b;
      EXPECT_EQ(e.attrs()[b].first, b);
    }
  }
  e.SetAttr(5, Value(2.5));  // overwrite in place
  EXPECT_EQ(e.attrs().size(), 12u);
  EXPECT_TRUE(e.GetAttr(5).Equals(Value(2.5)));
  Event copy = e;
  EXPECT_EQ(copy.attrs(), e.attrs());
  EXPECT_EQ(copy.type(), 3u);
  EXPECT_EQ(copy.ts(), 9);
  Event moved = std::move(copy);
  EXPECT_EQ(moved.attrs(), e.attrs());
  copy = moved;  // assign into a moved-from event
  EXPECT_EQ(copy.attrs(), e.attrs());
  Event& alias = copy;
  copy = alias;
  EXPECT_EQ(copy.attrs(), e.attrs());
  size_t seen = 0;
  for (const auto& [attr, value] : e.attrs()) {
    EXPECT_TRUE(value.Equals(e.GetAttr(attr)));
    ++seen;
  }
  EXPECT_EQ(seen, 12u);
  e.ClearAttrs();
  EXPECT_EQ(e.attrs().size(), 0u);
  EXPECT_EQ(e.FindAttr(0), nullptr);
  e.SetAttr(4, Value("again"));
  EXPECT_EQ(e.attrs().size(), 1u);
  EXPECT_EQ(e.GetAttr(4).AsString(), "again");
  EXPECT_FALSE(e.attrs() == copy.attrs());
  // A small event assigned over a large one and back.
  Event small(1, 2);
  small.SetAttr(0, Value(1));
  copy = small;
  EXPECT_EQ(copy.attrs(), small.attrs());
  small = moved;
  EXPECT_EQ(small.attrs(), moved.attrs());
  std::swap(small, copy);
  EXPECT_EQ(copy.attrs(), moved.attrs());
  EXPECT_EQ(small.attrs().size(), 1u);
}

// --------------------------------------------------------------------------
// Rng
// --------------------------------------------------------------------------

TEST(RngTest, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
  }
  bool any_diff = false;
  Rng a2(42);
  for (int i = 0; i < 100; ++i) {
    if (a2.Next() != c.Next()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, RangesRespected) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInt(-3, 7);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 7);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    EXPECT_LT(rng.NextUInt(5), 5u);
  }
}

TEST(RngTest, CoversRange) {
  Rng rng(2);
  std::unordered_set<int64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.NextInt(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

// --------------------------------------------------------------------------
// string_util
// --------------------------------------------------------------------------

TEST(StringUtilTest, Split) {
  auto parts = SplitString("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
  EXPECT_EQ(SplitString("", ',').size(), 1u);
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(TrimWhitespace("  x y \t\n"), "x y");
  EXPECT_EQ(TrimWhitespace(""), "");
  EXPECT_EQ(TrimWhitespace("   "), "");
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(JoinStrings({}, ","), "");
}

TEST(StringUtilTest, CaseInsensitiveEquals) {
  EXPECT_TRUE(EqualsIgnoreCase("PaTtErN", "pattern"));
  EXPECT_FALSE(EqualsIgnoreCase("pattern", "patterns"));
  EXPECT_EQ(ToUpperAscii("seq"), "SEQ");
}

}  // namespace
}  // namespace aseq
