#ifndef ASEQ_COMMON_VALUE_H_
#define ASEQ_COMMON_VALUE_H_

#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "common/hash_mix.h"

namespace aseq {

/// \brief Runtime type of an attribute value.
enum class ValueType {
  kNull = 0,
  kInt64,
  kDouble,
  kString,
};

const char* ValueTypeToString(ValueType type);

/// \brief Dynamically typed attribute value carried by events.
///
/// Values are small, copyable, ordered within a type, hashable, and
/// printable. Cross-type numeric comparison (int64 vs double) compares the
/// numeric magnitudes; comparing a number to a string or null is always
/// "unordered" and yields false for every relational operator except `!=`.
///
/// A Value is 16 bytes: an 8-byte payload (int64, double, or a pointer to
/// an immutable string shared by every copy, freed with the last one) and
/// its type. A copy of a string value costs one atomic increment, so events
/// copied between the parser, coordinator and lane threads never copy text.
class Value {
 public:
  /// Constructs a null value.
  Value() { bits_.i = 0; }
  Value(int64_t v) : type_(ValueType::kInt64) {  // NOLINT(runtime/explicit)
    bits_.i = v;
  }
  Value(int v) : Value(int64_t{v}) {}  // NOLINT(runtime/explicit)
  Value(double v) : type_(ValueType::kDouble) {  // NOLINT(runtime/explicit)
    bits_.d = v;
  }
  Value(std::string v) : type_(ValueType::kString) {  // NOLINT(runtime/explicit)
    bits_.s = new SharedString{{1}, std::move(v)};
  }
  Value(const char* v) : Value(std::string(v)) {}  // NOLINT(runtime/explicit)

  // GCC's -Wmaybe-uninitialized misreads a moved std::optional<Value>'s
  // payload in std::rotate as unset; the type tag guards every read.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
  Value(const Value& other) : bits_(other.bits_), type_(other.type_) {
    Ref();
  }
  Value(Value&& other) noexcept : bits_(other.bits_), type_(other.type_) {
    other.type_ = ValueType::kNull;
  }
  Value& operator=(Value other) noexcept {
    std::swap(bits_, other.bits_);
    std::swap(type_, other.type_);
    return *this;
  }
  ~Value() { Unref(); }
#pragma GCC diagnostic pop

  ValueType type() const { return type_; }

  bool is_null() const { return type() == ValueType::kNull; }
  bool is_numeric() const {
    return type() == ValueType::kInt64 || type() == ValueType::kDouble;
  }

  /// Accessors assume the matching type; call only after checking type().
  int64_t AsInt64() const { return bits_.i; }
  double AsDouble() const { return bits_.d; }
  const std::string& AsString() const { return bits_.s->text; }

  // The comparison/hash kernel is inline: admission evaluates these on
  // every event, and the call overhead measurably outweighed the bodies.

  /// Numeric value widened to double; 0.0 for non-numeric values.
  double ToDouble() const {
    switch (type()) {
      case ValueType::kInt64:
        return static_cast<double>(AsInt64());
      case ValueType::kDouble:
        return AsDouble();
      default:
        return 0.0;
    }
  }

  /// Equality: numerics compare by magnitude across int64/double; other
  /// cross-type comparisons are unequal. Null equals only null.
  bool Equals(const Value& other) const {
    if (is_numeric() && other.is_numeric()) {
      if (type() == ValueType::kInt64 && other.type() == ValueType::kInt64) {
        return AsInt64() == other.AsInt64();
      }
      return ToDouble() == other.ToDouble();
    }
    if (type() != other.type()) return false;
    switch (type()) {
      case ValueType::kNull:
        return true;
      case ValueType::kString:
        return AsString() == other.AsString();
      default:
        return false;  // unreachable; numerics handled above
    }
  }

  /// Strict-weak "less than" for same-kind values (numeric vs numeric or
  /// string vs string). Returns false for unordered combinations.
  bool LessThan(const Value& other) const {
    if (is_numeric() && other.is_numeric()) {
      if (type() == ValueType::kInt64 && other.type() == ValueType::kInt64) {
        return AsInt64() < other.AsInt64();
      }
      return ToDouble() < other.ToDouble();
    }
    if (type() == ValueType::kString && other.type() == ValueType::kString) {
      return AsString() < other.AsString();
    }
    return false;
  }

  /// True when the two values are comparable with relational operators.
  bool ComparableWith(const Value& other) const {
    if (is_numeric() && other.is_numeric()) return true;
    return type() == ValueType::kString && other.type() == ValueType::kString;
  }

  std::size_t Hash() const {
    // Every case runs through the HashMix64 avalanche: the open-addressing
    // flat tables (src/container/) slice this hash into a probe start (high
    // bits) and a 7-bit tag (low bits), and libstdc++'s identity-like
    // std::hash<int64_t> would cluster sequential ids into one probe chain.
    switch (type()) {
      case ValueType::kNull:
        return HashMix64(0x9e3779b97f4a7c15ULL);
      case ValueType::kInt64:
        return HashMix64(static_cast<uint64_t>(AsInt64()));
      case ValueType::kDouble: {
        // Hash integral doubles like the equal int64 so Equals/Hash agree.
        double d = AsDouble();
        double i;
        if (std::modf(d, &i) == 0.0 && i >= -9.2e18 && i <= 9.2e18) {
          return HashMix64(static_cast<uint64_t>(static_cast<int64_t>(i)));
        }
        return HashMix64(std::hash<double>()(d));
      }
      case ValueType::kString:
        return HashMix64(std::hash<std::string>()(AsString()));
    }
    return 0;
  }

  std::string ToString() const;

  friend bool operator==(const Value& a, const Value& b) { return a.Equals(b); }
  friend bool operator!=(const Value& a, const Value& b) { return !a.Equals(b); }

 private:
  struct SharedString {
    std::atomic<uint32_t> refs;
    const std::string text;
  };

  void Ref() const {
    if (type_ == ValueType::kString) bits_.s->refs.fetch_add(1);
  }
  void Unref() {
    if (type_ == ValueType::kString && bits_.s->refs.fetch_sub(1) == 1) {
      delete bits_.s;
    }
  }

  union {
    int64_t i;
    double d;
    SharedString* s;
  } bits_;
  ValueType type_ = ValueType::kNull;
};

static_assert(sizeof(Value) == 16);

/// Hash functor so Value can key unordered containers.
struct ValueHash {
  std::size_t operator()(const Value& v) const { return v.Hash(); }
};

/// Deterministic total order across value kinds (null < numeric < string),
/// consistent with Equals within each kind; for ordered containers.
struct ValueTotalLess {
  static int Rank(const Value& v) {
    if (v.is_null()) return 0;
    if (v.is_numeric()) return 1;
    return 2;
  }
  bool operator()(const Value& a, const Value& b) const {
    int ra = Rank(a), rb = Rank(b);
    if (ra != rb) return ra < rb;
    if (ra == 1) return a.ToDouble() < b.ToDouble();
    if (ra == 2) return a.AsString() < b.AsString();
    return false;
  }
};

}  // namespace aseq

#endif  // ASEQ_COMMON_VALUE_H_
