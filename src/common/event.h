#ifndef ASEQ_COMMON_EVENT_H_
#define ASEQ_COMMON_EVENT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/schema.h"
#include "common/value.h"

namespace aseq {

/// Event occurrence time in milliseconds. The paper assumes in-order arrival;
/// engines treat the stream order as the timestamp order (strict `<` in
/// Eq. 1 is enforced via the arrival sequence number for ties).
using Timestamp = int64_t;

/// Monotone arrival sequence number, assigned by the feeding runtime.
using SeqNum = uint64_t;

/// \brief A single event instance: a type, a timestamp, and attributes.
///
/// Attributes are stored as a small flat vector of (AttrId, Value) pairs;
/// events in CEP workloads carry a handful of attributes, for which a linear
/// scan beats hashing.
class Event {
 public:
  Event() = default;
  Event(EventTypeId type, Timestamp ts) : type_(type), ts_(ts) {}

  EventTypeId type() const { return type_; }
  Timestamp ts() const { return ts_; }
  SeqNum seq() const { return seq_; }

  void set_type(EventTypeId type) { type_ = type; }
  void set_ts(Timestamp ts) { ts_ = ts; }
  void set_seq(SeqNum seq) { seq_ = seq; }

  /// Sets (or overwrites) an attribute value.
  void SetAttr(AttrId attr, Value value);

  /// Removes every attribute but keeps the storage, so an event recycled
  /// through a parser allocates nothing for numeric attributes.
  void ClearAttrs() { attrs_.clear(); }

  /// Returns the attribute value, or nullptr if absent. Inline: this is
  /// the single hottest call of the admission path (a few compares over a
  /// tiny flat vector — the call overhead used to cost more than the scan).
  const Value* FindAttr(AttrId attr) const {
    for (const auto& kv : attrs_) {
      if (kv.first == attr) return &kv.second;
    }
    return nullptr;
  }

  /// Returns the attribute value, or a null Value if absent.
  const Value& GetAttr(AttrId attr) const {
    static const Value kNull;
    const Value* v = FindAttr(attr);
    return v != nullptr ? *v : kNull;
  }

  const std::vector<std::pair<AttrId, Value>>& attrs() const { return attrs_; }
  /// Mutable attribute pairs: the trace reader rewrites ids in place.
  std::vector<std::pair<AttrId, Value>>& mutable_attrs() { return attrs_; }

  /// Debug rendering: "Type@ts{attr=value,...}" using names from `schema`.
  std::string ToString(const Schema& schema) const;

 private:
  EventTypeId type_ = kInvalidEventType;
  Timestamp ts_ = 0;
  SeqNum seq_ = 0;
  std::vector<std::pair<AttrId, Value>> attrs_;
};

}  // namespace aseq

#endif  // ASEQ_COMMON_EVENT_H_
