#ifndef ASEQ_COMMON_EVENT_H_
#define ASEQ_COMMON_EVENT_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <utility>

#include "common/schema.h"
#include "common/value.h"

namespace aseq {

/// Event occurrence time in milliseconds. The paper assumes in-order arrival;
/// engines treat the stream order as the timestamp order (strict `<` in
/// Eq. 1 is enforced via the arrival sequence number for ties).
using Timestamp = int64_t;

/// Monotone arrival sequence number, assigned by the feeding runtime.
using SeqNum = uint64_t;

/// \brief A read-only view of an event's (AttrId, Value) pairs, in the
/// order they were first set.
class AttrRange {
 public:
  using value_type = std::pair<AttrId, Value>;
  using const_iterator = const value_type*;

  AttrRange(const value_type* data, size_t size) : data_(data), size_(size) {}

  size_t size() const { return size_; }
  const_iterator begin() const { return data_; }
  const_iterator end() const { return data_ + size_; }
  const value_type& operator[](size_t i) const { return data_[i]; }

  friend bool operator==(AttrRange a, AttrRange b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  const value_type* data_;
  size_t size_;
};

/// \brief A single event instance: a type, a timestamp, and attributes.
///
/// Attributes are a small flat array of (AttrId, Value) pairs; events in
/// CEP workloads carry a handful of attributes, for which a linear scan
/// beats hashing. The first kInlineAttrs pairs live in the event itself;
/// an event with more moves all of them to one heap block, which it keeps
/// (through ClearAttrs and copy-assignment) for reuse.
class Event {
 public:
  using Attr = std::pair<AttrId, Value>;
  /// Pairs held without a heap block. One covers a grouped query's key
  /// under its read set and keeps an Event at 48 bytes, so events without
  /// attributes are no larger than before (docs/internals.md §18).
  static constexpr uint32_t kInlineAttrs = 1;

  Event() {}
  Event(EventTypeId type, Timestamp ts) : type_(type), ts_(ts) {}
  Event(const Event& other);
  Event(Event&& other) noexcept;
  Event& operator=(const Event& other);
  Event& operator=(Event&& other) noexcept;
  ~Event();

  EventTypeId type() const { return type_; }
  Timestamp ts() const { return ts_; }
  SeqNum seq() const { return seq_; }

  void set_type(EventTypeId type) { type_ = type; }
  void set_ts(Timestamp ts) { ts_ = ts; }
  void set_seq(SeqNum seq) { seq_ = seq; }

  /// Sets (or overwrites) an attribute value. Inline, as ClearAttrs: the
  /// trace parser calls both for every line.
  void SetAttr(AttrId attr, Value value) {
    Attr* a = data();
    const uint32_t n = size();
    for (uint32_t i = 0; i < n; ++i) {
      if (a[i].first == attr) {
        a[i].second = std::move(value);
        return;
      }
    }
    // Leaving the inline slot, room for a few pairs at once: a parsed
    // event with three attributes allocates one block, not two.
    if (n == capacity()) Grow(n + 1 < 4 ? 4 : n + 1);
    new (data() + n) Attr(attr, std::move(value));
    ++count_;
  }

  /// Removes every attribute but keeps the storage, so an event recycled
  /// through a parser allocates nothing for numeric attributes.
  void ClearAttrs() {
    std::destroy_n(data(), size());
    count_ &= kOnHeap;
  }

  /// Returns the attribute value, or nullptr if absent. Inline: this is
  /// the single hottest call of the admission path (a few compares over a
  /// tiny flat array — the call overhead used to cost more than the scan).
  const Value* FindAttr(AttrId attr) const {
    const Attr* a = data();
    for (uint32_t i = 0, n = size(); i < n; ++i) {
      if (a[i].first == attr) return &a[i].second;
    }
    return nullptr;
  }

  /// Returns the attribute value, or a null Value if absent.
  const Value& GetAttr(AttrId attr) const {
    static const Value kNull;
    const Value* v = FindAttr(attr);
    return v != nullptr ? *v : kNull;
  }

  AttrRange attrs() const { return {data(), size()}; }
  /// Mutable attribute pairs: the trace reader rewrites ids in place.
  std::span<Attr> mutable_attrs() { return {data(), size()}; }

  /// Debug rendering: "Type@ts{attr=value,...}" using names from `schema`.
  std::string ToString(const Schema& schema) const;

 private:
  /// Set in count_ while the pairs live in heap_.
  static constexpr uint32_t kOnHeap = uint32_t{1} << 31;

  bool on_heap() const { return (count_ & kOnHeap) != 0; }
  uint32_t size() const { return count_ & ~kOnHeap; }
  uint32_t capacity() const { return on_heap() ? heap_.cap : kInlineAttrs; }
  Attr* data() { return on_heap() ? heap_.data : inline_; }
  const Attr* data() const { return on_heap() ? heap_.data : inline_; }
  /// Makes room for `n` pairs, moving the present ones.
  void Reserve(uint32_t n) {
    if (n > capacity()) Grow(n);
  }
  void Grow(uint32_t n);
  /// Destroys the pairs and frees a heap block (the event is then empty).
  void Release();

  EventTypeId type_ = kInvalidEventType;
  uint32_t count_ = 0;  // pairs, | kOnHeap
  Timestamp ts_ = 0;
  SeqNum seq_ = 0;
  union {
    Attr inline_[kInlineAttrs];
    struct {
      Attr* data;
      uint32_t cap;
    } heap_;
  };
};

}  // namespace aseq

#endif  // ASEQ_COMMON_EVENT_H_
