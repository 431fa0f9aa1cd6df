#ifndef ASEQ_CKPT_CKPT_H_
#define ASEQ_CKPT_CKPT_H_

#include <cstdint>
#include <queue>
#include <string>
#include <string_view>

#include "common/event.h"
#include "common/status.h"
#include "common/value.h"
#include "metrics/metrics.h"

namespace aseq {

struct PartitionKey;

namespace ckpt {

/// \brief Append-only serializer for checkpoint payloads.
///
/// All primitives are fixed-width little-endian; strings and repeated
/// sections are length-prefixed, so a payload can always be skipped or
/// bounds-checked without knowing its producer. Doubles are bit-cast to
/// uint64, preserving every payload bit (NaNs, -0.0) — restore must be
/// byte-exact, not merely value-approximate.
class Writer {
 public:
  void WriteU8(uint8_t v);
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI64(int64_t v) { WriteU64(static_cast<uint64_t>(v)); }
  void WriteDouble(double v);
  /// u64 length prefix + raw bytes.
  void WriteString(std::string_view s);

  const std::string& buffer() const { return buf_; }
  size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

/// \brief Bounds-checked deserializer for checkpoint payloads.
///
/// Every read validates the remaining byte budget first and fails with a
/// ParseError naming the field and offset — a truncated or corrupt payload
/// can never read out of bounds or allocate an absurd amount.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  Status ReadU8(uint8_t* v, const char* what);
  Status ReadBool(bool* v, const char* what);
  Status ReadU32(uint32_t* v, const char* what);
  Status ReadU64(uint64_t* v, const char* what);
  Status ReadI64(int64_t* v, const char* what);
  Status ReadDouble(double* v, const char* what);
  Status ReadString(std::string* s, const char* what);

  /// Reads a u64 element count and validates it against the bytes left:
  /// `n * min_elem_bytes` may not exceed the remaining payload, so a corrupt
  /// count fails here instead of driving a multi-gigabyte allocation.
  Status ReadCount(uint64_t* n, uint64_t min_elem_bytes, const char* what);

  /// Fails unless every payload byte has been consumed — catches payload /
  /// engine-version drift that happens to parse.
  Status ExpectEnd() const;

  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }

 private:
  Status Need(size_t n, const char* what);

  std::string_view data_;
  size_t pos_ = 0;
};

// ---- Serialization of common engine-state building blocks. ----

void WriteValue(Writer* w, const Value& v);
Status ReadValue(Reader* r, Value* v);

void WriteEvent(Writer* w, const Event& e);
Status ReadEvent(Reader* r, Event* e);

void WritePartitionKey(Writer* w, const PartitionKey& key);
Status ReadPartitionKey(Reader* r, PartitionKey* key);

/// EngineStats round-trip: the checkpointed kStatsFields rows, one 8-byte
/// word each in table order; a read leaves the transient rows untouched.
/// Engines write their stats alongside the state that produced them and
/// restore them wholesale *after* rebuilding the structures (whose
/// constructors would otherwise double-count objects).
void WriteStats(Writer* w, const EngineStats& s);
Status ReadStats(Reader* r, EngineStats* s);

/// Checks restored stats against `live`, the live-object count the
/// engine's rebuilt state implies. They differ only in a corrupt payload,
/// and adopting such a count would later drive the live count negative as
/// the rebuilt state expires.
Status CheckLiveObjects(const EngineStats& restored, int64_t live);

/// CheckLiveObjects for the composite engine (nonshare, sase, hybrid),
/// which also carries `sampled`, its last sample of the parts' combined
/// live count: it too must equal `live`, the restored parts' sum.
Status CheckSampledObjects(const EngineStats& restored, int64_t sampled,
                           int64_t live);

/// \brief Read access to a priority_queue's underlying heap array.
///
/// Heaps whose comparator is not a total order (e.g. expiry heaps keyed on
/// timestamp alone) pop equal keys in an order determined by the internal
/// array layout. Serializing a drained copy and re-pushing re-heapifies,
/// which can permute those ties — observable wherever pop order drives
/// floating-point accumulation (windowed SUM retractions). Such heaps must
/// snapshot the raw array and restore it verbatim via
/// MutableHeapContainer, reproducing pop order bit-for-bit.
template <typename T, typename Container, typename Compare>
const Container& HeapContainer(
    const std::priority_queue<T, Container, Compare>& q) {
  struct Access : std::priority_queue<T, Container, Compare> {
    static const Container& Get(
        const std::priority_queue<T, Container, Compare>& q) {
      return q.*&Access::c;
    }
  };
  return Access::Get(q);
}

/// Mutable counterpart of HeapContainer for restore: append the serialized
/// elements in array order (the array was a valid heap when written, so no
/// re-heapify is needed or wanted).
template <typename T, typename Container, typename Compare>
Container& MutableHeapContainer(std::priority_queue<T, Container, Compare>& q) {
  struct Access : std::priority_queue<T, Container, Compare> {
    static Container& Get(std::priority_queue<T, Container, Compare>& q) {
      return q.*&Access::c;
    }
  };
  return Access::Get(q);
}

}  // namespace ckpt
}  // namespace aseq

#endif  // ASEQ_CKPT_CKPT_H_
