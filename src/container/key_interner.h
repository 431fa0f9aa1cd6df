#ifndef ASEQ_CONTAINER_KEY_INTERNER_H_
#define ASEQ_CONTAINER_KEY_INTERNER_H_

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/hash_mix.h"
#include "common/value.h"
#include "container/flat_map.h"

namespace aseq {
namespace container {

/// Sentinel id: "no value here" (an uncovered part of an InternedKey, or a
/// lookup miss). Never a valid interned id.
inline constexpr uint32_t kNoId = 0xFFFFFFFFu;

/// Maximum partition-key parts an InternedKey can carry. Queries with
/// wider composite keys are rejected at engine-construction time
/// (CreateAseqEngine returns Unsupported) rather than silently truncated.
inline constexpr size_t kMaxKeyParts = 8;

/// \brief Maps distinct partition-key Values to dense uint32_t ids.
///
/// Interning is Value::Equals-consistent (Value(1) and Value(1.0) are
/// equal and hash alike, so they share one id), and ids are assigned in
/// first-intern order — a pure function of the operation history, so a
/// restored interner reproduces exactly the ids the original run would
/// have assigned to the stream suffix.
///
/// The table is append-only by design: partition keys recur (that is the
/// point of partitioning), so forgetting ids would only force re-interning
/// churn, and id stability is what lets checkpoints and the shard router
/// speak in ids at all. The cost is one live Value per distinct key value
/// ever seen — bounded by key cardinality, the same bound the partition
/// map itself lives under.
class KeyInterner {
 public:
  /// Returns the id for `v`, interning it first if unseen.
  uint32_t Intern(const Value& v) { return InternHashed(ValueHash{}(v), v); }

  /// Intern with a precomputed ValueHash — the staged hot path hashes at
  /// extraction time and interns each record right after.
  uint32_t InternHashed(uint64_t hash, const Value& v) {
    auto [id, inserted] = index_.TryEmplaceHashed(
        hash, v, static_cast<uint32_t>(values_.size()));
    if (inserted) values_.push_back(v);
    return *id;
  }

  /// Returns the id for `v`, or kNoId if it was never interned. Does not
  /// mutate the table — negated-role probes use this so values that never
  /// keyed a partition are not interned.
  uint32_t Lookup(const Value& v) const {
    return LookupHashed(ValueHash{}(v), v);
  }

  uint32_t LookupHashed(uint64_t hash, const Value& v) const {
    const uint32_t* id = index_.FindHashed(hash, v);
    return id == nullptr ? kNoId : *id;
  }

  const Value& ValueOf(uint32_t id) const {
    assert(id < values_.size());
    return values_[id];
  }

  uint32_t size() const { return static_cast<uint32_t>(values_.size()); }

  /// Values in id order — the checkpoint payload. Restoring this exact
  /// sequence via RestoreFromValues reproduces every id.
  const std::vector<Value>& values() const { return values_; }

  /// Rebuilds the interner from a checkpointed id-ordered value sequence.
  /// Returns false (leaving the interner cleared) if the sequence holds
  /// duplicate values — a corrupt payload that would alias two ids.
  bool RestoreFromValues(std::vector<Value> values);

  void Clear() {
    index_.Clear();
    values_.clear();
  }

  // Probe accounting + occupancy, folded into EngineStats::ht_* gauges.
  uint64_t probes() const { return index_.probes(); }
  uint64_t probe_steps() const { return index_.probe_steps(); }
  size_t capacity() const { return index_.capacity(); }

 private:
  FlatMap<Value, uint32_t, ValueHash> index_;
  std::vector<Value> values_;
};

/// \brief A partition key as a fixed-size array of interned ids.
///
/// Unused / uncovered parts hold kNoId. Equality is a word compare of the
/// id array — no Value comparisons on the probe path — and the key is
/// trivially copyable, so staging probes and expiry-heap entries carry it
/// by value with zero allocations.
struct InternedKey {
  std::array<uint32_t, kMaxKeyParts> ids;

  InternedKey() { ids.fill(kNoId); }

  friend bool operator==(const InternedKey& a, const InternedKey& b) {
    return a.ids == b.ids;
  }
  friend bool operator!=(const InternedKey& a, const InternedKey& b) {
    return !(a == b);
  }
};

/// Avalanching hash over the key's populated parts. Each combined word
/// packs the part's position with its id, so the hash is a pure function
/// of the key's content (which parts are set, and to what) while the
/// kNoId padding costs a predictable branch instead of a multiply — most
/// keys have one or two parts, not kMaxKeyParts.
struct InternedKeyHash {
  uint64_t operator()(const InternedKey& k) const {
    uint64_t h = 0x243f6a8885a308d3ULL;  // pi, for want of a better seed
    for (size_t i = 0; i < kMaxKeyParts; ++i) {
      if (k.ids[i] != kNoId) {
        h = HashCombine64(h, (static_cast<uint64_t>(i + 1) << 32) | k.ids[i]);
      }
    }
    return h;
  }
};

/// Hash for tables keyed directly by a single interned id.
struct IdHash {
  uint64_t operator()(uint32_t id) const { return HashMix64(id); }
};

}  // namespace container
}  // namespace aseq

#endif  // ASEQ_CONTAINER_KEY_INTERNER_H_
