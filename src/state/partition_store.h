#ifndef ASEQ_STATE_PARTITION_STORE_H_
#define ASEQ_STATE_PARTITION_STORE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/ckpt.h"
#include "common/status.h"
#include "container/flat_map.h"
#include "container/key_interner.h"
#include "container/slab_pool.h"

namespace aseq {
namespace state {

/// "No partition" sentinel in the dense slot index.
inline constexpr uint32_t kNoSlot = 0xFFFFFFFFu;

/// Dense-index position for an interned id. Ids map to id+1 and the kNoId
/// sentinel wraps to 0, so wildcard keys (a key part no spec part covers)
/// get a reserved bucket instead of an out-of-range access.
constexpr uint32_t DenseIdx(uint32_t id) { return id + 1u; }

/// \brief The partition-state spine shared by every partitioned engine:
/// interned keys, a slab of per-partition entries, and the index that
/// resolves a sealed key to its slab slot.
///
/// Extracted from HpcEngine (PR 4 built it in place; this layer makes it
/// reusable by the sharing engines). The pieces and their contracts:
///
///  - a SlabPool of `P` entries — the *iteration authority*: every
///    observable sweep walks ascending slot order, and checkpoints carry
///    the exact slab geometry so restores reproduce it byte-for-byte;
///  - a partition index with no ordering obligations, rebuilt fresh on
///    restore: single-part keys (the common GROUP BY case) use a dense
///    direct-mapped slot array — interned ids index it outright, no
///    hashing — and wider keys use an open-addressing FlatMap from
///    InternedKey to slab slot;
///  - a KeyInterner mapping distinct key Values to dense ids, append-only
///    and serialized in id order.
///
/// `P` must expose `container::InternedKey key` and `uint64_t hash`
/// members (pinned at creation so erase/expiry paths never rehash).
///
/// The store serializes everything *structural* (interner table, slab
/// geometry, per-entry keys and slots, freelist); the per-entry dynamic
/// payload is delegated to caller callbacks, so one checkpoint format
/// serves HPC counter sets and the sharing engines' segment/trie state
/// alike. Entries are written in canonical interned-id key order (not
/// history-dependent slot order), so two logically identical states
/// produce identical payload bytes.
template <typename P>
class PartitionStore {
 public:
  explicit PartitionStore(bool single_part = true)
      : single_part_(single_part) {}

  bool single_part() const { return single_part_; }

  container::KeyInterner& interner() { return interner_; }
  const container::KeyInterner& interner() const { return interner_; }

  size_t size() const { return slab_.size(); }
  uint32_t end() const { return slab_.end(); }
  bool live(uint32_t slot) const { return slab_.live(slot); }
  P& at(uint32_t slot) { return slab_.at(slot); }
  const P& at(uint32_t slot) const { return slab_.at(slot); }

  /// Resolves a sealed probe key to its partition's slab slot, or kNoSlot.
  /// Single-part keys are a direct array access; wider keys probe the
  /// hash index.
  uint32_t Lookup(uint64_t hash, const container::InternedKey& key) const {
    if (single_part_) {
      const uint32_t idx = DenseIdx(key.ids[0]);
      return idx < slot_by_id_.size() ? slot_by_id_[idx] : kNoSlot;
    }
    const uint32_t* slot = index_.FindHashed(hash, key);
    return slot == nullptr ? kNoSlot : *slot;
  }

  /// Index entry for a new partition: returns the slot cell (holding
  /// kNoSlot if the entry was just created) and whether it was created.
  /// The caller follows an insertion with Emplace and stores the slot.
  std::pair<uint32_t*, bool> Upsert(uint64_t hash,
                                    const container::InternedKey& key) {
    if (single_part_) {
      const uint32_t idx = DenseIdx(key.ids[0]);
      if (idx >= slot_by_id_.size()) {
        slot_by_id_.resize(interner_.size() + 1, kNoSlot);
      }
      uint32_t* slot = &slot_by_id_[idx];
      return {slot, *slot == kNoSlot};
    }
    return index_.TryEmplaceHashed(hash, key, kNoSlot);
  }

  /// Slab-allocates a new entry (freelist LIFO, else append).
  template <typename... Args>
  uint32_t Emplace(Args&&... args) {
    return slab_.Emplace(std::forward<Args>(args)...);
  }

  /// Removes the entry at `slot` from the index and the slab.
  void Erase(uint32_t slot) {
    P& entry = slab_.at(slot);
    if (single_part_) {
      slot_by_id_[DenseIdx(entry.key.ids[0])] = kNoSlot;
    } else {
      index_.EraseHashed(entry.hash, entry.key);
    }
    slab_.Free(slot);
  }

  /// Warms the index (or dense-array) line a Lookup for this key will
  /// touch.
  void PrefetchLookup(uint64_t hash, const container::InternedKey& key) const {
    if (single_part_) {
      const uint32_t idx = DenseIdx(key.ids[0]);
      if (idx < slot_by_id_.size()) {
        __builtin_prefetch(&slot_by_id_[idx], /*rw=*/0, /*locality=*/3);
      }
    } else {
      index_.PrefetchSlot(hash);
    }
  }

  /// Resolves the key now and pulls the slab entry itself into cache
  /// (DRAMHiT-style). Purely a cache warmer: the result is deliberately
  /// not returned, since executing earlier batch events can create or
  /// erase partitions and a cached slot must never be trusted.
  void PrefetchEntry(uint64_t hash, const container::InternedKey& key) const {
    const uint32_t slot = Lookup(hash, key);
    if (slot != kNoSlot) {
      __builtin_prefetch(&slab_.at(slot), /*rw=*/0, /*locality=*/3);
    }
  }

  // ---- Probe accounting + occupancy (EngineStats::ht_* gauges). ----
  uint64_t probes() const { return index_.probes() + interner_.probes(); }
  uint64_t probe_steps() const {
    return index_.probe_steps() + interner_.probe_steps();
  }
  size_t table_capacity() const {
    return index_.capacity() + interner_.capacity();
  }
  size_t table_entries() const { return index_.size() + interner_.size(); }

  /// Serializes the interner table (values in id order) and the slab —
  /// entries in canonical interned-id key order, each with its slot index
  /// and the payload `entry_fn(entry, writer)` emits, plus the freelist
  /// and high-water mark, pinning the slab's observable iteration order
  /// exactly. The index is *not* serialized: its layout is never
  /// observable, so Restore() rebuilds it fresh.
  template <typename EntryFn>
  Status Checkpoint(ckpt::Writer* writer, EntryFn&& entry_fn) const {
    writer->WriteU64(interner_.size());
    for (const Value& v : interner_.values()) ckpt::WriteValue(writer, v);
    writer->WriteU64(slab_.end());
    writer->WriteU64(slab_.size());
    std::vector<uint32_t> order;
    order.reserve(slab_.size());
    for (uint32_t s = 0; s < slab_.end(); ++s) {
      if (slab_.live(s)) order.push_back(s);
    }
    std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
      return slab_.at(a).key.ids < slab_.at(b).key.ids;
    });
    for (uint32_t s : order) {
      const P& entry = slab_.at(s);
      for (uint32_t id : entry.key.ids) writer->WriteU32(id);
      writer->WriteU32(s);
      ASEQ_RETURN_NOT_OK(entry_fn(entry, writer));
    }
    writer->WriteU64(slab_.freelist().size());
    for (uint32_t s : slab_.freelist()) writer->WriteU32(s);
    return Status::OK();
  }

  /// Inverse of Checkpoint. `emplace_fn(slot, key, hash, reader)` must
  /// construct the entry via RestoreEmplaceAt(slot, ...) and read its
  /// payload; the store validates geometry, rebuilds the index, and
  /// restores the freelist around it.
  template <typename EmplaceFn>
  Status Restore(ckpt::Reader* reader, EmplaceFn&& emplace_fn) {
    uint64_t n_values = 0;
    ASEQ_RETURN_NOT_OK(reader->ReadCount(&n_values, 1, "interned values"));
    std::vector<Value> values;
    values.reserve(n_values);
    for (uint64_t i = 0; i < n_values; ++i) {
      Value v;
      ASEQ_RETURN_NOT_OK(ckpt::ReadValue(reader, &v));
      values.push_back(std::move(v));
    }
    if (!interner_.RestoreFromValues(std::move(values))) {
      return Status::ParseError(
          "snapshot corrupt: duplicate value in interner table");
    }
    // Slab geometry: every slot below the high-water mark must come back
    // either live (a partition entry names it) or on the freelist.
    uint64_t slab_end = 0;
    uint64_t n_entries = 0;
    ASEQ_RETURN_NOT_OK(reader->ReadU64(&slab_end, "partition slab end"));
    ASEQ_RETURN_NOT_OK(reader->ReadCount(&n_entries, 40, "partitions"));
    if (slab_end > 0xFFFFFFFFull) {
      return Status::ParseError("snapshot corrupt: partition slab end " +
                                std::to_string(slab_end) +
                                " exceeds the 32-bit slot space");
    }
    if (n_entries > slab_end) {
      return Status::ParseError(
          "snapshot corrupt: more partitions than slab slots");
    }
    // Every other slot comes back as a 4-byte freelist entry, so a corrupt
    // high-water mark fails here instead of driving the slab allocation.
    if (slab_end - n_entries > reader->remaining() / 4) {
      return Status::ParseError("snapshot corrupt: partition slab end " +
                                std::to_string(slab_end) +
                                " exceeds the snapshot's freelist");
    }
    slab_.ResetGeometry(static_cast<uint32_t>(slab_end));
    index_ = Index();
    if (single_part_) {
      slot_by_id_.assign(interner_.size() + 1, kNoSlot);
    } else {
      slot_by_id_.clear();
      index_.Reserve(n_entries);
    }
    container::InternedKey prev_key;
    for (uint64_t i = 0; i < n_entries; ++i) {
      container::InternedKey key;
      for (size_t p = 0; p < container::kMaxKeyParts; ++p) {
        ASEQ_RETURN_NOT_OK(reader->ReadU32(&key.ids[p], "partition key id"));
        if (key.ids[p] != container::kNoId &&
            key.ids[p] >= interner_.size()) {
          return Status::ParseError(
              "snapshot corrupt: partition key id out of interner range");
        }
      }
      // Canonical order doubles as the duplicate-key check.
      if (i > 0 && !(prev_key.ids < key.ids)) {
        return Status::ParseError(
            "snapshot corrupt: partitions not in canonical interned-id "
            "order");
      }
      prev_key = key;
      uint32_t slot = 0;
      ASEQ_RETURN_NOT_OK(reader->ReadU32(&slot, "partition slot"));
      if (slot >= slab_end || slab_.live(slot)) {
        return Status::ParseError(
            "snapshot corrupt: partition slot out of range or duplicated");
      }
      const uint64_t hash = container::InternedKeyHash{}(key);
      ASEQ_RETURN_NOT_OK(emplace_fn(slot, key, hash, reader));
      if (!slab_.live(slot)) {
        return Status::Internal(
            "PartitionStore::Restore callback did not emplace its entry");
      }
      if (single_part_) {
        slot_by_id_[DenseIdx(key.ids[0])] = slot;
      } else {
        index_.TryEmplaceHashed(hash, key, slot);
      }
    }
    uint64_t n_free = 0;
    ASEQ_RETURN_NOT_OK(reader->ReadCount(&n_free, 4, "slab freelist"));
    if (n_entries + n_free != slab_end) {
      return Status::ParseError(
          "snapshot corrupt: slab geometry mismatch (live " +
          std::to_string(n_entries) + " + free " + std::to_string(n_free) +
          " != end " + std::to_string(slab_end) + ")");
    }
    std::vector<uint32_t> freelist;
    freelist.reserve(n_free);
    std::vector<uint8_t> freed(slab_end, 0);
    for (uint64_t i = 0; i < n_free; ++i) {
      uint32_t slot = 0;
      ASEQ_RETURN_NOT_OK(reader->ReadU32(&slot, "freelist slot"));
      if (slot >= slab_end || slab_.live(slot) || freed[slot]) {
        return Status::ParseError(
            "snapshot corrupt: freelist slot out of range, live, or "
            "duplicated");
      }
      freed[slot] = 1;
      freelist.push_back(slot);
    }
    slab_.RestoreFreelist(std::move(freelist));
    return Status::OK();
  }

  /// Constructs an entry in a specific checkpointed slot (Restore
  /// callbacks only).
  template <typename... Args>
  P& RestoreEmplaceAt(uint32_t slot, Args&&... args) {
    return slab_.EmplaceAt(slot, std::forward<Args>(args)...);
  }

 private:
  using Index = container::FlatMap<container::InternedKey, uint32_t,
                                   container::InternedKeyHash>;

  bool single_part_;
  container::KeyInterner interner_;
  /// Hash index, used only when the key has several parts.
  Index index_;
  /// Dense index for single-part keys: slot_by_id_[DenseIdx(id)] is the
  /// entry's slab slot (kNoSlot = none). Interned ids are dense, so this
  /// stays as small as the key cardinality itself and a probe is one
  /// array read — no hashing, no collisions.
  std::vector<uint32_t> slot_by_id_;
  container::SlabPool<P> slab_;
};

}  // namespace state
}  // namespace aseq

#endif  // ASEQ_STATE_PARTITION_STORE_H_
