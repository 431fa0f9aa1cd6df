#ifndef ASEQ_CONTAINER_FLAT_MAP_H_
#define ASEQ_CONTAINER_FLAT_MAP_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace aseq {
namespace container {

/// \brief SwissTable-style open-addressing hash map for the HPC hot path.
///
/// Layout: a power-of-two array of slots plus one control byte per slot.
/// A control byte is either kCtrlEmpty, kCtrlDeleted (tombstone), or the
/// low 7 bits of the key's hash (H2) — so a probe rejects almost every
/// non-matching slot on the control byte alone, without touching the slot
/// array. The probe sequence starts at H1 = hash >> 7 and advances by
/// triangular numbers (+1, +2, +3, ...), which visits every slot exactly
/// once when the capacity is a power of two.
///
/// Deliberate differences from a general-purpose table, matching how the
/// engine uses it:
///  - All hot-path entry points take a precomputed hash (*Hashed): the
///    batched engine hashes keys once at staging time and probes later.
///    The Hash functor is only invoked on rehash and in the hashless
///    convenience wrappers.
///  - Keys and values must be default-constructible and assignable; empty
///    slots hold default-constructed elements (no raw-storage juggling).
///    Erase re-assigns a default element so owned heap memory is released
///    immediately.
///  - Iteration order is the physical slot order. It depends on the
///    insert/erase history, so the engine never lets it escape into
///    observable output: the partition slab (slab_pool.h) is the
///    iteration authority, and this table is a pure index that a restore
///    rebuilds from scratch.
///
/// Probe accounting: every Find/TryEmplace/Erase counts one probe plus
/// one step per control byte inspected (a direct hit is 1 step). The
/// engine surfaces the totals as EngineStats::ht_probes/ht_probe_steps.
template <typename K, typename V, typename Hash = std::hash<K>,
          typename Eq = std::equal_to<K>>
class FlatMap {
 public:
  static constexpr uint8_t kCtrlEmpty = 0x80;
  static constexpr uint8_t kCtrlDeleted = 0x81;

  FlatMap() = default;
  FlatMap(FlatMap&&) noexcept = default;
  FlatMap& operator=(FlatMap&&) noexcept = default;
  FlatMap(const FlatMap&) = delete;
  FlatMap& operator=(const FlatMap&) = delete;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Total slots (power of two, or 0 before the first insert).
  size_t capacity() const { return ctrl_.size(); }

  uint64_t probes() const { return probes_; }
  uint64_t probe_steps() const { return probe_steps_; }

  V* FindHashed(uint64_t hash, const K& key) {
    if (ctrl_.empty()) return nullptr;
    const size_t mask = ctrl_.size() - 1;
    size_t pos = H1(hash) & mask;
    const uint8_t h2 = H2(hash);
    size_t step = 0;
    ++probes_;
    for (;;) {
      ++probe_steps_;
      const uint8_t c = ctrl_[pos];
      if (c == h2 && Eq{}(slots_[pos].key, key)) return &slots_[pos].value;
      if (c == kCtrlEmpty) return nullptr;
      pos = (pos + ++step) & mask;
    }
  }
  const V* FindHashed(uint64_t hash, const K& key) const {
    return const_cast<FlatMap*>(this)->FindHashed(hash, key);
  }

  /// Inserts `key -> value` unless the key is present; returns the live
  /// value slot and whether an insert happened. Tombstones along the probe
  /// path are reused, so erase-heavy workloads do not bloat the table.
  std::pair<V*, bool> TryEmplaceHashed(uint64_t hash, const K& key, V value) {
    if (GrowthNeeded()) Rehash(CapacityFor(size_ + 1));
    const size_t mask = ctrl_.size() - 1;
    size_t pos = H1(hash) & mask;
    const uint8_t h2 = H2(hash);
    size_t step = 0;
    size_t insert_pos = kNoPos;
    ++probes_;
    for (;;) {
      ++probe_steps_;
      const uint8_t c = ctrl_[pos];
      if (c == h2 && Eq{}(slots_[pos].key, key)) {
        return {&slots_[pos].value, false};
      }
      if (c == kCtrlDeleted && insert_pos == kNoPos) insert_pos = pos;
      if (c == kCtrlEmpty) {
        if (insert_pos == kNoPos) insert_pos = pos;
        break;
      }
      pos = (pos + ++step) & mask;
    }
    if (ctrl_[insert_pos] == kCtrlDeleted) --tombstones_;
    ctrl_[insert_pos] = h2;
    slots_[insert_pos].key = key;
    slots_[insert_pos].value = std::move(value);
    ++size_;
    return {&slots_[insert_pos].value, true};
  }

  /// Erases `key`; returns whether it was present. The slot becomes a
  /// tombstone (probe chains through it stay intact) holding
  /// default-constructed elements.
  bool EraseHashed(uint64_t hash, const K& key) {
    if (ctrl_.empty()) return false;
    const size_t mask = ctrl_.size() - 1;
    size_t pos = H1(hash) & mask;
    const uint8_t h2 = H2(hash);
    size_t step = 0;
    ++probes_;
    for (;;) {
      ++probe_steps_;
      const uint8_t c = ctrl_[pos];
      if (c == h2 && Eq{}(slots_[pos].key, key)) {
        EraseSlot(pos);
        return true;
      }
      if (c == kCtrlEmpty) return false;
      pos = (pos + ++step) & mask;
    }
  }

  // Hashless conveniences (tests, cold paths).
  V* Find(const K& key) { return FindHashed(Hash{}(key), key); }
  const V* Find(const K& key) const { return FindHashed(Hash{}(key), key); }
  std::pair<V*, bool> TryEmplace(const K& key, V value) {
    return TryEmplaceHashed(Hash{}(key), key, std::move(value));
  }
  bool Erase(const K& key) { return EraseHashed(Hash{}(key), key); }

  /// Pre-sizes the table for `n` live entries without rehash churn.
  void Reserve(size_t n) {
    const size_t cap = CapacityFor(n);
    if (cap > ctrl_.size()) Rehash(cap);
  }

  /// Drops every entry but keeps the allocation.
  void Clear() {
    ctrl_.assign(ctrl_.size(), kCtrlEmpty);
    for (Slot& s : slots_) s = Slot{};
    size_ = 0;
    tombstones_ = 0;
  }

  /// \brief Slot-order iterator over live entries.
  ///
  /// Supports erase-during-scan via FlatMap::Erase(iterator): the
  /// ScanTotal-style sweep pattern `it = map.Erase(it)` / `++it`.
  class iterator {
   public:
    iterator(FlatMap* map, size_t pos) : map_(map), pos_(pos) { SkipDead(); }

    const K& key() const { return map_->slots_[pos_].key; }
    V& value() const { return map_->slots_[pos_].value; }

    iterator& operator++() {
      ++pos_;
      SkipDead();
      return *this;
    }
    bool operator==(const iterator& o) const { return pos_ == o.pos_; }
    bool operator!=(const iterator& o) const { return pos_ != o.pos_; }

   private:
    friend class FlatMap;
    void SkipDead() {
      while (pos_ < map_->ctrl_.size() && map_->ctrl_[pos_] >= kCtrlEmpty) {
        ++pos_;
      }
    }
    FlatMap* map_;
    size_t pos_;
  };

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, ctrl_.size()); }

  /// Slot-order visit of every live entry (const contexts, e.g. engine
  /// checkpointing — which sorts what it collects, since slot order is
  /// history-dependent and must not leak into a canonical payload).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < ctrl_.size(); ++i) {
      if (ctrl_[i] < kCtrlEmpty) fn(slots_[i].key, slots_[i].value);
    }
  }

  /// Erases the entry at `it`; returns the iterator to the next live entry.
  iterator Erase(iterator it) {
    assert(it.pos_ < ctrl_.size() && ctrl_[it.pos_] < kCtrlEmpty);
    EraseSlot(it.pos_);
    ++it.pos_;
    it.SkipDead();
    return it;
  }

 private:
  struct Slot {
    K key{};
    V value{};
  };

  static constexpr size_t kNoPos = static_cast<size_t>(-1);

  static size_t H1(uint64_t hash) { return static_cast<size_t>(hash >> 7); }
  static uint8_t H2(uint64_t hash) {
    return static_cast<uint8_t>(hash & 0x7F);
  }

  /// Grow when live entries + tombstones would exceed 7/8 of capacity —
  /// some empty control bytes must survive for probes to terminate.
  bool GrowthNeeded() const {
    return ctrl_.empty() || (size_ + tombstones_ + 1) * 8 > ctrl_.size() * 7;
  }

  /// Smallest power-of-two capacity (>= 16, >= current) keeping `n` live
  /// entries under the 7/8 bound. Deliberately ignores tombstones: a
  /// tombstone-heavy trigger rehashes in place, dropping them for free.
  size_t CapacityFor(size_t n) const {
    size_t cap = ctrl_.size() < 16 ? 16 : ctrl_.size();
    while (n * 8 > cap * 7) cap <<= 1;
    return cap;
  }

  void EraseSlot(size_t pos) {
    ctrl_[pos] = kCtrlDeleted;
    slots_[pos] = Slot{};
    ++tombstones_;
    --size_;
  }

  void Rehash(size_t new_cap) {
    assert((new_cap & (new_cap - 1)) == 0 && new_cap >= 16);
    std::vector<uint8_t> old_ctrl = std::move(ctrl_);
    std::vector<Slot> old_slots = std::move(slots_);
    ctrl_.assign(new_cap, kCtrlEmpty);
    slots_.clear();
    slots_.resize(new_cap);
    tombstones_ = 0;
    const size_t mask = new_cap - 1;
    for (size_t i = 0; i < old_ctrl.size(); ++i) {
      if (old_ctrl[i] >= kCtrlEmpty) continue;
      const uint64_t hash = Hash{}(old_slots[i].key);
      size_t pos = H1(hash) & mask;
      size_t step = 0;
      while (ctrl_[pos] != kCtrlEmpty) pos = (pos + ++step) & mask;
      ctrl_[pos] = H2(hash);
      slots_[pos] = std::move(old_slots[i]);
    }
  }

  std::vector<uint8_t> ctrl_;
  std::vector<Slot> slots_;
  size_t size_ = 0;
  size_t tombstones_ = 0;
  // Probe accounting is observational, so const lookups may bump it.
  mutable uint64_t probes_ = 0;
  mutable uint64_t probe_steps_ = 0;
};

}  // namespace container
}  // namespace aseq

#endif  // ASEQ_CONTAINER_FLAT_MAP_H_
