// FlatMap and SlabPool: the open-addressing index and slot-stable pool
// behind the HPC flat partition store. The scenarios mirror how the engine
// drives them — hashed probes staged ahead of use, erase-during-scan
// sweeps, tombstone churn, and exact geometry restore after a checkpoint.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash_mix.h"
#include "container/flat_map.h"
#include "container/slab_pool.h"

namespace aseq {
namespace container {
namespace {

// Sequential keys are the adversarial case for open addressing; route them
// through the avalanching finalizer like every production keyer does.
struct MixHash {
  uint64_t operator()(uint64_t k) const { return HashMix64(k); }
};

TEST(FlatMapTest, InsertFindGrowth) {
  FlatMap<uint64_t, uint64_t, MixHash> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.capacity(), 0u);
  constexpr uint64_t kN = 10000;
  for (uint64_t i = 0; i < kN; ++i) {
    auto [value, inserted] = map.TryEmplace(i, i * 3);
    ASSERT_TRUE(inserted) << i;
    ASSERT_EQ(*value, i * 3);
  }
  EXPECT_EQ(map.size(), kN);
  // Power-of-two capacity with live load <= 7/8.
  EXPECT_EQ(map.capacity() & (map.capacity() - 1), 0u);
  EXPECT_LE(map.size() * 8, map.capacity() * 7);
  for (uint64_t i = 0; i < kN; ++i) {
    const uint64_t* v = map.Find(i);
    ASSERT_NE(v, nullptr) << i;
    EXPECT_EQ(*v, i * 3);
  }
  EXPECT_EQ(map.Find(kN + 1), nullptr);
  // Re-emplacing an existing key returns the live slot, no insert.
  auto [value, inserted] = map.TryEmplace(7, 999);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(*value, 21u);
}

TEST(FlatMapTest, HashedEntryPointsMatchConvenienceWrappers) {
  FlatMap<uint64_t, std::string, MixHash> map;
  const uint64_t h = MixHash{}(42);
  map.TryEmplaceHashed(h, 42, "hello");
  EXPECT_EQ(*map.Find(42), "hello");
  EXPECT_NE(map.FindHashed(h, 42), nullptr);
  EXPECT_TRUE(map.EraseHashed(h, 42));
  EXPECT_EQ(map.Find(42), nullptr);
}

TEST(FlatMapTest, EraseLeavesProbeChainsIntact) {
  // Colliding keys (identical hash) probe through each other's slots;
  // erasing the first must not hide the second behind an empty slot.
  struct ConstantHash {
    uint64_t operator()(uint64_t) const { return 0x1234; }
  };
  FlatMap<uint64_t, uint64_t, ConstantHash> map;
  for (uint64_t i = 0; i < 8; ++i) map.TryEmplace(i, i);
  EXPECT_TRUE(map.Erase(0));
  EXPECT_TRUE(map.Erase(3));
  for (uint64_t i = 0; i < 8; ++i) {
    if (i == 0 || i == 3) {
      EXPECT_EQ(map.Find(i), nullptr) << i;
    } else {
      ASSERT_NE(map.Find(i), nullptr) << i;
    }
  }
  // Tombstones are reused by later inserts instead of extending the chain.
  map.TryEmplace(100, 100);
  ASSERT_NE(map.Find(100), nullptr);
  for (uint64_t i = 1; i < 8; ++i) {
    if (i != 3) {
      ASSERT_NE(map.Find(i), nullptr) << i;
    }
  }
}

TEST(FlatMapTest, ChurnDoesNotGrowUnbounded) {
  // Insert/erase churn at constant live size: tombstone-triggered rehashes
  // must fold tombstones away instead of doubling capacity forever.
  FlatMap<uint64_t, uint64_t, MixHash> map;
  for (uint64_t i = 0; i < 64; ++i) map.TryEmplace(i, i);
  const size_t steady_live = map.size();
  for (uint64_t round = 0; round < 10000; ++round) {
    ASSERT_TRUE(map.Erase(round));
    map.TryEmplace(round + 64, round);
    ASSERT_EQ(map.size(), steady_live);
  }
  // 64 live entries fit in a 128-slot table at 7/8 load; churn may leave
  // the table one growth step above, never more.
  EXPECT_LE(map.capacity(), 256u);
}

TEST(FlatMapTest, EraseDuringScan) {
  // The ScanTotal sweep pattern: visit every live entry once, erasing some
  // mid-scan via the iterator.
  FlatMap<uint64_t, uint64_t, MixHash> map;
  for (uint64_t i = 0; i < 1000; ++i) map.TryEmplace(i, i);
  size_t visited = 0;
  for (auto it = map.begin(); it != map.end();) {
    ++visited;
    if (it.value() % 3 == 0) {
      it = map.Erase(it);
    } else {
      ++it;
    }
  }
  EXPECT_EQ(visited, 1000u);
  EXPECT_EQ(map.size(), 1000u - 334u);  // multiples of 3 in [0, 1000)
  for (uint64_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(map.Find(i) != nullptr, i % 3 != 0) << i;
  }
}

TEST(FlatMapTest, ForEachVisitsEveryLiveEntryOnce) {
  FlatMap<uint64_t, uint64_t, MixHash> map;
  for (uint64_t i = 0; i < 500; ++i) map.TryEmplace(i, i * 2);
  for (uint64_t i = 0; i < 500; i += 2) map.Erase(i);
  std::unordered_map<uint64_t, uint64_t> seen;
  map.ForEach([&seen](const uint64_t& k, const uint64_t& v) {
    EXPECT_TRUE(seen.emplace(k, v).second) << "duplicate visit of " << k;
  });
  EXPECT_EQ(seen.size(), map.size());
  for (const auto& [k, v] : seen) {
    EXPECT_EQ(k % 2, 1u);
    EXPECT_EQ(v, k * 2);
  }
}

TEST(FlatMapTest, ProbeCountersAdvance) {
  FlatMap<uint64_t, uint64_t, MixHash> map;
  map.TryEmplace(1, 1);
  const uint64_t probes_before = map.probes();
  const uint64_t steps_before = map.probe_steps();
  map.Find(1);
  map.Find(2);
  EXPECT_EQ(map.probes(), probes_before + 2);
  // Every probe inspects at least one control byte.
  EXPECT_GE(map.probe_steps(), steps_before + 2);
}

TEST(FlatMapTest, ClearKeepsCapacity) {
  FlatMap<uint64_t, uint64_t, MixHash> map;
  for (uint64_t i = 0; i < 100; ++i) map.TryEmplace(i, i);
  const size_t cap = map.capacity();
  map.Clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.capacity(), cap);
  EXPECT_EQ(map.Find(1), nullptr);
  map.TryEmplace(7, 7);
  EXPECT_EQ(*map.Find(7), 7u);
}

TEST(FlatMapTest, ReservePreventsRehash) {
  FlatMap<uint64_t, uint64_t, MixHash> map;
  map.Reserve(1000);
  const size_t cap = map.capacity();
  EXPECT_GE(cap * 7, 1000u * 8);
  for (uint64_t i = 0; i < 1000; ++i) map.TryEmplace(i, i);
  EXPECT_EQ(map.capacity(), cap);
}

// ---------------------------------------------------------------------------
// SlabPool
// ---------------------------------------------------------------------------

struct Tracked {
  explicit Tracked(int v) : value(v) { ++alive; }
  ~Tracked() { --alive; }
  int value;
  static int alive;
};
int Tracked::alive = 0;

TEST(SlabPoolTest, EmplaceFreeReuseLifo) {
  SlabPool<Tracked, 4> pool;
  std::vector<uint32_t> slots;
  for (int i = 0; i < 10; ++i) slots.push_back(pool.Emplace(i));
  EXPECT_EQ(pool.size(), 10u);
  EXPECT_EQ(pool.end(), 10u);
  EXPECT_EQ(Tracked::alive, 10);
  // Slots are dense append order.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(slots[static_cast<size_t>(i)], static_cast<uint32_t>(i));
    EXPECT_EQ(pool.at(slots[static_cast<size_t>(i)]).value, i);
  }
  pool.Free(3);
  pool.Free(7);
  EXPECT_EQ(pool.size(), 8u);
  EXPECT_FALSE(pool.live(3));
  EXPECT_FALSE(pool.live(7));
  // LIFO: the most recently freed slot is reused first, and the
  // high-water mark does not grow while the freelist is non-empty.
  EXPECT_EQ(pool.Emplace(70), 7u);
  EXPECT_EQ(pool.Emplace(30), 3u);
  EXPECT_EQ(pool.end(), 10u);
  EXPECT_EQ(pool.Emplace(99), 10u);
  EXPECT_EQ(pool.end(), 11u);
  pool.Clear();
  EXPECT_EQ(Tracked::alive, 0);
  EXPECT_EQ(pool.end(), 0u);
}

TEST(SlabPoolTest, AddressesStableAcrossGrowth) {
  SlabPool<Tracked, 4> pool;
  const uint32_t first = pool.Emplace(42);
  Tracked* addr = &pool.at(first);
  for (int i = 0; i < 1000; ++i) pool.Emplace(i);
  EXPECT_EQ(&pool.at(first), addr);
  EXPECT_EQ(pool.at(first).value, 42);
  pool.Clear();
}

TEST(SlabPoolTest, GeometryRestoreRoundTrip) {
  // Build a pool with history (freed slots, non-trivial freelist order),
  // capture its geometry, rebuild, and verify the rebuilt pool assigns
  // future slots identically — the property engine restore depends on.
  SlabPool<Tracked, 4> pool;
  for (int i = 0; i < 9; ++i) pool.Emplace(i);
  pool.Free(2);
  pool.Free(5);
  pool.Free(1);

  const uint32_t end = pool.end();
  std::vector<uint32_t> live_slots;
  for (uint32_t s = 0; s < end; ++s) {
    if (pool.live(s)) live_slots.push_back(s);
  }
  const std::vector<uint32_t> freelist = pool.freelist();

  SlabPool<Tracked, 4> restored;
  restored.ResetGeometry(end);
  EXPECT_EQ(restored.size(), 0u);
  EXPECT_EQ(restored.end(), end);
  for (uint32_t s : live_slots) {
    restored.EmplaceAt(s, pool.at(s).value);
  }
  restored.RestoreFreelist(freelist);
  EXPECT_EQ(restored.size(), pool.size());
  for (uint32_t s = 0; s < end; ++s) {
    ASSERT_EQ(restored.live(s), pool.live(s)) << s;
    if (pool.live(s)) {
      EXPECT_EQ(restored.at(s).value, pool.at(s).value);
    }
  }
  // Identical future slot assignment: freelist LIFO, then append.
  EXPECT_EQ(pool.Emplace(100), restored.Emplace(100));
  EXPECT_EQ(pool.Emplace(101), restored.Emplace(101));
  EXPECT_EQ(pool.Emplace(102), restored.Emplace(102));
  EXPECT_EQ(pool.Emplace(103), restored.Emplace(103));  // appends at end
  pool.Clear();
  restored.Clear();
  EXPECT_EQ(Tracked::alive, 0);
}

}  // namespace
}  // namespace container
}  // namespace aseq
