// Host-speed probe of the end-to-end benchmark (perfbench/run.py).
//
//   perfbench_calibrate
//       Runs a fixed kernel and prints its in-process wall time in seconds,
//       then a checksum. The kernel mixes the kinds of work an aseq run
//       does: formatting and scanning CSV-like text, many small
//       allocations, and random access into a table larger than the
//       caches. It uses no code of the aseq tree, so a change to the
//       program cannot change its time; only the host's speed can.
//       run.py scales the time metrics by it (see METRICS.md).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace {

struct Record {
  uint32_t type = 0;
  uint64_t ts = 0;
  uint64_t value = 0;
  std::string name;
};

uint64_t Kernel() {
  constexpr int kLines = 150000;
  uint64_t x = 88172645463325252ull;
  std::string text;
  for (int i = 0; i < kLines; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    text += "T" + std::to_string(x % 50) + "," + std::to_string(i * 3) + "," +
            std::to_string(x % 100000) + ",trader" + std::to_string(x % 997) +
            "\n";
  }

  std::vector<Record> records;
  size_t p = 0;
  while (p < text.size()) {
    Record r;
    for (++p; text[p] != ','; ++p) r.type = r.type * 10 + (text[p] - '0');
    for (++p; text[p] != ','; ++p) r.ts = r.ts * 10 + (text[p] - '0');
    for (++p; text[p] != ','; ++p) r.value = r.value * 10 + (text[p] - '0');
    size_t end = text.find('\n', ++p);
    r.name.assign(text, p, end - p);
    p = end + 1;
    records.push_back(std::move(r));
  }

  std::vector<uint64_t> table(1 << 21);
  uint64_t sum = 0;
  for (int rep = 0; rep < 2; ++rep) {
    for (const Record& r : records) {
      uint64_t h = (r.ts * 0x9E3779B97F4A7C15ull ^ r.type) >> 43;
      table[h] += r.name.size() + r.value;
      sum += table[(h * 31) & (table.size() - 1)];
    }
  }
  return sum + records.size();
}

}  // namespace

int main() {
  auto start = std::chrono::steady_clock::now();
  uint64_t checksum = Kernel();
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  std::printf("%.9f %llu\n", seconds,
              static_cast<unsigned long long>(checksum));
  return 0;
}
