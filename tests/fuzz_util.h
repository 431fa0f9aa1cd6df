#ifndef ASEQ_TESTS_FUZZ_UTIL_H_
#define ASEQ_TESTS_FUZZ_UTIL_H_

#include <cstddef>
#include <random>
#include <span>
#include <string>
#include <string_view>

namespace aseq {
namespace testing_util {

/// Seeded mutations shared by the decoder fuzz suites: applies one
/// to four mutations, each a bit flip, a truncation, an insertion of one
/// of `tokens` (bytes or whole tokens the decoder treats specially), or a
/// byte deletion. The same seed always yields the same mutations.
inline std::string Mutate(std::string s, std::mt19937_64* rng,
                          std::span<const std::string_view> tokens) {
  const int count = 1 + static_cast<int>((*rng)() % 4);
  for (int m = 0; m < count; ++m) {
    const size_t pos = s.empty() ? 0 : (*rng)() % (s.size() + 1);
    switch ((*rng)() % 4) {
      case 0:
        if (pos < s.size()) s[pos] ^= static_cast<char>(1u << ((*rng)() % 8));
        break;
      case 1:
        s.resize(pos);
        break;
      case 2:
        s.insert(pos, tokens[(*rng)() % tokens.size()]);
        break;
      default:
        if (pos < s.size()) s.erase(pos, 1);
        break;
    }
  }
  return s;
}

}  // namespace testing_util
}  // namespace aseq

#endif  // ASEQ_TESTS_FUZZ_UTIL_H_
