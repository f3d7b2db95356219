// Reference string distance for the squat tests: the Damerau-Levenshtein
// restricted-transposition distance (adjacent swaps count as one edit), the
// distance typo generators actually induce.  It fills an (n+1)x(m+1) table;
// the detector itself uses the allocation-free util::is_one_edit, which
// util_test and squat_test pin against this.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string_view>
#include <vector>

namespace nxd::oracle {

inline std::size_t damerau_distance(std::string_view a, std::string_view b) {
  const std::size_t n = a.size(), m = b.size();
  std::vector<std::vector<std::size_t>> d(n + 1, std::vector<std::size_t>(m + 1));
  for (std::size_t i = 0; i <= n; ++i) d[i][0] = i;
  for (std::size_t j = 0; j <= m; ++j) d[0][j] = j;
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t j = 1; j <= m; ++j) {
      const std::size_t cost = a[i - 1] == b[j - 1] ? 0 : 1;
      d[i][j] = std::min({d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost});
      if (i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1]) {
        d[i][j] = std::min(d[i][j], d[i - 2][j - 2] + 1);
      }
    }
  }
  return d[n][m];
}

}  // namespace nxd::oracle
