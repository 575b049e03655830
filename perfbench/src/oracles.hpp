// Sequential reference computations and the output checks built on them.
// They are written here, apart from the library, so a fault in the library's
// own oracles (congest::kruskal_mst, mns::dijkstra, ...) cannot hide a fault
// in the distributed workloads. Every check returns "" when the output is
// right and a one-line reason otherwise; main.cpp's --self-check mode feeds
// each one a corrupted output to show it can fail.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// An undirected weighted network as plain data: vertex ids 0..n-1.
struct Net {
  struct Edge {
    std::int32_t u = 0;
    std::int32_t v = 0;
    std::int64_t w = 0;
  };
  std::int32_t n = 0;
  std::vector<Edge> edges;
};

using EdgeKey = std::pair<std::int32_t, std::int32_t>;  ///< u < v
[[nodiscard]] inline EdgeKey edge_key(std::int32_t a, std::int32_t b) {
  return a < b ? EdgeKey{a, b} : EdgeKey{b, a};
}

struct MstOracle {
  std::vector<EdgeKey> edges;  ///< sorted
  std::int64_t total = 0;
};
[[nodiscard]] MstOracle kruskal(const Net& net);

inline constexpr std::int64_t kUnreached = INT64_MAX;
[[nodiscard]] std::vector<std::int64_t> dijkstra(const Net& net,
                                                 std::int32_t source);
[[nodiscard]] std::vector<int> bfs_hops(const Net& net, std::int32_t root);
/// Global minimum cut weight (Stoer–Wagner, dense, O(n^3)).
[[nodiscard]] std::int64_t stoer_wagner(const Net& net);

// -- checks ------------------------------------------------------------------
[[nodiscard]] std::string check_mst(std::vector<EdgeKey> got,
                                    const MstOracle& want);
[[nodiscard]] std::string check_exact_dist(
    const std::vector<std::int64_t>& got,
    const std::vector<std::int64_t>& want);
/// Every distance in [d, (1+eps) d].
[[nodiscard]] std::string check_approx_dist(
    const std::vector<std::int64_t>& got,
    const std::vector<std::int64_t>& want, double eps);
[[nodiscard]] std::string check_hops(const std::vector<int>& got,
                                     const std::vector<int>& want);
/// Independent (no two members adjacent) and maximal (every non-member has
/// a member neighbour).
[[nodiscard]] std::string check_mis(const Net& net,
                                    const std::vector<char>& in_mis);
/// Every vertex is in the set or adjacent to it, and `size` is its count.
[[nodiscard]] std::string check_domset(const Net& net,
                                       const std::vector<char>& in_set,
                                       std::int64_t size);
/// The MST total by the program's weight vector against the total by the
/// benchmark's own edge map.
[[nodiscard]] std::string check_mst_total(std::int64_t got, std::int64_t want);
[[nodiscard]] std::string check_mincut(std::int64_t value,
                                       std::int64_t lambda);

}  // namespace perfbench
