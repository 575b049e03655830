#include "oracles.hpp"

#include <algorithm>
#include <numeric>
#include <queue>

namespace perfbench {

namespace {

std::vector<std::vector<std::pair<std::int32_t, std::int64_t>>> adjacency(
    const Net& net) {
  std::vector<std::vector<std::pair<std::int32_t, std::int64_t>>> adj(
      static_cast<std::size_t>(net.n));
  for (const Net::Edge& e : net.edges) {
    adj[static_cast<std::size_t>(e.u)].push_back({e.v, e.w});
    adj[static_cast<std::size_t>(e.v)].push_back({e.u, e.w});
  }
  return adj;
}

std::string at(const char* what, std::size_t v, long long got,
               long long want) {
  return std::string(what) + " at vertex " + std::to_string(v) + ": got " +
         std::to_string(got) + ", want " + std::to_string(want);
}

}  // namespace

MstOracle kruskal(const Net& net) {
  std::vector<std::size_t> order(net.edges.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return net.edges[a].w != net.edges[b].w ? net.edges[a].w < net.edges[b].w
                                            : a < b;
  });
  std::vector<std::int32_t> up(static_cast<std::size_t>(net.n));
  std::iota(up.begin(), up.end(), 0);
  auto find = [&](std::int32_t x) {
    while (up[static_cast<std::size_t>(x)] != x) {
      up[static_cast<std::size_t>(x)] =
          up[static_cast<std::size_t>(up[static_cast<std::size_t>(x)])];
      x = up[static_cast<std::size_t>(x)];
    }
    return x;
  };
  MstOracle out;
  for (const std::size_t i : order) {
    const Net::Edge& e = net.edges[i];
    const std::int32_t a = find(e.u), b = find(e.v);
    if (a == b) continue;
    up[static_cast<std::size_t>(a)] = b;
    out.edges.push_back(edge_key(e.u, e.v));
    out.total += e.w;
  }
  std::sort(out.edges.begin(), out.edges.end());
  return out;
}

std::vector<std::int64_t> dijkstra(const Net& net, std::int32_t source) {
  const auto adj = adjacency(net);
  std::vector<std::int64_t> dist(static_cast<std::size_t>(net.n), kUnreached);
  using Item = std::pair<std::int64_t, std::int32_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[static_cast<std::size_t>(source)] = 0;
  heap.push({0, source});
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d != dist[static_cast<std::size_t>(v)]) continue;
    for (const auto& [u, w] : adj[static_cast<std::size_t>(v)]) {
      if (d + w < dist[static_cast<std::size_t>(u)]) {
        dist[static_cast<std::size_t>(u)] = d + w;
        heap.push({d + w, u});
      }
    }
  }
  return dist;
}

std::vector<int> bfs_hops(const Net& net, std::int32_t root) {
  const auto adj = adjacency(net);
  std::vector<int> hops(static_cast<std::size_t>(net.n), -1);
  std::queue<std::int32_t> q;
  hops[static_cast<std::size_t>(root)] = 0;
  q.push(root);
  while (!q.empty()) {
    const std::int32_t v = q.front();
    q.pop();
    for (const auto& [u, w] : adj[static_cast<std::size_t>(v)]) {
      (void)w;
      if (hops[static_cast<std::size_t>(u)] >= 0) continue;
      hops[static_cast<std::size_t>(u)] = hops[static_cast<std::size_t>(v)] + 1;
      q.push(u);
    }
  }
  return hops;
}

std::int64_t stoer_wagner(const Net& net) {
  const auto n = static_cast<std::size_t>(net.n);
  if (n < 2) return 0;
  std::vector<std::int64_t> mat(n * n, 0);
  for (const Net::Edge& e : net.edges) {
    const auto u = static_cast<std::size_t>(e.u);
    const auto v = static_cast<std::size_t>(e.v);
    mat[u * n + v] += e.w;
    mat[v * n + u] += e.w;
  }
  std::vector<std::size_t> alive(n);
  std::iota(alive.begin(), alive.end(), 0);
  std::int64_t best = INT64_MAX;
  std::vector<std::int64_t> key(n);
  std::vector<char> added(n);
  while (alive.size() > 1) {
    for (const std::size_t v : alive) {
      key[v] = 0;
      added[v] = 0;
    }
    std::size_t prev = alive[0], last = alive[0];
    for (std::size_t step = 0; step < alive.size(); ++step) {
      std::size_t pick = n;
      for (const std::size_t v : alive)
        if (!added[v] && (pick == n || key[v] > key[pick])) pick = v;
      added[pick] = 1;
      prev = last;
      last = pick;
      if (step + 1 == alive.size()) best = std::min(best, key[pick]);
      for (const std::size_t v : alive)
        if (!added[v]) key[v] += mat[pick * n + v];
    }
    // Merge `last` into `prev`.
    for (const std::size_t v : alive) {
      mat[prev * n + v] += mat[last * n + v];
      mat[v * n + prev] = mat[prev * n + v];
    }
    mat[prev * n + prev] = 0;
    alive.erase(std::find(alive.begin(), alive.end(), last));
  }
  return best;
}

std::string check_mst(std::vector<EdgeKey> got, const MstOracle& want) {
  std::sort(got.begin(), got.end());
  if (got.size() != want.edges.size())
    return "mst has " + std::to_string(got.size()) + " edges, Kruskal has " +
           std::to_string(want.edges.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    if (got[i] != want.edges[i])
      return "mst edge {" + std::to_string(got[i].first) + "," +
             std::to_string(got[i].second) + "} is not Kruskal's";
  return "";
}

std::string check_exact_dist(const std::vector<std::int64_t>& got,
                             const std::vector<std::int64_t>& want) {
  if (got.size() != want.size()) return "distance vector has the wrong size";
  for (std::size_t v = 0; v < got.size(); ++v)
    if (got[v] != want[v]) return at("distance", v, got[v], want[v]);
  return "";
}

std::string check_approx_dist(const std::vector<std::int64_t>& got,
                              const std::vector<std::int64_t>& want,
                              double eps) {
  if (got.size() != want.size()) return "distance vector has the wrong size";
  for (std::size_t v = 0; v < got.size(); ++v) {
    if (want[v] == kUnreached) continue;
    if (got[v] < want[v] ||
        static_cast<double>(got[v]) >
            (1.0 + eps) * static_cast<double>(want[v]) + 1e-9)
      return at("approximate distance", v, got[v], want[v]);
  }
  return "";
}

std::string check_hops(const std::vector<int>& got,
                       const std::vector<int>& want) {
  if (got.size() != want.size()) return "hop vector has the wrong size";
  for (std::size_t v = 0; v < got.size(); ++v)
    if (got[v] != want[v]) return at("bfs hops", v, got[v], want[v]);
  return "";
}

std::string check_mis(const Net& net, const std::vector<char>& in_mis) {
  if (in_mis.size() != static_cast<std::size_t>(net.n))
    return "membership vector has the wrong size";
  std::vector<char> covered(in_mis.begin(), in_mis.end());
  for (const Net::Edge& e : net.edges) {
    const bool a = in_mis[static_cast<std::size_t>(e.u)] != 0;
    const bool b = in_mis[static_cast<std::size_t>(e.v)] != 0;
    if (a && b)
      return "adjacent members " + std::to_string(e.u) + " and " +
             std::to_string(e.v);
    if (a) covered[static_cast<std::size_t>(e.v)] = 1;
    if (b) covered[static_cast<std::size_t>(e.u)] = 1;
  }
  for (std::size_t v = 0; v < covered.size(); ++v)
    if (!covered[v]) return "not maximal: vertex " + std::to_string(v) +
                            " could join";
  return "";
}

std::string check_domset(const Net& net, const std::vector<char>& in_set,
                         std::int64_t size) {
  if (in_set.size() != static_cast<std::size_t>(net.n))
    return "membership vector has the wrong size";
  std::vector<char> covered(in_set.begin(), in_set.end());
  for (const Net::Edge& e : net.edges) {
    if (in_set[static_cast<std::size_t>(e.u)]) covered[static_cast<std::size_t>(e.v)] = 1;
    if (in_set[static_cast<std::size_t>(e.v)]) covered[static_cast<std::size_t>(e.u)] = 1;
  }
  for (std::size_t v = 0; v < covered.size(); ++v)
    if (!covered[v]) return "vertex " + std::to_string(v) + " not dominated";
  const auto count = std::count(in_set.begin(), in_set.end(), 1);
  if (count != size)
    return "reported size " + std::to_string(size) + " but " +
           std::to_string(count) + " members";
  return "";
}

std::string check_mst_total(std::int64_t got, std::int64_t want) {
  if (got != want)
    return "mst weighs " + std::to_string(got) + " by the program's weights, " +
           std::to_string(want) + " by the edge map";
  return "";
}

std::string check_mincut(std::int64_t value, std::int64_t lambda) {
  if (value < lambda)
    return "cut value " + std::to_string(value) + " below Stoer–Wagner " +
           std::to_string(lambda);
  return "";
}

}  // namespace perfbench
