// --self-check: shows that every output check can fail. It solves each
// catalogue workload on a small grid, requires every real output to pass,
// then corrupts one output per check and requires the check to reject it.
#include <cstdio>

#include "congest/solve_handle.hpp"
#include "gen/planar.hpp"
#include "gen/weights.hpp"
#include "io/report_json.hpp"
#include "layers.hpp"

namespace perfbench {

using namespace mns;

int self_check() {
  Graph g = gen::grid_graph(12, 12);
  Rng rng(7);
  const std::vector<Weight> w = gen::unique_random_weights(g, rng);
  congest::CoreConfig cc;
  cc.tree = center_tree_factory(1);
  auto core = std::make_shared<const SolverCore>(std::move(g),
                                                 greedy_certificate(), cc);
  congest::SolveHandle handle(core);
  Verifier verifier(core->graph(), w);
  const Net& net = verifier.net();

  int bad = 0;
  auto expect = [&](const char* what, const std::string& error, bool fail) {
    const bool ok = error.empty() != fail;
    std::printf("%-44s %s%s%s\n", what,
                ok ? (fail ? "rejected" : "passes") : "WRONG",
                error.empty() ? "" : ": ", error.c_str());
    if (!ok) ++bad;
  };

  std::map<std::string, RunReport> got;
  for (const Request& r : catalogue(w)) {
    got[r.workload] = handle.solve(r.workload, r.params, r.options);
    expect(("real " + r.workload).c_str(), verifier.verify(r, got[r.workload]),
           false);
  }

  // mst / mst.ghs: swap one tree edge for a non-tree edge.
  for (const char* name : {"mst", "mst.ghs"}) {
    std::vector<EdgeKey> keys = mst_keys(core->graph(), got[name]);
    for (const Net::Edge& e : net.edges) {
      const EdgeKey k = edge_key(e.u, e.v);
      if (std::find(keys.begin(), keys.end(), k) == keys.end()) {
        keys.front() = k;
        break;
      }
    }
    expect((std::string("corrupt ") + name + " edge").c_str(),
           check_mst(keys, verifier.mst()), true);
  }
  expect("corrupt mst total (edge map)",
         check_mst_total(verifier.mst().total + 1, verifier.mst().total), true);

  const std::vector<std::int64_t>& d = verifier.dist(0);
  std::vector<std::int64_t> approx = got["sssp.approx"].sssp().dist;
  approx.back() = d.back() - 1;
  expect("corrupt sssp.approx below Dijkstra", check_approx_dist(approx, d, 0.25),
         true);
  approx.back() = d.back() + d.back() / 4 + 1;
  expect("corrupt sssp.approx above (1+eps) Dijkstra",
         check_approx_dist(approx, d, 0.25), true);
  std::vector<std::int64_t> exact = got["sssp.exact"].sssp().dist;
  exact.back() += 1;
  expect("corrupt sssp.exact", check_exact_dist(exact, d), true);
  std::vector<int> hops = got["bfs"].bfs().dist;
  hops.back() += 1;
  expect("corrupt bfs", check_hops(hops, bfs_hops(net, 0)), true);

  std::vector<char> mis = got["mis"].mis().in_mis;
  const auto member = static_cast<std::size_t>(
      std::find(mis.begin(), mis.end(), 1) - mis.begin());
  std::vector<char> dep = mis;
  dep[static_cast<std::size_t>(
      core->graph().neighbors(static_cast<VertexId>(member)).front())] = 1;
  expect("corrupt mis (adjacent members)", check_mis(net, dep), true);
  mis[member] = 0;
  expect("corrupt mis (not maximal)", check_mis(net, mis), true);

  const congest::DomsetPayload& ds = got["domset"].domset();
  expect("corrupt domset size", check_domset(net, ds.in_set, ds.size + 1), true);
  expect("corrupt domset (nobody dominates)",
         check_domset(net, std::vector<char>(ds.in_set.size(), 0), 0), true);

  const std::int64_t lambda = stoer_wagner(net);
  expect("corrupt mincut below lambda", check_mincut(lambda - 1, lambda), true);

  // serve-warm parity and round-to-round identity use run_reports_identical;
  // churn's rebuild comparison and the warm repeats use same_payload.
  RunReport drift = got["sssp.approx"];
  drift.messages += 1;
  expect("corrupt served report (one message)",
         io::run_reports_identical(drift, got["sssp.approx"])
             ? std::string()
             : "reports differ",
         true);
  RunReport moved = got["mst"];
  std::get<congest::MstPayload>(moved.payload).fragment_of.back() += 1;
  expect("corrupt incremental payload",
         same_payload(moved, got["mst"]) ? std::string() : "payloads differ",
         true);

  std::printf("%s\n", bad == 0 ? "self-check: every check passes real outputs "
                                 "and rejects its corrupted one"
                               : "self-check: FAILED");
  return bad == 0 ? 0 : 1;
}

}  // namespace perfbench
