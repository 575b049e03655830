// churn: one 48 x 48 planar grid (greedy certificate, which absorbs any
// edit) under a fixed plan of 14 update batches. Even steps change four
// edge weights; odd steps insert two cell diagonals and remove two edges,
// keeping the graph connected. Every step applies its batch through
// Session::update and re-solves mst, and sssp.approx from two opposite
// corners, on the updated session. One round of work is the whole plan,
// replayed on a session restored from the warm snapshot taken in set-up,
// so every round repeats the same operations and the same reports.
#include <algorithm>
#include <filesystem>
#include <set>

#include "congest/session.hpp"
#include "gen/planar.hpp"
#include "gen/weights.hpp"
#include "graph/delta.hpp"
#include "io/report_json.hpp"
#include "layers.hpp"

namespace perfbench {

using namespace mns;

namespace {

constexpr int kSide = 48;
constexpr int kSteps = 14;

/// One planned batch, by endpoints: edge ids shift under structural edits,
/// vertex ids never do (the plan adds and removes no vertex).
struct Step {
  std::vector<std::pair<EdgeKey, Weight>> reweight;
  std::vector<std::pair<EdgeKey, Weight>> insert;
  std::vector<EdgeKey> remove;
};

bool connected(VertexId n, const std::map<EdgeKey, Weight>& edges) {
  Net net;
  net.n = n;
  for (const auto& [k, w] : edges) net.edges.push_back({k.first, k.second, w});
  const std::vector<int> hops = bfs_hops(net, 0);
  return std::find(hops.begin(), hops.end(), -1) == hops.end();
}

/// Draws the plan from `rng`, applying it to `edges` (the benchmark's own
/// edge map) as it goes; weights stay distinct so the MST is unique.
std::vector<Step> make_plan(std::map<EdgeKey, Weight> edges, Rng& rng) {
  std::set<Weight> used;
  for (const auto& [k, w] : edges) used.insert(w);
  auto fresh = [&] {
    std::uniform_int_distribution<Weight> d(1, 64 * static_cast<Weight>(edges.size()));
    for (;;) {
      const Weight w = d(rng);
      if (used.insert(w).second) return w;
    }
  };
  auto any_edge = [&] {
    std::uniform_int_distribution<std::size_t> d(0, edges.size() - 1);
    return std::next(edges.begin(), static_cast<std::ptrdiff_t>(d(rng)))->first;
  };
  std::uniform_int_distribution<int> cell(0, kSide - 2);
  std::vector<Step> plan(kSteps);
  for (int s = 0; s < kSteps; ++s) {
    Step& st = plan[static_cast<std::size_t>(s)];
    if (s % 2 == 0) {
      std::set<EdgeKey> picked;
      while (picked.size() < 4) picked.insert(any_edge());
      for (const EdgeKey& k : picked) {
        const Weight w = fresh();
        used.erase(edges[k]);
        edges[k] = w;
        st.reweight.push_back({k, w});
      }
      continue;
    }
    while (st.insert.size() < 2) {
      const int r = cell(rng), c = cell(rng);
      const EdgeKey k = rng() % 2 ? edge_key(r * kSide + c, (r + 1) * kSide + c + 1)
                                  : edge_key(r * kSide + c + 1, (r + 1) * kSide + c);
      if (edges.count(k)) continue;
      const Weight w = fresh();
      edges[k] = w;
      st.insert.push_back({k, w});
    }
    while (st.remove.size() < 2) {
      const EdgeKey k = any_edge();
      const bool inserted_now =
          std::any_of(st.insert.begin(), st.insert.end(),
                      [&](const auto& p) { return p.first == k; });
      if (inserted_now) continue;
      const Weight w = edges[k];
      edges.erase(k);
      if (!connected(kSide * kSide, edges)) {
        edges[k] = w;
        continue;
      }
      used.erase(w);
      st.remove.push_back(k);
    }
  }
  return plan;
}

UpdateBatch to_batch(const Step& st, const Graph& g) {
  UpdateBatch b;
  for (const auto& [k, w] : st.reweight)
    b.weight_changes.push_back({g.find_edge(k.first, k.second), w});
  for (const auto& [k, w] : st.insert)
    b.insert_edges.push_back({k.first, k.second, w});
  for (const EdgeKey& k : st.remove)
    b.remove_edges.push_back(g.find_edge(k.first, k.second));
  return b;
}

void apply_to_map(const Step& st, std::map<EdgeKey, Weight>& edges) {
  for (const auto& [k, w] : st.reweight) edges[k] = w;
  for (const auto& [k, w] : st.insert) edges[k] = w;
  for (const EdgeKey& k : st.remove) edges.erase(k);
}

/// The re-solves of every step: mst, then sssp.approx from two opposite
/// corners. Three equal groups keep the median solve inside one of them.
constexpr VertexId kSources[] = {0, kSide * kSide - 1};
constexpr int kQueries = 3;

congest::ApproxSssp sssp_query(const std::vector<Weight>& w, VertexId source) {
  congest::ApproxSssp q{w, source};
  q.wavefront_seeds = false;
  return q;
}

/// Query q of a step on `session` (q == 0: mst).
RunReport solve(congest::Session& session, int q, const std::vector<Weight>& w,
                const congest::SolveOptions& so = {}) {
  if (q == 0) return session.solve(congest::Mst{w}, so);
  return session.solve(sssp_query(w, kSources[q - 1]), so);
}

/// One step's state kept from round 0 for the checks after timing.
struct Kept {
  Graph graph;
  std::vector<Weight> weights;
  std::map<EdgeKey, Weight> edges;  ///< the benchmark's own map
  std::vector<RunReport> reports;   ///< one per query
};

}  // namespace

void churn(const Options& opt, Clock::time_point start, Result& out) {
  Tracer tracer(start);
  Tracer* tr = opt.trace ? &tracer : nullptr;

  // -- set-up: instance, plan, warm session, snapshot --
  Clock::time_point t0 = Clock::now();
  Graph g0;
  std::vector<Weight> w0;
  {
    ScopedSpan span(tr, "gen.instance");
    Rng rng(kInstanceSeed);
    g0 = gen::grid_graph(kSide, kSide);
    w0 = gen::unique_random_weights(g0, rng);
  }
  out.layer("gen.instance_ms", ms_since(t0), "ms");
  std::map<EdgeKey, Weight> edges0;
  for (EdgeId e = 0; e < g0.num_edges(); ++e)
    edges0[edge_key(g0.edge(e).u, g0.edge(e).v)] = w0[static_cast<std::size_t>(e)];
  Rng rng(opt.seed);
  const std::vector<Step> plan = make_plan(edges0, rng);
  t0 = Clock::now();
  congest::SessionConfig cfg;
  cfg.tree = center_tree_factory(1);
  cfg.execution = congest::ExecutionPolicy{1};
  io::Snapshot snap;
  {
    congest::Session base(std::move(g0), greedy_certificate(), cfg);
    {
      ScopedSpan span(tr, "core.tree");
      (void)base.tree();
    }
    out.layer("core.tree_ms", ms_since(t0), "ms");
    {
      // A long-lived session has paid construction by the time churn
      // arrives.
      ScopedSpan span(tr, "warm");
      for (int q = 0; q < kQueries; ++q) (void)solve(base, q, w0);
    }
    const std::string path = opt.out_dir + "/churn.snap";
    base.save(path, w0);
    snap = io::read_snapshot(path);
    std::filesystem::remove(path);
  }
  out.e2e("setup_s", ms_since(start) / 1000.0, "s");

  // -- timed phase --
  std::vector<Kept> kept;
  std::vector<double> solve_ms, update_ms;
  std::map<std::string, std::vector<double>> by_name;
  PhaseClock phases;
  double construct_ms = 0.0;
  long long rounds = 0, messages = 0, builds = 0, nphases = 0;
  long long entries_kept = 0, entries_invalidated = 0;
  std::unique_ptr<congest::Session> session;
  std::vector<Weight> w;
  const std::vector<double> walls = run_rounds(opt.seconds, [&](int round) {
    session.reset(new congest::Session(congest::Session::restore(snap, cfg)));
    w = w0;
    std::map<EdgeKey, Weight> edges = edges0;
    double timed_ms = 0.0;
    for (int s = 0; s < kSteps; ++s) {
      const Step& st = plan[static_cast<std::size_t>(s)];
      const UpdateBatch batch = to_batch(st, session->graph());
      apply_to_map(st, edges);
      ++out.attempted;
      Clock::time_point u0 = Clock::now();
      try {
        ScopedSpan span(tr, "core.update");
        const congest::UpdateStats stats = session->update(batch, &w);
        if (round == 0 && batch.structural()) {
          entries_kept += static_cast<long long>(stats.entries_kept);
          entries_invalidated +=
              static_cast<long long>(stats.entries_invalidated);
        }
      } catch (const UpdateError& e) {
        // The plan is fixed, so every round stops at the same step.
        ++out.failed;
        out.check("update step " + std::to_string(s), e.what());
        return timed_ms / 1000.0;
      }
      const double ums = ms_since(u0);
      timed_ms += ums;
      if (batch.structural()) update_ms.push_back(ums);
      std::vector<RunReport> reps(kQueries);
      for (int q = 0; q < kQueries; ++q) {
        const char* name = q == 0 ? "mst" : "sssp.approx";
        congest::SolveOptions so;
        if (tr) phases.arm(so);
        ++out.attempted;
        const Clock::time_point s0 = Clock::now();
        {
          ScopedSpan span(tr, std::string("congest.solve/") + name,
                          tr ? tracer.next_solve() : -1);
          reps[static_cast<std::size_t>(q)] = solve(*session, q, w, so);
        }
        const double ms = ms_since(s0);
        timed_ms += ms;
        solve_ms.push_back(ms);
        by_name[name].push_back(ms);
        if (tr && round == 0) {
          const Clock::time_point r0 = Clock::now();
          const RunReport warm = solve(*session, q, w);
          construct_ms += ms - ms_since(r0);
          const RunReport& cold = reps[static_cast<std::size_t>(q)];
          if (warm.rounds != cold.rounds || !same_payload(warm, cold))
            out.check(std::string("warm repeat ") + name,
                      "differs from the first solve");
        }
      }
      if (round == 0) {
        for (const RunReport& r : reps) {
          rounds += r.total_rounds();
          messages += r.messages;
          builds += r.cache_misses;
          nphases += r.phases;
        }
        kept.push_back({session->graph(), w, edges, std::move(reps)});
      } else {
        const Kept& k = kept[static_cast<std::size_t>(s)];
        bool same = true;
        for (int q = 0; q < kQueries; ++q)
          same = same && io::run_reports_identical(
                             reps[static_cast<std::size_t>(q)],
                             k.reports[static_cast<std::size_t>(q)]);
        if (!same)
          out.check("round " + std::to_string(round) + " step " +
                        std::to_string(s),
                    "report differs from round 0");
      }
    }
    return timed_ms / 1000.0;
  });
  out.e2e("peak_rss_mib", peak_rss_mib(), "MiB");
  out.e2e("run_s", median(walls), "s");
  out.e2e("p50_ms", median(solve_ms), "ms");
  out.e2e("tail_ms", quantile(solve_ms, tail_percentile(kQueries * kSteps) / 100.0),
          "ms");
  out.e2e("rounds", static_cast<double>(rounds), "count");
  out.e2e("messages", static_cast<double>(messages), "count");

  // -- checks of round 0: oracles on the benchmark's own edge map, and the
  // incremental payloads against a from-scratch rebuild --
  for (std::size_t s = 0; s < kept.size(); ++s) {
    const Kept& k = kept[s];
    const std::string at = "step " + std::to_string(s);
    Net net;
    net.n = k.graph.num_vertices();
    for (const auto& [key, wt] : k.edges)
      net.edges.push_back({key.first, key.second, wt});
    const RunReport& mst = k.reports[0];
    const MstOracle want = kruskal(net);
    out.check(at + " mst", check_mst(mst_keys(k.graph, mst), want));
    Weight total = 0;
    for (const EdgeId e : mst.mst().edges) total += k.weights[static_cast<std::size_t>(e)];
    out.check(at + " mst weight", check_mst_total(total, want.total));
    congest::Session fresh(k.graph, greedy_certificate(), cfg);
    if (!same_payload(solve(fresh, 0, k.weights), mst))
      out.check(at + " mst", "incremental payload differs from a rebuild");
    for (int q = 1; q < kQueries; ++q) {
      const RunReport& sp = k.reports[static_cast<std::size_t>(q)];
      const VertexId src = kSources[q - 1];
      out.check(at + " sssp.approx",
                check_approx_dist(sp.sssp().dist, dijkstra(net, src),
                                  sssp_query(k.weights, src).epsilon));
      // Distances only: the payload's `jumps` count is a cost figure that
      // follows the rooted tree, which update() patches and a rebuild
      // re-roots.
      if (solve(fresh, q, k.weights).sssp().dist != sp.sssp().dist)
        out.check(at + " sssp.approx",
                  "incremental distances differ from a rebuild");
    }
  }

  if (!tr) return;
  // -- per-layer figures and probes of the traced run --
  out.layer("traced.run_s", median(walls), "s");
  out.layer("core.construct_ms", construct_ms, "ms");
  out.layer("core.builds", static_cast<double>(builds), "count");
  out.layer("core.update_ms", median(update_ms), "ms");
  out.layer("core.entries_kept", static_cast<double>(entries_kept), "count");
  out.layer("core.entries_invalidated", static_cast<double>(entries_invalidated),
            "count");
  out.layer("congest.phases", static_cast<double>(nphases), "count");
  out.layer("congest.phase_ms", median(phases.phase_ms), "ms");
  out.layer("congest.arena_bytes",
            static_cast<double>(session->simulator().arena_stats().bytes_reserved),
            "bytes");
  const std::shared_ptr<const SolverCore>& core = session->core_ptr();
  const Clock::time_point l0 = Clock::now();
  (void)core->ldd();
  out.layer("core.ldd_ms", ms_since(l0), "ms");
  probe_core(*core, out);
  probe_io(core, w, opt.out_dir, out);
  std::vector<RunReport> reports;
  for (const Kept& k : kept)
    reports.insert(reports.end(), k.reports.begin(), k.reports.end());
  probe_render(reports, out);
  probe_small_instance(kInstanceSeed, by_name, out);
  report_solve_times(by_name, out);
  tracer.write(opt.out_dir + "/trace-churn.json");
}

}  // namespace perfbench
