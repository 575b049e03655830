#include "layers.hpp"

#include <algorithm>
#include <filesystem>

#include "congest/aggregation.hpp"
#include "gen/planar.hpp"
#include "gen/weights.hpp"

namespace perfbench {

using namespace mns;

Net to_net(const Graph& g, const std::vector<Weight>& w) {
  Net net;
  net.n = g.num_vertices();
  net.edges.reserve(static_cast<std::size_t>(g.num_edges()));
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    net.edges.push_back(
        {g.edge(e).u, g.edge(e).v,
         w.empty() ? Weight{1} : w[static_cast<std::size_t>(e)]});
  return net;
}

std::vector<Request> catalogue(const std::vector<Weight>& w) {
  std::vector<Request> out;
  for (const std::string& name : congest::builtin_workload_names()) {
    Request r;
    r.workload = name;
    r.params.weights = w;
    r.params.num_trees = 4;
    out.push_back(std::move(r));
  }
  return out;
}

const MstOracle& Verifier::mst() {
  if (!mst_) mst_ = kruskal(net_);
  return *mst_;
}

const std::vector<std::int64_t>& Verifier::dist(std::int32_t source) {
  auto it = dist_.find(source);
  if (it == dist_.end()) it = dist_.emplace(source, dijkstra(net_, source)).first;
  return it->second;
}

bool same_payload(const RunReport& a, const RunReport& b) {
  if (a.payload.index() != b.payload.index()) return false;
  return std::visit(
      [&](const auto& x) {
        using T = std::decay_t<decltype(x)>;
        const T& y = std::get<T>(b.payload);
        if constexpr (std::is_same_v<T, congest::MstPayload>)
          return x.edges == y.edges && x.fragment_of == y.fragment_of;
        else if constexpr (std::is_same_v<T, congest::MinCutPayload>)
          return x.value == y.value && x.trees == y.trees;
        else if constexpr (std::is_same_v<T, congest::SsspPayload>)
          return x.dist == y.dist && x.jumps == y.jumps;
        else if constexpr (std::is_same_v<T, congest::BfsPayload>)
          return x.dist == y.dist && x.parent == y.parent &&
                 x.parent_edge == y.parent_edge;
        else if constexpr (std::is_same_v<T, congest::AggregatePayload>)
          return x.min_of_part == y.min_of_part;
        else if constexpr (std::is_same_v<T, congest::MisPayload>)
          return x.in_mis == y.in_mis && x.size == y.size;
        else if constexpr (std::is_same_v<T, congest::DomsetPayload>)
          return x.in_set == y.in_set && x.size == y.size;
        else
          return true;
      },
      a.payload);
}

std::vector<EdgeKey> mst_keys(const Graph& g, const RunReport& report) {
  std::vector<EdgeKey> keys;
  for (const EdgeId e : report.mst().edges)
    keys.push_back(edge_key(g.edge(e).u, g.edge(e).v));
  return keys;
}

std::string Verifier::verify(const Request& request, const RunReport& r) {
  const std::string& name = request.workload;
  const congest::WorkloadParams& p = request.params;
  if (name == "mst" || name == "mst.ghs") return check_mst(mst_keys(g_, r), mst());
  if (name == "sssp.exact") return check_exact_dist(r.sssp().dist, dist(p.source));
  if (name == "sssp.approx")
    return check_approx_dist(r.sssp().dist, dist(p.source), p.epsilon);
  if (name == "bfs") {
    auto it = hops_.find(p.source);
    if (it == hops_.end())
      it = hops_.emplace(p.source, bfs_hops(net_, p.source)).first;
    return check_hops(r.bfs().dist, it->second);
  }
  if (name == "mis") return check_mis(net_, r.mis().in_mis);
  if (name == "domset")
    return check_domset(net_, r.domset().in_set, r.domset().size);
  if (name == "mincut") {
    if (!lambda_) lambda_ = stoer_wagner(net_);
    return check_mincut(r.min_cut().value, *lambda_);
  }
  return "no check for workload " + name;
}

BatchStats serve_batch(serve::QueryServer& server,
                       const std::vector<Request>& batch, Tracer* tracer) {
  BatchStats st;
  const std::size_t workers = static_cast<std::size_t>(server.workers());
  std::vector<Clock::time_point> sink_enter(batch.size());
  std::vector<Clock::time_point> sink_return;  // in completion order
  sink_return.reserve(batch.size());
  st.render_us.resize(batch.size());
  const Clock::time_point t0 = Clock::now();
  st.responses = server.serve(batch, [&](std::size_t i, const Response& r) {
    sink_enter[i] = Clock::now();
    const std::string body = serve::response_to_json(r);
    st.rendered_bytes += body.size();
    const Clock::time_point done = Clock::now();
    st.render_us[i] = ms_between(sink_enter[i], done) * 1000.0;
    sink_return.push_back(done);
  });
  st.wall_ms = ms_since(t0);
  st.service_ms.resize(batch.size());
  st.wait_ms.resize(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Clock::time_point claim =
        i < workers ? t0 : sink_return[i - workers];
    const double service = ms_between(claim, sink_enter[i]);
    const double solve = st.responses[i].report.wall_ms;
    st.service_ms[i] = service;
    st.wait_ms[i] = std::max(0.0, service - solve);
    st.solve_ms += solve;
    // Trace lanes only keep overlapping requests apart; they are not the
    // server's worker ids, which the sink does not see.
    if (tracer)
      tracer->add("serve.request/" + batch[i].workload, claim, sink_enter[i],
                  -1, tracer->next_solve(), static_cast<int>(i % workers) + 1);
  }
  return st;
}

void probe_core(const SolverCore& core, Result& out) {
  const Partition& parts = core.ldd().parts;
  // Lookup: the first acquire may build; the timed ones are hits.
  (void)core.acquire(parts, true);
  constexpr int kLookups = 64;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kLookups; ++i) {
    const SolverCore::Acquired a = core.acquire(parts, true);
    if (!a.hit) out.check("core.lookup", "repeat acquire missed the cache");
  }
  out.layer("core.lookup_us", ms_since(t0) * 1000.0 / kLookups, "us");

  const BuildResult built = core.analyze(parts);
  out.layer("core.shortcut_congestion", built.metrics.congestion, "count");
  out.layer("core.shortcut_block", built.metrics.block, "count");
  out.layer("core.shortcut_quality", static_cast<double>(built.metrics.quality),
            "count");

  const std::shared_ptr<const Shortcut> shortcut =
      core.acquire(parts, true).shortcut;
  const Graph& g = core.graph();
  const Clock::time_point s0 = Clock::now();
  congest::PartwiseAggregator agg(g, parts, *shortcut);
  out.layer("congest.agg_setup_ms", ms_since(s0), "ms");
  out.layer("congest.participations", static_cast<double>(agg.participations()),
            "count");
  std::vector<congest::AggValue> values(static_cast<std::size_t>(g.num_vertices()));
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    values[static_cast<std::size_t>(v)] = {(7LL * v) % 1009, v};
  congest::Simulator sim(g);
  const Clock::time_point a0 = Clock::now();
  const congest::AggregationResult res = agg.aggregate_min(sim, values);
  const double agg_ms = ms_since(a0);
  out.layer("congest.agg_rounds_ms", agg_ms, "ms");
  out.layer("congest.agg_ns_per_message",
            agg_ms * 1e6 / static_cast<double>(std::max(1LL, sim.messages_sent())),
            "ns/msg");
  // The aggregate is checked here against the plain per-part minimum.
  std::vector<congest::AggValue> want(static_cast<std::size_t>(parts.num_parts()));
  std::vector<char> seen(want.size(), 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const PartId p = parts.part_of(v);
    if (p == kNoPart) continue;
    auto& slot = want[static_cast<std::size_t>(p)];
    if (!seen[static_cast<std::size_t>(p)] || values[static_cast<std::size_t>(v)] < slot)
      slot = values[static_cast<std::size_t>(v)];
    seen[static_cast<std::size_t>(p)] = 1;
  }
  if (res.min_of_part != want)
    out.check("congest.aggregate_min", "part minima differ from the scan");
}

void probe_io(const std::shared_ptr<const SolverCore>& core,
              const std::vector<Weight>& w, const std::string& dir,
              Result& out) {
  const std::string path = dir + "/probe.snap";
  congest::Session session(core);
  const Clock::time_point s0 = Clock::now();
  session.save(path, w);
  out.layer("io.save_ms", ms_since(s0), "ms");
  out.layer("io.snapshot_bytes",
            static_cast<double>(std::filesystem::file_size(path)), "bytes");
  const Clock::time_point r0 = Clock::now();
  const std::shared_ptr<const SolverCore> back =
      SolverCore::restore(io::read_snapshot(path));
  out.layer("io.restore_ms", ms_since(r0), "ms");
  if (back->cache_size() != core->cache_size())
    out.check("io.restore", "restored cache size differs");
  std::filesystem::remove(path);
}

void probe_serve(const std::shared_ptr<const SolverCore>& core,
                 const std::vector<Request>& requests, int repeat,
                 Result& out) {
  serve::ServerConfig cfg;
  cfg.workers = 2;
  serve::QueryServer server(core, cfg);
  const Clock::time_point w0 = Clock::now();
  (void)server.warm(requests);
  out.layer("serve.warm_s", ms_since(w0) / 1000.0, "s");
  std::vector<Request> batch;
  for (int r = 0; r < repeat; ++r)
    batch.insert(batch.end(), requests.begin(), requests.end());
  const BatchStats st = serve_batch(server, batch, nullptr);
  for (std::size_t i = 0; i < batch.size(); ++i)
    if (!st.responses[i].ok())
      out.check("serve.probe", st.responses[i].error);
  out.layer("serve.queue_wait_ms", quantile(st.wait_ms, 0.99), "ms");
  out.layer("serve.busy_share", st.solve_ms / (2.0 * st.wall_ms), "ratio");
}

void probe_catalogue(congest::SolveHandle& handle, const std::vector<Weight>& w,
                     std::map<std::string, std::vector<double>>& times,
                     Verifier& verifier, Result& out) {
  for (const Request& r : catalogue(w)) {
    if (times.count(r.workload)) continue;
    const Clock::time_point t0 = Clock::now();
    const RunReport rep = handle.solve(r.workload, r.params, r.options);
    times[r.workload].push_back(ms_since(t0));
    out.check("probe " + r.workload, verifier.verify(r, rep));
  }
}

void probe_render(const std::vector<RunReport>& reports, Result& out) {
  std::vector<double> us;
  for (const RunReport& r : reports) {
    Response resp;
    resp.report = r;
    const Clock::time_point t0 = Clock::now();
    const std::string body = serve::response_to_json(resp);
    us.push_back(ms_since(t0) * 1000.0);
    if (body.empty()) out.check("io.render", "empty rendering");
  }
  out.layer("io.render_us", median(us), "us");
}

void report_solve_times(const std::map<std::string, std::vector<double>>& times,
                        Result& out) {
  for (const auto& [name, v] : times)
    out.layer("congest.solve_ms." + name, median(v), "ms");
}

void PhaseClock::arm(congest::SolveOptions& options) {
  last = Clock::now();
  options.trace = [this](const congest::RoundTrace&) {
    const Clock::time_point now = Clock::now();
    phase_ms.push_back(ms_between(last, now));
    last = now;
  };
}

void probe_update(const SolverCore& core, Result& out) {
  const Graph& g = core.graph();
  // Insert an edge between v and a vertex two hops away, and remove one
  // edge of v whose other endpoint keeps a second neighbour route (checked
  // with a BFS on the edited edge list, so the graph stays connected).
  UpdateBatch batch;
  for (VertexId v = 0; v < g.num_vertices() && batch.insert_edges.empty(); ++v)
    for (const VertexId a : g.neighbors(v)) {
      for (const VertexId b : g.neighbors(a))
        if (b != v && !g.has_edge(v, b)) {
          batch.insert_edges.push_back({v, b, 1});
          break;
        }
      if (!batch.insert_edges.empty()) break;
    }
  Net net = to_net(g, {});
  for (EdgeId e = 0; e < g.num_edges() && batch.remove_edges.empty(); ++e) {
    Net cut = net;
    cut.edges.erase(cut.edges.begin() + e);
    const std::vector<int> hops = bfs_hops(cut, 0);
    if (std::find(hops.begin(), hops.end(), -1) == hops.end())
      batch.remove_edges.push_back(e);
  }
  congest::UpdateStats stats;
  const Clock::time_point t0 = Clock::now();
  const std::shared_ptr<const SolverCore> next = core.update(batch, stats);
  out.layer("core.update_ms", ms_since(t0), "ms");
  out.layer("core.entries_kept", static_cast<double>(stats.entries_kept), "count");
  out.layer("core.entries_invalidated",
            static_cast<double>(stats.entries_invalidated), "count");
  if (next->graph().num_edges() != g.num_edges())
    out.check("core.update", "edge count changed by a one-in one-out batch");
}

void probe_small_instance(std::uint64_t seed,
                          std::map<std::string, std::vector<double>>& times,
                          Result& out) {
  Graph g = gen::grid_graph(32, 32);
  Rng rng(seed);
  const std::vector<Weight> w = gen::unique_random_weights(g, rng);
  congest::CoreConfig cc;
  cc.tree = center_tree_factory(1);
  auto core = std::make_shared<const SolverCore>(std::move(g),
                                                 greedy_certificate(), cc);
  congest::SolveHandle handle(core);
  Verifier verifier(core->graph(), w);
  probe_catalogue(handle, w, times, verifier, out);
  probe_serve(core, catalogue(w), 4, out);
}

}  // namespace perfbench
