// serve-warm: four ~1024-vertex instances, one per certificate family, each
// restored from a snapshot written in set-up and warmed, then served by a
// two-worker QueryServer. One round of work streams a closed-loop batch of
// 1060 requests (265 per family) covering all eight catalogue workloads;
// every response is rendered with response_to_json and must match the
// sequential warm pass bit for bit. No request builds a shortcut.
#include <filesystem>

#include "congest/solve_handle.hpp"
#include "gen/apex.hpp"
#include "gen/clique_sum.hpp"
#include "gen/ktree.hpp"
#include "gen/planar.hpp"
#include "gen/weights.hpp"
#include "io/report_json.hpp"
#include "layers.hpp"

namespace perfbench {

using namespace mns;

namespace {

constexpr int kWorkers = 2;  // half of the 4-core reference machine
constexpr int kSources = 16;
constexpr int kCopies = 16;  // 9 + 16 x 16 = 265 requests per family

struct Family {
  std::string name;
  Graph graph;
  StructuralCertificate cert;
  std::vector<Weight> weights;
  std::shared_ptr<const SolverCore> core;
  std::unique_ptr<serve::QueryServer> server;
  std::vector<Request> unit;  ///< the 25 distinct requests
  std::vector<Response> ref;  ///< the sequential warm pass
};

/// The distinct requests of one family: one of each catalogue workload, one
/// more mst on the LDD partition, then sssp.approx from kSources spread
/// sources (offset by the seed), every fourth on the LDD partition. The
/// sssp.approx requests must come last: the batch repeats them as its bulk.
std::vector<Request> mix(const std::vector<Weight>& w, VertexId n,
                         std::uint64_t seed) {
  std::vector<Request> out = catalogue(w);
  const auto offset = static_cast<VertexId>(seed % static_cast<std::uint64_t>(n / kSources));
  for (Request& r : out) {
    r.params.seed = seed;
    r.params.source = offset;
  }
  Request ldd_mst = out.front();
  ldd_mst.workload = "mst";
  ldd_mst.options.partition = congest::PartitionSource::kLdd;
  out.push_back(ldd_mst);
  for (int i = 0; i < kSources; ++i) {
    Request r;
    r.workload = "sssp.approx";
    r.params.weights = w;
    r.params.source =
        static_cast<VertexId>((static_cast<long long>(i) * n) / kSources) +
        offset;
    if (i % 4 == 3) r.options.partition = congest::PartitionSource::kLdd;
    out.push_back(std::move(r));
  }
  return out;
}

/// A family's batch: the distinct requests once, then the sssp.approx bulk
/// kCopies - 1 more times. `ref_of[i]` is the unit index of request i.
std::vector<Request> batch_of(const std::vector<Request>& unit,
                              std::vector<std::size_t>& ref_of) {
  std::vector<Request> batch = unit;
  ref_of.resize(unit.size());
  for (std::size_t i = 0; i < unit.size(); ++i) ref_of[i] = i;
  const std::size_t bulk = unit.size() - kSources;
  for (int c = 1; c < kCopies; ++c)
    for (std::size_t i = bulk; i < unit.size(); ++i) {
      batch.push_back(unit[i]);
      ref_of.push_back(i);
    }
  return batch;
}

std::vector<Family> make_families(std::uint64_t seed) {
  std::vector<Family> out;
  Rng rng(seed);
  out.push_back({"planar", gen::grid(32, 32).graph(), greedy_certificate(),
                 {}, nullptr, nullptr, {}, {}});
  {
    gen::KTreeResult kt = gen::random_ktree(1024, 3, rng);
    out.push_back({"treewidth", std::move(kt.graph),
                   treewidth_certificate(std::move(kt.decomposition)), {},
                   nullptr, nullptr, {}, {}});
  }
  {
    gen::ApexResult ar =
        gen::add_apices(gen::grid(32, 32).graph(), 1, 0.1, rng);
    out.push_back({"apex", std::move(ar.graph), apex_certificate(ar.apices),
                   {}, nullptr, nullptr, {}, {}});
  }
  {
    Graph bag = gen::triangulated_grid(8, 8).graph();
    std::vector<gen::BagInput> inputs;
    for (int i = 0; i < 16; ++i)
      inputs.push_back({bag, gen::default_glue_cliques(bag, 2)});
    gen::CliqueSumResult cs = gen::compose_clique_sum(inputs, 2, 0.0, rng);
    out.push_back({"cliquesum", std::move(cs.graph),
                   cliquesum_certificate(std::move(cs.decomposition)), {},
                   nullptr, nullptr, {}, {}});
  }
  for (Family& f : out) f.weights = gen::unique_random_weights(f.graph, rng);
  return out;
}

}  // namespace

void serve_warm(const Options& opt, Clock::time_point start, Result& out) {
  Tracer tracer(start);
  Tracer* tr = opt.trace ? &tracer : nullptr;

  // -- set-up --
  Clock::time_point t0 = Clock::now();
  std::vector<Family> fams;
  {
    ScopedSpan span(tr, "gen.instance");
    fams = make_families(kInstanceSeed);
  }
  out.layer("gen.instance_ms", ms_since(t0), "ms");
  double tree_ms = 0, save_ms = 0, restore_ms = 0, ldd_ms = 0, bytes = 0;
  double cold_pass_ms = 0, warm_pass_ms = 0;
  for (Family& f : fams) {
    Clock::time_point c0 = Clock::now();
    congest::CoreConfig cc;
    cc.tree = center_tree_factory(1);
    std::shared_ptr<const SolverCore> built;
    {
      ScopedSpan span(tr, "core.tree/" + f.name);
      built = std::make_shared<const SolverCore>(f.graph, f.cert, cc);
      (void)built->tree();
    }
    tree_ms += ms_since(c0);
    const std::string path = opt.out_dir + "/serve-" + f.name + ".snap";
    congest::Session session(built);
    c0 = Clock::now();
    {
      ScopedSpan span(tr, "io.save/" + f.name);
      session.save(path, f.weights);
    }
    save_ms += ms_since(c0);
    bytes += static_cast<double>(std::filesystem::file_size(path));
    c0 = Clock::now();
    {
      ScopedSpan span(tr, "io.restore/" + f.name);
      f.core = SolverCore::restore(io::read_snapshot(path), cc);
    }
    restore_ms += ms_since(c0);
    std::filesystem::remove(path);
    c0 = Clock::now();
    {
      ScopedSpan span(tr, "core.ldd/" + f.name);
      (void)f.core->ldd();
    }
    ldd_ms += ms_since(c0);
    serve::ServerConfig cfg;
    cfg.workers = kWorkers;
    f.server = std::make_unique<serve::QueryServer>(f.core, cfg);
    f.unit = mix(f.weights, f.graph.num_vertices(), opt.seed);
    // Warm: the first pass builds every shortcut, the second is the
    // sequential reference every served response must match.
    c0 = Clock::now();
    {
      ScopedSpan span(tr, "serve.warm/" + f.name);
      (void)f.server->warm(f.unit);
    }
    cold_pass_ms += ms_since(c0);
    c0 = Clock::now();
    {
      ScopedSpan span(tr, "serve.warm/" + f.name);
      f.ref = f.server->warm(f.unit);
    }
    warm_pass_ms += ms_since(c0);
  }
  out.e2e("setup_s", ms_since(start) / 1000.0, "s");

  // -- timed phase --
  std::vector<double> service_ms, wait_ms, render_us;
  std::map<std::string, std::vector<double>> by_name;
  double busy_ms = 0, served_ms = 0;
  long long rounds = 0, messages = 0, builds = 0, nphases = 0;
  const std::vector<double> walls = run_rounds(opt.seconds, [&](int round) {
    double wall = 0;
    for (Family& f : fams) {
      std::vector<std::size_t> ref_of;
      const std::vector<Request> batch = batch_of(f.unit, ref_of);
      BatchStats st;
      {
        ScopedSpan span(tr, "serve.batch/" + f.name);
        st = serve_batch(*f.server, batch, tr);
      }
      wall += st.wall_ms / 1000.0;
      busy_ms += st.solve_ms;
      served_ms += st.wall_ms;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        ++out.attempted;
        const Response& r = st.responses[i];
        if (!r.ok()) {
          // Kept out of the times: a request that throws must not read as
          // a fast one.
          ++out.failed;
          out.check(f.name + " request " + std::to_string(i), r.error);
          continue;
        }
        const Response& want = f.ref[ref_of[i]];
        if (!io::run_reports_identical(r.report, want.report))
          out.check(f.name + " request " + std::to_string(i),
                    "served report differs from the sequential warm pass");
        by_name[batch[i].workload].push_back(st.service_ms[i]);
        service_ms.push_back(st.service_ms[i]);
        wait_ms.push_back(st.wait_ms[i]);
        render_us.push_back(st.render_us[i]);
        if (round == 0) {
          rounds += r.report.total_rounds();
          messages += r.report.messages;
          builds += r.report.cache_misses;
          nphases += r.report.phases;
        }
      }
      if (st.rendered_bytes == 0) out.check(f.name, "nothing rendered");
    }
    return wall;
  });
  out.e2e("peak_rss_mib", peak_rss_mib(), "MiB");
  out.e2e("run_s", median(walls), "s");
  out.e2e("p50_ms", median(service_ms), "ms");
  out.e2e("tail_ms",
          quantile(service_ms, tail_percentile(service_ms.size() /
                                               walls.size()) / 100.0),
          "ms");
  out.e2e("rounds", static_cast<double>(rounds), "count");
  out.e2e("messages", static_cast<double>(messages), "count");

  // -- checks: the sequential reference against the oracles --
  for (Family& f : fams) {
    Verifier v(f.core->graph(), f.weights);
    for (std::size_t i = 0; i < f.unit.size(); ++i) {
      if (!f.ref[i].ok()) {
        out.check(f.name + " warm " + f.unit[i].workload, f.ref[i].error);
        continue;
      }
      out.check(f.name + " " + f.unit[i].workload,
                v.verify(f.unit[i], f.ref[i].report));
      if (f.ref[i].report.charged_construction_rounds != 0 ||
          f.ref[i].report.cache_misses != 0)
        out.check(f.name + " " + f.unit[i].workload,
                  "warm reference still builds shortcuts");
    }
  }

  if (!tr) return;
  // -- per-layer figures and probes of the traced run --
  out.layer("traced.run_s", median(walls), "s");
  out.layer("core.tree_ms", tree_ms, "ms");
  out.layer("core.ldd_ms", ldd_ms, "ms");
  out.layer("io.save_ms", save_ms, "ms");
  out.layer("io.restore_ms", restore_ms, "ms");
  out.layer("io.snapshot_bytes", bytes, "bytes");
  out.layer("serve.warm_s", (cold_pass_ms + warm_pass_ms) / 1000.0, "s");
  out.layer("core.construct_ms", cold_pass_ms - warm_pass_ms, "ms");
  out.layer("core.builds", static_cast<double>(builds), "count");
  out.layer("congest.phases", static_cast<double>(nphases), "count");
  out.layer("serve.queue_wait_ms", quantile(wait_ms, 0.99), "ms");
  out.layer("serve.busy_share", busy_ms / (kWorkers * served_ms), "ratio");
  out.layer("io.render_us", median(render_us), "us");
  report_solve_times(by_name, out);
  // Phase timing needs one solve at a time: the planar unit once more,
  // sequentially on a handle of its own.
  congest::SolveHandle handle(fams[0].core);
  PhaseClock phases;
  for (const Request& r : fams[0].unit) {
    congest::SolveOptions so = r.options;
    phases.arm(so);
    // The server's batching rule, so these solves hit the warmed cache.
    Request nr = r;
    if (nr.workload == "sssp.approx") nr.params.wavefront_seeds = false;
    (void)handle.solve(nr.workload, nr.params, so);
  }
  out.layer("congest.phase_ms", median(phases.phase_ms), "ms");
  out.layer("congest.arena_bytes",
            static_cast<double>(handle.simulator().arena_stats().bytes_reserved),
            "bytes");
  probe_core(*fams[0].core, out);
  probe_update(*fams[0].core, out);
  tracer.write(opt.out_dir + "/trace-serve-warm.json");
}

}  // namespace perfbench
