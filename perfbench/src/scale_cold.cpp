// scale-cold: the E18 shape at a few x 10^4 vertices. A planar grid and an
// apexed clique-sum chain each get a fresh SolverCore (tree built in set-up)
// and single-threaded cold solves of mst and then sssp.approx. One round of
// work is those four solves on empty caches; later rounds clear the caches
// first, so every round repeats the same operations and the same reports.
//
// Its inputs do not depend on --seed: the cost of sssp.approx here swings
// by a fifth with the source vertex, more than the run-to-run noise, so the
// source is E18's vertex 0 and every seed runs the same inputs.
#include <algorithm>
#include <cmath>

#include "bench_instances.hpp"
#include "congest/solve_handle.hpp"
#include "gen/planar.hpp"
#include "gen/weights.hpp"
#include "io/report_json.hpp"
#include "layers.hpp"

namespace perfbench {

using namespace mns;

namespace {

constexpr int kGridSide = 144;   // 20736 vertices
constexpr int kChainBags = 80;   // 256 * 80 + 1 = 20481 vertices

struct Instance {
  std::string family;
  std::shared_ptr<const SolverCore> core;
  std::vector<Weight> weights;
};

congest::ApproxSssp sssp_query(const Instance& inst) {
  // bench_scale's configuration: source-independent long Voronoi cells.
  congest::ApproxSssp q{inst.weights, /*source=*/0};
  q.epsilon = 0.25;
  const double n = inst.core->graph().num_vertices();
  q.num_seeds = std::max<VertexId>(8, static_cast<VertexId>(std::sqrt(n)) / 8);
  q.repartition_growth = 1.0;
  q.wavefront_seeds = false;
  return q;
}

}  // namespace

void scale_cold(const Options& opt, Clock::time_point start, Result& out) {
  Tracer tracer(start);
  Tracer* tr = opt.trace ? &tracer : nullptr;

  // -- set-up: instances, cores, trees --
  Clock::time_point t0 = Clock::now();
  std::vector<Instance> inst;
  std::vector<std::pair<Graph, StructuralCertificate>> made;
  {
    ScopedSpan span(tr, "gen.instance");
    Rng rng(kInstanceSeed);
    Graph grid = gen::grid_graph(kGridSide, kGridSide);
    std::vector<Weight> gw = gen::unique_random_weights(grid, rng);
    bench::ApexChain chain = bench::apexed_chain_cliquesum(kChainBags, rng);
    StructuralCertificate chain_cert = bench::apex_chain_certificate(chain);
    inst.push_back({"planar", nullptr, std::move(gw)});
    inst.push_back({"cliquesum", nullptr, std::move(chain.weights)});
    made.emplace_back(std::move(grid), greedy_certificate());
    made.emplace_back(std::move(chain.graph), std::move(chain_cert));
  }
  out.layer("gen.instance_ms", ms_since(t0), "ms");
  t0 = Clock::now();
  for (std::size_t i = 0; i < inst.size(); ++i) {
    ScopedSpan span(tr, "core.tree/" + inst[i].family);
    congest::CoreConfig cc;
    cc.tree = center_tree_factory(1);
    inst[i].core = std::make_shared<const SolverCore>(
        std::move(made[i].first), std::move(made[i].second), cc);
    (void)inst[i].core->tree();
  }
  out.layer("core.tree_ms", ms_since(t0), "ms");
  made.clear();
  out.e2e("setup_s", ms_since(start) / 1000.0, "s");

  // -- timed phase --
  std::vector<std::unique_ptr<congest::SolveHandle>> handles;
  for (const Instance& i : inst)
    handles.push_back(std::make_unique<congest::SolveHandle>(
        i.core, congest::ExecutionPolicy{1}));
  std::vector<RunReport> first;  // round 0's reports, in solve order
  std::vector<double> solve_ms;
  std::vector<double> slowest_ms;  // per round: its slowest solve
  std::map<std::string, std::vector<double>> by_name;
  PhaseClock phases;
  double construct_ms = 0.0;
  const std::vector<double> walls = run_rounds(opt.seconds, [&](int round) {
    if (round > 0)
      for (const Instance& i : inst) i.core->clear_cache();
    double repeat_ms = 0.0, slowest = 0.0;
    std::size_t k = 0;
    const Clock::time_point r0 = Clock::now();
    for (std::size_t i = 0; i < inst.size(); ++i) {
      for (const bool is_mst : {true, false}) {
        const congest::Mst mq{inst[i].weights};
        const congest::ApproxSssp sq = sssp_query(inst[i]);
        const char* name = is_mst ? "mst" : "sssp.approx";
        congest::SolveOptions so;
        if (tr) phases.arm(so);
        const long long id = tr ? tracer.next_solve() : -1;
        const Clock::time_point s0 = Clock::now();
        RunReport rep;
        {
          ScopedSpan span(tr, std::string("congest.solve/") + name, id);
          rep = is_mst ? handles[i]->solve(mq, so) : handles[i]->solve(sq, so);
        }
        const double ms = ms_since(s0);
        ++out.attempted;
        solve_ms.push_back(ms);
        slowest = std::max(slowest, ms);
        by_name[name].push_back(ms);
        if (tr) {
          // Construction share: the same solve again on the now-warm core.
          const Clock::time_point w0 = Clock::now();
          RunReport warm;
          {
            ScopedSpan span(tr, std::string("congest.solve.warm/") + name, id);
            warm = is_mst ? handles[i]->solve(mq) : handles[i]->solve(sq);
          }
          const double wms = ms_since(w0);
          repeat_ms += wms;
          if (round == 0) construct_ms += ms - wms;
          if (warm.rounds != rep.rounds || warm.messages != rep.messages ||
              !same_payload(warm, rep) || warm.cache_misses != 0)
            out.check("warm repeat " + inst[i].family + " " + name,
                      "differs from the cold solve or missed the cache");
        }
        if (round == 0) {
          first.push_back(std::move(rep));
        } else if (!io::run_reports_identical(rep, first[k])) {
          out.check("round " + std::to_string(round) + " " + name,
                    "report differs from round 0");
        }
        ++k;
      }
    }
    slowest_ms.push_back(slowest);
    return (ms_since(r0) - repeat_ms) / 1000.0;
  });
  out.e2e("peak_rss_mib", peak_rss_mib(), "MiB");

  long long rounds = 0, messages = 0, builds = 0, nphases = 0;
  for (const RunReport& r : first) {
    rounds += r.total_rounds();
    messages += r.messages;
    builds += r.cache_misses;
    nphases += r.phases;
  }
  out.e2e("run_s", median(walls), "s");
  out.e2e("p50_ms", median(solve_ms), "ms");
  // Four solves a round, too few for a percentile: the tail is a round's
  // slowest solve, as a median over rounds so it does not grow with the
  // run's length.
  out.e2e("tail_ms", median(slowest_ms), "ms");
  out.e2e("rounds", static_cast<double>(rounds), "count");
  out.e2e("messages", static_cast<double>(messages), "count");

  // -- checks against the oracles --
  for (std::size_t i = 0; i < inst.size(); ++i) {
    Verifier v(inst[i].core->graph(), inst[i].weights);
    Request mr;
    mr.workload = "mst";
    out.check(inst[i].family + " mst", v.verify(mr, first[2 * i]));
    Request sr;
    sr.workload = "sssp.approx";
    sr.params.epsilon = sssp_query(inst[i]).epsilon;
    out.check(inst[i].family + " sssp.approx", v.verify(sr, first[2 * i + 1]));
  }

  if (!tr) return;
  // -- per-layer figures and probes of the traced run --
  out.layer("traced.run_s", median(walls), "s");
  out.layer("core.construct_ms", construct_ms, "ms");
  out.layer("core.builds", static_cast<double>(builds), "count");
  out.layer("congest.phases", static_cast<double>(nphases), "count");
  out.layer("congest.phase_ms", median(phases.phase_ms), "ms");
  double arena = 0.0;
  for (const auto& h : handles)
    arena += static_cast<double>(h->simulator().arena_stats().bytes_reserved);
  out.layer("congest.arena_bytes", arena, "bytes");
  const Clock::time_point l0 = Clock::now();
  (void)inst[0].core->ldd();
  out.layer("core.ldd_ms", ms_since(l0), "ms");
  probe_core(*inst[0].core, out);
  probe_io(inst[0].core, inst[0].weights, opt.out_dir, out);
  probe_update(*inst[0].core, out);
  probe_render(first, out);
  probe_small_instance(kInstanceSeed, by_name, out);
  report_solve_times(by_name, out);
  tracer.write(opt.out_dir + "/trace-scale-cold.json");
}

}  // namespace perfbench
