// Calls into the library's public layers, timed from outside: the request
// catalogue, output verification, streaming batches through a QueryServer,
// snapshots, and the probes a traced run adds for the layers its workload's
// timed phase does not isolate on its own.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "congest/session.hpp"
#include "congest/solve_handle.hpp"
#include "congest/solver_core.hpp"
#include "harness.hpp"
#include "io/snapshot.hpp"
#include "oracles.hpp"
#include "serve/query_server.hpp"

namespace perfbench {

using mns::congest::RunReport;
using mns::congest::SolverCore;
using mns::serve::Request;
using mns::serve::Response;

[[nodiscard]] Net to_net(const mns::Graph& g,
                         const std::vector<mns::Weight>& w);

/// One request of each of the eight catalogue workloads on `w`.
[[nodiscard]] std::vector<Request> catalogue(const std::vector<mns::Weight>& w);

/// Checks reports of any catalogue workload on one network against the
/// oracles, computing each oracle answer once and keeping it.
class Verifier {
 public:
  Verifier(const mns::Graph& g, const std::vector<mns::Weight>& w)
      : g_(g), net_(to_net(g, w)) {}
  [[nodiscard]] std::string verify(const Request& request,
                                   const RunReport& report);
  [[nodiscard]] const Net& net() const { return net_; }
  [[nodiscard]] const MstOracle& mst();
  [[nodiscard]] const std::vector<std::int64_t>& dist(std::int32_t source);

 private:
  const mns::Graph& g_;
  Net net_;
  std::optional<MstOracle> mst_;
  std::map<std::int32_t, std::vector<std::int64_t>> dist_;
  std::map<std::int32_t, std::vector<int>> hops_;
  std::optional<std::int64_t> lambda_;
};

/// True iff the two reports carry the same payload, field by field.
[[nodiscard]] bool same_payload(const RunReport& a, const RunReport& b);

/// The program's MST edges as endpoint pairs.
[[nodiscard]] std::vector<EdgeKey> mst_keys(const mns::Graph& g,
                                            const RunReport& report);

/// Per-request timing of one batch streamed through QueryServer::serve.
/// Workers claim requests in index order right after their previous sink
/// call returns, so request i >= workers was claimed when the (i-workers)-th
/// sink call returned; its service time runs from that claim to its own
/// sink call. Every response is rendered with response_to_json in the sink.
struct BatchStats {
  std::vector<Response> responses;
  std::vector<double> service_ms;  ///< claim -> sink, per request
  std::vector<double> wait_ms;     ///< service time outside the solve
  std::vector<double> render_us;   ///< response_to_json, per request
  double wall_ms = 0.0;
  double solve_ms = 0.0;           ///< sum of report wall_ms
  std::size_t rendered_bytes = 0;
};
[[nodiscard]] BatchStats serve_batch(mns::serve::QueryServer& server,
                                     const std::vector<Request>& batch,
                                     Tracer* tracer);

/// Traced-run probes. Each writes its per-layer metrics into `out`.
/// core.lookup_us, the core.shortcut_* quality of the LDD partition and the
/// congest.agg_* / participations figures of PartwiseAggregator on it.
void probe_core(const SolverCore& core, Result& out);
/// io.save_ms / io.restore_ms / io.snapshot_bytes through files in `dir`.
void probe_io(const std::shared_ptr<const SolverCore>& core,
              const std::vector<mns::Weight>& w, const std::string& dir,
              Result& out);
/// serve.* of a two-worker server over `core`: warm once, then stream
/// `repeat` copies of `requests`.
void probe_serve(const std::shared_ptr<const SolverCore>& core,
                 const std::vector<Request>& requests, int repeat,
                 Result& out);
/// congest.solve_ms.<name> for catalogue names `times` has no sample of yet,
/// by one solve each on `handle` (results are verified too).
void probe_catalogue(mns::congest::SolveHandle& handle,
                     const std::vector<mns::Weight>& w,
                     std::map<std::string, std::vector<double>>& times,
                     Verifier& verifier, Result& out);
/// core.update_ms / core.entries_kept / core.entries_invalidated of one
/// structural batch on `core` (one edge removed, one inserted; the graph
/// stays connected).
void probe_update(const SolverCore& core, Result& out);
/// The 1024-vertex planar probe instance made from `seed`: one solve of each
/// catalogue name `times` lacks, and the serve.* probe.
void probe_small_instance(std::uint64_t seed,
                          std::map<std::string, std::vector<double>>& times,
                          Result& out);
/// io.render_us over `reports`.
void probe_render(const std::vector<RunReport>& reports, Result& out);
/// Writes congest.solve_ms.<name> medians from `times`.
void report_solve_times(const std::map<std::string, std::vector<double>>& times,
                        Result& out);

/// Records per-phase timestamps through SolveOptions::trace.
struct PhaseClock {
  std::vector<double> phase_ms;
  Clock::time_point last;
  /// Arms `options.trace`; call right before the solve.
  void arm(mns::congest::SolveOptions& options);
};

}  // namespace perfbench
