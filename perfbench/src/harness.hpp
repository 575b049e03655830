// Shared plumbing of the benchmark: clocks, the result record, spans, and
// the run loop every workload uses. Nothing here calls into the library.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}
[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Seeds the instances (graphs and weights). They stay fixed so that the
/// spread between runs measures the run, not instance-to-instance variation
/// in work; --seed draws what each workload asks of them (sources, the edit
/// plan, MIS priorities).
inline constexpr std::uint64_t kInstanceSeed = 1;

/// What the command line asked for.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

/// One named metric with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. `failures` names each check that rejected an
/// output; any entry makes `correct` false.
struct Result {
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;

  void check(const std::string& what, const std::string& error) {
    if (!error.empty()) failures.push_back(what + ": " + error);
  }
  void e2e(const std::string& name, double value, const char* unit) {
    end_to_end[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const char* unit) {
    per_layer[name] = {value, unit};
  }
};

/// Spans kept in memory and written as trace-event JSON at the end of a
/// traced run. A span's `solve` groups every span of one solve or request.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
    long long solve = -1;
    int lane = 0;
  };

  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  /// Opens a span under the innermost open one; returns its id.
  int begin(std::string name, long long solve = -1);
  void end(int id);
  /// Records an already-finished span (e.g. one seen from a server sink).
  int add(std::string name, Clock::time_point start, Clock::time_point end,
          int parent, long long solve, int lane);
  [[nodiscard]] long long next_solve() { return next_solve_++; }
  /// Writes {"traceEvents": [...]}; returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  [[nodiscard]] double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  long long next_solve_ = 0;
};

/// Opens a span for the lifetime of the scope when a tracer is present.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, long long solve = -1)
      : tracer_(tracer),
        id_(tracer ? tracer->begin(std::move(name), solve) : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Value at quantile q of `v` (nearest rank on the sorted copy).
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double median(std::vector<double> v);
/// The highest whole percentile with at least ten samples above it, for a
/// sample count of `n` (>= 40).
[[nodiscard]] int tail_percentile(std::size_t n);
/// Process peak resident set size.
[[nodiscard]] double peak_rss_mib();

/// Runs `unit` (one whole round of the workload's fixed work) until
/// `seconds` have passed, at least once. `unit(round)` returns the seconds
/// of its timed work (it may also do untimed preparation); run_rounds
/// returns those, one per round.
std::vector<double> run_rounds(double seconds,
                               const std::function<double(int round)>& unit);

/// Workload entry points: `start` is the time the process entered main().
void scale_cold(const Options& opt, Clock::time_point start, Result& out);
void serve_warm(const Options& opt, Clock::time_point start, Result& out);
void churn(const Options& opt, Clock::time_point start, Result& out);

}  // namespace perfbench
