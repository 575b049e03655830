#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

int Tracer::begin(std::string name, long long solve) {
  Span s;
  s.name = std::move(name);
  s.start_us = us(Clock::now());
  s.parent = open_.empty() ? -1 : open_.back();
  s.solve = solve >= 0 || s.parent < 0
                ? solve
                : spans_[static_cast<std::size_t>(s.parent)].solve;
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_us = us(Clock::now());
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

int Tracer::add(std::string name, Clock::time_point start,
                Clock::time_point end, int parent, long long solve,
                int lane) {
  spans_.push_back({std::move(name), us(start), us(end), parent, solve, lane});
  return static_cast<int>(spans_.size()) - 1;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %zu, \"parent\": %d, \"solve\": %lld}}",
                 i ? ",\n" : "", s.name.c_str(), s.lane, s.start_us,
                 s.end_us - s.start_us, i, s.parent, s.solve);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t k = v.size() / 2;
  return v.size() % 2 ? v[k] : 0.5 * (v[k - 1] + v[k]);
}

int tail_percentile(std::size_t n) {
  // Above the p-th percentile lie n - ceil(p n / 100) samples.
  for (int p = 99; p > 50; --p) {
    const auto at = static_cast<std::size_t>(
        std::ceil(static_cast<double>(p) * static_cast<double>(n) / 100.0));
    if (n - at >= 10) return p;
  }
  return 50;
}

double peak_rss_mib() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<double> run_rounds(double seconds,
                               const std::function<double(int)>& unit) {
  std::vector<double> walls;
  const Clock::time_point t0 = Clock::now();
  for (int round = 0;; ++round) {
    walls.push_back(unit(round));
    if (ms_since(t0) / 1000.0 >= seconds) break;
  }
  return walls;
}

}  // namespace perfbench
