// perfbench — the end-to-end benchmark of the mns library.
//
//   perfbench --workload <scale-cold|serve-warm|churn> --seed N --seconds S
//             --trace <0|1> [--out-dir DIR]
//   perfbench --self-check
//
// A run prints, as its last line, one JSON object: whether every output
// passed its checks, the operations attempted and failed, and the metrics —
// the end-to-end ones with --trace 0, the per-layer ones with --trace 1.
// --self-check feeds every output check one corrupted output and exits 0
// only if each check rejects it.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "harness.hpp"

namespace perfbench {
int self_check();
}

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<scale-cold|serve-warm|churn> --seed N --seconds S --trace "
               "<0|1> [--out-dir DIR]\n       perfbench --self-check\n",
               why);
  std::exit(2);
}

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      std::printf("\\u%04x", c);
      continue;
    }
    std::putchar(c);
  }
  std::putchar('"');
}

void print_result(const Result& r, bool trace) {
  for (const std::string& f : r.failures)
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", f.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              r.failures.empty() ? "true" : "false", r.attempted, r.failed);
  bool comma = false;
  for (const auto& [name, m] : trace ? r.per_layer : r.end_to_end) {
    std::printf("%s", comma ? ", " : "");
    print_json_string(name);
    std::printf(": {\"value\": %.17g, \"unit\": ", m.value);
    print_json_string(m.unit);
    std::printf("}");
    comma = true;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point start = Clock::now();
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-check") return self_check();
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opt.workload = v;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
        have_seconds = opt.seconds > 0;
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opt.trace = v == "1";
        have_trace = true;
      } else if (a == "--out-dir") {
        opt.out_dir = v;
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace || opt.workload.empty())
    usage("--workload, --seed, --seconds and --trace are required");
  void (*run)(const Options&, Clock::time_point, Result&) = nullptr;
  if (opt.workload == "scale-cold") run = scale_cold;
  if (opt.workload == "serve-warm") run = serve_warm;
  if (opt.workload == "churn") run = churn;
  if (run == nullptr) usage(("unknown workload " + opt.workload).c_str());

  std::filesystem::create_directories(opt.out_dir);
  Result result;
  try {
    run(opt, start, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s aborted: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  print_result(result, opt.trace);
  return result.failures.empty() ? 0 : 1;
}
