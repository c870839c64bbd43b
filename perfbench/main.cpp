// End-to-end benchmark of the threaded mirrored OIS server.
//
//   perfbench --workload <flood_fanout|paced_selective|serve_mix>
//             --seed <n> --seconds <s> --trace <0|1> [--spans-dir <dir>]
//
// A run generates the workload's inputs from the seed, replays them
// single-threaded to get the fingerprints a correct run must end with, then
// makes max(2, round(s / pass length)) passes over a fresh cluster each.
// With --trace 0 it prints the end-to-end metrics, each aggregated over the
// passes as end_to_end() describes; with --trace 1 it adds one traced pass,
// prints the per-layer tables and prints the per-layer metrics. The last
// line of stdout is the JSON result; the exit code is 0 whenever the run
// completed, 2 on bad arguments and 3 when the watchdog fires.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "report.h"

using namespace perfbench;

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans-dir <dir>]\nworkloads:",
               why);
  for (const auto& w : all_workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string spans_dir;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) return usage("missing value after an option");
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      trace = std::atoi(value);
    } else if (arg == "--spans-dir") {
      spans_dir = value;
    } else {
      return usage("unknown option");
    }
  }
  const auto spec = find_workload(workload);
  if (!spec) return usage("unknown workload");
  if (!(seconds > 0) || (trace != 0 && trace != 1)) {
    return usage("bad --seconds or --trace");
  }

  Watchdog watchdog;
  watchdog.enter("generate inputs", std::chrono::seconds(60));
  const Inputs inputs = make_inputs(*spec, seed);
  watchdog.enter("replay", std::chrono::seconds(60));
  const ReplayResult replay = replay_layers(inputs, trace == 1);
  const Expected expected{replay.central_fingerprint,
                          replay.mirror_fingerprint};

  const int passes = std::max(
      2, static_cast<int>(std::lround(seconds / spec->pass_seconds)));
  std::vector<PassResult> results;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto account = [&](const PassResult& r) {
    correct = correct && r.correct;
    attempted += r.events + r.requests.size();
    failed += r.ingest_failures + r.requests_failed();
    for (const auto& e : r.errors) {
      std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
    }
  };
  for (int p = 0; p < passes; ++p) {
    results.push_back(run_pass(inputs, expected, false, watchdog, p));
    account(results.back());
    std::printf("pass %d:", p);
    for (const auto& m : end_to_end(inputs, {results.back()}).metrics) {
      std::printf(" %.4g", m.value);
    }
    std::printf("\n");
  }
  const EndToEnd e2e = end_to_end(inputs, results);

  std::printf("perfbench %s seed %llu: %d passes, %zu events and %zu "
              "requests per pass\n",
              spec->name.c_str(), static_cast<unsigned long long>(seed),
              passes, inputs.trace.size(), inputs.requests.size());
  for (const auto& m : e2e.metrics) {
    std::printf("  %-30s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const auto& d : e2e.diagnostics) std::printf("  %s\n", d.c_str());

  if (trace == 0) {
    watchdog.enter("report", std::chrono::seconds(30));
    std::printf("%s\n", result_json(correct, attempted, failed, e2e.metrics)
                            .c_str());
    std::fflush(stdout);
    return 0;
  }

  PassResult traced = run_pass(inputs, expected, true, watchdog, passes);
  account(traced);
  const EndToEnd traced_e2e = end_to_end(inputs, {traced});
  watchdog.enter("serve replay", std::chrono::seconds(60));
  const ServeReplay serve = replay_serve(inputs, true);
  const auto layers = per_layer(inputs, traced, replay, serve, traced_e2e);
  print_trace_report(inputs, e2e, traced_e2e, layers);
  if (!spans_dir.empty()) {
    watchdog.enter("write spans", std::chrono::seconds(60));
    const std::string path = spans_dir + "/" + spec->name + "-seed" +
                             std::to_string(seed) + ".csv";
    const std::size_t n = write_spans(path, inputs, traced, replay, serve);
    std::printf("\nspans: %zu written to %s\n", n, path.c_str());
  }
  std::printf("%s\n",
              result_json(correct, attempted, failed, layers).c_str());
  std::fflush(stdout);
  return 0;
}
