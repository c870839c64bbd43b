// Turning passes and replays into the benchmark's metrics, its printed
// tables, its span file and the one-line JSON result.
#pragma once

#include <string>
#include <vector>

#include "inputs.h"
#include "replay.h"
#include "threaded.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty set.
double quantile(std::vector<double> values, double q);

/// The value of the metric called `name` (0 when absent).
double metric_value(const std::vector<Metric>& metrics,
                    const std::string& name);

struct EndToEnd {
  /// BENCHMARK.json end_to_end order, aggregated over passes as
  /// end_to_end() describes.
  std::vector<Metric> metrics;
  /// The same metrics as medians over passes (the tracing-overhead base).
  std::vector<Metric> medians;
  /// p99 / p99.9 with their sample counts: printed, never gated, because at
  /// microsecond scale they follow the host's scheduler.
  std::vector<std::string> diagnostics;
};

EndToEnd end_to_end(const Inputs& inputs,
                    const std::vector<PassResult>& passes);

/// Per-layer metrics (BENCHMARK.json per_layer order) of the traced pass.
std::vector<Metric> per_layer(const Inputs& inputs, const PassResult& traced,
                              const ReplayResult& replay,
                              const ServeReplay& serve,
                              const EndToEnd& traced_e2e);

/// The traced run's tables: tracing overhead, per-layer metrics with the
/// end-to-end metric each should move, and the per-path budget.
void print_trace_report(const Inputs& inputs, const EndToEnd& untraced,
                        const EndToEnd& traced,
                        const std::vector<Metric>& layers);

/// Spans of the traced pass (ingest, <site>.visible, request) and of the
/// replays, one CSV line each. Returns the number written (0 on error).
std::size_t write_spans(const std::string& path, const Inputs& inputs,
                        const PassResult& traced, const ReplayResult& replay,
                        const ServeReplay& serve);

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench
