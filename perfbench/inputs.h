// Workloads of the end-to-end benchmark and their seeded inputs. Every
// input a run feeds the cluster — the event trace, the split between the
// set-up load and the measured phase, and the request schedule — is a pure
// function of (workload, seed), so two runs with one seed replay identical
// bytes (perfbench_test.cpp checks this).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "rules/params.h"
#include "serve/query.h"
#include "workload/trace.h"

namespace perfbench {

using admire::Nanos;

/// Flights in every workload; FAA positions carry 1 KB of padding and
/// Delta lifecycle events 256 B (make_ois_trace caps the Delta padding).
inline constexpr std::uint32_t kFlights = 512;
inline constexpr std::size_t kPadding = 1024;
inline constexpr std::size_t kMirrors = 2;

struct WorkloadSpec {
  std::string name;
  /// ois_default_rules(selective_mirroring(8)) when set, simple mirroring
  /// otherwise.
  bool selective = false;
  /// FAA positions per second on the trace's own exponential timestamps,
  /// replayed open loop. 0 = flood: fed as fast as ingest() accepts.
  double faa_rate = 0;
  /// FAA positions in the whole trace (set-up load plus measured phase).
  std::uint64_t faa_events = 0;
  /// Leading trace events loaded at set-up, before the measured phase.
  std::size_t head_events = 0;
  /// Open-loop Poisson requests per second beside the measured phase.
  double request_rate = 0;
  /// Workloads without concurrent requests serve this many requests after
  /// the drain instead, in the kProbeShares mix (the post-drain probe).
  std::size_t probe_requests = 0;
  /// Nominal measured-phase length of one pass; a run makes
  /// max(2, round(--seconds / pass_seconds)) passes.
  double pass_seconds = 2.5;
};

/// Shape counts per 20 requests of the post-drain probe, by QueryShape wire
/// value (FLIGHT, AIRPORT, AIRLINE, REGION, FULL_STATE). This is the
/// SERVING.md default QueryMix with the REGION and FULL_STATE shares
/// swapped. A cold build's cost grows with the records it returns (32, 64,
/// 128 and 512 per group query), so with exact counts the group p50 falls
/// in the middle of the AIRLINE class (40-70% of group requests) and the
/// p90 in the middle of the FULL_STATE class (80-100%). The default mix puts
/// the p90 on the boundary between REGION and FULL_STATE, whose costs differ
/// about 4x, so the p90 jumped between the two classes from seed to seed.
inline constexpr std::array<std::size_t, admire::serve::kNumQueryShapes>
    kProbeShares = {10, 4, 3, 1, 2};
inline constexpr std::size_t kProbeShareTotal = 20;

const std::vector<WorkloadSpec>& all_workloads();
std::optional<WorkloadSpec> find_workload(std::string_view name);

/// One scheduled request: due offset from the start of its phase.
struct RequestItem {
  Nanos due = 0;
  admire::serve::QueryKey query;
};

struct Inputs {
  WorkloadSpec spec;
  std::uint64_t seed = 0;
  admire::workload::Trace trace;  ///< [0, head) set-up load, rest measured
  std::size_t head = 0;
  /// Due offset of each measured event from the start of the measured
  /// phase (all 0 for the flood).
  std::vector<Nanos> offsets;
  /// Requests, due relative to the start of the measured phase (concurrent
  /// requests), or the post-drain probe's requests in the order they are
  /// sent back to back (due 0).
  std::vector<RequestItem> requests;
  bool requests_concurrent = false;

  std::size_t measured_events() const { return trace.size() - head; }
};

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed);

/// Canonical byte encoding of the trace and the request schedule.
admire::Bytes encode_inputs(const Inputs& inputs);

admire::rules::MirroringParams mirroring_params(const WorkloadSpec& spec);

/// Records a correct answer to `query` holds once every flight exists.
std::size_t expected_records(const admire::serve::QueryKey& query);

/// True for AIRPORT/AIRLINE/REGION/FULL_STATE (the "group" latency class).
inline bool is_group(admire::serve::QueryShape shape) {
  return shape != admire::serve::QueryShape::kFlight;
}

/// Every distinct group query over kFlights flights (29): the post-drain
/// probe's untimed warm-up asks each one at every site, so the adaptive
/// indexes are cracked before timing starts.
std::vector<admire::serve::QueryKey> all_group_queries();

}  // namespace perfbench
