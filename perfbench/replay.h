// Single-threaded replay of a workload's inputs through each layer's public
// entry points, in the order the threaded cluster calls them:
//
//   ShardedPipelineCore::on_incoming -> MainUnitCore::process (central)
//   -> try_send_batch / flush -> TxStage::publish (3 no-op sinks)
//   -> EventChannel::submit_batch_to (one subscriber)
//   -> MirrorAuxCore::on_mirrored / next_for_main -> MainUnitCore::process
//
// Calls are timed per chunk of kReplayChunk input events (a clock read
// costs ~20 ns, more than 3% of most single calls), so each layer's cost is
// the sum of its chunk spans over the calls it made. The replay ends with
// the same fingerprints as a threaded run of the same inputs, which is the
// evidence that it did the same work.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "inputs.h"

namespace perfbench {

inline constexpr std::size_t kReplayChunk = 64;

/// One recorded replay span. Names are static strings.
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  Nanos start = 0;
  Nanos end = 0;
};

struct LayerCost {
  double ns = 0;
  std::uint64_t calls = 0;
  double per_call_ns() const {
    return calls == 0 ? 0.0 : ns / static_cast<double>(calls);
  }
};

struct ReplayResult {
  std::uint64_t central_fingerprint = 0;
  std::uint64_t mirror_fingerprint = 0;
  LayerCost on_incoming;      ///< per input event
  LayerCost central_process;  ///< per forwarded event
  LayerCost send;             ///< try_send_batch + flush, per ready event
  LayerCost tx_publish;       ///< per published wire event
  LayerCost echo_submit;      ///< per delivered wire event
  LayerCost aux;              ///< on_mirrored + next_for_main, per event
  LayerCost mirror_process;   ///< per event folded at the mirror
  std::uint64_t events = 0;
  std::vector<Span> spans;
};

ReplayResult replay_layers(const Inputs& inputs, bool record_spans);

/// Serve replay: RequestHandler::handle + frame_response for the
/// workload's request schedule, against the central table, interleaved
/// with the workload's updates in time order (concurrent requests) or
/// after all of them (post-drain probe).
struct ServeReplay {
  /// Mean µs per call by QueryShape wire value, with the calibrated cost of
  /// an empty span subtracted.
  std::array<double, admire::serve::kNumQueryShapes> handle_us{};
  double records_examined_per_returned = 0;
  std::vector<Span> spans;
};

ServeReplay replay_serve(const Inputs& inputs, bool record_spans);

}  // namespace perfbench
