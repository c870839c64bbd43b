// Tests of the benchmark itself: its inputs are a pure function of the
// seed, and its single-threaded replay does the same work as the threaded
// cluster (equal fingerprints), so the per-layer costs it measures belong
// to the run they are compared with.
#include <gtest/gtest.h>

#include "inputs.h"
#include "replay.h"
#include "threaded.h"

namespace perfbench {
namespace {

/// The workload's shape at a size a test can afford. The head still holds
/// enough FAA positions that every flight exists after set-up.
WorkloadSpec small(WorkloadSpec spec) {
  spec.faa_events = 12'000;
  spec.head_events = 8'192;
  spec.probe_requests = 200;
  return spec;
}

TEST(PerfbenchInputs, SameSeedGivesIdenticalTraceAndSchedule) {
  for (const auto& w : all_workloads()) {
    const auto a = encode_inputs(make_inputs(small(w), 7));
    const auto b = encode_inputs(make_inputs(small(w), 7));
    const auto c = encode_inputs(make_inputs(small(w), 8));
    EXPECT_EQ(a, b) << w.name;
    EXPECT_NE(a, c) << w.name;
  }
}

TEST(PerfbenchInputs, EveryWorkloadSchedulesRequests) {
  for (const auto& w : all_workloads()) {
    const auto in = make_inputs(small(w), 3);
    EXPECT_FALSE(in.requests.empty()) << w.name;
    EXPECT_EQ(in.requests_concurrent, w.request_rate > 0) << w.name;
    EXPECT_EQ(in.offsets.size(), in.measured_events()) << w.name;
  }
}

TEST(PerfbenchInputs, ProbeHasTheSameShapeCountsForEverySeed) {
  // The gated probe quantiles sit in the middle of one shape's class only
  // while the counts are exact; the seed may change keys and order only.
  for (const auto& w : all_workloads()) {
    if (w.request_rate > 0) continue;
    for (const std::uint64_t seed : {1, 2}) {
      std::array<std::size_t, admire::serve::kNumQueryShapes> counts{};
      for (const auto& r : make_inputs(small(w), seed).requests) {
        ++counts[static_cast<std::size_t>(r.query.shape)];
      }
      for (std::size_t s = 0; s < counts.size(); ++s) {
        EXPECT_EQ(counts[s], 200 * kProbeShares[s] / kProbeShareTotal)
            << w.name << " shape " << s;
      }
    }
  }
}

TEST(PerfbenchReplay, EndsWithTheThreadedRunsFingerprints) {
  Watchdog watchdog;
  for (const auto& w : all_workloads()) {
    const auto in = make_inputs(small(w), 11);
    const auto replay = replay_layers(in, false);
    if (!w.selective) {
      EXPECT_EQ(replay.central_fingerprint, replay.mirror_fingerprint)
          << w.name;
    }
    const auto pass = run_pass(
        in, Expected{replay.central_fingerprint, replay.mirror_fingerprint},
        false, watchdog, 0);
    EXPECT_TRUE(pass.correct) << w.name;
    for (const auto& e : pass.errors) ADD_FAILURE() << w.name << ": " << e;
    EXPECT_EQ(pass.requests_failed(), 0u) << w.name;
  }
}

TEST(PerfbenchWatchdog, HungPhaseExitsNonzeroAndNamesThePhase) {
  EXPECT_EXIT(
      {
        Watchdog watchdog;
        watchdog.enter("drain (pass 7)", std::chrono::seconds(1));
        std::this_thread::sleep_for(std::chrono::seconds(10));
      },
      ::testing::ExitedWithCode(3), "phase 'drain \\(pass 7\\)' hung");
}

TEST(PerfbenchWatchdog, PhasesThatFinishInTimeDoNotFire) {
  Watchdog watchdog;
  watchdog.enter("short", std::chrono::seconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  watchdog.enter("next", std::chrono::seconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
}

TEST(PerfbenchReplay, WrongExpectationFailsThePass) {
  Watchdog watchdog;
  const auto in = make_inputs(small(*find_workload("flood_fanout")), 5);
  const auto replay = replay_layers(in, false);
  const auto pass = run_pass(
      in, Expected{replay.central_fingerprint ^ 1, replay.mirror_fingerprint},
      false, watchdog, 0);
  EXPECT_FALSE(pass.correct);
}

}  // namespace
}  // namespace perfbench
