// One measured pass over the threaded cluster::Cluster (central plus 2
// mirrors, ClusterConfig defaults apart from the mirror count, the rules and
// the TCP serve front end): set up and load the head of the trace, run the
// measured phase from one event-generator thread (plus, with concurrent
// requests, one request-client thread on 2 TCP connections), drain, serve
// the post-drain probe if the workload has one, then check the results.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "inputs.h"
#include "obs/registry.h"

namespace perfbench {

/// Ends the process with exit code 3 and names the phase when a phase
/// outlives its limit, so a hung cluster fails the run instead of blocking
/// whoever runs it.
class Watchdog {
 public:
  Watchdog();
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void enter(std::string phase, std::chrono::seconds limit);

 private:
  void loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::string phase_;
  std::chrono::steady_clock::time_point deadline_;
  bool stop_ = false;
  std::thread thread_;
};

struct RequestRecord {
  admire::serve::QueryShape shape = admire::serve::QueryShape::kFlight;
  Nanos due = 0;   ///< cluster-clock time the request was due
  Nanos sent = 0;
  Nanos done = 0;  ///< full response received; 0 = never answered
  bool ok = false; ///< OK, decodes, and holds exactly the matching records
  std::size_t bytes = 0;
};

/// An update seen on a site's updates channel: the event's ingress stamp
/// and when the callback ran (cluster clock).
struct Visible {
  Nanos stamp = 0;
  Nanos at = 0;
};

/// The fingerprints a correct pass ends with (from the replay).
struct Expected {
  std::uint64_t central = 0;
  std::uint64_t mirror = 0;
};

struct PassResult {
  bool correct = true;
  std::vector<std::string> errors;

  double setup_s = 0;
  double load_eps = 0;      ///< head events / (first ingest -> drain)
  double measured_eps = 0;  ///< measured events / (first ingest -> drain)
  double cpu_us_per_event = 0;
  double ctx_switches_per_event = 0;
  double heap_growth_mb = 0;  ///< live heap after drain - at start

  std::uint64_t events = 0;  ///< head + measured events offered
  std::uint64_t ingest_failures = 0;
  std::vector<Visible> central;
  std::vector<std::vector<Visible>> mirrors;  ///< one list per mirror
  std::vector<RequestRecord> requests;
  std::vector<Nanos> event_lag;  ///< paced sends: send time - due time

  admire::obs::Snapshot before;  ///< start of the measured phase
  admire::obs::Snapshot after;   ///< right after the drain
  admire::obs::Snapshot served;  ///< after the last request (post-drain probe)
  std::uint64_t samples_retained = 0;

  /// Traced pass only: each ingest() call's bracket, by measured index.
  std::vector<Nanos> ingest_begin;
  std::vector<Nanos> ingest_end;

  std::uint64_t requests_failed() const;
};

PassResult run_pass(const Inputs& inputs, const Expected& expected,
                    bool traced, Watchdog& watchdog, int pass);

}  // namespace perfbench
