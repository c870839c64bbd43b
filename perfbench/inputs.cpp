#include "inputs.h"

#include <algorithm>

#include "common/rng.h"
#include "serialize/event_codec.h"
#include "serialize/wire.h"
#include "workload/scenario.h"

namespace perfbench {

using admire::kSecond;
namespace serve = admire::serve;

const std::vector<WorkloadSpec>& all_workloads() {
  // Why each workload exists (README.md has the long form):
  //  - flood_fanout: every event crosses every hand-off (rx inbox, rules,
  //    ready, drain, 3 tx outboxes, mirror inbox, fold) at the rate the
  //    system sets, so hand-off and fan-out costs dominate; serve idles.
  //  - paced_selective: the paper's §4 function replayed open loop at
  //    ~40k FAA ev/s (Fig. 8); rules do most of the work, only ~14% of
  //    events are mirrored, and a batching change that makes events wait
  //    shows up in its update delay.
  //  - serve_mix: paced events beside open-loop Poisson requests over TCP,
  //    the one workload where serve, index and state reads run under the
  //    writers' lock.
  static const std::vector<WorkloadSpec> kWorkloads = {
      {.name = "flood_fanout",
       .selective = false,
       .faa_rate = 0,
       .faa_events = 200'000,
       .head_events = 32'768,
       .probe_requests = 2'000,
       .pass_seconds = 2.0},
      {.name = "paced_selective",
       .selective = true,
       .faa_rate = 40'000,
       .faa_events = 90'000,
       .head_events = 32'768,
       .probe_requests = 2'000,
       .pass_seconds = 1.5},
      {.name = "serve_mix",
       .selective = false,
       .faa_rate = 10'000,
       .faa_events = 45'000,
       .head_events = 32'768,
       .request_rate = 1000,
       .pass_seconds = 1.5},
  };
  return kWorkloads;
}

std::optional<WorkloadSpec> find_workload(std::string_view name) {
  for (const auto& w : all_workloads()) {
    if (w.name == name) return w;
  }
  return std::nullopt;
}

admire::rules::MirroringParams mirroring_params(const WorkloadSpec& spec) {
  if (spec.selective) {
    return admire::rules::ois_default_rules(
        admire::rules::selective_mirroring(8));
  }
  admire::rules::MirroringParams params;
  params.function = admire::rules::simple_mirroring();
  return params;
}

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed) {
  Inputs in;
  in.spec = spec;
  in.seed = seed;

  admire::workload::ScenarioConfig scenario;
  scenario.faa_events = spec.faa_events;
  scenario.num_flights = kFlights;
  scenario.event_padding = kPadding;
  // Paced workloads replay the trace's own timestamps, so the horizon
  // sets the offered rate; the flood ignores timestamps.
  scenario.event_horizon =
      spec.faa_rate > 0
          ? static_cast<Nanos>(static_cast<double>(spec.faa_events) /
                               spec.faa_rate * static_cast<double>(kSecond))
          : 10 * kSecond;
  scenario.seed = seed;
  in.trace = admire::workload::make_ois_trace(scenario);
  in.head = std::min(spec.head_events, in.trace.size());

  const auto& items = in.trace.items;
  in.offsets.reserve(in.measured_events());
  for (std::size_t i = in.head; i < items.size(); ++i) {
    in.offsets.push_back(spec.faa_rate > 0 ? items[i].at - items[in.head].at
                                           : 0);
  }

  in.requests_concurrent = spec.request_rate > 0;
  admire::Rng rng(seed * 0x9E3779B97F4A7C15ULL ^ 0xC11E47ULL);
  const serve::FlightPicker picker(serve::FlightDist{}, kFlights);
  if (in.requests_concurrent) {
    const Nanos window = in.offsets.empty() ? 0 : in.offsets.back();
    const serve::QueryMix mix;  // SERVING.md default
    const double mean_gap = static_cast<double>(kSecond) / spec.request_rate;
    for (Nanos t = static_cast<Nanos>(rng.next_exponential(mean_gap));
         t < window; t += static_cast<Nanos>(rng.next_exponential(mean_gap))) {
      const double shape_draw = rng.next_double();
      const auto flight = picker.pick(rng.next_double());
      in.requests.push_back(
          RequestItem{t, serve::pick_query(mix, shape_draw, flight)});
    }
    return in;
  }

  // The probe: exact shape counts in a seeded order, each key derived from
  // a uniform flight as pick_query derives it.
  std::vector<serve::QueryShape> shapes;
  shapes.reserve(spec.probe_requests);
  for (std::size_t s = 0; s < kProbeShares.size(); ++s) {
    const std::size_t n = spec.probe_requests * kProbeShares[s] /
                          kProbeShareTotal;
    shapes.insert(shapes.end(), n, static_cast<serve::QueryShape>(s));
  }
  for (std::size_t i = shapes.size(); i > 1; --i) {
    std::swap(shapes[i - 1], shapes[rng.next_below(i)]);
  }
  for (const auto shape : shapes) {
    const auto flight = picker.pick(rng.next_double());
    in.requests.push_back(RequestItem{
        0, serve::covering_keys(flight)[static_cast<std::size_t>(shape)]});
  }
  return in;
}

admire::Bytes encode_inputs(const Inputs& in) {
  admire::serialize::Writer w(in.trace.size() * 1200 + in.requests.size() * 16);
  w.varint(in.head);
  w.varint(in.trace.size());
  for (const auto& item : in.trace.items) {
    w.i64(item.at);
    admire::serialize::encode_event(item.ev, w);
  }
  for (Nanos off : in.offsets) w.i64(off);
  w.u8(in.requests_concurrent ? 1 : 0);
  w.varint(in.requests.size());
  for (const auto& r : in.requests) {
    w.i64(r.due);
    w.u8(static_cast<std::uint8_t>(r.query.shape));
    w.u32(r.query.key);
  }
  return w.take();
}

std::size_t expected_records(const serve::QueryKey& query) {
  std::size_t n = 0;
  for (admire::FlightKey f = 1; f <= kFlights; ++f) {
    if (serve::query_matches(query.shape, query.key, f)) ++n;
  }
  return n;
}

std::vector<serve::QueryKey> all_group_queries() {
  std::vector<serve::QueryKey> out;
  for (admire::FlightKey f = 1; f <= kFlights; ++f) {
    for (const auto& q : serve::covering_keys(f)) {
      if (is_group(q.shape) &&
          std::find(out.begin(), out.end(), q) == out.end()) {
        out.push_back(q);
      }
    }
  }
  return out;
}

}  // namespace perfbench
