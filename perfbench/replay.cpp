#include "replay.h"

#include <algorithm>
#include <chrono>

#include "cluster/tx_stage.h"
#include "echo/channel.h"
#include "mirror/main_unit_core.h"
#include "mirror/mirror_aux_core.h"
#include "mirror/sharded_pipeline_core.h"
#include "serve/protocol.h"
#include "serve/request_handler.h"
#include "workload/scenario.h"

namespace perfbench {

namespace event = admire::event;
namespace mirror = admire::mirror;
namespace serve = admire::serve;

namespace {

Nanos now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Times consecutive layer calls: each lap() closes one span that started
/// where the previous lap ended.
class Laps {
 public:
  Laps(bool record, std::vector<Span>& spans)
      : record_(record), spans_(spans) {}

  void start() { last_ = now_ns(); }
  void lap(const char* name, std::uint64_t id, LayerCost& cost,
           std::uint64_t calls) {
    const Nanos t = now_ns();
    if (calls > 0) {
      cost.ns += static_cast<double>(t - last_);
      cost.calls += calls;
      if (record_) spans_.push_back(Span{name, id, last_, t});
    }
    last_ = t;
  }

 private:
  bool record_;
  std::vector<Span>& spans_;
  Nanos last_ = 0;
};

/// Median cost of an empty span (two clock reads), subtracted from spans
/// that time a single call.
double empty_span_ns() {
  std::vector<Nanos> d(2001);
  for (auto& x : d) {
    const Nanos a = now_ns();
    x = now_ns() - a;
  }
  std::nth_element(d.begin(), d.begin() + 1000, d.end());
  return static_cast<double>(d[1000]);
}

}  // namespace

ReplayResult replay_layers(const Inputs& in, bool record_spans) {
  ReplayResult r;
  const std::size_t shards = mirror::ShardedPipelineCore::resolve_shards(0);
  mirror::ShardedPipelineCore core(mirroring_params(in.spec),
                                   admire::workload::kOisStreams, shards, 1);
  mirror::MainUnitCore central(admire::kCentralSite);
  mirror::MirrorAuxCore aux(1);
  mirror::MainUnitCore mirror_main(1);

  // Local path plus one outbox per mirror, as at the central site.
  admire::cluster::TxStage tx(admire::cluster::TxStageConfig{});
  for (const char* dest : {"local", "mirror1", "mirror2"}) {
    tx.add_destination(dest, [](std::span<const event::Event>) {});
  }
  tx.start();

  auto channel = admire::echo::EventChannel::create(
      1, "central.data", admire::echo::ChannelRole::kData);
  std::vector<event::Event> delivered;
  auto sub = channel->subscribe_batch_as(
      "mirror1", [&delivered](std::span<const event::Event> events) {
        delivered.insert(delivered.end(), events.begin(), events.end());
      });

  Laps laps(record_spans, r.spans);
  std::vector<event::Event> forwarded;
  std::vector<event::Event> for_main;
  const auto& items = in.trace.items;
  std::uint64_t chunk = 0;
  for (std::size_t begin = 0; begin < items.size();
       begin += kReplayChunk, ++chunk) {
    const std::size_t end = std::min(items.size(), begin + kReplayChunk);
    const bool last = end == items.size();
    forwarded.clear();
    delivered.clear();
    for_main.clear();
    std::uint64_t credits = 0;

    laps.start();
    for (std::size_t i = begin; i < end; ++i) {
      auto outcome = core.on_incoming(items[i].ev, 0);
      credits += (outcome.enqueued ? 1u : 0u) +
                 (outcome.combined_enqueued ? 1u : 0u);
      if (outcome.forward) forwarded.push_back(std::move(*outcome.forward));
    }
    laps.lap("replay.on_incoming", chunk, r.on_incoming, end - begin);

    for (const auto& ev : forwarded) (void)central.process(ev);
    laps.lap("replay.central_process", chunk, r.central_process,
             forwarded.size());

    std::vector<event::Event> to_send;
    if (credits > 0) {
      if (auto step = core.try_send_batch(credits, 0)) {
        to_send = std::move(step->to_send);
      }
    }
    if (last) {
      auto rest = core.flush(0);
      to_send.insert(to_send.end(), rest.to_send.begin(), rest.to_send.end());
    }
    laps.lap("replay.send", chunk, r.send, credits);

    const std::span<const event::Event> batch(to_send.data(), to_send.size());
    if (!batch.empty()) tx.publish(batch);
    laps.lap("replay.tx_publish", chunk, r.tx_publish, batch.size());

    if (!batch.empty()) channel->submit_batch_to("mirror1", batch);
    laps.lap("replay.echo_submit", chunk, r.echo_submit, batch.size());

    for (auto& ev : delivered) {
      aux.on_mirrored(std::move(ev), 0);
      while (auto next = aux.next_for_main(0)) {
        for_main.push_back(std::move(*next));
      }
    }
    laps.lap("replay.aux", chunk, r.aux, delivered.size());

    for (const auto& ev : for_main) (void)mirror_main.process(ev);
    laps.lap("replay.mirror_process", chunk, r.mirror_process,
             for_main.size());
  }
  tx.quiesce();
  tx.stop();
  r.events = items.size();
  r.central_fingerprint = central.state().fingerprint();
  r.mirror_fingerprint = mirror_main.state().fingerprint();
  return r;
}

ServeReplay replay_serve(const Inputs& in, bool record_spans) {
  ServeReplay r;
  std::array<std::uint64_t, serve::kNumQueryShapes> calls{};
  mirror::MainUnitCore site(admire::kCentralSite);
  serve::RequestHandler handler(&site.state(), serve::ServeConfig{});
  const double empty = empty_span_ns();

  const auto& items = in.trace.items;
  std::size_t next_event = 0;
  const auto apply_until = [&](std::size_t stop) {
    for (; next_event < stop; ++next_event) {
      const auto& ev = items[next_event].ev;
      (void)site.process(ev);
      handler.on_state_update(ev.key());
    }
  };
  apply_until(in.head);
  if (!in.requests_concurrent) {
    // As in the post-drain probe: warm the indexes, then empty the cache
    // before each request so that every answer is a build.
    apply_until(items.size());
    for (const auto& q : all_group_queries()) {
      (void)handler.handle(serve::Request{1, q.shape, q.key});
    }
  }

  double examined = 0;
  double returned = 0;
  for (std::size_t i = 0; i < in.requests.size(); ++i) {
    const auto& item = in.requests[i];
    if (in.requests_concurrent) {
      const auto due_end =
          std::upper_bound(in.offsets.begin(), in.offsets.end(), item.due);
      apply_until(in.head + static_cast<std::size_t>(
                                due_end - in.offsets.begin()));
    } else {
      handler.cache().invalidate_all();
    }
    const serve::Request req{i + 1, item.query.shape, item.query.key};
    const Nanos t0 = now_ns();
    const auto outcome = handler.handle(req);
    const auto frame = serve::frame_response(outcome.response);
    const Nanos t1 = now_ns();
    const auto shape = static_cast<std::size_t>(item.query.shape);
    r.handle_us[shape] +=
        std::max(0.0, static_cast<double>(t1 - t0) - empty) / 1e3;
    ++calls[shape];
    examined += static_cast<double>(outcome.records_examined);
    returned += static_cast<double>(expected_records(item.query));
    if (record_spans) {
      static const char* kNames[] = {
          "replay.serve.flight", "replay.serve.airport", "replay.serve.airline",
          "replay.serve.region", "replay.serve.full_state"};
      r.spans.push_back(Span{kNames[shape], i, t0, t1});
    }
    (void)frame;
  }
  for (std::size_t s = 0; s < r.handle_us.size(); ++s) {
    if (calls[s] > 0) r.handle_us[s] /= static_cast<double>(calls[s]);
  }
  r.records_examined_per_returned = returned > 0 ? examined / returned : 0;
  return r;
}

}  // namespace perfbench
