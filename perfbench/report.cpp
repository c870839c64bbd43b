#include "report.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <map>

namespace perfbench {

namespace serve = admire::serve;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double metric_value(const std::vector<Metric>& metrics,
                    const std::string& name) {
  for (const auto& m : metrics) {
    if (m.name == name) return m.value;
  }
  return 0;
}

namespace {

std::string tail(const std::string& what, std::vector<double> ms) {
  char line[200];
  std::snprintf(line, sizeof line,
                "%-18s p90 %.3f ms  p99 %.3f ms (n=%zu)  p99.9 %.3f ms  "
                "[diagnostic]",
                what.c_str(), quantile(ms, 0.9), quantile(ms, 0.99),
                ms.size(), quantile(ms, 0.999));
  return line;
}

std::vector<double> delays_ms(const std::vector<Visible>& samples) {
  std::vector<double> v;
  v.reserve(samples.size());
  for (const auto& s : samples) {
    v.push_back(static_cast<double>(s.at - s.stamp) / 1e6);
  }
  return v;
}

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

/// Counter or probe value in a snapshot (probes export as gauges).
double value_of(const admire::obs::Snapshot& s, const std::string& name) {
  for (const auto& [n, v] : s.counters) {
    if (n == name) return static_cast<double>(v);
  }
  return s.gauge_or(name, 0.0);
}

double delta(const PassResult& p, const std::string& name) {
  return value_of(p.after, name) - value_of(p.before, name);
}

/// Delta of a serving-plane counter, up to the last request of the pass.
double served_delta(const PassResult& p, const std::string& name) {
  return value_of(p.served, name) - value_of(p.before, name);
}

/// Sum of counter deltas over every name with this prefix and suffix.
double delta_sum(const PassResult& p, const std::string& prefix,
                 const std::string& suffix) {
  double sum = 0;
  for (const auto& [name, v] : p.after.counters) {
    if (name.starts_with(prefix) && name.ends_with(suffix) &&
        name.size() >= prefix.size() + suffix.size()) {
      sum += static_cast<double>(v) - value_of(p.before, name);
    }
  }
  return sum;
}

const char* kSites[] = {"central", "mirror1", "mirror2"};

double site_sum(const PassResult& p, const std::string& family,
                const std::string& suffix) {
  double sum = 0;
  for (const char* site : kSites) {
    sum += served_delta(p, family + "." + site + "." + suffix);
  }
  return sum;
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

}  // namespace

namespace {

struct Latencies {
  std::vector<double> central, mirror, flight, group, event_lag, request_lag;
};

void collect(const PassResult& p, Latencies& l) {
  append(l.central, delays_ms(p.central));
  for (const auto& m : p.mirrors) append(l.mirror, delays_ms(m));
  for (const auto& r : p.requests) {
    if (r.done == 0) continue;
    const double ms = static_cast<double>(r.done - r.due) / 1e6;
    (is_group(r.shape) ? l.group : l.flight).push_back(ms);
    l.request_lag.push_back(static_cast<double>(r.sent - r.due) / 1e3);
  }
  for (Nanos lag : p.event_lag) {
    l.event_lag.push_back(static_cast<double>(lag) / 1e3);
  }
}

/// The end-to-end metrics of one pass, in BENCHMARK.json order.
std::vector<Metric> pass_metrics(const Inputs& in, const PassResult& p) {
  Latencies l;
  collect(p, l);
  const bool flood = in.spec.faa_rate == 0;
  return {
      {"setup_s", p.setup_s, "s"},
      {"ingest_eps", flood ? p.measured_eps : p.load_eps, "1/s"},
      {"cpu_us_per_event", p.cpu_us_per_event, "us"},
      {"heap_growth_mb", p.heap_growth_mb, "MB"},
      {"central_update_delay_p50_ms", quantile(l.central, 0.5), "ms"},
      {"mirror_update_delay_p50_ms", quantile(l.mirror, 0.5), "ms"},
      {"flight_request_p50_ms", quantile(l.flight, 0.5), "ms"},
      {"group_request_p50_ms", quantile(l.group, 0.5), "ms"},
      {"group_request_p90_ms", quantile(l.group, 0.9), "ms"},
  };
}

}  // namespace

EndToEnd end_to_end(const Inputs& in, const std::vector<PassResult>& passes) {
  // Each timing is the better quartile of its per-pass values (the 25th
  // percentile, the 75th for ingest_eps). Other tenants of a shared host
  // only ever make a pass slower: CPU steal of 13-16% made serve_mix p90
  // delays 10x worse in whole passes, so the median of passes followed the
  // host while the better quartile keeps following the program as long as
  // a few passes ran undisturbed. heap_growth_mb is not a timing; it takes
  // the median. So does setup_s, so that work moved into set-up shows even
  // when only some set-ups pay for it.
  //
  // The post-drain probe's request metrics are quantiles of every pass's
  // samples pooled. A probe runs as fast as its cluster lets it: three
  // rounds in one pass agree within 5%, while passes of one run fell into
  // a fast and a slow mode up to 35% apart. A quantile over passes jumps
  // between the modes with the share of fast passes; the pooled quantile
  // moves smoothly with it.
  EndToEnd e;
  std::vector<std::vector<Metric>> per_pass;
  Latencies pooled;
  for (const auto& p : passes) {
    per_pass.push_back(pass_metrics(in, p));
    collect(p, pooled);
  }
  e.metrics = per_pass.front();
  e.medians = per_pass.front();
  for (std::size_t i = 0; i < e.metrics.size(); ++i) {
    std::vector<double> v;
    for (const auto& m : per_pass) v.push_back(m[i].value);
    const std::string& name = e.metrics[i].name;
    const double q = name == "ingest_eps"                            ? 0.75
                     : name == "heap_growth_mb" || name == "setup_s" ? 0.5
                                                                     : 0.25;
    e.metrics[i].value = quantile(v, q);
    e.medians[i].value = quantile(std::move(v), 0.5);
  }
  if (!in.requests_concurrent) {
    const std::pair<const char*, double> probe[] = {
        {"flight_request_p50_ms", quantile(pooled.flight, 0.5)},
        {"group_request_p50_ms", quantile(pooled.group, 0.5)},
        {"group_request_p90_ms", quantile(pooled.group, 0.9)},
    };
    for (const auto& [name, value] : probe) {
      for (auto* metrics : {&e.metrics, &e.medians}) {
        for (auto& m : *metrics) {
          if (m.name == name) m.value = value;
        }
      }
    }
  }
  e.diagnostics = {
      tail("central delay", pooled.central),
      tail("mirror delay", pooled.mirror),
      tail("flight request", pooled.flight),
      tail("group request", pooled.group),
  };
  char line[200];
  std::snprintf(line, sizeof line,
                "%-18s p50 %.1f us  p99 %.1f us (n=%zu events, %zu requests)",
                "generator lag", quantile(pooled.event_lag, 0.5),
                quantile(pooled.event_lag, 0.99), pooled.event_lag.size(),
                pooled.request_lag.size());
  e.diagnostics.push_back(line);
  return e;
}

std::vector<Metric> per_layer(const Inputs& in, const PassResult& p,
                              const ReplayResult& rp, const ServeReplay& sv,
                              const EndToEnd& e2e) {
  std::vector<double> ingest_us;
  ingest_us.reserve(p.ingest_begin.size());
  for (std::size_t k = 0; k < p.ingest_begin.size(); ++k) {
    ingest_us.push_back(
        static_cast<double>(p.ingest_end[k] - p.ingest_begin[k]) / 1e3);
  }
  std::vector<double> event_lag_us;
  for (Nanos lag : p.event_lag) {
    event_lag_us.push_back(static_cast<double>(lag) / 1e3);
  }
  std::vector<double> request_lag_us;
  double ok_bytes = 0;
  double ok_count = 0;
  for (const auto& r : p.requests) {
    request_lag_us.push_back(static_cast<double>(r.sent - r.due) / 1e3);
    if (r.ok) {
      ok_bytes += static_cast<double>(r.bytes);
      ++ok_count;
    }
  }
  const double measured = static_cast<double>(in.measured_events());
  const double hits = site_sum(p, "serve", "cache.hits_total");
  const double misses = site_sum(p, "serve", "cache.misses_total");
  const double indexed = site_sum(p, "index", "builds_indexed_total");
  const double scanned = site_sum(p, "index", "builds_scanned_total");

  const double central_service_ns =
      rp.on_incoming.per_call_ns() + rp.central_process.per_call_ns();
  const double mirror_service_ns =
      rp.on_incoming.per_call_ns() + rp.send.per_call_ns() +
      rp.tx_publish.per_call_ns() + rp.echo_submit.per_call_ns() +
      rp.aux.per_call_ns() + rp.mirror_process.per_call_ns();
  const double mirrors = static_cast<double>(kMirrors);
  const double attributed_ns =
      (rp.on_incoming.ns + rp.central_process.ns + rp.send.ns +
       rp.tx_publish.ns +
       mirrors * (rp.echo_submit.ns + rp.aux.ns + rp.mirror_process.ns)) /
      static_cast<double>(std::max<std::uint64_t>(1, rp.events));

  const double central_p50_us =
      metric_value(e2e.metrics, "central_update_delay_p50_ms") * 1e3;
  const double mirror_p50_us =
      metric_value(e2e.metrics, "mirror_update_delay_p50_ms") * 1e3;
  const double cpu_us = metric_value(e2e.metrics, "cpu_us_per_event");
  Latencies delays;
  collect(p, delays);

  using serve::QueryShape;
  const auto handle = [&sv](QueryShape s) {
    return sv.handle_us[static_cast<std::size_t>(s)];
  };
  return {
      {"cluster.ingest_call_us_p50", quantile(ingest_us, 0.5), "us"},
      {"cluster.ingest_call_us_p99", quantile(ingest_us, 0.99), "us"},
      {"cluster.events_per_send_batch",
       ratio(delta(p, "cluster.central.send.credits_consumed_total"),
             delta(p, "cluster.central.send.batches_total")),
       "events"},
      {"cluster.tx.publish_ns_per_event", rp.tx_publish.per_call_ns(), "ns"},
      {"cluster.tx.stalls", delta_sum(p, "tx.", ".stalls_total"), "count"},
      {"cluster.ctx_switches_per_event", p.ctx_switches_per_event, "count"},
      {"mirror.on_incoming_ns", rp.on_incoming.per_call_ns(), "ns"},
      {"mirror.send_ns_per_event", rp.send.per_call_ns(), "ns"},
      {"mirror.aux_ns", rp.aux.per_call_ns(), "ns"},
      {"rules.mirrored_per_ingested",
       ratio(delta(p, "pipeline.central.sent_total"),
             delta(p, "pipeline.central.received_total")),
       "ratio"},
      {"rules.discarded_overwritten",
       delta(p, "rules.central.discarded_overwritten_total"), "count"},
      {"rules.discarded_suppressed",
       delta(p, "rules.central.discarded_suppressed_total"), "count"},
      {"rules.emitted_combined",
       delta(p, "rules.central.emitted_combined_total"), "count"},
      {"queueing.ready_high_water",
       value_of(p.after, "queue.central.ready.high_water"), "events"},
      {"queueing.backup_high_water",
       value_of(p.after, "queue.central.backup.high_water"), "events"},
      {"checkpoint.rounds_per_kevent",
       delta(p, "checkpoint.coordinator.rounds_committed_total") * 1000.0 /
           std::max(1.0, measured),
       "count"},
      {"ede.central_process_ns", rp.central_process.per_call_ns(), "ns"},
      {"ede.mirror_process_ns", rp.mirror_process.per_call_ns(), "ns"},
      {"echo.submit_ns_per_event", rp.echo_submit.per_call_ns(), "ns"},
      {"metrics.samples_retained", static_cast<double>(p.samples_retained),
       "count"},
      {"serve.handle_us.flight", handle(QueryShape::kFlight), "us"},
      {"serve.handle_us.airport", handle(QueryShape::kAirport), "us"},
      {"serve.handle_us.airline", handle(QueryShape::kAirline), "us"},
      {"serve.handle_us.region", handle(QueryShape::kRegion), "us"},
      {"serve.handle_us.full_state", handle(QueryShape::kFullState), "us"},
      {"serve.cache_hit_ratio", ratio(hits, hits + misses), "ratio"},
      {"serve.response_kb_mean", ratio(ok_bytes, ok_count) / 1024.0, "KB"},
      {"serve.shed", site_sum(p, "serve", "shed_total"), "count"},
      {"index.indexed_build_ratio", ratio(indexed, indexed + scanned),
       "ratio"},
      {"index.fallbacks", site_sum(p, "index", "fallback_scans_total"),
       "count"},
      {"index.records_examined_per_returned",
       sv.records_examined_per_returned, "ratio"},
      {"gen.event_lag_us_p99", quantile(event_lag_us, 0.99), "us"},
      {"gen.request_lag_us_p99", quantile(request_lag_us, 0.99), "us"},
      {"budget.central_service_us", central_service_ns / 1e3, "us"},
      {"budget.mirror_service_us", mirror_service_ns / 1e3, "us"},
      {"budget.central_wait_us", central_p50_us - central_service_ns / 1e3,
       "us"},
      {"budget.mirror_wait_us", mirror_p50_us - mirror_service_ns / 1e3, "us"},
      {"budget.central_delay_p90_us", quantile(delays.central, 0.9) * 1e3,
       "us"},
      {"budget.mirror_delay_p90_us", quantile(delays.mirror, 0.9) * 1e3,
       "us"},
      {"budget.unattributed_cpu_us_per_event", cpu_us - attributed_ns / 1e3,
       "us"},
  };
}

namespace {

/// Module and "should move" column for each per-layer metric.
struct LayerNote {
  const char* module;
  const char* moves;
};

const std::map<std::string, LayerNote>& layer_notes() {
  static const std::map<std::string, LayerNote> kNotes = {
      {"cluster.ingest_call_us_p50",
       {"cluster", "ingest_eps on flood (backpressure wait); flat when paced"}},
      {"cluster.ingest_call_us_p99",
       {"cluster", "ingest_eps on flood (backpressure wait); flat when paced"}},
      {"cluster.events_per_send_batch",
       {"cluster",
        "ingest_eps on flood; central delay p50 on paced_selective"}},
      {"cluster.tx.publish_ns_per_event",
       {"cluster",
        "ingest_eps, cpu_us_per_event on flood; not paced_selective"}},
      {"cluster.tx.stalls",
       {"cluster",
        "ingest_eps, cpu_us_per_event on flood; not paced_selective"}},
      {"cluster.ctx_switches_per_event",
       {"cluster", "cpu_us_per_event on all; ingest_eps on flood"}},
      {"mirror.on_incoming_ns",
       {"mirror", "central delay p50 on paced; ingest_eps on flood"}},
      {"mirror.send_ns_per_event",
       {"mirror", "mirror delay p50; ingest_eps on flood"}},
      {"mirror.aux_ns",
       {"mirror", "mirror delay p50"}},
      {"rules.mirrored_per_ingested",
       {"rules",
        "mirror delay, cpu_us_per_event on paced_selective (1.0 elsewhere)"}},
      {"rules.discarded_overwritten",
       {"rules", "mirror delay, cpu_us_per_event on paced_selective"}},
      {"rules.discarded_suppressed",
       {"rules", "mirror delay, cpu_us_per_event on paced_selective"}},
      {"rules.emitted_combined",
       {"rules", "mirror delay, cpu_us_per_event on paced_selective"}},
      {"queueing.ready_high_water",
       {"queueing",
        "budget.central_delay_p90_us, heap_growth_mb on paced_selective"}},
      {"queueing.backup_high_water",
       {"queueing",
        "budget.central_delay_p90_us, heap_growth_mb on paced_selective"}},
      {"checkpoint.rounds_per_kevent",
       {"checkpoint", "cpu_us_per_event on all"}},
      {"ede.central_process_ns",
       {"ede", "central delay p50 when paced; ingest_eps on flood"}},
      {"ede.mirror_process_ns",
       {"ede", "mirror delay p50 when paced; ingest_eps on flood"}},
      {"echo.submit_ns_per_event",
       {"echo", "ingest_eps on flood"}},
      {"metrics.samples_retained",
       {"metrics", "heap_growth_mb on paced_selective, serve_mix"}},
      {"serve.handle_us.flight",
       {"serve", "flight_request_p50_ms on serve_mix"}},
      {"serve.handle_us.airport",
       {"serve", "group request metrics on serve_mix"}},
      {"serve.handle_us.airline",
       {"serve", "group request metrics on serve_mix"}},
      {"serve.handle_us.region",
       {"serve", "group request metrics on serve_mix"}},
      {"serve.handle_us.full_state",
       {"serve", "group request metrics on serve_mix"}},
      {"serve.cache_hit_ratio",
       {"serve", "group_request_p50_ms, group_request_p90_ms"}},
      {"serve.response_kb_mean",
       {"serve", "group_request_p50_ms, group_request_p90_ms"}},
      {"serve.shed",
       {"serve", "group_request_p50_ms, group_request_p90_ms"}},
      {"index.indexed_build_ratio",
       {"index", "group_request_p50_ms on serve_mix"}},
      {"index.fallbacks",
       {"index", "group_request_p50_ms on serve_mix"}},
      {"index.records_examined_per_returned",
       {"index", "group_request_p50_ms on serve_mix"}},
      {"gen.event_lag_us_p99",
       {"generator", "validity of every paced number"}},
      {"gen.request_lag_us_p99",
       {"generator", "validity of every request number"}},
      {"budget.central_service_us",
       {"budget", "where a central delay gain must show"}},
      {"budget.mirror_service_us",
       {"budget", "where a mirror delay gain must show"}},
      {"budget.central_wait_us",
       {"budget", "central delay p50 minus service"}},
      {"budget.mirror_wait_us",
       {"budget", "mirror delay p50 minus service"}},
      {"budget.central_delay_p90_us",
       {"budget", "central delay tail; not gated, follows host wake-ups"}},
      {"budget.mirror_delay_p90_us",
       {"budget", "mirror delay tail; not gated, follows host wake-ups"}},
      {"budget.unattributed_cpu_us_per_event",
       {"budget", "cpu_us_per_event minus all replayed service"}},
  };
  return kNotes;
}

}  // namespace

void print_trace_report(const Inputs& in, const EndToEnd& untraced,
                        const EndToEnd& traced,
                        const std::vector<Metric>& layers) {
  std::printf("\n== %s seed %llu: traced run ==\n", in.spec.name.c_str(),
              static_cast<unsigned long long>(in.seed));
  std::printf(
      "\ntracing overhead (traced pass vs median of untraced passes)\n");
  std::printf("  %-30s %14s %14s %9s\n", "metric", "untraced", "traced",
              "change");
  for (std::size_t i = 0; i < untraced.medians.size(); ++i) {
    const auto& u = untraced.medians[i];
    const double t = traced.metrics[i].value;
    std::printf("  %-30s %14.6g %14.6g %+8.1f%%  %s\n", u.name.c_str(),
                u.value, t, u.value == 0 ? 0.0 : (t / u.value - 1) * 100,
                u.unit.c_str());
  }
  for (const auto& d : traced.diagnostics) std::printf("  %s\n", d.c_str());

  std::printf("\nper-layer metrics\n");
  std::printf("  %-11s %-38s %14s %-7s %s\n", "module", "metric", "value",
              "unit", "should move");
  for (const auto& m : layers) {
    const auto& note = layer_notes().at(m.name);
    std::printf("  %-11s %-38s %14.6g %-7s %s\n", note.module, m.name.c_str(),
                m.value, m.unit.c_str(), note.moves);
  }

  const auto us = [&layers](const char* name) {
    return metric_value(layers, name) / 1e3;
  };
  std::printf("\nbudget, us per event along each path (replayed service)\n");
  std::printf(
      "  central: on_incoming %.3f + ede %.3f = service %.3f; delay p50 %.3f "
      "=> wait %.3f\n",
      us("mirror.on_incoming_ns"), us("ede.central_process_ns"),
      metric_value(layers, "budget.central_service_us"),
      metric_value(traced.metrics, "central_update_delay_p50_ms") * 1e3,
      metric_value(layers, "budget.central_wait_us"));
  std::printf(
      "  mirror:  on_incoming %.3f + send %.3f + tx %.3f + echo %.3f + aux "
      "%.3f + ede %.3f = service %.3f; delay p50 %.3f => wait %.3f\n",
      us("mirror.on_incoming_ns"), us("mirror.send_ns_per_event"),
      us("cluster.tx.publish_ns_per_event"), us("echo.submit_ns_per_event"),
      us("mirror.aux_ns"), us("ede.mirror_process_ns"),
      metric_value(layers, "budget.mirror_service_us"),
      metric_value(traced.metrics, "mirror_update_delay_p50_ms") * 1e3,
      metric_value(layers, "budget.mirror_wait_us"));
  std::printf("  tail:    delay p90 central %.3f, mirror %.3f\n",
              metric_value(layers, "budget.central_delay_p90_us"),
              metric_value(layers, "budget.mirror_delay_p90_us"));
  std::printf("  cpu:     %.3f us/event, of which %.3f not attributed to any "
              "replayed layer\n",
              metric_value(traced.metrics, "cpu_us_per_event"),
              metric_value(layers, "budget.unattributed_cpu_us_per_event"));
  std::printf(
      "\nunmeasured layers: recovery (no fail/rejoin in any workload, see "
      "ROADMAP item 1), adapt (no adaptation policy), oplog (off), transport "
      "and serialize (no TCP bridge between sites), sim (the DES)\n");
}

std::size_t write_spans(const std::string& path, const Inputs& in,
                        const PassResult& p, const ReplayResult& rp,
                        const ServeReplay& sv) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return 0;
  std::size_t n = 0;
  const auto put = [&](const char* name, std::uint64_t id, std::int64_t parent,
                       Nanos start, Nanos end) {
    std::fprintf(f, "%s,%llu,%lld,%lld,%lld\n", name,
                 static_cast<unsigned long long>(id),
                 static_cast<long long>(parent), static_cast<long long>(start),
                 static_cast<long long>(end));
    ++n;
  };
  std::fprintf(f, "span,id,parent,start_ns,end_ns\n");
  for (std::size_t k = 0; k < p.ingest_begin.size(); ++k) {
    put("ingest", in.head + k, -1, p.ingest_begin[k], p.ingest_end[k]);
  }
  // Brackets are disjoint (one generator thread), so the ingest call that
  // stamped an event is the last one that began at or before the stamp.
  const auto parent_of = [&](Nanos stamp) -> std::int64_t {
    auto it = std::upper_bound(p.ingest_begin.begin(), p.ingest_begin.end(),
                               stamp);
    if (it == p.ingest_begin.begin()) return -1;
    const auto k = static_cast<std::size_t>(it - p.ingest_begin.begin()) - 1;
    if (stamp > p.ingest_end[k]) return -1;
    return static_cast<std::int64_t>(in.head + k);
  };
  const auto visible = [&](const char* name, const std::vector<Visible>& v) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      put(name, i, parent_of(v[i].stamp), v[i].stamp, v[i].at);
    }
  };
  visible("central.visible", p.central);
  static const char* kMirrorSpans[] = {"mirror1.visible", "mirror2.visible"};
  for (std::size_t m = 0; m < p.mirrors.size() && m < 2; ++m) {
    visible(kMirrorSpans[m], p.mirrors[m]);
  }
  for (std::size_t i = 0; i < p.requests.size(); ++i) {
    if (p.requests[i].done != 0) {
      put("request", i, -1, p.requests[i].due, p.requests[i].done);
    }
  }
  for (const auto& s : rp.spans) put(s.name, s.id, -1, s.start, s.end);
  for (const auto& s : sv.spans) put(s.name, s.id, -1, s.start, s.end);
  const bool ok = std::fclose(f) == 0;
  return ok ? n : 0;
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char num[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    const auto res = std::to_chars(num, num + sizeof num, v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           std::string(num, res.ptr) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
