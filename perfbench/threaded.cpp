#include "threaded.h"

#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <memory>

#include "cluster/cluster.h"
#include "serve/protocol.h"

namespace perfbench {

namespace cluster = admire::cluster;
namespace serve = admire::serve;
using std::chrono::seconds;

// --- Watchdog -------------------------------------------------------------

Watchdog::Watchdog() : thread_([this] { loop(); }) {}

Watchdog::~Watchdog() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void Watchdog::enter(std::string phase, seconds limit) {
  {
    std::lock_guard lock(mu_);
    phase_ = std::move(phase);
    deadline_ = std::chrono::steady_clock::now() + limit;
  }
  cv_.notify_all();
}

void Watchdog::loop() {
  std::unique_lock lock(mu_);
  while (!stop_) {
    if (phase_.empty()) {
      cv_.wait(lock, [&] { return stop_ || !phase_.empty(); });
      continue;
    }
    const auto deadline = deadline_;
    if (cv_.wait_until(lock, deadline, [&] {
          return stop_ || deadline_ != deadline;
        })) {
      continue;
    }
    std::fprintf(stderr,
                 "perfbench: watchdog: phase '%s' hung; failing the run\n",
                 phase_.c_str());
    std::fflush(stderr);
    ::_exit(3);  // cluster threads may be blocked for good; do not join them
  }
}

// --- Process measurements -------------------------------------------------

namespace {

struct Usage {
  double cpu_s = 0;
  long voluntary_switches = 0;
};

Usage usage_now() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return Usage{secs(ru.ru_utime) + secs(ru.ru_stime), ru.ru_nvcsw};
}

/// Bytes the allocator holds for live objects, in every arena plus mmapped
/// blocks. Unlike RSS it does not depend on which arena a thread drew or
/// how fragmented the arenas are.
double heap_bytes() {
  const struct mallinfo2 mi = ::mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd);
}

/// Fixed-capacity, lock-free sample log for one updates channel, allocated
/// before the heap baseline.
class VisibleLog {
 public:
  explicit VisibleLog(std::size_t capacity) : samples_(capacity) {}

  void add(Nanos stamp, Nanos at) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i < samples_.size()) samples_[i] = Visible{stamp, at};
  }
  std::size_t count() const { return next_.load(std::memory_order_relaxed); }
  bool overflowed() const { return count() > samples_.size(); }
  std::vector<Visible> take() {
    samples_.resize(std::min(samples_.size(), count()));
    return std::move(samples_);
  }

 private:
  std::vector<Visible> samples_;
  std::atomic<std::size_t> next_{0};
};

// --- Request client -------------------------------------------------------

int connect_local(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

bool send_all(int fd, const admire::Bytes& frame) {
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n =
        ::send(fd, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// A response is correct when it is OK, decodes with decode_record_set, and
/// holds exactly the records the query selects (every flight exists after
/// the set-up load).
bool response_correct(const serve::Response& resp, const serve::QueryKey& q,
                      std::size_t& bytes) {
  if (!resp.ok()) return false;
  const admire::ByteSpan payload =
      resp.state ? admire::ByteSpan(resp.state->data(), resp.state->size())
                 : admire::ByteSpan{};
  bytes = payload.size();
  auto records = serve::decode_record_set(payload);
  if (!records) return false;
  if (records.value().size() != expected_records(q)) return false;
  for (const auto& rec : records.value()) {
    if (!serve::query_matches(q.shape, q.key, rec.flight)) return false;
  }
  return true;
}

/// Open loop: each request goes out when it is due, whatever is still
/// outstanding, alternating between two connections. Latency runs from the
/// due time to the last byte of the response.
void run_client(std::uint16_t port, const std::vector<RequestItem>& schedule,
                Nanos start, const admire::Clock& clock,
                std::vector<RequestRecord>& records, std::string& error) {
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  records.assign(schedule.size(), RequestRecord{});
  std::array<int, 2> fds{connect_local(port), connect_local(port)};
  std::array<serve::FrameReader, 2> readers;
  if (fds[0] < 0 || fds[1] < 0) {
    error = "request client could not connect to the serve front end";
    for (int fd : fds) {
      if (fd >= 0) ::close(fd);
    }
    return;
  }
  const Nanos last_due = start + (schedule.empty() ? 0 : schedule.back().due);
  const Nanos deadline = last_due + 5 * admire::kSecond;
  std::vector<std::byte> buf(1 << 18);
  std::size_t next = 0;
  std::size_t outstanding = 0;
  while (next < schedule.size() || outstanding > 0) {
    Nanos now = clock.now();
    while (next < schedule.size() && start + schedule[next].due <= now) {
      const auto& item = schedule[next];
      auto& rec = records[next];
      rec.shape = item.query.shape;
      rec.due = start + item.due;
      rec.sent = now;
      const serve::Request req{next + 1, item.query.shape, item.query.key};
      if (send_all(fds[next % 2], serve::frame_request(req))) ++outstanding;
      ++next;
      now = clock.now();
    }
    if (now >= deadline) break;
    const Nanos wait =
        (next < schedule.size() ? start + schedule[next].due : deadline) - now;
    timespec ts{static_cast<time_t>(wait / admire::kSecond),
                static_cast<long>(wait % admire::kSecond)};
    std::array<pollfd, 2> pfds{pollfd{fds[0], POLLIN, 0},
                               pollfd{fds[1], POLLIN, 0}};
    if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) continue;
    for (std::size_t c = 0; c < 2; ++c) {
      if (pfds[c].revents == 0) continue;
      while (true) {
        const ssize_t n = ::recv(fds[c], buf.data(), buf.size(), MSG_DONTWAIT);
        if (n > 0) {
          readers[c].feed(
              admire::ByteSpan(buf.data(), static_cast<std::size_t>(n)));
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
          error = "serve connection closed";
          outstanding = 0;
          next = schedule.size();
        }
        break;
      }
      while (auto body = readers[c].next()) {
        const Nanos done = clock.now();
        auto resp = serve::decode_response(*body);
        if (!resp || resp.value().id == 0 ||
            resp.value().id > schedule.size()) {
          error = "undecodable or unknown response frame";
          continue;
        }
        const std::size_t i = resp.value().id - 1;
        auto& rec = records[i];
        if (rec.done != 0) continue;
        rec.done = done;
        rec.ok = response_correct(resp.value(), schedule[i].query, rec.bytes);
        --outstanding;
      }
      if (readers[c].poisoned()) error = "poisoned response stream";
    }
  }
  for (int fd : fds) ::close(fd);
}

/// The post-drain probe. Every request is routed in-process through
/// Cluster::serve (the front end's router) and framed as on the wire, one
/// after another from one polling thread, so nothing queues and a request
/// is due when it is sent. Over TCP with a sleeping client the latency was
/// mostly the time an idle virtual CPU takes to wake up. Before each
/// request every site's cache is emptied, so each answer is a build, as on
/// serve_mix, where updates invalidate the cache faster than requests
/// repeat. An untimed warm-up first asks every group query at every site,
/// so the adaptive indexes are cracked before timing starts.
void run_probe(cluster::Cluster& server,
               const std::vector<RequestItem>& schedule,
               const admire::Clock& clock,
               std::vector<RequestRecord>& records, std::string& error) {
  std::vector<serve::RequestHandler*> handlers{&server.central().serving()};
  for (std::size_t m = 0; m < server.num_mirrors(); ++m) {
    handlers.push_back(&server.mirror(m).serving());
  }
  const auto warm_up = all_group_queries();
  for (auto* handler : handlers) {
    for (const auto& q : warm_up) {
      std::size_t bytes = 0;
      const auto out = handler->handle(serve::Request{1, q.shape, q.key});
      if (!response_correct(out.response, q, bytes)) {
        error = "wrong answer to a warm-up query";
      }
    }
  }

  records.assign(schedule.size(), RequestRecord{});
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const auto& q = schedule[i].query;
    auto& rec = records[i];
    for (auto* handler : handlers) handler->cache().invalidate_all();
    rec.shape = q.shape;
    rec.due = rec.sent = clock.now();
    const auto resp = server.serve(serve::Request{i + 1, q.shape, q.key});
    const auto frame = serve::frame_response(resp);
    rec.done = clock.now();
    rec.ok = !frame.empty() && response_correct(resp, q, rec.bytes);
  }
}

/// Checkpoint until every site's backup queues are empty, so that they hold
/// what a commit leaves, not however far the last of the automatic rounds
/// (one per 50 events) had got at each site.
void commit_all(cluster::Cluster& server) {
  const auto backlog = [&server] {
    std::size_t n = server.central().core().backup().size() +
                    server.central().main_unit().backup().size();
    for (std::size_t m = 0; m < server.num_mirrors(); ++m) {
      n += server.mirror(m).aux().backup().size() +
           server.mirror(m).main_unit().backup().size();
    }
    return n;
  };
  for (int i = 0; i < 50 && backlog() > 0; ++i) server.checkpoint_and_wait();
}

std::string site_label(std::size_t site) {
  return site == 0 ? "central" : "mirror" + std::to_string(site);
}

}  // namespace

std::uint64_t PassResult::requests_failed() const {
  std::uint64_t failed = 0;
  for (const auto& r : requests) {
    if (!r.ok || r.done == 0) ++failed;
  }
  return failed;
}

PassResult run_pass(const Inputs& in, const Expected& expected, bool traced,
                    Watchdog& watchdog, int pass) {
  PassResult r;
  const auto fail = [&r](std::string msg) {
    r.correct = false;
    r.errors.push_back(std::move(msg));
  };
  const std::string tag = " (pass " + std::to_string(pass) + ")";
  const auto& items = in.trace.items;
  const std::size_t measured = in.measured_events();
  const bool paced = in.spec.faa_rate > 0;

  // Sample storage is allocated before the heap baseline.
  VisibleLog central_log(2 * measured + 1024);
  std::vector<std::unique_ptr<VisibleLog>> mirror_logs;
  for (std::size_t m = 0; m < kMirrors; ++m) {
    mirror_logs.push_back(std::make_unique<VisibleLog>(2 * measured + 1024));
  }
  if (paced) r.event_lag.assign(measured, 0);
  if (traced) {
    r.ingest_begin.assign(measured, 0);
    r.ingest_end.assign(measured, 0);
  }
  r.requests.assign(in.requests.size(), RequestRecord{});

  watchdog.enter("setup" + tag, seconds(60));
  const auto setup_start = std::chrono::steady_clock::now();
  cluster::ClusterConfig config;
  config.num_mirrors = kMirrors;
  config.params = mirroring_params(in.spec);
  config.serve_front_end = true;
  auto server = std::make_unique<cluster::Cluster>(config);
  server->start();
  const admire::Clock& clock = *server->clock();
  const Nanos load_begin = clock.now();
  for (std::size_t i = 0; i < in.head; ++i) {
    if (!server->ingest(items[i].ev).is_ok()) ++r.ingest_failures;
  }
  server->drain();
  commit_all(*server);
  const Nanos load_end = clock.now();
  r.setup_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            setup_start)
                  .count();
  r.load_eps = static_cast<double>(in.head) * 1e9 /
               static_cast<double>(std::max<Nanos>(1, load_end - load_begin));
  const std::uint16_t port = server->serve_port();
  if (port == 0) fail("serve front end did not start" + tag);
  for (std::size_t s = 0; s <= kMirrors; ++s) {
    const auto& site = s == 0 ? server->central().main_unit()
                              : server->mirror(s - 1).main_unit();
    if (site.state().flight_count() != kFlights) {
      fail(site_label(s) + " holds " +
           std::to_string(site.state().flight_count()) +
           " flights after the set-up load" + tag);
    }
  }

  auto channels = server->registry();
  std::vector<admire::echo::Subscription> subs;
  subs.push_back(channels->by_name("central.updates")
                     ->subscribe([&](const admire::event::Event& ev) {
                       central_log.add(ev.header().ingress_time, clock.now());
                     }));
  for (std::size_t m = 0; m < kMirrors; ++m) {
    VisibleLog* log = mirror_logs[m].get();
    subs.push_back(
        channels->by_name(site_label(m + 1) + ".updates")
            ->subscribe([log, &clock](const admire::event::Event& ev) {
              log->add(ev.header().ingress_time, clock.now());
            }));
  }

  r.before = server->obs().snapshot();
  const double heap0 = heap_bytes();
  const Usage u0 = usage_now();

  const Nanos nominal = paced && !in.offsets.empty() ? in.offsets.back() : 0;
  watchdog.enter("measured" + tag,
                 seconds(30 + 4 * nominal / admire::kSecond));
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  // A short lead lets the client connect before the first request is due.
  const Nanos phase_start = clock.now() + admire::kMilli;
  std::string request_error;
  std::thread client;
  if (in.requests_concurrent) {
    client = std::thread([&] {
      run_client(port, in.requests, phase_start, clock, r.requests,
                 request_error);
    });
  }
  const Nanos feed_begin = clock.now();
  for (std::size_t k = 0; k < measured; ++k) {
    if (paced) {
      const Nanos due = phase_start + in.offsets[k];
      Nanos now = clock.now();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        now = clock.now();
      }
      r.event_lag[k] = now - due;
    }
    if (traced) r.ingest_begin[k] = clock.now();
    if (!server->ingest(items[in.head + k].ev).is_ok()) ++r.ingest_failures;
    if (traced) r.ingest_end[k] = clock.now();
  }
  if (client.joinable()) {
    watchdog.enter("requests" + tag, seconds(30));
    client.join();
  }
  watchdog.enter("drain" + tag, seconds(60));
  server->drain();
  const Nanos drained = clock.now();
  const Usage u1 = usage_now();
  r.after = server->obs().snapshot();
  // Leave out memory whose lifetime is timing, not retention: serve cache
  // entries (which answers the last updates invalidated) and the buffers of
  // client connections the front end has not yet seen close.
  for (int i = 0; i < 1000 && server->front_end() != nullptr &&
                  server->front_end()->connections() > 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server->central().serving().cache().invalidate_all();
  for (std::size_t m = 0; m < kMirrors; ++m) {
    server->mirror(m).serving().cache().invalidate_all();
  }
  commit_all(*server);
  const double heap1 = heap_bytes();
  subs.clear();

  r.events = in.head + measured;
  const double n = static_cast<double>(std::max<std::size_t>(1, measured));
  r.measured_eps =
      n * 1e9 / static_cast<double>(std::max<Nanos>(1, drained - feed_begin));
  r.cpu_us_per_event = (u1.cpu_s - u0.cpu_s) * 1e6 / n;
  r.ctx_switches_per_event =
      static_cast<double>(u1.voluntary_switches - u0.voluntary_switches) / n;
  r.heap_growth_mb = (heap1 - heap0) / (1024.0 * 1024.0);
  if (central_log.overflowed()) fail("central update log overflowed" + tag);
  r.central = central_log.take();
  for (auto& log : mirror_logs) {
    if (log->overflowed()) fail("mirror update log overflowed" + tag);
    r.mirrors.push_back(log->take());
  }

  if (!in.requests_concurrent && !in.requests.empty()) {
    watchdog.enter("probe" + tag, seconds(30));
    run_probe(*server, in.requests, clock, r.requests, request_error);
  }
  if (!request_error.empty()) fail(request_error + tag);
  r.served = server->obs().snapshot();
  r.samples_retained = server->central().update_delays().count();
  for (std::size_t m = 0; m < kMirrors; ++m) {
    r.samples_retained += server->mirror(m).request_latency().count();
  }

  watchdog.enter("check" + tag, seconds(30));
  if (r.ingest_failures > 0) {
    fail(std::to_string(r.ingest_failures) + " ingest() calls failed" + tag);
  }
  const auto fps = server->state_fingerprints();
  if (fps[0] != expected.central) {
    fail("central fingerprint differs from the replay" + tag);
  }
  for (std::size_t m = 1; m < fps.size(); ++m) {
    if (fps[m] != expected.mirror) {
      fail(site_label(m) + " fingerprint differs from the replay" + tag);
    }
    if (fps[m] != fps[1]) fail("mirror fingerprints differ" + tag);
    if (!in.spec.selective && fps[m] != fps[0]) {
      fail(site_label(m) + " diverged from central under simple mirroring" +
           tag);
    }
  }
  if (server->central().processed_by_ede() != r.events) {
    fail("central EDE processed " +
         std::to_string(server->central().processed_by_ede()) + " of " +
         std::to_string(r.events) + " events" + tag);
  }
  for (std::size_t s = 0; s <= kMirrors; ++s) {
    auto& handler = s == 0 ? server->central().serving()
                           : server->mirror(s - 1).serving();
    const auto& state = s == 0 ? server->central().main_unit().state()
                               : server->mirror(s - 1).main_unit().state();
    const auto out = handler.handle(
        serve::Request{1, serve::QueryShape::kFullState, 0});
    const bool match =
        out.response.ok() && out.response.state &&
        *out.response.state == serve::encode_record_set(state.all_flights());
    if (!match) fail(site_label(s) + " FULL_STATE answer != its table" + tag);
  }
  if (const auto failed = r.requests_failed(); failed > 0) {
    fail(std::to_string(failed) + " of " + std::to_string(r.requests.size()) +
         " requests shed, wrong or unanswered" + tag);
  }

  watchdog.enter("stop" + tag, seconds(60));
  server->stop();
  server.reset();
  return r;
}

}  // namespace perfbench
