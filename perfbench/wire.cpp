// wire_poisson and wire_saturate: the serving stack over real sockets.
//
// The server is set up as ttfs_wire_server sets it up with --models 2: two
// 3x16x16 event-backend nets "m0" and "m1" behind a ModelRegistry, an
// SnnServer with 2 replicas, max_batch 8 and max_delay 500 us, and a
// net::WireServer on an ephemeral loopback port. It runs in this process;
// the load comes from one client thread over 4 connections.
//
//  * wire_poisson — open loop: Poisson arrivals at 1000 req/s, round-robin
//    over the connections, each sent at its scheduled time whether or not
//    earlier ones were answered. Latency runs from the scheduled send, so a
//    stall is charged to every request it delays. The server is mostly idle.
//  * wire_saturate — closed loop: each connection keeps 16 requests in
//    flight, sending the next as soon as one is answered. Batches fill from
//    the backlog; the IO thread and compute pool are busy.
//
// --seed drives the images, the arrival times and the model of each request.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness.h"
#include "hw/tech.h"
#include "hw/trace_run.h"
#include "net/epoll_loop.h"
#include "net/protocol.h"
#include "net/wire_server.h"
#include "serve/server.h"
#include "snn/engine.h"
#include "snn/network.h"
#include "snn/registry.h"
#include "util/fd.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using ttfs::Rng;
using ttfs::Tensor;
namespace net = ttfs::net;
namespace serve = ttfs::serve;
namespace snn = ttfs::snn;

constexpr int kModels = 2;
constexpr std::size_t kConnections = 4;
constexpr double kPoissonRate = 1000.0;  // req/s over all connections
constexpr std::size_t kDepth = 16;       // wire_saturate: in flight per connection
constexpr std::size_t kImages = 64;      // distinct images per seed
constexpr std::size_t kWarmup = 512;     // untimed requests before the window
constexpr int kSetups = 15;              // set-up repeats; setup_s is their median
constexpr double kDrainSeconds = 30.0;   // bound on waiting for the last answers
constexpr double kBehindMs = 1.0;        // send lag p99 above this flags the run
constexpr double kSliceSeconds = 1.0;     // window slice for medians; see run_wire
constexpr std::uint64_t kTimerKey = 1000;

Tensor random_tensor(std::vector<std::int64_t> shape, Rng& rng, float lo, float hi) {
  Tensor t{std::move(shape)};
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform_f(lo, hi);
  return t;
}

// The network ttfs_wire_server hosts (tools/wire_server_main.cpp make_net),
// drawn from the same Rng{42} stream so m0 and m1 are the same weights.
snn::SnnNetwork make_net(Rng& rng) {
  snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
  net.add_conv(random_tensor({16, 3, 3, 3}, rng, -0.15F, 0.25F),
               random_tensor({16}, rng, -0.05F, 0.1F), 1, 1);
  net.add_pool(2, 2);
  net.add_conv(random_tensor({24, 16, 3, 3}, rng, -0.1F, 0.15F),
               random_tensor({24}, rng, -0.05F, 0.1F), 1, 1);
  net.add_pool(2, 2);
  net.add_fc(random_tensor({10, 24 * 4 * 4}, rng, -0.1F, 0.12F),
             random_tensor({10}, rng, -0.05F, 0.05F));
  return net;
}

const std::string& model_id(std::size_t m) {
  static const std::string ids[kModels] = {"m0", "m1"};
  return ids[m];
}

// The whole serving process plus the client's connections. Members are
// declared in dependency order so destruction closes the client sockets,
// then drains the wire server, then the serve layer.
struct Stack {
  std::vector<std::shared_ptr<const snn::SnnNetwork>> nets;
  std::shared_ptr<snn::ModelRegistry> registry;
  std::unique_ptr<serve::SnnServer> server;
  std::unique_ptr<net::WireServer> wire;
  std::vector<ttfs::util::Fd> conns;
};

ttfs::util::Fd connect_loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ttfs::util::Fd fd{::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0)};
  if (!fd.valid() || ::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw std::runtime_error(std::string{"connect failed: "} + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ttfs::util::set_nonblocking(fd.get());
  return fd;
}

// One full set-up, timed by the caller. `backend` is what the registry
// serves: the plain event backend, or the timing decorator in a traced run.
std::unique_ptr<Stack> set_up(SpanLog& spans, const std::shared_ptr<const snn::InferenceBackend>& backend,
                              double* pack_s) {
  auto stack = std::make_unique<Stack>();
  const Scoped setup{spans, "bench.setup"};
  {
    const Scoped s{spans, "snn.net_build", setup.index()};
    Rng rng{42};
    for (int m = 0; m < kModels; ++m) {
      stack->nets.push_back(std::make_shared<const snn::SnnNetwork>(make_net(rng)));
    }
  }
  {
    const Scoped s{spans, "snn.registry_load", setup.index()};
    const Clock::time_point t0 = Clock::now();
    stack->registry = std::make_shared<snn::ModelRegistry>();
    for (std::size_t m = 0; m < kModels; ++m) {
      stack->registry->load(model_id(m), stack->nets[m], backend, {3, 16, 16});
    }
    *pack_s = seconds_between(t0, Clock::now());
  }
  {
    const Scoped s{spans, "serve.start", setup.index()};
    serve::ServeOptions opts;
    opts.max_batch = 8;
    opts.max_delay = std::chrono::microseconds{500};
    opts.replicas = 2;
    opts.registry = stack->registry;
    opts.default_model = "m0";
    stack->server = std::make_unique<serve::SnnServer>(opts);
  }
  {
    const Scoped s{spans, "net.start", setup.index()};
    stack->wire = std::make_unique<net::WireServer>(*stack->server, net::WireOptions{});
  }
  {
    const Scoped s{spans, "net.connect", setup.index()};
    for (std::size_t c = 0; c < kConnections; ++c) {
      stack->conns.push_back(connect_loopback(stack->wire->port()));
    }
  }
  return stack;
}

struct Planned {
  double at = 0.0;  // seconds after the window opens (open loop only)
  std::uint32_t image = 0;
  std::uint32_t model = 0;
};

struct InFlight {
  Clock::time_point due;
  std::uint32_t image = 0;
  std::uint32_t model = 0;
  bool timed = false;
};

struct ClientConn {
  int fd = -1;
  net::ResponseParser parser;
  std::deque<std::vector<std::uint8_t>> outbox;
  std::size_t out_off = 0;
  bool want_out = false;
};

// One client thread over the stack's connections: an epoll loop that sends
// on schedule (open loop) or on completion (closed loop), matches every
// response to its request and checks it.
class Client {
 public:
  Client(Stack& stack, const std::vector<Tensor>& images,
         const std::vector<std::vector<std::vector<float>>>& golden, SpanLog& spans,
         Result& result)
      : stack_{stack}, images_{images}, golden_{golden}, spans_{spans}, result_{result} {
    conns_.resize(stack.conns.size());
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      conns_[c].fd = stack.conns[c].get();
      if (!loop_.add(conns_[c].fd, EPOLLIN | EPOLLRDHUP | EPOLLET, c)) {
        throw std::runtime_error("epoll add failed");
      }
    }
    timer_ = ttfs::util::Fd{::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC)};
    if (!timer_.valid() || !loop_.add(timer_.get(), EPOLLIN, kTimerKey)) {
      throw std::runtime_error("timerfd setup failed");
    }
  }

  // Timed requests are recorded per slice of the window that starts at `t0`;
  // see run_wire.
  void open_window(Clock::time_point t0, double seconds) {
    slices_ = std::max(1, static_cast<int>(seconds / kSliceSeconds));
    slice_s_ = seconds / slices_;
    window_start_ = t0;
    slices.assign(static_cast<std::size_t>(slices_), Slice{});
  }

  // Closed loop: `depth` in flight per connection until `count` requests were
  // sent or `until` passes, then waits for every answer. Each request draws
  // its image and model from `rng` in send order. Requests are timed (their
  // latencies and outcomes recorded) only when `timed`.
  void closed_loop(Rng& rng, std::size_t count, std::size_t depth, Clock::time_point until,
                   bool timed) {
    cursor_ = 0;
    rng_ = &rng;
    count_ = count;
    timed_ = timed;
    closed_ = true;
    until_ = until;
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      for (std::size_t d = 0; d < depth; ++d) send_next_closed(c);
    }
    pump([&] { return outstanding_ == 0; });
  }

  // Open loop: sends plan[i] at start + plan[i].at on connection i % n.
  void open_loop(const std::vector<Planned>& plan, Clock::time_point start) {
    cursor_ = 0;
    plan_ = &plan;
    timed_ = true;
    closed_ = false;
    start_ = start;
    pump([&] { return cursor_ >= plan.size() && outstanding_ == 0; });
  }

  // Timed requests answered OK, by the slice their send was due in: client
  // latency (receive - scheduled send) and the server's enqueue -> complete
  // stamp, in seconds. Kept per slice so the record stays small.
  struct Slice {
    std::vector<float> latency_s, server_s;
  };
  std::vector<Slice> slices;
  std::vector<double> send_lag_s;
  std::uint64_t sent_timed = 0, ok_timed = 0;
  std::size_t queue_depth_max = 0;

 private:
  Clock::time_point due_of(std::size_t i) const {
    return start_ + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>((*plan_)[i].at));
  }

  void send(std::size_t c, const Planned& p, Clock::time_point due) {
    const std::uint64_t rid = next_id_++;
    inflight_.emplace(rid, InFlight{due, p.image, p.model, timed_});
    ++outstanding_;
    if (timed_) ++sent_timed;
    conns_[c].outbox.push_back(net::encode_request(rid, model_id(p.model), images_[p.image]));
    flush(c);
    if (timed_ && !closed_) send_lag_s.push_back(seconds_between(due, Clock::now()));
  }

  void send_next_closed(std::size_t c) {
    if (cursor_ >= count_ || Clock::now() >= until_) return;
    ++cursor_;
    Planned p;
    p.image = static_cast<std::uint32_t>(rng_->uniform_int(0, kImages - 1));
    p.model = static_cast<std::uint32_t>(rng_->uniform_int(0, kModels - 1));
    send(c, p, Clock::now());
  }

  void send_due() {
    const Clock::time_point now = Clock::now();
    while (cursor_ < plan_->size() && due_of(cursor_) <= now) {
      send(cursor_ % conns_.size(), (*plan_)[cursor_], due_of(cursor_));
      ++cursor_;
    }
    if (cursor_ < plan_->size()) arm_timer(due_of(cursor_));
  }

  void arm_timer(Clock::time_point at) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(at.time_since_epoch()).count();
    itimerspec spec{};
    spec.it_value.tv_sec = static_cast<time_t>(ns / 1000000000);
    spec.it_value.tv_nsec = static_cast<long>(ns % 1000000000);
    if (spec.it_value.tv_sec == 0 && spec.it_value.tv_nsec == 0) spec.it_value.tv_nsec = 1;
    ::timerfd_settime(timer_.get(), TFD_TIMER_ABSTIME, &spec, nullptr);
  }

  void flush(std::size_t c) {
    ClientConn& conn = conns_[c];
    while (!conn.outbox.empty()) {
      const std::vector<std::uint8_t>& front = conn.outbox.front();
      const ssize_t n = ::send(conn.fd, front.data() + conn.out_off, front.size() - conn.out_off,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) {
          throw std::runtime_error(std::string{"send failed: "} + std::strerror(errno));
        }
        if (!conn.want_out) {
          conn.want_out = true;
          loop_.mod(conn.fd, EPOLLIN | EPOLLRDHUP | EPOLLET | EPOLLOUT, c);
        }
        return;
      }
      conn.out_off += static_cast<std::size_t>(n);
      if (conn.out_off == front.size()) {
        conn.outbox.pop_front();
        conn.out_off = 0;
      }
    }
    if (conn.want_out) {
      conn.want_out = false;
      loop_.mod(conn.fd, EPOLLIN | EPOLLRDHUP | EPOLLET, c);
    }
  }

  void read(std::size_t c) {
    ClientConn& conn = conns_[c];
    for (;;) {
      const auto [buf, cap] = conn.parser.read_slot();
      if (cap == 0) throw std::runtime_error("response parser stalled: " + conn.parser.error());
      const ssize_t n = ::read(conn.fd, buf, cap);
      if (n == 0) throw std::runtime_error("server closed a connection");
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        throw std::runtime_error(std::string{"read failed: "} + std::strerror(errno));
      }
      const auto ev = conn.parser.consume(static_cast<std::size_t>(n));
      if (ev == net::ResponseParser::Event::kBad) {
        throw std::runtime_error("unframeable response: " + conn.parser.error());
      }
      if (ev == net::ResponseParser::Event::kResponse) on_response(c, conn.parser.response());
    }
  }

  void on_response(std::size_t c, const net::WireResponse& resp) {
    const Clock::time_point now = Clock::now();
    const auto it = inflight_.find(resp.request_id);
    if (it == inflight_.end()) {
      ++result_.failed;
      result_.fail("response for unknown or already answered id " + std::to_string(resp.request_id));
      return;
    }
    const InFlight req = it->second;
    inflight_.erase(it);
    --outstanding_;
    bool ok = resp.type == net::MessageType::kResult && resp.status == net::WireStatus::kOk;
    const std::vector<float>& want = golden_[req.model][req.image];
    if (ok && (resp.logits.size() != want.size() ||
               std::memcmp(resp.logits.data(), want.data(), want.size() * sizeof(float)) != 0)) {
      ok = false;
      result_.fail("logits of request " + std::to_string(resp.request_id) +
                   " differ from a direct InferenceSession::run");
    }
    if (req.timed) {
      ++result_.attempted;
      if (ok) {
        ++ok_timed;
        const auto k = static_cast<int>(seconds_between(window_start_, req.due) / slice_s_);
        Slice& slice = slices[static_cast<std::size_t>(std::clamp(k, 0, slices_ - 1))];
        slice.latency_s.push_back(static_cast<float>(seconds_between(req.due, now)));
        slice.server_s.push_back(static_cast<float>(resp.latency_seconds));
        const std::int64_t outer = spans_.add("net.request", req.due, now, -1, resp.request_id);
        const auto stamp = std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(resp.latency_seconds));
        spans_.add("serve.request", now - stamp, now, outer, resp.request_id);
      } else {
        ++result_.failed;
      }
    } else if (!ok) {
      result_.fail("warm-up request " + std::to_string(resp.request_id) + " was not served");
    }
    if (closed_) send_next_closed(c);
  }

  template <typename Done>
  void pump(Done done) {
    if (!closed_) send_due();
    std::vector<epoll_event> events;
    Clock::time_point deadline = Clock::time_point::max();
    Clock::time_point next_poll = Clock::now();
    while (!done()) {
      const bool sending = closed_ ? (cursor_ < count_ && Clock::now() < until_)
                                   : cursor_ < plan_->size();
      if (!sending && deadline == Clock::time_point::max()) {
        deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(kDrainSeconds));
      }
      if (Clock::now() > deadline) {
        result_.failed += outstanding_;
        result_.fail(std::to_string(outstanding_) + " request(s) never answered");
        return;
      }
      loop_.wait(10, &events);
      for (const epoll_event& ev : events) {
        if (ev.data.u64 == kTimerKey) {
          std::uint64_t expirations = 0;
          [[maybe_unused]] const ssize_t n = ::read(timer_.get(), &expirations, sizeof(expirations));
          continue;
        }
        if (ev.data.u64 >= conns_.size()) continue;
        if (ev.events & (EPOLLERR | EPOLLHUP)) throw std::runtime_error("connection error");
        if (ev.events & EPOLLOUT) flush(ev.data.u64);
        if (ev.events & (EPOLLIN | EPOLLRDHUP)) read(ev.data.u64);
      }
      if (!closed_) send_due();
      if (spans_.enabled() && timed_ && Clock::now() >= next_poll) {
        queue_depth_max = std::max(queue_depth_max, stack_.server->stats().queue_depth);
        next_poll = Clock::now() + std::chrono::milliseconds{10};
      }
    }
  }

  Stack& stack_;
  const std::vector<Tensor>& images_;
  const std::vector<std::vector<std::vector<float>>>& golden_;
  SpanLog& spans_;
  Result& result_;
  net::EpollLoop loop_;
  ttfs::util::Fd timer_;
  std::vector<ClientConn> conns_;
  std::unordered_map<std::uint64_t, InFlight> inflight_;
  std::uint64_t next_id_ = 1;
  std::size_t outstanding_ = 0;
  const std::vector<Planned>* plan_ = nullptr;  // open loop
  Rng* rng_ = nullptr;                           // closed loop
  std::size_t count_ = 0;                        // closed loop
  std::size_t cursor_ = 0;
  Clock::time_point window_start_{};
  double slice_s_ = 1.0;
  int slices_ = 1;
  bool timed_ = false;
  bool closed_ = false;
  Clock::time_point start_{};
  Clock::time_point until_ = Clock::time_point::max();
};

}  // namespace

Result run_wire(const Options& opts, SpanLog& spans, bool saturate) {
  Result r;
  const auto event_backend = snn::make_backend(snn::BackendKind::kEventSim);
  // The timing decorator is registered only in a traced run.
  std::shared_ptr<TimingBackend> timing;
  std::shared_ptr<const snn::InferenceBackend> served = event_backend;
  if (opts.trace) {
    timing = std::make_shared<TimingBackend>(event_backend, spans);
    served = timing;
  }

  // --- Set-up, repeated; the last one is kept. ------------------------------
  std::vector<double> setup_s, pack_s;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < kSetups; ++i) {
    stack.reset();
    double pack = 0.0;
    const Clock::time_point t0 = Clock::now();
    stack = set_up(spans, served, &pack);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    pack_s.push_back(pack);
  }

  // --- Inputs from the seed, and the golden answers (untimed). ------------
  Rng rng{opts.seed};
  std::vector<Tensor> images;
  Tensor batch{{static_cast<std::int64_t>(kImages), 3, 16, 16}};
  for (std::size_t k = 0; k < kImages; ++k) images.push_back(random_tensor({3, 16, 16}, rng, 0.0F, 1.0F));
  for (std::size_t k = 0; k < kImages; ++k) {
    std::memcpy(batch.data() + k * 3 * 16 * 16, images[k].data(), 3 * 16 * 16 * sizeof(float));
  }
  std::vector<std::vector<std::vector<float>>> golden(kModels);
  const ttfs::hw::SnnProcessorModel model{ttfs::hw::ArchConfig{}, ttfs::hw::default_tech()};
  TraceTotals totals;
  double price_s = 0;
  for (std::size_t m = 0; m < kModels; ++m) {
    snn::RunOptions ropts;
    ropts.traces = true;
    const snn::RunResult out =
        snn::Engine{*stack->nets[m]}.session(event_backend).run(snn::BatchView{batch}, ropts);
    for (std::size_t k = 0; k < kImages; ++k) {
      const float* row = out.logits.data() + k * static_cast<std::size_t>(out.logits.shape()[1]);
      golden[m].emplace_back(row, row + out.logits.shape()[1]);
      const snn::EventTrace& t = out.traces[k];
      const Clock::time_point p0 = Clock::now();
      const auto rep = ttfs::hw::price_trace(model, *stack->nets[m], t, 16, 16);
      price_s += seconds_between(p0, Clock::now());
      totals.add(t, rep);
    }
  }

  // --- Warm-up (untimed), then the window. ----------------------------------
  Client client{*stack, images, golden, spans, r};
  client.closed_loop(rng, kWarmup, 4, Clock::time_point::max(), /*timed=*/false);
  if (timing) timing->take_durations();
  const serve::ServerStats ss0 = stack->server->stats();
  const net::WireStats ws0 = stack->wire->stats();
  const snn::RegistryStats rs0 = stack->registry->stats();

  std::vector<Planned> plan;  // open loop: the whole arrival schedule
  if (!saturate) {
    for (double at = 0.0;;) {
      at += -std::log(1.0 - rng.uniform(0.0, 1.0)) / kPoissonRate;
      if (at >= opts.seconds) break;
      Planned p;
      p.at = at;
      p.image = static_cast<std::uint32_t>(rng.uniform_int(0, kImages - 1));
      p.model = static_cast<std::uint32_t>(rng.uniform_int(0, kModels - 1));
      plan.push_back(p);
    }
  }
  const Clock::time_point t0 = Clock::now();
  client.open_window(t0, opts.seconds);
  if (saturate) {
    client.closed_loop(rng, SIZE_MAX, kDepth,
                       t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(opts.seconds)),
                       /*timed=*/true);
  } else {
    client.open_loop(plan, t0);
  }

  // --- Quiescence: every request answered, counters balance. ---------------
  const serve::ServerStats ss = stack->server->stats();
  const net::WireStats ws = stack->wire->stats();
  const snn::RegistryStats rs = stack->registry->stats();
  if (ss.submitted != ss.completed + ss.cancelled + ss.rejected + ss.rejected_overload + ss.shed) {
    r.fail("serve counters do not balance: submitted " + std::to_string(ss.submitted) +
           " != completed + cancelled + rejected + rejected_overload + shed");
  }
  if (ws.requests != ws.responses || ws.in_flight != 0) {
    r.fail("wire counters do not balance: requests " + std::to_string(ws.requests) +
           ", responses " + std::to_string(ws.responses) + ", in flight " +
           std::to_string(ws.in_flight));
  }
  if (r.attempted != client.sent_timed) {
    r.fail("sent " + std::to_string(client.sent_timed) + " timed requests but " +
           std::to_string(r.attempted) + " were answered");
  }
  std::vector<double> compute_s;
  if (timing) compute_s = timing->take_durations();
  stack.reset();
  r.e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};

  const double lag_p99_ms = 1e3 * quantile(client.send_lag_s, 0.99);
  if (!saturate && lag_p99_ms > kBehindMs) {
    std::fprintf(stderr, "perfbench: generator fell behind (send lag p99 %.3f ms)\n", lag_p99_ms);
  }

  // Throughput and latency percentiles are taken per one-second slice of the
  // window (requests go to the slice their send was due in; a slice holds at
  // least 1000 answers, so its p99 has 10 beyond it) and reported as the
  // median over slices, so a burst of interference from outside the process
  // moves them less than it would move whole-window figures.
  std::vector<double> rate, p50, p99, server_p50, server_p99, overhead_p50, overhead_p99;
  for (const Client::Slice& slice : client.slices) {
    const std::vector<double> latency(slice.latency_s.begin(), slice.latency_s.end());
    const std::vector<double> server(slice.server_s.begin(), slice.server_s.end());
    std::vector<double> overhead(latency.size());
    for (std::size_t i = 0; i < latency.size(); ++i) overhead[i] = latency[i] - server[i];
    rate.push_back(static_cast<double>(latency.size()) / (opts.seconds / static_cast<double>(client.slices.size())));
    p50.push_back(quantile(latency, 0.50));
    p99.push_back(quantile(latency, 0.99));
    server_p50.push_back(quantile(server, 0.50));
    server_p99.push_back(quantile(server, 0.99));
    overhead_p50.push_back(quantile(overhead, 0.50));
    overhead_p99.push_back(quantile(overhead, 0.99));
  }

  r.e2e["setup_s"] = {median(setup_s), "s"};
  r.e2e["inferences_per_s"] = {median(rate), "1/s"};
  r.e2e["latency_p50_ms"] = {1e3 * median(p50), "ms"};
  r.e2e["latency_p99_ms"] = {1e3 * median(p99), "ms"};
  r.e2e["ok_share"] = {static_cast<double>(client.ok_timed) / static_cast<double>(client.sent_timed), "share"};

  double busy = 0;
  for (const double s : compute_s) busy += s;
  const double pool_threads = std::max(1U, ttfs::global_pool().size());
  const double batches = static_cast<double>(ss.batches_formed - ss0.batches_formed);
  totals.report(r);
  r.layer["snn.pack_build_s"] = {median(pack_s), "s"};
  r.layer["snn.pack_bytes"] = {static_cast<double>(rs.warm_bytes), "bytes"};
  r.layer["snn.compute_us_per_sample"] = {compute_s.empty() ? 0.0 : 1e6 * busy / static_cast<double>(compute_s.size()), "us"};
  r.layer["snn.busy_share"] = {busy / (pool_threads * opts.seconds), "share"};
  r.layer["hw.price_us_per_trace"] = {1e6 * price_s / totals.n, "us"};
  r.layer["net.overhead_p50_ms"] = {1e3 * median(overhead_p50), "ms"};
  r.layer["net.overhead_p99_ms"] = {1e3 * median(overhead_p99), "ms"};
  r.layer["net.bytes_in"] = {static_cast<double>(ws.bytes_in - ws0.bytes_in), "bytes"};
  r.layer["net.bytes_out"] = {static_cast<double>(ws.bytes_out - ws0.bytes_out), "bytes"};
  r.layer["net.read_pauses"] = {static_cast<double>(ws.read_pauses - ws0.read_pauses), "count"};
  r.layer["net.protocol_errors"] = {static_cast<double>(ws.protocol_errors - ws0.protocol_errors), "count"};
  r.layer["serve.server_p50_ms"] = {1e3 * median(server_p50), "ms"};
  r.layer["serve.server_p99_ms"] = {1e3 * median(server_p99), "ms"};
  r.layer["serve.wait_p50_ms"] = {1e3 * (median(server_p50) - median(compute_s)), "ms"};
  r.layer["serve.mean_batch"] = {batches > 0 ? static_cast<double>(ss.completed - ss0.completed) / batches : 0.0, "count"};
  r.layer["serve.batches"] = {batches, "count"};
  r.layer["serve.queue_depth_max"] = {static_cast<double>(client.queue_depth_max), "count"};
  r.layer["serve.refused"] = {static_cast<double>((ss.rejected + ss.rejected_overload + ss.shed + ss.cancelled) -
                                                  (ss0.rejected + ss0.rejected_overload + ss0.shed + ss0.cancelled)), "count"};
  r.layer["registry.hits"] = {static_cast<double>(rs.hits - rs0.hits), "count"};
  r.layer["registry.misses"] = {static_cast<double>(rs.misses - rs0.misses), "count"};
  r.layer["registry.evictions"] = {static_cast<double>(rs.evictions - rs0.evictions), "count"};
  if (!saturate) {
    r.layer["gen.send_lag_p99_ms"] = {lag_p99_ms, "ms"};
    r.layer["gen.behind"] = {lag_p99_ms > kBehindMs ? 1.0 : 0.0, "flag"};
  }
  return r;
}

}  // namespace perfbench
