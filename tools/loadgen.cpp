// ttfs_loadgen — closed- and open-loop load generator for the wire server.
//
//   closed loop (the in-process bench's shape, over real sockets):
//     ./build/tools/ttfs_loadgen --port P --mode closed --connections 8
//         --requests 2000 [--models m0,m1]
//     Each connection keeps exactly one request outstanding: send, wait,
//     send. Latency is send -> response per request; throughput is whatever
//     the server sustains at that concurrency.
//
//   open loop (arrival-driven; the honest way to measure overload):
//     ./build/tools/ttfs_loadgen --port P --mode poisson --rate 700
//         --requests 10000 [--connections 8] [--seed 1]
//     Requests are sent at PRE-SCHEDULED arrival times whether or not
//     earlier ones have completed (arrivals spread round-robin over the
//     connections, pipelined per connection). Latency is measured from the
//     SCHEDULED arrival, not the actual send, so client-side queueing counts
//     against the server — no coordinated omission. Modes:
//       poisson  — exponential inter-arrivals at --rate
//       bursty   — --burst-rate for --burst-ms, then --rate for --idle-ms,
//                  repeating (square-wave overload)
//       diurnal  — rate(t) = --rate * (1 + --amplitude * sin(2*pi*t/--period-s))
//                  (slow sinusoidal swell, a compressed day)
//       replay   — arrivals read verbatim from --trace FILE (see below)
//
//   trace files (JSON; bench/traces/*.json are committed examples):
//     {"name": "...", "rate_hint": 700.0, "models": ["m0"],
//      "t": [0.0012, 0.0031, ...],        // seconds from start, sorted
//      "model": [0, 0, ...]}              // index into "models", same length
//     --write-trace FILE generates a schedule from the mode flags, writes it
//     in this format and exits — that is how the committed traces were made,
//     and replaying one is bit-deterministic (same arrivals, same models).
//
// Output: a "wire_serving" Table — reqs/s, wire-level p50/p95/p99/p99.9 ms,
// ok/rejected/shed/error counts and their percentage-of-attempts rates, one
// row per model plus an "all" row, and the server-stamped enqueue->complete
// p95 for comparison with what the wire adds on top. --json additionally
// writes BENCH_wire_serving.json (Table::save_json), which
// tools/bench_compare.py gates: "reqs/s" and "p95 ms" by relative band,
// "shed %" / "reject %" / "error %" by absolute percentage points.
// --name overrides the table title (and so the BENCH_*.json filename) when a
// run should not land in the gated baseline.
//
// Exit status: nonzero when nothing completed, when any connection died
// mid-run, when --max-seconds (default 600) expired with requests
// outstanding, or when any response carried a duplicate or unknown request
// id (counted as "stray responses").
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/epoll_loop.h"
#include "net/protocol.h"
#include "tensor/tensor.h"
#include "util/cli.h"
#include "util/fd.h"
#include "util/latency_histogram.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace ttfs;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Minimal JSON (only what the trace schema needs: objects, arrays, strings,
// numbers). Throws std::runtime_error with a byte offset on malformed input.
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> arr;
  std::vector<std::pair<std::string, JsonValue>> obj;

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_{text} {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing bytes after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("JSON error at byte " + std::to_string(pos_) + ": " + what);
  }
  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string{"expected '"} + c + "'");
    ++pos_;
  }

  JsonValue value() {
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      JsonValue v;
      v.kind = JsonValue::Kind::kString;
      v.str = string();
      return v;
    }
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') {
      literal("null");
      return JsonValue{};
    }
    return number();
  }

  void literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (text_.compare(pos_, n, word) != 0) fail(std::string{"expected "} + word);
    pos_ += n;
  }

  JsonValue boolean() {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    if (peek() == 't') {
      literal("true");
      v.boolean = true;
    } else {
      literal("false");
    }
    return v;
  }

  JsonValue number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 || text_[pos_] == '-' ||
            text_[pos_] == '+' || text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a number");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = std::strtod(text_.substr(start, pos_ - start).c_str(), nullptr);
    return v;
  }

  std::string string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("dangling escape");
        const char e = text_[pos_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          default: fail("unsupported escape in trace string");
        }
      }
      out.push_back(c);
    }
    if (pos_ >= text_.size()) fail("unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.arr.push_back(value());
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      std::string key = string();
      expect(':');
      v.obj.emplace_back(std::move(key), value());
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Arrival traces.
// ---------------------------------------------------------------------------

struct Trace {
  std::string name;
  double rate_hint = 0.0;             // nominal offered req/s (informational)
  std::vector<std::string> models;    // distinct model ids
  std::vector<double> t;              // arrival seconds from start, sorted
  std::vector<std::uint32_t> model;   // index into models, parallel to t
};

Trace load_trace(const std::string& path) {
  std::ifstream f{path};
  if (!f) throw std::runtime_error("cannot open trace " + path);
  std::stringstream buf;
  buf << f.rdbuf();
  const std::string text = buf.str();
  const JsonValue root = JsonParser{text}.parse();
  if (root.kind != JsonValue::Kind::kObject) throw std::runtime_error("trace: not an object");
  Trace trace;
  if (const JsonValue* v = root.find("name")) trace.name = v->str;
  if (const JsonValue* v = root.find("rate_hint")) trace.rate_hint = v->number;
  const JsonValue* models = root.find("models");
  const JsonValue* times = root.find("t");
  const JsonValue* idx = root.find("model");
  if (models == nullptr || times == nullptr || idx == nullptr) {
    throw std::runtime_error("trace: needs \"models\", \"t\" and \"model\" arrays");
  }
  for (const JsonValue& m : models->arr) trace.models.push_back(m.str);
  if (trace.models.empty()) throw std::runtime_error("trace: empty \"models\"");
  trace.t.reserve(times->arr.size());
  for (const JsonValue& v : times->arr) trace.t.push_back(v.number);
  trace.model.reserve(idx->arr.size());
  for (const JsonValue& v : idx->arr) {
    const auto m = static_cast<std::uint32_t>(v.number);
    if (m >= trace.models.size()) throw std::runtime_error("trace: model index out of range");
    trace.model.push_back(m);
  }
  if (trace.t.size() != trace.model.size()) {
    throw std::runtime_error("trace: \"t\" and \"model\" lengths differ");
  }
  if (!std::is_sorted(trace.t.begin(), trace.t.end())) {
    throw std::runtime_error("trace: \"t\" must be sorted");
  }
  return trace;
}

void save_trace(const Trace& trace, const std::string& path) {
  std::ofstream f{path};
  if (!f) throw std::runtime_error("cannot write trace " + path);
  f << "{\n  \"name\": \"" << trace.name << "\",\n  \"rate_hint\": " << trace.rate_hint
    << ",\n  \"models\": [";
  for (std::size_t m = 0; m < trace.models.size(); ++m) {
    f << (m != 0 ? ", " : "") << '"' << trace.models[m] << '"';
  }
  f << "],\n  \"t\": [";
  f.precision(6);
  f << std::fixed;
  for (std::size_t i = 0; i < trace.t.size(); ++i) {
    f << (i != 0 ? "," : "") << trace.t[i];
  }
  f << "],\n  \"model\": [";
  for (std::size_t i = 0; i < trace.model.size(); ++i) {
    f << (i != 0 ? "," : "") << trace.model[i];
  }
  f << "]\n}\n";
}

std::vector<std::string> parse_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss{csv};
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

// Generates an open-loop schedule: exponential inter-arrivals whose rate is
// a function of elapsed time (constant for poisson, square-wave for bursty,
// sinusoidal for diurnal). Models round-robin so every model sees 1/M of the
// offered load.
Trace generate_trace(const std::string& mode, const CliArgs& args,
                     const std::vector<std::string>& models, std::int64_t requests) {
  const double rate = args.get_double("rate", 500.0);
  if (rate <= 0.0) throw std::runtime_error("--rate must be > 0");
  const double burst_rate = args.get_double("burst-rate", rate * 4.0);
  const double burst_s = args.get_double("burst-ms", 250.0) / 1e3;
  const double idle_s = args.get_double("idle-ms", 750.0) / 1e3;
  const double period_s = args.get_double("period-s", 10.0);
  const double amplitude = args.get_double("amplitude", 0.8);
  Rng rng{static_cast<std::uint64_t>(args.get_int("seed", 1))};

  Trace trace;
  trace.name = mode;
  trace.rate_hint = rate;
  trace.models = models;
  trace.t.reserve(static_cast<std::size_t>(requests));
  trace.model.reserve(static_cast<std::size_t>(requests));
  double t = 0.0;
  for (std::int64_t i = 0; i < requests; ++i) {
    double rate_now = rate;
    if (mode == "bursty") {
      const double phase = std::fmod(t, burst_s + idle_s);
      rate_now = phase < burst_s ? burst_rate : rate;
    } else if (mode == "diurnal") {
      rate_now = rate * (1.0 + amplitude * std::sin(2.0 * M_PI * t / period_s));
      rate_now = std::max(rate_now, rate * 0.05);
    }
    t += -std::log(1.0 - rng.uniform(0.0, 1.0)) / rate_now;
    trace.t.push_back(t);
    trace.model.push_back(static_cast<std::uint32_t>(i % models.size()));
  }
  return trace;
}

// ---------------------------------------------------------------------------
// The client engine: C pipelined nonblocking connections on one epoll loop.
// ---------------------------------------------------------------------------

struct PendingReq {
  Clock::time_point due;  // scheduled arrival (open loop) or send time (closed)
  std::uint32_t model_idx = 0;
};

struct ClientConn {
  util::Fd fd;
  net::ResponseParser parser;
  std::deque<std::vector<std::uint8_t>> outbox;
  std::size_t out_off = 0;
  std::uint32_t events = 0;
  std::unordered_map<std::uint64_t, PendingReq> inflight;
  std::vector<std::size_t> schedule;  // indices into the trace, this conn's share
  std::size_t cursor = 0;             // next schedule entry to send
  bool alive = true;
};

struct OutcomeStats {
  LatencyHistogram wire{1e-6, 100.0, 1.1};    // due -> response received
  LatencyHistogram server{1e-6, 100.0, 1.1};  // server-stamped enqueue->complete
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
  std::uint64_t attempted() const { return ok + rejected + shed + errors; }
};

struct RunReport {
  OutcomeStats all;
  std::vector<OutcomeStats> per_model;  // parallel to trace.models
  double wall_seconds = 0.0;
  // Responses whose id was not in flight on their connection: a duplicate
  // answer, or an id never sent. Either breaks "exactly one answer per
  // request", so any makes the run unclean.
  std::uint64_t stray = 0;
  bool clean = true;  // no connection died, no deadline hit, no stray answer
};

class LoadEngine {
 public:
  LoadEngine(std::string host, std::uint16_t port, const Trace& trace, bool closed_loop,
             std::size_t connections, double max_seconds)
      : host_{std::move(host)},
        port_{port},
        trace_{trace},
        closed_loop_{closed_loop},
        max_seconds_{max_seconds} {
    conns_.resize(std::max<std::size_t>(1, connections));
    report_.per_model.resize(trace_.models.size());
    // One payload image per model, reused for every request to that model —
    // the server treats payload bytes as opaque input, so contents only need
    // to be valid floats in the encoding range.
    Rng rng{7};
    images_.reserve(trace_.models.size());
    for (std::size_t m = 0; m < trace_.models.size(); ++m) {
      Tensor img{{3, 16, 16}};
      for (std::int64_t i = 0; i < img.numel(); ++i) img[i] = rng.uniform_f(0.0F, 1.0F);
      images_.push_back(std::move(img));
    }
  }

  RunReport run() {
    connect_all();
    // Round-robin the schedule across connections; a closed-loop "schedule"
    // is the same list, but entries are released by completions, not by the
    // clock.
    for (std::size_t i = 0; i < trace_.t.size(); ++i) {
      conns_[i % conns_.size()].schedule.push_back(i);
    }
    start_ = Clock::now();
    if (closed_loop_) {
      for (ClientConn& conn : conns_) send_next_closed(conn);
    }
    event_loop();
    report_.wall_seconds = std::chrono::duration<double>(Clock::now() - start_).count();
    if (received_ + failed_unsent_ < trace_.t.size()) report_.clean = false;
    return std::move(report_);
  }

 private:
  void connect_all() {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
      throw std::runtime_error("loadgen: bad host " + host_);
    }
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      util::Fd fd{::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0)};
      if (!fd.valid() ||
          ::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        throw std::runtime_error("loadgen: connect to " + host_ + ":" +
                                 std::to_string(port_) + " failed: " + std::strerror(errno));
      }
      const int one = 1;
      ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      util::set_nonblocking(fd.get());
      conns_[c].fd = std::move(fd);
      conns_[c].events = EPOLLIN | EPOLLRDHUP | EPOLLET;
      if (!loop_.add(conns_[c].fd.get(), conns_[c].events, c)) {
        throw std::runtime_error("loadgen: epoll add failed");
      }
    }
  }

  double elapsed() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  void send_request(ClientConn& conn, std::size_t trace_idx, Clock::time_point due) {
    const std::uint32_t model_idx = trace_.model[trace_idx];
    const std::uint64_t rid = ++next_id_;
    conn.inflight.emplace(rid, PendingReq{due, model_idx});
    std::vector<std::uint8_t> frame =
        net::encode_request(rid, trace_.models[model_idx], images_[model_idx]);
    conn.outbox.push_back(std::move(frame));
    flush(conn);
  }

  // Closed loop: keep exactly one request outstanding per connection.
  void send_next_closed(ClientConn& conn) {
    if (!conn.alive || conn.cursor >= conn.schedule.size()) return;
    const std::size_t idx = conn.schedule[conn.cursor++];
    send_request(conn, idx, Clock::now());
  }

  // Open loop: send everything whose scheduled arrival has passed.
  void send_due(ClientConn& conn) {
    const double now_s = elapsed();
    while (conn.alive && conn.cursor < conn.schedule.size()) {
      const std::size_t idx = conn.schedule[conn.cursor];
      if (trace_.t[idx] > now_s) break;
      ++conn.cursor;
      send_request(conn, idx,
                   start_ + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(trace_.t[idx])));
    }
  }

  void flush(ClientConn& conn) {
    if (!conn.alive) return;
    while (!conn.outbox.empty()) {
      const std::vector<std::uint8_t>& front = conn.outbox.front();
      const std::size_t left = front.size() - conn.out_off;
      const ssize_t n = ::send(conn.fd.get(), front.data() + conn.out_off, left, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          if (!(conn.events & EPOLLOUT)) {
            conn.events |= EPOLLOUT;
            loop_.mod(conn.fd.get(), conn.events, conn_key(conn));
          }
          return;
        }
        if (errno == EINTR) continue;
        kill_conn(conn);
        return;
      }
      conn.out_off += static_cast<std::size_t>(n);
      if (conn.out_off == front.size()) {
        conn.outbox.pop_front();
        conn.out_off = 0;
      }
    }
    if (conn.events & EPOLLOUT) {
      conn.events &= ~static_cast<std::uint32_t>(EPOLLOUT);
      loop_.mod(conn.fd.get(), conn.events, conn_key(conn));
    }
  }

  std::size_t conn_key(const ClientConn& conn) const {
    return static_cast<std::size_t>(&conn - conns_.data());
  }

  // A dead connection fails its outstanding and unsent requests; the run
  // continues on the remaining connections but reports unclean.
  void kill_conn(ClientConn& conn) {
    if (!conn.alive) return;
    conn.alive = false;
    report_.clean = false;
    loop_.del(conn.fd.get());
    conn.fd.reset();
    for (const auto& [rid, req] : conn.inflight) {
      ++report_.all.errors;
      ++report_.per_model[req.model_idx].errors;
      ++received_;
    }
    conn.inflight.clear();
    const std::size_t unsent = conn.schedule.size() - conn.cursor;
    for (std::size_t i = conn.cursor; i < conn.schedule.size(); ++i) {
      const std::uint32_t m = trace_.model[conn.schedule[i]];
      ++report_.all.errors;
      ++report_.per_model[m].errors;
    }
    conn.cursor = conn.schedule.size();
    failed_unsent_ += unsent;
  }

  void record(ClientConn& conn, const net::WireResponse& resp) {
    const auto it = conn.inflight.find(resp.request_id);
    if (it == conn.inflight.end()) {
      // loadgen sends no pings, so every response must match an id in flight.
      ++report_.stray;
      report_.clean = false;
      return;
    }
    const PendingReq req = it->second;
    conn.inflight.erase(it);
    ++received_;
    const double wire_latency = std::chrono::duration<double>(Clock::now() - req.due).count();
    OutcomeStats& model_stats = report_.per_model[req.model_idx];
    if (resp.type == net::MessageType::kResult && resp.status == net::WireStatus::kOk) {
      report_.all.ok++;
      model_stats.ok++;
      report_.all.wire.record(wire_latency);
      model_stats.wire.record(wire_latency);
      report_.all.server.record(resp.latency_seconds);
      model_stats.server.record(resp.latency_seconds);
    } else if (resp.status == net::WireStatus::kRejected ||
               resp.status == net::WireStatus::kShuttingDown) {
      report_.all.rejected++;
      model_stats.rejected++;
    } else if (resp.status == net::WireStatus::kShed) {
      report_.all.shed++;
      model_stats.shed++;
    } else {
      report_.all.errors++;
      model_stats.errors++;
      if (!resp.error.empty() && printed_errors_ < 5) {
        std::cerr << "loadgen: server error (" << net::to_string(resp.status)
                  << "): " << resp.error << "\n";
        ++printed_errors_;
      }
    }
    if (closed_loop_) send_next_closed(conn);
  }

  void handle_readable(ClientConn& conn) {
    while (conn.alive) {
      const auto [buf, cap] = conn.parser.read_slot();
      if (cap == 0) {
        kill_conn(conn);
        return;
      }
      const ssize_t n = ::read(conn.fd.get(), buf, cap);
      if (n == 0) {
        kill_conn(conn);
        return;
      }
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        kill_conn(conn);
        return;
      }
      if (conn.parser.consume(static_cast<std::size_t>(n)) ==
          net::ResponseParser::Event::kResponse) {
        record(conn, conn.parser.response());
      }
    }
  }

  bool done() const { return received_ + failed_unsent_ >= trace_.t.size(); }

  void event_loop() {
    std::vector<epoll_event> events;
    const double deadline = max_seconds_;
    while (!done()) {
      if (elapsed() > deadline) {
        std::cerr << "loadgen: --max-seconds expired with "
                  << (trace_.t.size() - received_ - failed_unsent_)
                  << " request(s) outstanding\n";
        report_.clean = false;
        return;
      }
      int timeout_ms = 50;
      if (!closed_loop_) {
        // Wake for the next scheduled arrival across all connections.
        double next_due = 1e300;
        for (const ClientConn& conn : conns_) {
          if (conn.alive && conn.cursor < conn.schedule.size()) {
            next_due = std::min(next_due, trace_.t[conn.schedule[conn.cursor]]);
          }
        }
        if (next_due < 1e300) {
          const double wait_s = next_due - elapsed();
          timeout_ms = wait_s <= 0.0
                           ? 0
                           : static_cast<int>(std::min(50.0, std::ceil(wait_s * 1e3)));
        }
      }
      loop_.wait(timeout_ms, &events);
      for (const epoll_event& ev : events) {
        const std::uint64_t key = ev.data.u64;
        if (key == net::kWakeKey || key >= conns_.size()) continue;
        ClientConn& conn = conns_[key];
        if (!conn.alive) continue;
        if (ev.events & (EPOLLHUP | EPOLLERR)) {
          kill_conn(conn);
          continue;
        }
        if (ev.events & EPOLLOUT) flush(conn);
        if (conn.alive && (ev.events & (EPOLLIN | EPOLLRDHUP))) handle_readable(conn);
      }
      if (!closed_loop_) {
        for (ClientConn& conn : conns_) send_due(conn);
      }
      bool any_alive = false;
      for (const ClientConn& conn : conns_) any_alive |= conn.alive;
      if (!any_alive) return;
    }
  }

  const std::string host_;
  const std::uint16_t port_;
  const Trace& trace_;
  const bool closed_loop_;
  const double max_seconds_;
  net::EpollLoop loop_;
  std::vector<ClientConn> conns_;
  std::vector<Tensor> images_;
  Clock::time_point start_;
  std::uint64_t next_id_ = 0;
  std::size_t received_ = 0;       // responses matched to a request
  std::size_t failed_unsent_ = 0;  // schedule entries lost to dead connections
  int printed_errors_ = 0;
  RunReport report_;
};

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

std::string pct(std::uint64_t part, std::uint64_t total) {
  return Table::num(total == 0 ? 0.0 : 100.0 * static_cast<double>(part) /
                                           static_cast<double>(total),
                    2);
}

void add_report_row(Table& table, const std::string& workload, const std::string& model,
                    std::size_t connections, const OutcomeStats& s, double wall_seconds) {
  table.add_row({workload, model, std::to_string(connections),
                 std::to_string(s.attempted()),
                 Table::num(static_cast<double>(s.ok) / wall_seconds, 1),
                 Table::num(s.wire.quantile(0.50) * 1e3, 3),
                 Table::num(s.wire.quantile(0.95) * 1e3, 3),
                 Table::num(s.wire.quantile(0.99) * 1e3, 3),
                 Table::num(s.wire.quantile(0.999) * 1e3, 3),
                 std::to_string(s.ok), std::to_string(s.rejected), std::to_string(s.shed),
                 std::to_string(s.errors), pct(s.shed, s.attempted()),
                 pct(s.rejected, s.attempted()), pct(s.errors, s.attempted()),
                 Table::num(s.server.quantile(0.95) * 1e3, 3)});
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args{argc, argv};
  try {
    const std::string mode = args.get_string("mode", "closed");
    const std::string trace_path = args.get_string("trace", "");
    const std::int64_t requests = args.get_int("requests", 1000);
    const std::vector<std::string> models = parse_csv(args.get_string("models", "m0"));
    if (models.empty()) throw std::runtime_error("--models must name at least one model");

    Trace trace;
    if (mode == "replay") {
      if (trace_path.empty()) throw std::runtime_error("--mode replay needs --trace FILE");
      trace = load_trace(trace_path);
    } else if (mode == "closed") {
      trace.name = "closed";
      trace.models = models;
      trace.t.assign(static_cast<std::size_t>(requests), 0.0);
      trace.model.resize(static_cast<std::size_t>(requests));
      for (std::int64_t i = 0; i < requests; ++i) {
        trace.model[static_cast<std::size_t>(i)] =
            static_cast<std::uint32_t>(i % models.size());
      }
    } else if (mode == "poisson" || mode == "bursty" || mode == "diurnal") {
      trace = generate_trace(mode, args, models, requests);
    } else {
      throw std::runtime_error("unknown --mode " + mode +
                               " (closed|poisson|bursty|diurnal|replay)");
    }

    const std::string write_trace = args.get_string("write-trace", "");
    if (!write_trace.empty()) {
      save_trace(trace, write_trace);
      std::cout << "trace with " << trace.t.size() << " arrivals ("
                << trace.models.size() << " model(s), " << Table::num(trace.rate_hint, 1)
                << " req/s nominal) written to " << write_trace << "\n";
      return 0;
    }

    const int port = args.get_int("port", 0);
    if (port <= 0) throw std::runtime_error("--port is required");
    const std::size_t connections =
        static_cast<std::size_t>(std::max(1, args.get_int("connections", 8)));
    const std::string workload = args.get_string("workload", trace.name);

    LoadEngine engine{args.get_string("host", "127.0.0.1"),
                      static_cast<std::uint16_t>(port), trace, mode == "closed", connections,
                      args.get_double("max-seconds", 600.0)};
    RunReport report = engine.run();

    Table table{args.get_string("name", "wire_serving")};
    table.set_header({"workload", "model", "connections", "requests", "reqs/s", "p50 ms",
                      "p95 ms", "p99 ms", "p99.9 ms", "ok", "rejected", "shed", "errors",
                      "shed %", "reject %", "error %", "server p95 ms"});
    add_report_row(table, workload, "all", connections, report.all, report.wall_seconds);
    if (trace.models.size() > 1) {
      for (std::size_t m = 0; m < trace.models.size(); ++m) {
        add_report_row(table, workload, trace.models[m], connections, report.per_model[m],
                       report.wall_seconds);
      }
    }
    table.print(std::cout);
    std::cout << "wall " << Table::num(report.wall_seconds, 2) << "s, offered "
              << Table::num(static_cast<double>(trace.t.size()) / report.wall_seconds, 1)
              << " req/s attempted, completed " << report.all.ok << "/" << trace.t.size()
              << ", stray responses " << report.stray << "\n";
    if (report.stray > 0) {
      std::cerr << "loadgen: " << report.stray
                << " response(s) with a duplicate or unknown request id\n";
    }
    if (args.get_flag("json")) {
      const std::string path = "BENCH_" + table.title() + ".json";
      table.save_json(path);
      std::cout << "json written to " << path << "\n";
    }

    if (report.all.ok == 0) {
      std::cerr << "loadgen: no request completed\n";
      return 1;
    }
    return report.clean ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "loadgen: " << e.what() << "\n";
    return 1;
  }
}
