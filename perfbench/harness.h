// Shared pieces of the perfbench harness: clock, result record, span log,
// the timing decorator around an inference backend, and small statistics.
//
// Every layer is measured from outside: the harness times its own calls into
// the library's public functions and records a span around each. Nothing in
// src/ is instrumented.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "hw/processor.h"
#include "snn/engine.h"
#include "snn/event_sim.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// What one workload run measured. `e2e` holds the end-to-end metrics, `layer`
// the per-layer ones; run.py prints one set or the other.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> errors;  // first few correctness failures
  std::map<std::string, std::pair<double, std::string>> e2e;    // name -> (value, unit)
  std::map<std::string, std::pair<double, std::string>> layer;

  void fail(const std::string& what);
};

// One timed call at a layer boundary.
struct Span {
  const char* name = "";     // "<layer>.<what>", e.g. "snn.run"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  // index of the enclosing span, -1 for a root
  std::uint64_t request = 0; // request id for wire requests, 0 otherwise
};

// In-memory span log. Spans are kept until the run ends and written out
// then; the log is inert (begin() returns -1, nothing is stored) unless
// enabled, so untraced runs pay one branch per call site.
class SpanLog {
 public:
  void enable(Clock::time_point origin) {
    origin_ = origin;
    enabled_ = true;
  }
  bool enabled() const { return enabled_; }

  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  }
  // Opens a span now; returns its index (-1 when disabled).
  std::int64_t begin(const char* name, std::int64_t parent = -1, std::uint64_t request = 0);
  void end(std::int64_t index);
  // Records a span whose interval is already known.
  std::int64_t add(const char* name, Clock::time_point start, Clock::time_point end,
                   std::int64_t parent = -1, std::uint64_t request = 0);

  // Sum of self time per layer (name prefix before the first '.'): a span's
  // duration minus the part of its interval its children cover.
  std::map<std::string, double> self_seconds() const;
  // One line per span: name start_ns end_ns parent request.
  bool write(const std::string& path, const std::string& header) const;

 private:
  bool enabled_ = false;
  Clock::time_point origin_{};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// RAII span over one call into a layer.
class Scoped {
 public:
  Scoped(SpanLog& log, const char* name, std::int64_t parent = -1)
      : log_{log}, index_{log.begin(name, parent)} {}
  ~Scoped() { log_.end(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  std::int64_t index() const { return index_; }

 private:
  SpanLog& log_;
  std::int64_t index_;
};

// Decorator over an inference backend: times every run_sample and delegates
// every other virtual unchanged, so sessions and the registry treat it
// exactly like the backend it wraps.
class TimingBackend final : public ttfs::snn::InferenceBackend {
 public:
  TimingBackend(std::shared_ptr<const ttfs::snn::InferenceBackend> inner, SpanLog& spans)
      : inner_{std::move(inner)}, spans_{spans} {}

  std::string name() const override { return inner_->name(); }
  bool supports_traces() const override { return inner_->supports_traces(); }
  bool uses_arena() const override { return inner_->uses_arena(); }
  bool needs_packed_weights() const override { return inner_->needs_packed_weights(); }
  void ensure_ready(const ttfs::snn::SnnNetwork& net) const override {
    inner_->ensure_ready(net);
  }
  bool has_resident_pack() const override { return inner_->has_resident_pack(); }
  std::size_t resident_pack_bytes(const ttfs::snn::SnnNetwork& net) const override {
    return inner_->resident_pack_bytes(net);
  }
  void release_pack(const ttfs::snn::SnnNetwork& net) const override {
    inner_->release_pack(net);
  }
  void run_sample(const ttfs::snn::SnnNetwork& net, const ttfs::snn::BatchView& batch,
                  std::int64_t i, ttfs::snn::SimArena& arena,
                  const ttfs::snn::SampleSlots& slots) const override;

  // Span that encloses the samples about to run (-1: none known).
  void set_parent(std::int64_t span) { parent_.store(span, std::memory_order_relaxed); }
  // Per-sample durations in seconds, in completion order; clears the record.
  std::vector<double> take_durations() const;

 private:
  std::shared_ptr<const ttfs::snn::InferenceBackend> inner_;
  SpanLog& spans_;
  std::atomic<std::int64_t> parent_{-1};
  mutable std::mutex mu_;
  mutable std::vector<double> durations_;
};

// Exact, seed-determined counts over a set of inferences: their traces and
// the hw::price_trace reports of those traces. report() adds the
// per-inference means to a result (energy_uj and sim_fps end to end, the
// trace and processor breakdown per layer).
struct TraceTotals {
  double n = 0, spikes = 0, sops = 0, encoder_cycles = 0;
  double energy_uj = 0, fps = 0, cycles = 0, dram_bits = 0, pe_uj = 0, sram_uj = 0,
         encoder_uj = 0, dram_uj = 0;

  void add(const ttfs::snn::EventTrace& trace, const ttfs::hw::ProcessorReport& report);
  void report(Result& r) const;
};

// Exact q-quantile (0..1) of `v` by linear interpolation; 0 when empty.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  // where a traced run writes its spans
};

Result run_offline(const Options& opts, SpanLog& spans);
Result run_wire(const Options& opts, SpanLog& spans, bool saturate);

}  // namespace perfbench
