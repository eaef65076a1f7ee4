// perfbench harness entry point: runs one workload and prints the host stamp
// and the result as two JSON lines on stdout.
//
//   perfbench --workload vgg16_offline|wire_poisson|wire_saturate
//             --seed N --seconds S [--trace 0|1] [--spans FILE]
//
// Exit status: 0 when every correctness check passed, 1 when one failed (the
// result line is still printed, with "correct": false), 2 on bad arguments.
// perfbench/run.py is the user-facing command; it builds this binary and
// turns its output into the benchmark's result line.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "harness.h"
#include "snn/simd.h"
#include "util/thread_pool.h"

namespace perfbench {

void Result::fail(const std::string& what) {
  correct = false;
  if (errors.size() < 8) errors.push_back(what);
}

std::int64_t SpanLog::begin(const char* name, std::int64_t parent, std::uint64_t request) {
  if (!enabled_) return -1;
  const std::int64_t now = ns(Clock::now());
  const std::lock_guard<std::mutex> lock{mu_};
  spans_.push_back(Span{name, now, now, parent, request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanLog::end(std::int64_t index) {
  if (index < 0) return;
  const std::int64_t now = ns(Clock::now());
  const std::lock_guard<std::mutex> lock{mu_};
  spans_[static_cast<std::size_t>(index)].end_ns = now;
}

std::int64_t SpanLog::add(const char* name, Clock::time_point start, Clock::time_point end,
                          std::int64_t parent, std::uint64_t request) {
  if (!enabled_) return -1;
  const std::lock_guard<std::mutex> lock{mu_};
  spans_.push_back(Span{name, ns(start), ns(end), parent, request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::map<std::string, double> SpanLog::self_seconds() const {
  const std::lock_guard<std::mutex> lock{mu_};
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Children may run in parallel (samples fanned out over the pool), so
    // the covered part is the union of their intervals, clipped to the span.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0, cur_hi = -1;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    const std::string name{s.name};
    self[name.substr(0, name.find('.'))] += 1e-9 * static_cast<double>(s.end_ns - s.start_ns - covered);
  }
  return self;
}

bool SpanLog::write(const std::string& path, const std::string& header) const {
  std::ofstream out{path};
  if (!out) return false;
  out << "# " << header << "\n# name start_ns end_ns parent request\n";
  const std::lock_guard<std::mutex> lock{mu_};
  for (const Span& s : spans_) {
    out << s.name << ' ' << s.start_ns << ' ' << s.end_ns << ' ' << s.parent << ' '
        << s.request << '\n';
  }
  return static_cast<bool>(out);
}

void TimingBackend::run_sample(const ttfs::snn::SnnNetwork& net,
                               const ttfs::snn::BatchView& batch, std::int64_t i,
                               ttfs::snn::SimArena& arena,
                               const ttfs::snn::SampleSlots& slots) const {
  const Clock::time_point start = Clock::now();
  inner_->run_sample(net, batch, i, arena, slots);
  const Clock::time_point end = Clock::now();
  spans_.add("snn.run_sample", start, end, parent_.load(std::memory_order_relaxed));
  const std::lock_guard<std::mutex> lock{mu_};
  durations_.push_back(seconds_between(start, end));
}

std::vector<double> TimingBackend::take_durations() const {
  const std::lock_guard<std::mutex> lock{mu_};
  std::vector<double> out;
  out.swap(durations_);
  return out;
}

void TraceTotals::add(const ttfs::snn::EventTrace& trace, const ttfs::hw::ProcessorReport& rep) {
  n += 1;
  spikes += static_cast<double>(trace.total_spikes());
  sops += static_cast<double>(trace.total_integration_ops());
  for (const auto& l : trace.layers) encoder_cycles += static_cast<double>(l.encoder_cycles);
  energy_uj += rep.energy_per_image_uj();
  fps += rep.fps;
  cycles += static_cast<double>(rep.total_cycles);
  for (const auto& l : rep.layers) dram_bits += l.dram_bits;
  pe_uj += rep.energy.pe_uj;
  sram_uj += rep.energy.sram_uj;
  encoder_uj += rep.energy.encoder_uj;
  dram_uj += rep.energy.dram_uj;
}

void TraceTotals::report(Result& r) const {
  r.e2e["energy_uj"] = {energy_uj / n, "uJ"};
  r.e2e["sim_fps"] = {fps / n, "fps"};
  r.layer["snn.spikes_per_sample"] = {spikes / n, "count"};
  r.layer["snn.sops_per_sample"] = {sops / n, "count"};
  r.layer["snn.encoder_cycles_per_sample"] = {encoder_cycles / n, "count"};
  r.layer["hw.cycles_per_inference"] = {cycles / n, "count"};
  r.layer["hw.dram_bits_per_inference"] = {dram_bits / n, "bits"};
  r.layer["hw.pe_uj"] = {pe_uj / n, "uJ"};
  r.layer["hw.sram_uj"] = {sram_uj / n, "uJ"};
  r.layer["hw.encoder_uj"] = {encoder_uj / n, "uJ"};
  r.layer["hw.dram_uj"] = {dram_uj / n, "uJ"};
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace perfbench

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string cpu_model() {
  std::ifstream in{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

// The host stamp every result carries, so a number from one machine is never
// silently compared with one from another.
std::string host_json() {
  const char* threads_env = std::getenv("TTFS_THREADS");
#if defined(__clang__)
  const std::string compiler = std::string{"clang "} + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string{"gcc "} + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
#if defined(__x86_64__)
  const bool avx2 = __builtin_cpu_supports("avx2");
#else
  const bool avx2 = false;
#endif
  std::ostringstream os;
  os << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"cpu_model\": " << json_string(cpu_model())
     << ", \"runtime_avx2\": " << (avx2 ? "true" : "false")
     << ", \"ttfs_simd_build\": " << (PERFBENCH_SIMD ? "true" : "false")
     << ", \"kernel_isa\": " << json_string(ttfs::snn::kernels::isa())
     << ", \"compiler\": " << json_string(compiler)
     << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
     << ", \"compute_pool_threads\": " << ttfs::global_pool().size()
     << ", \"ttfs_threads_env\": " << json_string(threads_env ? threads_env : "") << "}";
  return os.str();
}

std::string metrics_json(const std::map<std::string, std::pair<double, std::string>>& m) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [name, vu] : m) {
    os << (first ? "" : ", ") << json_string(name) << ": {\"value\": " << json_number(vu.first)
       << ", \"unit\": " << json_string(vu.second) << "}";
    first = false;
  }
  os << "}";
  return os.str();
}

// The per-layer metrics every workload prints: a layer a workload does not
// exercise reports 0 (no work). wire_poisson adds its generator's gen.*.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"cat.log_quantize_s", "s"},
    {"snn.pack_build_s", "s"},
    {"snn.pack_bytes", "bytes"},
    {"snn.event.samples_per_s", "1/s"},
    {"snn.quantized.samples_per_s", "1/s"},
    {"snn.event.us_per_sample", "us"},
    {"snn.quantized.us_per_sample", "us"},
    {"snn.event.sops_per_s", "1/s"},
    {"snn.quantized.sops_per_s", "1/s"},
    {"snn.spikes_per_sample", "count"},
    {"snn.sops_per_sample", "count"},
    {"snn.encoder_cycles_per_sample", "count"},
    {"snn.quantized.spike_mismatch_per_sample", "count"},
    {"snn.compute_us_per_sample", "us"},
    {"snn.busy_share", "share"},
    {"hw.price_us_per_trace", "us"},
    {"hw.cycles_per_inference", "count"},
    {"hw.dram_bits_per_inference", "bits"},
    {"hw.pe_uj", "uJ"},
    {"hw.sram_uj", "uJ"},
    {"hw.encoder_uj", "uJ"},
    {"hw.dram_uj", "uJ"},
    {"net.overhead_p50_ms", "ms"},
    {"net.overhead_p99_ms", "ms"},
    {"net.bytes_in", "bytes"},
    {"net.bytes_out", "bytes"},
    {"net.read_pauses", "count"},
    {"net.protocol_errors", "count"},
    {"serve.server_p50_ms", "ms"},
    {"serve.server_p99_ms", "ms"},
    {"serve.wait_p50_ms", "ms"},
    {"serve.mean_batch", "count"},
    {"serve.batches", "count"},
    {"serve.queue_depth_max", "count"},
    {"serve.refused", "count"},
    {"registry.hits", "count"},
    {"registry.misses", "count"},
    {"registry.evictions", "count"},
    {"self_s.bench", "s"},
    {"self_s.cat", "s"},
    {"self_s.snn", "s"},
    {"self_s.hw", "s"},
    {"self_s.serve", "s"},
    {"self_s.net", "s"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload vgg16_offline|wire_poisson|wire_saturate"
               " --seed N --seconds S [--trace 0|1] [--spans FILE]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opts.workload = value;
      } else if (flag == "--seed") {
        opts.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opts.seconds = std::stod(value);
      } else if (flag == "--trace") {
        opts.trace = std::stoi(value) != 0;
      } else if (flag == "--spans") {
        opts.spans_path = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!(opts.seconds > 0.0)) usage("--seconds must be positive");

  const std::string host = host_json();
  std::cout << "{\"host\": " << host << "}" << std::endl;

  perfbench::SpanLog spans;
  if (opts.trace) spans.enable(perfbench::Clock::now());
  perfbench::Result r;
  try {
    if (opts.workload == "vgg16_offline") {
      r = perfbench::run_offline(opts, spans);
    } else if (opts.workload == "wire_poisson") {
      r = perfbench::run_wire(opts, spans, /*saturate=*/false);
    } else if (opts.workload == "wire_saturate") {
      r = perfbench::run_wire(opts, spans, /*saturate=*/true);
    } else {
      usage("unknown workload '" + opts.workload + "'");
    }
  } catch (const std::exception& e) {
    r.fail(std::string{"exception: "} + e.what());
    r.attempted = std::max<std::uint64_t>(r.attempted, 1);
  }

  if (opts.trace) {
    for (const auto& [layer, secs] : spans.self_seconds()) {
      r.layer["self_s." + layer] = {secs, "s"};
    }
    if (!opts.spans_path.empty() &&
        !spans.write(opts.spans_path, "perfbench " + opts.workload + " seed " +
                                          std::to_string(opts.seed) + " host " + host)) {
      r.fail("cannot write spans to " + opts.spans_path);
    }
  }

  // A failed check fails the run even when no single operation was counted.
  if (!r.correct) r.failed = std::max<std::uint64_t>(r.failed, 1);
  for (const auto& [name, unit] : kLayerMetrics) {
    if (r.layer.count(name) == 0) r.layer[name] = {0.0, unit};
  }

  std::cout << "{\"correct\": " << (r.correct ? "true" : "false")
            << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
            << ", \"errors\": [";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    std::cout << (i ? ", " : "") << json_string(r.errors[i]);
  }
  std::cout << "], \"e2e\": " << metrics_json(r.e2e) << ", \"layer\": " << metrics_json(r.layer)
            << "}" << std::endl;
  return r.correct ? 0 : 1;
}
