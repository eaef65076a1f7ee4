// vgg16_offline: the paper's own pipeline at paper scale.
//
// The exact VGG-16 geometry of nn::vgg16_spec (13 conv, 3 FC, 3x32x32 input,
// T = 24) with random weights drawn N(0, 1/fan_in) and log-quantized to 5
// bits, which gives ~45% spike activity. Batches of 32 images run through
// InferenceSession::run on the event and quantized backends with traces on,
// and every trace is priced by hw::price_trace. The serving and wire layers
// are bypassed: snn kernels do almost all of the work.
//
// The measured window is split evenly in time between the two backends (the
// harness always runs the backend that has had less time so far). The
// throughput is the mean of the two backends' rates, so it weighs both
// equally; per-backend figures are per-layer metrics.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cat/logquant.h"
#include "harness.h"
#include "hw/tech.h"
#include "hw/trace_run.h"
#include "nn/vgg.h"
#include "snn/engine.h"
#include "snn/network.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using ttfs::Rng;
using ttfs::Tensor;
namespace snn = ttfs::snn;

constexpr std::int64_t kBatch = 32;
constexpr std::size_t kPoolBatches = 2;    // 64 distinct images per seed
constexpr int kSetups = 3;                 // set-up repeats; setup_s is their median
constexpr std::int64_t kReferenceSamples = 2;  // untimed oracle subset
constexpr std::int64_t kImage = 32;
constexpr std::uint64_t kWeightSeed = 42;  // the network is fixed; --seed drives images

snn::SnnNetwork build_vgg16(Rng& rng) {
  const ttfs::nn::VggSpec spec = ttfs::nn::vgg16_spec(10);
  snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
  const auto weights = [&](std::vector<std::int64_t> shape, std::int64_t fan_in) {
    Tensor t{std::move(shape)};
    const auto sd = static_cast<float>(1.0 / std::sqrt(static_cast<double>(fan_in)));
    for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.normal_f(0.0F, sd);
    return t;
  };
  std::int64_t channels = 3;
  std::int64_t side = kImage;
  for (const int plan : spec.conv_plan) {
    if (plan == ttfs::nn::kPool) {
      net.add_pool(2, 2);
      side /= 2;
      continue;
    }
    net.add_conv(weights({plan, channels, 3, 3}, channels * 9), Tensor{}, 1, 1);
    channels = plan;
  }
  std::int64_t features = channels * side * side;
  for (const int hidden : spec.fc_hidden) {
    net.add_fc(weights({hidden, features}, features), Tensor{});
    features = hidden;
  }
  net.add_fc(weights({spec.classes, features}, features), Tensor{});
  return net;
}

// Everything the backends emit that must repeat exactly for the same input:
// per-layer spike/op/cycle counts, a hash of the spike streams, and the logits
// bytes.
struct Fingerprint {
  std::vector<std::int64_t> counts;
  std::uint64_t spikes_hash = 1469598103934665603ULL;
  std::uint64_t logits_hash = 1469598103934665603ULL;

  bool operator==(const Fingerprint& o) const {
    return counts == o.counts && spikes_hash == o.spikes_hash && logits_hash == o.logits_hash;
  }
  bool operator!=(const Fingerprint& o) const { return !(*this == o); }
};

void fnv(std::uint64_t& h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
}

Fingerprint fingerprint(const snn::EventTrace& t) {
  Fingerprint f;
  for (const snn::LayerEventTrace& l : t.layers) {
    f.counts.push_back(static_cast<std::int64_t>(l.spikes.size()));
    f.counts.push_back(l.integration_ops);
    f.counts.push_back(l.encoder_cycles);
    if (!l.spikes.empty()) fnv(f.spikes_hash, l.spikes.data(), l.spikes.size() * sizeof(snn::Spike));
  }
  fnv(f.logits_hash, t.logits.data(), static_cast<std::size_t>(t.logits.numel()) * sizeof(float));
  return f;
}

// One timed backend: its decorated instance, session, and what it measured.
struct Lane {
  const char* name = "";
  std::shared_ptr<TimingBackend> backend;
  std::unique_ptr<snn::InferenceSession> session;
  std::vector<std::vector<Fingerprint>> golden;  // [pool batch][sample], set on first run
  std::size_t next = 0;                          // next pool batch
  double run_s = 0.0;                            // InferenceSession::run wall time
  double price_s = 0.0;                          // price_trace wall time
  std::int64_t samples = 0;
  std::int64_t sops = 0;
  std::vector<double> batch_rate;                // samples/s of each batch, run + price
  std::vector<double> batch_run_us;              // run wall time per sample, each batch
  std::vector<double> sample_s;                  // per-sample run_sample durations
};

}  // namespace

Result run_offline(const Options& opts, SpanLog& spans) {
  Result r;

  // --- Set-up, repeated; the last one is kept. ------------------------------
  std::vector<double> setup_s, quant_s, pack_s;
  std::unique_ptr<snn::SnnNetwork> net;
  std::size_t pack_bytes = 0;
  const auto event_backend = snn::make_backend(snn::BackendKind::kEventSim);
  const auto quant_backend = snn::make_backend(snn::BackendKind::kQuantized);
  for (int i = 0; i < kSetups; ++i) {
    net.reset();
    const Scoped setup{spans, "bench.setup"};
    const Clock::time_point t0 = Clock::now();
    {
      const Scoped s{spans, "snn.net_build", setup.index()};
      Rng rng{kWeightSeed};
      net = std::make_unique<snn::SnnNetwork>(build_vgg16(rng));
    }
    const Clock::time_point t1 = Clock::now();
    {
      const Scoped s{spans, "cat.log_quantize_network", setup.index()};
      ttfs::cat::log_quantize_network(*net, ttfs::cat::LogQuantConfig{});
    }
    const Clock::time_point t2 = Clock::now();
    {
      const Scoped s{spans, "snn.ensure_ready", setup.index()};
      event_backend->ensure_ready(*net);
      quant_backend->ensure_ready(*net);
    }
    const Clock::time_point t3 = Clock::now();
    setup_s.push_back(seconds_between(t0, t3));
    quant_s.push_back(seconds_between(t1, t2));
    pack_s.push_back(seconds_between(t2, t3));
    pack_bytes = event_backend->resident_pack_bytes(*net) + quant_backend->resident_pack_bytes(*net);
  }

  // --- Inputs from the seed. -------------------------------------------------
  Rng rng{opts.seed};
  std::vector<Tensor> pool;
  for (std::size_t b = 0; b < kPoolBatches; ++b) {
    Tensor batch{{kBatch, 3, kImage, kImage}};
    for (std::int64_t i = 0; i < batch.numel(); ++i) batch[i] = rng.uniform_f(0.0F, 1.0F);
    pool.push_back(std::move(batch));
  }

  const snn::Engine engine{*net};
  snn::RunOptions ropts;
  ropts.traces = true;

  // --- Untimed oracle: event == reference, bit for bit, on a subset. -------
  {
    Tensor subset{{kReferenceSamples, 3, kImage, kImage}};
    std::memcpy(subset.data(), pool[0].data(),
                static_cast<std::size_t>(subset.numel()) * sizeof(float));
    auto ref = engine.session(snn::BackendKind::kReference).run(snn::BatchView{subset}, ropts);
    auto ev = engine.session(event_backend).run(snn::BatchView{subset}, ropts);
    for (std::int64_t i = 0; i < kReferenceSamples; ++i) {
      const auto k = static_cast<std::size_t>(i);
      if (fingerprint(ref.traces[k]) != fingerprint(ev.traces[k])) {
        r.fail("event backend differs from reference on sample " + std::to_string(i));
      }
    }
    if (std::memcmp(ref.logits.data(), ev.logits.data(),
                    static_cast<std::size_t>(ref.logits.numel()) * sizeof(float)) != 0) {
      r.fail("event logits are not bit-identical to the reference backend");
    }
  }

  snn::SessionOptions sopts;
  sopts.max_batch_hint = kBatch;
  sopts.input_shape = {3, kImage, kImage};
  Lane lanes[2];
  lanes[0].name = "event";
  lanes[0].backend = std::make_shared<TimingBackend>(event_backend, spans);
  lanes[1].name = "quantized";
  lanes[1].backend = std::make_shared<TimingBackend>(quant_backend, spans);
  for (Lane& lane : lanes) {
    lane.session = std::make_unique<snn::InferenceSession>(engine.session(lane.backend, sopts));
    lane.golden.resize(kPoolBatches);
    // Warm-up: the compute pool and each session's arenas come up before timing.
    Tensor one{{1, 3, kImage, kImage}};
    std::memcpy(one.data(), pool[0].data(), static_cast<std::size_t>(one.numel()) * sizeof(float));
    lane.session->run(snn::BatchView{one}, ropts);
    lane.backend->take_durations();
  }

  const ttfs::hw::SnnProcessorModel model{ttfs::hw::ArchConfig{}, ttfs::hw::default_tech()};
  TraceTotals totals;  // the event backend's first pass over the pool: exact for a seed

  // --- Timed window. ---------------------------------------------------------
  const auto pending_golden = [&](const Lane& lane) {
    return std::any_of(lane.golden.begin(), lane.golden.end(),
                       [](const auto& g) { return g.empty(); });
  };
  while (lanes[0].run_s + lanes[0].price_s + lanes[1].run_s + lanes[1].price_s < opts.seconds ||
         pending_golden(lanes[0]) || pending_golden(lanes[1])) {
    const double t_event = lanes[0].run_s + lanes[0].price_s;
    const double t_quant = lanes[1].run_s + lanes[1].price_s;
    Lane& lane = t_event <= t_quant ? lanes[0] : lanes[1];
    const std::size_t b = lane.next;
    lane.next = (lane.next + 1) % kPoolBatches;

    const Scoped batch_span{spans, "bench.batch"};
    snn::RunResult out;
    const Clock::time_point t0 = Clock::now();
    {
      const Scoped run_span{spans, "snn.run", batch_span.index()};
      lane.backend->set_parent(run_span.index());
      out = lane.session->run(snn::BatchView{pool[b]}, ropts);
    }
    const Clock::time_point t1 = Clock::now();
    std::vector<ttfs::hw::ProcessorReport> priced;
    for (const snn::EventTrace& t : out.traces) {
      const Scoped s{spans, "hw.price_trace", batch_span.index()};
      priced.push_back(ttfs::hw::price_trace(model, *net, t, kImage, kImage));
    }
    const Clock::time_point t2 = Clock::now();
    lane.run_s += seconds_between(t0, t1);
    lane.price_s += seconds_between(t1, t2);
    lane.samples += kBatch;
    lane.batch_rate.push_back(static_cast<double>(kBatch) / seconds_between(t0, t2));
    lane.batch_run_us.push_back(1e6 * seconds_between(t0, t1) / static_cast<double>(kBatch));
    r.attempted += static_cast<std::uint64_t>(kBatch);
    for (const auto& t : out.traces) lane.sops += t.total_integration_ops();

    // Every repeat of a batch must reproduce its first run exactly.
    const bool first = lane.golden[b].empty();
    for (std::size_t i = 0; i < out.traces.size(); ++i) {
      const Fingerprint f = fingerprint(out.traces[i]);
      if (first) {
        lane.golden[b].push_back(f);
      } else if (f != lane.golden[b][i]) {
        ++r.failed;
        r.fail(std::string{lane.name} + " backend is not deterministic on pool batch " +
               std::to_string(b) + " sample " + std::to_string(i));
      }
    }
    if (first && &lane == &lanes[0]) {
      for (std::size_t i = 0; i < out.traces.size(); ++i) totals.add(out.traces[i], priced[i]);
    }
  }
  for (Lane& lane : lanes) lane.sample_s = lane.backend->take_durations();

  // Quantized vs event: integer artifacts should agree on every sample; the
  // disagreement is reported as an exact count (see README, "Findings").
  double mismatch = 0;
  for (std::size_t b = 0; b < kPoolBatches; ++b) {
    for (std::size_t i = 0; i < static_cast<std::size_t>(kBatch); ++i) {
      const std::vector<std::int64_t>& e = lanes[0].golden[b][i].counts;
      const std::vector<std::int64_t>& q = lanes[1].golden[b][i].counts;
      for (std::size_t c = 0; c < e.size(); c += 3) mismatch += static_cast<double>(std::llabs(e[c] - q[c]));
    }
  }
  totals.report(r);

  const Lane& ev = lanes[0];
  const Lane& qu = lanes[1];
  std::vector<double> all_samples = ev.sample_s;
  all_samples.insert(all_samples.end(), qu.sample_s.begin(), qu.sample_s.end());
  double busy = 0;
  for (const double s : all_samples) busy += s;
  const double pool_threads = std::max(1U, ttfs::global_pool().size());

  // Rates are medians over batches, so a burst of interference from outside
  // the process moves them less than a whole-window mean would.
  const double ev_rate = median(ev.batch_rate);
  const double qu_rate = median(qu.batch_rate);
  r.e2e["setup_s"] = {median(setup_s), "s"};
  r.e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  r.e2e["inferences_per_s"] = {0.5 * (ev_rate + qu_rate), "1/s"};
  r.e2e["latency_p50_ms"] = {1e3 * quantile(all_samples, 0.50), "ms"};
  r.e2e["latency_p99_ms"] = {1e3 * quantile(all_samples, 0.99), "ms"};
  r.e2e["ok_share"] = {static_cast<double>(r.attempted - r.failed) / static_cast<double>(r.attempted), "share"};

  r.layer["cat.log_quantize_s"] = {median(quant_s), "s"};
  r.layer["snn.pack_build_s"] = {median(pack_s), "s"};
  r.layer["snn.pack_bytes"] = {static_cast<double>(pack_bytes), "bytes"};
  r.layer["snn.event.samples_per_s"] = {ev_rate, "1/s"};
  r.layer["snn.quantized.samples_per_s"] = {qu_rate, "1/s"};
  r.layer["snn.event.us_per_sample"] = {median(ev.batch_run_us), "us"};
  r.layer["snn.quantized.us_per_sample"] = {median(qu.batch_run_us), "us"};
  r.layer["snn.event.sops_per_s"] = {static_cast<double>(ev.sops) / ev.run_s, "1/s"};
  r.layer["snn.quantized.sops_per_s"] = {static_cast<double>(qu.sops) / qu.run_s, "1/s"};
  r.layer["snn.quantized.spike_mismatch_per_sample"] = {mismatch / totals.n, "count"};
  r.layer["snn.compute_us_per_sample"] = {1e6 * busy / static_cast<double>(all_samples.size()), "us"};
  r.layer["snn.busy_share"] = {busy / (pool_threads * (ev.run_s + qu.run_s)), "share"};
  r.layer["hw.price_us_per_trace"] = {1e6 * (ev.price_s + qu.price_s) /
                                          static_cast<double>(ev.samples + qu.samples), "us"};
  return r;
}

}  // namespace perfbench
