// Unit tests for the serving subsystem: MicroBatcher flush policy and
// SnnServer request lifecycle (serve / cancel / drain / reject) on both
// backends, including the zero-thread (inline) compute-pool mode.
//
// Determinism under many concurrent submitters is covered separately in
// serve_stress_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "serve/batcher.h"
#include "serve/server.h"
#include "snn/engine.h"
#include "snn/event_sim.h"
#include "snn/network.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ttfs::serve {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;

Tensor random_tensor(std::vector<std::int64_t> shape, Rng& rng, float lo, float hi) {
  Tensor t{std::move(shape)};
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform_f(lo, hi);
  return t;
}

// Small conv/pool/fc stack on 3x8x8 inputs; cheap enough for TSan runs.
snn::SnnNetwork make_net(Rng& rng) {
  snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
  net.add_conv(random_tensor({8, 3, 3, 3}, rng, -0.15F, 0.25F),
               random_tensor({8}, rng, -0.05F, 0.1F), 1, 1);
  net.add_pool(2, 2);
  net.add_fc(random_tensor({10, 8 * 4 * 4}, rng, -0.1F, 0.12F),
             random_tensor({10}, rng, -0.05F, 0.05F));
  return net;
}

std::vector<Tensor> make_images(Rng& rng, std::int64_t n) {
  std::vector<Tensor> images;
  images.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    images.push_back(random_tensor({3, 8, 8}, rng, 0.0F, 1.0F));
  }
  return images;
}

PendingRequest make_request(std::uint64_t id) {
  PendingRequest req;
  req.id = id;
  req.image = Tensor{{1}};
  req.enqueued = std::chrono::steady_clock::now();
  return req;
}

void expect_rows_equal(const Tensor& got, const Tensor& want, const std::string& what) {
  ASSERT_EQ(got.numel(), want.numel()) << what;
  for (std::int64_t j = 0; j < want.numel(); ++j) {
    EXPECT_EQ(got[j], want[j]) << what << " logit " << j;
  }
}

// --- MicroBatcher ---

TEST(MicroBatcher, FlushOnSizeBeatsDeadline) {
  MicroBatcher batcher{{4, microseconds{60'000'000}}};  // deadline effectively off
  for (std::uint64_t id = 1; id <= 4; ++id) {
    auto req = make_request(id);
    ASSERT_EQ(batcher.push(req), PushOutcome::kQueued);
  }
  const auto start = std::chrono::steady_clock::now();
  const auto batch = batcher.pop_batch();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_EQ(batch.size(), 4U);
  // Size-triggered: returns immediately, nowhere near the 60s deadline.
  EXPECT_LT(elapsed, std::chrono::seconds{10});
  batcher.close();
}

TEST(MicroBatcher, FlushOnDeadlineWithPartialBatch) {
  const microseconds delay{50'000};
  MicroBatcher batcher{{8, delay}};
  for (std::uint64_t id = 1; id <= 3; ++id) {
    auto req = make_request(id);
    ASSERT_EQ(batcher.push(req), PushOutcome::kQueued);
  }
  const auto start = std::chrono::steady_clock::now();
  const auto batch = batcher.pop_batch();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_EQ(batch.size(), 3U);  // flushed below max_batch
  // The oldest request was already ~0 old when pop started, so the wait is
  // the full max_delay (minus scheduling slop).
  EXPECT_GE(elapsed, milliseconds{35});
  batcher.close();
}

TEST(MicroBatcher, PopsFifo) {
  MicroBatcher batcher{{3, microseconds{1000}}};
  for (std::uint64_t id = 10; id < 16; ++id) {
    auto req = make_request(id);
    ASSERT_EQ(batcher.push(req), PushOutcome::kQueued);
  }
  const auto first = batcher.pop_batch();
  const auto second = batcher.pop_batch();
  ASSERT_EQ(first.size(), 3U);
  ASSERT_EQ(second.size(), 3U);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(first[i].id, 10U + i);
    EXPECT_EQ(second[i].id, 13U + i);
  }
  batcher.close();
}

TEST(MicroBatcher, CancelRemovesOnlyQueued) {
  MicroBatcher batcher{{8, microseconds{60'000'000}}};
  for (std::uint64_t id = 1; id <= 3; ++id) {
    auto req = make_request(id);
    ASSERT_EQ(batcher.push(req), PushOutcome::kQueued);
  }
  auto removed = batcher.cancel(2);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(removed->id, 2U);
  EXPECT_FALSE(batcher.cancel(2).has_value());   // already gone
  EXPECT_FALSE(batcher.cancel(99).has_value());  // never existed
  EXPECT_EQ(batcher.depth(), 2U);
  batcher.close();
  const auto batch = batcher.pop_batch();
  ASSERT_EQ(batch.size(), 2U);
  EXPECT_EQ(batch[0].id, 1U);
  EXPECT_EQ(batch[1].id, 3U);
}

TEST(MicroBatcher, CloseDrainsInSizeCappedBatchesThenEmpty) {
  MicroBatcher batcher{{8, microseconds{60'000'000}}};
  for (std::uint64_t id = 1; id <= 20; ++id) {
    auto req = make_request(id);
    ASSERT_EQ(batcher.push(req), PushOutcome::kQueued);
  }
  batcher.close();
  auto req = make_request(21);
  EXPECT_EQ(batcher.push(req), PushOutcome::kClosed);  // refused after close
  EXPECT_EQ(batcher.pop_batch().size(), 8U);
  EXPECT_EQ(batcher.pop_batch().size(), 8U);
  EXPECT_EQ(batcher.pop_batch().size(), 4U);
  EXPECT_TRUE(batcher.pop_batch().empty());  // drained: shutdown signal
  EXPECT_TRUE(batcher.pop_batch().empty());  // and stays that way
}

// The server's replica threads pop straight from the batcher, so its drain
// contract is the batcher's own under concurrent consumers: two threads race
// in pop_batch() over one lane of 3*max_batch+1 requests, the last of which
// only leaves on close(). Every request comes out exactly once, in batches
// of at most max_batch, and BOTH consumers get the empty drain signal.
TEST(MicroBatcher, ConcurrentConsumersDrainEveryRequestOnce) {
  constexpr std::int64_t kMaxBatch = 4;
  constexpr std::uint64_t kRequests = 3 * kMaxBatch + 1;
  MicroBatcher batcher{{kMaxBatch, microseconds{60'000'000}}};  // size or close only
  for (std::uint64_t id = 1; id <= kRequests; ++id) {
    auto req = make_request(id);
    ASSERT_EQ(batcher.push(req), PushOutcome::kQueued);
  }
  std::vector<std::vector<std::uint64_t>> popped[2];
  std::vector<std::thread> consumers;
  for (auto& mine : popped) {
    consumers.emplace_back([&batcher, &mine] {
      for (;;) {
        const std::vector<PendingRequest> batch = batcher.pop_batch();
        if (batch.empty()) return;  // the drain signal
        std::vector<std::uint64_t> ids;
        for (const PendingRequest& req : batch) ids.push_back(req.id);
        mine.push_back(std::move(ids));
      }
    });
  }
  // The three full batches leave on the size trigger; the lone remainder
  // waits for close().
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds{30};
  while (batcher.depth() > 1 && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(milliseconds{1});
  }
  EXPECT_EQ(batcher.depth(), 1U);
  batcher.close();
  for (std::thread& t : consumers) t.join();  // returns only on the empty batch

  std::vector<int> seen(kRequests + 1, 0);
  for (const auto& mine : popped) {
    for (const auto& ids : mine) {
      EXPECT_GE(ids.size(), 1U);
      EXPECT_LE(ids.size(), static_cast<std::size_t>(kMaxBatch));
      for (const std::uint64_t id : ids) {
        ASSERT_GE(id, 1U);
        ASSERT_LE(id, kRequests);
        ++seen[id];
      }
    }
  }
  for (std::uint64_t id = 1; id <= kRequests; ++id) EXPECT_EQ(seen[id], 1) << "request " << id;
  EXPECT_TRUE(batcher.pop_batch().empty());  // and stays drained
}

// --- SnnServer ---

// Serves sequential round trips on the given backend and checks every result
// against that backend's sequential golden.
void serve_and_match(snn::BackendKind backend, ThreadPool* pool) {
  Rng rng{7};
  const snn::SnnNetwork net = make_net(rng);
  const auto images = make_images(rng, 6);

  ServeOptions opts;
  opts.max_batch = 4;
  opts.max_delay = microseconds{500};
  opts.backend = snn::make_backend(backend);
  opts.pool = pool;
  SnnServer server{net, {3, 8, 8}, opts};

  for (std::size_t i = 0; i < images.size(); ++i) {
    auto sub = server.submit(images[i]);
    ServeResult r = sub.result.get();
    ASSERT_EQ(r.status, RequestStatus::kOk) << "request " << i;
    Tensor golden;
    if (backend == snn::BackendKind::kEventSim) {
      golden = snn::run_event_sim(net, images[i]).logits;
    } else {
      golden = net.forward(images[i].reshaped({1, 3, 8, 8}));
    }
    expect_rows_equal(r.logits, golden, "request " + std::to_string(i));
    EXPECT_GE(r.predicted, 0);
    EXPECT_LT(r.predicted, 10);
    EXPECT_GT(r.latency_seconds, 0.0);
    // Per-request stats: exactly this one image's activity.
    EXPECT_EQ(r.stats.images, 1);
    ASSERT_EQ(r.stats.spikes_per_layer.size(), net.weighted_layer_count());
    EXPECT_GT(r.stats.spikes_per_layer[0], 0);  // input encoding fires
  }
  server.stop();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, images.size());
  EXPECT_EQ(stats.completed, images.size());
  EXPECT_EQ(stats.queue_depth, 0U);
}

TEST(SnnServer, ServesEventSimBackend) {
  serve_and_match(snn::BackendKind::kEventSim, nullptr);
}

TEST(SnnServer, ServesGemmBackend) { serve_and_match(snn::BackendKind::kGemm, nullptr); }

TEST(SnnServer, ZeroThreadPoolRunsInline) {
  ThreadPool inline_pool{0};
  serve_and_match(snn::BackendKind::kEventSim, &inline_pool);
  serve_and_match(snn::BackendKind::kGemm, &inline_pool);
}

// Replica-sharded round trips: every result must match the sequential golden
// whichever replica session served it, and the per-replica stats must tile
// the totals.
TEST(SnnServer, ReplicaShardedServesBitIdentical) {
  Rng rng{97};
  const snn::SnnNetwork net = make_net(rng);
  const auto images = make_images(rng, 9);

  ServeOptions opts;
  opts.max_batch = 2;
  opts.max_delay = microseconds{200};
  opts.replicas = 3;
  SnnServer server{net, {3, 8, 8}, opts};
  EXPECT_EQ(server.replicas(), 3);

  std::vector<SnnServer::Submission> subs;
  for (const Tensor& img : images) subs.push_back(server.submit(img));
  for (std::size_t i = 0; i < subs.size(); ++i) {
    ServeResult r = subs[i].result.get();
    ASSERT_EQ(r.status, RequestStatus::kOk) << "request " << i;
    expect_rows_equal(r.logits, snn::run_event_sim(net, images[i]).logits,
                      "request " + std::to_string(i));
  }
  server.stop();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, images.size());
  ASSERT_EQ(stats.replicas.size(), 3U);
  std::uint64_t completed = 0, batches = 0;
  for (const ReplicaStats& r : stats.replicas) {
    completed += r.completed;
    batches += r.batches;
    if (r.completed > 0) EXPECT_GT(r.latency_p50_ms, 0.0);
  }
  EXPECT_EQ(completed, stats.completed);
  EXPECT_EQ(batches, stats.batches_formed);
}

// A caller-defined backend: decorates the stock event simulator with a
// per-sample call counter, and optionally throws from every sample instead.
// Proves ServeOptions::backend is genuine polymorphic injection — the server
// runs whatever realization it is handed, with results identical to the
// wrapped backend's own — and that a backend failure resolves every request
// once and is counted.
class CountingBackend final : public snn::InferenceBackend {
 public:
  explicit CountingBackend(bool throws) : throws_{throws} {}
  std::string name() const override { return "counting"; }
  bool supports_traces() const override { return inner_->supports_traces(); }
  bool uses_arena() const override { return inner_->uses_arena(); }
  bool needs_packed_weights() const override { return inner_->needs_packed_weights(); }
  void run_sample(const snn::SnnNetwork& net, const snn::BatchView& batch, std::int64_t i,
                  snn::SimArena& arena, const snn::SampleSlots& slots) const override {
    samples_run_.fetch_add(1, std::memory_order_relaxed);
    if (throws_) throw std::runtime_error("injected backend failure");
    inner_->run_sample(net, batch, i, arena, slots);
  }
  std::int64_t samples_run() const { return samples_run_.load(std::memory_order_relaxed); }

 private:
  const bool throws_;
  std::shared_ptr<const snn::InferenceBackend> inner_ =
      snn::make_backend(snn::BackendKind::kEventSim);
  mutable std::atomic<std::int64_t> samples_run_{0};
};

void serve_with_injected_backend(bool throws) {
  Rng rng{37};
  const snn::SnnNetwork net = make_net(rng);
  const auto images = make_images(rng, 5);

  auto counting = std::make_shared<const CountingBackend>(throws);
  ServeOptions opts;
  opts.max_batch = 2;
  opts.max_delay = microseconds{500};
  opts.backend = counting;
  SnnServer server{net, {3, 8, 8}, opts};
  EXPECT_EQ(server.backend().name(), "counting");

  for (std::size_t i = 0; i < images.size(); ++i) {
    if (throws) {
      // Future consumers see the backend's exception; callback consumers
      // get kFailed. Either way the request resolves exactly once.
      auto sub = server.submit(images[i]);
      EXPECT_THROW(sub.result.get(), std::runtime_error) << "request " << i;
      std::promise<ServeResult> done;
      server.submit_async(server.default_model(), images[i],
                          [&done](ServeResult r) { done.set_value(std::move(r)); });
      EXPECT_EQ(done.get_future().get().status, RequestStatus::kFailed) << "request " << i;
      continue;
    }
    auto sub = server.submit(images[i]);
    ServeResult r = sub.result.get();
    ASSERT_EQ(r.status, RequestStatus::kOk) << "request " << i;
    // The decorator delegates to the event simulator, so logits must equal
    // its sequential golden bit for bit.
    expect_rows_equal(r.logits, snn::run_event_sim(net, images[i]).logits,
                      "request " + std::to_string(i));
  }
  server.stop();
  const std::uint64_t requests = images.size() * (throws ? 2 : 1);
  EXPECT_EQ(counting->samples_run(), static_cast<std::int64_t>(requests));
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, requests);
  EXPECT_EQ(stats.completed, throws ? 0U : requests);
  EXPECT_EQ(stats.failed, throws ? requests : 0U);
  EXPECT_EQ(stats.submitted, stats.completed + stats.cancelled + stats.rejected +
                                 stats.rejected_overload + stats.shed + stats.failed);
}

TEST(SnnServer, InjectedCustomBackendServesRequests) { serve_with_injected_backend(false); }

TEST(SnnServer, InjectedThrowingBackendFailsEachRequestOnce) {
  serve_with_injected_backend(true);
}

TEST(SnnServer, FifoCompletionWithinBatch) {
  Rng rng{11};
  const snn::SnnNetwork net = make_net(rng);
  const auto images = make_images(rng, 4);

  ServeOptions opts;
  opts.max_batch = 4;                        // exactly one flush for 4 requests
  opts.max_delay = microseconds{60'000'000};  // deadline can't split them
  SnnServer server{net, {3, 8, 8}, opts};

  std::vector<SnnServer::Submission> subs;
  for (const Tensor& img : images) subs.push_back(server.submit(img));
  // FIFO completion: once the last future of the batch resolves, every
  // earlier one must already be resolved.
  ServeResult last = subs.back().result.get();
  ASSERT_EQ(last.status, RequestStatus::kOk);
  for (std::size_t i = 0; i + 1 < subs.size(); ++i) {
    EXPECT_EQ(subs[i].result.wait_for(std::chrono::seconds{0}), std::future_status::ready)
        << "request " << i << " not resolved before the batch tail";
    ServeResult r = subs[i].result.get();
    EXPECT_EQ(r.status, RequestStatus::kOk);
    expect_rows_equal(r.logits, snn::run_event_sim(net, images[i]).logits,
                      "request " + std::to_string(i));
  }
  server.stop();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.batches_formed, 1U);
  EXPECT_DOUBLE_EQ(stats.mean_batch_size, 4.0);
}

TEST(SnnServer, CancelBeforeBatchFormation) {
  Rng rng{13};
  const snn::SnnNetwork net = make_net(rng);
  const auto images = make_images(rng, 1);

  ServeOptions opts;
  opts.max_batch = 8;                     // a single request never size-flushes
  opts.max_delay = microseconds{2'000'000};  // and won't deadline-flush soon
  SnnServer server{net, {3, 8, 8}, opts};

  auto sub = server.submit(images[0]);
  EXPECT_TRUE(server.cancel(sub.id));
  EXPECT_FALSE(server.cancel(sub.id));  // second cancel finds nothing
  ServeResult r = sub.result.get();
  EXPECT_EQ(r.status, RequestStatus::kCancelled);
  EXPECT_TRUE(r.logits.empty());
  EXPECT_EQ(r.predicted, -1);
  server.stop();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.cancelled, 1U);
  EXPECT_EQ(stats.completed, 0U);
}

TEST(SnnServer, CancelAfterCompletionFails) {
  Rng rng{17};
  const snn::SnnNetwork net = make_net(rng);
  const auto images = make_images(rng, 1);

  ServeOptions opts;
  opts.max_batch = 1;  // flushes the moment it is queued
  SnnServer server{net, {3, 8, 8}, opts};

  auto sub = server.submit(images[0]);
  ServeResult r = sub.result.get();  // batch formed and served
  ASSERT_EQ(r.status, RequestStatus::kOk);
  EXPECT_FALSE(server.cancel(sub.id));
  server.stop();
}

TEST(SnnServer, ShutdownDrainsPendingRequests) {
  Rng rng{19};
  const snn::SnnNetwork net = make_net(rng);
  const auto images = make_images(rng, 5);

  ServeOptions opts;
  opts.max_batch = 64;                        // nothing size-flushes
  opts.max_delay = microseconds{60'000'000};  // nothing deadline-flushes
  SnnServer server{net, {3, 8, 8}, opts};

  std::vector<SnnServer::Submission> subs;
  for (const Tensor& img : images) subs.push_back(server.submit(img));
  const auto start = std::chrono::steady_clock::now();
  server.stop();  // must drain all 5, not wait out the 60s deadline
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds{30});
  for (std::size_t i = 0; i < subs.size(); ++i) {
    ServeResult r = subs[i].result.get();
    ASSERT_EQ(r.status, RequestStatus::kOk) << "request " << i;
    expect_rows_equal(r.logits, snn::run_event_sim(net, images[i]).logits,
                      "request " + std::to_string(i));
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, images.size());
  EXPECT_EQ(stats.queue_depth, 0U);
}

TEST(SnnServer, RejectsAfterStop) {
  Rng rng{23};
  const snn::SnnNetwork net = make_net(rng);
  const auto images = make_images(rng, 1);

  SnnServer server{net, {3, 8, 8}, {}};
  server.stop();
  auto sub = server.submit(images[0]);
  ASSERT_EQ(sub.result.wait_for(std::chrono::seconds{0}), std::future_status::ready);
  ServeResult r = sub.result.get();
  EXPECT_EQ(r.status, RequestStatus::kRejected);
  EXPECT_EQ(server.stats().rejected, 1U);
}

TEST(SnnServer, RejectsWrongShape) {
  Rng rng{29};
  const snn::SnnNetwork net = make_net(rng);
  SnnServer server{net, {3, 8, 8}, {}};
  EXPECT_THROW(server.submit(Tensor{{3, 4, 4}}), std::invalid_argument);
  EXPECT_THROW(server.submit(Tensor{{3 * 8 * 8}}), std::invalid_argument);
  server.stop();
}

TEST(SnnServer, StatsSnapshotIsConsistent) {
  Rng rng{31};
  const snn::SnnNetwork net = make_net(rng);
  const auto images = make_images(rng, 8);

  ServeOptions opts;
  opts.max_batch = 4;
  opts.max_delay = microseconds{500};
  SnnServer server{net, {3, 8, 8}, opts};
  std::vector<SnnServer::Submission> subs;
  for (const Tensor& img : images) subs.push_back(server.submit(img));
  for (auto& sub : subs) ASSERT_EQ(sub.result.get().status, RequestStatus::kOk);
  server.stop();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 8U);
  EXPECT_EQ(stats.completed, 8U);
  EXPECT_GE(stats.batches_formed, 1U);
  EXPECT_LE(stats.batches_formed, 8U);
  EXPECT_GT(stats.mean_batch_size, 0.0);
  EXPECT_LE(stats.mean_batch_size, 4.0);
  EXPECT_GT(stats.latency_p50_ms, 0.0);
  EXPECT_LE(stats.latency_p50_ms, stats.latency_p95_ms);
  EXPECT_FALSE(stats.describe().empty());
}

}  // namespace
}  // namespace ttfs::serve
