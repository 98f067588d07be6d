// Finite-buffer behaviour: BoundedQueue semantics and gaming-packet loss
// against the M/D/1/B overflow approximation.
#include <cmath>

#include <gtest/gtest.h>

#include "dist/rng.h"
#include "queueing/mg1.h"
#include "sim/event_kernel.h"
#include "sim/gaming_scenario.h"
#include "sim/link.h"
#include "sim/queues.h"

namespace fpsq::sim {
namespace {

SimPacket mk(std::uint64_t id, TrafficClass cls = TrafficClass::kInteractive) {
  SimPacket p;
  p.id = id;
  p.size_bytes = 100;
  p.traffic_class = cls;
  return p;
}

TEST(BoundedQueue, TailDropsAboveCapacity) {
  int dropped = 0;
  BoundedQueue q{make_fifo(), 2,
                 [&dropped](const SimPacket&) { ++dropped; }};
  q.enqueue(mk(1));
  q.enqueue(mk(2));
  q.enqueue(mk(3));  // dropped
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.drops(), 1u);
  EXPECT_EQ(dropped, 1);
  EXPECT_EQ(q.dequeue()->id, 1u);
  q.enqueue(mk(4));  // fits again
  EXPECT_EQ(q.drops(), 1u);
  EXPECT_EQ(q.dequeue()->id, 2u);
  EXPECT_EQ(q.dequeue()->id, 4u);
  EXPECT_FALSE(q.dequeue().has_value());
}

TEST(BoundedQueue, Guards) {
  EXPECT_THROW(BoundedQueue(nullptr, 2), std::invalid_argument);
  EXPECT_THROW(BoundedQueue(make_fifo(), 0), std::invalid_argument);
}

TEST(BoundedQueue, WrapsPriorityDiscipline) {
  BoundedQueue q{make_hol_priority(), 2};
  q.enqueue(mk(1, TrafficClass::kElastic));
  q.enqueue(mk(2, TrafficClass::kInteractive));
  q.enqueue(mk(3, TrafficClass::kInteractive));  // dropped (full)
  EXPECT_EQ(q.drops(), 1u);
  EXPECT_EQ(q.dequeue()->id, 2u);  // priority order preserved
}

TEST(GamingScenario, UnboundedBufferNeverDrops) {
  GamingScenarioConfig cfg;
  cfg.n_clients = 40;
  cfg.duration_s = 20.0;
  cfg.warmup_s = 1.0;
  const auto r = run_gaming_scenario(cfg);
  EXPECT_EQ(r.upstream_gaming_drops, 0u);
  EXPECT_EQ(r.downstream_gaming_drops, 0u);
  EXPECT_DOUBLE_EQ(r.downstream_loss(), 0.0);
}

TEST(GamingScenario, TinyBufferDropsDownstreamBursts) {
  // A 60-packet burst into a 16-packet buffer must shed load.
  GamingScenarioConfig cfg;
  cfg.n_clients = 60;
  cfg.tick_ms = 40.0;
  cfg.duration_s = 20.0;
  cfg.warmup_s = 1.0;
  cfg.bottleneck_buffer_packets = 16;
  const auto r = run_gaming_scenario(cfg);
  EXPECT_GT(r.downstream_gaming_drops, 0u);
  EXPECT_GT(r.downstream_loss(), 0.2);
  // Upstream packets are tiny and paced: a 16-slot buffer is plenty.
  EXPECT_LT(r.upstream_loss(), 0.01);
}

TEST(GamingScenario, LossDecreasesWithBufferSize) {
  GamingScenarioConfig cfg;
  cfg.n_clients = 80;
  cfg.tick_ms = 40.0;
  cfg.duration_s = 20.0;
  cfg.warmup_s = 1.0;
  double prev = 1.0;
  for (std::size_t buf : {20u, 60u, 120u}) {
    cfg.bottleneck_buffer_packets = buf;
    const auto r = run_gaming_scenario(cfg);
    EXPECT_LE(r.downstream_loss(), prev + 1e-9) << "buf=" << buf;
    prev = r.downstream_loss();
  }
  EXPECT_LT(prev, 0.01);
}

TEST(MD1Loss, ApproximationTracksPoissonLinkSimulation) {
  // Poisson arrivals of fixed packets into a bounded Link: loss vs the
  // M/D/1/B overflow approximation.
  const double d = 8e-3;          // 1000 B at 1 Mb/s
  const double lambda = 0.8 / d;  // rho = 0.8
  const queueing::MD1 md1{lambda, d};
  for (int buf : {5, 10, 20}) {
    Simulator sim;
    std::uint64_t arrivals = 0;
    auto bounded = std::make_unique<BoundedQueue>(
        make_fifo(), static_cast<std::size_t>(buf));
    auto* bounded_raw = bounded.get();
    Link link{sim, 1e6, std::move(bounded), [](SimPacket&&) {}};
    dist::Rng rng{17};
    auto arrive = std::make_shared<std::function<void()>>();
    const std::weak_ptr<std::function<void()>> weak_arrive = arrive;
    *arrive = [&sim, &link, &rng, &arrivals, lambda, weak_arrive]() {
      SimPacket p;
      p.size_bytes = 1000;
      ++arrivals;
      link.send(std::move(p));
      if (auto self = weak_arrive.lock()) {
        sim.schedule_in(rng.exponential(lambda), [self]() { (*self)(); });
      }
    };
    sim.schedule_at(0.0, [arrive]() { (*arrive)(); });
    sim.run_until(2000.0);
    const double sim_loss =
        static_cast<double>(bounded_raw->drops()) /
        static_cast<double>(arrivals);
    const double approx = md1.loss_probability_approx(buf);
    // Overflow surrogates are order-of-magnitude tools; demand factor 3.
    EXPECT_GT(approx, sim_loss / 3.0) << "buf=" << buf;
    EXPECT_LT(approx, sim_loss * 3.0 + 1e-4) << "buf=" << buf;
  }
}

TEST(MD1Loss, MonotoneAndGuarded) {
  const queueing::MD1 md1{70.0, 0.01};  // rho = 0.7
  double prev = 1.0;
  for (int b : {1, 2, 5, 10, 30}) {
    const double l = md1.loss_probability_approx(b);
    EXPECT_LE(l, prev + 1e-12) << "b=" << b;
    prev = l;
  }
  EXPECT_THROW(md1.loss_probability_approx(0), std::invalid_argument);
}

}  // namespace
}  // namespace fpsq::sim
