// Unit tests for src/sim: event queue determinism, timers, the network's
// synchrony/fault model, CPU and bandwidth accounting, and metrics.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "crypto/keystore.h"
#include "sim/actor.h"
#include "sim/message.h"
#include "sim/metrics.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace bftlab {
namespace {

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(30, [&] { order.push_back(3); });
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  EXPECT_TRUE(sim.RunUntil(100));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 100u);
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(SimulatorTest, SameTimeEventsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.Schedule(10, [&order, i] { order.push_back(i); });
  }
  sim.RunUntil(100);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, DeadlineStopsExecution) {
  Simulator sim;
  int ran = 0;
  sim.Schedule(10, [&] { ++ran; });
  sim.Schedule(200, [&] { ++ran; });
  EXPECT_FALSE(sim.RunUntil(100));
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(sim.RunUntil(300));
  EXPECT_EQ(ran, 2);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  int ran = 0;
  EventId id = sim.ScheduleCancelable(10, [&] { ++ran; });
  sim.Cancel(id);
  sim.RunUntil(100);
  EXPECT_EQ(ran, 0);
  EXPECT_TRUE(sim.Idle());
}

TEST(SimulatorTest, CancelAfterFireIsNoop) {
  Simulator sim;
  int ran = 0;
  EventId id = sim.ScheduleCancelable(10, [&] { ++ran; });
  sim.RunUntil(100);
  sim.Cancel(id);  // Already fired.
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(sim.Idle());
}

TEST(SimulatorTest, StaleEventIdAfterSlotReuseIsSafe) {
  // Slots recycle through a free list, so a fired timer's EventId may
  // name a slot now owned by a newer timer. The generation stamp must
  // make the stale handle a no-op instead of killing the new timer.
  Simulator sim;
  int a_fires = 0, b_fires = 0;
  EventId a = sim.ScheduleCancelable(10, [&] { ++a_fires; });
  sim.RunUntil(20);
  EXPECT_EQ(a_fires, 1);
  EventId b = sim.ScheduleCancelable(10, [&] { ++b_fires; });
  EXPECT_NE(a, b);  // Same slot, different generation.
  sim.Cancel(a);    // Stale: must not touch b.
  sim.Cancel(a);    // Idempotent on stale handles too.
  sim.RunUntil(40);
  EXPECT_EQ(b_fires, 1);
  EXPECT_TRUE(sim.Idle());
}

TEST(SimulatorTest, DoubleCancelAndInvalidCancelAreNoops) {
  Simulator sim;
  int ran = 0;
  EventId id = sim.ScheduleCancelable(10, [&] { ++ran; });
  sim.Cancel(id);
  sim.Cancel(id);             // Second cancel of a tombstone.
  sim.Cancel(kInvalidEvent);  // Null handle.
  sim.Cancel(~EventId{0});    // Out-of-range slot.
  EXPECT_EQ(sim.live_events(), 0u);
  sim.RunUntil(100);
  EXPECT_EQ(ran, 0);
  EXPECT_TRUE(sim.Idle());
}

TEST(SimulatorTest, RearmChurnOnlyLastArmedTimerFires) {
  // The network-timer pattern: one logical timer disarmed and rearmed
  // many times. Exactly the final arming may fire. Tombstones hold their
  // slot until their scheduled time passes, so after a full drain the
  // pool is recycled: a second churn round allocates no new slots.
  Simulator sim;
  int fires = 0;
  EventId id = kInvalidEvent;
  for (int i = 0; i < 1000; ++i) {
    sim.Cancel(id);
    id = sim.ScheduleCancelable(50, [&] { ++fires; });
  }
  sim.RunUntil(100);
  EXPECT_EQ(fires, 1);
  EXPECT_TRUE(sim.Idle());
  EXPECT_EQ(sim.live_events(), 0u);
  size_t pool = sim.cancelable_slots();
  id = kInvalidEvent;
  for (int i = 0; i < 1000; ++i) {
    sim.Cancel(id);
    id = sim.ScheduleCancelable(50, [&] { ++fires; });
  }
  sim.RunUntil(200);
  EXPECT_EQ(fires, 2);
  EXPECT_TRUE(sim.Idle());
  EXPECT_EQ(sim.cancelable_slots(), pool);
}

TEST(SimulatorTest, ChurnStressHundredThousandTimers) {
  // 100k schedule/cancel/rearm operations with RunUntil interleaved.
  // EventIds recycle, so fires are tracked per unique token, never by id.
  Simulator sim;
  Rng rng(42);
  constexpr size_t kTimers = 100000;
  struct Armed {
    EventId id;
    size_t token;
  };
  std::vector<Armed> armed;
  std::vector<char> fired(kTimers, 0);
  std::vector<char> canceled(kTimers, 0);
  uint64_t expected_fires = 0;
  for (size_t token = 0; token < kTimers; ++token) {
    SimTime delay = 1 + rng.NextBelow(1000);
    EventId id = sim.ScheduleCancelable(delay, [&fired, token] {
      ASSERT_FALSE(fired[token]) << "timer " << token << " fired twice";
      fired[token] = 1;
    });
    armed.push_back({id, token});
    if (rng.NextBool(0.4)) {
      // Cancel a random earlier timer; its id may be stale (already
      // fired, slot reused) — Cancel must only take on the live one.
      const Armed& victim = armed[rng.NextBelow(armed.size())];
      sim.Cancel(victim.id);
      if (!fired[victim.token] && !canceled[victim.token]) {
        canceled[victim.token] = 1;
      }
    }
    if (token % 1024 == 0) sim.RunUntil(sim.now() + 500);
  }
  sim.RunUntil(sim.now() + 1001);  // All delays <= 1000: full drain.

  EXPECT_TRUE(sim.Idle());
  EXPECT_EQ(sim.live_events(), 0u);
  for (size_t token = 0; token < kTimers; ++token) {
    ASSERT_EQ(fired[token] != 0, canceled[token] == 0)
        << "timer " << token << (canceled[token] ? " fired after cancel"
                                                 : " never fired");
    if (!canceled[token]) ++expected_fires;
  }
  // Canceled events never execute, and events_processed counts exactly
  // the fired ones.
  EXPECT_EQ(sim.events_processed(), expected_fires);
  // Tombstone memory: the slot pool tracks peak concurrency, not total
  // churn — with periodic drains it must stay far below 100k slots.
  EXPECT_LE(sim.cancelable_slots(), kTimers / 10);
}

TEST(SimulatorTest, EventsScheduledDuringEventsRun) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.Schedule(10, recurse);
  };
  sim.Schedule(0, recurse);
  sim.RunUntil(1000);
  EXPECT_EQ(depth, 5);
}

TEST(SimulatorTest, RunUntilPredicate) {
  Simulator sim;
  int count = 0;
  for (int i = 0; i < 10; ++i) sim.Schedule(10 * (i + 1), [&] { ++count; });
  EXPECT_TRUE(sim.RunUntilPredicate([&] { return count == 3; }, 1000));
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.now(), 30u);
}

// ---------------------------------------------------------------------------
// Controlled scheduling (schedule-explorer hook).

SimEventLabel DeliverLabel(NodeId node) {
  SimEventLabel label;
  label.kind = SimEventKind::kDeliver;
  label.node = node;
  return label;
}

TEST(SimulatorTest, ControlledModeExposesAndRunsChoices) {
  Simulator sim;
  sim.SetControlled(true);
  std::vector<int> order;
  sim.Schedule(10, DeliverLabel(1), [&] { order.push_back(1); });
  sim.Schedule(20, DeliverLabel(2), [&] { order.push_back(2); });
  sim.Schedule(30, DeliverLabel(3), [&] { order.push_back(3); });
  std::vector<SimEventInfo> choices = sim.Choices();
  ASSERT_EQ(choices.size(), 3u);
  // Sorted by (time, seq); label survives the round trip.
  EXPECT_EQ(choices[0].label.node, 1u);
  EXPECT_EQ(choices[2].label.node, 3u);
  // Run the latest first: time jumps to its scheduled time and never
  // goes backwards when the earlier events run afterwards.
  EXPECT_TRUE(sim.RunChoice(choices[2].id));
  EXPECT_EQ(sim.now(), 30u);
  EXPECT_TRUE(sim.RunChoice(choices[0].id));
  EXPECT_EQ(sim.now(), 30u);
  EXPECT_TRUE(sim.RunChoice(choices[1].id));
  EXPECT_EQ(order, (std::vector<int>{3, 1, 2}));
  EXPECT_TRUE(sim.Idle());
  EXPECT_TRUE(sim.Choices().empty());
}

TEST(SimulatorTest, ControlledModeForcesInternalEventsFirst) {
  Simulator sim;
  sim.SetControlled(true);
  std::vector<int> order;
  sim.Schedule(10, DeliverLabel(1), [&] { order.push_back(1); });
  sim.Schedule(50, [&] { order.push_back(0); });  // Unlabeled = internal.
  std::vector<SimEventInfo> choices = sim.Choices();
  // The internal event is the only choice offered, even though a
  // delivery is scheduled earlier: internal machinery is never a
  // decision point.
  ASSERT_EQ(choices.size(), 1u);
  EXPECT_EQ(choices[0].label.kind, SimEventKind::kInternal);
  EXPECT_TRUE(sim.RunChoice(choices[0].id));
  choices = sim.Choices();
  ASSERT_EQ(choices.size(), 1u);
  EXPECT_EQ(choices[0].label.kind, SimEventKind::kDeliver);
}

TEST(SimulatorTest, ControlledChoiceIdMatchesTimerHandle) {
  // Cancelable events expose their EventId handle as the choice id, so
  // the explorer, the network's timer bookkeeping, and the tracer all
  // name the same event the same way — and cancellation composes.
  Simulator sim;
  sim.SetControlled(true);
  int fired = 0;
  SimEventLabel label;
  label.kind = SimEventKind::kTimer;
  label.node = 2;
  label.tag = 7;
  EventId id = sim.ScheduleCancelable(10, label, [&] { ++fired; });
  std::vector<SimEventInfo> choices = sim.Choices();
  ASSERT_EQ(choices.size(), 1u);
  EXPECT_EQ(choices[0].id, id);
  EXPECT_EQ(choices[0].label.tag, 7u);
  sim.Cancel(id);
  EXPECT_TRUE(sim.Choices().empty());  // Canceled timers are pruned.
  EXPECT_FALSE(sim.RunChoice(id));     // Stale id: rejected, not run.
  EXPECT_EQ(fired, 0);
}

TEST(SimulatorTest, ControlledStepRunsDefaultScheduleIdentically) {
  // RunUntil in controlled mode (no external scheduler) must reproduce
  // the normal-mode order: index 0 is the natural schedule.
  std::vector<int> normal, controlled;
  auto drive = [](Simulator& sim, std::vector<int>& order) {
    sim.Schedule(20, DeliverLabel(2), [&] { order.push_back(2); });
    sim.Schedule(10, DeliverLabel(1), [&] { order.push_back(1); });
    sim.ScheduleCancelable(15, [&] { order.push_back(15); });
    EXPECT_TRUE(sim.RunUntil(100));
  };
  Simulator a;
  drive(a, normal);
  Simulator b;
  b.SetControlled(true);
  drive(b, controlled);
  EXPECT_EQ(normal, controlled);
  EXPECT_EQ(a.now(), b.now());
}

TEST(SimulatorTest, SetControlledRefusedWithPendingEvents) {
  Simulator sim;
  sim.Schedule(10, [] {});
  sim.SetControlled(true);  // Must refuse: events already pending.
  EXPECT_FALSE(sim.controlled());
  sim.RunUntil(100);
  sim.SetControlled(true);  // Drained: now legal.
  EXPECT_TRUE(sim.controlled());
}

// ---------------------------------------------------------------------------
// Network tests.

class PingMessage : public Message {
 public:
  explicit PingMessage(uint64_t value, size_t pad = 0)
      : value_(value), pad_(pad) {}
  uint64_t value() const { return value_; }
  uint32_t type() const override { return 900; }
  void EncodeTo(Encoder* enc) const override {
    enc->PutU64(value_);
    enc->PutRaw(Buffer(pad_, 0));
  }
  std::string DebugString() const override { return "PING"; }

 private:
  uint64_t value_;
  size_t pad_;
};

class EchoActor : public Actor {
 public:
  explicit EchoActor(NodeId id, bool reply = false)
      : Actor(id), reply_(reply) {}

  void Start() override { started_ = true; }

  void OnMessage(NodeId from, const MessagePtr& msg) override {
    received_.push_back({from, Now()});
    last_value_ = static_cast<const PingMessage&>(*msg).value();
    if (reply_) Send(from, std::make_shared<PingMessage>(last_value_ + 1));
  }

  void OnTimer(uint64_t tag) override { timer_fires_.push_back(tag); }
  void OnRestart() override { restarted_ = true; }

  // Test-visible send helpers (Actor's are protected).
  void SendTo(NodeId to, MessagePtr msg) { Send(to, std::move(msg)); }
  EventId Arm(SimTime delay, uint64_t tag) { return SetTimer(delay, tag); }
  void Disarm(EventId* id) { CancelTimer(id); }

  struct Received {
    NodeId from;
    SimTime at;
  };
  bool started_ = false;
  bool restarted_ = false;
  bool reply_;
  uint64_t last_value_ = 0;
  std::vector<Received> received_;
  std::vector<uint64_t> timer_fires_;
};

class NetworkTest : public ::testing::Test {
 protected:
  void Build(NetworkConfig config, int num_nodes = 3) {
    keystore_ = std::make_unique<KeyStore>(1);
    network_ = std::make_unique<Network>(&sim_, &metrics_, keystore_.get(),
                                         Rng(1), config,
                                         CryptoCostModel::Free());
    for (int i = 0; i < num_nodes; ++i) {
      actors_.push_back(std::make_unique<EchoActor>(i));
      network_->RegisterActor(actors_.back().get());
    }
    network_->Start();
    sim_.RunUntil(0);
  }

  Simulator sim_;
  MetricsCollector metrics_;
  std::unique_ptr<KeyStore> keystore_;
  std::unique_ptr<Network> network_;
  std::vector<std::unique_ptr<EchoActor>> actors_;
};

TEST_F(NetworkTest, StartInvoked) {
  Build(NetworkConfig::Lan());
  for (auto& a : actors_) EXPECT_TRUE(a->started_);
}

TEST_F(NetworkTest, DeliversWithinLatencyPlusJitter) {
  NetworkConfig cfg;
  cfg.latency_us = 500;
  cfg.jitter_us = 100;
  cfg.per_msg_processing_us = 0;
  Build(cfg);
  actors_[0]->SendTo(1, std::make_shared<PingMessage>(7));
  sim_.RunUntil(Seconds(1));
  ASSERT_EQ(actors_[1]->received_.size(), 1u);
  EXPECT_EQ(actors_[1]->last_value_, 7u);
  SimTime at = actors_[1]->received_[0].at;
  EXPECT_GE(at, 500u);
  EXPECT_LE(at, 700u);  // latency + jitter + tx time.
}

TEST_F(NetworkTest, RequestReplyRoundTrip) {
  Build(NetworkConfig::Lan());
  actors_[1]->reply_ = true;
  actors_[0]->SendTo(1, std::make_shared<PingMessage>(10));
  sim_.RunUntil(Seconds(1));
  ASSERT_EQ(actors_[0]->received_.size(), 1u);
  EXPECT_EQ(actors_[0]->last_value_, 11u);
}

TEST_F(NetworkTest, SelfSendDeliversWithoutStats) {
  Build(NetworkConfig::Lan());
  actors_[0]->SendTo(0, std::make_shared<PingMessage>(3));
  sim_.RunUntil(Seconds(1));
  EXPECT_EQ(actors_[0]->received_.size(), 1u);
  EXPECT_EQ(metrics_.node(0).msgs_sent, 0u);
}

TEST_F(NetworkTest, StatsCountMessagesAndBytes) {
  Build(NetworkConfig::Lan());
  actors_[0]->SendTo(1, std::make_shared<PingMessage>(1));
  actors_[0]->SendTo(2, std::make_shared<PingMessage>(2));
  sim_.RunUntil(Seconds(1));
  EXPECT_EQ(metrics_.node(0).msgs_sent, 2u);
  EXPECT_EQ(metrics_.node(1).msgs_received, 1u);
  EXPECT_EQ(metrics_.node(2).msgs_received, 1u);
  // 8-byte body + 40-byte header.
  EXPECT_EQ(metrics_.node(0).bytes_sent, 2 * (8 + 40u));
  EXPECT_EQ(metrics_.TotalMsgsSent(), 2u);
}

TEST_F(NetworkTest, CrashStopsDelivery) {
  Build(NetworkConfig::Lan());
  network_->Crash(1);
  actors_[0]->SendTo(1, std::make_shared<PingMessage>(1));
  sim_.RunUntil(Seconds(1));
  EXPECT_TRUE(actors_[1]->received_.empty());
}

TEST_F(NetworkTest, RestartInvokesOnRestartAndResumesDelivery) {
  Build(NetworkConfig::Lan());
  network_->Crash(1);
  sim_.RunUntil(Millis(10));
  network_->Restart(1);
  EXPECT_TRUE(actors_[1]->restarted_);
  actors_[0]->SendTo(1, std::make_shared<PingMessage>(4));
  sim_.RunUntil(Seconds(1));
  EXPECT_EQ(actors_[1]->received_.size(), 1u);
}

TEST_F(NetworkTest, BlockedLinkDropsUntilDeadline) {
  Build(NetworkConfig::Lan());
  network_->BlockLink(0, 1, Millis(100));
  actors_[0]->SendTo(1, std::make_shared<PingMessage>(1));
  sim_.RunUntil(Millis(50));
  EXPECT_TRUE(actors_[1]->received_.empty());
  EXPECT_EQ(metrics_.node(0).msgs_dropped, 1u);
  // After the deadline the link works again.
  sim_.RunUntil(Millis(200));
  actors_[0]->SendTo(1, std::make_shared<PingMessage>(2));
  sim_.RunUntil(Millis(300));
  EXPECT_EQ(actors_[1]->received_.size(), 1u);
}

TEST_F(NetworkTest, PartitionSeparatesGroups) {
  Build(NetworkConfig::Lan());
  network_->Partition({{0, 1}, {2}}, Millis(100));
  actors_[0]->SendTo(1, std::make_shared<PingMessage>(1));
  actors_[0]->SendTo(2, std::make_shared<PingMessage>(2));
  sim_.RunUntil(Millis(50));
  EXPECT_EQ(actors_[1]->received_.size(), 1u);  // Same group: delivered.
  EXPECT_TRUE(actors_[2]->received_.empty());   // Cross group: dropped.
}

TEST_F(NetworkTest, PreGstDropsThenPostGstBound) {
  NetworkConfig cfg;
  cfg.latency_us = 500;
  cfg.jitter_us = 0;
  cfg.gst_us = Millis(100);
  cfg.delta_us = Millis(10);
  cfg.pre_gst_drop_prob = 1.0;  // Everything before GST is dropped.
  Build(cfg);
  actors_[0]->SendTo(1, std::make_shared<PingMessage>(1));
  sim_.RunUntil(Millis(99));
  EXPECT_TRUE(actors_[1]->received_.empty());
  // After GST messages flow and arrive within delta.
  sim_.RunUntil(Millis(101));
  actors_[0]->SendTo(1, std::make_shared<PingMessage>(2));
  sim_.RunUntil(Millis(200));
  ASSERT_EQ(actors_[1]->received_.size(), 1u);
  EXPECT_LE(actors_[1]->received_[0].at, Millis(100) + Millis(10) + 1000);
}

TEST_F(NetworkTest, PreGstExtraDelayIsBoundedByDelta) {
  NetworkConfig cfg;
  cfg.latency_us = 100;
  cfg.jitter_us = 0;
  cfg.gst_us = Millis(50);
  cfg.delta_us = Millis(20);
  cfg.pre_gst_extra_delay_us = Seconds(10);  // Huge adversarial delay...
  Build(cfg);
  actors_[0]->SendTo(1, std::make_shared<PingMessage>(1));
  sim_.RunUntil(Seconds(20));
  ASSERT_EQ(actors_[1]->received_.size(), 1u);
  // ...but partial synchrony clamps arrival to GST + delta.
  EXPECT_LE(actors_[1]->received_[0].at, Millis(50) + Millis(20) + 1000);
}

TEST_F(NetworkTest, DelayInjectorCanDropAndDelay) {
  Build(NetworkConfig::Lan());
  int intercepted = 0;
  network_->SetDelayInjector(
      [&](NodeId from, NodeId to, const MessagePtr&, bool* drop) {
        ++intercepted;
        if (to == 2) *drop = true;
        (void)from;
        return std::nullopt;
      });
  actors_[0]->SendTo(1, std::make_shared<PingMessage>(1));
  actors_[0]->SendTo(2, std::make_shared<PingMessage>(2));
  sim_.RunUntil(Seconds(1));
  EXPECT_EQ(intercepted, 2);
  EXPECT_EQ(actors_[1]->received_.size(), 1u);
  EXPECT_TRUE(actors_[2]->received_.empty());
}

TEST_F(NetworkTest, TimersFireAndCancel) {
  Build(NetworkConfig::Lan());
  EventId t1 = actors_[0]->Arm(Millis(10), 42);
  actors_[0]->Arm(Millis(20), 43);
  actors_[0]->Disarm(&t1);
  EXPECT_EQ(t1, kInvalidEvent);
  sim_.RunUntil(Seconds(1));
  ASSERT_EQ(actors_[0]->timer_fires_.size(), 1u);
  EXPECT_EQ(actors_[0]->timer_fires_[0], 43u);
}

TEST_F(NetworkTest, TimersDoNotFireWhileCrashed) {
  Build(NetworkConfig::Lan());
  actors_[0]->Arm(Millis(10), 42);
  network_->Crash(0);
  sim_.RunUntil(Seconds(1));
  EXPECT_TRUE(actors_[0]->timer_fires_.empty());
}

TEST_F(NetworkTest, BandwidthSerializesLargeSends) {
  NetworkConfig cfg;
  cfg.latency_us = 0;
  cfg.jitter_us = 0;
  cfg.bandwidth_mbps = 8.0;  // 1 byte/us.
  cfg.per_msg_processing_us = 0;
  cfg.packet_header_bytes = 0;
  Build(cfg);
  // Two 10-KB messages: the second's transmission waits for the first.
  actors_[0]->SendTo(1, std::make_shared<PingMessage>(1, 9992));
  actors_[0]->SendTo(2, std::make_shared<PingMessage>(2, 9992));
  sim_.RunUntil(Seconds(1));
  ASSERT_EQ(actors_[1]->received_.size(), 1u);
  ASSERT_EQ(actors_[2]->received_.size(), 1u);
  SimTime t1 = actors_[1]->received_[0].at;
  SimTime t2 = actors_[2]->received_[0].at;
  EXPECT_GE(t2, t1 + 9000);  // Uplink serialization.
}

TEST(MetricsTest, HistogramQuantiles) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Add(i);
  // Count, sum, and extremes are exact in the streaming representation;
  // interior quantiles resolve to a log bucket (~1% relative error).
  EXPECT_DOUBLE_EQ(h.Mean(), 50.5);
  EXPECT_NEAR(h.Percentile(50), 50.5, 50.5 * 0.02);
  EXPECT_NEAR(h.Percentile(99), 99.01, 99.0 * 0.02);
  EXPECT_DOUBLE_EQ(h.Min(), 1);
  EXPECT_DOUBLE_EQ(h.Max(), 100);
}

TEST(MetricsTest, CommitAndThroughput) {
  MetricsCollector m;
  m.RecordCommit(1, 0, Millis(10));
  m.RecordCommit(2, Millis(5), Millis(20));
  EXPECT_EQ(m.commits(), 2u);
  EXPECT_DOUBLE_EQ(m.commit_latency_us().Mean(),
                   (Millis(10) + Millis(15)) / 2.0);
  EXPECT_DOUBLE_EQ(m.Throughput(0, Seconds(1)), 2.0);
}

TEST(MetricsTest, CountersAndImbalance) {
  MetricsCollector m;
  m.Increment("view_changes");
  m.Increment("view_changes", 2);
  EXPECT_EQ(m.counter("view_changes"), 3u);
  EXPECT_EQ(m.counter("unknown"), 0u);

  m.node(0).msgs_sent = 100;
  m.node(1).msgs_sent = 100;
  EXPECT_DOUBLE_EQ(m.MsgLoadImbalance(), 0.0);
  m.node(1).msgs_sent = 300;
  EXPECT_GT(m.MsgLoadImbalance(), 0.0);
  EXPECT_EQ(m.MaxNodeMsgLoad(), 300u);
}

TEST(MetricsTest, ImbalanceSkipsIdsNoNodeHolds) {
  // A sparse client id (like the switch control client's) makes the
  // client slab default-construct every slot below it; those ids hold no
  // node and must not dilute the per-node load statistics.
  MetricsCollector dense, sparse;
  for (MetricsCollector* m : {&dense, &sparse}) {
    m->node(0).msgs_sent = 100;
    m->node(1).msgs_sent = 300;
    m->node(kClientIdBase).msgs_received = 200;
  }
  sparse.node(kClientIdBase + (1u << 15)).msgs_sent = 200;
  dense.node(kClientIdBase + 1).msgs_sent = 200;
  EXPECT_GT(dense.MsgLoadImbalance(), 0.0);
  EXPECT_DOUBLE_EQ(sparse.MsgLoadImbalance(), dense.MsgLoadImbalance());
  EXPECT_EQ(MetricsCollector().MsgLoadImbalance(), 0.0);
}

TEST(MetricsTest, HistogramExtremesStayExactAcrossInterleavedAdds) {
  Histogram h;
  h.Add(5);
  h.Add(1);
  h.Add(3);
  EXPECT_EQ(h.Percentile(100), 5);
  // Percentile(0)/Percentile(100) report the tracked extremes, which
  // later adds must keep current (including a new minimum of 0).
  h.Add(10);
  h.Add(0);
  EXPECT_EQ(h.Percentile(0), 0);
  EXPECT_EQ(h.Percentile(100), 10);
  EXPECT_EQ(h.Min(), 0);
  EXPECT_EQ(h.Max(), 10);
}

TEST(MetricsTest, HistogramStorageIsBucketBoundedNotSampleBounded) {
  // 100k samples spanning 1..10^6 us: a sample-keeping histogram would
  // hold 100k doubles; the streaming one holds one counter per ~2%-wide
  // log bucket regardless of volume, with exact count/sum.
  Histogram h;
  double sum = 0;
  for (int i = 0; i < 100000; ++i) {
    double v = 1.0 + (i % 1000) * 1000.0;
    h.Add(v);
    sum += v;
  }
  EXPECT_EQ(h.count(), 100000u);
  EXPECT_DOUBLE_EQ(h.Mean(), sum / 100000.0);
  double p50 = h.Percentile(50);
  EXPECT_NEAR(p50, 499001.0, 499001.0 * 0.03);
}

TEST(MetricsTest, CommitAtTimeZeroIsAValidFirstCommit) {
  MetricsCollector m;
  EXPECT_FALSE(m.has_commits());
  m.RecordCommit(1, 0, 0);  // Virtual time 0 is a legitimate commit time.
  EXPECT_TRUE(m.has_commits());
  EXPECT_EQ(m.first_commit_time(), 0u);
  EXPECT_EQ(m.last_commit_time(), 0u);
  m.RecordCommit(2, 100, 500);
  EXPECT_EQ(m.first_commit_time(), 0u);
  EXPECT_EQ(m.last_commit_time(), 500u);
}

}  // namespace
}  // namespace bftlab
