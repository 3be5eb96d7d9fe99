// Tests for the chaos subsystem: the Nemesis scheduler (deterministic
// seeded schedules that heal by GST), the history recorder, the per-key
// linearizability checker (including a deliberately-buggy state machine
// it must catch), the recovery oracle, and the previously-untested
// interaction of Network::Restart with Partition and state transfer.

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "chaos/faulty_state_machine.h"
#include "chaos/history.h"
#include "chaos/linearizability.h"
#include "chaos/nemesis.h"
#include "core/experiment.h"
#include "protocols/hotstuff/hotstuff_replica.h"
#include "protocols/minbft/minbft_replica.h"
#include "protocols/pbft/pbft_replica.h"
#include "smr/kv_op.h"
#include "smr/kv_txn.h"

namespace bftlab {
namespace {

// --- History / linearizability checker unit tests -------------------------

void Complete(History* h, ClientId c, RequestTimestamp ts, const Buffer& op,
              const std::string& result, SimTime invoke, SimTime response) {
  h->RecordInvoke(c, ts, op, invoke);
  Buffer r(result.begin(), result.end());
  h->RecordComplete(c, ts, r, response);
}

TEST(LinearizabilityTest, AcceptsSequentialRegisterHistory) {
  History h;
  Complete(&h, 1, 1, KvOp::Put("x", "a"), "OK", 0, 100);
  Complete(&h, 1, 2, KvOp::Get("x"), "a", 200, 300);
  Complete(&h, 1, 3, KvOp::Put("x", "b"), "OK", 400, 500);
  Complete(&h, 1, 4, KvOp::Get("x"), "b", 600, 700);
  LinearizabilityReport r = CheckLinearizability(h);
  EXPECT_TRUE(r.ok) << r.violation;
  EXPECT_EQ(r.keys_checked, 1u);
  EXPECT_EQ(r.ops_checked, 4u);
}

TEST(LinearizabilityTest, AcceptsConcurrentWritesEitherOrder) {
  // Two overlapping PUTs: a later read may see whichever linearized last.
  for (const char* observed : {"a", "b"}) {
    History h;
    Complete(&h, 1, 1, KvOp::Put("x", "a"), "OK", 0, 100);
    Complete(&h, 2, 1, KvOp::Put("x", "b"), "OK", 50, 150);
    Complete(&h, 1, 2, KvOp::Get("x"), observed, 200, 300);
    LinearizabilityReport r = CheckLinearizability(h);
    EXPECT_TRUE(r.ok) << "observed=" << observed << ": " << r.violation;
  }
}

TEST(LinearizabilityTest, RejectsStaleRead) {
  // PUT b strictly precedes the read in real time, so reading the old
  // value is a violation.
  History h;
  Complete(&h, 1, 1, KvOp::Put("x", "a"), "OK", 0, 100);
  Complete(&h, 1, 2, KvOp::Put("x", "b"), "OK", 200, 300);
  Complete(&h, 1, 3, KvOp::Get("x"), "a", 400, 500);
  LinearizabilityReport r = CheckLinearizability(h);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.violation.find("key 'x'"), std::string::npos) << r.violation;
}

TEST(LinearizabilityTest, RejectsLostUpdate) {
  // Both ADDs completed, so the counter must reach 3; a second read of 1
  // means one increment vanished.
  History h;
  Complete(&h, 1, 1, KvOp::Add("c", 1), "1", 0, 100);
  Complete(&h, 1, 2, KvOp::Add("c", 2), "3", 200, 300);
  Complete(&h, 1, 3, KvOp::Get("c"), "1", 400, 500);
  LinearizabilityReport r = CheckLinearizability(h);
  EXPECT_FALSE(r.ok);
}

TEST(LinearizabilityTest, PendingWriteMayOrMayNotApply) {
  // A PUT whose client never saw a reply may still have executed: reads
  // observing either world are linearizable.
  for (const char* observed : {"a", "b"}) {
    History h;
    Complete(&h, 1, 1, KvOp::Put("x", "a"), "OK", 0, 100);
    h.RecordInvoke(2, 1, KvOp::Put("x", "b"), 150);  // Pending forever.
    Complete(&h, 1, 2, KvOp::Get("x"), observed, 300, 400);
    LinearizabilityReport r = CheckLinearizability(h);
    EXPECT_TRUE(r.ok) << "observed=" << observed << ": " << r.violation;
  }
  // But a value nobody ever wrote is still a violation.
  History h;
  Complete(&h, 1, 1, KvOp::Put("x", "a"), "OK", 0, 100);
  h.RecordInvoke(2, 1, KvOp::Put("x", "b"), 150);
  Complete(&h, 1, 2, KvOp::Get("x"), "z", 300, 400);
  EXPECT_FALSE(CheckLinearizability(h).ok);
}

TEST(LinearizabilityTest, ChecksKeysIndependently) {
  History h;
  Complete(&h, 1, 1, KvOp::Put("x", "a"), "OK", 0, 100);
  Complete(&h, 2, 1, KvOp::Put("y", "b"), "OK", 0, 100);
  Complete(&h, 1, 2, KvOp::Get("x"), "a", 200, 300);
  Complete(&h, 2, 2, KvOp::Get("y"), "b", 200, 300);
  LinearizabilityReport r = CheckLinearizability(h);
  EXPECT_TRUE(r.ok) << r.violation;
  EXPECT_EQ(r.keys_checked, 2u);
}

TEST(LinearizabilityTest, ChaosWorkloadOpsDecode) {
  OpGenerator gen = ChaosKvWorkload(4);
  Rng rng(7);
  for (RequestTimestamp ts = 1; ts <= 50; ++ts) {
    Buffer op = gen(1, ts, &rng);
    ASSERT_TRUE(KvOp::Decode(op).ok());
  }
}

// --- Nemesis scheduler -----------------------------------------------------

ClusterConfig ChaosClusterConfig(uint64_t seed) {
  ClusterConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.num_clients = 3;
  cfg.seed = seed;
  cfg.cost_model = CryptoCostModel::Free();
  cfg.replica.checkpoint_interval = 16;
  cfg.replica.view_change_timeout_us = Millis(250);
  cfg.client.reply_quorum = 2;
  cfg.client.retransmit_timeout_us = Millis(300);
  cfg.client.op_generator = ChaosKvWorkload(4);
  return cfg;
}

TEST(NemesisTest, IdenticalSeedsYieldIdenticalSchedules) {
  NemesisSpec spec;
  spec.profile = NemesisProfile::kCrashHeavy;
  spec.seed = 42;
  Cluster c1(ChaosClusterConfig(1), MakePbftReplica);
  Cluster c2(ChaosClusterConfig(1), MakePbftReplica);
  Nemesis n1(&c1, spec);
  Nemesis n2(&c2, spec);
  EXPECT_EQ(n1.Describe(), n2.Describe());
  EXPECT_EQ(n1.ScheduleHash(), n2.ScheduleHash());

  spec.seed = 43;
  Cluster c3(ChaosClusterConfig(1), MakePbftReplica);
  Nemesis n3(&c3, spec);
  EXPECT_NE(n1.Describe(), n3.Describe());
}

TEST(NemesisTest, AllFaultsHealByGst) {
  for (NemesisProfile profile :
       {NemesisProfile::kLight, NemesisProfile::kPartitionHeavy,
        NemesisProfile::kCrashHeavy}) {
    for (uint64_t seed : {1ull, 2ull, 3ull}) {
      NemesisSpec spec;
      spec.profile = profile;
      spec.seed = seed;
      spec.start_us = Millis(200);
      spec.gst_us = Seconds(2);
      ClusterConfig cfg = ChaosClusterConfig(seed);
      Nemesis::ApplyNetworkDefaults(spec, &cfg.net);
      Cluster cluster(std::move(cfg), MakePbftReplica);
      Nemesis nemesis(&cluster, spec);
      cluster.Start();
      nemesis.Install();
      cluster.RunFor(spec.gst_us);
      // By GST every crashed node is back up.
      for (ReplicaId r = 0; r < 4; ++r) {
        EXPECT_FALSE(cluster.network().IsDown(r))
            << NemesisProfileName(profile) << " seed " << seed
            << " replica " << r << " still down at GST";
      }
      EXPECT_GT(cluster.metrics().counter("chaos.faults_injected"), 0u);
      // And commits resume afterwards.
      uint64_t at_gst = cluster.TotalAccepted();
      cluster.RunFor(Seconds(3));
      EXPECT_GT(cluster.TotalAccepted(), at_gst)
          << NemesisProfileName(profile) << " seed " << seed;
      EXPECT_TRUE(cluster.CheckAgreement().ok());
    }
  }
}

// --- Experiment wiring -----------------------------------------------------

ExperimentConfig ChaosExperiment(const std::string& protocol,
                                 NemesisProfile profile, uint64_t seed) {
  ExperimentConfig cfg;
  cfg.protocol = protocol;
  cfg.num_clients = 3;
  cfg.seed = seed;
  cfg.cost_model = CryptoCostModel::Free();
  cfg.checkpoint_interval = 32;
  cfg.client_retransmit_us = Millis(200);
  cfg.client_backoff = 1.5;
  cfg.client_retransmit_cap_us = Seconds(2);
  cfg.op_generator = ChaosKvWorkload(4);
  NemesisSpec spec;
  spec.profile = profile;
  spec.seed = seed;
  spec.start_us = Millis(300);
  spec.gst_us = Seconds(2);
  cfg.nemesis = spec;
  cfg.duration_us = Seconds(5);
  cfg.recovery_bound_us = Seconds(3);
  return cfg;
}

TEST(ChaosExperimentTest, PbftSurvivesLightChaosWithFiniteRecovery) {
  Result<ExperimentResult> r =
      RunExperiment(ChaosExperiment("pbft", NemesisProfile::kLight, 1));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->commits, 0u);
  EXPECT_GT(r->faults_injected, 0u);
  EXPECT_LE(r->recovery_us, Seconds(3));
  EXPECT_GT(r->counters["chaos.post_gst_commits"], 0u);
}

TEST(ChaosExperimentTest, IdenticalSeedsYieldIdenticalRuns) {
  ExperimentConfig cfg =
      ChaosExperiment("pbft", NemesisProfile::kPartitionHeavy, 5);
  Result<ExperimentResult> a = RunExperiment(cfg);
  Result<ExperimentResult> b = RunExperiment(cfg);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->commits, b->commits);
  EXPECT_EQ(a->recovery_us, b->recovery_us);
  EXPECT_EQ(a->faults_injected, b->faults_injected);
  EXPECT_EQ(a->counters["chaos.schedule_hash"],
            b->counters["chaos.schedule_hash"]);
}

TEST(ChaosExperimentTest, RejectsDurationEndingBeforeGst) {
  ExperimentConfig cfg = ChaosExperiment("pbft", NemesisProfile::kLight, 1);
  cfg.duration_us = Seconds(1);  // GST at 2s.
  EXPECT_FALSE(RunExperiment(cfg).ok());
}

TEST(ChaosExperimentTest, RestartAtModelsCrashThenRejoin) {
  ExperimentConfig cfg;
  cfg.protocol = "pbft";
  cfg.num_clients = 2;
  cfg.seed = 3;
  cfg.cost_model = CryptoCostModel::Free();
  cfg.duration_us = Seconds(4);
  cfg.checkpoint_interval = 16;
  cfg.crash_at[3] = Millis(500);
  cfg.restart_at[3] = Seconds(2);
  Result<ExperimentResult> r = RunExperiment(cfg);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->commits, 0u);
  // The rejoining replica caught up via state transfer.
  EXPECT_GT(r->counters["replica.state_transfers_completed"], 0u);
}

TEST(ChaosExperimentTest, PartitionWindowsDropCrossGroupTraffic) {
  ExperimentConfig cfg;
  cfg.protocol = "pbft";
  cfg.num_clients = 2;
  cfg.seed = 4;
  cfg.cost_model = CryptoCostModel::Free();
  cfg.duration_us = Seconds(4);
  ExperimentConfig::PartitionWindow window;
  window.groups = {{0, 1, kClientIdBase, kClientIdBase + 1}, {2, 3}};
  window.at_us = Millis(500);
  window.until_us = Millis(1500);
  cfg.partitions.push_back(window);
  Result<ExperimentResult> r = RunExperiment(cfg);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->counters["net.partition_drops"], 0u);
  EXPECT_GT(r->commits, 0u);
}

// --- Trusted-counter chaos (minbft under the counter-rollback Nemesis) ------

TEST(NemesisTest, CounterRollbackScheduleIsDeterministicAndHealsByGst) {
  NemesisSpec spec;
  spec.profile = NemesisProfile::kCounterRollback;
  spec.seed = 42;
  ClusterConfig base = ChaosClusterConfig(1);
  base.n = 3;
  Cluster c1(base, MakeMinBftReplica);
  Cluster c2(base, MakeMinBftReplica);
  Nemesis n1(&c1, spec);
  Nemesis n2(&c2, spec);
  EXPECT_EQ(n1.Describe(), n2.Describe());
  EXPECT_EQ(n1.ScheduleHash(), n2.ScheduleHash());
  // The schedule names its counter tampering, so determinism tests can
  // pin it, and every crash carries its restart time (heals by GST).
  EXPECT_NE(n1.Describe().find("counter"), std::string::npos)
      << n1.Describe();
}

// The chaos hammer: minbft through crash/restart waves where rejoining
// replicas carry persisted, wiped, or rolled-back counter state, plus
// link flaps and loss bursts. Post-GST the oracle suite demands
// agreement, linearizability, and timely recovery — a replica whose
// stale counter leaves it votes-rejected must catch up (its counter
// climbs past peers' watermarks; a wiped one re-enters via epoch bump)
// without dragging the cluster into divergence or a stall.
TEST(ChaosExperimentTest, MinBftRecoversFromCounterRollbackChaos) {
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    ExperimentConfig cfg = ChaosExperiment(
        "minbft", NemesisProfile::kCounterRollback, seed);
    cfg.duration_us = Seconds(6);
    cfg.recovery_bound_us = Seconds(4);
    Result<ExperimentResult> r = RunExperiment(cfg);
    ASSERT_TRUE(r.ok()) << "seed " << seed << ": " << r.status().ToString();
    EXPECT_GT(r->commits, 0u) << "seed " << seed;
    EXPECT_GT(r->faults_injected, 0u) << "seed " << seed;
    EXPECT_LE(r->recovery_us, Seconds(4)) << "seed " << seed;
    EXPECT_GT(r->counters["chaos.post_gst_commits"], 0u) << "seed " << seed;
  }
}

// The same profile against an untrusted protocol: the counter tampering
// closures find no trusted counter and degrade to plain crash/restart
// chaos, which pbft must already survive.
TEST(ChaosExperimentTest, CounterRollbackProfileIsCrashChaosForUntrusted) {
  Result<ExperimentResult> r = RunExperiment(
      ChaosExperiment("pbft", NemesisProfile::kCounterRollback, 2));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->commits, 0u);
  EXPECT_GT(r->faults_injected, 0u);
}

// --- The oracle must catch a buggy state machine ---------------------------

TEST(ChaosOracleTest, LossyStateMachineCaughtOnlyByLinearizability) {
  // Every replica runs the same lossy state machine, so agreement and
  // state-digest checks CANNOT see the bug; the client-observed history
  // is the only witness.
  ClusterConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.num_clients = 1;
  cfg.seed = 11;
  cfg.cost_model = CryptoCostModel::Free();
  cfg.client.reply_quorum = 2;
  cfg.client.op_generator = [](ClientId, RequestTimestamp ts, Rng*) {
    if (ts % 2 == 1) return KvOp::Put("x", "t" + std::to_string(ts));
    return KvOp::Get("x");
  };
  History history;
  cfg.client.history = &history;
  Cluster cluster(std::move(cfg), [](const ReplicaConfig& rc) {
    return std::make_unique<PbftReplica>(
        rc, std::make_unique<LossyKvStateMachine>(2));
  });
  ASSERT_TRUE(cluster.RunUntilCommits(20, Seconds(30)));
  EXPECT_TRUE(cluster.CheckAgreement().ok());
  EXPECT_TRUE(cluster.CheckStateMachines().ok());
  LinearizabilityReport lin = CheckLinearizability(history);
  EXPECT_FALSE(lin.ok) << "lossy writes must break linearizability";
  EXPECT_NE(lin.violation.find("key 'x'"), std::string::npos)
      << lin.violation;
}

TEST(ChaosOracleTest, CorrectStateMachinePassesSameWorkload) {
  ClusterConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.num_clients = 2;
  cfg.seed = 11;
  cfg.cost_model = CryptoCostModel::Free();
  cfg.client.reply_quorum = 2;
  cfg.client.op_generator = ChaosKvWorkload(2);
  History history;
  cfg.client.history = &history;
  Cluster cluster(std::move(cfg), MakePbftReplica);
  ASSERT_TRUE(cluster.RunUntilCommits(40, Seconds(30)));
  LinearizabilityReport lin = CheckLinearizability(history);
  EXPECT_TRUE(lin.ok) << lin.violation;
  EXPECT_GT(lin.ops_checked, 0u);
}

// --- Transaction atomicity under the linearizability oracle ----------------

// One client writes both halves of a pair inside a single transaction;
// the others read both halves in a single transaction. Atomicity means a
// committed reader can never observe a torn pair (one half from txn i,
// the other from txn j).
OpGenerator PairTxnWorkload() {
  return [](ClientId client, RequestTimestamp ts, Rng*) {
    KvTxn txn;
    txn.owner = client;
    if (client == kClientIdBase) {
      std::string tag = "t" + std::to_string(ts);
      txn.ops.push_back(KvOp{KvOpCode::kPut, "pa", tag, 0});
      txn.ops.push_back(KvOp{KvOpCode::kPut, "pb", tag, 0});
    } else {
      txn.ops.push_back(KvOp{KvOpCode::kGet, "pa", "", 0});
      txn.ops.push_back(KvOp{KvOpCode::kGet, "pb", "", 0});
    }
    return txn.Encode();
  };
}

TEST(ChaosOracleTest, CommittedReadersNeverObserveTornTxn) {
  ClusterConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.num_clients = 3;  // One pair-writer, two pair-readers.
  cfg.seed = 13;
  cfg.cost_model = CryptoCostModel::Free();
  cfg.client.reply_quorum = 2;
  cfg.client.op_generator = PairTxnWorkload();
  History history;
  cfg.client.history = &history;
  Cluster cluster(std::move(cfg), MakePbftReplica);
  ASSERT_TRUE(cluster.RunUntilCommits(60, Seconds(30)));

  // Direct witness: every committed reader saw both halves equal.
  int committed_reads = 0;
  for (const HistoryOp& op : history.ops()) {
    if (!op.completed || !KvTxn::IsTxn(op.operation)) continue;
    Result<KvTxn> txn = KvTxn::Decode(op.operation);
    ASSERT_TRUE(txn.ok());
    if (txn->ops[0].code != KvOpCode::kGet) continue;
    Result<KvTxnResult> result = KvTxnResult::Decode(op.result);
    ASSERT_TRUE(result.ok()) << "reader reply must be a txn result";
    if (!result->committed) continue;
    ASSERT_EQ(result->results.size(), 2u);
    EXPECT_EQ(result->results[0], result->results[1])
        << "torn pair: pa='" << result->results[0] << "' pb='"
        << result->results[1] << "'";
    ++committed_reads;
  }
  EXPECT_GT(committed_reads, 0);

  // And the general oracle agrees: same-key sub-ops linearize atomically.
  LinearizabilityReport lin = CheckLinearizability(history);
  EXPECT_TRUE(lin.ok) << lin.violation;
  EXPECT_GT(lin.ops_checked, 0u);
}

TEST(ChaosOracleTest, TxnAtomicitySurvivesChaos) {
  // Full chaos run: faults + retransmissions + view changes, with the
  // linearizability oracle (which rejects any partial-txn interleaving)
  // applied inside RunExperiment. Crossing it with the pair workload
  // makes "no partial txn visible in any linearized history" a checked
  // property, not an assumption.
  ExperimentConfig cfg = ChaosExperiment("pbft", NemesisProfile::kLight, 7);
  cfg.op_generator = PairTxnWorkload();
  Result<ExperimentResult> r = RunExperiment(cfg);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->txn_commits, 0u);
  EXPECT_GT(r->faults_injected, 0u);
}

// --- Restart × Partition × state transfer interactions ---------------------

TEST(ChaosRecoveryTest, PbftCrashDuringStateTransfer) {
  // Replica 3 crashes, misses checkpoints, restarts and begins state
  // transfer, crashes again mid-transfer, then restarts for good. It must
  // still converge without violating agreement.
  ClusterConfig cfg = ChaosClusterConfig(21);
  cfg.replica.checkpoint_interval = 8;
  Cluster cluster(std::move(cfg), MakePbftReplica);
  cluster.Start();
  Simulator& sim = cluster.sim();
  Network& net = cluster.network();
  sim.Schedule(Millis(200), [&] { net.Crash(3); });
  sim.Schedule(Millis(1200), [&] { net.Restart(3); });
  sim.Schedule(Millis(1250), [&] { net.Crash(3); });  // Mid-transfer.
  sim.Schedule(Millis(1800), [&] { net.Restart(3); });
  cluster.RunFor(Seconds(4));
  EXPECT_TRUE(cluster.CheckAgreement().ok())
      << cluster.CheckAgreement().ToString();
  EXPECT_TRUE(cluster.CheckStateMachines().ok());
  EXPECT_GT(cluster.metrics().counter("replica.state_transfers_started"),
            0u);
  // The twice-crashed replica caught up with the rest.
  EXPECT_GT(cluster.replica(3).finalized_seq(), 0u);
}

TEST(ChaosRecoveryTest, PbftRestartIntoActivePartition) {
  // Replica 3 restarts while a partition confines it to the minority
  // side; it must rejoin and catch up once the partition heals.
  ClusterConfig cfg = ChaosClusterConfig(22);
  cfg.replica.checkpoint_interval = 8;
  Cluster cluster(std::move(cfg), MakePbftReplica);
  cluster.Start();
  Simulator& sim = cluster.sim();
  Network& net = cluster.network();
  sim.Schedule(Millis(200), [&] { net.Crash(3); });
  sim.Schedule(Millis(400), [&] {
    net.Partition({{0, 1, kClientIdBase, kClientIdBase + 1,
                    kClientIdBase + 2},
                   {2, 3}},
                  Millis(1500));
  });
  sim.Schedule(Millis(600), [&] { net.Restart(3); });  // Minority side.
  cluster.RunFor(Seconds(4));
  EXPECT_TRUE(cluster.CheckAgreement().ok())
      << cluster.CheckAgreement().ToString();
  EXPECT_TRUE(cluster.CheckStateMachines().ok());
  EXPECT_GT(cluster.metrics().counter("net.partition_drops"), 0u);
  EXPECT_GT(cluster.replica(3).finalized_seq(), 0u);
}

TEST(ChaosRecoveryTest, HotStuffCrashDuringCatchUp) {
  ClusterConfig cfg = ChaosClusterConfig(23);
  cfg.client.submit_policy = SubmitPolicy::kAll;
  Cluster cluster(std::move(cfg), MakeHotStuffReplica);
  cluster.Start();
  Simulator& sim = cluster.sim();
  Network& net = cluster.network();
  sim.Schedule(Millis(200), [&] { net.Crash(2); });
  sim.Schedule(Millis(1200), [&] { net.Restart(2); });
  sim.Schedule(Millis(1260), [&] { net.Crash(2); });  // Mid block-sync.
  sim.Schedule(Millis(1800), [&] { net.Restart(2); });
  cluster.RunFor(Seconds(4));
  EXPECT_TRUE(cluster.CheckAgreement().ok())
      << cluster.CheckAgreement().ToString();
  EXPECT_TRUE(cluster.CheckStateMachines().ok());
}

TEST(ChaosRecoveryTest, HotStuffRestartIntoActivePartition) {
  ClusterConfig cfg = ChaosClusterConfig(24);
  cfg.client.submit_policy = SubmitPolicy::kAll;
  Cluster cluster(std::move(cfg), MakeHotStuffReplica);
  cluster.Start();
  Simulator& sim = cluster.sim();
  Network& net = cluster.network();
  sim.Schedule(Millis(200), [&] { net.Crash(1); });
  sim.Schedule(Millis(400), [&] {
    net.Partition({{0, 2, kClientIdBase, kClientIdBase + 1,
                    kClientIdBase + 2},
                   {1, 3}},
                  Millis(1500));
  });
  sim.Schedule(Millis(600), [&] { net.Restart(1); });
  cluster.RunFor(Seconds(5));
  EXPECT_TRUE(cluster.CheckAgreement().ok())
      << cluster.CheckAgreement().ToString();
  EXPECT_TRUE(cluster.CheckStateMachines().ok());
}

// --- Restarted leaders ------------------------------------------------------

// The initial leader crashes (at offsets that catch it idle, mid-batch and
// mid-retransmission) and restarts 300 ms later. Timers that came due
// while it was down were dropped and pooled requests come back only as
// duplicates, so every leader-based family must clear its stale timer
// handles and propose again on restart: commits continue after it.
struct LeaderRestartCase {
  std::string protocol;
  SimTime crash_us;
};

void PrintTo(const LeaderRestartCase& c, std::ostream* os) {
  *os << c.protocol << "@" << c.crash_us;
}

class LeaderRestartTest : public ::testing::TestWithParam<LeaderRestartCase> {
};

TEST_P(LeaderRestartTest, CommitsContinueAfterRestart) {
  const SimTime restart = Millis(1300);
  ExperimentConfig cfg;
  cfg.protocol = GetParam().protocol;
  cfg.num_clients = 2;
  cfg.duration_us = Seconds(3);
  cfg.crash_at[0] = GetParam().crash_us;
  cfg.restart_at[0] = restart;
  Result<ExperimentResult> r = RunExperiment(cfg);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExperimentConfig prefix_cfg = cfg;
  prefix_cfg.duration_us = restart;
  Result<ExperimentResult> prefix = RunExperiment(prefix_cfg);
  ASSERT_TRUE(prefix.ok()) << prefix.status().ToString();
  EXPECT_GT(r->commits, prefix->commits);
}

std::vector<LeaderRestartCase> LeaderRestartCases() {
  std::vector<LeaderRestartCase> cases;
  for (const char* protocol : {"pbft", "themis", "prime", "minbft", "poe",
                               "sbft", "cheapbft", "fab", "kauri", "zyzzyva",
                               "zyzzyva5"}) {
    for (SimTime crash : {SimTime{1000000}, SimTime{1000511},
                          SimTime{1001733}}) {
      cases.push_back({protocol, crash});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    LeaderFamilies, LeaderRestartTest,
    ::testing::ValuesIn(LeaderRestartCases()),
    [](const ::testing::TestParamInfo<LeaderRestartCase>& info) {
      return info.param.protocol + "_at_" +
             std::to_string(info.param.crash_us) + "us";
    });

}  // namespace
}  // namespace bftlab
