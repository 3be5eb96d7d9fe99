// Integration tests for the optimistic/speculative protocol family:
// Zyzzyva (+Zyzzyva5), SBFT, and PoE — fast paths, fallbacks, client
// repair, and genuine speculative rollback.

#include <gtest/gtest.h>

#include <algorithm>

#include "protocols/common/base_messages.h"
#include "protocols/common/cluster.h"
#include "protocols/poe/poe_replica.h"
#include "protocols/sbft/sbft_replica.h"
#include "protocols/zyzzyva/zyzzyva_replica.h"
#include "smr/kv_op.h"
#include "smr/kv_state_machine.h"

namespace bftlab {
namespace {

ClusterConfig BaseConfig(uint32_t n = 4, uint32_t f = 1,
                         uint32_t clients = 2) {
  ClusterConfig cfg;
  cfg.n = n;
  cfg.f = f;
  cfg.num_clients = clients;
  cfg.seed = 3;
  cfg.cost_model = CryptoCostModel::Free();
  cfg.replica.checkpoint_interval = 16;
  cfg.replica.batch_size = 4;
  cfg.replica.view_change_timeout_us = Millis(200);
  cfg.client.reply_quorum = f + 1;
  cfg.client.retransmit_timeout_us = Millis(300);
  return cfg;
}

// --- Zyzzyva -----------------------------------------------------------------

TEST(ZyzzyvaTest, FastPathFaultFree) {
  ClusterConfig cfg = BaseConfig();
  cfg.client.reply_quorum = 4;  // Unused by ZyzzyvaClient; set anyway.
  Cluster cluster(std::move(cfg), MakeZyzzyvaReplica,
                  ZyzzyvaClientFactory(1));
  ASSERT_TRUE(cluster.RunUntilCommits(40, Seconds(60)));
  // Fault free: everything commits on the fast path.
  EXPECT_GT(cluster.metrics().counter("zyzzyva.fast_path"), 0u);
  EXPECT_EQ(cluster.metrics().counter("zyzzyva.repair_path"), 0u);
  EXPECT_TRUE(cluster.CheckStateMachines().ok());
}

TEST(ZyzzyvaTest, CrashedBackupForcesClientRepair) {
  ClusterConfig cfg = BaseConfig();
  Cluster cluster(std::move(cfg), MakeZyzzyvaReplica,
                  ZyzzyvaClientFactory(1));
  cluster.Start();
  cluster.network().Crash(3);  // One backup gone: only 3f matching replies.
  ASSERT_TRUE(cluster.RunUntilCommits(10, Seconds(120)));
  EXPECT_GT(cluster.metrics().counter("zyzzyva.repair_path"), 0u);
  EXPECT_GT(cluster.metrics().counter("zyzzyva.commit_certs"), 0u);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(ZyzzyvaTest, SpeculativeHistoryStabilizes) {
  ClusterConfig cfg = BaseConfig();
  cfg.replica.checkpoint_interval = 8;
  Cluster cluster(std::move(cfg), MakeZyzzyvaReplica,
                  ZyzzyvaClientFactory(1));
  ASSERT_TRUE(cluster.RunUntilCommits(60, Seconds(60)));
  cluster.RunFor(Millis(200));
  EXPECT_GT(cluster.metrics().counter("zyzzyva.stabilized"), 0u);
  EXPECT_GT(cluster.replica(0).finalized_seq(), 0u);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(Zyzzyva5Test, KeepsFastPathUnderOneFault) {
  // Zyzzyva5: n = 5f+1 = 6, fast quorum 4f+1 = 5. One crashed replica
  // still leaves 5 matching replies -> fast path survives (DC10).
  ClusterConfig cfg = BaseConfig(6, 1, 2);
  Cluster cluster(std::move(cfg), MakeZyzzyvaReplica,
                  Zyzzyva5ClientFactory(1));
  cluster.Start();
  cluster.network().Crash(5);
  ASSERT_TRUE(cluster.RunUntilCommits(20, Seconds(60)));
  EXPECT_GT(cluster.metrics().counter("zyzzyva.fast_path"), 0u);
  EXPECT_EQ(cluster.metrics().counter("zyzzyva.repair_path"), 0u);
}

// --- SBFT ---------------------------------------------------------------------

TEST(SbftTest, FastPathFaultFree) {
  Cluster cluster(BaseConfig(), MakeSbftReplica);
  ASSERT_TRUE(cluster.RunUntilCommits(40, Seconds(60)));
  EXPECT_GT(cluster.metrics().counter("sbft.fast_commits"), 0u);
  EXPECT_EQ(cluster.metrics().counter("sbft.fallbacks"), 0u);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
  EXPECT_TRUE(cluster.CheckStateMachines().ok());
}

TEST(SbftTest, SilentBackupTriggersFallback) {
  ClusterConfig cfg = BaseConfig();
  cfg.byzantine[2] = ByzantineSpec{ByzantineMode::kSilentBackup, 0, 0};
  Cluster cluster(std::move(cfg), MakeSbftReplica);
  ASSERT_TRUE(cluster.RunUntilCommits(20, Seconds(60)));
  EXPECT_GT(cluster.metrics().counter("sbft.fallbacks"), 0u);
  EXPECT_GT(cluster.metrics().counter("sbft.slow_commits"), 0u);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(SbftTest, FastPathBeatsSlowPathLatency) {
  auto latency = [](bool disable_fast) {
    ClusterConfig cfg = BaseConfig(4, 1, 1);
    SbftOptions opts;
    opts.disable_fast_path = disable_fast;
    Cluster cluster(std::move(cfg), SbftFactory(opts));
    EXPECT_TRUE(cluster.RunUntilCommits(30, Seconds(60)));
    return cluster.metrics().commit_latency_us().Mean();
  };
  double fast = latency(false);
  double slow = latency(true);
  EXPECT_LT(fast, slow);
}

TEST(SbftTest, LinearMessageComplexityFaultFree) {
  // Per commit, SBFT exchanges O(n) messages.
  auto msgs = [](uint32_t n, uint32_t f) {
    ClusterConfig cfg = BaseConfig(n, f, 1);
    cfg.replica.batch_size = 1;
    Cluster cluster(std::move(cfg), MakeSbftReplica);
    EXPECT_TRUE(cluster.RunUntilCommits(20, Seconds(60)));
    return static_cast<double>(cluster.metrics().TotalMsgsSent());
  };
  double growth = msgs(13, 4) / msgs(4, 1);
  EXPECT_LT(growth, 6.0);  // Linear-ish (3.25x nodes), far below 10.6x.
}

// --- PoE ---------------------------------------------------------------------

TEST(PoeTest, CommitsSpeculativelyFaultFree) {
  ClusterConfig cfg = BaseConfig();
  cfg.client.reply_quorum = 3;  // PoE clients wait for 2f+1 replies.
  Cluster cluster(std::move(cfg), MakePoeReplica);
  ASSERT_TRUE(cluster.RunUntilCommits(40, Seconds(60)));
  EXPECT_GT(cluster.metrics().counter("poe.certified"), 0u);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
  EXPECT_TRUE(cluster.CheckStateMachines().ok());
}

TEST(PoeTest, LeaderCrashViewChangeRecovers) {
  ClusterConfig cfg = BaseConfig();
  cfg.client.reply_quorum = 3;
  Cluster cluster(std::move(cfg), MakePoeReplica);
  ASSERT_TRUE(cluster.RunUntilCommits(10, Seconds(60)));
  cluster.network().Crash(0);
  ASSERT_TRUE(cluster.RunUntilCommits(cluster.TotalAccepted() + 15,
                                      Seconds(120)));
  EXPECT_GE(cluster.metrics().counter("poe.view_changes_completed"), 1u);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
  EXPECT_TRUE(cluster.CheckStateMachines().ok());
}

TEST(PoeTest, WithheldCertificateForcesRollback) {
  // The Byzantine leader certifies a sequence number to ONE backup
  // (replica 6) only; that backup's view-change message is delayed so
  // the new leader assembles the new view from the other 2f+1 replicas
  // and supersedes the sequence number with a null batch. Replica 6 must
  // then roll back its speculative execution (Design Choice 7's risk).
  ClusterConfig cfg = BaseConfig(7, 2, 1);
  cfg.client.reply_quorum = 5;  // 2f+1.
  cfg.byzantine[0] = ByzantineSpec{ByzantineMode::kEquivocate, 0, 0};
  Cluster cluster(std::move(cfg), MakePoeReplica);
  cluster.network().SetDelayInjector(
      [](NodeId from, NodeId /*to*/, const MessagePtr& msg, bool* /*drop*/)
          -> std::optional<SimTime> {
        if (from == 6 && msg->type() == kPoeViewChange) return Millis(150);
        return std::nullopt;
      });
  cluster.RunUntilCommits(5, Seconds(90));
  cluster.RunFor(Seconds(2));
  EXPECT_GT(cluster.metrics().counter("poe.withheld_certificates"), 0u);
  EXPECT_GT(cluster.metrics().counter("poe.view_changes_completed"), 0u);
  EXPECT_GT(cluster.metrics().counter("poe.rollbacks"), 0u);
  // After rollback + re-execution, correct replicas agree.
  EXPECT_TRUE(cluster.CheckAgreement().ok());
  EXPECT_TRUE(cluster.CheckStateMachines().ok());
}

// A PoE replica whose base-class execution pipeline the test drives
// directly.
class PoeProbe : public PoeReplica {
 public:
  using PoeReplica::PoeReplica;
  using Replica::Deliver;
  using Replica::FinalizeUpTo;
  using Replica::RollbackTo;
};

std::unique_ptr<Replica> MakePoeProbe(const ReplicaConfig& config) {
  ReplicaConfig cfg = config;
  cfg.auth = AuthScheme::kThreshold;
  return std::make_unique<PoeProbe>(cfg, std::make_unique<KvStateMachine>());
}

Batch PutBatch(SequenceNumber seq, const std::string& value) {
  ClientRequest request;
  request.client = kClientIdBase;
  request.timestamp = seq;
  request.operation = KvOp::Put("key" + std::to_string(seq), value);
  Batch batch;
  batch.requests.push_back(std::move(request));
  return batch;
}

TEST(PoeTest, RollbackPastCheckpointKeepsItsPayload) {
  // PoE takes its checkpoint when it finalizes, and by then the state may
  // hold speculative executions past the checkpoint's seq. Rolling those
  // back must not change the payload the checkpoint certifies, though it
  // is built on demand.
  ClusterConfig cfg = BaseConfig(4, 1, 1);
  cfg.replica.checkpoint_interval = 4;
  Cluster cluster(std::move(cfg), MakePoeProbe);
  PoeProbe& probe = static_cast<PoeProbe&>(cluster.replica(1));
  for (SequenceNumber seq = 1; seq <= 6; ++seq) {
    probe.Deliver(seq, PutBatch(seq, "first"), /*speculative=*/true);
  }
  probe.FinalizeUpTo(4);
  Result<Checkpoint> checkpoint = probe.checkpoints().Get(4);
  ASSERT_TRUE(checkpoint.ok());
  EXPECT_EQ(checkpoint->version, 6u);  // Includes the speculative 5 and 6.
  const Buffer snapshot_when_taken = probe.state_machine().Snapshot();
  Result<Buffer> taken = probe.CheckpointPayload(4);
  ASSERT_TRUE(taken.ok());
  EXPECT_NE(std::search(taken->begin(), taken->end(),
                        snapshot_when_taken.begin(), snapshot_when_taken.end()),
            taken->end());

  // The rollback undoes versions 5 and 6, past the captured version; the
  // re-executed suffix differs.
  ASSERT_TRUE(probe.RollbackTo(4).ok());
  for (SequenceNumber seq = 5; seq <= 7; ++seq) {
    probe.Deliver(seq, PutBatch(seq, "second"), /*speculative=*/true);
  }
  probe.FinalizeUpTo(7);
  Result<Buffer> rebuilt = probe.CheckpointPayload(4);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(*rebuilt, *taken);

  // The payload a state request is served matches too, and it verifies
  // against the checkpoint digest when it seeds a replica.
  std::shared_ptr<const StateResponseMessage> served;
  cluster.network().SetDelayInjector(
      [&](NodeId, NodeId, const MessagePtr& msg,
          bool* drop) -> std::optional<SimTime> {
        if (msg->type() == kMsgStateResponse) {
          served = std::static_pointer_cast<const StateResponseMessage>(msg);
          *drop = true;
        }
        return std::nullopt;
      });
  probe.OnMessage(2, std::make_shared<StateRequestMessage>(4, 2));
  ASSERT_TRUE(served);
  EXPECT_EQ(served->snapshot(), *taken);
  EXPECT_EQ(served->state_digest(), checkpoint->state_digest);
  std::unique_ptr<Replica> seeded = MakePoeProbe(probe.config());
  EXPECT_TRUE(seeded->SeedFromPayload(*taken, checkpoint->state_digest).ok());
  EXPECT_EQ(seeded->state_machine().Snapshot(), snapshot_when_taken);

  // A payload that does not match the digest seeds nothing.
  Buffer forged = *taken;
  forged[forged.size() / 2] ^= 1;
  std::unique_ptr<Replica> refused = MakePoeProbe(probe.config());
  EXPECT_FALSE(
      refused->SeedFromPayload(forged, checkpoint->state_digest).ok());
  EXPECT_EQ(refused->state_machine().version(), 0u);
}

// --- FaB / CheapBFT are covered in optimistic_test.cc ---

}  // namespace
}  // namespace bftlab
