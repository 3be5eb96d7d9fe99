// Integration tests for PBFT: normal-case ordering, batching, view change
// on leader failure, Byzantine leader behaviours, checkpoint GC, state
// transfer, and the safety invariants.

#include <gtest/gtest.h>

#include <tuple>

#include "common/codec.h"
#include "protocols/common/base_messages.h"
#include "protocols/common/cluster.h"
#include "protocols/pbft/pbft_replica.h"

namespace bftlab {
namespace {

ClusterConfig BaseConfig(uint32_t n = 4, uint32_t f = 1,
                         uint32_t clients = 2) {
  ClusterConfig cfg;
  cfg.n = n;
  cfg.f = f;
  cfg.num_clients = clients;
  cfg.seed = 7;
  cfg.cost_model = CryptoCostModel::Free();
  cfg.replica.checkpoint_interval = 16;
  cfg.replica.view_change_timeout_us = Millis(200);
  cfg.replica.batch_size = 4;
  cfg.client.reply_quorum = f + 1;
  cfg.client.retransmit_timeout_us = Millis(300);
  return cfg;
}

Cluster MakePbft(ClusterConfig cfg) {
  return Cluster(std::move(cfg), MakePbftReplica);
}

PbftReplica& Pbft(Cluster& cluster, ReplicaId id) {
  return static_cast<PbftReplica&>(cluster.replica(id));
}

TEST(PbftTest, CommitsFaultFree) {
  Cluster cluster = MakePbft(BaseConfig());
  ASSERT_TRUE(cluster.RunUntilCommits(50, Seconds(30)));
  EXPECT_TRUE(cluster.CheckAgreement().ok());
  EXPECT_TRUE(cluster.CheckStateMachines().ok());
  EXPECT_EQ(cluster.metrics().counter("pbft.view_changes_completed"), 0u);
}

TEST(PbftTest, AllReplicasExecuteSameHistory) {
  Cluster cluster = MakePbft(BaseConfig());
  ASSERT_TRUE(cluster.RunUntilCommits(30, Seconds(30)));
  // Let in-flight commits settle.
  cluster.RunFor(Millis(100));
  SequenceNumber min_final = ~0ull;
  for (ReplicaId r = 0; r < 4; ++r) {
    min_final = std::min(min_final, cluster.replica(r).finalized_seq());
  }
  EXPECT_GT(min_final, 0u);
  Status agreement = cluster.CheckAgreement();
  EXPECT_TRUE(agreement.ok()) << agreement.ToString();
  Status integrity = cluster.CheckStateMachines();
  EXPECT_TRUE(integrity.ok()) << integrity.ToString();
}

TEST(PbftTest, SingleClientSequentialRequests) {
  ClusterConfig cfg = BaseConfig(4, 1, 1);
  Cluster cluster = MakePbft(std::move(cfg));
  ASSERT_TRUE(cluster.RunUntilCommits(20, Seconds(30)));
  EXPECT_EQ(cluster.client(0).accepted_requests(), 20u);
}

TEST(PbftTest, SevenReplicasToleratesTwoCrashes) {
  ClusterConfig cfg = BaseConfig(7, 2);
  Cluster cluster = MakePbft(std::move(cfg));
  cluster.Start();
  cluster.network().Crash(3);
  cluster.network().Crash(5);
  ASSERT_TRUE(cluster.RunUntilCommits(30, Seconds(30)));
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(PbftTest, LeaderCrashTriggersViewChangeAndRecovers) {
  Cluster cluster = MakePbft(BaseConfig());
  ASSERT_TRUE(cluster.RunUntilCommits(10, Seconds(30)));
  uint64_t before = cluster.TotalAccepted();

  cluster.network().Crash(0);  // Leader of view 0.
  ASSERT_TRUE(cluster.RunUntilCommits(before + 20, Seconds(60)));

  // A view change happened and the new leader is not replica 0.
  for (ReplicaId r = 1; r < 4; ++r) {
    EXPECT_GE(Pbft(cluster, r).view(), 1u);
    EXPECT_NE(Pbft(cluster, r).leader(), 0u);
  }
  EXPECT_GE(cluster.metrics().counter("pbft.view_changes_completed"), 1u);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
  EXPECT_TRUE(cluster.CheckStateMachines().ok());
}

TEST(PbftTest, ConsecutiveLeaderCrashes) {
  ClusterConfig cfg = BaseConfig(7, 2);
  Cluster cluster = MakePbft(std::move(cfg));
  ASSERT_TRUE(cluster.RunUntilCommits(5, Seconds(30)));
  cluster.network().Crash(0);
  cluster.network().Crash(1);  // Next leader too.
  ASSERT_TRUE(cluster.RunUntilCommits(25, Seconds(120)));
  for (ReplicaId r = 2; r < 7; ++r) {
    EXPECT_GE(Pbft(cluster, r).view(), 2u);
  }
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(PbftTest, CommittedPrefixSurvivesViewChange) {
  Cluster cluster = MakePbft(BaseConfig());
  ASSERT_TRUE(cluster.RunUntilCommits(15, Seconds(30)));
  cluster.RunFor(Millis(50));
  // Record replica 1's finalized history before killing the leader.
  auto before = cluster.replica(1).finalized_digests();
  cluster.network().Crash(0);
  ASSERT_TRUE(cluster.RunUntilCommits(cluster.TotalAccepted() + 10,
                                      Seconds(60)));
  // Every previously finalized entry is unchanged afterwards.
  const auto& after = cluster.replica(1).finalized_digests();
  for (const auto& [seq, digest] : before) {
    auto it = after.find(seq);
    ASSERT_NE(it, after.end());
    EXPECT_EQ(it->second, digest) << "seq " << seq;
  }
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(PbftTest, EquivocatingLeaderCannotViolateSafety) {
  ClusterConfig cfg = BaseConfig();
  cfg.byzantine[0] = ByzantineSpec{ByzantineMode::kEquivocate, 0, 0};
  Cluster cluster = MakePbft(std::move(cfg));
  // Progress may require a view change away from the equivocator; give it
  // time, then assert safety unconditionally.
  cluster.RunUntilCommits(20, Seconds(60));
  Status agreement = cluster.CheckAgreement();
  EXPECT_TRUE(agreement.ok()) << agreement.ToString();
  Status integrity = cluster.CheckStateMachines();
  EXPECT_TRUE(integrity.ok()) << integrity.ToString();
  EXPECT_GE(cluster.metrics().counter("pbft.equivocations"), 0u);
}

TEST(PbftTest, SilentBackupDoesNotBlockProgress) {
  ClusterConfig cfg = BaseConfig();
  cfg.byzantine[2] = ByzantineSpec{ByzantineMode::kSilentBackup, 0, 0};
  Cluster cluster = MakePbft(std::move(cfg));
  ASSERT_TRUE(cluster.RunUntilCommits(30, Seconds(30)));
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(PbftTest, CensoringLeaderIsEventuallyReplaced) {
  ClusterConfig cfg = BaseConfig(4, 1, 2);
  ClientId victim = kClientIdBase;  // Client 0.
  cfg.byzantine[0] = ByzantineSpec{ByzantineMode::kCensorClient, victim, 0};
  Cluster cluster = MakePbft(std::move(cfg));
  cluster.Start();
  // The victim's requests are censored until backups time out and rotate
  // the leader; afterwards the victim makes progress.
  ASSERT_TRUE(cluster.sim().RunUntilPredicate(
      [&] { return cluster.client(0).accepted_requests() >= 5; },
      Seconds(120)));
  EXPECT_GE(cluster.metrics().counter("pbft.view_changes_completed"), 1u);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(PbftTest, CheckpointsBecomeStableAndGc) {
  ClusterConfig cfg = BaseConfig();
  cfg.replica.checkpoint_interval = 8;
  Cluster cluster = MakePbft(std::move(cfg));
  ASSERT_TRUE(cluster.RunUntilCommits(60, Seconds(60)));
  cluster.RunFor(Millis(200));
  for (ReplicaId r = 0; r < 4; ++r) {
    EXPECT_GT(cluster.replica(r).checkpoints().stable_seq(), 0u)
        << "replica " << r;
  }
  EXPECT_GT(cluster.metrics().counter("replica.checkpoints_stable"), 0u);
}

TEST(PbftTest, InDarkReplicaCatchesUpViaStateTransfer) {
  ClusterConfig cfg = BaseConfig(4, 1, 2);
  cfg.replica.checkpoint_interval = 8;
  Cluster cluster = MakePbft(std::move(cfg));
  cluster.Start();
  // Replica 3 is partitioned away while the others make progress.
  cluster.network().Partition({{0, 1, 2, kClientIdBase, kClientIdBase + 1},
                               {3}},
                              Seconds(5));
  ASSERT_TRUE(cluster.RunUntilCommits(60, Seconds(5)));
  // Heal the partition; replica 3 is far behind and must state-transfer.
  cluster.RunFor(Seconds(10));
  EXPECT_GT(cluster.replica(3).finalized_seq(), 0u);
  EXPECT_GE(cluster.metrics().counter("replica.state_transfers_completed"),
            1u);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
  EXPECT_TRUE(cluster.CheckStateMachines().ok());
}

TEST(PbftTest, EveryRetainedCheckpointServesAVerifiedPayload) {
  // Checkpoints store no payload: each is rebuilt from the live state and
  // the undo history retained back to the oldest checkpoint, while
  // execution has moved on past it.
  ClusterConfig cfg = BaseConfig();
  cfg.replica.checkpoint_interval = 8;
  Cluster cluster = MakePbft(std::move(cfg));
  ASSERT_TRUE(cluster.RunUntilCommits(100, Seconds(60)));
  size_t checked = 0;
  for (ReplicaId r = 0; r < 4; ++r) {
    const Replica& replica = cluster.replica(r);
    for (const auto& [seq, checkpoint] : replica.checkpoints().retained()) {
      Result<Buffer> payload = replica.CheckpointPayload(seq);
      ASSERT_TRUE(payload.ok()) << "replica " << r << " seq " << seq;
      std::unique_ptr<Replica> seeded = MakePbftReplica(replica.config());
      EXPECT_TRUE(seeded->SeedFromPayload(*payload, checkpoint.state_digest)
                      .ok())
          << "replica " << r << " seq " << seq;
      EXPECT_EQ(seeded->state_machine().version(), checkpoint.version);
      ++checked;
    }
    EXPECT_GT(replica.state_machine().version(),
              replica.checkpoints().retained().begin()->second.version);
  }
  EXPECT_GE(checked, 4u);
}

// A state-transfer payload taken apart for forging: the reply cache, the
// snapshot's data entries, and the rest of the snapshot and the switch
// state verbatim.
struct PayloadParts {
  std::vector<std::tuple<uint64_t, uint64_t, Buffer>> replies;
  Buffer snapshot_head;  // Version and chain digest.
  std::vector<std::pair<std::string, std::string>> data;
  Buffer snapshot_rest;
  Buffer switch_state;

  static PayloadParts Split(const Buffer& payload) {
    PayloadParts parts;
    Decoder dec{Slice(payload)};
    const uint64_t replies = dec.GetU64().value();
    for (uint64_t i = 0; i < replies; ++i) {
      const uint64_t client = dec.GetU64().value();
      const uint64_t timestamp = dec.GetU64().value();
      parts.replies.emplace_back(client, timestamp, dec.GetBytes().value());
    }
    const Buffer snapshot = dec.GetBytes().value();
    parts.switch_state = dec.GetRaw(dec.remaining()).value();
    Decoder snap{Slice(snapshot)};
    parts.snapshot_head = snap.GetRaw(8 + Digest::kSize).value();
    const uint64_t entries = snap.GetU64().value();
    for (uint64_t i = 0; i < entries; ++i) {
      std::string key = snap.GetString().value();
      parts.data.emplace_back(std::move(key), snap.GetString().value());
    }
    parts.snapshot_rest = snap.GetRaw(snap.remaining()).value();
    return parts;
  }

  Buffer Encode() const {
    Encoder snap;
    snap.PutRaw(snapshot_head);
    snap.PutU64(data.size());
    for (const auto& [key, value] : data) {
      snap.PutString(key);
      snap.PutString(value);
    }
    snap.PutRaw(snapshot_rest);
    Encoder enc;
    enc.PutU64(replies.size());
    for (const auto& [client, timestamp, result] : replies) {
      enc.PutU64(client);
      enc.PutU64(timestamp);
      enc.PutBytes(result);
    }
    enc.PutBytes(snap.buffer());
    enc.PutRaw(switch_state);
    return enc.Take();
  }
};

TEST(PbftTest, ForgedStateTransferPayloadsAreRejected) {
  ClusterConfig cfg = BaseConfig(4, 1, 2);
  cfg.replica.checkpoint_interval = 8;
  Cluster cluster = MakePbft(std::move(cfg));
  // Replica 3 is in the dark. The first state response sent to it is
  // captured instead of delivered; from then on replica 3 hears only the
  // responses this test sends it.
  std::shared_ptr<const StateResponseMessage> honest;
  const Message* allowed = nullptr;
  bool isolated = true;
  cluster.network().SetDelayInjector(
      [&](NodeId from, NodeId to, const MessagePtr& msg,
          bool* drop) -> std::optional<SimTime> {
        if (msg.get() == allowed || !isolated) return std::nullopt;
        if (to == 3 && !honest && msg->type() == kMsgStateResponse) {
          honest = std::static_pointer_cast<const StateResponseMessage>(msg);
        }
        if (honest && (to == 3 || from == 3)) *drop = true;
        return std::nullopt;
      });
  cluster.Start();
  cluster.network().Partition({{0, 1, 2, kClientIdBase, kClientIdBase + 1},
                               {3}},
                              Seconds(5));
  ASSERT_TRUE(cluster.RunUntilCommits(60, Seconds(5)));
  for (int i = 0; i < 100 && !honest; ++i) cluster.RunFor(Millis(100));
  ASSERT_TRUE(honest);

  const Replica& dark = cluster.replica(3);
  const Digest state_before = dark.state_machine().StateDigest();
  const SequenceNumber executed_before = dark.last_executed();
  auto send = [&](Buffer payload) {
    auto msg = std::make_shared<StateResponseMessage>(
        honest->seq(), honest->state_digest(), std::move(payload));
    allowed = msg.get();
    cluster.network().Send(0, 3, std::move(msg));
    cluster.RunFor(Millis(50));
    allowed = nullptr;
  };
  auto corrupt = [&] {
    return cluster.metrics().counter("replica.state_transfer_corrupt");
  };

  const PayloadParts parts = PayloadParts::Split(honest->snapshot());
  ASSERT_EQ(parts.Encode(), honest->snapshot());
  ASSERT_FALSE(parts.data.empty());
  ASSERT_FALSE(parts.replies.empty());
  std::vector<std::pair<std::string, PayloadParts>> forgeries;
  forgeries.emplace_back("flipped value byte", parts);
  forgeries.back().second.data[0].second[0] ^= 1;
  forgeries.emplace_back("dropped entry", parts);
  forgeries.back().second.data.pop_back();
  forgeries.emplace_back("added entry", parts);
  forgeries.back().second.data.emplace_back("~forged", "1");
  forgeries.emplace_back("altered reply-cache entry", parts);
  std::get<1>(forgeries.back().second.replies[0]) += 1;
  forgeries.emplace_back("altered switch state", parts);
  Encoder pending;
  pending.PutU64(1);
  pending.PutString("hotstuff");
  pending.PutU64(honest->seq());
  pending.PutU64(honest->seq() + 8);
  forgeries.back().second.switch_state = pending.Take();

  for (const auto& [what, forged] : forgeries) {
    const uint64_t corrupt_before = corrupt();
    send(forged.Encode());
    EXPECT_EQ(corrupt(), corrupt_before + 1) << what;
    EXPECT_EQ(dark.state_machine().StateDigest(), state_before) << what;
    EXPECT_EQ(dark.last_executed(), executed_before) << what;
  }
  EXPECT_FALSE(dark.switch_pending());

  const uint64_t corrupt_before = corrupt();
  send(honest->snapshot());
  EXPECT_EQ(corrupt(), corrupt_before);
  EXPECT_EQ(dark.last_executed(), honest->seq());
  EXPECT_EQ(cluster.metrics().counter("replica.state_transfers_completed"),
            1u);

  isolated = false;
  cluster.RunFor(Seconds(2));
  EXPECT_GT(dark.finalized_seq(), honest->seq());
  EXPECT_TRUE(cluster.CheckAgreement().ok());
  EXPECT_TRUE(cluster.CheckStateMachines().ok());
}

TEST(PbftTest, MacAuthenticationAlsoCommits) {
  ClusterConfig cfg = BaseConfig();
  cfg.replica.auth = AuthScheme::kMacs;
  Cluster cluster = MakePbft(std::move(cfg));
  ASSERT_TRUE(cluster.RunUntilCommits(30, Seconds(30)));
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(PbftTest, MessageComplexityIsQuadratic) {
  // Fault-free run: per committed batch, prepare+commit phases are
  // all-to-all. Compare total message counts at n=4 vs n=7 for the same
  // commit count: the ratio should reflect O(n^2) growth.
  auto run = [](uint32_t n, uint32_t f) {
    ClusterConfig cfg = BaseConfig(n, f, 1);
    cfg.client.reply_quorum = f + 1;
    cfg.replica.batch_size = 1;
    Cluster cluster(std::move(cfg), MakePbftReplica);
    EXPECT_TRUE(cluster.RunUntilCommits(20, Seconds(60)));
    return cluster.metrics().TotalMsgsSent();
  };
  uint64_t msgs4 = run(4, 1);
  uint64_t msgs7 = run(7, 2);
  // Quadratic growth: (7/4)^2 ≈ 3.06; linear would be 1.75.
  double ratio = static_cast<double>(msgs7) / static_cast<double>(msgs4);
  EXPECT_GT(ratio, 2.0);
}

TEST(PbftTest, DeterministicAcrossRuns) {
  auto run = [] {
    Cluster cluster = MakePbft(BaseConfig());
    cluster.RunUntilCommits(20, Seconds(30));
    return std::make_pair(cluster.sim().now(),
                          cluster.metrics().TotalMsgsSent());
  };
  auto a = run();
  auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(PbftTest, ProactiveRecoveryRejuvenatesWithoutLosingLiveness) {
  // P5: replicas are rejuvenated one by one (crash + restart); the
  // cluster keeps committing, and rejuvenated replicas catch up via
  // state transfer. With f = 1 and one replica down at a time, quorums
  // always survive.
  ClusterConfig cfg = BaseConfig(4, 1, 2);
  cfg.replica.checkpoint_interval = 8;
  Cluster cluster = MakePbft(std::move(cfg));
  cluster.Start();
  cluster.EnableProactiveRecovery(/*interval=*/Millis(500),
                                  /*downtime=*/Millis(100));
  cluster.RunFor(Seconds(4));
  cluster.RunFor(Millis(150));  // Let an in-flight rejuvenation finish.
  EXPECT_GE(cluster.metrics().counter("cluster.rejuvenations"), 4u);
  EXPECT_GT(cluster.TotalAccepted(), 150u);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
  EXPECT_TRUE(cluster.CheckStateMachines().ok());
  // Every replica made it back and kept executing.
  for (ReplicaId r = 0; r < 4; ++r) {
    EXPECT_FALSE(cluster.network().IsDown(r)) << "replica " << r;
  }
}

TEST(PbftTest, ClientRetransmissionAfterDrop) {
  ClusterConfig cfg = BaseConfig(4, 1, 1);
  // Lossy start: messages drop until GST.
  cfg.net.gst_us = Millis(500);
  cfg.net.pre_gst_drop_prob = 0.3;
  Cluster cluster = MakePbft(std::move(cfg));
  ASSERT_TRUE(cluster.RunUntilCommits(10, Seconds(120)));
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

}  // namespace
}  // namespace bftlab
