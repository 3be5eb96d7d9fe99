// Trusted-component battery (DESIGN.md §15): the simulated USIG counter
// (monotonicity, uniqueness, forgery rejection, the compromise hooks),
// the MinBFT 2f+1 family built on it (commit, UI-certified view change,
// counter state across crash/restart), and the seeded rollback attack —
// contained by receiver-side UI verification, and caught by the
// agreement oracle the moment that verification is disabled.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chaos/linearizability.h"
#include "core/experiment.h"
#include "core/registry.h"
#include "crypto/sha256.h"
#include "crypto/trusted.h"
#include "explore/explorer.h"
#include "protocols/minbft/minbft_replica.h"

namespace bftlab {
namespace {

// --- TrustedCounter unit tests ----------------------------------------------

class TrustedCounterTest : public ::testing::Test {
 protected:
  CryptoContext MakeCtx(NodeId id) {
    return CryptoContext(id, &keystore_, CryptoCostModel::Free());
  }
  KeyStore keystore_{4242};
};

TEST_F(TrustedCounterTest, CountersAreStrictlyMonotonicAndUnique) {
  CryptoContext ctx = MakeCtx(3);
  TrustedCounter usig(3, &keystore_);
  Digest d = Sha256::Hash(Slice("payload"));
  uint64_t prev = 0;
  for (int i = 0; i < 10; ++i) {
    UniqueIdentifier ui = usig.Certify(&ctx, d);
    EXPECT_EQ(ui.signer, 3u);
    EXPECT_EQ(ui.epoch, 1u);
    EXPECT_GT(ui.counter, prev) << "counter must be strictly monotonic";
    prev = ui.counter;
    EXPECT_TRUE(TrustedCounter::Verify(&ctx, ui, d));
  }
  // Certifying the same digest twice never reuses an identifier.
  UniqueIdentifier a = usig.Certify(&ctx, d);
  UniqueIdentifier b = usig.Certify(&ctx, d);
  EXPECT_NE(a.counter, b.counter);
}

TEST_F(TrustedCounterTest, VerifyRejectsEveryForgedField) {
  CryptoContext ctx = MakeCtx(1);
  TrustedCounter usig(1, &keystore_);
  Digest d = Sha256::Hash(Slice("genuine"));
  UniqueIdentifier ui = usig.Certify(&ctx, d);
  ASSERT_TRUE(TrustedCounter::Verify(&ctx, ui, d));

  // A different digest under a stolen identifier (the rollback forgery).
  EXPECT_FALSE(
      TrustedCounter::Verify(&ctx, ui, Sha256::Hash(Slice("altered"))));
  // A bumped counter (claiming an identifier never issued).
  UniqueIdentifier bumped = ui;
  bumped.counter += 1;
  EXPECT_FALSE(TrustedCounter::Verify(&ctx, bumped, d));
  // A re-attributed signer (another node's USIG never certified this).
  UniqueIdentifier stolen = ui;
  stolen.signer = 2;
  EXPECT_FALSE(TrustedCounter::Verify(&ctx, stolen, d));
  // A forged epoch (pretending the device rebooted).
  UniqueIdentifier epoch_forged = ui;
  epoch_forged.epoch += 1;
  EXPECT_FALSE(TrustedCounter::Verify(&ctx, epoch_forged, d));
  // A tampered tag.
  UniqueIdentifier bad_tag = ui;
  bad_tag.tag.data()[0] ^= 0xFF;
  EXPECT_FALSE(TrustedCounter::Verify(&ctx, bad_tag, d));
}

TEST_F(TrustedCounterTest, RebootBumpsEpochAndKeepsIdentifiersUnique) {
  CryptoContext ctx = MakeCtx(5);
  TrustedCounter usig(5, &keystore_);
  Digest d = Sha256::Hash(Slice("x"));
  UniqueIdentifier before = usig.Certify(&ctx, d);
  usig.Reboot();
  EXPECT_EQ(usig.epoch(), 2u);
  EXPECT_EQ(usig.counter(), 0u);
  UniqueIdentifier after = usig.Certify(&ctx, d);
  // Same counter value, but a later epoch: still unique, still fresh by
  // the (epoch, counter) lexicographic order receivers use.
  EXPECT_EQ(after.counter, before.counter);
  EXPECT_TRUE(after.NewerThan(before.epoch, before.counter));
  EXPECT_TRUE(TrustedCounter::Verify(&ctx, before, d));
  EXPECT_TRUE(TrustedCounter::Verify(&ctx, after, d));
}

TEST_F(TrustedCounterTest, ForceRollbackReissuesConsumedIdentifiers) {
  CryptoContext ctx = MakeCtx(7);
  TrustedCounter usig(7, &keystore_);
  Digest real = Sha256::Hash(Slice("the committed batch"));
  UniqueIdentifier genuine = usig.Certify(&ctx, real);
  usig.Certify(&ctx, real);
  usig.Certify(&ctx, real);

  // The compromise: restore the counter from a stale snapshot and certify
  // a DIFFERENT digest under the already-consumed identifier.
  usig.ForceRollback(3);
  EXPECT_EQ(usig.counter(), genuine.counter - 1);
  Digest altered = Sha256::Hash(Slice("the rewritten batch"));
  UniqueIdentifier replay = usig.Certify(&ctx, altered);
  EXPECT_EQ(replay.epoch, genuine.epoch);
  EXPECT_EQ(replay.counter, genuine.counter);
  // Both certificates verify: the device key is genuine, only the
  // monotonicity contract broke. Receiver-side freshness tracking is the
  // only remaining defense — exactly what the MinBFT battery stresses.
  EXPECT_TRUE(TrustedCounter::Verify(&ctx, genuine, real));
  EXPECT_TRUE(TrustedCounter::Verify(&ctx, replay, altered));

  // Rollback clamps at zero rather than wrapping.
  usig.ForceRollback(1000);
  EXPECT_EQ(usig.counter(), 0u);
}

TEST_F(TrustedCounterTest, ForkedCloneEquivocatesUnderOneIdentifier) {
  CryptoContext ctx = MakeCtx(9);
  TrustedCounter usig(9, &keystore_);
  TrustedCounter clone = usig.Fork();
  Digest a = Sha256::Hash(Slice("vote A"));
  Digest b = Sha256::Hash(Slice("vote B"));
  UniqueIdentifier ua = usig.Certify(&ctx, a);
  UniqueIdentifier ub = clone.Certify(&ctx, b);
  // Two different digests bound to the same (signer, epoch, counter):
  // the forked-attestation attack.
  EXPECT_EQ(ua.epoch, ub.epoch);
  EXPECT_EQ(ua.counter, ub.counter);
  EXPECT_TRUE(TrustedCounter::Verify(&ctx, ua, a));
  EXPECT_TRUE(TrustedCounter::Verify(&ctx, ub, b));
}

TEST_F(TrustedCounterTest, ChargesTeeInvocationCost) {
  CryptoCostModel cost;
  cost.usig_create_us = 30;
  cost.usig_verify_us = 15;
  CryptoContext ctx(2, &keystore_, cost);
  TrustedCounter usig(2, &keystore_);
  Digest d = Sha256::Hash(Slice("billed"));
  UniqueIdentifier ui = usig.Certify(&ctx, d);
  double create_cost = ctx.DrainConsumedUs();
  EXPECT_GE(create_cost, 30.0);
  ASSERT_TRUE(TrustedCounter::Verify(&ctx, ui, d));
  double verify_cost = ctx.DrainConsumedUs();
  EXPECT_GE(verify_cost, 15.0);
  EXPECT_LT(verify_cost, create_cost)
      << "verification must not pay the TEE-invocation premium";
}

// --- MinBFT end-to-end ------------------------------------------------------

ExperimentConfig MinBftExperiment(uint64_t seed) {
  ExperimentConfig cfg;
  cfg.protocol = "minbft";
  cfg.f = 1;
  cfg.num_clients = 3;
  cfg.seed = seed;
  cfg.duration_us = Seconds(6);
  cfg.cost_model = CryptoCostModel::Free();
  cfg.batch_size = 2;
  cfg.checkpoint_interval = 16;
  cfg.view_change_timeout_us = Millis(250);
  cfg.client_retransmit_us = Millis(300);
  cfg.op_generator = ChaosKvWorkload(4);
  cfg.check_linearizability = true;
  return cfg;
}

TEST(MinBftTest, CommitsWorkloadAtTwoFPlusOneReplicas) {
  Result<ProtocolBuild> build = GetProtocol("minbft", 1);
  ASSERT_TRUE(build.ok()) << build.status().ToString();
  EXPECT_EQ(build->RecommendedN(1), 3u) << "minbft must run at n = 2f+1";
  EXPECT_EQ(build->descriptor.trusted, TrustedComponent::kMonotonicCounter);

  Result<ExperimentResult> r = RunExperiment(MinBftExperiment(11));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->n, 3u);
  EXPECT_GT(r->commits, 0u);
  EXPECT_GT(r->counters["lin.ops_checked"], 0u);
  EXPECT_GT(r->counters["minbft.committed"], 0u);
}

TEST(MinBftTest, UiCertifiedViewChangeReplacesCrashedLeader) {
  ExperimentConfig cfg = MinBftExperiment(13);
  const SimTime crash = Millis(600);
  cfg.crash_at[0] = crash;  // Initial leader fail-stops.
  Result<ExperimentResult> r = RunExperiment(cfg);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // The same run cut at the crash: runs are deterministic, so the
  // difference is what the survivors committed after it.
  ExperimentConfig prefix_cfg = cfg;
  prefix_cfg.duration_us = crash;
  Result<ExperimentResult> prefix = RunExperiment(prefix_cfg);
  ASSERT_TRUE(prefix.ok()) << prefix.status().ToString();
  // The two survivors are exactly f+1 = 2: the view-change quorum at
  // n = 2f+1. They must depose the dead leader and keep committing — in
  // the 5.4 s after the crash, more than the cluster did in the 0.6 s
  // before it.
  EXPECT_GT(r->counters["minbft.view_changes_completed"], 0u);
  EXPECT_GT(r->commits - prefix->commits, prefix->commits);
  EXPECT_GT(r->counters["lin.ops_checked"], 0u);
}

// An equivocating leader is deposed; the new leader's re-proposals must
// keep the affine counter binding even for batches it already executed,
// or no later prepare is accepted and agreement depends on luck.
TEST(MinBftTest, EquivocatingLeaderNeverBreaksAgreement) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    ExperimentConfig cfg;
    cfg.protocol = "minbft";
    cfg.seed = seed;
    cfg.byzantine[0].mode = ByzantineMode::kEquivocate;
    Result<ExperimentResult> r = RunExperiment(cfg);
    if (!r.ok()) {
      ADD_FAILURE() << "seed " << seed << ": " << r.status().ToString();
      continue;
    }
    EXPECT_GT(r->counters["minbft.view_changes_completed"], 0u)
        << "seed " << seed;
  }
}

// --- Counter state across crash/restart -------------------------------------

ClusterConfig MinBftClusterConfig(uint64_t seed) {
  ClusterConfig cfg;
  cfg.n = 3;
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

TEST(MinBftRecoveryTest, CounterStateSurvivesCrashAndRestart) {
  Cluster cluster(MinBftClusterConfig(21), MakeMinBftReplica);
  cluster.Start();
  Simulator& sim = cluster.sim();
  Network& net = cluster.network();
  sim.Schedule(Millis(500), [&] { net.Crash(2); });
  sim.Schedule(Millis(1500), [&] { net.Restart(2); });
  cluster.RunFor(Seconds(4));

  TrustedCounter* usig = cluster.replica(2).trusted_counter();
  ASSERT_NE(usig, nullptr);
  // Persisted USIG state: the restart did NOT bump the attestation epoch,
  // and the counter kept climbing from where the crash left it.
  EXPECT_EQ(usig->epoch(), 1u);
  EXPECT_GT(usig->counter(), 0u);
  EXPECT_TRUE(cluster.CheckAgreement().ok())
      << cluster.CheckAgreement().ToString();
  EXPECT_TRUE(cluster.CheckStateMachines().ok());
  // The restarted replica committed through the crash.
  EXPECT_GT(cluster.replica(2).finalized_seq(), 0u);
  EXPECT_GT(cluster.TotalAccepted(), 0u);
}

TEST(MinBftRecoveryTest, WipedCounterRejoinsThroughEpochBump) {
  Cluster cluster(MinBftClusterConfig(22), MakeMinBftReplica);
  cluster.Start();
  Simulator& sim = cluster.sim();
  Network& net = cluster.network();
  sim.Schedule(Millis(500), [&] { net.Crash(2); });
  sim.Schedule(Millis(1500), [&] {
    // The machine lost its volatile USIG state: the device reboots into a
    // fresh epoch instead of replaying consumed counter values.
    TrustedCounter* usig = cluster.replica(2).trusted_counter();
    ASSERT_NE(usig, nullptr);
    usig->Reboot();
    net.Restart(2);
  });
  cluster.RunFor(Seconds(5));

  TrustedCounter* usig = cluster.replica(2).trusted_counter();
  ASSERT_NE(usig, nullptr);
  EXPECT_EQ(usig->epoch(), 2u);
  EXPECT_TRUE(cluster.CheckAgreement().ok())
      << cluster.CheckAgreement().ToString();
  EXPECT_TRUE(cluster.CheckStateMachines().ok());
  // Peers accepted the epoch bump: the rebooted replica's fresh-epoch
  // votes were not mistaken for rollback replays, so it kept committing.
  EXPECT_GT(cluster.replica(2).finalized_seq(), 0u);
}

// --- The seeded rollback attack ---------------------------------------------

// The Byzantine leader withholds a stride of prepares from the highest-id
// backup, then (at counter_fault_at_us) rolls its USIG back and
// re-certifies ALTERED batches under the stolen identifiers. Checkpoints
// are disabled so the victim's watermarks never advance past the
// withheld sequence numbers: every replayed identifier reaches the
// victim's freshness check, making that check the only defense.
ClusterConfig RollbackAttackConfig(bool verify_ui) {
  ClusterConfig cfg = MinBftClusterConfig(31);
  cfg.num_clients = 4;
  cfg.replica.checkpoint_interval = 1 << 20;
  cfg.replica.watermark_window = 1 << 20;
  cfg.replica.verify_trusted_ui = verify_ui;
  ByzantineSpec byz;
  byz.mode = ByzantineMode::kCounterRollback;
  byz.counter_fault_at_us = Millis(1200);
  cfg.byzantine[0] = byz;
  return cfg;
}

TEST(RollbackAttackTest, UiVerificationContainsTheReplay) {
  Cluster cluster(RollbackAttackConfig(/*verify_ui=*/true),
                  MakeMinBftReplica);
  cluster.Start();
  cluster.RunFor(Seconds(5));
  // The attack fired and the victim rejected the stale identifiers.
  EXPECT_GT(cluster.metrics().counter("minbft.counter_rollback_attacks"), 0u);
  EXPECT_GT(cluster.metrics().counter("minbft.ui_replay_rejected"), 0u);
  // Safety held everywhere.
  EXPECT_TRUE(cluster.CheckAgreement().ok())
      << cluster.CheckAgreement().ToString();
  EXPECT_TRUE(cluster.CheckStateMachines().ok());
  // And liveness: the rolled-back leader can no longer certify
  // affine-consistent prepares, so the backups deposed it.
  EXPECT_GT(cluster.metrics().counter("minbft.view_changes_completed"), 0u);
  EXPECT_GT(cluster.TotalAccepted(), 0u);
}

TEST(RollbackAttackTest, AgreementOracleCatchesAttackWithoutVerification) {
  // Identical attack, but receivers skip UI verification. The victim now
  // accepts the re-certified altered batches, completes f+1 "quorums"
  // with the leader's implicit vote, and executes a different history —
  // which the agreement oracle must catch. This is the seeded-bug check:
  // it proves the UI discipline is load-bearing, not ceremonial.
  Cluster cluster(RollbackAttackConfig(/*verify_ui=*/false),
                  MakeMinBftReplica);
  cluster.Start();
  cluster.RunFor(Seconds(5));
  ASSERT_GT(cluster.metrics().counter("minbft.counter_rollback_attacks"), 0u)
      << "attack never fired; the test is vacuous";
  EXPECT_FALSE(cluster.CheckAgreement().ok())
      << "rollback replay must split the committed history once UI "
         "verification is off";
}

// --- Explorer smoke ---------------------------------------------------------

// Controlled-schedule exploration of minbft at n = 2f+1: ten thousand
// schedules permuting deliveries and timers, every one re-checked by the
// full oracle suite, zero violations.
TEST(MinBftExploreTest, TenThousandControlledSchedulesFindNoViolation) {
  ExploreConfig cfg;
  cfg.protocol = "minbft";
  cfg.f = 1;
  cfg.num_clients = 1;
  cfg.seed = 3;
  cfg.max_requests = 2;
  cfg.batch_size = 1;
  cfg.checkpoint_interval = 2;
  cfg.max_decisions = 28;
  cfg.max_branch = 3;
  cfg.max_schedules = 10000;
  Result<ExploreReport> r = ExploreDfs(cfg);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->violation_found)
      << r->counterexample.oracle << ": " << r->counterexample.detail;
  EXPECT_GE(r->stats.schedules, 10000u);
  EXPECT_GT(r->stats.max_depth, 10u);
}

}  // namespace
}  // namespace bftlab
