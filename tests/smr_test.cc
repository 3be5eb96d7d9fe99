// Unit tests for src/smr: requests/batches, the KV state machine
// (determinism, rollback, snapshots), and checkpoint storage.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.h"
#include "crypto/keystore.h"
#include "smr/checkpoint.h"
#include "smr/kv_op.h"
#include "smr/kv_state_machine.h"
#include "smr/kv_txn.h"
#include "smr/request.h"
#include "smr/shard_op.h"

namespace bftlab {
namespace {

// --- Requests --------------------------------------------------------------

class RequestTest : public ::testing::Test {
 protected:
  KeyStore keystore_{42};
  CryptoContext client_ctx_{kClientIdBase, &keystore_,
                            CryptoCostModel::Free()};
  CryptoContext replica_ctx_{0, &keystore_, CryptoCostModel::Free()};

  ClientRequest MakeRequest(RequestTimestamp ts) {
    ClientRequest req;
    req.client = kClientIdBase;
    req.timestamp = ts;
    req.operation = KvOp::Put("k", "v");
    req.Sign(&client_ctx_);
    return req;
  }
};

TEST_F(RequestTest, EncodeDecodeRoundTrip) {
  ClientRequest req = MakeRequest(7);
  Encoder enc;
  req.EncodeTo(&enc);
  Decoder dec(enc.buffer());
  Result<ClientRequest> back = ClientRequest::DecodeFrom(&dec);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, req);
  EXPECT_EQ(back->signature.signer, req.signature.signer);
}

TEST_F(RequestTest, DigestIdentifiesContent) {
  ClientRequest a = MakeRequest(1);
  ClientRequest b = MakeRequest(2);
  EXPECT_NE(a.ComputeDigest(), b.ComputeDigest());
  EXPECT_EQ(a.ComputeDigest(), MakeRequest(1).ComputeDigest());
}

TEST_F(RequestTest, SignatureVerifiesAndBindsClient) {
  ClientRequest req = MakeRequest(1);
  EXPECT_TRUE(req.VerifySignature(&replica_ctx_));
  // Tampering with the operation invalidates the signature.
  ClientRequest tampered = req;
  tampered.operation = KvOp::Put("k", "evil");
  EXPECT_FALSE(tampered.VerifySignature(&replica_ctx_));
  // A signature from a different principal is rejected.
  ClientRequest wrong_signer = req;
  wrong_signer.signature.signer = kClientIdBase + 1;
  EXPECT_FALSE(wrong_signer.VerifySignature(&replica_ctx_));
}

TEST_F(RequestTest, BatchRoundTripAndDigest) {
  Batch batch;
  batch.requests.push_back(MakeRequest(1));
  batch.requests.push_back(MakeRequest(2));
  Encoder enc;
  batch.EncodeTo(&enc);
  Decoder dec(enc.buffer());
  Result<Batch> back = Batch::DecodeFrom(&dec);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->requests.size(), 2u);
  EXPECT_EQ(back->requests[1], batch.requests[1]);
  EXPECT_EQ(back->ComputeDigest(), batch.ComputeDigest());
  EXPECT_GT(batch.WireBytes(), 2 * kSignatureBytes);
}

TEST_F(RequestTest, ReplyMessageFields) {
  ReplyMessage reply(3, 1, kClientIdBase, 9, Buffer{'O', 'K'}, true);
  EXPECT_EQ(reply.type(), kMsgReply);
  EXPECT_EQ(reply.view(), 3u);
  EXPECT_EQ(reply.replica(), 1u);
  EXPECT_TRUE(reply.speculative());
  EXPECT_GT(reply.WireSize(), 0u);
  EXPECT_NE(reply.DebugString().find("REPLY"), std::string::npos);
}

// --- KV operations ----------------------------------------------------------

TEST(KvOpTest, EncodeDecodeAllOps) {
  for (const Buffer& encoded :
       {KvOp::Put("key", "value"), KvOp::Get("key"), KvOp::Delete("key"),
        KvOp::Add("key", -5)}) {
    Result<KvOp> op = KvOp::Decode(encoded);
    ASSERT_TRUE(op.ok());
    EXPECT_EQ(op->key, "key");
  }
  Result<KvOp> add = KvOp::Decode(KvOp::Add("k", -5));
  ASSERT_TRUE(add.ok());
  EXPECT_EQ(add->delta, -5);
}

TEST(KvOpTest, RejectsGarbage) {
  EXPECT_FALSE(KvOp::Decode(Buffer{99}).ok());
  EXPECT_FALSE(KvOp::Decode(Buffer{}).ok());
}

// --- KV state machine --------------------------------------------------------

TEST(KvStateMachineTest, PutGetDelete) {
  KvStateMachine sm;
  EXPECT_EQ(sm.Apply(KvOp::Put("a", "1")).value(), Slice("OK").ToBuffer());
  EXPECT_EQ(sm.Apply(KvOp::Get("a")).value(), Slice("1").ToBuffer());
  EXPECT_EQ(sm.Apply(KvOp::Delete("a")).value(), Slice("OK").ToBuffer());
  EXPECT_EQ(sm.Apply(KvOp::Delete("a")).value(),
            Slice("NOTFOUND").ToBuffer());
  EXPECT_EQ(sm.Apply(KvOp::Get("a")).value(), Buffer{});
  EXPECT_EQ(sm.version(), 5u);
}

TEST(KvStateMachineTest, AddAccumulates) {
  KvStateMachine sm;
  EXPECT_EQ(sm.Apply(KvOp::Add("x", 5)).value(), Slice("5").ToBuffer());
  EXPECT_EQ(sm.Apply(KvOp::Add("x", -2)).value(), Slice("3").ToBuffer());
  EXPECT_EQ(sm.Get("x").value(), "3");
}

TEST(KvStateMachineTest, IsReadOnly) {
  KvStateMachine sm;
  EXPECT_TRUE(sm.IsReadOnly(KvOp::Get("k")));
  EXPECT_FALSE(sm.IsReadOnly(KvOp::Put("k", "v")));
  EXPECT_FALSE(sm.IsReadOnly(KvOp::Add("k", 1)));
}

TEST(KvStateMachineTest, DigestIsOrderSensitive) {
  KvStateMachine a, b;
  a.Apply(KvOp::Put("x", "1"));
  a.Apply(KvOp::Put("y", "2"));
  b.Apply(KvOp::Put("y", "2"));
  b.Apply(KvOp::Put("x", "1"));
  EXPECT_NE(a.StateDigest(), b.StateDigest());

  KvStateMachine c;
  c.Apply(KvOp::Put("x", "1"));
  c.Apply(KvOp::Put("y", "2"));
  EXPECT_EQ(a.StateDigest(), c.StateDigest());
}

TEST(KvStateMachineTest, RollbackRestoresStateAndDigest) {
  KvStateMachine sm;
  sm.Apply(KvOp::Put("a", "1"));
  Digest d1 = sm.StateDigest();
  sm.Apply(KvOp::Put("a", "2"));
  sm.Apply(KvOp::Delete("a"));
  sm.Apply(KvOp::Put("b", "3"));

  ASSERT_TRUE(sm.Rollback(3).ok());
  EXPECT_EQ(sm.version(), 1u);
  EXPECT_EQ(sm.StateDigest(), d1);
  EXPECT_EQ(sm.Get("a").value(), "1");
  EXPECT_FALSE(sm.Get("b").has_value());
}

TEST(KvStateMachineTest, RollbackBeyondHistoryFails) {
  KvStateMachine sm;
  sm.Apply(KvOp::Put("a", "1"));
  sm.TrimUndoHistory(1);
  EXPECT_FALSE(sm.Rollback(1).ok());
}

TEST(KvStateMachineTest, TrimThenRollbackRecentStillWorks) {
  KvStateMachine sm;
  sm.Apply(KvOp::Put("a", "1"));
  sm.Apply(KvOp::Put("b", "2"));
  sm.TrimUndoHistory(1);
  ASSERT_TRUE(sm.Rollback(1).ok());
  EXPECT_EQ(sm.version(), 1u);
  EXPECT_FALSE(sm.Get("b").has_value());
}

TEST(KvStateMachineTest, SnapshotRestoreRoundTrip) {
  KvStateMachine sm;
  sm.Apply(KvOp::Put("a", "1"));
  sm.Apply(KvOp::Put("b", "2"));
  Buffer snap = sm.Snapshot();

  KvStateMachine other;
  ASSERT_TRUE(other.Restore(snap).ok());
  EXPECT_EQ(other.version(), 2u);
  EXPECT_EQ(other.StateDigest(), sm.StateDigest());
  EXPECT_EQ(other.Get("a").value(), "1");
  EXPECT_EQ(other.Get("b").value(), "2");

  // Restored machines continue identically.
  sm.Apply(KvOp::Put("c", "3"));
  other.Apply(KvOp::Put("c", "3"));
  EXPECT_EQ(other.StateDigest(), sm.StateDigest());
}

TEST(KvStateMachineTest, RestoreRejectsCorruptSnapshot) {
  KvStateMachine sm;
  Buffer bad = {1, 2, 3};
  EXPECT_FALSE(sm.Restore(bad).ok());
}

TEST(KvStateMachineTest, ApplyRejectsMalformedOp) {
  KvStateMachine sm;
  EXPECT_FALSE(sm.Apply(Buffer{0xff, 0x00}).ok());
  EXPECT_EQ(sm.version(), 0u);  // Failed ops do not advance the version.
}

TEST(KvOpTest, RejectsTrailingGarbage) {
  Buffer ok = KvOp::Put("key", "value");
  ASSERT_TRUE(KvOp::Decode(ok).ok());
  Buffer extended = ok;
  extended.push_back(0x00);
  EXPECT_FALSE(KvOp::Decode(extended).ok());
}

// --- Transactions -----------------------------------------------------------

KvTxn MakeTxn(ClientId owner, std::vector<KvOp> ops) {
  KvTxn txn;
  txn.owner = owner;
  txn.ops = std::move(ops);
  return txn;
}

KvOp TxnPut(const std::string& key, const std::string& value) {
  KvOp op;
  op.code = KvOpCode::kPut;
  op.key = key;
  op.value = value;
  return op;
}

KvOp TxnGet(const std::string& key) {
  KvOp op;
  op.code = KvOpCode::kGet;
  op.key = key;
  return op;
}

KvOp TxnAdd(const std::string& key, int64_t delta) {
  KvOp op;
  op.code = KvOpCode::kAdd;
  op.key = key;
  op.delta = delta;
  return op;
}

KvTxnResult MustTxnResult(const Result<Buffer>& applied) {
  EXPECT_TRUE(applied.ok());
  Result<KvTxnResult> result = KvTxnResult::Decode(*applied);
  EXPECT_TRUE(result.ok());
  return *result;
}

TEST(KvTxnTest, EncodeDecodeRoundTrip) {
  KvTxn txn = MakeTxn(kClientIdBase,
                      {TxnGet("a"), TxnPut("b", "v"), TxnAdd("c", -3)});
  Buffer encoded = txn.Encode();
  EXPECT_TRUE(KvTxn::IsTxn(encoded));
  EXPECT_FALSE(KvTxn::IsTxn(KvOp::Put("a", "b")));
  Result<KvTxn> back = KvTxn::Decode(encoded);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->owner, txn.owner);
  ASSERT_EQ(back->ops.size(), 3u);
  EXPECT_EQ(back->ops[1].key, "b");
  EXPECT_EQ(back->ops[2].delta, -3);
}

TEST(KvTxnTest, DecodeRejectsEmptyAndTrailingBytes) {
  KvTxn empty;
  empty.owner = 1;
  EXPECT_FALSE(KvTxn::Decode(empty.Encode()).ok());

  Buffer extended = MakeTxn(1, {TxnGet("a")}).Encode();
  extended.push_back(0x7);
  EXPECT_FALSE(KvTxn::Decode(extended).ok());
}

TEST(KvTxnTest, CommitsAtomicallyWithReadYourWrites) {
  KvStateMachine sm;
  KvTxnResult result = MustTxnResult(sm.Apply(
      MakeTxn(kClientIdBase,
              {TxnPut("a", "1"), TxnGet("a"), TxnAdd("ctr", 2), TxnGet("b")})
          .Encode()));
  EXPECT_TRUE(result.committed);
  ASSERT_EQ(result.results.size(), 4u);
  EXPECT_EQ(result.results[0], "OK");
  EXPECT_EQ(result.results[1], "1");  // Read-your-writes inside the txn.
  EXPECT_EQ(result.results[2], "2");
  EXPECT_EQ(result.results[3], "");
  // One Apply = one version step, whatever the op count.
  EXPECT_EQ(sm.version(), 1u);
  EXPECT_EQ(sm.txn_commits(), 1u);
}

TEST(KvTxnTest, WriteWriteConflictAbortsWholeTxn) {
  KvStateMachine sm;
  ASSERT_TRUE(MustTxnResult(sm.Apply(
                  MakeTxn(kClientIdBase, {TxnPut("hot", "1")}).Encode()))
                  .committed);

  // Another client writing the same key inside the window aborts, and the
  // abort is all-or-nothing: its other key is untouched too.
  KvTxnResult aborted = MustTxnResult(sm.Apply(
      MakeTxn(kClientIdBase + 1, {TxnPut("other", "x"), TxnPut("hot", "2")})
          .Encode()));
  EXPECT_FALSE(aborted.committed);
  EXPECT_NE(aborted.abort_reason.find("hot"), std::string::npos);
  EXPECT_EQ(sm.Get("hot").value(), "1");
  EXPECT_FALSE(sm.Get("other").has_value());
  EXPECT_EQ(sm.txn_aborts(), 1u);
  // The abort decision is replicated state: the chain still advanced.
  EXPECT_EQ(sm.version(), 2u);

  // The owner itself may keep writing (no self-conflict).
  EXPECT_TRUE(MustTxnResult(sm.Apply(
                  MakeTxn(kClientIdBase, {TxnPut("hot", "3")}).Encode()))
                  .committed);
}

TEST(KvTxnTest, ConflictWindowExpires) {
  KvStateMachine sm;
  sm.set_conflict_window(2);
  ASSERT_TRUE(MustTxnResult(sm.Apply(
                  MakeTxn(kClientIdBase, {TxnPut("hot", "1")}).Encode()))
                  .committed);
  // Push the writer out of the 2-version window with unrelated single ops.
  ASSERT_TRUE(sm.Apply(KvOp::Put("x", "1")).ok());
  ASSERT_TRUE(sm.Apply(KvOp::Put("y", "1")).ok());
  EXPECT_TRUE(MustTxnResult(sm.Apply(
                  MakeTxn(kClientIdBase + 1, {TxnPut("hot", "2")}).Encode()))
                  .committed);
}

TEST(KvTxnTest, RollbackRestoresDataDigestAndConflictState) {
  KvStateMachine sm;
  ASSERT_TRUE(sm.Apply(KvOp::Put("a", "0")).ok());
  Digest before = sm.StateDigest();
  Buffer snap_before = sm.Snapshot();

  ASSERT_TRUE(MustTxnResult(sm.Apply(
                  MakeTxn(kClientIdBase,
                          {TxnPut("a", "1"), TxnPut("b", "2"), TxnAdd("a", 5)})
                      .Encode()))
                  .committed);
  ASSERT_TRUE(sm.Rollback(1).ok());
  EXPECT_EQ(sm.version(), 1u);
  EXPECT_EQ(sm.StateDigest(), before);
  EXPECT_EQ(sm.Get("a").value(), "0");
  EXPECT_FALSE(sm.Get("b").has_value());
  // Conflict metadata rolled back too: a different client's write to "a"
  // commits because the rolled-back txn no longer counts as last writer.
  EXPECT_EQ(sm.Snapshot(), snap_before);
  EXPECT_TRUE(MustTxnResult(sm.Apply(
                  MakeTxn(kClientIdBase + 1, {TxnPut("a", "9")}).Encode()))
                  .committed);
}

TEST(KvTxnTest, SnapshotCarriesConflictState) {
  KvStateMachine sm;
  ASSERT_TRUE(MustTxnResult(sm.Apply(
                  MakeTxn(kClientIdBase, {TxnPut("hot", "1")}).Encode()))
                  .committed);

  KvStateMachine restored;
  ASSERT_TRUE(restored.Restore(sm.Snapshot()).ok());
  EXPECT_EQ(restored.StateDigest(), sm.StateDigest());
  // The restored machine makes the same abort decision as the original.
  Buffer rival =
      MakeTxn(kClientIdBase + 1, {TxnPut("hot", "2")}).Encode();
  EXPECT_FALSE(MustTxnResult(restored.Apply(rival)).committed);
}

TEST(KvTxnTest, ReadOnlyTxnFastPath) {
  KvStateMachine sm;
  ASSERT_TRUE(sm.Apply(KvOp::Put("a", "1")).ok());
  Buffer ro = MakeTxn(kClientIdBase, {TxnGet("a"), TxnGet("b")}).Encode();
  EXPECT_TRUE(sm.IsReadOnly(ro));
  EXPECT_FALSE(sm.IsReadOnly(
      MakeTxn(kClientIdBase, {TxnGet("a"), TxnPut("b", "2")}).Encode()));
  Result<Buffer> result = sm.ExecuteReadOnly(ro);
  ASSERT_TRUE(result.ok());
  Result<KvTxnResult> decoded = KvTxnResult::Decode(*result);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->committed);
  ASSERT_EQ(decoded->results.size(), 2u);
  EXPECT_EQ(decoded->results[0], "1");
  EXPECT_EQ(decoded->results[1], "");
  EXPECT_EQ(sm.version(), 1u);  // Read-only execution is side-effect free.
}

TEST(KvTxnTest, ResultEncodingClassifies) {
  KvTxnResult committed;
  committed.committed = true;
  committed.results = {"OK", "7"};
  Buffer enc = committed.Encode();
  EXPECT_TRUE(KvTxnResult::IsTxnResult(enc));
  EXPECT_FALSE(KvTxnResult::IsAbort(enc));

  KvTxnResult aborted;
  aborted.committed = false;
  aborted.abort_reason = "ww-conflict on k";
  Buffer abort_enc = aborted.Encode();
  EXPECT_TRUE(KvTxnResult::IsAbort(abort_enc));
  Result<KvTxnResult> back = KvTxnResult::Decode(abort_enc);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->abort_reason, "ww-conflict on k");

  EXPECT_FALSE(KvTxnResult::IsTxnResult(Slice("OK")));
  EXPECT_FALSE(KvTxnResult::IsAbort(Slice("CONFLICT")));
}

TEST(ExtractPayloadKeysTest, SingleOpsAndTxns) {
  Result<PayloadKeys> get = ExtractPayloadKeys(KvOp::Get("a"));
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(get->reads, std::vector<std::string>{"a"});
  EXPECT_TRUE(get->writes.empty());

  Result<PayloadKeys> put = ExtractPayloadKeys(KvOp::Put("a", "v"));
  ASSERT_TRUE(put.ok());
  EXPECT_TRUE(put->reads.empty());
  EXPECT_EQ(put->writes, std::vector<std::string>{"a"});

  Result<PayloadKeys> txn = ExtractPayloadKeys(
      MakeTxn(1, {TxnGet("r1"), TxnPut("w1", "v"), TxnGet("r1"),
                  TxnAdd("w2", 1), TxnPut("w1", "v2")})
          .Encode());
  ASSERT_TRUE(txn.ok());
  EXPECT_EQ(txn->reads, std::vector<std::string>{"r1"});
  EXPECT_EQ(txn->writes, (std::vector<std::string>{"w1", "w2"}));

  EXPECT_FALSE(ExtractPayloadKeys(Buffer{0xee}).ok());
}

// --- Checkpoints --------------------------------------------------------------

// A checkpoint of `sm` as it stands, certified by its commitment.
Checkpoint CheckpointOf(SequenceNumber seq, const StateMachine& sm) {
  Checkpoint cp;
  cp.seq = seq;
  cp.state_digest = sm.StateCommitment();
  cp.version = sm.version();
  return cp;
}

TEST(CheckpointStoreTest, IntervalAndPredicate) {
  CheckpointStore store(10);
  EXPECT_FALSE(store.IsCheckpointSeq(0));
  EXPECT_FALSE(store.IsCheckpointSeq(5));
  EXPECT_TRUE(store.IsCheckpointSeq(10));
  EXPECT_TRUE(store.IsCheckpointSeq(20));
}

TEST(CheckpointStoreTest, AddGetMarkStableGc) {
  CheckpointStore store(10);
  KvStateMachine sm;
  sm.Apply(KvOp::Put("a", "1"));

  store.Add(CheckpointOf(10, sm));
  store.Add(CheckpointOf(20, sm));
  store.Add(CheckpointOf(30, sm));
  EXPECT_EQ(store.RetainedCount(), 3u);

  EXPECT_EQ(store.MarkStable(20), 20u);
  EXPECT_EQ(store.stable_seq(), 20u);
  // Checkpoints below the stable one are garbage-collected.
  EXPECT_EQ(store.RetainedCount(), 2u);
  EXPECT_FALSE(store.Get(10).ok());
  ASSERT_TRUE(store.GetStable().ok());
  EXPECT_EQ(store.GetStable()->seq, 20u);

  // Stale stability marks do not regress.
  EXPECT_EQ(store.MarkStable(10), 20u);
}

TEST(CheckpointStoreTest, MarkStableWithoutExactCheckpointBackfills) {
  // Regression: a stability proof can arrive for a sequence the replica
  // never snapshotted (e.g. it was recovering while peers checkpointed).
  // stable_seq_ must still advance without stranding GetStable() on
  // NotFound — the newest retained checkpoint at or below the mark backs
  // it.
  CheckpointStore store(10);
  KvStateMachine sm;
  sm.Apply(KvOp::Put("a", "1"));
  store.Add(CheckpointOf(10, sm));

  // No checkpoint was recorded at 30; the one at 10 must survive GC.
  EXPECT_EQ(store.MarkStable(30), 30u);
  EXPECT_EQ(store.stable_seq(), 30u);
  EXPECT_EQ(store.RetainedCount(), 1u);
  ASSERT_TRUE(store.GetStable().ok());
  EXPECT_EQ(store.GetStable()->seq, 10u);

  // A later checkpoint above the mark is unaffected and becomes the
  // stable one once marked.
  sm.Apply(KvOp::Put("b", "2"));
  store.Add(CheckpointOf(40, sm));
  EXPECT_EQ(store.MarkStable(40), 40u);
  ASSERT_TRUE(store.GetStable().ok());
  EXPECT_EQ(store.GetStable()->seq, 40u);
  EXPECT_EQ(store.RetainedCount(), 1u);

  // Marking stable with nothing retained at all still never strands a
  // previously stable checkpoint... there is none; GetStable reports
  // NotFound rather than a stale or invalid checkpoint.
  CheckpointStore empty(10);
  EXPECT_EQ(empty.MarkStable(20), 20u);
  EXPECT_FALSE(empty.GetStable().ok());
}

TEST(CheckpointStoreTest, RestoreFromStableCheckpoint) {
  CheckpointStore store(5);
  KvStateMachine sm;
  for (int i = 0; i < 5; ++i) {
    sm.Apply(KvOp::Add("counter", 1));
  }
  store.Add(CheckpointOf(5, sm));
  store.MarkStable(5);
  const Digest chain_at_checkpoint = sm.StateDigest();
  // Execution moves on; the checkpoint's state is rebuilt from the undo
  // history on demand.
  sm.Apply(KvOp::Add("counter", 1));
  sm.Apply(KvOp::Put("later", "x"));

  KvStateMachine trailing;
  Result<Checkpoint> cp = store.GetStable();
  ASSERT_TRUE(cp.ok());
  Result<Buffer> snapshot = sm.SnapshotAt(cp->version);
  ASSERT_TRUE(snapshot.ok());
  ASSERT_TRUE(trailing.Restore(*snapshot).ok());
  EXPECT_EQ(trailing.StateDigest(), chain_at_checkpoint);
  EXPECT_EQ(trailing.StateCommitment(), cp->state_digest);
  EXPECT_EQ(trailing.Get("counter").value(), "5");
  EXPECT_FALSE(trailing.Get("later").has_value());
}

// --- Incremental commitment ---------------------------------------------------

// Random applies of every kind — single ops, committed and aborted txns,
// stamped, prepared, decided and canceled shard ops — mixed with
// rollbacks, restores and undo trims. After every step the maintained
// commitment must equal one recomputed from scratch (Restore rebuilds it
// from the snapshot), and SnapshotAt() must rebuild the Snapshot() bytes
// captured at any version the undo history still reaches.
TEST(StateCommitmentTest, MatchesFromScratchUnderRandomOps) {
  Rng rng(17);
  KvStateMachine sm;
  sm.set_conflict_window(4);
  // Snapshot() bytes by version, for versions the undo history reaches.
  std::map<uint64_t, Buffer> captured = {{0, sm.Snapshot()}};
  std::vector<Buffer> restore_points = {sm.Snapshot()};
  std::vector<ShardTxnId> prepared;
  uint64_t next_txn = 1;
  uint64_t rollbacks = 0, restores = 0;

  auto key = [&] {
    std::string k = "k";
    k += std::to_string(rng.NextBelow(12));
    return k;
  };
  auto owner = [&] {
    return static_cast<ClientId>(kClientIdBase + rng.NextBelow(3));
  };
  auto sub_ops = [&] {
    std::vector<KvOp> ops;
    const uint64_t n = 1 + rng.NextBelow(3);
    for (uint64_t i = 0; i < n; ++i) {
      switch (rng.NextBelow(4)) {
        case 0:
          ops.push_back(TxnGet(key()));
          break;
        case 1:
          ops.push_back(TxnAdd(key(), static_cast<int64_t>(rng.NextBelow(9))));
          break;
        case 2: {
          KvOp del;
          del.code = KvOpCode::kDelete;
          del.key = key();
          ops.push_back(del);
          break;
        }
        default:
          ops.push_back(TxnPut(key(), std::to_string(rng.NextBelow(1000))));
      }
    }
    return ops;
  };

  for (int step = 0; step < 3000; ++step) {
    const uint64_t action = rng.NextBelow(100);
    bool applied = true;
    if (action < 12) {
      sm.Apply(KvOp::Put(key(), std::to_string(rng.NextBelow(1000))));
    } else if (action < 18) {
      sm.Apply(KvOp::Delete(key()));
    } else if (action < 24) {
      sm.Apply(KvOp::Add(key(), static_cast<int64_t>(rng.NextBelow(5))));
    } else if (action < 44) {
      sm.Apply(MakeTxn(owner(), sub_ops()).Encode());
    } else if (action < 54) {
      ShardOp op;
      op.type = ShardOpType::kStamped;
      op.txn = {owner(), next_txn++};
      // Mostly the next slot; sometimes a gap or a consumed slot.
      op.stamp = sm.next_stamp() + rng.NextBelow(3) - 1;
      op.participants = rng.NextBool(0.5) ? std::vector<uint32_t>{0}
                                          : std::vector<uint32_t>{0, 1};
      op.sub = MakeTxn(op.txn.owner, sub_ops());
      sm.Apply(op.Encode());
    } else if (action < 62) {
      ShardOp op;
      op.type = ShardOpType::kPrepare;
      op.txn = {owner(), next_txn++};
      op.stamp = rng.NextBool(0.5) ? 0 : sm.next_stamp();
      op.participants = {0, 1};
      op.sub = MakeTxn(op.txn.owner, sub_ops());
      sm.Apply(op.Encode());
      prepared.push_back(op.txn);
    } else if (action < 70 && !prepared.empty()) {
      const size_t i = rng.NextBelow(prepared.size());
      ShardOp op;
      op.type = ShardOpType::kDecision;
      op.txn = prepared[i];
      op.commit = rng.NextBool(0.6);
      if (op.commit) {
        for (uint32_t p : {0u, 1u}) {
          op.cert.push_back({p, true, ShardVoteToken(op.txn, p, true)});
        }
      } else {
        op.cert.push_back({1, false, ShardVoteToken(op.txn, 1, false)});
      }
      sm.Apply(op.Encode());
      prepared.erase(prepared.begin() + static_cast<ptrdiff_t>(i));
    } else if (action < 74) {
      ShardOp op;
      op.type = ShardOpType::kCancel;
      op.txn = {owner(), rng.NextBelow(next_txn + 2)};
      sm.Apply(op.Encode());
    } else if (action < 86) {
      applied = false;
      const uint64_t depth = sm.version() - captured.begin()->first;
      const uint64_t count = rng.NextBelow(std::min<uint64_t>(depth, 6) + 1);
      ASSERT_TRUE(sm.Rollback(count).ok());
      captured.erase(captured.upper_bound(sm.version()), captured.end());
      ASSERT_EQ(sm.Snapshot(), captured.at(sm.version())) << "step " << step;
      rollbacks += count > 0;
    } else if (action < 89) {
      applied = false;
      const Buffer& point = restore_points[rng.NextBelow(restore_points.size())];
      ASSERT_TRUE(sm.Restore(point).ok());
      captured = {{sm.version(), point}};
      ++restores;
    } else if (action < 92) {
      applied = false;
      const uint64_t oldest = captured.begin()->first;
      const uint64_t trim = oldest + rng.NextBelow(sm.version() - oldest + 1);
      sm.TrimUndoHistory(trim);
      captured.erase(captured.begin(), captured.lower_bound(trim));
    } else {
      applied = false;
    }

    const Buffer snapshot = sm.Snapshot();
    if (applied) captured[sm.version()] = snapshot;
    if (step % 50 == 0) restore_points.push_back(snapshot);

    KvStateMachine fresh;
    ASSERT_TRUE(fresh.Restore(snapshot).ok());
    ASSERT_EQ(sm.StateCommitment(), fresh.StateCommitment()) << "step " << step;
    Result<Digest> of_snapshot = sm.SnapshotCommitment(snapshot);
    ASSERT_TRUE(of_snapshot.ok());
    ASSERT_EQ(*of_snapshot, sm.StateCommitment()) << "step " << step;

    auto older = captured.begin();
    std::advance(older, static_cast<ptrdiff_t>(rng.NextBelow(captured.size())));
    Result<Buffer> rebuilt = sm.SnapshotAt(older->first);
    ASSERT_TRUE(rebuilt.ok()) << "step " << step;
    ASSERT_EQ(*rebuilt, older->second) << "step " << step << " version "
                                       << older->first;
  }
  // The mix reached every path it is meant to cover.
  EXPECT_GT(rollbacks, 100u);
  EXPECT_GT(restores, 20u);
  EXPECT_GT(sm.txn_commits(), 100u);
  EXPECT_GT(sm.txn_aborts(), 0u);
  EXPECT_FALSE(sm.shard_outcomes().empty());
}

TEST(StateCommitmentTest, CoversValuesAndLastWriters) {
  // States that share version and chain digest but differ in one key's
  // value or last writer, built by editing one snapshot byte: only the
  // key records tell them apart.
  KvStateMachine sm;
  sm.Apply(KvOp::Put("a", "1"));
  sm.Apply(MakeTxn(kClientIdBase, {TxnPut("b", "2")}).Encode());
  const Buffer snapshot = sm.Snapshot();
  // Layout: version (8), chain digest (32), entry count (8), then
  // length-prefixed key and value per entry ("a"="1", "b"="2"), then the
  // writer count (8) and per writer its key ("b"), client and version.
  const size_t entries = 8 + Digest::kSize + 8;
  const size_t value_a = entries + 4 + 1 + 4;
  const size_t writer_b = entries + 2 * (4 + 1 + 4 + 1) + 8 + 4 + 1;
  ASSERT_EQ(snapshot[value_a], '1');
  ASSERT_EQ(snapshot[writer_b - 1], 'b');
  for (size_t offset : {value_a, writer_b}) {
    Buffer edited = snapshot;
    edited[offset] ^= 1;
    KvStateMachine restored;
    ASSERT_TRUE(restored.Restore(edited).ok());
    EXPECT_EQ(restored.StateDigest(), sm.StateDigest());
    EXPECT_NE(restored.StateCommitment(), sm.StateCommitment())
        << "offset " << offset;
  }
  // A snapshot with bytes appended is malformed, not an equal state.
  Buffer extended = snapshot;
  extended.push_back(0);
  EXPECT_FALSE(sm.SnapshotCommitment(extended).ok());
}

}  // namespace
}  // namespace bftlab
