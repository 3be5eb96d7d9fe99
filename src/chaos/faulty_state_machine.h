// A deliberately-buggy state machine for oracle self-tests: it silently
// loses every `lose_every`-th PUT while still answering "OK". Replicas
// all running it stay in perfect agreement (the bug is deterministic),
// so Agreement/state-digest oracles pass — only the client-observed
// linearizability oracle can catch it. tests/chaos_test.cc proves it does.

#ifndef BFTLAB_CHAOS_FAULTY_STATE_MACHINE_H_
#define BFTLAB_CHAOS_FAULTY_STATE_MACHINE_H_

#include "smr/kv_op.h"
#include "smr/kv_state_machine.h"

namespace bftlab {

class LossyKvStateMachine : public StateMachine {
 public:
  explicit LossyKvStateMachine(uint64_t lose_every)
      : lose_every_(lose_every < 2 ? 2 : lose_every) {}

  Result<Buffer> Apply(Slice operation) override {
    Result<KvOp> op = KvOp::Decode(operation);
    if (op.ok() && op->code == KvOpCode::kPut &&
        ++puts_seen_ % lose_every_ == 0) {
      // Lose the write: advance version/digest deterministically by
      // applying a read instead, and lie "OK" to the client.
      inner_.Apply(KvOp::Get(op->key));
      std::string ok = "OK";
      return Buffer(ok.begin(), ok.end());
    }
    return inner_.Apply(operation);
  }

  bool IsReadOnly(Slice operation) const override {
    return inner_.IsReadOnly(operation);
  }
  Result<Buffer> ExecuteReadOnly(Slice operation) const override {
    return inner_.ExecuteReadOnly(operation);
  }
  uint64_t version() const override { return inner_.version(); }
  Digest StateDigest() const override { return inner_.StateDigest(); }
  Buffer Snapshot() const override { return inner_.Snapshot(); }
  Result<Buffer> SnapshotAt(uint64_t version) const override {
    return inner_.SnapshotAt(version);
  }
  Digest StateCommitment() const override { return inner_.StateCommitment(); }
  Result<Digest> SnapshotCommitment(Slice snapshot) const override {
    return inner_.SnapshotCommitment(snapshot);
  }
  Status Restore(Slice snapshot) override { return inner_.Restore(snapshot); }
  Status Rollback(uint64_t count) override { return inner_.Rollback(count); }
  void TrimUndoHistory(uint64_t version) override {
    inner_.TrimUndoHistory(version);
  }

 private:
  KvStateMachine inner_;
  uint64_t lose_every_;
  uint64_t puts_seen_ = 0;
};

}  // namespace bftlab

#endif  // BFTLAB_CHAOS_FAULTY_STATE_MACHINE_H_
