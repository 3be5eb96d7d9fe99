// Replicated state machine interface (SMR). Protocols execute committed
// operations against a StateMachine; speculative protocols (Zyzzyva, PoE)
// additionally rely on rollback.

#ifndef BFTLAB_SMR_STATE_MACHINE_H_
#define BFTLAB_SMR_STATE_MACHINE_H_

#include <memory>

#include "common/buffer.h"
#include "common/result.h"
#include "crypto/digest.h"

namespace bftlab {

/// Deterministic application state replicated across replicas.
///
/// Determinism contract: two state machines that apply the same operation
/// sequence report identical StateDigest()s. The digest is order-
/// sensitive, so it doubles as an execution-integrity check in tests.
class StateMachine {
 public:
  virtual ~StateMachine() = default;

  /// Applies one operation and returns its result bytes.
  virtual Result<Buffer> Apply(Slice operation) = 0;

  /// True when `operation` does not modify state (may be executed
  /// without total order by read-optimized paths).
  virtual bool IsReadOnly(Slice operation) const = 0;

  /// Executes a read-only operation against the current state WITHOUT
  /// advancing the version/digest (PBFT's read-only optimization, P6:
  /// clients collect 2f+1 matching replies instead of ordering the
  /// read). Fails on mutating operations.
  virtual Result<Buffer> ExecuteReadOnly(Slice operation) const {
    (void)operation;
    return Status::NotSupported("no read-only fast path");
  }

  /// Number of operations applied so far.
  virtual uint64_t version() const = 0;

  /// Order-sensitive digest over the applied history.
  virtual Digest StateDigest() const = 0;

  /// Serializes the full state (for checkpoints / state transfer).
  virtual Buffer Snapshot() const = 0;

  /// Snapshot() as of an earlier `version` that the undo history still
  /// reaches back to (version() itself always works). Checkpoint payloads
  /// are built through this on demand.
  virtual Result<Buffer> SnapshotAt(uint64_t version) const = 0;

  /// Commitment to everything Snapshot() encodes: two state machines
  /// commit to the same digest exactly when their Snapshot() bytes are
  /// equal (up to hash collisions). Kept up to date as operations apply
  /// and roll back, so reading it does not cost O(state).
  virtual Digest StateCommitment() const = 0;

  /// StateCommitment() of the state `snapshot` encodes, computed without
  /// touching this state machine. Fails on a malformed snapshot.
  virtual Result<Digest> SnapshotCommitment(Slice snapshot) const = 0;

  /// Replaces the state from a snapshot.
  virtual Status Restore(Slice snapshot) = 0;

  /// Undoes the most recent `count` applied operations (speculative
  /// execution support). Fails if the undo history is shorter.
  virtual Status Rollback(uint64_t count) = 0;

  /// Trims undo history up to and including `version`: no rollback, and
  /// no SnapshotAt(), will reach below it.
  virtual void TrimUndoHistory(uint64_t version) = 0;
};

}  // namespace bftlab

#endif  // BFTLAB_SMR_STATE_MACHINE_H_
