// Checkpoint storage (paper dimension P4). Keeps the periodic checkpoints
// that let completed consensus instances be garbage-collected and
// trailing ("in-dark") replicas catch up via state transfer.

#ifndef BFTLAB_SMR_CHECKPOINT_H_
#define BFTLAB_SMR_CHECKPOINT_H_

#include <map>
#include <optional>

#include "common/buffer.h"
#include "common/result.h"
#include "common/types.h"
#include "crypto/digest.h"

namespace bftlab {

/// The certified state as of a sequence number. A checkpoint holds no
/// copy of the application state: its payload is `head`, the application
/// snapshot at `version`, then `tail`, and the snapshot is rebuilt on
/// demand from the live state machine and its undo history (DESIGN.md
/// §14).
struct Checkpoint {
  SequenceNumber seq = 0;
  Digest state_digest;
  /// State-machine version() the checkpoint captured.
  uint64_t version = 0;
  /// Payload bytes before and after the application snapshot, as encoded
  /// at checkpoint time. They are sized by the client count, not the
  /// state.
  Buffer head;
  Buffer tail;
  /// The whole payload, held once the undo history can no longer rebuild
  /// it (a rollback or restore is about to discard the captured version).
  std::optional<Buffer> payload;
};

/// Stores local checkpoints and tracks the latest *stable* one (a
/// checkpoint proven by a quorum — stability is decided by the protocol
/// layer, which calls MarkStable).
class CheckpointStore {
 public:
  /// Interval (in sequence numbers) between checkpoints.
  explicit CheckpointStore(uint64_t interval = 128) : interval_(interval) {}

  uint64_t interval() const { return interval_; }

  /// True when a checkpoint should be taken after executing `seq`.
  bool IsCheckpointSeq(SequenceNumber seq) const {
    return seq > 0 && seq % interval_ == 0;
  }

  /// Records a local checkpoint.
  void Add(Checkpoint checkpoint);

  /// Marks `seq` stable and garbage-collects strictly older checkpoints.
  /// Returns the low-water mark (the stable seq).
  SequenceNumber MarkStable(SequenceNumber seq);

  /// Latest stable sequence number (0 if none yet).
  SequenceNumber stable_seq() const { return stable_seq_; }

  /// Fetches the checkpoint at `seq`.
  Result<Checkpoint> Get(SequenceNumber seq) const;

  /// Latest stable checkpoint: the newest retained checkpoint at or
  /// below stable_seq() (stability can be proven for a seq with no local
  /// checkpoint; the preceding checkpoint then serves state transfer).
  Result<Checkpoint> GetStable() const;

  /// Number of retained checkpoints (tests observe GC through this).
  size_t RetainedCount() const { return checkpoints_.size(); }

  /// Retained checkpoints by sequence number.
  const std::map<SequenceNumber, Checkpoint>& retained() const {
    return checkpoints_;
  }

  /// Stores the whole payload of the retained checkpoint at `seq`.
  void HoldPayload(SequenceNumber seq, Buffer payload);

  /// Oldest version a retained checkpoint without a held payload
  /// captured: the undo history must reach back to it. nullopt if none.
  std::optional<uint64_t> OldestRebuildVersion() const;

 private:
  uint64_t interval_;
  SequenceNumber stable_seq_ = 0;
  std::map<SequenceNumber, Checkpoint> checkpoints_;
};

}  // namespace bftlab

#endif  // BFTLAB_SMR_CHECKPOINT_H_
