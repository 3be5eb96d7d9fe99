#include "smr/checkpoint.h"

namespace bftlab {

void CheckpointStore::Add(Checkpoint checkpoint) {
  const SequenceNumber seq = checkpoint.seq;
  checkpoints_[seq] = std::move(checkpoint);
}

SequenceNumber CheckpointStore::MarkStable(SequenceNumber seq) {
  if (seq > stable_seq_) {
    stable_seq_ = seq;
    // Garbage-collect below the newest retained checkpoint at or below the
    // stable mark. When no checkpoint was recorded at `seq` itself (e.g.
    // stability proven for a seq whose local checkpoint is still pending),
    // the older checkpoint backs GetStable() instead of vanishing.
    auto it = checkpoints_.upper_bound(seq);
    if (it != checkpoints_.begin()) {
      checkpoints_.erase(checkpoints_.begin(), std::prev(it));
    }
  }
  return stable_seq_;
}

Result<Checkpoint> CheckpointStore::Get(SequenceNumber seq) const {
  auto it = checkpoints_.find(seq);
  if (it == checkpoints_.end()) {
    return Status::NotFound("no checkpoint at seq " + std::to_string(seq));
  }
  return it->second;
}

Result<Checkpoint> CheckpointStore::GetStable() const {
  // Newest retained checkpoint at or below the stable mark (exactly
  // stable_seq_ when one was recorded there).
  auto it = checkpoints_.upper_bound(stable_seq_);
  if (it == checkpoints_.begin()) {
    return Status::NotFound("no stable checkpoint yet");
  }
  return std::prev(it)->second;
}

void CheckpointStore::HoldPayload(SequenceNumber seq, Buffer payload) {
  auto it = checkpoints_.find(seq);
  if (it != checkpoints_.end()) it->second.payload = std::move(payload);
}

std::optional<uint64_t> CheckpointStore::OldestRebuildVersion() const {
  std::optional<uint64_t> oldest;
  for (const auto& [seq, cp] : checkpoints_) {
    if (!cp.payload && (!oldest || cp.version < *oldest)) oldest = cp.version;
  }
  return oldest;
}

}  // namespace bftlab
