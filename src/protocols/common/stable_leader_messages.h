// View-change wire structures shared by the stable-leader protocols
// (PBFT and its derivatives, MinBFT): the prepared certificates a
// VIEW-CHANGE carries, the re-proposals a NEW-VIEW installs, and the
// fields of both messages the engine in stable_leader_replica.h reads.
// Each protocol's concrete message adds its type id, authentication and
// encoding.

#ifndef BFTLAB_PROTOCOLS_COMMON_STABLE_LEADER_MESSAGES_H_
#define BFTLAB_PROTOCOLS_COMMON_STABLE_LEADER_MESSAGES_H_

#include <sstream>
#include <string>
#include <vector>

#include "crypto/digest.h"
#include "sim/message.h"
#include "smr/request.h"

namespace bftlab {

/// A prepared certificate carried inside a view-change message: the batch
/// that was prepared at (view, seq). The view of a committed entry
/// outranks every prepared one.
struct PreparedProof {
  SequenceNumber seq = 0;
  ViewNumber view = 0;
  Batch batch;
  Digest digest;

  void EncodeTo(Encoder* enc) const {
    enc->PutU64(seq);
    enc->PutU64(view);
    batch.EncodeTo(enc);
    enc->PutRaw(digest.AsSlice());
  }
};

/// One entry of a NEW-VIEW's re-proposal set (the O set): a prepared
/// batch carried over, or the null batch filling a gap.
struct Proposal {
  SequenceNumber seq = 0;
  Batch batch;
  Digest digest;

  void EncodeTo(Encoder* enc) const {
    enc->PutU64(seq);
    batch.EncodeTo(enc);
    enc->PutRaw(digest.AsSlice());
  }
};

/// Replica's declaration that view `new_view - 1` failed, carrying its
/// stable checkpoint and prepared certificates (the P set).
class ViewChangeBase : public Message {
 public:
  ViewChangeBase(ViewNumber new_view, ReplicaId replica,
                 SequenceNumber stable_seq, std::vector<PreparedProof> prepared)
      : new_view_(new_view),
        replica_(replica),
        stable_seq_(stable_seq),
        prepared_(std::move(prepared)) {}

  ViewNumber new_view() const { return new_view_; }
  ReplicaId replica() const { return replica_; }
  SequenceNumber stable_seq() const { return stable_seq_; }
  const std::vector<PreparedProof>& prepared() const { return prepared_; }

 protected:
  void EncodeFields(Encoder* enc) const {
    enc->PutU64(new_view_);
    enc->PutU32(replica_);
    enc->PutU64(stable_seq_);
    enc->PutU32(static_cast<uint32_t>(prepared_.size()));
    for (const auto& p : prepared_) p.EncodeTo(enc);
  }
  std::string Describe(const char* kind) const {
    std::ostringstream os;
    os << kind << "{v=" << new_view_ << " replica=" << replica_
       << " stable=" << stable_seq_ << " prepared=" << prepared_.size()
       << "}";
    return os.str();
  }

 private:
  ViewNumber new_view_;
  ReplicaId replica_;
  SequenceNumber stable_seq_;
  std::vector<PreparedProof> prepared_;
};

/// New leader's installation message for `new_view`: the proposals (O set)
/// to re-run, justified by a quorum of view-change messages (accounted in
/// size).
class NewViewBase : public Message {
 public:
  NewViewBase(ViewNumber new_view, std::vector<Proposal> proposals,
              size_t view_change_proof_bytes)
      : new_view_(new_view),
        proposals_(std::move(proposals)),
        proof_bytes_(view_change_proof_bytes) {}

  ViewNumber new_view() const { return new_view_; }
  const std::vector<Proposal>& proposals() const { return proposals_; }

 protected:
  size_t proof_bytes() const { return proof_bytes_; }
  void EncodeProposals(Encoder* enc) const {
    enc->PutU32(static_cast<uint32_t>(proposals_.size()));
    for (const auto& p : proposals_) p.EncodeTo(enc);
  }

 private:
  ViewNumber new_view_;
  std::vector<Proposal> proposals_;
  size_t proof_bytes_;
};

}  // namespace bftlab

#endif  // BFTLAB_PROTOCOLS_COMMON_STABLE_LEADER_MESSAGES_H_
