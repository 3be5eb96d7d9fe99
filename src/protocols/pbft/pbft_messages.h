// PBFT wire messages (Castro & Liskov, OSDI'99), as described in §2.1 of
// the paper: pre-prepare / prepare / commit for ordering, view-change /
// new-view for leader replacement.

#ifndef BFTLAB_PROTOCOLS_PBFT_PBFT_MESSAGES_H_
#define BFTLAB_PROTOCOLS_PBFT_PBFT_MESSAGES_H_

#include <sstream>
#include <string>
#include <vector>

#include "crypto/digest.h"
#include "crypto/keystore.h"
#include "protocols/common/stable_leader_messages.h"
#include "sim/message.h"
#include "smr/request.h"

namespace bftlab {

enum PbftMessageType : uint32_t {
  kPbftPrePrepare = 100,
  kPbftPrepare = 101,
  kPbftCommit = 102,
  kPbftViewChange = 103,
  kPbftNewView = 104,
};

/// Leader's ordering proposal: assigns `seq` to `batch` in `view`.
class PrePrepareMessage : public Message {
 public:
  PrePrepareMessage(ViewNumber view, SequenceNumber seq, Batch batch,
                    size_t auth_bytes)
      : view_(view),
        seq_(seq),
        batch_(std::move(batch)),
        digest_(batch_.ComputeDigest()),
        auth_bytes_(auth_bytes) {}

  ViewNumber view() const { return view_; }
  SequenceNumber seq() const { return seq_; }
  const Batch& batch() const { return batch_; }
  const Digest& digest() const { return digest_; }

  /// Parses bytes produced by EncodeTo (a real transport would call this
  /// on receive; the simulator passes typed messages and uses the
  /// encoding for sizes/digests). Fails with Corruption on bad input.
  static Result<PrePrepareMessage> DecodeFrom(Decoder* dec,
                                              size_t auth_bytes);

  uint32_t type() const override { return kPbftPrePrepare; }
  void EncodeTo(Encoder* enc) const override {
    enc->PutU32(kPbftPrePrepare);
    enc->PutU64(view_);
    enc->PutU64(seq_);
    batch_.EncodeTo(enc);
    enc->PutRaw(digest_.AsSlice());
  }
  size_t auth_wire_bytes() const override {
    // Leader's authenticator + the client signatures inside the batch.
    return auth_bytes_ + batch_.requests.size() * kSignatureBytes;
  }
  std::string DebugString() const override {
    std::ostringstream os;
    os << "PRE-PREPARE{v=" << view_ << " seq=" << seq_
       << " digest=" << digest_.ShortHex()
       << " reqs=" << batch_.requests.size() << "}";
    return os.str();
  }

 private:
  ViewNumber view_;
  SequenceNumber seq_;
  Batch batch_;
  Digest digest_;
  size_t auth_bytes_;
};

/// Backup's vote that it accepted the leader's assignment (phase 2).
class PrepareMessage : public Message {
 public:
  PrepareMessage(ViewNumber view, SequenceNumber seq, Digest digest,
                 ReplicaId replica, size_t auth_bytes)
      : view_(view),
        seq_(seq),
        digest_(digest),
        replica_(replica),
        auth_bytes_(auth_bytes) {}

  ViewNumber view() const { return view_; }
  SequenceNumber seq() const { return seq_; }
  const Digest& digest() const { return digest_; }
  ReplicaId replica() const { return replica_; }

  static Result<PrepareMessage> DecodeFrom(Decoder* dec, size_t auth_bytes);

  uint32_t type() const override { return kPbftPrepare; }
  void EncodeTo(Encoder* enc) const override {
    enc->PutU32(kPbftPrepare);
    enc->PutU64(view_);
    enc->PutU64(seq_);
    enc->PutRaw(digest_.AsSlice());
    enc->PutU32(replica_);
  }
  size_t auth_wire_bytes() const override { return auth_bytes_; }
  std::string DebugString() const override {
    std::ostringstream os;
    os << "PREPARE{v=" << view_ << " seq=" << seq_ << " replica=" << replica_
       << "}";
    return os.str();
  }

 private:
  ViewNumber view_;
  SequenceNumber seq_;
  Digest digest_;
  ReplicaId replica_;
  size_t auth_bytes_;
};

/// Replica's vote that the order is prepared across a quorum (phase 3).
class CommitMessage : public Message {
 public:
  CommitMessage(ViewNumber view, SequenceNumber seq, Digest digest,
                ReplicaId replica, size_t auth_bytes)
      : view_(view),
        seq_(seq),
        digest_(digest),
        replica_(replica),
        auth_bytes_(auth_bytes) {}

  ViewNumber view() const { return view_; }
  SequenceNumber seq() const { return seq_; }
  const Digest& digest() const { return digest_; }
  ReplicaId replica() const { return replica_; }

  static Result<CommitMessage> DecodeFrom(Decoder* dec, size_t auth_bytes);

  uint32_t type() const override { return kPbftCommit; }
  void EncodeTo(Encoder* enc) const override {
    enc->PutU32(kPbftCommit);
    enc->PutU64(view_);
    enc->PutU64(seq_);
    enc->PutRaw(digest_.AsSlice());
    enc->PutU32(replica_);
  }
  size_t auth_wire_bytes() const override { return auth_bytes_; }
  std::string DebugString() const override {
    std::ostringstream os;
    os << "COMMIT{v=" << view_ << " seq=" << seq_ << " replica=" << replica_
       << "}";
    return os.str();
  }

 private:
  ViewNumber view_;
  SequenceNumber seq_;
  Digest digest_;
  ReplicaId replica_;
  size_t auth_bytes_;
};

/// VIEW-CHANGE: own signature plus the 2f+1 prepare signatures behind
/// each prepared certificate.
class ViewChangeMessage : public ViewChangeBase {
 public:
  ViewChangeMessage(ViewNumber new_view, ReplicaId replica,
                    SequenceNumber stable_seq,
                    std::vector<PreparedProof> prepared, uint32_t quorum_2f1)
      : ViewChangeBase(new_view, replica, stable_seq, std::move(prepared)),
        quorum_2f1_(quorum_2f1) {}

  uint32_t type() const override { return kPbftViewChange; }
  void EncodeTo(Encoder* enc) const override {
    enc->PutU32(kPbftViewChange);
    EncodeFields(enc);
  }
  size_t auth_wire_bytes() const override {
    return kSignatureBytes +
           prepared().size() * quorum_2f1_ * kSignatureBytes;
  }
  std::string DebugString() const override { return Describe("VIEW-CHANGE"); }

 private:
  uint32_t quorum_2f1_;
};

/// NEW-VIEW: the leader's signature plus the view changes justifying it.
class NewViewMessage : public NewViewBase {
 public:
  using NewViewBase::NewViewBase;

  uint32_t type() const override { return kPbftNewView; }
  void EncodeTo(Encoder* enc) const override {
    enc->PutU32(kPbftNewView);
    enc->PutU64(new_view());
    EncodeProposals(enc);
  }
  size_t auth_wire_bytes() const override {
    return kSignatureBytes + proof_bytes();
  }
  std::string DebugString() const override {
    std::ostringstream os;
    os << "NEW-VIEW{v=" << new_view() << " proposals=" << proposals().size()
       << "}";
    return os.str();
  }
};

}  // namespace bftlab

#endif  // BFTLAB_PROTOCOLS_PBFT_PBFT_MESSAGES_H_
