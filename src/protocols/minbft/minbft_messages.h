// MinBFT wire messages (Veronese et al., TC'13): prepare / commit for
// ordering, view-change / new-view for leader replacement. Every message
// carries a Unique Identifier (UI) issued by the sender's trusted
// monotonic counter (crypto/trusted.h); the UI, not a signature quorum,
// is what prevents equivocation and lets the protocol run on n = 2f+1.

#ifndef BFTLAB_PROTOCOLS_MINBFT_MINBFT_MESSAGES_H_
#define BFTLAB_PROTOCOLS_MINBFT_MINBFT_MESSAGES_H_

#include <sstream>
#include <string>
#include <vector>

#include "crypto/digest.h"
#include "crypto/keystore.h"
#include "crypto/trusted.h"
#include "protocols/common/stable_leader_messages.h"
#include "sim/message.h"
#include "smr/request.h"

namespace bftlab {

enum MinBftMessageType : uint32_t {
  kMinPrepare = 280,
  kMinCommit = 281,
  kMinViewChange = 282,
  kMinNewView = 283,
};

inline void EncodeUniqueIdentifier(Encoder* enc, const UniqueIdentifier& ui) {
  enc->PutU32(ui.signer);
  enc->PutU64(ui.epoch);
  enc->PutU64(ui.counter);
  enc->PutRaw(ui.tag.AsSlice());
}

/// Leader's ordering proposal: assigns `seq` to `batch` in `view`, bound
/// to the leader's next counter value by the attached UI.
class MinPrepareMessage : public Message {
 public:
  MinPrepareMessage(ViewNumber view, SequenceNumber seq, Batch batch,
                    UniqueIdentifier ui)
      : view_(view),
        seq_(seq),
        batch_(std::move(batch)),
        digest_(batch_.ComputeDigest()),
        ui_(ui) {}

  ViewNumber view() const { return view_; }
  SequenceNumber seq() const { return seq_; }
  const Batch& batch() const { return batch_; }
  const Digest& digest() const { return digest_; }
  const UniqueIdentifier& ui() const { return ui_; }

  uint32_t type() const override { return kMinPrepare; }
  void EncodeTo(Encoder* enc) const override {
    enc->PutU32(kMinPrepare);
    enc->PutU64(view_);
    enc->PutU64(seq_);
    batch_.EncodeTo(enc);
    EncodeUniqueIdentifier(enc, ui_);
  }
  size_t auth_wire_bytes() const override {
    // UI certificate + channel MAC + the client signatures in the batch.
    return kUiCertBytes + kMacBytes + batch_.requests.size() * kSignatureBytes;
  }
  std::string DebugString() const override {
    std::ostringstream os;
    os << "MIN-PREPARE{v=" << view_ << " seq=" << seq_
       << " ctr=" << ui_.counter << " reqs=" << batch_.requests.size() << "}";
    return os.str();
  }

 private:
  ViewNumber view_;
  SequenceNumber seq_;
  Batch batch_;
  Digest digest_;
  UniqueIdentifier ui_;
};

/// Replica's commit vote. The leader's prepare doubles as its own vote, so
/// f+1 UIs over one (view, seq, digest) commit the batch.
class MinCommitMessage : public Message {
 public:
  MinCommitMessage(ViewNumber view, SequenceNumber seq, Digest digest,
                   ReplicaId replica, UniqueIdentifier ui)
      : view_(view), seq_(seq), digest_(digest), replica_(replica), ui_(ui) {}

  ViewNumber view() const { return view_; }
  SequenceNumber seq() const { return seq_; }
  const Digest& digest() const { return digest_; }
  ReplicaId replica() const { return replica_; }
  const UniqueIdentifier& ui() const { return ui_; }

  uint32_t type() const override { return kMinCommit; }
  void EncodeTo(Encoder* enc) const override {
    enc->PutU32(kMinCommit);
    enc->PutU64(view_);
    enc->PutU64(seq_);
    enc->PutRaw(digest_.AsSlice());
    enc->PutU32(replica_);
    EncodeUniqueIdentifier(enc, ui_);
  }
  size_t auth_wire_bytes() const override { return kUiCertBytes + kMacBytes; }
  std::string DebugString() const override {
    std::ostringstream os;
    os << "MIN-COMMIT{v=" << view_ << " seq=" << seq_
       << " replica=" << replica_ << " ctr=" << ui_.counter << "}";
    return os.str();
  }

 private:
  ViewNumber view_;
  SequenceNumber seq_;
  Digest digest_;
  ReplicaId replica_;
  UniqueIdentifier ui_;
};

/// Replica's declaration that view `new_view - 1` failed. UI-certified, so
/// a replica whose counter was rolled back cannot join view-change quorums
/// with stale identifiers. Its certificates are the accepted prepares.
class MinViewChangeMessage : public ViewChangeBase {
 public:
  MinViewChangeMessage(ViewNumber new_view, ReplicaId replica,
                       SequenceNumber stable_seq,
                       std::vector<PreparedProof> prepared,
                       UniqueIdentifier ui)
      : ViewChangeBase(new_view, replica, stable_seq, std::move(prepared)),
        ui_(ui) {}

  const UniqueIdentifier& ui() const { return ui_; }

  uint32_t type() const override { return kMinViewChange; }
  void EncodeTo(Encoder* enc) const override {
    enc->PutU32(kMinViewChange);
    EncodeFields(enc);
    EncodeUniqueIdentifier(enc, ui_);
  }
  size_t auth_wire_bytes() const override {
    // Own UI + channel MAC + the prepare UI backing each certificate.
    return kUiCertBytes + kMacBytes + prepared().size() * kUiCertBytes;
  }
  std::string DebugString() const override {
    return Describe("MIN-VIEW-CHANGE");
  }

 private:
  UniqueIdentifier ui_;
};

/// New leader's installation message. Its UI becomes the base of the new
/// view's affine seq<->counter binding (DESIGN.md §15): the k-th
/// re-proposal after `base_seq` must carry counter ui.counter + k.
class MinNewViewMessage : public NewViewBase {
 public:
  MinNewViewMessage(ViewNumber new_view, SequenceNumber base_seq,
                    std::vector<Proposal> proposals,
                    size_t view_change_proof_bytes, UniqueIdentifier ui)
      : NewViewBase(new_view, std::move(proposals), view_change_proof_bytes),
        base_seq_(base_seq),
        ui_(ui) {}

  SequenceNumber base_seq() const { return base_seq_; }
  const UniqueIdentifier& ui() const { return ui_; }

  uint32_t type() const override { return kMinNewView; }
  void EncodeTo(Encoder* enc) const override {
    enc->PutU32(kMinNewView);
    enc->PutU64(new_view());
    enc->PutU64(base_seq_);
    EncodeProposals(enc);
    EncodeUniqueIdentifier(enc, ui_);
  }
  size_t auth_wire_bytes() const override {
    return kUiCertBytes + kMacBytes + proof_bytes();
  }
  std::string DebugString() const override {
    std::ostringstream os;
    os << "MIN-NEW-VIEW{v=" << new_view() << " base=" << base_seq_
       << " proposals=" << proposals().size() << "}";
    return os.str();
  }

 private:
  SequenceNumber base_seq_;
  UniqueIdentifier ui_;
};

}  // namespace bftlab

#endif  // BFTLAB_PROTOCOLS_MINBFT_MINBFT_MESSAGES_H_
