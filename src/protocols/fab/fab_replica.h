// FaB replica (Martin & Alvisi, "Fast Byzantine Consensus"): phase
// reduction through redundancy (Design Choice 2). Uses n = 5f+1 replicas
// and commits in TWO phases — the leader's proposal plus one all-to-all
// accept round with a 4f+1 quorum — eliminating PBFT's third phase at the
// cost of 2f extra replicas.
//
// Scope note (DESIGN.md): stable leader, view change not implemented;
// experiment X2 measures the good-case latency/replica-count trade-off.

#ifndef BFTLAB_PROTOCOLS_FAB_FAB_REPLICA_H_
#define BFTLAB_PROTOCOLS_FAB_FAB_REPLICA_H_

#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "protocols/common/quorum.h"
#include "protocols/common/replica.h"

namespace bftlab {

enum FabMessageType : uint32_t {
  kFabPropose = 190,
  kFabAccept = 191,
};

class FabProposeMessage : public Message {
 public:
  FabProposeMessage(ViewNumber view, SequenceNumber seq, Batch batch)
      : view_(view), seq_(seq), batch_(std::move(batch)),
        digest_(batch_.ComputeDigest()) {}

  ViewNumber view() const { return view_; }
  SequenceNumber seq() const { return seq_; }
  const Batch& batch() const { return batch_; }
  const Digest& digest() const { return digest_; }

  uint32_t type() const override { return kFabPropose; }
  void EncodeTo(Encoder* enc) const override {
    enc->PutU32(kFabPropose);
    enc->PutU64(view_);
    enc->PutU64(seq_);
    batch_.EncodeTo(enc);
  }
  size_t auth_wire_bytes() const override {
    return kSignatureBytes + batch_.requests.size() * kSignatureBytes;
  }
  std::string DebugString() const override {
    std::ostringstream os;
    os << "FAB-PROPOSE{v=" << view_ << " seq=" << seq_ << "}";
    return os.str();
  }

 private:
  ViewNumber view_;
  SequenceNumber seq_;
  Batch batch_;
  Digest digest_;
};

class FabAcceptMessage : public Message {
 public:
  FabAcceptMessage(ViewNumber view, SequenceNumber seq, Digest digest,
                   ReplicaId replica)
      : view_(view), seq_(seq), digest_(digest), replica_(replica) {}

  ViewNumber view() const { return view_; }
  SequenceNumber seq() const { return seq_; }
  const Digest& digest() const { return digest_; }
  ReplicaId replica() const { return replica_; }

  uint32_t type() const override { return kFabAccept; }
  void EncodeTo(Encoder* enc) const override {
    enc->PutU32(kFabAccept);
    enc->PutU64(view_);
    enc->PutU64(seq_);
    enc->PutRaw(digest_.AsSlice());
    enc->PutU32(replica_);
  }
  size_t auth_wire_bytes() const override { return kSignatureBytes; }
  std::string DebugString() const override {
    std::ostringstream os;
    os << "FAB-ACCEPT{v=" << view_ << " seq=" << seq_
       << " replica=" << replica_ << "}";
    return os.str();
  }

 private:
  ViewNumber view_;
  SequenceNumber seq_;
  Digest digest_;
  ReplicaId replica_;
};

class FabReplica : public Replica {
 public:
  FabReplica(ReplicaConfig config,
             std::unique_ptr<StateMachine> state_machine);

  std::string name() const override { return "fab"; }
  ViewNumber view() const override { return view_; }
  ReplicaId leader() const override {
    return static_cast<ReplicaId>(view_ % n());
  }

  /// FaB's fast quorum: 4f+1 (the paper's ⌈(n+3f+1)/2⌉ for n = 5f+1).
  uint32_t FastQuorum() const { return 4 * f() + 1; }

  void OnTimer(uint64_t tag) override;
  void OnRestart() override;
  size_t VoteStateSize() const override;

 protected:
  void OnClientRequest(NodeId from, const ClientRequest& request) override;
  void OnProtocolMessage(NodeId from, const MessagePtr& msg) override;
  void OnCheckpointStable(SequenceNumber seq) override;

  static constexpr uint64_t kBatchTimer = kProtocolTimerBase + 0;
  /// Leader retransmission sweep for uncommitted proposals (lossy links).
  static constexpr uint64_t kRetransmitTimer = kProtocolTimerBase + 1;

 private:
  struct Instance {
    Batch batch;
    Digest digest;
    bool has_proposal = false;
    bool accept_sent = false;
    bool committed = false;
    std::map<Digest, VoterSet> accepts;
  };

  void ProposeAvailable();
  void HandlePropose(NodeId from, const FabProposeMessage& msg);
  void HandleAccept(NodeId from, const FabAcceptMessage& msg);
  void CheckCommitted(SequenceNumber seq);

  ViewNumber view_ = 0;
  SequenceNumber next_seq_ = 1;
  std::map<SequenceNumber, Instance> instances_;
  EventId batch_timer_ = kInvalidEvent;
  EventId retransmit_timer_ = kInvalidEvent;
};

/// Factory; use with ClusterConfig{n = 5f+1}.
std::unique_ptr<Replica> MakeFabReplica(const ReplicaConfig& config);

}  // namespace bftlab

#endif  // BFTLAB_PROTOCOLS_FAB_FAB_REPLICA_H_
