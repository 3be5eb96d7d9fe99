// Zyzzyva replica + client (Kotla et al., SOSP'07): speculative
// commitment (P1 assumptions a1+a2, Design Choice 8). Replicas execute
// requests as soon as the leader orders them and reply speculatively; the
// client completes in ONE phase when all 3f+1 replies match. With fewer
// (but >= 2f+1) matching replies the *repairer* client (P6) assembles a
// commit certificate and runs one more round. Zyzzyva5 (Design Choice
// 10) uses n = 5f+1 with a 4f+1 fast quorum, keeping the fast path alive
// under f faults.
//
// Scope note (documented in DESIGN.md): the view-change stage is not
// implemented — a faulty *leader* halts progress in this implementation.
// The experiments X8/X10 exercise the fault-free fast path and the
// client repair path under backup faults, which is what the paper's
// design choices 8 and 10 discuss.

#ifndef BFTLAB_PROTOCOLS_ZYZZYVA_ZYZZYVA_REPLICA_H_
#define BFTLAB_PROTOCOLS_ZYZZYVA_ZYZZYVA_REPLICA_H_

#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "protocols/common/cluster.h"
#include "protocols/common/quorum.h"
#include "protocols/common/replica.h"
#include "smr/client.h"

namespace bftlab {

enum ZyzzyvaMessageType : uint32_t {
  kZyzOrderReq = 160,
  kZyzCommitCert = 161,
  kZyzCommitVote = 162,
  kZyzFillHole = 163,
};

/// Leader's speculative ordering message (no agreement phases follow).
class ZyzOrderReqMessage : public Message {
 public:
  ZyzOrderReqMessage(ViewNumber view, SequenceNumber seq, Batch batch)
      : view_(view), seq_(seq), batch_(std::move(batch)),
        digest_(batch_.ComputeDigest()) {}

  ViewNumber view() const { return view_; }
  SequenceNumber seq() const { return seq_; }
  const Batch& batch() const { return batch_; }
  const Digest& digest() const { return digest_; }

  uint32_t type() const override { return kZyzOrderReq; }
  void EncodeTo(Encoder* enc) const override {
    enc->PutU32(kZyzOrderReq);
    enc->PutU64(view_);
    enc->PutU64(seq_);
    batch_.EncodeTo(enc);
  }
  size_t auth_wire_bytes() const override {
    return kSignatureBytes + batch_.requests.size() * kSignatureBytes;
  }
  std::string DebugString() const override {
    std::ostringstream os;
    os << "ZYZ-ORDER{v=" << view_ << " seq=" << seq_
       << " reqs=" << batch_.requests.size() << "}";
    return os.str();
  }

 private:
  ViewNumber view_;
  SequenceNumber seq_;
  Batch batch_;
  Digest digest_;
};

/// Repairer client's commit certificate: proof of 2f+1 matching
/// speculative replies up to `seq` (signatures accounted by size).
class ZyzCommitCertMessage : public Message {
 public:
  ZyzCommitCertMessage(ClientId client, SequenceNumber seq,
                       uint32_t cert_size)
      : client_(client), seq_(seq), cert_size_(cert_size) {}

  ClientId client() const { return client_; }
  SequenceNumber seq() const { return seq_; }

  uint32_t type() const override { return kZyzCommitCert; }
  void EncodeTo(Encoder* enc) const override {
    enc->PutU32(kZyzCommitCert);
    enc->PutU32(client_);
    enc->PutU64(seq_);
  }
  size_t auth_wire_bytes() const override {
    return cert_size_ * kSignatureBytes;
  }
  std::string DebugString() const override {
    std::ostringstream os;
    os << "ZYZ-COMMIT-CERT{client=" << client_ << " seq=" << seq_ << "}";
    return os.str();
  }

 private:
  ClientId client_;
  SequenceNumber seq_;
  uint32_t cert_size_;
};

/// Periodic replica-to-replica commit vote stabilizing the speculative
/// history (Zyzzyva's checkpoint protocol).
class ZyzCommitVoteMessage : public Message {
 public:
  ZyzCommitVoteMessage(SequenceNumber seq, Digest state_digest,
                       ReplicaId replica)
      : seq_(seq), state_digest_(state_digest), replica_(replica) {}

  SequenceNumber seq() const { return seq_; }
  const Digest& state_digest() const { return state_digest_; }
  ReplicaId replica() const { return replica_; }

  uint32_t type() const override { return kZyzCommitVote; }
  void EncodeTo(Encoder* enc) const override {
    enc->PutU32(kZyzCommitVote);
    enc->PutU64(seq_);
    enc->PutRaw(state_digest_.AsSlice());
    enc->PutU32(replica_);
  }
  size_t auth_wire_bytes() const override { return kSignatureBytes; }
  std::string DebugString() const override {
    return "ZYZ-COMMIT-VOTE{seq=" + std::to_string(seq_) + "}";
  }

 private:
  SequenceNumber seq_;
  Digest state_digest_;
  ReplicaId replica_;
};

/// Zyzzyva's fill-hole message: a replica with an execution gap asks the
/// leader to re-send the order requests it missed.
class ZyzFillHoleMessage : public Message {
 public:
  ZyzFillHoleMessage(ViewNumber view, SequenceNumber from_seq,
                     ReplicaId requester)
      : view_(view), from_seq_(from_seq), requester_(requester) {}

  ViewNumber view() const { return view_; }
  SequenceNumber from_seq() const { return from_seq_; }
  ReplicaId requester() const { return requester_; }

  uint32_t type() const override { return kZyzFillHole; }
  void EncodeTo(Encoder* enc) const override {
    enc->PutU32(kZyzFillHole);
    enc->PutU64(view_);
    enc->PutU64(from_seq_);
    enc->PutU32(requester_);
  }
  size_t auth_wire_bytes() const override { return kMacBytes; }
  std::string DebugString() const override {
    return "ZYZ-FILL-HOLE{from=" + std::to_string(from_seq_) + "}";
  }

 private:
  ViewNumber view_;
  SequenceNumber from_seq_;
  ReplicaId requester_;
};

class ZyzzyvaReplica : public Replica {
 public:
  ZyzzyvaReplica(ReplicaConfig config,
                 std::unique_ptr<StateMachine> state_machine);

  std::string name() const override { return "zyzzyva"; }
  ViewNumber view() const override { return view_; }
  ReplicaId leader() const override {
    return static_cast<ReplicaId>(view_ % n());
  }

  void OnTimer(uint64_t tag) override;
  void OnRestart() override;

  /// Transactions aborted during speculative execution (the conflict
  /// shows up before the history stabilizes).
  uint64_t spec_txn_aborts() const { return spec_txn_aborts_; }

 protected:
  void OnClientRequest(NodeId from, const ClientRequest& request) override;
  void OnProtocolMessage(NodeId from, const MessagePtr& msg) override;
  void OnExecutionGap(SequenceNumber missing_seq) override;
  void OnDuplicateRequest(const ClientRequest& request) override;
  void OnCheckpointStable(SequenceNumber seq) override;
  void OnTxnExecuted(const ClientRequest& request, bool committed,
                     bool speculative) override;

  static constexpr uint64_t kBatchTimer = kProtocolTimerBase + 0;

 private:
  void HandleOrderReq(NodeId from, const ZyzOrderReqMessage& msg);
  void HandleCommitCert(NodeId from, const ZyzCommitCertMessage& msg);
  void HandleCommitVote(NodeId from, const ZyzCommitVoteMessage& msg);
  void HandleFillHole(NodeId from, const ZyzFillHoleMessage& msg);
  void ProposeAvailable();
  /// Broadcasts a commit vote for the current speculative head.
  void MaybeStabilize();

  ViewNumber view_ = 0;
  SequenceNumber next_seq_ = 1;
  QuorumTracker<std::pair<SequenceNumber, Digest>> commit_votes_;
  SequenceNumber last_stabilize_sent_ = 0;
  EventId batch_timer_ = kInvalidEvent;
  /// Ordered batches retained for fill-hole service (GC'd at stable
  /// checkpoints).
  std::map<SequenceNumber, Batch> order_log_;
  /// (client, timestamp) -> seq, for re-disseminating lost orderings.
  std::map<std::pair<ClientId, RequestTimestamp>, SequenceNumber>
      ordered_at_;
  SimTime last_fill_hole_sent_ = 0;
  uint64_t spec_txn_aborts_ = 0;
};

/// Zyzzyva's speculative client: accepts on `fast_quorum` matching
/// speculative replies; on timeout with >= 2f+1 matches it turns repairer
/// and drives the commit-certificate round.
class ZyzzyvaClient : public Client {
 public:
  /// `fast_quorum`: 3f+1 for Zyzzyva, 4f+1 for Zyzzyva5.
  ZyzzyvaClient(NodeId id, ClientConfig config, uint32_t f,
                uint32_t fast_quorum);

  uint64_t fast_path_commits() const { return fast_commits_; }
  uint64_t repair_commits() const { return repair_commits_; }

 protected:
  void HandleReply(const ReplyMessage& reply) override;
  void OnTimer(uint64_t tag) override;
  void SubmitNext() override;

 private:
  uint32_t f_;
  uint32_t fast_quorum_;
  bool cert_sent_ = false;
  uint64_t fast_commits_ = 0;
  uint64_t repair_commits_ = 0;
  // Speculative replies for the in-flight request:
  // result -> (replicas, max seq reported).
  std::map<Buffer, std::pair<VoterSet, SequenceNumber>> spec_;
  // Committed (post-certificate) replies.
  std::map<Buffer, VoterSet> committed_;
};

std::unique_ptr<Replica> MakeZyzzyvaReplica(const ReplicaConfig& config);

/// Client factory: standard Zyzzyva (fast quorum 3f+1 = n).
ClientFactory ZyzzyvaClientFactory(uint32_t f);
/// Client factory: Zyzzyva5 (n = 5f+1, fast quorum 4f+1).
ClientFactory Zyzzyva5ClientFactory(uint32_t f);

}  // namespace bftlab

#endif  // BFTLAB_PROTOCOLS_ZYZZYVA_ZYZZYVA_REPLICA_H_
