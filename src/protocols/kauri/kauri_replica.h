// Kauri-style replica (Neiheiser et al., SOSP'21): tree-based load
// balancing (Design Choice 14). Replicas form a tree rooted at the
// leader; proposals DISSEMINATE down the tree and votes AGGREGATE up it,
// so no replica — including the leader — talks to more than `branching`
// +1 peers per phase (Q2 load balancing), at the price of h network hops
// per phase (E2). The protocol optimistically assumes internal tree
// nodes are correct (P1 assumption a3); when an internal node fails to
// aggregate, the root RECONFIGURES the tree, demoting it to a leaf.

#ifndef BFTLAB_PROTOCOLS_KAURI_KAURI_REPLICA_H_
#define BFTLAB_PROTOCOLS_KAURI_KAURI_REPLICA_H_

#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "protocols/common/quorum.h"
#include "protocols/common/replica.h"

namespace bftlab {

enum KauriMessageType : uint32_t {
  kKauriProposal = 240,
  kKauriAggregate = 241,
  kKauriCommit = 242,
  kKauriReconfig = 243,
};

/// The tree layout: BFS order over replica ids, epoch-versioned so the
/// root can demote failed internal nodes.
class KauriTree {
 public:
  KauriTree() = default;
  KauriTree(std::vector<ReplicaId> bfs_order, uint32_t branching)
      : order_(std::move(bfs_order)), branching_(branching) {
    IndexPositions();
  }

  static KauriTree Initial(uint32_t n, ReplicaId root, uint32_t branching);

  ReplicaId root() const { return order_.empty() ? 0 : order_[0]; }
  const std::vector<ReplicaId>& order() const { return order_; }
  uint32_t branching() const { return branching_; }

  ReplicaId ParentOf(ReplicaId id) const;
  std::vector<ReplicaId> ChildrenOf(ReplicaId id) const;
  bool IsInternal(ReplicaId id) const { return !ChildrenOf(id).empty(); }
  uint32_t Height() const;

  /// Returns a new layout with `failed` demoted to the last (leaf) slot.
  KauriTree Demote(ReplicaId failed) const;

 private:
  int PositionOf(ReplicaId id) const;
  void IndexPositions();

  std::vector<ReplicaId> order_;
  /// position_[id] = index of `id` in order_, so ParentOf/ChildrenOf are
  /// O(branching) instead of a linear scan per tree hop.
  std::vector<int> position_;
  uint32_t branching_ = 2;
};

/// Proposal flowing down the tree.
class KauriProposalMessage : public Message {
 public:
  KauriProposalMessage(uint64_t epoch, SequenceNumber seq, Batch batch)
      : epoch_(epoch), seq_(seq), batch_(std::move(batch)),
        digest_(batch_.ComputeDigest()) {}

  uint64_t epoch() const { return epoch_; }
  SequenceNumber seq() const { return seq_; }
  const Batch& batch() const { return batch_; }
  const Digest& digest() const { return digest_; }

  uint32_t type() const override { return kKauriProposal; }
  void EncodeTo(Encoder* enc) const override {
    enc->PutU32(kKauriProposal);
    enc->PutU64(epoch_);
    enc->PutU64(seq_);
    batch_.EncodeTo(enc);
  }
  size_t auth_wire_bytes() const override {
    return kSignatureBytes + batch_.requests.size() * kSignatureBytes;
  }
  std::string DebugString() const override {
    std::ostringstream os;
    os << "KAURI-PROPOSAL{e=" << epoch_ << " seq=" << seq_ << "}";
    return os.str();
  }

 private:
  uint64_t epoch_;
  SequenceNumber seq_;
  Batch batch_;
  Digest digest_;
};

/// Aggregated votes flowing up the tree: the subtree's distinct voters
/// (one combined threshold share on the wire — constant size).
class KauriAggregateMessage : public Message {
 public:
  KauriAggregateMessage(uint64_t epoch, SequenceNumber seq, Digest digest,
                        VoterSet voters)
      : epoch_(epoch), seq_(seq), digest_(digest),
        voters_(std::move(voters)) {}

  uint64_t epoch() const { return epoch_; }
  SequenceNumber seq() const { return seq_; }
  const Digest& digest() const { return digest_; }
  const VoterSet& voters() const { return voters_; }

  uint32_t type() const override { return kKauriAggregate; }
  void EncodeTo(Encoder* enc) const override {
    enc->PutU32(kKauriAggregate);
    enc->PutU64(epoch_);
    enc->PutU64(seq_);
    enc->PutRaw(digest_.AsSlice());
    // Voter bitmap (accounted as ceil(n/8) bytes via the ids).
    enc->PutU32(static_cast<uint32_t>(voters_.size()));
  }
  size_t auth_wire_bytes() const override { return kThresholdSigBytes; }
  std::string DebugString() const override {
    std::ostringstream os;
    os << "KAURI-AGG{e=" << epoch_ << " seq=" << seq_
       << " votes=" << voters_.size() << "}";
    return os.str();
  }

 private:
  uint64_t epoch_;
  SequenceNumber seq_;
  Digest digest_;
  VoterSet voters_;
};

/// Commit certificate flowing down the tree.
class KauriCommitMessage : public Message {
 public:
  KauriCommitMessage(uint64_t epoch, SequenceNumber seq, Digest digest)
      : epoch_(epoch), seq_(seq), digest_(digest) {}

  uint64_t epoch() const { return epoch_; }
  SequenceNumber seq() const { return seq_; }
  const Digest& digest() const { return digest_; }

  uint32_t type() const override { return kKauriCommit; }
  void EncodeTo(Encoder* enc) const override {
    enc->PutU32(kKauriCommit);
    enc->PutU64(epoch_);
    enc->PutU64(seq_);
    enc->PutRaw(digest_.AsSlice());
  }
  size_t auth_wire_bytes() const override {
    return kSignatureBytes + kThresholdSigBytes;
  }
  std::string DebugString() const override {
    return "KAURI-COMMIT{seq=" + std::to_string(seq_) + "}";
  }

 private:
  uint64_t epoch_;
  SequenceNumber seq_;
  Digest digest_;
};

/// Root's tree reconfiguration: new epoch + new BFS layout.
class KauriReconfigMessage : public Message {
 public:
  KauriReconfigMessage(uint64_t new_epoch, std::vector<ReplicaId> order)
      : new_epoch_(new_epoch), order_(std::move(order)) {}

  uint64_t new_epoch() const { return new_epoch_; }
  const std::vector<ReplicaId>& order() const { return order_; }

  uint32_t type() const override { return kKauriReconfig; }
  void EncodeTo(Encoder* enc) const override {
    enc->PutU32(kKauriReconfig);
    enc->PutU64(new_epoch_);
    enc->PutU32(static_cast<uint32_t>(order_.size()));
    for (ReplicaId r : order_) enc->PutU32(r);
  }
  size_t auth_wire_bytes() const override { return kSignatureBytes; }
  std::string DebugString() const override {
    return "KAURI-RECONFIG{e=" + std::to_string(new_epoch_) + "}";
  }

 private:
  uint64_t new_epoch_;
  std::vector<ReplicaId> order_;
};

struct KauriOptions {
  uint32_t branching = 2;
  /// How long an internal node waits for its children before forwarding a
  /// partial aggregate (and how long the root waits before reconfiguring).
  SimTime aggregation_timeout_us = Millis(30);
};

class KauriReplica : public Replica {
 public:
  KauriReplica(ReplicaConfig config,
               std::unique_ptr<StateMachine> state_machine,
               KauriOptions options);

  std::string name() const override { return "kauri"; }
  ViewNumber view() const override { return epoch_; }
  ReplicaId leader() const override { return tree_.root(); }
  const KauriTree& tree() const { return tree_; }
  uint64_t reconfigurations() const { return reconfigs_; }

  void OnTimer(uint64_t tag) override;
  void OnRestart() override;
  size_t VoteStateSize() const override;

 protected:
  void OnClientRequest(NodeId from, const ClientRequest& request) override;
  void OnProtocolMessage(NodeId from, const MessagePtr& msg) override;
  void OnDuplicateRequest(const ClientRequest& request) override;
  void OnCheckpointStable(SequenceNumber seq) override;

  static constexpr uint64_t kBatchTimer = kProtocolTimerBase + 0;
  static constexpr uint64_t kAggTimerBase = kProtocolTimerBase + 1000;

 private:
  struct Instance {
    Batch batch;
    Digest digest;
    bool has_proposal = false;
    bool committed = false;
    uint32_t timeout_count = 0;  // Root: consecutive aggregation timeouts.
    size_t flushed_votes = 0;  // Votes already forwarded up.
    VoterSet votes;  // Own + aggregated from children subtrees.
    VoterSet children_reported;
    EventId agg_timer = kInvalidEvent;
  };

  void ProposeAvailable();
  void HandleProposal(NodeId from, const KauriProposalMessage& msg);
  void HandleAggregate(NodeId from, const KauriAggregateMessage& msg);
  void HandleCommit(NodeId from, const KauriCommitMessage& msg);
  void HandleReconfig(NodeId from, const KauriReconfigMessage& msg);
  /// Forwards this node's aggregate up (or commits at the root). With
  /// `force`, re-sends even if no new votes arrived (retransmission).
  void FlushUp(SequenceNumber seq, bool force = false);
  void CommitAndPropagate(SequenceNumber seq);

  KauriOptions options_;
  uint64_t epoch_ = 0;
  KauriTree tree_;
  SequenceNumber next_seq_ = 1;
  std::map<SequenceNumber, Instance> instances_;
  EventId batch_timer_ = kInvalidEvent;
  SimTime last_commit_resend_ = 0;
  uint64_t reconfigs_ = 0;
};

std::unique_ptr<Replica> MakeKauriReplica(const ReplicaConfig& config);
ReplicaFactory KauriFactory(KauriOptions options);

}  // namespace bftlab

#endif  // BFTLAB_PROTOCOLS_KAURI_KAURI_REPLICA_H_
