// PBFT replica (Castro & Liskov): pessimistic commitment (P1), 3 ordering
// phases (P2), stable leader with view-change (P3), decentralized
// checkpointing (P4, in the base class), requester clients with f+1 reply
// quorums (P6), clique topology in phases 2-3 (E2), MACs or signatures
// (E3), responsive (E4). The paper's driving example (Figure 2).

#ifndef BFTLAB_PROTOCOLS_PBFT_PBFT_REPLICA_H_
#define BFTLAB_PROTOCOLS_PBFT_PBFT_REPLICA_H_

#include <memory>
#include <string>
#include <vector>

#include "protocols/common/stable_leader_replica.h"
#include "protocols/pbft/pbft_messages.h"

namespace bftlab {

/// One PBFT replica. See class comment above for the design-space point.
class PbftReplica : public StableLeaderReplica {
 public:
  PbftReplica(ReplicaConfig config,
              std::unique_ptr<StateMachine> state_machine);

  std::string name() const override { return "pbft"; }

 protected:
  void OnProtocolMessage(NodeId from, const MessagePtr& msg) override;
  uint64_t ProtocolStateFingerprint() const override;

  /// Validates a leader proposal before accepting it (default: accept;
  /// Themis checks fair order). Returning false drops the proposal;
  /// liveness then comes from the view-change timer.
  virtual bool ValidateProposal(const PrePrepareMessage& msg) {
    (void)msg;
    return true;
  }

  void SendProposal(SequenceNumber seq, Batch batch) override;
  MessagePtr MakeProposal(SequenceNumber seq, Batch batch) override;
  void RetransmitProposal(SequenceNumber seq, const Slot& slot) override;
  std::shared_ptr<const ViewChangeBase> MakeViewChange(
      ViewNumber new_view, std::vector<PreparedProof> proofs) override;
  std::shared_ptr<const NewViewBase> MakeNewView(
      ViewNumber new_view, SequenceNumber base_seq,
      std::vector<Proposal> proposals, size_t proof_bytes) override;
  void Reprepare(const Proposal& p, Slot* slot) override;

  void HandlePrePrepare(NodeId from, const PrePrepareMessage& msg);
  void HandlePrepare(NodeId from, const PrepareMessage& msg);
  void HandleCommit(NodeId from, const CommitMessage& msg);
  /// Multicasts this replica's prepare (or commit) vote for `seq`.
  void SendPrepare(SequenceNumber seq, const Digest& digest);
  void SendCommit(SequenceNumber seq, const Digest& digest);

  void CheckPrepared(SequenceNumber seq);
  void CheckCommitted(SequenceNumber seq);
};

/// Factory for Cluster.
std::unique_ptr<Replica> MakePbftReplica(const ReplicaConfig& config);

}  // namespace bftlab

#endif  // BFTLAB_PROTOCOLS_PBFT_PBFT_REPLICA_H_
