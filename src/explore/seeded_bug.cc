#include "explore/seeded_bug.h"

#include "smr/kv_state_machine.h"

namespace bftlab {

void UncheckedVotePbftReplica::OnProtocolMessage(NodeId from,
                                                const MessagePtr& msg) {
  // The bug: votes are tallied under the local instance digest no matter
  // what digest they actually carry, as if the signature covered only
  // (view, seq). An equivocating leader's conflicting pre-prepares then
  // produce prepare/commit quorums for different batches at one sequence.
  if (msg->type() == kPbftPrepare) {
    const auto& m = static_cast<const PrepareMessage&>(*msg);
    const Slot& inst = slot(m.seq());
    if (inst.has_proposal && !(m.digest() == inst.digest)) {
      auto laundered = std::make_shared<PrepareMessage>(
          m.view(), m.seq(), inst.digest, m.replica(), m.auth_wire_bytes());
      PbftReplica::OnProtocolMessage(from, laundered);
      return;
    }
  } else if (msg->type() == kPbftCommit) {
    const auto& m = static_cast<const CommitMessage&>(*msg);
    const Slot& inst = slot(m.seq());
    if (inst.has_proposal && !(m.digest() == inst.digest)) {
      auto laundered = std::make_shared<CommitMessage>(
          m.view(), m.seq(), inst.digest, m.replica(), m.auth_wire_bytes());
      PbftReplica::OnProtocolMessage(from, laundered);
      return;
    }
  }
  PbftReplica::OnProtocolMessage(from, msg);
}

std::unique_ptr<Replica> MakeUncheckedVotePbftReplica(
    const ReplicaConfig& config) {
  return std::make_unique<UncheckedVotePbftReplica>(
      config, std::make_unique<KvStateMachine>());
}

}  // namespace bftlab
