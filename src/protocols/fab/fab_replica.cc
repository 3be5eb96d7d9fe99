#include "protocols/fab/fab_replica.h"

#include "sim/metrics.h"
#include "sim/network.h"
#include "smr/kv_state_machine.h"

namespace bftlab {

FabReplica::FabReplica(ReplicaConfig config,
                       std::unique_ptr<StateMachine> state_machine)
    : Replica(config, std::move(state_machine)) {}

void FabReplica::OnClientRequest(NodeId from, const ClientRequest& request) {
  if (IsLeader()) {
    if (pending_requests() >= config().batch_size) {
      ProposeAvailable();
    } else if (batch_timer_ == kInvalidEvent) {
      batch_timer_ = SetTimer(config().batch_timeout_us, kBatchTimer);
    }
    return;
  }
  if (IsClientNode(from)) {
    Send(leader(), std::make_shared<RequestMessage>(request));
  }
}

void FabReplica::OnRestart() {
  // Timers that came due while the node was down were dropped, so the
  // stored handles are stale; a restarted leader re-arms its retransmit
  // timer and proposes what it pooled (ProposeAvailable does both).
  batch_timer_ = kInvalidEvent;
  retransmit_timer_ = kInvalidEvent;
  ProposeAvailable();
}

void FabReplica::ProposeAvailable() {
  if (!IsLeader()) return;
  while (HasPending() && next_seq_ <= HighWatermark()) {
    Batch batch = TakeBatch();
    if (batch.requests.empty()) continue;
    SequenceNumber seq = next_seq_++;

    Instance& inst = instances_[seq];
    inst.batch = batch;
    inst.digest = batch.ComputeDigest();
    inst.has_proposal = true;
    inst.accept_sent = true;
    inst.accepts[inst.digest].Add(config().id);
    TraceMark("propose", view_, seq);
    TraceSpanBegin("accept", view_, seq);

    auto msg = std::make_shared<FabProposeMessage>(view_, seq,
                                                   std::move(batch));
    ChargeAuthSend(n() - 1, msg->WireSize());
    Multicast(OtherReplicas(), std::move(msg));
  }
  if (retransmit_timer_ == kInvalidEvent) {
    retransmit_timer_ =
        SetTimer(config().view_change_timeout_us, kRetransmitTimer);
  }
}

void FabReplica::OnProtocolMessage(NodeId from, const MessagePtr& msg) {
  switch (msg->type()) {
    case kFabPropose:
      HandlePropose(from, static_cast<const FabProposeMessage&>(*msg));
      break;
    case kFabAccept:
      HandleAccept(from, static_cast<const FabAcceptMessage&>(*msg));
      break;
    default:
      break;
  }
}

void FabReplica::HandlePropose(NodeId from, const FabProposeMessage& msg) {
  if (from != leader() || msg.view() != view_) return;
  ChargeAuthVerify(msg.WireSize());

  Instance& inst = instances_[msg.seq()];
  if (inst.has_proposal) {
    // Leader retransmission: our accept (or a peer's) was lost; re-send.
    if (inst.accept_sent && !inst.committed) {
      auto accept = std::make_shared<FabAcceptMessage>(
          view_, msg.seq(), inst.digest, config().id);
      ChargeAuthSend(n() - 1, accept->WireSize());
      Multicast(OtherReplicas(), std::move(accept));
    }
    return;
  }
  inst.has_proposal = true;
  inst.batch = msg.batch();
  inst.digest = msg.digest();
  TraceSpanBegin("accept", view_, msg.seq());
  for (const ClientRequest& r : msg.batch().requests) {
    RemoveFromPool(r.ComputeDigest());
  }

  // The proposal doubles as the leader's accept.
  inst.accepts[msg.digest()].Add(from);

  if (byzantine_mode() == ByzantineMode::kSilentBackup) return;
  // Phase 2 of 2: all-to-all accept (quadratic, E2 clique).
  inst.accept_sent = true;
  auto accept = std::make_shared<FabAcceptMessage>(view_, msg.seq(),
                                                   msg.digest(), config().id);
  ChargeAuthSend(n() - 1, accept->WireSize());
  Multicast(OtherReplicas(), std::move(accept));
  inst.accepts[msg.digest()].Add(config().id);
  CheckCommitted(msg.seq());
}

void FabReplica::HandleAccept(NodeId /*from*/, const FabAcceptMessage& msg) {
  if (msg.view() != view_) return;
  ChargeAuthVerify(msg.WireSize());
  Instance& inst = instances_[msg.seq()];
  inst.accepts[msg.digest()].Add(msg.replica());
  CheckCommitted(msg.seq());
}

void FabReplica::CheckCommitted(SequenceNumber seq) {
  Instance& inst = instances_[seq];
  if (inst.committed || !inst.has_proposal) return;
  // 4f+1 matching accepts commit in two phases (good-case latency 2).
  if (inst.accepts[inst.digest].size() < FastQuorum()) return;
  inst.committed = true;
  metrics().Increment("fab.committed");
  TraceSpanEnd("accept", view_, seq);
  Deliver(seq, inst.batch);
}

void FabReplica::OnTimer(uint64_t tag) {
  if (tag == kBatchTimer) {
    batch_timer_ = kInvalidEvent;
    ProposeAvailable();
    return;
  }
  if (tag == kRetransmitTimer) {
    retransmit_timer_ = kInvalidEvent;
    bool outstanding = false;
    for (auto& [seq, inst] : instances_) {
      if (!inst.committed && inst.has_proposal &&
          config().id == leader()) {
        outstanding = true;
        metrics().Increment("fab.retransmissions");
        auto msg =
            std::make_shared<FabProposeMessage>(view_, seq, inst.batch);
        ChargeAuthSend(n() - 1, msg->WireSize());
        Multicast(OtherReplicas(), std::move(msg));
      }
    }
    if (outstanding) {
      retransmit_timer_ =
          SetTimer(config().view_change_timeout_us, kRetransmitTimer);
    }
  }
}

void FabReplica::OnCheckpointStable(SequenceNumber seq) {
  // GC contract (DESIGN.md §14): drop accept state the stable checkpoint
  // covers; peers below it recover via state transfer.
  instances_.erase(instances_.begin(), instances_.upper_bound(seq));
}

size_t FabReplica::VoteStateSize() const {
  return Replica::VoteStateSize() + instances_.size();
}

std::unique_ptr<Replica> MakeFabReplica(const ReplicaConfig& config) {
  return std::make_unique<FabReplica>(config,
                                      std::make_unique<KvStateMachine>());
}

}  // namespace bftlab
