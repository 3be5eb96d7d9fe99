#include "protocols/pbft/pbft_replica.h"

#include "common/fnv.h"
#include "sim/metrics.h"
#include "smr/kv_state_machine.h"

namespace bftlab {

PbftReplica::PbftReplica(ReplicaConfig config,
                         std::unique_ptr<StateMachine> state_machine)
    : StableLeaderReplica(config, std::move(state_machine), "pbft") {}

// --- Proposals --------------------------------------------------------------

MessagePtr PbftReplica::MakeProposal(SequenceNumber seq, Batch batch) {
  return std::make_shared<PrePrepareMessage>(view_, seq, std::move(batch),
                                             AuthBytes());
}

void PbftReplica::SendProposal(SequenceNumber seq, Batch batch) {
  Slot& inst = slot(seq);
  inst.has_proposal = true;
  inst.digest = batch.ComputeDigest();
  inst.batch = batch;
  TraceMark("propose", view_, seq);
  TraceSpanBegin("preprepare", view_, seq);

  MessagePtr msg = MakeProposal(seq, std::move(batch));
  ChargeAuthSend(n() - 1, msg->WireSize());
  Multicast(OtherReplicas(), std::move(msg));
}

void PbftReplica::RetransmitProposal(SequenceNumber seq, const Slot& inst) {
  MessagePtr msg = MakeProposal(seq, inst.batch);
  ChargeAuthSend(n() - 1, msg->WireSize());
  Multicast(OtherReplicas(), std::move(msg));
  metrics().Increment("pbft.pre_prepare_retransmits");
}

// --- Protocol messages ------------------------------------------------------

void PbftReplica::OnProtocolMessage(NodeId from, const MessagePtr& msg) {
  // Agreement traffic doubles as view gossip: authenticated messages in a
  // view above ours are evidence their senders installed a NEW-VIEW we
  // never received (crashed or partitioned while it was sent).
  if (from < static_cast<NodeId>(n())) {
    switch (msg->type()) {
      case kPbftPrePrepare:
        NoteViewEvidence(static_cast<ReplicaId>(from),
                         static_cast<const PrePrepareMessage&>(*msg).view());
        break;
      case kPbftPrepare:
        NoteViewEvidence(static_cast<ReplicaId>(from),
                         static_cast<const PrepareMessage&>(*msg).view());
        break;
      case kPbftCommit:
        NoteViewEvidence(static_cast<ReplicaId>(from),
                         static_cast<const CommitMessage&>(*msg).view());
        break;
      default:
        break;
    }
  }
  switch (msg->type()) {
    case kPbftPrePrepare:
      HandlePrePrepare(from, static_cast<const PrePrepareMessage&>(*msg));
      break;
    case kPbftPrepare:
      HandlePrepare(from, static_cast<const PrepareMessage&>(*msg));
      break;
    case kPbftCommit:
      HandleCommit(from, static_cast<const CommitMessage&>(*msg));
      break;
    case kPbftViewChange:
      HandleViewChange(std::static_pointer_cast<const ViewChangeMessage>(msg));
      break;
    case kPbftNewView:
      HandleNewView(from, static_cast<const NewViewMessage&>(*msg));
      break;
    default:
      break;
  }
}

void PbftReplica::HandlePrePrepare(NodeId from, const PrePrepareMessage& msg) {
  if (view_changing() || msg.view() != view_ || from != leader()) return;
  if (msg.seq() <= LowWatermark() || msg.seq() > HighWatermark()) return;
  ChargeAuthVerify(msg.WireSize());
  if (!ValidateProposal(msg)) {
    metrics().Increment("pbft.proposals_rejected");
    return;
  }

  Slot& inst = slot(msg.seq());
  if (inst.has_proposal) {
    if (inst.digest != msg.digest()) {
      // Conflicting pre-prepare from the leader (equivocation): keep the
      // first; the quorum intersection argument preserves safety.
      metrics().Increment("pbft.conflicting_pre_prepare");
      return;
    }
    // Duplicate pre-prepare = the leader's progress retransmission: our
    // earlier votes may have been lost pre-GST and are never re-sent
    // otherwise. Votes are idempotent, so re-multicast them to let the
    // stalled instance close.
    if (byzantine_mode() == ByzantineMode::kSilentBackup) return;
    if (inst.prepare_sent) SendPrepare(msg.seq(), inst.digest);
    if (inst.commit_sent) SendCommit(msg.seq(), inst.digest);
    return;
  }
  inst.has_proposal = true;
  inst.digest = msg.digest();
  inst.batch = msg.batch();
  TraceSpanBegin("preprepare", view_, msg.seq());

  // Requests stay pooled until executed so the view-change timer (τ2)
  // keeps watching them even while they are in flight.
  ArmViewChangeTimerIfNeeded();

  if (byzantine_mode() == ByzantineMode::kSilentBackup) return;

  if (!inst.prepare_sent) {
    inst.prepare_sent = true;
    SendPrepare(msg.seq(), inst.digest);
    inst.prepare_votes[inst.digest].Add(config().id);
  }
  CheckPrepared(msg.seq());
}

void PbftReplica::SendPrepare(SequenceNumber seq, const Digest& digest) {
  auto prepare = std::make_shared<PrepareMessage>(view_, seq, digest,
                                                  config().id, AuthBytes());
  ChargeAuthSend(n() - 1, prepare->WireSize());
  Multicast(OtherReplicas(), std::move(prepare));
}

void PbftReplica::SendCommit(SequenceNumber seq, const Digest& digest) {
  auto commit = std::make_shared<CommitMessage>(view_, seq, digest,
                                                config().id, AuthBytes());
  ChargeAuthSend(n() - 1, commit->WireSize());
  Multicast(OtherReplicas(), std::move(commit));
}

void PbftReplica::HandlePrepare(NodeId /*from*/, const PrepareMessage& msg) {
  if (view_changing() || msg.view() != view_) return;
  if (msg.seq() <= LowWatermark() || msg.seq() > HighWatermark()) return;
  ChargeAuthVerify(msg.WireSize());

  slot(msg.seq()).prepare_votes[msg.digest()].Add(msg.replica());
  CheckPrepared(msg.seq());
}

void PbftReplica::CheckPrepared(SequenceNumber seq) {
  Slot& inst = slot(seq);
  if (inst.prepared || !inst.has_proposal) return;
  // Prepared: pre-prepare + 2f matching prepares from distinct backups
  // (the sender's own prepare counts; the leader sends none).
  if (inst.prepare_votes[inst.digest].size() < AgreementQuorum() - 1) return;
  inst.prepared = true;
  TraceSpanEnd("preprepare", view_, seq);
  TraceSpanBegin("prepare", view_, seq);

  if (byzantine_mode() == ByzantineMode::kSilentBackup) return;
  if (!inst.commit_sent) {
    inst.commit_sent = true;
    SendCommit(seq, inst.digest);
    inst.commit_votes[inst.digest].Add(config().id);
  }
  CheckCommitted(seq);
}

void PbftReplica::HandleCommit(NodeId /*from*/, const CommitMessage& msg) {
  if (msg.view() != view_ || view_changing()) return;
  if (msg.seq() <= LowWatermark() || msg.seq() > HighWatermark()) return;
  ChargeAuthVerify(msg.WireSize());

  slot(msg.seq()).commit_votes[msg.digest()].Add(msg.replica());
  CheckCommitted(msg.seq());
}

void PbftReplica::CheckCommitted(SequenceNumber seq) {
  Slot& inst = slot(seq);
  if (inst.committed || !inst.prepared) return;
  if (inst.commit_votes[inst.digest].size() < AgreementQuorum()) return;
  inst.committed = true;
  TraceSpanEnd("prepare", view_, seq);
  metrics().Increment("pbft.committed");
  Commit(seq, inst);
}

// --- View change ------------------------------------------------------------

std::shared_ptr<const ViewChangeBase> PbftReplica::MakeViewChange(
    ViewNumber new_view, std::vector<PreparedProof> proofs) {
  return std::make_shared<ViewChangeMessage>(new_view, config().id,
                                             LowWatermark(), std::move(proofs),
                                             AgreementQuorum());
}

std::shared_ptr<const NewViewBase> PbftReplica::MakeNewView(
    ViewNumber new_view, SequenceNumber /*base_seq*/,
    std::vector<Proposal> proposals, size_t proof_bytes) {
  return std::make_shared<NewViewMessage>(new_view, std::move(proposals),
                                          proof_bytes);
}

void PbftReplica::Reprepare(const Proposal& p, Slot* inst) {
  if (inst == nullptr) return;  // Already executed here.
  TraceSpanBegin("preprepare", view_, p.seq);
  if (!IsLeader() && byzantine_mode() != ByzantineMode::kSilentBackup) {
    inst->prepare_sent = true;
    SendPrepare(p.seq, p.digest);
    inst->prepare_votes[p.digest].Add(config().id);
    CheckPrepared(p.seq);
  }
}

uint64_t PbftReplica::ProtocolStateFingerprint() const {
  // Everything ordering-relevant: per-instance vote sets and phase flags,
  // the committed log, and view-change progress.
  uint64_t h = FingerprintViewState();
  for (const auto& [seq, inst] : slots_) {
    h = FnvMix(h, seq);
    h = FnvMix(h, inst.has_proposal ? view_ : 0);  // The proposal's view.
    h = FnvMix(h, (inst.has_proposal ? 1 : 0) | (inst.prepared ? 2 : 0) |
                      (inst.committed ? 4 : 0) | (inst.prepare_sent ? 8 : 0) |
                      (inst.commit_sent ? 16 : 0));
    h = FnvBytes(inst.digest.data(), Digest::kSize, h);
    for (const auto& [digest, voters] : inst.prepare_votes) {
      h = FnvBytes(digest.data(), Digest::kSize, h);
      for (ReplicaId r : voters) h = FnvMix(h, r);
    }
    for (const auto& [digest, voters] : inst.commit_votes) {
      h = FnvBytes(digest.data(), Digest::kSize, h);
      for (ReplicaId r : voters) h = FnvMix(h, r);
    }
  }
  return FingerprintViewChanges(h);
}

std::unique_ptr<Replica> MakePbftReplica(const ReplicaConfig& config) {
  return std::make_unique<PbftReplica>(config,
                                       std::make_unique<KvStateMachine>());
}

}  // namespace bftlab
