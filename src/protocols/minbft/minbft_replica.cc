#include "protocols/minbft/minbft_replica.h"

#include <algorithm>

#include "common/codec.h"
#include "common/fnv.h"
#include "crypto/sha256.h"
#include "sim/metrics.h"
#include "smr/kv_state_machine.h"

namespace bftlab {

namespace {

// Digests the trusted counter certifies. Each role gets its own domain
// string so a UI issued for a commit can never be replayed as a prepare.

Digest PrepareBinding(ViewNumber view, SequenceNumber seq,
                      const Digest& digest) {
  Encoder enc;
  enc.PutString("minbft-prepare");
  enc.PutU64(view);
  enc.PutU64(seq);
  enc.PutRaw(digest.AsSlice());
  return Sha256::Hash(enc.buffer());
}

Digest CommitBinding(ViewNumber view, SequenceNumber seq, const Digest& digest,
                     ReplicaId replica) {
  Encoder enc;
  enc.PutString("minbft-commit");
  enc.PutU64(view);
  enc.PutU64(seq);
  enc.PutRaw(digest.AsSlice());
  enc.PutU32(replica);
  return Sha256::Hash(enc.buffer());
}

Digest ViewChangeBinding(ViewNumber new_view, ReplicaId replica,
                         SequenceNumber stable_seq) {
  Encoder enc;
  enc.PutString("minbft-view-change");
  enc.PutU64(new_view);
  enc.PutU32(replica);
  enc.PutU64(stable_seq);
  return Sha256::Hash(enc.buffer());
}

Digest NewViewBinding(ViewNumber new_view, SequenceNumber base_seq,
                      const std::vector<Proposal>& props) {
  Encoder enc;
  enc.PutString("minbft-new-view");
  enc.PutU64(new_view);
  enc.PutU64(base_seq);
  for (const auto& p : props) {
    enc.PutU64(p.seq);
    enc.PutRaw(p.digest.AsSlice());
  }
  return Sha256::Hash(enc.buffer());
}

/// Digest the forked-counter script votes for: matches no real batch, so
/// clone-certified votes land in a bucket that never reaches quorum.
Digest ForkedVoteDigest() {
  Encoder enc;
  enc.PutString("minbft-forked-vote");
  return Sha256::Hash(enc.buffer());
}

}  // namespace

MinBftReplica::MinBftReplica(ReplicaConfig config,
                             std::unique_ptr<StateMachine> state_machine)
    : StableLeaderReplica(config, std::move(state_machine), "minbft") {}

void MinBftReplica::Start() {
  usig_.emplace(config().id, &crypto().keystore());
  if (byzantine_mode() == ByzantineMode::kCounterRollback ||
      byzantine_mode() == ByzantineMode::kCounterFork) {
    SetTimer(byzantine_spec().counter_fault_at_us, kCounterFaultTimer);
  }
}

void MinBftReplica::OnRestart() {
  // The USIG persists unless a fault schedule explicitly wiped it.
  if ((byzantine_mode() == ByzantineMode::kCounterRollback ||
       byzantine_mode() == ByzantineMode::kCounterFork) &&
      !counter_fault_fired_ && !forked_) {
    SetTimer(byzantine_spec().counter_fault_at_us, kCounterFaultTimer);
  }
  StableLeaderReplica::OnRestart();
}

// --- Proposals ---------------------------------------------------------------

UniqueIdentifier MinBftReplica::CertifyPrepare(SequenceNumber seq,
                                               const Digest& digest) {
  return usig_->Certify(&crypto(), PrepareBinding(view_, seq, digest));
}

MessagePtr MinBftReplica::MakeProposal(SequenceNumber seq, Batch batch) {
  // Under equivocation a faithful USIG will not certify two digests under
  // one counter value: the second certificate burns the NEXT counter, so
  // at most one half receives an affine-consistent prepare — the other
  // half rejects, the view stalls, and the view change installs whichever
  // batch (if any) was accepted. Structural containment.
  UniqueIdentifier ui = CertifyPrepare(seq, batch.ComputeDigest());
  return std::make_shared<MinPrepareMessage>(view_, seq, std::move(batch),
                                             ui);
}

void MinBftReplica::SendProposal(SequenceNumber seq, Batch batch) {
  Digest digest = batch.ComputeDigest();
  UniqueIdentifier ui = CertifyPrepare(seq, digest);
  Slot& inst = slot(seq);
  inst.batch = batch;
  inst.digest = digest;
  inst.has_proposal = true;
  inst.prepared = true;
  inst.proposal_ui = ui;
  // The prepare doubles as the leader's commit vote.
  inst.commit_votes[digest].Add(config().id);
  TraceMark("propose", view_, seq);
  TraceSpanBegin("agree", view_, seq);

  auto msg =
      std::make_shared<MinPrepareMessage>(view_, seq, std::move(batch), ui);
  ChargeAuthSend(n() - 1, msg->WireSize());
  if (byzantine_mode() == ByzantineMode::kCounterRollback &&
      !counter_fault_fired_ && seq % kWithholdStride == 0) {
    // Rollback setup: withhold this prepare from the victim (the
    // highest-id backup) and remember its identifier; the fault timer
    // later re-certifies an altered batch under the replayed identifier.
    // Withheld slots sit kWithholdStride apart — see the header note.
    ReplicaId victim = static_cast<ReplicaId>(n() - 1);
    withheld_[seq] = WithheldPrepare{ui.counter, inst.batch};
    for (NodeId r : OtherReplicas()) {
      if (r != static_cast<NodeId>(victim)) Send(r, msg);
    }
  } else {
    Multicast(OtherReplicas(), std::move(msg));
  }
}

void MinBftReplica::RetransmitProposal(SequenceNumber seq, const Slot& inst) {
  // Retransmit the ORIGINAL prepare: its stored identifier is the only one
  // the affine binding admits for this sequence number.
  auto msg = std::make_shared<MinPrepareMessage>(view_, seq, inst.batch,
                                                 inst.proposal_ui);
  ChargeAuthSend(n() - 1, msg->WireSize());
  Multicast(OtherReplicas(), std::move(msg));
  metrics().Increment("minbft.prepare_retransmits");
}

// --- Protocol messages -------------------------------------------------------

void MinBftReplica::OnProtocolMessage(NodeId from, const MessagePtr& msg) {
  if (from < static_cast<NodeId>(n())) {
    switch (msg->type()) {
      case kMinPrepare:
        NoteViewEvidence(static_cast<ReplicaId>(from),
                         static_cast<const MinPrepareMessage&>(*msg).view());
        break;
      case kMinCommit:
        NoteViewEvidence(static_cast<ReplicaId>(from),
                         static_cast<const MinCommitMessage&>(*msg).view());
        break;
      default:
        break;
    }
  }
  switch (msg->type()) {
    case kMinPrepare:
      HandlePrepare(from, static_cast<const MinPrepareMessage&>(*msg));
      break;
    case kMinCommit:
      HandleCommit(from, static_cast<const MinCommitMessage&>(*msg));
      break;
    case kMinViewChange:
      HandleViewChange(
          std::static_pointer_cast<const MinViewChangeMessage>(msg));
      break;
    case kMinNewView:
      HandleNewView(from, static_cast<const MinNewViewMessage&>(*msg));
      break;
    default:
      break;
  }
}

void MinBftReplica::HandlePrepare(NodeId from, const MinPrepareMessage& msg) {
  if (view_changing() || msg.view() != view_ || from != leader()) return;
  if (msg.seq() <= LowWatermark() || msg.seq() > HighWatermark()) return;
  ChargeAuthVerify(msg.WireSize());
  const bool check_ui = config().verify_trusted_ui;
  if (check_ui &&
      (msg.ui().signer != static_cast<NodeId>(from) ||
       !TrustedCounter::Verify(&crypto(), msg.ui(),
                               PrepareBinding(view_, msg.seq(),
                                              msg.digest())))) {
    metrics().Increment("minbft.ui_invalid");
    return;
  }

  Slot& inst = slot(msg.seq());
  if (inst.has_proposal) {
    if (inst.digest == msg.digest() &&
        inst.proposal_ui.epoch == msg.ui().epoch &&
        inst.proposal_ui.counter == msg.ui().counter) {
      // The leader's progress retransmission (identical identifier):
      // votes are idempotent, so re-send ours in case it was lost.
      if (byzantine_mode() == ByzantineMode::kSilentBackup) return;
      if (inst.commit_sent) SendCommitVote(msg.seq(), inst.digest);
      return;
    }
    metrics().Increment("minbft.conflicting_prepare");
    return;
  }
  if (check_ui) {
    // The affine binding: within this view, sequence s must carry counter
    // base_counter + (s - base_seq) in the base epoch. A leader that
    // skipped, reused, or re-derived counters fails here for every
    // receiver, so no two backups can accept different batches at one
    // sequence number.
    if (msg.seq() <= base_seq_ || msg.ui().epoch != base_epoch_ ||
        msg.ui().counter != base_counter_ + (msg.seq() - base_seq_)) {
      metrics().Increment("minbft.ui_affine_rejected");
      return;
    }
    if (!AcceptUi(msg.ui())) {
      metrics().Increment("minbft.ui_replay_rejected");
      return;
    }
  }
  inst.has_proposal = true;
  inst.prepared = true;
  inst.batch = msg.batch();
  inst.digest = msg.digest();
  inst.proposal_ui = msg.ui();
  TraceSpanBegin("agree", view_, msg.seq());
  inst.commit_votes[inst.digest].Add(static_cast<ReplicaId>(from));
  for (const ClientRequest& r : msg.batch().requests) {
    RemoveFromPool(r.ComputeDigest());
  }
  ArmViewChangeTimerIfNeeded();

  if (byzantine_mode() == ByzantineMode::kSilentBackup) return;
  SendCommitVote(msg.seq(), inst.digest);
  CheckCommitted(msg.seq());
}

void MinBftReplica::SendCommitVote(SequenceNumber seq, const Digest& digest) {
  Slot& inst = slot(seq);
  UniqueIdentifier ui = usig_->Certify(
      &crypto(), CommitBinding(view_, seq, digest, config().id));
  auto commit = std::make_shared<MinCommitMessage>(view_, seq, digest,
                                                   config().id, ui);
  ChargeAuthSend(n() - 1, commit->WireSize());
  if (byzantine_mode() == ByzantineMode::kCounterFork && forked_) {
    // Forked attestation: even-indexed peers get the genuine vote; odd
    // peers a clone-certified vote for a garbage digest that reuses the
    // same identifier stream. Receivers that see both streams reject the
    // second arrival as a replay; the garbage bucket never reaches f+1.
    UniqueIdentifier fui = forked_->Certify(
        &crypto(), CommitBinding(view_, seq, ForkedVoteDigest(),
                                 config().id));
    auto fake = std::make_shared<MinCommitMessage>(
        view_, seq, ForkedVoteDigest(), config().id, fui);
    std::vector<NodeId> others = OtherReplicas();
    for (size_t i = 0; i < others.size(); ++i) {
      Send(others[i], i % 2 == 0 ? MessagePtr(commit) : MessagePtr(fake));
    }
    metrics().Increment("minbft.forked_votes");
  } else {
    Multicast(OtherReplicas(), commit);
  }
  inst.commit_sent = true;
  inst.commit_votes[digest].Add(config().id);
}

void MinBftReplica::HandleCommit(NodeId /*from*/, const MinCommitMessage& msg) {
  if (view_changing() || msg.view() != view_) return;
  if (msg.seq() <= LowWatermark() || msg.seq() > HighWatermark()) return;
  if (msg.replica() == config().id) return;
  ChargeAuthVerify(msg.WireSize());
  if (!CheckUi(msg.replica(), msg.ui(),
               CommitBinding(msg.view(), msg.seq(), msg.digest(),
                             msg.replica()))) {
    return;
  }
  slot(msg.seq()).commit_votes[msg.digest()].Add(msg.replica());
  CheckCommitted(msg.seq());
}

void MinBftReplica::CheckCommitted(SequenceNumber seq) {
  Slot& inst = slot(seq);
  if (inst.committed || !inst.has_proposal) return;
  // f+1 identifiers over one (view, seq, digest): at least one is from a
  // correct replica, and no correct replica accepts a conflicting
  // prepare, so the batch is final.
  if (inst.commit_votes[inst.digest].size() < QuorumF1()) return;
  inst.committed = true;
  metrics().Increment("minbft.committed");
  TraceSpanEnd("agree", view_, seq);
  Commit(seq, inst);
}

// --- Trusted-counter compromise scripts -------------------------------------

void MinBftReplica::OnTimer(uint64_t tag) {
  if (tag != kCounterFaultTimer) {
    StableLeaderReplica::OnTimer(tag);
    return;
  }
  if (byzantine_mode() == ByzantineMode::kCounterFork) {
    if (usig_ && !forked_) {
      forked_ = usig_->Fork();
      metrics().Increment("minbft.counter_forked");
    }
  } else if (byzantine_mode() == ByzantineMode::kCounterRollback) {
    ExecuteCounterRollback();
  }
}

void MinBftReplica::ExecuteCounterRollback() {
  if (counter_fault_fired_) return;
  counter_fault_fired_ = true;
  if (!usig_ || !IsLeader() || view_changing()) {
    withheld_.clear();
    return;
  }
  // Replay each withheld identifier over an ALTERED batch. Descending
  // order: a rollback can only move the counter down, so the highest
  // stolen identifier must be re-certified first. Identifiers still
  // inside the victim's hole window are skipped — replaying those would
  // be accepted as legitimately late messages, which is the window's
  // documented blind spot, not the attack under test.
  for (auto it = withheld_.rbegin(); it != withheld_.rend(); ++it) {
    SequenceNumber seq = it->first;
    const WithheldPrepare& wp = it->second;
    if (wp.counter + kMaxUiHoles >= usig_->counter()) continue;
    usig_->ForceRollback(usig_->counter() - (wp.counter - 1));
    Batch altered = wp.batch;
    if (altered.requests.size() >= 2) {
      std::reverse(altered.requests.begin(), altered.requests.end());
    } else {
      altered.requests.clear();
    }
    MessagePtr msg = MakeProposal(seq, std::move(altered));
    ChargeAuthSend(n() - 1, msg->WireSize());
    Multicast(OtherReplicas(), std::move(msg));
    metrics().Increment("minbft.counter_rollback_attacks");
  }
  withheld_.clear();
}

// --- UI freshness ------------------------------------------------------------

bool MinBftReplica::AcceptUi(const UniqueIdentifier& ui) {
  UiWatermark& wm = ui_high_[static_cast<ReplicaId>(ui.signer)];
  if (ui.epoch > wm.epoch) {
    // The sender's USIG legitimately rebooted; its counter restarts.
    wm.epoch = ui.epoch;
    wm.high = ui.counter;
    wm.holes.clear();
    return true;
  }
  if (ui.epoch < wm.epoch) return false;
  if (ui.counter > wm.high) {
    uint64_t first = wm.high + 1;
    if (ui.counter - first > kMaxUiHoles) first = ui.counter - kMaxUiHoles;
    for (uint64_t c = first; c < ui.counter; ++c) wm.holes.insert(c);
    wm.high = ui.counter;
    // Expire holes that fell out of the reordering window: accepting an
    // identifier this far behind the sender's newest is indistinguishable
    // from a rollback replay.
    while (!wm.holes.empty() && *wm.holes.begin() + kMaxUiHoles < wm.high) {
      wm.holes.erase(wm.holes.begin());
    }
    while (wm.holes.size() > kMaxUiHoles) wm.holes.erase(wm.holes.begin());
    return true;
  }
  auto it = wm.holes.find(ui.counter);
  if (it == wm.holes.end()) return false;
  wm.holes.erase(it);
  metrics().Increment("minbft.ui_hole_filled");
  return true;
}

bool MinBftReplica::CheckUi(NodeId signer, const UniqueIdentifier& ui,
                            const Digest& binding) {
  if (!config().verify_trusted_ui) return true;
  if (ui.signer != signer || !TrustedCounter::Verify(&crypto(), ui, binding)) {
    metrics().Increment("minbft.ui_invalid");
    return false;
  }
  if (!AcceptUi(ui)) {
    metrics().Increment("minbft.ui_replay_rejected");
    return false;
  }
  return true;
}

// --- View change -------------------------------------------------------------

std::shared_ptr<const ViewChangeBase> MinBftReplica::MakeViewChange(
    ViewNumber new_view, std::vector<PreparedProof> proofs) {
  // The proofs are the accepted prepares: with non-equivocating leaders an
  // accepted prepare is already the PBFT "prepared" equivalent — some
  // replica may have committed on our vote, so it must survive.
  UniqueIdentifier ui = usig_->Certify(
      &crypto(), ViewChangeBinding(new_view, config().id, LowWatermark()));
  return std::make_shared<MinViewChangeMessage>(
      new_view, config().id, LowWatermark(), std::move(proofs), ui);
}

bool MinBftReplica::VerifyViewChange(const ViewChangeBase& vc) {
  // A rolled-back replica's stale identifiers keep it out of view-change
  // quorums until its counter catches back up.
  return CheckUi(vc.replica(),
                 static_cast<const MinViewChangeMessage&>(vc).ui(),
                 ViewChangeBinding(vc.new_view(), vc.replica(),
                                   vc.stable_seq()));
}

size_t MinBftReplica::ComplementaryJoinQuorum() const {
  // Castro's rule retuned for n = 2f+1: with only 2f other replicas (f of
  // them possibly crashed), waiting for f+1 announcers can deadlock two
  // correct replicas chasing disjoint view numbers — so adopt the
  // smallest view once f OTHER replicas announce above ours. A Byzantine
  // replica can drag the view forward (liveness annoyance, bounded by the
  // back-off), never break safety: installing a view still takes f+1
  // UI-certified view changes.
  return config().f;
}

std::shared_ptr<const NewViewBase> MinBftReplica::MakeNewView(
    ViewNumber new_view, SequenceNumber base_seq,
    std::vector<Proposal> proposals, size_t proof_bytes) {
  // The NEW-VIEW's identifier anchors the new view's affine binding.
  UniqueIdentifier ui = usig_->Certify(
      &crypto(), NewViewBinding(new_view, base_seq, proposals));
  return std::make_shared<MinNewViewMessage>(
      new_view, base_seq, std::move(proposals), proof_bytes, ui);
}

bool MinBftReplica::VerifyNewView(NodeId from, const NewViewBase& nv) {
  // A would-be leader whose counter was rolled back cannot install a view:
  // its NEW-VIEW identifier is stale and the back-off cascade skips it.
  const auto& msg = static_cast<const MinNewViewMessage&>(nv);
  return CheckUi(from, msg.ui(),
                 NewViewBinding(msg.new_view(), msg.base_seq(),
                                msg.proposals()));
}

SequenceNumber MinBftReplica::BeginView(const NewViewBase& nv) {
  // Rebase the affine seq<->counter binding on the NEW-VIEW identifier.
  const auto& msg = static_cast<const MinNewViewMessage&>(nv);
  base_epoch_ = msg.ui().epoch;
  base_counter_ = msg.ui().counter;
  base_seq_ = msg.base_seq();
  return base_seq_;
}

void MinBftReplica::Reprepare(const Proposal& p, Slot* inst) {
  // Re-certify in ascending order: the k-th proposal after base_seq gets
  // counter nv_ui.counter + k, matching the binding. A leader that already
  // executed a proposal still consumes its counter value, or every later
  // prepare falls one value behind the binding and is rejected.
  if (inst == nullptr) {
    if (IsLeader()) CertifyPrepare(p.seq, p.digest);
    return;
  }
  TraceSpanBegin("agree", view_, p.seq);
  inst->prepared = true;
  // The NEW-VIEW asserts the leader's re-prepare, so it counts as the
  // leader's commit vote.
  inst->commit_votes[p.digest].Add(leader());
  if (IsLeader()) {
    inst->proposal_ui = CertifyPrepare(p.seq, p.digest);
    auto msg = std::make_shared<MinPrepareMessage>(view_, p.seq, p.batch,
                                                   inst->proposal_ui);
    ChargeAuthSend(n() - 1, msg->WireSize());
    Multicast(OtherReplicas(), std::move(msg));
  } else {
    // Record the identifier the leader's re-prepare must carry so the
    // real message is recognized as a retransmission.
    inst->proposal_ui.signer = leader();
    inst->proposal_ui.epoch = base_epoch_;
    inst->proposal_ui.counter = base_counter_ + (p.seq - base_seq_);
    if (byzantine_mode() != ByzantineMode::kSilentBackup) {
      SendCommitVote(p.seq, p.digest);
    }
  }
  CheckCommitted(p.seq);
}

// --- Fingerprint -------------------------------------------------------------

uint64_t MinBftReplica::ProtocolStateFingerprint() const {
  uint64_t h = FingerprintViewState();
  h = FnvMix(h, base_epoch_);
  h = FnvMix(h, base_counter_);
  h = FnvMix(h, base_seq_);
  h = FnvMix(h, usig_ ? usig_->epoch() : 0);
  h = FnvMix(h, usig_ ? usig_->counter() : 0);
  h = FnvMix(h, forked_ ? forked_->counter() : 0);
  h = FnvMix(h, counter_fault_fired_ ? 1 : 0);
  for (const auto& [seq, inst] : slots_) {
    h = FnvMix(h, seq);
    h = FnvMix(h, (inst.has_proposal ? 1 : 0) | (inst.committed ? 2 : 0) |
                      (inst.commit_sent ? 4 : 0));
    h = FnvBytes(inst.digest.data(), Digest::kSize, h);
    h = FnvMix(h, inst.proposal_ui.epoch);
    h = FnvMix(h, inst.proposal_ui.counter);
    for (const auto& [digest, voters] : inst.commit_votes) {
      h = FnvBytes(digest.data(), Digest::kSize, h);
      for (ReplicaId r : voters) h = FnvMix(h, r);
    }
  }
  h = FingerprintViewChanges(h);
  for (const auto& [replica, wm] : ui_high_) {
    h = FnvMix(h, replica);
    h = FnvMix(h, wm.epoch);
    h = FnvMix(h, wm.high);
    for (uint64_t c : wm.holes) h = FnvMix(h, c);
  }
  return h;
}

size_t MinBftReplica::VoteStateSize() const {
  size_t ui_state = 0;
  for (const auto& [replica, wm] : ui_high_) {
    ui_state += 1 + wm.holes.size();
  }
  return StableLeaderReplica::VoteStateSize() + withheld_.size() + ui_state;
}

std::unique_ptr<Replica> MakeMinBftReplica(const ReplicaConfig& config) {
  ReplicaConfig cfg = config;
  // Ordering authority comes from the UI certificates; channels only need
  // MAC authentication.
  cfg.auth = AuthScheme::kMacs;
  return std::make_unique<MinBftReplica>(cfg,
                                         std::make_unique<KvStateMachine>());
}

}  // namespace bftlab
