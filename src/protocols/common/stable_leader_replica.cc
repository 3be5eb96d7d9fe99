#include "protocols/common/stable_leader_replica.h"

#include <algorithm>

#include "common/fnv.h"
#include "common/logging.h"
#include "sim/metrics.h"
#include "sim/network.h"

namespace bftlab {

StableLeaderReplica::StableLeaderReplica(
    ReplicaConfig config, std::unique_ptr<StateMachine> state_machine,
    std::string family)
    : Replica(config, std::move(state_machine)), family_(std::move(family)) {
  current_vc_timeout_us_ = config.view_change_timeout_us;
}

void StableLeaderReplica::Count(const char* event) {
  metrics().Increment(family_ + "." + event);
}

void StableLeaderReplica::OnRestart() {
  // Timers that came due while the node was down were silently dropped by
  // the network, so the stored handles are stale: without this reset the
  // `already armed` guards would block every future (re)arm and the
  // replica could never again suspect a faulty leader.
  view_change_timer_ = kInvalidEvent;
  batch_timer_ = kInvalidEvent;
  progress_timer_ = kInvalidEvent;
  delayed_propose_pending_ = false;
  if (view_changing_) {
    // Resume the interrupted view change where the crash left it.
    if (current_vc_timeout_us_ == 0) {
      current_vc_timeout_us_ = config().view_change_timeout_us;
    }
    view_change_timer_ = SetTimer(current_vc_timeout_us_, kViewChangeTimer);
  } else if (IsLeader()) {
    if (HasPending()) ProposeAvailable();
    ArmProgressTimerIfNeeded();
  } else {
    ArmViewChangeTimerIfNeeded();
  }
}

// --- Client requests --------------------------------------------------------

void StableLeaderReplica::OnClientRequest(NodeId from,
                                          const ClientRequest& request) {
  if (view_changing_) return;  // Pooled; handled after the new view.

  if (IsLeader()) {
    if (byzantine_mode() == ByzantineMode::kDelayProposals) {
      if (!delayed_propose_pending_) {
        delayed_propose_pending_ = true;
        SetTimer(byzantine_spec().delay_us, kDelayedProposeTimer);
      }
      return;
    }
    if (pending_requests() >= config().batch_size) {
      ProposeAvailable();
    } else if (batch_timer_ == kInvalidEvent) {
      batch_timer_ = SetTimer(config().batch_timeout_us, kBatchTimer);
    }
    return;
  }

  // Backup: relay to the leader (the client may only know a stale leader)
  // and start the view-change timer (τ2) for this request.
  if (IsClientNode(from)) {
    Send(leader(), std::make_shared<RequestMessage>(request));
  }
  ArmViewChangeTimerIfNeeded();
}

void StableLeaderReplica::ProposeAvailable() {
  if (!IsLeader() || view_changing_) return;
  while (HasPending() && next_seq_ <= HighWatermark()) {
    Batch batch = SelectBatch();
    if (batch.requests.empty()) break;  // Deferred (e.g. Themis reports).
    if (byzantine_mode() == ByzantineMode::kReorderRequests) {
      // Order manipulation (front-running shape): deprioritize
      // odd-numbered clients — their requests are re-pooled at the back
      // and only ever proposed when nothing else is available to hide
      // behind, so they commit entire view-change periods late unless the
      // protocol enforces fair ordering.
      std::vector<ClientRequest> victims, rest;
      for (ClientRequest& r : batch.requests) {
        if ((r.client - kClientIdBase) % 2 == 1) {
          victims.push_back(std::move(r));
        } else {
          rest.push_back(std::move(r));
        }
      }
      for (ClientRequest& v : victims) RepoolBack(v);
      if (rest.empty()) break;  // Keep starving them.
      batch.requests = std::move(rest);
      std::reverse(batch.requests.begin(), batch.requests.end());
    }
    if (byzantine_mode() == ByzantineMode::kCensorClient) {
      auto& reqs = batch.requests;
      reqs.erase(std::remove_if(reqs.begin(), reqs.end(),
                                [this](const ClientRequest& r) {
                                  return r.client ==
                                         byzantine_spec().censor_target;
                                }),
                 reqs.end());
      if (batch.requests.empty()) continue;
    }
    ProposeBatch(std::move(batch));
  }
}

void StableLeaderReplica::ProposeBatch(Batch batch) {
  SequenceNumber seq = next_seq_++;
  if (byzantine_mode() == ByzantineMode::kEquivocate) {
    Equivocate(seq, std::move(batch));
    return;
  }
  SendProposal(seq, std::move(batch));
  ArmViewChangeTimerIfNeeded();
  ArmProgressTimerIfNeeded();
}

void StableLeaderReplica::Equivocate(SequenceNumber seq, Batch batch) {
  // Safety tests assert agreement still holds.
  Batch other;
  if (batch.requests.size() >= 2) {
    other = batch;
    std::reverse(other.requests.begin(), other.requests.end());
  }  // else: `other` stays empty -> different digest.
  MessagePtr a = MakeProposal(seq, std::move(batch));
  MessagePtr b = MakeProposal(seq, std::move(other));
  ChargeAuthSend(n() - 1, a->WireSize());
  std::vector<NodeId> others = OtherReplicas();
  for (size_t i = 0; i < others.size(); ++i) {
    Send(others[i], i % 2 == 0 ? a : b);
  }
  Count("equivocations");
}

void StableLeaderReplica::Commit(SequenceNumber seq, const Slot& slot) {
  committed_log_[seq] = std::make_pair(slot.digest, slot.batch);
  // Deliver takes a copy: executing can complete a checkpoint quorum
  // synchronously, and OnCheckpointStable erases the slot.
  Deliver(seq, slot.batch);
}

// --- Execution / timers -----------------------------------------------------

void StableLeaderReplica::OnRequestExecuted(const ClientRequest& /*request*/,
                                            bool /*speculative*/) {
  // The timer watches the oldest pooled request; once that request left
  // the pool, move the watch to the next-oldest (full fresh timeout).
  // Progress on *other* requests must NOT reset the timer, or a censoring
  // leader serving everyone else would never be replaced.
  if (view_change_timer_ != kInvalidEvent && !InPool(vc_watch_)) {
    DisarmViewChangeTimer();
    ArmViewChangeTimerIfNeeded();
  }
  // Leader: executed requests may free room under the high watermark.
  if (IsLeader() && HasPending()) ProposeAvailable();
}

void StableLeaderReplica::ArmViewChangeTimerIfNeeded() {
  if (view_change_timer_ != kInvalidEvent) return;
  if (IsLeader()) return;  // The leader does not suspect itself.
  const ClientRequest* oldest = PeekOldest();
  if (oldest == nullptr) return;
  vc_watch_ = oldest->ComputeDigest();
  if (current_vc_timeout_us_ == 0) {
    current_vc_timeout_us_ = config().view_change_timeout_us;
  }
  view_change_timer_ = SetTimer(current_vc_timeout_us_, kViewChangeTimer);
}

void StableLeaderReplica::DisarmViewChangeTimer() {
  CancelTimer(&view_change_timer_);
  current_vc_timeout_us_ = config().view_change_timeout_us;
}

void StableLeaderReplica::OnTimer(uint64_t tag) {
  switch (tag) {
    case kViewChangeTimer:
      view_change_timer_ = kInvalidEvent;
      Count("vc_timeout");
      StartViewChange(view_changing_ ? target_view_ + 1 : view_ + 1);
      break;
    case kBatchTimer:
      batch_timer_ = kInvalidEvent;
      ProposeAvailable();
      break;
    case kDelayedProposeTimer:
      delayed_propose_pending_ = false;
      ProposeAvailable();
      break;
    case kProgressTimer: {
      progress_timer_ = kInvalidEvent;
      if (!IsLeader() || view_changing_) break;
      SequenceNumber seq = OldestUnexecutedSlot();
      if (seq == 0) break;
      RetransmitProposal(seq, slots_[seq]);
      progress_timer_ =
          SetTimer(config().view_change_timeout_us, kProgressTimer);
      break;
    }
    default:
      break;
  }
}

SequenceNumber StableLeaderReplica::OldestUnexecutedSlot() const {
  for (const auto& [seq, s] : slots_) {
    if (seq <= last_executed()) continue;
    if (s.has_proposal) return seq;
  }
  return 0;
}

void StableLeaderReplica::ArmProgressTimerIfNeeded() {
  if (!IsLeader() || view_changing_) return;
  if (progress_timer_ != kInvalidEvent) return;
  if (OldestUnexecutedSlot() == 0) return;
  progress_timer_ = SetTimer(config().view_change_timeout_us, kProgressTimer);
}

// --- View change ------------------------------------------------------------

void StableLeaderReplica::StartViewChange(ViewNumber new_view) {
  if (new_view <= view_) return;
  if (view_changing_ && new_view <= target_view_) return;
  BFTLAB_LOG(kDebug) << family_ << " start view change" << Kv("from", view_)
                     << Kv("to", new_view);
  TraceSpanBegin("viewchange", new_view);
  view_changing_ = true;
  target_view_ = new_view;
  CancelTimer(&batch_timer_);
  CancelTimer(&progress_timer_);
  Count("view_change_started");

  auto vc = BuildViewChange(new_view);
  ChargeAuthSend(n() - 1, vc->WireSize());
  view_changes_[new_view].emplace(config().id, vc);
  Multicast(OtherReplicas(), std::move(vc));

  // Exponential back-off: if this view change fails too, target +1 later.
  if (current_vc_timeout_us_ == 0) {
    current_vc_timeout_us_ = config().view_change_timeout_us;
  }
  CancelTimer(&view_change_timer_);
  view_change_timer_ = SetTimer(current_vc_timeout_us_, kViewChangeTimer);
  current_vc_timeout_us_ = NextViewChangeBackoff(current_vc_timeout_us_);

  if (LeaderOf(new_view) == config().id) MaybeAssembleNewView(new_view);
}

std::shared_ptr<const ViewChangeBase> StableLeaderReplica::BuildViewChange(
    ViewNumber new_view) {
  std::vector<PreparedProof> proofs;
  // Committed-but-not-yet-checkpointed batches first: they are final and
  // must survive any view change (their proof view outranks everything).
  for (const auto& [seq, entry] : committed_log_) {
    if (seq <= LowWatermark()) continue;
    proofs.push_back(
        PreparedProof{seq, kCommittedProofView, entry.second, entry.first});
  }
  for (const auto& [seq, s] : slots_) {
    if (s.prepared && seq > LowWatermark() && committed_log_.count(seq) == 0) {
      proofs.push_back(PreparedProof{seq, view_, s.batch, s.digest});
    }
  }
  return MakeViewChange(new_view, std::move(proofs));
}

void StableLeaderReplica::Reannounce(ViewNumber v) {
  asked_view_ = v;
  auto vc = BuildViewChange(v);
  ChargeAuthSend(1, vc->WireSize());
  Send(LeaderOf(v), std::move(vc));
}

void StableLeaderReplica::NoteViewEvidence(ReplicaId sender, ViewNumber w) {
  if (w <= view_ || sender == config().id) return;
  view_evidence_[w].Add(sender);
  VoterSet distinct;
  ViewNumber smallest = 0;
  for (const auto& [v, senders] : view_evidence_) {
    if (v <= view_) continue;
    if (smallest == 0) smallest = v;
    distinct.Merge(senders);
  }
  if (smallest == 0 || distinct.size() < QuorumF1()) return;
  if (!view_changing_ || smallest > target_view_) {
    Count("view_evidence_joins");
    StartViewChange(smallest);
  } else if (smallest < target_view_ && smallest != asked_view_) {
    // Already chasing a higher view, but f+1 replicas demonstrably run in
    // `smallest`: re-announce it so its leader replays the NEW-VIEW we
    // missed (our earlier escalations target views nobody else wants).
    Count("view_evidence_joins");
    Reannounce(smallest);
  }
}

void StableLeaderReplica::HandleViewChange(
    std::shared_ptr<const ViewChangeBase> vc) {
  const ViewChangeBase& msg = *vc;
  if (msg.new_view() <= view_) {
    // Late joiner: the sender is trying to move the cluster to a view we
    // already passed, so it missed the NEW-VIEW (down or partitioned when
    // it was sent). Replay ours if we led the current view.
    if (last_new_view_ && last_new_view_->new_view() == view_ &&
        msg.replica() != config().id) {
      ChargeAuthSend(1, last_new_view_->WireSize());
      Send(msg.replica(), last_new_view_);
      Count("new_view_replayed");
    }
    return;
  }
  ChargeAuthVerify(msg.WireSize());
  if (!VerifyViewChange(msg)) return;
  auto& votes = view_changes_[msg.new_view()];
  votes.try_emplace(msg.replica(), std::move(vc));
  BFTLAB_LOG(kDebug) << family_ << " view-change vote"
                     << Kv("new_view", msg.new_view())
                     << Kv("voter", msg.replica()) << Kv("have", votes.size());

  // Join rule: f+1 replicas already moved to a higher view -> follow them
  // even if our own timer has not fired (liveness under slow timers).
  if ((!view_changing_ || msg.new_view() > target_view_) &&
      votes.size() >= QuorumF1()) {
    StartViewChange(msg.new_view());
  }

  // Castro's complementary liveness rule: once enough DISTINCT replicas
  // have announced views above ours (not necessarily the same view),
  // adopt the smallest announced view. Without this, replicas whose
  // back-off timers fire at different times chase disjoint view numbers
  // after a fault storm and their solo view changes never assemble a
  // quorum.
  std::map<ReplicaId, ViewNumber> announced;
  for (const auto& [v, msgs] : view_changes_) {
    if (v <= view_) continue;
    for (const auto& [replica, other] : msgs) {
      if (replica == config().id) continue;
      auto [slot, inserted] = announced.emplace(replica, v);
      if (!inserted) slot->second = std::min(slot->second, v);
    }
  }
  if (!announced.empty() && announced.size() >= ComplementaryJoinQuorum()) {
    ViewNumber smallest = ~static_cast<ViewNumber>(0);
    for (const auto& [replica, v] : announced) {
      smallest = std::min(smallest, v);
    }
    if (!view_changing_ || smallest > target_view_) {
      StartViewChange(smallest);
    } else if (ReannounceOnComplementaryJoin() && smallest < target_view_ &&
               smallest != asked_view_) {
      Reannounce(smallest);
    }
  }

  if (view_changing_ && LeaderOf(target_view_) == config().id) {
    MaybeAssembleNewView(target_view_);
  }
}

void StableLeaderReplica::MaybeAssembleNewView(ViewNumber new_view) {
  auto it = view_changes_.find(new_view);
  if (it == view_changes_.end() || it->second.size() < AgreementQuorum()) {
    return;
  }
  if (!view_changing_ || target_view_ != new_view) return;

  // Determine the re-proposal set O from the quorum of view changes.
  SequenceNumber min_s = LowWatermark();
  SequenceNumber max_s = min_s;
  size_t proof_bytes = 0;
  std::map<SequenceNumber, const PreparedProof*> best;
  for (const auto& [replica, vc] : it->second) {
    proof_bytes += vc->WireSize();
    min_s = std::max(min_s, vc->stable_seq());
    for (const PreparedProof& proof : vc->prepared()) {
      max_s = std::max(max_s, proof.seq);
      auto [slot, inserted] = best.emplace(proof.seq, &proof);
      if (!inserted && proof.view > slot->second->view) {
        slot->second = &proof;
      }
    }
  }

  std::vector<Proposal> proposals;
  for (SequenceNumber seq = min_s + 1; seq <= max_s; ++seq) {
    Proposal p;
    p.seq = seq;
    auto slot = best.find(seq);
    if (slot != best.end()) {
      p.batch = slot->second->batch;
      p.digest = slot->second->digest;
    } else {
      p.digest = Batch{}.ComputeDigest();  // Null request fills the gap.
    }
    proposals.push_back(std::move(p));
  }

  auto nv = MakeNewView(new_view, min_s, std::move(proposals), proof_bytes);
  last_new_view_ = nv;  // Kept for replay to late joiners.
  ChargeAuthSend(n() - 1, nv->WireSize());
  Multicast(OtherReplicas(), nv);
  Count("new_view_sent");
  EnterNewView(*nv);
}

void StableLeaderReplica::HandleNewView(NodeId from, const NewViewBase& nv) {
  if (nv.new_view() <= view_) return;
  if (from != LeaderOf(nv.new_view())) return;
  ChargeAuthVerify(nv.WireSize());
  if (!VerifyNewView(from, nv)) return;
  EnterNewView(nv);
}

void StableLeaderReplica::EnterNewView(const NewViewBase& nv) {
  const ViewNumber new_view = nv.new_view();
  BFTLAB_LOG(kDebug) << family_ << " enter view" << Kv("view", new_view);
  TraceSpanEnd("viewchange", new_view);
  view_ = new_view;
  view_changing_ = false;
  target_view_ = new_view;
  slots_.clear();
  view_changes_.erase(view_changes_.begin(),
                      view_changes_.upper_bound(new_view));
  view_evidence_.erase(view_evidence_.begin(),
                       view_evidence_.upper_bound(new_view));
  asked_view_ = 0;
  DisarmViewChangeTimer();
  ++view_changes_completed_;
  Count("view_changes_completed");

  SequenceNumber max_seq = BeginView(nv);
  for (const Proposal& p : nv.proposals()) {
    max_seq = std::max(max_seq, p.seq);
    Slot* s = nullptr;
    if (p.seq > last_executed()) {
      s = &slots_[p.seq];
      s->has_proposal = true;
      s->batch = p.batch;
      s->digest = p.digest;
      for (const ClientRequest& r : p.batch.requests) {
        RemoveFromPool(r.ComputeDigest());
      }
    }
    Reprepare(p, s);
  }
  next_seq_ = std::max({max_seq + 1, last_executed() + 1,
                        LowWatermark() + 1});

  if (HasPending()) {
    if (IsLeader()) {
      ProposeAvailable();
    } else {
      // Relay pooled requests to the new leader.
      const ClientRequest* oldest = PeekOldest();
      if (oldest != nullptr) {
        Send(leader(), std::make_shared<RequestMessage>(*oldest));
      }
      ArmViewChangeTimerIfNeeded();
    }
  }
  ArmProgressTimerIfNeeded();
}

// --- GC / fingerprint -------------------------------------------------------

void StableLeaderReplica::OnCheckpointStable(SequenceNumber seq) {
  // GC contract (DESIGN.md §14): state covered by the stable checkpoint.
  slots_.erase(slots_.begin(), slots_.upper_bound(seq));
  committed_log_.erase(committed_log_.begin(),
                       committed_log_.upper_bound(seq));
}

void StableLeaderReplica::OnStateTransferComplete(SequenceNumber seq) {
  StableLeaderReplica::OnCheckpointStable(seq);
  next_seq_ = std::max(next_seq_, seq + 1);
}

uint64_t StableLeaderReplica::FingerprintViewState() const {
  // Timer handles and timeout values are excluded — they are
  // time-valued, and the explorer fires timers as schedule choices
  // regardless of their deadline.
  uint64_t h = kFnvBasis;
  h = FnvMix(h, view_);
  h = FnvMix(h, next_seq_);
  h = FnvMix(h, view_changing_ ? 1 : 0);
  h = FnvMix(h, target_view_);
  h = FnvMix(h, asked_view_);
  return h;
}

uint64_t StableLeaderReplica::FingerprintViewChanges(uint64_t h) const {
  for (const auto& [seq, entry] : committed_log_) {
    h = FnvMix(h, seq);
    h = FnvBytes(entry.first.data(), Digest::kSize, h);
  }
  for (const auto& [target, msgs] : view_changes_) {
    h = FnvMix(h, target);
    for (const auto& [replica, vc] : msgs) h = FnvMix(h, replica);
  }
  for (const auto& [w, senders] : view_evidence_) {
    h = FnvMix(h, w);
    for (ReplicaId r : senders) h = FnvMix(h, r);
  }
  return h;
}

size_t StableLeaderReplica::VoteStateSize() const {
  return Replica::VoteStateSize() + slots_.size() + committed_log_.size() +
         view_changes_.size() + view_evidence_.size();
}

}  // namespace bftlab
