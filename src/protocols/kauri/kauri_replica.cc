#include "protocols/kauri/kauri_replica.h"

#include <algorithm>

#include "sim/metrics.h"
#include "sim/network.h"
#include "smr/kv_state_machine.h"

namespace bftlab {

// --- KauriTree -----------------------------------------------------------------

KauriTree KauriTree::Initial(uint32_t n, ReplicaId root, uint32_t branching) {
  std::vector<ReplicaId> order;
  order.reserve(n);
  order.push_back(root);
  for (ReplicaId r = 0; r < n; ++r) {
    if (r != root) order.push_back(r);
  }
  return KauriTree(std::move(order), branching);
}

void KauriTree::IndexPositions() {
  position_.clear();
  for (size_t i = 0; i < order_.size(); ++i) {
    ReplicaId id = order_[i];
    if (id >= position_.size()) position_.resize(id + 1, -1);
    position_[id] = static_cast<int>(i);
  }
}

int KauriTree::PositionOf(ReplicaId id) const {
  return id < position_.size() ? position_[id] : -1;
}

ReplicaId KauriTree::ParentOf(ReplicaId id) const {
  int pos = PositionOf(id);
  if (pos <= 0) return kInvalidReplica;
  return order_[(pos - 1) / branching_];
}

std::vector<ReplicaId> KauriTree::ChildrenOf(ReplicaId id) const {
  std::vector<ReplicaId> children;
  int pos = PositionOf(id);
  if (pos < 0) return children;
  size_t first = static_cast<size_t>(pos) * branching_ + 1;
  for (size_t c = first; c < first + branching_ && c < order_.size(); ++c) {
    children.push_back(order_[c]);
  }
  return children;
}

uint32_t KauriTree::Height() const {
  if (order_.size() <= 1) return 0;
  uint32_t height = 0;
  size_t pos = order_.size() - 1;
  while (pos != 0) {
    pos = (pos - 1) / branching_;
    ++height;
  }
  return height;
}

KauriTree KauriTree::Demote(ReplicaId failed) const {
  std::vector<ReplicaId> order;
  order.reserve(order_.size());
  for (ReplicaId r : order_) {
    if (r != failed) order.push_back(r);
  }
  order.push_back(failed);
  return KauriTree(std::move(order), branching_);
}

// --- KauriReplica ----------------------------------------------------------------

KauriReplica::KauriReplica(ReplicaConfig config,
                           std::unique_ptr<StateMachine> state_machine,
                           KauriOptions options)
    : Replica(config, std::move(state_machine)), options_(options) {
  tree_ = KauriTree::Initial(config.n, /*root=*/0, options.branching);
}

void KauriReplica::OnClientRequest(NodeId from, const ClientRequest& request) {
  if (config().id == leader()) {
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

void KauriReplica::OnRestart() {
  // Timers that came due while the node was down were dropped, so the
  // stored handles are stale. The root's aggregation timers drive
  // retransmission: re-arm them for every in-flight instance, then
  // propose what was pooled.
  batch_timer_ = kInvalidEvent;
  for (auto& [seq, inst] : instances_) {
    inst.agg_timer = kInvalidEvent;
    if (config().id == leader() && inst.has_proposal && !inst.committed) {
      inst.agg_timer =
          SetTimer(options_.aggregation_timeout_us * (tree_.Height() + 1),
                   kAggTimerBase + seq);
    }
  }
  ProposeAvailable();
}

void KauriReplica::ProposeAvailable() {
  if (config().id != leader()) return;
  while (HasPending() && next_seq_ <= HighWatermark()) {
    Batch batch = TakeBatch();
    if (batch.requests.empty()) continue;
    SequenceNumber seq = next_seq_++;

    Instance& inst = instances_[seq];
    inst.batch = batch;
    inst.digest = batch.ComputeDigest();
    inst.has_proposal = true;
    inst.votes.Add(config().id);
    TraceMark("propose", epoch_, seq);
    TraceSpanBegin("aggregate", epoch_, seq);

    // Dissemination: only to the root's children (load O(branching)).
    auto msg = std::make_shared<KauriProposalMessage>(epoch_, seq,
                                                      std::move(batch));
    std::vector<ReplicaId> children = tree_.ChildrenOf(config().id);
    ChargeAuthSend(children.size(), msg->WireSize());
    Multicast(std::vector<NodeId>(children.begin(), children.end()),
              std::move(msg));

    // The root waits long enough for partial aggregates to cascade up
    // the whole tree before suspecting a subtree.
    inst.agg_timer =
        SetTimer(options_.aggregation_timeout_us * (tree_.Height() + 1),
                 kAggTimerBase + seq);
  }
}

void KauriReplica::OnProtocolMessage(NodeId from, const MessagePtr& msg) {
  switch (msg->type()) {
    case kKauriProposal:
      HandleProposal(from, static_cast<const KauriProposalMessage&>(*msg));
      break;
    case kKauriAggregate:
      HandleAggregate(from, static_cast<const KauriAggregateMessage&>(*msg));
      break;
    case kKauriCommit:
      HandleCommit(from, static_cast<const KauriCommitMessage&>(*msg));
      break;
    case kKauriReconfig:
      HandleReconfig(from, static_cast<const KauriReconfigMessage&>(*msg));
      break;
    default:
      break;
  }
}

void KauriReplica::HandleProposal(NodeId from,
                                  const KauriProposalMessage& msg) {
  if (msg.epoch() != epoch_ || from != tree_.ParentOf(config().id)) return;
  if (byzantine_mode() == ByzantineMode::kSilentBackup) return;
  ChargeAuthVerify(msg.WireSize());

  Instance& inst = instances_[msg.seq()];
  if (inst.has_proposal) {
    // Retransmitted proposal: our aggregate, or some subtree's copy, was
    // lost. Re-forward down and re-flush up.
    if (inst.digest == msg.digest() && !inst.committed) {
      std::vector<ReplicaId> children = tree_.ChildrenOf(config().id);
      if (!children.empty()) {
        Multicast(std::vector<NodeId>(children.begin(), children.end()),
                  std::make_shared<KauriProposalMessage>(epoch_, msg.seq(),
                                                         inst.batch));
      }
      FlushUp(msg.seq(), /*force=*/true);
    }
    return;
  }
  inst.has_proposal = true;
  inst.batch = msg.batch();
  inst.digest = msg.digest();
  inst.votes.Add(config().id);
  TraceSpanBegin("aggregate", epoch_, msg.seq());
  for (const ClientRequest& r : msg.batch().requests) {
    RemoveFromPool(r.ComputeDigest());
  }

  std::vector<ReplicaId> children = tree_.ChildrenOf(config().id);
  if (children.empty()) {
    // Leaf: vote straight up.
    FlushUp(msg.seq());
    return;
  }
  // Internal node: forward down, then wait to aggregate.
  auto forward = std::make_shared<KauriProposalMessage>(epoch_, msg.seq(),
                                                        msg.batch());
  ChargeAuthSend(children.size(), forward->WireSize());
  Multicast(std::vector<NodeId>(children.begin(), children.end()),
            std::move(forward));
  inst.agg_timer =
      SetTimer(options_.aggregation_timeout_us, kAggTimerBase + msg.seq());
}

void KauriReplica::HandleAggregate(NodeId from,
                                   const KauriAggregateMessage& msg) {
  if (msg.epoch() != epoch_) return;
  // Accept aggregates only from our children in the current tree.
  std::vector<ReplicaId> children = tree_.ChildrenOf(config().id);
  if (std::find(children.begin(), children.end(), from) == children.end()) {
    return;
  }
  ChargeAuthVerify(msg.WireSize());

  Instance& inst = instances_[msg.seq()];
  if (!inst.has_proposal || msg.digest() != inst.digest) return;
  inst.children_reported.Add(static_cast<ReplicaId>(from));
  inst.votes.Merge(msg.voters());

  if (config().id == leader()) {
    if (inst.votes.size() >= Quorum2f1()) CommitAndPropagate(msg.seq());
    return;
  }
  if (inst.children_reported.size() == children.size()) {
    CancelTimer(&inst.agg_timer);
    FlushUp(msg.seq());
  } else if (inst.flushed_votes > 0) {
    // A straggler subtree reported after the partial flush: forward the
    // grown aggregate so the root still reaches its quorum.
    FlushUp(msg.seq());
  }
}

void KauriReplica::FlushUp(SequenceNumber seq, bool force) {
  Instance& inst = instances_[seq];
  if (config().id == leader()) return;
  if (!force && inst.votes.size() <= inst.flushed_votes) return;
  inst.flushed_votes = inst.votes.size();
  ReplicaId parent = tree_.ParentOf(config().id);
  if (parent == kInvalidReplica) return;
  // Combine own + children's shares into one constant-size aggregate.
  crypto().Charge(crypto().cost_model().threshold_combine_per_share_us *
                  static_cast<double>(inst.votes.size()));
  auto agg = std::make_shared<KauriAggregateMessage>(epoch_, seq, inst.digest,
                                                     inst.votes);
  ChargeAuthSend(1, agg->WireSize());
  Send(parent, std::move(agg));
}

void KauriReplica::CommitAndPropagate(SequenceNumber seq) {
  Instance& inst = instances_[seq];
  if (inst.committed) return;
  inst.committed = true;
  CancelTimer(&inst.agg_timer);
  metrics().Increment("kauri.committed");
  TraceSpanEnd("aggregate", epoch_, seq);
  // Executing the batch can stabilize a checkpoint synchronously, and
  // OnCheckpointStable erases instances_ — capture the digest before
  // Deliver invalidates `inst`.
  const Digest digest = inst.digest;
  Deliver(seq, inst.batch);

  // Commit wave down the tree.
  std::vector<ReplicaId> children = tree_.ChildrenOf(config().id);
  if (children.empty()) return;
  auto commit = std::make_shared<KauriCommitMessage>(epoch_, seq, digest);
  ChargeAuthSend(children.size(), commit->WireSize());
  Multicast(std::vector<NodeId>(children.begin(), children.end()),
            std::move(commit));
}

void KauriReplica::HandleCommit(NodeId from, const KauriCommitMessage& msg) {
  if (msg.epoch() != epoch_ || from != tree_.ParentOf(config().id)) return;
  ChargeAuthVerify(msg.WireSize());
  Instance& inst = instances_[msg.seq()];
  if (!inst.has_proposal || inst.digest != msg.digest()) return;
  if (inst.committed) {
    // Duplicate during repair: the hole may be deeper; re-propagate.
    std::vector<ReplicaId> children = tree_.ChildrenOf(config().id);
    if (!children.empty()) {
      Multicast(std::vector<NodeId>(children.begin(), children.end()),
                std::make_shared<KauriCommitMessage>(epoch_, msg.seq(),
                                                     inst.digest));
    }
    return;
  }
  CommitAndPropagate(msg.seq());
}

void KauriReplica::HandleReconfig(NodeId from,
                                  const KauriReconfigMessage& msg) {
  if (msg.new_epoch() <= epoch_) return;
  if (from != leader() && from != config().id) return;
  ChargeAuthVerify(msg.WireSize());
  epoch_ = msg.new_epoch();
  tree_ = KauriTree(msg.order(), options_.branching);
  ++reconfigs_;
  metrics().Increment("kauri.reconfigurations");
  TraceMark("reconfig", epoch_);

  // The root re-runs all in-flight instances over the new tree.
  if (config().id == leader()) {
    for (auto& [seq, inst] : instances_) {
      if (inst.committed || !inst.has_proposal) continue;
      inst.votes.clear();
      inst.votes.Add(config().id);
      inst.timeout_count = 0;
      inst.children_reported.clear();
      auto proposal =
          std::make_shared<KauriProposalMessage>(epoch_, seq, inst.batch);
      std::vector<ReplicaId> children = tree_.ChildrenOf(config().id);
      ChargeAuthSend(children.size(), proposal->WireSize());
      Multicast(std::vector<NodeId>(children.begin(), children.end()),
                std::move(proposal));
      CancelTimer(&inst.agg_timer);
      inst.agg_timer =
          SetTimer(options_.aggregation_timeout_us * (tree_.Height() + 1),
                   kAggTimerBase + seq);
    }
  } else {
    for (auto& [seq, inst] : instances_) {
      if (!inst.committed) {
        inst.has_proposal = false;
        inst.flushed_votes = 0;
        inst.children_reported.clear();
        inst.votes.clear();
        CancelTimer(&inst.agg_timer);
      }
    }
  }
}

void KauriReplica::OnDuplicateRequest(const ClientRequest& /*request*/) {
  // A client is retransmitting a request the root already executed: the
  // commit wave (or the proposal itself) was lost somewhere down the
  // tree. Re-send proposal + commit for recent committed instances.
  if (config().id != leader()) return;
  if (Now() - last_commit_resend_ < Millis(50) && Now() != 0) return;
  last_commit_resend_ = Now();
  metrics().Increment("kauri.commit_wave_resends");
  std::vector<ReplicaId> children = tree_.ChildrenOf(config().id);
  std::vector<NodeId> dests(children.begin(), children.end());
  int resent = 0;
  for (auto it = instances_.rbegin();
       it != instances_.rend() && resent < 16; ++it) {
    if (!it->second.committed) continue;
    ++resent;
    Multicast(dests, std::make_shared<KauriProposalMessage>(
                         epoch_, it->first, it->second.batch));
    Multicast(dests, std::make_shared<KauriCommitMessage>(
                         epoch_, it->first, it->second.digest));
  }
}

void KauriReplica::OnTimer(uint64_t tag) {
  if (tag == kBatchTimer) {
    batch_timer_ = kInvalidEvent;
    ProposeAvailable();
    return;
  }
  if (tag >= kAggTimerBase) {
    SequenceNumber seq = tag - kAggTimerBase;
    auto it = instances_.find(seq);
    if (it == instances_.end() || it->second.committed) return;
    it->second.agg_timer = kInvalidEvent;

    if (config().id != leader()) {
      // Internal node: children were slow; forward what we have.
      metrics().Increment("kauri.partial_aggregates");
      TraceMark("partial_aggregate", epoch_, seq);
      FlushUp(seq, /*force=*/true);
      return;
    }
    Instance& inst = it->second;
    ++inst.timeout_count;
    if (inst.timeout_count < 2) {
      // First timeout: assume message loss, not node failure. Re-sync
      // stragglers that may have missed the current tree layout, then
      // retransmit the proposal down the tree.
      metrics().Increment("kauri.retransmissions");
      if (epoch_ > 0) {
        auto sync = std::make_shared<KauriReconfigMessage>(epoch_,
                                                           tree_.order());
        ChargeAuthSend(n() - 1, sync->WireSize());
        Multicast(OtherReplicas(), std::move(sync));
      }
      std::vector<ReplicaId> children = tree_.ChildrenOf(config().id);
      auto proposal =
          std::make_shared<KauriProposalMessage>(epoch_, seq, inst.batch);
      ChargeAuthSend(children.size(), proposal->WireSize());
      Multicast(std::vector<NodeId>(children.begin(), children.end()),
                std::move(proposal));
      inst.agg_timer =
          SetTimer(options_.aggregation_timeout_us * (tree_.Height() + 1),
                   kAggTimerBase + seq);
      return;
    }
    // Repeated timeout: an internal subtree failed to aggregate
    // (assumption a3 violated); demote the first silent child.
    ReplicaId failed = kInvalidReplica;
    for (ReplicaId child : tree_.ChildrenOf(config().id)) {
      if (!inst.children_reported.Contains(child)) {
        failed = child;
        break;
      }
    }
    if (failed == kInvalidReplica) {
      // All children reported but some grandchild subtree is missing:
      // demote the child whose subtree contributed the fewest votes.
      failed = tree_.ChildrenOf(config().id).front();
    }
    KauriTree next = tree_.Demote(failed);
    auto msg = std::make_shared<KauriReconfigMessage>(epoch_ + 1,
                                                      next.order());
    ChargeAuthSend(n() - 1, msg->WireSize());
    Multicast(OtherReplicas(), msg);
    HandleReconfig(config().id, *msg);
  }
}

void KauriReplica::OnCheckpointStable(SequenceNumber seq) {
  // GC contract (DESIGN.md §14): drop aggregation state the stable
  // checkpoint covers; peers below it recover via state transfer.
  for (auto it = instances_.begin();
       it != instances_.end() && it->first <= seq;) {
    CancelTimer(&it->second.agg_timer);
    it = instances_.erase(it);
  }
}

size_t KauriReplica::VoteStateSize() const {
  return Replica::VoteStateSize() + instances_.size();
}

std::unique_ptr<Replica> MakeKauriReplica(const ReplicaConfig& config) {
  return KauriFactory(KauriOptions())(config);
}

ReplicaFactory KauriFactory(KauriOptions options) {
  return [options](const ReplicaConfig& config) {
    ReplicaConfig cfg = config;
    cfg.auth = AuthScheme::kThreshold;
    return std::make_unique<KauriReplica>(
        cfg, std::make_unique<KvStateMachine>(), options);
  };
}

}  // namespace bftlab
