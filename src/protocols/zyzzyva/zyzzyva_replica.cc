#include "protocols/zyzzyva/zyzzyva_replica.h"

#include "protocols/common/cluster.h"
#include "sim/metrics.h"
#include "sim/network.h"
#include "smr/kv_state_machine.h"

namespace bftlab {

ZyzzyvaReplica::ZyzzyvaReplica(ReplicaConfig config,
                               std::unique_ptr<StateMachine> state_machine)
    : Replica(config, std::move(state_machine)) {}

void ZyzzyvaReplica::OnClientRequest(NodeId from,
                                     const ClientRequest& request) {
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

void ZyzzyvaReplica::ProposeAvailable() {
  if (!IsLeader()) return;
  while (HasPending() && next_seq_ <= HighWatermark()) {
    Batch batch = TakeBatch();
    if (batch.requests.empty()) continue;
    SequenceNumber seq = next_seq_++;
    TraceMark("propose", view_, seq);
    order_log_[seq] = batch;
    for (const ClientRequest& r : batch.requests) {
      ordered_at_[{r.client, r.timestamp}] = seq;
    }
    auto msg = std::make_shared<ZyzOrderReqMessage>(view_, seq, batch);
    ChargeAuthSend(n() - 1, msg->WireSize());
    Multicast(OtherReplicas(), msg);
    // The leader executes speculatively too (its reply is one of 3f+1).
    Deliver(seq, std::move(batch), /*speculative=*/true);
    MaybeStabilize();
  }
}

void ZyzzyvaReplica::OnProtocolMessage(NodeId from, const MessagePtr& msg) {
  switch (msg->type()) {
    case kZyzOrderReq:
      HandleOrderReq(from, static_cast<const ZyzOrderReqMessage&>(*msg));
      break;
    case kZyzCommitCert:
      HandleCommitCert(from, static_cast<const ZyzCommitCertMessage&>(*msg));
      break;
    case kZyzCommitVote:
      HandleCommitVote(from, static_cast<const ZyzCommitVoteMessage&>(*msg));
      break;
    case kZyzFillHole:
      HandleFillHole(from, static_cast<const ZyzFillHoleMessage&>(*msg));
      break;
    default:
      break;
  }
}

void ZyzzyvaReplica::OnExecutionGap(SequenceNumber missing_seq) {
  // Fill-hole subprotocol: ask the leader to re-send lost order requests
  // (rate-limited: one request per 50 ms).
  if (IsLeader()) return;
  if (Now() - last_fill_hole_sent_ < Millis(50) && Now() != 0) return;
  last_fill_hole_sent_ = Now();
  metrics().Increment("zyzzyva.fill_hole_requests");
  Send(leader(), std::make_shared<ZyzFillHoleMessage>(view_, missing_seq,
                                                      config().id));
}

void ZyzzyvaReplica::HandleFillHole(NodeId /*from*/,
                                    const ZyzFillHoleMessage& msg) {
  if (!IsLeader() || msg.view() != view_) return;
  // Re-send up to 32 order requests starting at the hole.
  SequenceNumber end = msg.from_seq() + 32;
  for (auto it = order_log_.lower_bound(msg.from_seq());
       it != order_log_.end() && it->first < end; ++it) {
    Send(msg.requester(),
         std::make_shared<ZyzOrderReqMessage>(view_, it->first, it->second));
  }
}

void ZyzzyvaReplica::OnDuplicateRequest(const ClientRequest& request) {
  // The client is retransmitting: some replicas likely lost the order
  // request; the primary re-sends it to all (Zyzzyva's retransmit rule).
  if (!IsLeader()) return;
  auto it = ordered_at_.find({request.client, request.timestamp});
  if (it == ordered_at_.end()) return;
  auto batch = order_log_.find(it->second);
  if (batch == order_log_.end()) return;
  metrics().Increment("zyzzyva.order_req_retransmissions");
  Multicast(OtherReplicas(), std::make_shared<ZyzOrderReqMessage>(
                                 view_, batch->first, batch->second));
}

void ZyzzyvaReplica::OnTxnExecuted(const ClientRequest& /*request*/,
                                   bool committed, bool speculative) {
  // Zyzzyva's conflict path: the abort is decided during speculative
  // execution, so the client learns it from the speculative reply and the
  // repair round can only confirm it.
  if (committed || !speculative) return;
  ++spec_txn_aborts_;
  if (config().id == 0) metrics().Increment("zyzzyva.spec_txn_aborts");
  TraceMark("txn_abort", view());
}

void ZyzzyvaReplica::OnCheckpointStable(SequenceNumber seq) {
  for (auto it = order_log_.begin();
       it != order_log_.end() && it->first <= seq;) {
    for (const ClientRequest& r : it->second.requests) {
      ordered_at_.erase({r.client, r.timestamp});
    }
    it = order_log_.erase(it);
  }
}

void ZyzzyvaReplica::HandleOrderReq(NodeId from,
                                    const ZyzOrderReqMessage& msg) {
  if (from != leader() || msg.view() != view_) return;
  if (byzantine_mode() == ByzantineMode::kSilentBackup) return;
  ChargeAuthVerify(msg.WireSize());
  for (const ClientRequest& r : msg.batch().requests) {
    RemoveFromPool(r.ComputeDigest());
  }
  // Speculative execution: apply immediately, reply speculatively (the
  // base tags the reply and keeps the undo history).
  Deliver(msg.seq(), msg.batch(), /*speculative=*/true);
  MaybeStabilize();
}

void ZyzzyvaReplica::MaybeStabilize() {
  // Zyzzyva's checkpoint protocol: periodically vote on the speculative
  // head so history becomes stable and garbage-collectable.
  SequenceNumber head = last_executed();
  if (head < last_stabilize_sent_ + config().checkpoint_interval) return;
  last_stabilize_sent_ = head;
  TraceMark("stabilize_vote", view_, head);
  auto vote = std::make_shared<ZyzCommitVoteMessage>(
      head, state_machine().StateDigest(), config().id);
  ChargeAuthSend(n() - 1, vote->WireSize());
  Multicast(OtherReplicas(), vote);
  HandleCommitVote(config().id, *vote);
}

void ZyzzyvaReplica::HandleCommitVote(NodeId from,
                                      const ZyzCommitVoteMessage& msg) {
  if (from != config().id) ChargeAuthVerify(msg.WireSize());
  auto key = std::make_pair(msg.seq(), msg.state_digest());
  if (commit_votes_.Add(key, msg.replica()) == Quorum2f1()) {
    if (last_executed() >= msg.seq() && finalized_seq() < msg.seq()) {
      TraceMark("stabilized", view_, msg.seq());
      FinalizeUpTo(msg.seq());
      metrics().Increment("zyzzyva.stabilized");
    }
    commit_votes_.EraseBelow(std::make_pair(msg.seq(), Digest()));
  }
}

void ZyzzyvaReplica::HandleCommitCert(NodeId /*from*/,
                                      const ZyzCommitCertMessage& msg) {
  ChargeAuthVerify(msg.WireSize());
  if (last_executed() < msg.seq()) return;  // Missing history; client retries.
  if (finalized_seq() < msg.seq()) {
    TraceMark("commit_cert", view_, msg.seq());
    FinalizeUpTo(msg.seq());
  }
  metrics().Increment("zyzzyva.commit_certs");
  ResendCachedReply(msg.client(), msg.seq());
}

void ZyzzyvaReplica::OnTimer(uint64_t tag) {
  if (tag == kBatchTimer) {
    batch_timer_ = kInvalidEvent;
    ProposeAvailable();
  }
}

void ZyzzyvaReplica::OnRestart() {
  // A batch timer that came due while the node was down was dropped, so
  // its handle is stale; a restarted leader proposes what it pooled.
  batch_timer_ = kInvalidEvent;
  ProposeAvailable();
}

// --- Client ------------------------------------------------------------------

ZyzzyvaClient::ZyzzyvaClient(NodeId id, ClientConfig config, uint32_t f,
                             uint32_t fast_quorum)
    : Client(id, std::move(config)), f_(f), fast_quorum_(fast_quorum) {}

void ZyzzyvaClient::SubmitNext() {
  spec_.clear();
  committed_.clear();
  cert_sent_ = false;
  Client::SubmitNext();
}

void ZyzzyvaClient::HandleReply(const ReplyMessage& reply) {
  if (reply.view() > highest_view_) highest_view_ = reply.view();
  if (!in_flight() || reply.timestamp() != current_request().timestamp) {
    return;
  }
  if (reply.speculative()) {
    auto& [voters, max_seq] = spec_[reply.result()];
    voters.Add(reply.replica());
    max_seq = std::max(max_seq, reply.seq());
    if (voters.size() >= fast_quorum_) {
      ++fast_commits_;
      metrics().Increment("zyzzyva.fast_path");
      accepted_result_ = reply.result();
      AcceptCurrent();
    }
    return;
  }
  // Committed reply (after a commit certificate).
  auto& voters = committed_[reply.result()];
  voters.Add(reply.replica());
  if (voters.size() >= 2 * f_ + 1) {
    ++repair_commits_;
    metrics().Increment("zyzzyva.repair_path");
    accepted_result_ = reply.result();
    AcceptCurrent();
  }
}

void ZyzzyvaClient::OnTimer(uint64_t tag) {
  if (tag == kRetransmitTag && in_flight()) {
    // Repairer role: with 2f+1 matching speculative replies, assemble a
    // commit certificate instead of blind retransmission.
    for (const auto& [result, entry] : spec_) {
      const auto& [voters, max_seq] = entry;
      if (voters.size() >= 2 * f_ + 1) {
        cert_sent_ = true;
        ++retransmissions_;
        auto cert = std::make_shared<ZyzCommitCertMessage>(
            static_cast<ClientId>(id()), max_seq, 2 * f_ + 1);
        Multicast(AllReplicas(), std::move(cert));
        retransmit_timer_ = SetTimer(NextRetransmitDelay(), kRetransmitTag);
        return;
      }
    }
  }
  Client::OnTimer(tag);
}

std::unique_ptr<Replica> MakeZyzzyvaReplica(const ReplicaConfig& config) {
  return std::make_unique<ZyzzyvaReplica>(config,
                                          std::make_unique<KvStateMachine>());
}

ClientFactory ZyzzyvaClientFactory(uint32_t f) {
  return [f](NodeId id, const ClientConfig& config) {
    return std::make_unique<ZyzzyvaClient>(id, config, f, 3 * f + 1);
  };
}

ClientFactory Zyzzyva5ClientFactory(uint32_t f) {
  return [f](NodeId id, const ClientConfig& config) {
    return std::make_unique<ZyzzyvaClient>(id, config, f, 4 * f + 1);
  };
}

}  // namespace bftlab
