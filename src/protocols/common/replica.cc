#include "protocols/common/replica.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "common/codec.h"
#include "common/fnv.h"
#include "common/logging.h"
#include "crypto/sha256.h"
#include "sim/metrics.h"
#include "sim/network.h"
#include "smr/kv_txn.h"
#include "smr/shard_op.h"
#include "smr/switch_op.h"

namespace bftlab {

Replica::Replica(ReplicaConfig config,
                 std::unique_ptr<StateMachine> state_machine)
    : Actor(config.id),
      config_(config),
      state_machine_(std::move(state_machine)),
      checkpoint_store_(config.checkpoint_interval) {}

SimTime Replica::NextViewChangeBackoff(SimTime current_us) const {
  SimTime cap = config_.view_change_timeout_cap_us != 0
                    ? config_.view_change_timeout_cap_us
                    : 8 * config_.view_change_timeout_us;
  cap = std::max(cap, config_.view_change_timeout_us);
  return std::min(current_us * 2, cap);
}

std::vector<NodeId> Replica::AllReplicas() const {
  std::vector<NodeId> out;
  out.reserve(config_.n);
  for (ReplicaId r = 0; r < config_.n; ++r) out.push_back(r);
  return out;
}

std::vector<NodeId> Replica::OtherReplicas() const {
  std::vector<NodeId> out;
  out.reserve(config_.n - 1);
  for (ReplicaId r = 0; r < config_.n; ++r) {
    if (r != config_.id) out.push_back(r);
  }
  return out;
}

size_t Replica::AuthBytes() const {
  switch (config_.auth) {
    case AuthScheme::kMacs:
      // A PBFT-style authenticator: one MAC per receiver.
      return kMacBytes * (config_.n - 1);
    case AuthScheme::kSignatures:
      return kSignatureBytes;
    case AuthScheme::kThreshold:
      return kThresholdSigBytes;
  }
  return kSignatureBytes;
}

void Replica::ChargeAuthSend(size_t num_receivers, size_t body_bytes) {
  const CryptoCostModel& cost = crypto().cost_model();
  switch (config_.auth) {
    case AuthScheme::kMacs:
      crypto().Charge(cost.mac_us * static_cast<double>(num_receivers));
      break;
    case AuthScheme::kSignatures:
      crypto().Charge(cost.sign_us);
      break;
    case AuthScheme::kThreshold:
      crypto().Charge(cost.threshold_share_sign_us);
      break;
  }
  crypto().ChargeHash(body_bytes);
}

void Replica::ChargeAuthVerify(size_t body_bytes) {
  const CryptoCostModel& cost = crypto().cost_model();
  switch (config_.auth) {
    case AuthScheme::kMacs:
      crypto().Charge(cost.verify_mac_us);
      break;
    case AuthScheme::kSignatures:
      crypto().Charge(cost.verify_sig_us);
      break;
    case AuthScheme::kThreshold:
      crypto().Charge(cost.threshold_verify_us);
      break;
  }
  crypto().ChargeHash(body_bytes);
}

void Replica::OnMessage(NodeId from, const MessagePtr& msg) {
  if (byzantine_mode() == ByzantineMode::kCrashSilent) return;
  switch (msg->type()) {
    case kMsgClientRequest:
      HandleClientRequest(from, static_cast<const RequestMessage&>(*msg));
      return;
    case kMsgCheckpoint:
      HandleCheckpoint(from, static_cast<const CheckpointMessage&>(*msg));
      return;
    case kMsgStateRequest:
      HandleStateRequest(from, static_cast<const StateRequestMessage&>(*msg));
      return;
    case kMsgStateResponse:
      HandleStateResponse(from,
                          static_cast<const StateResponseMessage&>(*msg));
      return;
    default:
      OnProtocolMessage(from, msg);
      return;
  }
}

void Replica::OnTimer(uint64_t /*tag*/) {}

void Replica::HandleClientRequest(NodeId from, const RequestMessage& msg) {
  // P6 read-only optimization: answer reads from local state, skipping
  // the ordering stage entirely.
  if (config_.enable_readonly_fastpath &&
      state_machine_->IsReadOnly(msg.request().operation)) {
    Result<Buffer> result =
        state_machine_->ExecuteReadOnly(msg.request().operation);
    if (result.ok()) {
      if (config_.verify_client_signatures &&
          !msg.request().VerifySignature(&crypto())) {
        return;
      }
      metrics().Increment("replica.readonly_fastpath");
      SendReply(msg.request(), *result, /*speculative=*/false);
      return;
    }
  }
  if (AdmitRequest(from, msg.request())) {
    TraceMark("request", view());
    OnClientRequest(from, msg.request());
  }
}

bool Replica::AdmitRequest(NodeId from, const ClientRequest& request) {
  (void)from;
  // Dedup against the reply cache: replay the reply for re-transmitted
  // already-executed requests; drop stale ones.
  auto cached = reply_cache_.find(request.client);
  if (cached != reply_cache_.end()) {
    if (request.timestamp < cached->second.timestamp) return false;
    if (request.timestamp == cached->second.timestamp) {
      SendReply(request, cached->second.result, cached->second.speculative);
      OnDuplicateRequest(request);
      return false;
    }
  }

  Digest digest = request.ComputeDigest();
  if (pool_.count(digest)) return false;  // Already pooled.

  if (config_.verify_client_signatures &&
      !request.VerifySignature(&crypto())) {
    metrics().Increment("replica.bad_client_signature");
    return false;
  }

  pool_.emplace(digest, request);
  pool_order_.push_back(digest);
  return true;
}

Batch Replica::TakeBatch() {
  Batch batch;
  while (!pool_order_.empty() && batch.requests.size() < config_.batch_size) {
    Digest digest = pool_order_.front();
    pool_order_.pop_front();
    auto it = pool_.find(digest);
    if (it == pool_.end()) continue;  // Removed out-of-band.
    batch.requests.push_back(std::move(it->second));
    pool_.erase(it);
  }
  return batch;
}

const ClientRequest* Replica::PeekOldest() const {
  for (const Digest& d : pool_order_) {
    auto it = pool_.find(d);
    if (it != pool_.end()) return &it->second;
  }
  return nullptr;
}

void Replica::RemoveFromPool(const Digest& request_digest) {
  pool_.erase(request_digest);
  // pool_order_ entries are lazily skipped in TakeBatch/PeekOldest.
}

void Replica::RepoolBack(const ClientRequest& request) {
  Digest digest = request.ComputeDigest();
  if (pool_.count(digest)) return;
  pool_order_.push_back(digest);
  pool_.emplace(digest, request);
}

void Replica::SendReply(const ClientRequest& request, const Buffer& result,
                        bool speculative, SequenceNumber seq) {
  if (suppress_replies_) return;
  auto reply = std::make_shared<ReplyMessage>(
      view(), config_.id, request.client, request.timestamp, result,
      speculative, seq);
  crypto().Charge(crypto().cost_model().mac_us);  // Reply is MAC'd.
  Send(request.client, std::move(reply));
}

void Replica::ResendCachedReply(ClientId client, SequenceNumber seq) {
  auto it = reply_cache_.find(client);
  if (it == reply_cache_.end()) return;
  it->second.speculative = false;
  auto reply = std::make_shared<ReplyMessage>(
      view(), config_.id, client, it->second.timestamp, it->second.result,
      /*speculative=*/false, seq);
  crypto().Charge(crypto().cost_model().mac_us);
  Send(client, std::move(reply));
}

void Replica::Deliver(SequenceNumber seq, Batch batch, bool speculative) {
  if (seq <= last_executed_) return;  // Already executed.
  // Non-speculative delivery IS the commit decision for this sequence;
  // the trace-invariant checker requires it before a (non-speculative)
  // execute span can close.
  if (!speculative) TraceMark("commit", view(), seq);
  pending_executions_.emplace(seq, std::make_pair(std::move(batch),
                                                  speculative));
  DrainExecutions();
  if (!pending_executions_.empty()) {
    OnExecutionGap(last_executed_ + 1);
  }
}

void Replica::DrainExecutions() {
  while (true) {
    // Quiesce: nothing executes past the agreed cut in this epoch. The
    // successor epoch starts from the cut's checkpoint payload, so any
    // batch ordered beyond it is simply abandoned (its clients re-submit
    // into the new epoch).
    if (switch_pending_ && last_executed_ >= switch_cut_seq_) break;
    auto it = pending_executions_.find(last_executed_ + 1);
    if (it == pending_executions_.end()) break;
    auto [batch, speculative] = std::move(it->second);
    pending_executions_.erase(it);
    ExecuteBatch(last_executed_ + 1, std::move(batch), speculative);
  }
}

void Replica::ExecuteBatch(SequenceNumber seq, Batch batch, bool speculative) {
  const char* exec_span = speculative ? "execute_spec" : "execute";
  TraceSpanBegin(exec_span, view(), seq);
  ExecutedBatch record;
  record.seq = seq;
  record.speculative = speculative;
  // Each request is hashed once: its digest feeds the batch digest (in
  // agreed order) and the pool removal below.
  std::vector<Digest> digests;
  digests.reserve(batch.requests.size());
  for (const ClientRequest& request : batch.requests) {
    digests.push_back(request.ComputeDigest());
  }
  record.digest = Batch::DigestOf(digests);

  // Stamped shard ops (smr/shard_op.h) execute at a sequencer-assigned
  // slot; sorting them into slot order within the agreed batch turns
  // most same-batch stamp inversions into clean applies instead of
  // gap-retry round trips. Non-shard requests all key to 0, so a stable
  // sort leaves legacy batches untouched. Deterministic across replicas
  // because the agreed batch content fully determines the order. The
  // sort permutes indices so each digest travels with its request.
  std::vector<size_t> order(batch.requests.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return ShardOp::StampOf(batch.requests[a].operation) <
           ShardOp::StampOf(batch.requests[b].operation);
  });

  for (size_t i : order) {
    const ClientRequest& request = batch.requests[i];
    // A request may be ordered twice (e.g. re-proposed across a view
    // change); execute only its first occurrence, like PBFT's null-op
    // substitution for duplicates.
    auto dup = reply_cache_.find(request.client);
    if (dup != reply_cache_.end() &&
        dup->second.timestamp >= request.timestamp) {
      RemoveFromPool(digests[i]);
      OnRequestExecuted(request, speculative);
      continue;
    }
    // Every correct replica executes the directive at the same sequence
    // number (it was ordered like any other request), so all derive the
    // same cut. Speculative executions schedule too; a rollback across
    // the directive unschedules (see RollbackTo).
    if (std::optional<SwitchDirective> directive =
            DecodeSwitchDirective(request.operation)) {
      ScheduleSwitch(directive->epoch, directive->target, seq);
    }
    Result<Buffer> result = state_machine_->Apply(request.operation);
    Buffer result_bytes =
        result.ok() ? std::move(result).value()
                    : Slice(result.status().ToString()).ToBuffer();
    if (result.ok()) ++record.op_count;

    if (KvTxn::IsTxn(request.operation)) {
      const bool committed =
          result.ok() && !KvTxnResult::IsAbort(result_bytes);
      // Replica 0 reports txn outcomes (like RecordExecution below) so
      // counters reflect the replicated decision once, not n times.
      if (config_.id == 0) {
        metrics().Increment(committed ? "txn.commits" : "txn.aborts");
      }
      OnTxnExecuted(request, committed, speculative);
    }

    // Reply-cache undo information for speculative rollback.
    auto cached = reply_cache_.find(request.client);
    if (cached != reply_cache_.end()) {
      record.reply_undo.emplace_back(request.client, true,
                                     cached->second.timestamp,
                                     cached->second.result);
    } else {
      record.reply_undo.emplace_back(request.client, false, 0, Buffer{});
    }

    CachedReply& entry = reply_cache_[request.client];
    entry.timestamp = request.timestamp;
    entry.result = result_bytes;
    entry.speculative = speculative;

    RemoveFromPool(digests[i]);
    // Replica 0 reports the global execution order for fairness metrics.
    if (config_.id == 0) {
      metrics().RecordExecution(request.client, request.timestamp);
    }
    SendReply(request, result_bytes, speculative, seq);
    OnRequestExecuted(request, speculative);
  }
  record.requests.reserve(order.size());
  for (size_t i : order) {
    record.requests.push_back(std::move(batch.requests[i]));
  }

  last_executed_ = seq;
  exec_history_.push_back(std::move(record));
  TraceSpanEnd(exec_span, view(), seq);

  if (!speculative) {
    FinalizeUpTo(seq);
  }
}

void Replica::FinalizeUpTo(SequenceNumber seq) {
  if (!exec_history_.empty() && exec_history_.front().seq <= seq) {
    TraceMark("finalize", view(), std::min(seq, exec_history_.back().seq));
  }
  while (!exec_history_.empty() && exec_history_.front().seq <= seq) {
    ExecutedBatch& record = exec_history_.front();
    finalized_ = record.seq;
    finalized_digests_[record.seq] = record.digest;
    MaybeTakeCheckpoint(record.seq);
    exec_history_.pop_front();
  }
  if (finalized_ > 0) {
    // Rollback never crosses a finalized sequence number, so undo data
    // before the finalized prefix serves only the retained checkpoints,
    // which rebuild their payloads from it.
    uint64_t keep_after = state_machine_->version();
    for (const ExecutedBatch& record : exec_history_) {
      keep_after -= record.op_count;
    }
    if (std::optional<uint64_t> oldest =
            checkpoint_store_.OldestRebuildVersion()) {
      keep_after = std::min(keep_after, *oldest);
    }
    state_machine_->TrimUndoHistory(keep_after);
  }
}

Result<Digest> Replica::ExecutedDigestAt(SequenceNumber seq) const {
  auto it = finalized_digests_.find(seq);
  if (it != finalized_digests_.end()) return it->second;
  for (const ExecutedBatch& record : exec_history_) {
    if (record.seq == seq) return record.digest;
  }
  return Status::NotFound("no execution at seq " + std::to_string(seq));
}

Status Replica::RollbackTo(SequenceNumber seq) {
  if (seq < finalized_) {
    return Status::FailedPrecondition("cannot roll back finalized commits");
  }
  uint64_t ops_to_undo = 0;
  size_t batches = 0;
  for (auto it = exec_history_.rbegin();
       it != exec_history_.rend() && it->seq > seq; ++it) {
    ops_to_undo += it->op_count;
    ++batches;
  }
  if (batches == 0) return Status::Ok();

  HoldPayloadsFrom(state_machine_->version() - ops_to_undo + 1);
  BFTLAB_RETURN_IF_ERROR(state_machine_->Rollback(ops_to_undo));

  for (size_t i = 0; i < batches; ++i) {
    ExecutedBatch record = std::move(exec_history_.back());
    exec_history_.pop_back();
    // Restore the reply cache (in reverse execution order).
    for (auto it = record.reply_undo.rbegin(); it != record.reply_undo.rend();
         ++it) {
      auto [client, had_prev, prev_ts, prev_result] = *it;
      if (had_prev) {
        CachedReply& entry = reply_cache_[client];
        entry.timestamp = prev_ts;
        entry.result = prev_result;
        entry.speculative = false;
      } else {
        reply_cache_.erase(client);
      }
    }
    // Return the rolled-back requests to the pool for re-proposal.
    for (ClientRequest& request : record.requests) {
      Digest digest = request.ComputeDigest();
      if (!pool_.count(digest)) {
        pool_order_.push_front(digest);
        pool_.emplace(digest, std::move(request));
      }
    }
    last_executed_ = record.seq - 1;
  }
  ++rollbacks_;
  metrics().Increment("replica.rollbacks");
  TraceMark("rollback", view(), seq);
  // A rollback across the directive's execution point revokes the
  // schedule: the final ordering may place the directive elsewhere (or
  // nowhere), and re-execution will re-derive the cut from it.
  if (switch_pending_ && last_executed_ < switch_sched_seq_) {
    switch_pending_ = false;
    switch_target_.clear();
    switch_target_epoch_ = 0;
    switch_sched_seq_ = 0;
    switch_cut_seq_ = 0;
    metrics().Increment("switch.unscheduled");
  }
  return Status::Ok();
}

void Replica::ScheduleSwitch(uint64_t target_epoch, const std::string& target,
                             SequenceNumber sched_seq) {
  if (switch_pending_ || target_epoch != config_.epoch + 1) return;
  switch_pending_ = true;
  switch_target_epoch_ = target_epoch;
  switch_target_ = target;
  switch_sched_seq_ = sched_seq;
  switch_cut_seq_ = SwitchCutFor(sched_seq, config_.checkpoint_interval);
  metrics().Increment("switch.scheduled");
  TraceMark("switch_scheduled", view(), switch_cut_seq_);
  OnSwitchScheduled(switch_cut_seq_);
}

Status Replica::SeedFromPayload(const Buffer& payload, const Digest& digest) {
  Result<DecodedPayload> decoded = VerifyCheckpointPayload(payload, digest);
  if (!decoded.ok()) {
    return Status::InvalidArgument("handoff payload rejected: " +
                                   decoded.status().ToString());
  }
  BFTLAB_RETURN_IF_ERROR(RestoreCheckpointPayload(std::move(decoded).value()));
  // The payload encodes the very switch that created this replica; do
  // not re-adopt it as a pending switch out of our own epoch.
  switch_pending_ = false;
  switch_target_.clear();
  switch_target_epoch_ = 0;
  switch_sched_seq_ = 0;
  switch_cut_seq_ = 0;
  return Status::Ok();
}

Buffer Replica::EncodeReplyCache() const {
  Encoder enc;
  // The reply cache rides along with the application snapshot: after a
  // state transfer the receiver must suppress duplicates exactly like
  // replicas that executed the prefix themselves, or a request
  // re-proposed across a view change re-executes and diverges state.
  // The speculative flag is deliberately excluded so payloads (and thus
  // checkpoint digests) agree between replicas that executed the same
  // prefix speculatively vs. finally.
  enc.PutU64(reply_cache_.size());
  for (const auto& [client, cached] : reply_cache_) {
    enc.PutU64(client);
    enc.PutU64(cached.timestamp);
    enc.PutBytes(cached.result);
  }
  return enc.Take();
}

Buffer Replica::EncodeSwitchState(SequenceNumber seq) const {
  Encoder enc;
  // Pending-switch state is a pure function of the executed prefix: the
  // directive either did or did not execute by `seq`, identically on
  // every replica that reached this checkpoint. Folding it into the
  // agreed payload means a replica that catches up via state transfer
  // also learns it must quiesce at the cut instead of sailing past it.
  const bool pending = switch_pending_ && switch_sched_seq_ <= seq;
  enc.PutU64(pending ? switch_target_epoch_ : 0);
  if (pending) {
    enc.PutBytes(Slice(switch_target_).ToBuffer());
    enc.PutU64(switch_sched_seq_);
    enc.PutU64(switch_cut_seq_);
  }
  return enc.Take();
}

Digest Replica::CheckpointDigest(Slice head, const Digest& commitment,
                                 Slice tail) {
  Sha256 h;
  h.Update(head);
  h.Update(commitment.AsSlice());
  h.Update(tail);
  return h.Finalize();
}

Result<Buffer> Replica::BuildCheckpointPayload(
    const Checkpoint& checkpoint) const {
  if (checkpoint.payload) return *checkpoint.payload;
  BFTLAB_ASSIGN_OR_RETURN(Buffer snapshot,
                          state_machine_->SnapshotAt(checkpoint.version));
  Encoder enc(checkpoint.head);
  enc.PutBytes(snapshot);
  enc.PutRaw(checkpoint.tail);
  return enc.Take();
}

Result<Buffer> Replica::CheckpointPayload(SequenceNumber seq) const {
  BFTLAB_ASSIGN_OR_RETURN(Checkpoint checkpoint, checkpoint_store_.Get(seq));
  return BuildCheckpointPayload(checkpoint);
}

void Replica::HoldPayloadsFrom(uint64_t version) {
  std::vector<std::pair<SequenceNumber, Buffer>> held;
  for (const auto& [seq, checkpoint] : checkpoint_store_.retained()) {
    if (checkpoint.payload || checkpoint.version < version) continue;
    Result<Buffer> payload = BuildCheckpointPayload(checkpoint);
    if (payload.ok()) held.emplace_back(seq, std::move(payload).value());
  }
  for (auto& [seq, payload] : held) {
    checkpoint_store_.HoldPayload(seq, std::move(payload));
  }
}

Result<Replica::DecodedPayload> Replica::VerifyCheckpointPayload(
    const Buffer& payload, const Digest& digest) const {
  DecodedPayload out;
  Decoder dec{Slice(payload)};
  BFTLAB_ASSIGN_OR_RETURN(uint64_t count, dec.GetU64());
  for (uint64_t i = 0; i < count; ++i) {
    BFTLAB_ASSIGN_OR_RETURN(uint64_t client, dec.GetU64());
    CachedReply cached;
    BFTLAB_ASSIGN_OR_RETURN(cached.timestamp, dec.GetU64());
    BFTLAB_ASSIGN_OR_RETURN(cached.result, dec.GetBytes());
    cached.speculative = false;  // Checkpointed state is final.
    out.reply_cache[static_cast<ClientId>(client)] = std::move(cached);
  }
  const size_t head_size = payload.size() - dec.remaining();
  BFTLAB_ASSIGN_OR_RETURN(out.snapshot, dec.GetBytes());
  const size_t tail_start = payload.size() - dec.remaining();
  BFTLAB_ASSIGN_OR_RETURN(out.switch_epoch, dec.GetU64());
  if (out.switch_epoch != 0) {
    BFTLAB_ASSIGN_OR_RETURN(Buffer target_bytes, dec.GetBytes());
    out.switch_target.assign(
        reinterpret_cast<const char*>(target_bytes.data()),
        target_bytes.size());
    BFTLAB_ASSIGN_OR_RETURN(out.switch_sched_seq, dec.GetU64());
    BFTLAB_ASSIGN_OR_RETURN(out.switch_cut_seq, dec.GetU64());
  }
  out.head.assign(payload.begin(), payload.begin() + head_size);
  out.tail.assign(payload.begin() + tail_start, payload.end());
  BFTLAB_ASSIGN_OR_RETURN(Digest commitment,
                          state_machine_->SnapshotCommitment(out.snapshot));
  if (CheckpointDigest(out.head, commitment, out.tail) != digest) {
    return Status::Corruption("payload does not match its checkpoint digest");
  }
  return out;
}

Status Replica::RestoreCheckpointPayload(DecodedPayload payload) {
  BFTLAB_RETURN_IF_ERROR(state_machine_->Restore(payload.snapshot));
  reply_cache_ = std::move(payload.reply_cache);
  if (payload.switch_epoch == config_.epoch + 1 && !switch_pending_) {
    switch_pending_ = true;
    switch_target_epoch_ = payload.switch_epoch;
    switch_target_ = std::move(payload.switch_target);
    switch_sched_seq_ = payload.switch_sched_seq;
    switch_cut_seq_ = payload.switch_cut_seq;
    metrics().Increment("switch.adopted_via_state_transfer");
    OnSwitchScheduled(switch_cut_seq_);
  }
  return Status::Ok();
}

void Replica::MaybeTakeCheckpoint(SequenceNumber seq) {
  if (!checkpoint_store_.IsCheckpointSeq(seq)) return;
  // O(keys changed since the last checkpoint): the state machine keeps
  // its commitment current, and the payload the digest certifies is
  // built only when a state transfer or a switch handoff asks for it.
  Checkpoint checkpoint;
  checkpoint.seq = seq;
  checkpoint.version = state_machine_->version();
  checkpoint.head = EncodeReplyCache();
  checkpoint.tail = EncodeSwitchState(seq);
  const Digest digest = CheckpointDigest(
      checkpoint.head, state_machine_->StateCommitment(), checkpoint.tail);
  checkpoint.state_digest = digest;
  checkpoint_store_.Add(std::move(checkpoint));
  metrics().Increment("replica.checkpoints_taken");
  TraceMark("checkpoint", view(), seq);
  auto msg = std::make_shared<CheckpointMessage>(seq, digest, config_.id);
  ChargeAuthSend(config_.n - 1, msg->WireSize());
  Multicast(OtherReplicas(), msg);
  // Count our own announcement.
  HandleCheckpoint(config_.id, *msg);
}

void Replica::HandleCheckpoint(NodeId from, const CheckpointMessage& msg) {
  if (msg.seq() <= checkpoint_store_.stable_seq()) return;
  if (from != config_.id) ChargeAuthVerify(msg.WireSize());

  auto key = std::make_pair(msg.seq(), msg.state_digest());
  size_t votes = checkpoint_votes_.Add(key, msg.replica());
  if (votes == AgreementQuorum()) {
    agreed_checkpoint_digest_[msg.seq()] = msg.state_digest();
    if (msg.seq() <= last_executed_) {
      checkpoint_store_.MarkStable(msg.seq());
      metrics().Increment("replica.checkpoints_stable");
      checkpoint_votes_.EraseBelow(std::make_pair(msg.seq() + 1, Digest()));
      OnCheckpointStable(msg.seq());
    } else if (config_.enable_state_transfer &&
               state_transfer_target_ < msg.seq()) {
      // We are in the dark: a quorum certifies state we have not executed.
      // Fetch the snapshot from one of the certifiers.
      state_transfer_target_ = msg.seq();
      // O(1) pick of a certifier to fetch from — no voter-set copy.
      NodeId source = checkpoint_votes_.Voters(key).FirstOther(id());
      metrics().Increment("replica.state_transfers_started");
      Send(source,
           std::make_shared<StateRequestMessage>(msg.seq(), config_.id));
    }
  }
}

void Replica::HandleStateRequest(NodeId from, const StateRequestMessage& msg) {
  Result<Checkpoint> cp = checkpoint_store_.Get(msg.seq());
  if (!cp.ok()) cp = checkpoint_store_.GetStable();
  if (!cp.ok()) return;
  Result<Buffer> payload = BuildCheckpointPayload(*cp);
  if (!payload.ok()) return;
  Send(from, std::make_shared<StateResponseMessage>(
                 cp->seq, cp->state_digest, std::move(payload).value()));
}

void Replica::HandleStateResponse(NodeId /*from*/,
                                  const StateResponseMessage& msg) {
  if (msg.seq() <= last_executed_) return;
  // Only accept state certified by a checkpoint quorum.
  auto agreed = agreed_checkpoint_digest_.find(msg.seq());
  if (agreed == agreed_checkpoint_digest_.end() ||
      agreed->second != msg.state_digest()) {
    metrics().Increment("replica.state_transfer_rejected");
    return;
  }
  // Verify against the certified digest before mutating any state.
  Result<DecodedPayload> payload =
      VerifyCheckpointPayload(msg.snapshot(), msg.state_digest());
  if (!payload.ok()) {
    metrics().Increment("replica.state_transfer_corrupt");
    return;
  }
  Checkpoint checkpoint;
  checkpoint.seq = msg.seq();
  checkpoint.state_digest = msg.state_digest();
  checkpoint.head = payload->head;
  checkpoint.tail = payload->tail;
  // The restore discards the undo history retained checkpoints rebuild
  // their payloads from. Past the stable mark this checkpoint supersedes
  // them all (MarkStable below drops them); short of it they stay, so
  // their payloads are held first.
  if (msg.seq() <= checkpoint_store_.stable_seq()) HoldPayloadsFrom(0);
  if (!RestoreCheckpointPayload(std::move(payload).value()).ok()) {
    metrics().Increment("replica.state_transfer_corrupt");
    return;
  }
  checkpoint.version = state_machine_->version();

  last_executed_ = msg.seq();
  finalized_ = msg.seq();
  exec_history_.clear();
  pending_executions_.erase(pending_executions_.begin(),
                            pending_executions_.upper_bound(msg.seq()));
  checkpoint_store_.Add(std::move(checkpoint));
  checkpoint_store_.MarkStable(msg.seq());
  state_transfer_target_ = 0;
  metrics().Increment("replica.state_transfers_completed");
  TraceMark("state_transfer", view(), msg.seq());
  OnStateTransferComplete(msg.seq());
  DrainExecutions();
}

uint64_t Replica::StateFingerprint() const {
  // Folds exactly the state that drives future handler behavior; pure
  // counters (metrics, rollbacks_) and anything time-valued stay out so
  // two schedules reaching the same protocol state digest equal even when
  // they took different virtual-time paths.
  uint64_t h = kFnvBasis;
  h = FnvMix(h, config_.id);
  h = FnvMix(h, view());
  h = FnvMix(h, leader());
  h = FnvMix(h, last_executed_);
  h = FnvMix(h, finalized_);
  for (const auto& [seq, digest] : finalized_digests_) {
    h = FnvMix(h, seq);
    h = FnvBytes(digest.data(), Digest::kSize, h);
  }
  h = FnvMix(h, state_machine_->version());
  Digest sm = state_machine_->StateDigest();
  h = FnvBytes(sm.data(), Digest::kSize, h);
  for (const Digest& d : pool_order_) {
    h = FnvBytes(d.data(), Digest::kSize, h);
  }
  for (const auto& [client, cached] : reply_cache_) {
    h = FnvMix(h, client);
    h = FnvMix(h, cached.timestamp);
    h = FnvMix(h, cached.speculative ? 1 : 0);
  }
  for (const auto& [seq, pending] : pending_executions_) {
    h = FnvMix(h, seq);
    Digest d = pending.first.ComputeDigest();
    h = FnvBytes(d.data(), Digest::kSize, h);
    h = FnvMix(h, pending.second ? 1 : 0);
  }
  for (const ExecutedBatch& eb : exec_history_) {
    h = FnvMix(h, eb.seq);
    h = FnvBytes(eb.digest.data(), Digest::kSize, h);
    h = FnvMix(h, eb.speculative ? 1 : 0);
  }
  h = FnvMix(h, checkpoint_store_.stable_seq());
  h = FnvMix(h, state_transfer_target_);
  h = FnvMix(h, config_.epoch);
  if (switch_pending_) {
    h = FnvMix(h, switch_target_epoch_);
    h = FnvMix(h, switch_cut_seq_);
    h = FnvBytes(switch_target_.data(), switch_target_.size(), h);
  }
  h = FnvMix(h, ProtocolStateFingerprint());
  return h;
}

size_t Replica::VoteStateSize() const {
  // finalized_digests_ is deliberately excluded: it is the agreement
  // oracle's full commit history, not protocol vote state.
  return checkpoint_votes_.size() + pending_executions_.size();
}

}  // namespace bftlab
