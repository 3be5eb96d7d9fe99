// Replica base class: the protocol-independent 4/5 of a BFT replica.
//
// Implements the replica lifecycle stages of Figure 1 that are common to
// all protocols — execution (in-order, with speculative execution +
// rollback for Zyzzyva/PoE), checkpointing + garbage collection (P4), and
// recovery/state transfer for trailing replicas — plus client-request
// pooling, deduplication, reply caching, and batching. Each protocol
// subclass implements only its ordering and view-change stages.

#ifndef BFTLAB_PROTOCOLS_COMMON_REPLICA_H_
#define BFTLAB_PROTOCOLS_COMMON_REPLICA_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "crypto/digest.h"
#include "net/topology.h"
#include "protocols/common/base_messages.h"
#include "protocols/common/quorum.h"
#include "sim/actor.h"
#include "smr/checkpoint.h"
#include "smr/request.h"
#include "smr/state_machine.h"

namespace bftlab {

/// E3: how this replica authenticates protocol messages.
enum class AuthScheme : uint8_t {
  kMacs = 0,
  kSignatures = 1,
  kThreshold = 2,
};

/// Scripted Byzantine behaviours used by tests and benches. A Byzantine
/// replica follows the protocol except for the scripted deviation; per the
/// paper's model it cannot forge signatures.
enum class ByzantineMode : uint8_t {
  kNone = 0,
  kCrashSilent,      // Participates in nothing (fail-stop).
  kEquivocate,       // As leader, proposes different orders to different
                     // backups.
  kDelayProposals,   // As leader, adds delay before proposing (Prime's
                     // performance-degradation attack).
  kCensorClient,     // As leader, never proposes a target client's
                     // requests (fairness/censorship attack).
  kReorderRequests,  // As leader, proposes requests in reverse receive
                     // order (order-fairness attack).
  kSilentBackup,     // As backup, never votes.
  kCounterRollback,  // Trusted-component families only: the replica's
                     // trusted counter is restored from a stale snapshot
                     // mid-run and the replica (as leader) re-certifies
                     // history under the replayed identifiers. No-op for
                     // protocols without a trusted counter.
  kCounterFork,      // Trusted-component families only: the replica (as
                     // backup) clones its trusted counter and issues
                     // conflicting votes under duplicated identifiers.
                     // No-op for protocols without a trusted counter.
};

struct ByzantineSpec {
  ByzantineMode mode = ByzantineMode::kNone;
  ClientId censor_target = 0;  // kCensorClient.
  SimTime delay_us = 0;        // kDelayProposals.
  /// kCounterRollback/kCounterFork: when the trusted-counter compromise
  /// fires. Before this instant the replica behaves correctly.
  SimTime counter_fault_at_us = Millis(1500);
};

/// Static configuration of one replica.
struct ReplicaConfig {
  ReplicaId id = 0;
  uint32_t n = 4;
  uint32_t f = 1;
  /// Protocol epoch this replica incarnation belongs to. Live protocol
  /// switching replaces replicas in place with epoch+1 instances;
  /// sequence numbering restarts per epoch while the state machine
  /// version continues.
  uint64_t epoch = 0;
  AuthScheme auth = AuthScheme::kSignatures;
  /// P4: distance between checkpoints.
  uint64_t checkpoint_interval = 64;
  /// Sequence-number window above the last stable checkpoint within which
  /// leaders may propose.
  uint64_t watermark_window = 512;
  /// τ2: view-change trigger timeout (doubles on consecutive failures).
  SimTime view_change_timeout_us = Millis(300);
  /// Cap the doubling view-change/pacemaker back-off saturates at
  /// (0 = 8x view_change_timeout_us). Uncapped doubling is a liveness
  /// hazard: a pre-GST fault storm can fail enough consecutive view
  /// changes to push the next leader-replacement attempt beyond any
  /// horizon, wedging an otherwise-healed cluster after GST.
  SimTime view_change_timeout_cap_us = 0;
  /// Max requests bundled into one proposal.
  size_t batch_size = 8;
  /// Max time a leader waits to fill a batch before proposing anyway.
  SimTime batch_timeout_us = Millis(2);
  bool verify_client_signatures = true;
  /// P6 read-only optimization: replicas answer read-only requests
  /// directly from local state without ordering; the client must then
  /// collect 2f+1 (not f+1) matching replies to be safe against stale
  /// reads from trailing replicas.
  bool enable_readonly_fastpath = false;
  /// Whether trailing replicas may catch up by checkpoint state transfer.
  /// Chain-based protocols (HotStuff) disable it: jumping over a chain
  /// prefix would desynchronize block-position sequence numbering; they
  /// catch up via block synchronization instead.
  bool enable_state_transfer = true;
  /// Trusted-component protocols: verify UI certificates and enforce the
  /// per-sender freshness watermark (DESIGN.md §15). Disabling this is
  /// how tests demonstrate that the check is load-bearing — a rollback
  /// attack must then reach the agreement oracle.
  bool verify_trusted_ui = true;
  ByzantineSpec byzantine;
};

class Replica;
class TrustedCounter;

/// Builds one protocol replica from a fully-populated config.
using ReplicaFactory =
    std::function<std::unique_ptr<Replica>(const ReplicaConfig&)>;

/// Base class of every protocol replica.
class Replica : public Actor {
 public:
  Replica(ReplicaConfig config, std::unique_ptr<StateMachine> state_machine);

  /// Protocol name for traces/benches ("pbft", "hotstuff", ...).
  virtual std::string name() const = 0;

  /// Current view (0 for viewless protocols like Q/U).
  virtual ViewNumber view() const { return 0; }

  /// The leader of the replica's current view; kInvalidReplica if none.
  virtual ReplicaId leader() const { return kInvalidReplica; }
  bool IsLeader() const { return leader() == config_.id; }

  // --- Observability (tests, benches) ------------------------------------

  const ReplicaConfig& config() const { return config_; }
  SequenceNumber last_executed() const { return last_executed_; }
  SequenceNumber finalized_seq() const { return finalized_; }
  /// Digests of finalized batches by sequence number (Agreement checks).
  const std::map<SequenceNumber, Digest>& finalized_digests() const {
    return finalized_digests_;
  }
  const StateMachine& state_machine() const { return *state_machine_; }
  const CheckpointStore& checkpoints() const { return checkpoint_store_; }
  size_t pending_requests() const { return pool_order_.size(); }
  uint64_t rollbacks() const { return rollbacks_; }

  // --- Live protocol switching (core/switch) ------------------------------

  uint64_t epoch() const { return config_.epoch; }
  /// True once this replica executed a SWITCH directive for epoch+1 and
  /// is quiescing toward the cut.
  bool switch_pending() const { return switch_pending_; }
  const std::string& switch_target() const { return switch_target_; }
  uint64_t switch_target_epoch() const { return switch_target_epoch_; }
  /// The agreed cut: the checkpoint boundary execution stops at.
  SequenceNumber switch_cut_seq() const { return switch_cut_seq_; }
  /// Where the directive executed. The schedule (and with it the cut) is
  /// revocable by RollbackTo until finalized_seq() reaches this.
  SequenceNumber switch_sched_seq() const { return switch_sched_seq_; }
  /// True when the replica finalized through the cut and holds the
  /// checkpoint whose payload seeds its successor.
  bool ReadyToSwitch() const {
    return switch_pending_ && finalized_ >= switch_cut_seq_ &&
           checkpoint_store_.Get(switch_cut_seq_).ok();
  }

  /// The payload the retained checkpoint at `seq` certifies — reply
  /// cache, application snapshot, pending-switch state — built on demand
  /// from the live state machine and its undo history.
  Result<Buffer> CheckpointPayload(SequenceNumber seq) const;

  /// Seeds a freshly-built next-epoch replica from a checkpoint payload
  /// of its predecessor, verified against `digest` before anything is
  /// restored: application snapshot plus reply cache, so requests
  /// executed before the cut are answered from cache instead of
  /// re-executing. Sequence numbering starts at 0 in the new epoch; the
  /// state-machine version continues.
  Status SeedFromPayload(const Buffer& payload, const Digest& digest);

  /// FNV-1a digest of the replica's behavior-relevant state (view,
  /// execution frontier, finalized digests, state-machine digest, pool,
  /// reply cache, buffered executions, stable checkpoint) folded with the
  /// protocol subclass's ProtocolStateFingerprint(). Used by the schedule
  /// explorer's duplicate-state pruning: two replicas with equal
  /// fingerprints react identically to any future event, up to state the
  /// subclass chose not to fold in (see DESIGN.md §11 soundness caveats).
  uint64_t StateFingerprint() const;

  /// Number of retained vote/bookkeeping entries (tracker keys, per-slot
  /// instances, block bodies). The leak regression tests assert this
  /// stays bounded across long runs: every protocol must garbage-collect
  /// per the QuorumTracker GC contract (DESIGN.md §14). Subclasses add
  /// their own trackers to the base count.
  virtual size_t VoteStateSize() const;

  /// The replica's trusted monotonic counter, when the protocol family
  /// uses one (DESIGN.md §15); nullptr otherwise. The Nemesis and the
  /// Byzantine matrix reach through this to wipe (Reboot), roll back, or
  /// fork the device between incarnations.
  virtual TrustedCounter* trusted_counter() { return nullptr; }

  // --- Actor ---------------------------------------------------------------

  void OnMessage(NodeId from, const MessagePtr& msg) final;
  void OnTimer(uint64_t tag) override;

 protected:
  // --- Subclass interface --------------------------------------------------

  /// A verified, deduplicated client request entered the pool.
  virtual void OnClientRequest(NodeId from, const ClientRequest& request) = 0;

  /// A protocol message (type >= 100) arrived.
  virtual void OnProtocolMessage(NodeId from, const MessagePtr& msg) = 0;

  /// A checkpoint became stable; protocol state below `seq` may be GC'd.
  virtual void OnCheckpointStable(SequenceNumber seq) { (void)seq; }

  /// State transfer completed; the replica jumped to `seq`.
  virtual void OnStateTransferComplete(SequenceNumber seq) { (void)seq; }

  /// A request was executed (protocols clear per-request timers here).
  virtual void OnRequestExecuted(const ClientRequest& request,
                                 bool speculative) {
    (void)request;
    (void)speculative;
  }

  /// A SWITCH directive executed and the replica committed to quiesce at
  /// `cut_seq`. The base class already stops ordering past the cut
  /// (HighWatermark clamps there) and stops executing beyond it;
  /// protocols may additionally park batch timers or drain speculation.
  virtual void OnSwitchScheduled(SequenceNumber cut_seq) { (void)cut_seq; }

  /// A transactional request (KvTxn payload) was executed with the given
  /// outcome. Protocols with a conflict path (Zyzzyva's speculative
  /// aborts) hook their own accounting here.
  virtual void OnTxnExecuted(const ClientRequest& request, bool committed,
                             bool speculative) {
    (void)request;
    (void)committed;
    (void)speculative;
  }

  /// Later batches are buffered because the batch at `missing_seq` never
  /// arrived (e.g. lost pre-GST). Protocols with a fill-hole/
  /// retransmission subprotocol trigger it here.
  virtual void OnExecutionGap(SequenceNumber missing_seq) {
    (void)missing_seq;
  }

  /// A client retransmitted a request this replica already executed (the
  /// cached reply was re-sent). Leaders re-disseminate the ordering here
  /// so replicas that lost it can catch up (Zyzzyva's retransmit rule).
  virtual void OnDuplicateRequest(const ClientRequest& request) {
    (void)request;
  }

  /// Folds protocol-specific ordering state (votes, per-instance flags,
  /// pacemaker position) into StateFingerprint(). The default covers no
  /// subclass state; protocols override to tighten duplicate-state
  /// pruning soundness in the explorer.
  virtual uint64_t ProtocolStateFingerprint() const { return 0; }

  // --- Execution pipeline ---------------------------------------------------

  /// Hands the ordered batch at `seq` to the execution stage. Batches
  /// execute in contiguous sequence order; out-of-order deliveries are
  /// buffered. Non-speculative deliveries finalize automatically.
  void Deliver(SequenceNumber seq, Batch batch, bool speculative = false);

  /// Marks all executions up to `seq` as final: records their digests,
  /// trims undo history, and takes due checkpoints.
  void FinalizeUpTo(SequenceNumber seq);

  /// Undoes all speculative executions with sequence number > `seq` and
  /// returns their requests to the pool. Fails if any were finalized.
  Status RollbackTo(SequenceNumber seq);

  /// True when execution is contiguous up to and including `seq`.
  bool ExecutedUpTo(SequenceNumber seq) const { return last_executed_ >= seq; }

  /// Digest of the batch executed at `seq` (finalized or speculative).
  Result<Digest> ExecutedDigestAt(SequenceNumber seq) const;

  // --- Requests / replies ----------------------------------------------------

  /// Verifies, deduplicates, and pools a request. Returns false for
  /// duplicates/stale/invalid requests (re-replying if already executed).
  bool AdmitRequest(NodeId from, const ClientRequest& request);

  /// Removes and returns up to batch_size pooled requests (leader side).
  Batch TakeBatch();
  /// Returns the oldest pooled request without removing it.
  const ClientRequest* PeekOldest() const;
  bool HasPending() const { return !pool_order_.empty(); }
  /// Removes a specific request from the pool (e.g. learnt via proposal).
  void RemoveFromPool(const Digest& request_digest);
  /// Re-inserts a request at the BACK of the pool (Byzantine reordering
  /// leaders use this to systematically delay old requests).
  void RepoolBack(const ClientRequest& request);
  /// True if the request is still pooled.
  bool InPool(const Digest& request_digest) const {
    return pool_.count(request_digest) > 0;
  }
  /// Pooled request body by digest; nullptr when absent.
  const ClientRequest* FindPooled(const Digest& request_digest) const {
    auto it = pool_.find(request_digest);
    return it == pool_.end() ? nullptr : &it->second;
  }

  /// Sends a (possibly speculative) reply to the request's client.
  void SendReply(const ClientRequest& request, const Buffer& result,
                 bool speculative, SequenceNumber seq = 0);

  /// Re-sends the cached (latest) reply for `client`, marked committed.
  /// Used by speculative protocols when a commit certificate arrives.
  void ResendCachedReply(ClientId client, SequenceNumber seq);

  // --- Misc helpers -----------------------------------------------------------

  uint32_t n() const { return config_.n; }
  uint32_t f() const { return config_.f; }
  /// Classic quorums.
  uint32_t Quorum2f1() const { return 2 * config_.f + 1; }
  uint32_t QuorumF1() const { return config_.f + 1; }
  /// Byzantine agreement quorum ⌈(n+f+1)/2⌉: equals 2f+1 at n = 3f+1 but
  /// scales correctly for larger n (e.g. 3f+1 at Themis's n = 4f+1).
  /// Virtual because the trusted-component family (n = 2f+1) agrees —
  /// including on checkpoints — with f+1 matching announcements.
  virtual uint32_t AgreementQuorum() const {
    return (config_.n + config_.f + 2) / 2;
  }

  /// Adjusts the view-change timeout (Prime adapts it to measured
  /// turnaround so a delaying leader is replaced quickly).
  void set_view_change_timeout(SimTime timeout_us) {
    config_.view_change_timeout_us = timeout_us;
  }

  /// Doubles a view-change/pacemaker back-off, saturating at
  /// view_change_timeout_cap_us so repeated pre-GST failures can never
  /// defer the next attempt past the post-GST recovery window.
  SimTime NextViewChangeBackoff(SimTime current_us) const;

  std::vector<NodeId> AllReplicas() const;
  std::vector<NodeId> OtherReplicas() const;

  /// Accounted auth overhead of one protocol message under config.auth.
  size_t AuthBytes() const;
  /// Charges signing/MAC cost for authenticating one outgoing multicast.
  void ChargeAuthSend(size_t num_receivers, size_t body_bytes);
  /// Charges verification cost for one incoming message.
  void ChargeAuthVerify(size_t body_bytes);

  bool IsByzantine() const {
    return config_.byzantine.mode != ByzantineMode::kNone;
  }
  ByzantineMode byzantine_mode() const { return config_.byzantine.mode; }
  const ByzantineSpec& byzantine_spec() const { return config_.byzantine; }

  /// Low/high watermarks (P4): proposals allowed in (low, low+window].
  /// A pending switch clamps the high watermark to the cut: nothing may
  /// be ordered in the old epoch past the agreed handoff boundary.
  SequenceNumber LowWatermark() const { return checkpoint_store_.stable_seq(); }
  SequenceNumber HighWatermark() const {
    SequenceNumber hw = LowWatermark() + config_.watermark_window;
    if (switch_pending_ && switch_cut_seq_ < hw) hw = switch_cut_seq_;
    return hw;
  }

  /// Timer tags below this value are reserved for the base class.
  static constexpr uint64_t kProtocolTimerBase = 100;

  StateMachine* mutable_state_machine() { return state_machine_.get(); }

  /// When set, SendReply is a no-op (CheapBFT passive replicas apply
  /// updates without answering clients).
  void set_suppress_replies(bool suppress) { suppress_replies_ = suppress; }

 private:
  struct ExecutedBatch {
    SequenceNumber seq = 0;
    Digest digest;
    uint32_t op_count = 0;
    bool speculative = false;
    std::vector<ClientRequest> requests;
    // Reply-cache undo: (client, had_prev, prev_ts, prev_result).
    std::vector<std::tuple<ClientId, bool, RequestTimestamp, Buffer>>
        reply_undo;
  };
  struct CachedReply {
    RequestTimestamp timestamp = 0;
    Buffer result;
    bool speculative = false;
  };
  // A checkpoint payload taken apart: the bytes around the application
  // snapshot, which the checkpoint digest covers verbatim, and the reply
  // cache and switch state they encode.
  struct DecodedPayload {
    Buffer head;
    Buffer snapshot;
    Buffer tail;
    std::map<ClientId, CachedReply> reply_cache;
    uint64_t switch_epoch = 0;
    std::string switch_target;
    SequenceNumber switch_sched_seq = 0;
    SequenceNumber switch_cut_seq = 0;
  };

  void HandleClientRequest(NodeId from, const RequestMessage& msg);
  void HandleCheckpoint(NodeId from, const CheckpointMessage& msg);
  void HandleStateRequest(NodeId from, const StateRequestMessage& msg);
  void HandleStateResponse(NodeId from, const StateResponseMessage& msg);
  /// A checkpoint payload is the reply cache (the head), the
  /// state-machine snapshot, then the pending-switch state as of the
  /// checkpoint's seq (the tail). Its digest covers head, the state
  /// machine's commitment and tail, so a state transfer restores
  /// duplicate suppression along with application state.
  Buffer EncodeReplyCache() const;
  Buffer EncodeSwitchState(SequenceNumber seq) const;
  static Digest CheckpointDigest(Slice head, const Digest& commitment,
                                 Slice tail);
  Result<Buffer> BuildCheckpointPayload(const Checkpoint& checkpoint) const;
  /// Holds the payload of every retained checkpoint that captured
  /// `version` or later, before a rollback or restore discards the undo
  /// history it is rebuilt from.
  void HoldPayloadsFrom(uint64_t version);
  /// Decodes `payload` and recomputes its checkpoint digest; fails unless
  /// it equals `digest`. Changes nothing.
  Result<DecodedPayload> VerifyCheckpointPayload(const Buffer& payload,
                                                 const Digest& digest) const;
  Status RestoreCheckpointPayload(DecodedPayload payload);
  /// Executes buffered batches while they are contiguous (and, during a
  /// pending switch, at or below the cut).
  void DrainExecutions();
  void ExecuteBatch(SequenceNumber seq, Batch batch, bool speculative);
  void MaybeTakeCheckpoint(SequenceNumber seq);
  /// Adopts an executed SWITCH directive: derives the cut and quiesces.
  void ScheduleSwitch(uint64_t target_epoch, const std::string& target,
                      SequenceNumber sched_seq);

  ReplicaConfig config_;
  std::unique_ptr<StateMachine> state_machine_;
  CheckpointStore checkpoint_store_;

  // Request pool (arrival order + digest index).
  std::deque<Digest> pool_order_;
  std::map<Digest, ClientRequest> pool_;

  // Reply cache: latest executed timestamp + result per client.
  std::map<ClientId, CachedReply> reply_cache_;

  // Execution pipeline.
  std::map<SequenceNumber, std::pair<Batch, bool>> pending_executions_;
  SequenceNumber last_executed_ = 0;
  SequenceNumber finalized_ = 0;
  std::deque<ExecutedBatch> exec_history_;  // Not-yet-finalized suffix.
  std::map<SequenceNumber, Digest> finalized_digests_;

  // Checkpoint agreement: (seq, digest) -> distinct announcers.
  QuorumTracker<std::pair<SequenceNumber, Digest>> checkpoint_votes_;
  // State transfer in flight (target seq) to avoid duplicate requests.
  SequenceNumber state_transfer_target_ = 0;
  std::map<SequenceNumber, Digest> agreed_checkpoint_digest_;

  uint64_t rollbacks_ = 0;
  bool suppress_replies_ = false;

  // Pending-switch state (set when a SWITCH directive executes).
  bool switch_pending_ = false;
  uint64_t switch_target_epoch_ = 0;
  std::string switch_target_;
  SequenceNumber switch_sched_seq_ = 0;  // Where the directive executed.
  SequenceNumber switch_cut_seq_ = 0;    // Agreed handoff boundary.
};

}  // namespace bftlab

#endif  // BFTLAB_PROTOCOLS_COMMON_REPLICA_H_
