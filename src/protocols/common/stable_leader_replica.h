// The stable-leader engine shared by PBFT (and its derivatives Themis and
// Prime) and MinBFT (DESIGN.md §15): design choice P3 — one leader per
// view, replaced by a view change when it stops making progress.
//
// The engine owns what the two families share: view and next-sequence
// state; the per-sequence slot map and the committed log, with their GC;
// leader batching and the Byzantine proposal scripts (delay, reorder,
// censor, equivocate); the τ2 request watch that suspects the leader and
// the leader's progress retransmission; view evidence, the view-change
// join rules, NEW-VIEW assembly and its replay to late joiners; and the
// bookkeeping of entering a view. A protocol supplies its ordering phases
// and, through the hooks below, only what differs: how a proposal is
// authenticated and sent, how view-change messages are built and
// verified, and what a replica does with each re-proposal of a new view.

#ifndef BFTLAB_PROTOCOLS_COMMON_STABLE_LEADER_REPLICA_H_
#define BFTLAB_PROTOCOLS_COMMON_STABLE_LEADER_REPLICA_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "crypto/trusted.h"
#include "protocols/common/quorum.h"
#include "protocols/common/replica.h"
#include "protocols/common/stable_leader_messages.h"

namespace bftlab {

class StableLeaderReplica : public Replica {
 public:
  ViewNumber view() const override { return view_; }
  ReplicaId leader() const override { return LeaderOf(view_); }
  ReplicaId LeaderOf(ViewNumber v) const {
    return static_cast<ReplicaId>(v % n());
  }

  /// True while the replica is between views (sent view-change, waiting
  /// for new-view).
  bool view_changing() const { return view_changing_; }
  uint64_t view_changes_completed() const { return view_changes_completed_; }

  void OnTimer(uint64_t tag) override;
  void OnRestart() override;
  size_t VoteStateSize() const override;

 protected:
  /// `family` prefixes the engine's counters ("pbft" for PBFT, Themis
  /// and Prime alike).
  StableLeaderReplica(ReplicaConfig config,
                      std::unique_ptr<StateMachine> state_machine,
                      std::string family);

  void OnClientRequest(NodeId from, const ClientRequest& request) override;
  void OnCheckpointStable(SequenceNumber seq) override;
  void OnRequestExecuted(const ClientRequest& request,
                         bool speculative) override;
  void OnStateTransferComplete(SequenceNumber seq) override;

  // Timer tags.
  static constexpr uint64_t kViewChangeTimer = kProtocolTimerBase + 0;
  static constexpr uint64_t kBatchTimer = kProtocolTimerBase + 1;
  static constexpr uint64_t kDelayedProposeTimer = kProtocolTimerBase + 2;
  /// Leader liveness: while an accepted proposal sits unexecuted, the
  /// leader periodically re-sends it (agreement messages lost pre-GST are
  /// never re-sent otherwise).
  static constexpr uint64_t kProgressTimer = kProtocolTimerBase + 3;

  /// Per-sequence agreement state within the current view. Votes are
  /// bucketed by digest so votes arriving before the proposal are kept.
  struct Slot {
    bool has_proposal = false;
    Batch batch;
    Digest digest;
    /// The slot holds a certificate a view change must carry: 2f+1
    /// matching prepares in PBFT, the accepted prepare in MinBFT.
    bool prepared = false;
    bool committed = false;
    std::map<Digest, VoterSet> prepare_votes;  // PBFT's prepare phase.
    bool prepare_sent = false;                 // PBFT's prepare phase.
    std::map<Digest, VoterSet> commit_votes;
    bool commit_sent = false;
    /// MinBFT: the leader's prepare identifier; retransmissions reuse it.
    UniqueIdentifier proposal_ui;
  };

  // --- Hooks ------------------------------------------------------------

  /// Picks the next batch to propose (default: FIFO pool order). An empty
  /// batch defers the proposal.
  virtual Batch SelectBatch() { return TakeBatch(); }
  /// Leader: fills the slot for `seq` and sends its proposal.
  virtual void SendProposal(SequenceNumber seq, Batch batch) = 0;
  /// The proposal message for `batch` at `seq`, authenticated but not
  /// recorded (the equivocation script sends two of them).
  virtual MessagePtr MakeProposal(SequenceNumber seq, Batch batch) = 0;
  /// Leader: re-sends the stored proposal of a stalled slot.
  virtual void RetransmitProposal(SequenceNumber seq, const Slot& slot) = 0;
  virtual std::shared_ptr<const ViewChangeBase> MakeViewChange(
      ViewNumber new_view, std::vector<PreparedProof> proofs) = 0;
  /// Authenticates a VIEW-CHANGE beyond its channel; false drops it.
  virtual bool VerifyViewChange(const ViewChangeBase& vc) {
    (void)vc;
    return true;
  }
  /// The NEW-VIEW for `new_view`; `base_seq` is the highest stable
  /// checkpoint among the view changes it is built from.
  virtual std::shared_ptr<const NewViewBase> MakeNewView(
      ViewNumber new_view, SequenceNumber base_seq,
      std::vector<Proposal> proposals, size_t proof_bytes) = 0;
  /// Authenticates a NEW-VIEW from the new view's leader; false drops it.
  virtual bool VerifyNewView(NodeId from, const NewViewBase& nv) {
    (void)from;
    (void)nv;
    return true;
  }
  /// Castro's complementary join rule: how many distinct other replicas
  /// must announce views above ours before this replica adopts the
  /// smallest of them.
  virtual size_t ComplementaryJoinQuorum() const { return QuorumF1(); }
  /// Whether that rule, met while this replica already chases a higher
  /// view, re-announces the smallest view to its leader.
  virtual bool ReannounceOnComplementaryJoin() const { return false; }
  /// Entering the view of `nv`, before its re-proposals are adopted.
  /// Returns the sequence number the view's proposals start above.
  virtual SequenceNumber BeginView(const NewViewBase& nv) {
    (void)nv;
    return LowWatermark();
  }
  /// Entering a view: the replica's step for re-proposal `p`. `slot` is
  /// the slot the engine filled for it, or null when the replica already
  /// executed `p.seq`.
  virtual void Reprepare(const Proposal& p, Slot* slot) = 0;

  // --- Engine operations --------------------------------------------------

  /// Leader: proposes pooled requests while the window allows.
  void ProposeAvailable();
  /// Records a committed slot in the log view changes carry and hands its
  /// batch to execution.
  void Commit(SequenceNumber seq, const Slot& slot);
  /// Records an authenticated agreement message from `sender` claiming
  /// view `w`; once f+1 distinct replicas demonstrably operate above our
  /// view, rejoin them (we may have missed the NEW-VIEW while down).
  void NoteViewEvidence(ReplicaId sender, ViewNumber w);
  void HandleViewChange(std::shared_ptr<const ViewChangeBase> vc);
  void HandleNewView(NodeId from, const NewViewBase& nv);
  /// (Re)arms the view-change timer if unexecuted requests exist.
  void ArmViewChangeTimerIfNeeded();

  Slot& slot(SequenceNumber seq) { return slots_[seq]; }

  /// Fingerprint parts: the view state, then (after the protocol folded
  /// its slots) the committed log and view-change progress.
  uint64_t FingerprintViewState() const;
  uint64_t FingerprintViewChanges(uint64_t h) const;

  ViewNumber view_ = 0;
  SequenceNumber next_seq_ = 1;  // Leader: next sequence to assign.
  std::map<SequenceNumber, Slot> slots_;
  SimTime current_vc_timeout_us_ = 0;

 private:
  void ProposeBatch(Batch batch);
  /// kEquivocate: conflicting proposals to the two halves of the backups.
  void Equivocate(SequenceNumber seq, Batch batch);
  /// Enters the view-change protocol targeting `new_view`.
  void StartViewChange(ViewNumber new_view);
  /// This replica's VIEW-CHANGE (committed + prepared proofs) for
  /// `new_view`, without altering view-change state.
  std::shared_ptr<const ViewChangeBase> BuildViewChange(ViewNumber new_view);
  /// Sends our VIEW-CHANGE for `v` to its leader only, so it replays the
  /// NEW-VIEW we missed.
  void Reannounce(ViewNumber v);
  /// New leader: assembles and broadcasts NEW-VIEW once a quorum of VCs
  /// arrived.
  void MaybeAssembleNewView(ViewNumber new_view);
  /// Installs the view of `nv` with its re-proposals.
  void EnterNewView(const NewViewBase& nv);
  void DisarmViewChangeTimer();
  /// Leader: (re)arms the proposal retransmission watch.
  void ArmProgressTimerIfNeeded();
  /// Oldest unexecuted current-view proposal (0 = none).
  SequenceNumber OldestUnexecutedSlot() const;
  void Count(const char* event);

  const std::string family_;

  /// Committed batches above the stable checkpoint. Carried in
  /// view-change messages so that a replica that committed a sequence
  /// number keeps asserting it across ANY number of subsequent view
  /// changes (slots_ alone is insufficient: it is reset when a new view
  /// is installed, and a commit is only covered by checkpoints once the
  /// next checkpoint stabilizes).
  std::map<SequenceNumber, std::pair<Digest, Batch>> committed_log_;
  /// Proof view used for committed entries: outranks any prepared proof.
  static constexpr ViewNumber kCommittedProofView =
      ~static_cast<ViewNumber>(0);

  bool view_changing_ = false;
  ViewNumber target_view_ = 0;
  // (new_view) -> per-replica view-change messages.
  std::map<ViewNumber,
           std::map<ReplicaId, std::shared_ptr<const ViewChangeBase>>>
      view_changes_;
  EventId view_change_timer_ = kInvalidEvent;
  uint64_t view_changes_completed_ = 0;

  EventId batch_timer_ = kInvalidEvent;
  bool delayed_propose_pending_ = false;
  /// Digest of the pooled request the view-change timer watches.
  Digest vc_watch_;

  EventId progress_timer_ = kInvalidEvent;
  /// Replicas seen sending agreement messages in each view above ours.
  std::map<ViewNumber, VoterSet> view_evidence_;
  /// Highest view we already re-announced via the evidence rule.
  ViewNumber asked_view_ = 0;
  /// The NEW-VIEW this replica assembled as leader of view_; replayed to
  /// replicas whose view changes show they missed it.
  std::shared_ptr<const NewViewBase> last_new_view_;
};

}  // namespace bftlab

#endif  // BFTLAB_PROTOCOLS_COMMON_STABLE_LEADER_REPLICA_H_
