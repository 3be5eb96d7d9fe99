// MinBFT replica (Veronese et al., "Efficient Byzantine Fault-Tolerance",
// IEEE TC'13): the trusted-component protocol family. A tamper-resistant
// monotonic counter (crypto/trusted.h) certifies every protocol message,
// which removes the ability to equivocate and shrinks the replica group
// from 3f+1 to n = 2f+1 with f+1 agreement quorums and one fewer ordering
// phase than PBFT. Design-space point: pessimistic commitment (P1), 2
// phases (P2), stable leader with UI-certified view change (P3),
// decentralized checkpointing (P4), MACs + trusted counter (E3/E6).
//
// Equivocation containment is the affine seq<->counter binding: in each
// view, anchored by the NEW-VIEW's UI at (base_seq, base_counter), the
// prepare for sequence s is valid only with counter base_counter +
// (s - base_seq) in the base epoch. The leader's USIG can certify each
// counter value once, so it can certify at most one batch per sequence
// number; a backup accepts the unique affine-consistent prepare and its
// commit vote completes an f+1 quorum (the prepare doubles as the
// leader's vote).
//
// Receiver-side replay protection tolerates network reordering with a
// bounded hole window per sender: counters above the high watermark are
// accepted (skipped values recorded as holes), counters found in the hole
// set fill the hole, anything older is indistinguishable from a rollback
// replay and is dropped. The window cap is therefore the defense the
// rollback-attack battery (tests/trusted_test.cc) stresses.
//
// Honest caveat (DESIGN.md §15): the 2f+1 bound holds only while the
// trusted counters do. A COMPROMISED counter (ForceRollback / Fork on the
// leader at f=1) genuinely re-enables equivocation — the famous
// "vivisection" result for this family. The Byzantine matrix exercises
// the contained variants (rollback outside the hole window, forked
// backup votes); tests/trusted_test.cc additionally shows the seeded
// rollback attack breaking agreement once UI verification is disabled.

#ifndef BFTLAB_PROTOCOLS_MINBFT_MINBFT_REPLICA_H_
#define BFTLAB_PROTOCOLS_MINBFT_MINBFT_REPLICA_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "crypto/trusted.h"
#include "protocols/common/stable_leader_replica.h"
#include "protocols/minbft/minbft_messages.h"

namespace bftlab {

class MinBftReplica : public StableLeaderReplica {
 public:
  MinBftReplica(ReplicaConfig config,
                std::unique_ptr<StateMachine> state_machine);

  std::string name() const override { return "minbft"; }

  TrustedCounter* trusted_counter() override {
    return usig_ ? &*usig_ : nullptr;
  }

  void Start() override;
  void OnTimer(uint64_t tag) override;
  void OnRestart() override;
  size_t VoteStateSize() const override;

 protected:
  void OnProtocolMessage(NodeId from, const MessagePtr& msg) override;
  uint64_t ProtocolStateFingerprint() const override;

  /// With non-equivocating replicas, f+1 matching statements always
  /// include one from a correct replica; checkpoints and state transfer
  /// stabilize at f+1 as well (n = 2f+1 could never reach the untrusted
  /// default of (n+f+2)/2 = n with one crash).
  uint32_t AgreementQuorum() const override { return QuorumF1(); }

  void SendProposal(SequenceNumber seq, Batch batch) override;
  MessagePtr MakeProposal(SequenceNumber seq, Batch batch) override;
  void RetransmitProposal(SequenceNumber seq, const Slot& slot) override;
  std::shared_ptr<const ViewChangeBase> MakeViewChange(
      ViewNumber new_view, std::vector<PreparedProof> proofs) override;
  bool VerifyViewChange(const ViewChangeBase& vc) override;
  std::shared_ptr<const NewViewBase> MakeNewView(
      ViewNumber new_view, SequenceNumber base_seq,
      std::vector<Proposal> proposals, size_t proof_bytes) override;
  bool VerifyNewView(NodeId from, const NewViewBase& nv) override;
  size_t ComplementaryJoinQuorum() const override;
  bool ReannounceOnComplementaryJoin() const override { return true; }
  SequenceNumber BeginView(const NewViewBase& nv) override;
  void Reprepare(const Proposal& p, Slot* slot) override;

  /// Trusted-counter compromise trigger (kCounterRollback/kCounterFork).
  static constexpr uint64_t kCounterFaultTimer = kProtocolTimerBase + 4;

  /// Out-of-order acceptance window per sender: identifiers more than this
  /// many counter values behind the sender's newest are rejected as
  /// replays even if never seen before.
  static constexpr size_t kMaxUiHoles = 64;

  /// kCounterRollback: every kWithholdStride-th prepare is withheld from
  /// the victim. Wider than the hole window, so by the time the fault
  /// timer fires EVERY stolen identifier sits outside the victim's
  /// freshness window and the descending replay chain (each rollback can
  /// only move the counter down) reaches all of them — the victim faces
  /// the full attack, not a truncated prefix.
  static constexpr uint64_t kWithholdStride = kMaxUiHoles + 16;

 private:
  /// Per-sender UI freshness state (see class comment).
  struct UiWatermark {
    uint64_t epoch = 0;
    uint64_t high = 0;
    std::set<uint64_t> holes;
  };

  /// Prepare withheld from the rollback victim, remembered so the attack
  /// can later re-certify an altered batch under the same identifier.
  struct WithheldPrepare {
    uint64_t counter = 0;
    Batch batch;
  };

  void HandlePrepare(NodeId from, const MinPrepareMessage& msg);
  void HandleCommit(NodeId from, const MinCommitMessage& msg);
  void CheckCommitted(SequenceNumber seq);
  void SendCommitVote(SequenceNumber seq, const Digest& digest);

  /// Freshness check + watermark update for a tag-valid UI. False means
  /// the identifier was already consumed or fell out of the hole window.
  bool AcceptUi(const UniqueIdentifier& ui);
  /// With UI verification on: `ui` must be `signer`'s valid certificate
  /// of `binding` and fresh (AcceptUi). Counts and drops failures.
  bool CheckUi(NodeId signer, const UniqueIdentifier& ui,
               const Digest& binding);
  UniqueIdentifier CertifyPrepare(SequenceNumber seq, const Digest& digest);

  /// kCounterRollback: replay withheld identifiers over altered batches.
  void ExecuteCounterRollback();

  /// This replica's trusted counter. Engaged in Start() (the KeyStore is
  /// only reachable once the crypto context is bound); like all replica
  /// state it survives crash/restart unless a fault schedule explicitly
  /// wipes (Reboot) or corrupts it.
  std::optional<TrustedCounter> usig_;

  // Affine base of the current view: the prepare for sequence s must
  // carry (base_epoch_, base_counter_ + (s - base_seq_)). View 0 is
  // anchored at the leader's first-ever identifier.
  uint64_t base_epoch_ = 1;
  uint64_t base_counter_ = 0;
  SequenceNumber base_seq_ = 0;

  std::map<ReplicaId, UiWatermark> ui_high_;

  // Trusted-counter compromise scripts.
  std::map<SequenceNumber, WithheldPrepare> withheld_;
  bool counter_fault_fired_ = false;
  std::optional<TrustedCounter> forked_;
};

/// Factory for Cluster.
std::unique_ptr<Replica> MakeMinBftReplica(const ReplicaConfig& config);

}  // namespace bftlab

#endif  // BFTLAB_PROTOCOLS_MINBFT_MINBFT_REPLICA_H_
