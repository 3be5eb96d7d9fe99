// In-memory versioned key-value state machine with an undo log, the
// application substrate for all protocol experiments (see DESIGN.md §2).

#ifndef BFTLAB_SMR_KV_STATE_MACHINE_H_
#define BFTLAB_SMR_KV_STATE_MACHINE_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "smr/kv_op.h"
#include "smr/kv_txn.h"
#include "smr/shard_op.h"
#include "smr/state_machine.h"

namespace bftlab {

/// StateMachine over an ordered string->string map.
///
/// Maintains a rolling order-sensitive digest
///   d_{i+1} = SHA256(d_i || op_i)
/// and an undo log so speculative executions can be rolled back.
///
/// StateCommitment() rests on an AdHash: the sum mod 2^256 of SHA-256
/// over one record per key (its value and its last writer) and one per
/// shard outcome. Each apply adds and removes the records of the keys its
/// undo entry lists, so a checkpoint costs O(keys changed), not O(state)
/// (DESIGN.md §14).
///
/// Payloads are either single KvOps or KvTxn transactions (DESIGN.md
/// §10). A transaction executes all-or-nothing: sub-ops observe earlier
/// writes of the same transaction, and a write-write conflict with
/// another client's recent transaction aborts the whole payload. An
/// aborted transaction still advances the version/digest chain (the
/// abort decision is part of replicated state) but changes no data.
class KvStateMachine : public StateMachine {
 public:
  KvStateMachine() = default;

  Result<Buffer> Apply(Slice operation) override;
  bool IsReadOnly(Slice operation) const override;
  Result<Buffer> ExecuteReadOnly(Slice operation) const override;
  uint64_t version() const override { return version_; }
  Digest StateDigest() const override { return digest_; }
  Buffer Snapshot() const override;
  Result<Buffer> SnapshotAt(uint64_t version) const override;
  Digest StateCommitment() const override;
  Result<Digest> SnapshotCommitment(Slice snapshot) const override;
  Status Restore(Slice snapshot) override;
  Status Rollback(uint64_t count) override;
  void TrimUndoHistory(uint64_t version) override;

  /// Direct read access (tests/examples).
  std::optional<std::string> Get(const std::string& key) const;
  size_t Size() const { return data_.size(); }

  /// Order-INsensitive digest over the current contents (sorted pairs).
  /// Commutative workloads (Q/U) converge on this even though replicas
  /// applied operations in different orders.
  Digest ContentDigest() const;

  /// A transaction whose write set overlaps a key written by a
  /// *different* client within the last `versions` applies aborts.
  void set_conflict_window(uint64_t versions) { conflict_window_ = versions; }
  uint64_t conflict_window() const { return conflict_window_; }

  /// Transactions committed/aborted by this state machine instance.
  uint64_t txn_commits() const { return txn_commits_; }
  uint64_t txn_aborts() const { return txn_aborts_; }

  // --- Sharded transaction state (DESIGN.md §13) ------------------------
  //
  // Shard-op payloads (smr/shard_op.h) execute through the same ordered
  // Apply path: stamped fast-path sub-txns run exactly at their slot
  // (`next_stamp_`), 2PC prepares lock keys and vote, decisions apply or
  // discard buffered writes against a vote certificate. All of it is
  // replicated state: snapshotted, restored and rolled back like data_.

  /// Final per-transaction outcome on this shard. `vote_commit`/`token`
  /// preserve this shard's own 2PC vote so a recovery coordinator can
  /// reassemble a certificate after the decision already landed here.
  struct ShardOutcome {
    ShardTxnOutcome kind = ShardTxnOutcome::kAborted;
    bool vote_commit = false;
    uint64_t token = 0;
  };

  /// Next fast-path slot this shard will execute.
  uint64_t next_stamp() const { return next_stamp_; }
  /// Undecided prepared (commit-voted) transactions holding locks.
  size_t prepared_count() const { return prepared_.size(); }
  bool IsPrepared(const ShardTxnId& txn) const {
    return prepared_.count(txn) > 0;
  }
  /// Decided transaction outcomes. Deliberately untrimmed: bounded lab
  /// runs only, and the cross-shard atomicity oracle reads it post-run.
  const std::map<ShardTxnId, ShardOutcome>& shard_outcomes() const {
    return outcomes_;
  }

  /// Retained stamped-slot results (idempotent stamped retries).
  static constexpr uint64_t kStampResultWindow = 128;

 private:
  // Sum mod 2^256 of SHA-256 digests read as little-endian integers: an
  // order-independent multiset hash that takes records in and out.
  struct RecordSum {
    uint64_t limbs[4] = {0, 0, 0, 0};
    void Add(const Digest& record);
    void Remove(const Digest& record);
  };

  struct LastWrite {
    ClientId client = 0;
    uint64_t version = 0;  // version_ after the writing txn applied.
  };

  // Per-key undo record. `touched_writer` is set for transactional
  // writes, which also maintain the last-writer conflict map.
  struct KeyUndo {
    std::string key;
    bool existed = false;
    std::string old_value;
    bool touched_writer = false;
    bool had_writer = false;
    LastWrite old_writer;
  };

  // A 2PC transaction that commit-voted here and awaits its decision.
  // Writes are buffered pre-transformed (ADD becomes a literal PUT of
  // the value computed at prepare time) so the decision applies them
  // deterministically; write_keys and read_keys together are the lock
  // set: the vote's reads stay valid only if nothing writes them before
  // the decision, so writes into read_keys must abort too (otherwise a
  // reciprocal read-write pair of prepares forms an anti-dependency
  // cycle that slot ordering cannot break — unstamped prepares skip
  // slot accounting entirely).
  struct PreparedTxn {
    ClientId owner = 0;
    uint64_t token = 0;           // This shard's commit-vote token.
    std::vector<KvOp> writes;     // Buffered effects, applied on commit.
    std::vector<std::string> write_keys;
    std::vector<std::string> read_keys;
    std::vector<uint32_t> participants;
    Buffer vote_result;           // Encoded KvTxnResult returned with the vote.
  };

  // Shard-state mutations of one Apply, for Rollback.
  struct ShardUndo {
    ShardTxnId txn;
    bool stamp_advanced = false;
    bool stamp_result_recorded = false;
    uint64_t stamp = 0;
    bool evicted = false;  // A stamp result left the retention window.
    uint64_t evicted_stamp = 0;
    Buffer evicted_result;
    bool prepared_inserted = false;
    bool prepared_erased = false;
    PreparedTxn erased_prepared;
    bool outcome_inserted = false;
  };

  // One entry per successful Apply (single op or whole transaction), the
  // unit Replica::RollbackTo counts in. Retained checkpoints keep entries
  // alive, so the rarely used shard part sits behind a pointer; it is
  // read-only once the apply finishes, so copies of the state machine
  // (SnapshotAt) share it.
  struct UndoEntry {
    uint64_t version = 0;  // Version after the apply.
    Digest old_digest;
    RecordSum old_sum;
    std::vector<KeyUndo> keys;
    std::shared_ptr<ShardUndo> shard;
  };

  // Ends every successful apply: folds the records of the keys and the
  // outcome `entry` lists into record_sum_, advances the version and the
  // chain, and logs `entry` for Rollback.
  void FinishApply(Slice operation, UndoEntry entry);
  // AdHash records. `value`/`writer` are null when absent.
  static Digest KeyRecord(const std::string& key, const std::string* value,
                          const LastWrite* writer);
  static Digest OutcomeRecord(const ShardTxnId& txn,
                              const ShardOutcome& outcome);
  // record_sum_ from scratch, over the current state (Restore).
  void RecomputeRecordSum();
  // The slot counter, retained stamped results and prepared txns, in
  // snapshot encoding: the bounded shard state hashed whole.
  void EncodeShardWindow(Encoder* enc) const;

  Result<Buffer> ApplyTxn(Slice operation, const KvTxn& txn);
  // Applies one sub-op against data_, recording a first-touch KeyUndo in
  // `entry` for writes. Returns the sub-op result string.
  std::string ApplySubOp(const KvOp& op, UndoEntry* entry);
  void RecordKeyUndo(const KvOp& op, UndoEntry* entry);

  // Shard-op execution (smr/shard_op.h). Each fills `entry` and returns
  // the deterministic result; ApplyShardOp advances the chain.
  Result<Buffer> ApplyShardOp(Slice operation, const ShardOp& op);
  ShardOpResult ExecuteStamped(const ShardOp& op, UndoEntry* entry);
  ShardOpResult ExecutePrepare(const ShardOp& op, UndoEntry* entry);
  ShardOpResult ExecuteDecision(const ShardOp& op, UndoEntry* entry);
  ShardOpResult ExecuteResolve(const ShardOp& op, UndoEntry* entry,
                               bool force_abort);
  ShardOpResult DecidedResult(const ShardOutcome& outcome) const;
  // First write key of `txn` conflicting with another client's recent
  // committed write (nullptr when none).
  const std::string* FindWwConflict(const KvTxn& txn) const;
  // Conflict reason if `txn` (belonging to `self`, skipped) touches an
  // undecided prepared txn's lock sets: any access vs write locks, and
  // writes additionally vs read locks. Empty when none.
  std::string FindPreparedLockConflict(const ShardTxnId& self,
                                       const KvTxn& txn) const;
  // Stamps `entry`'s write keys with `owner` in last_writes_.
  void StampLastWrites(ClientId owner, UndoEntry* entry);
  void RecordStampResult(uint64_t stamp, const Buffer& result,
                         UndoEntry* entry);

  std::map<std::string, std::string> data_;
  uint64_t version_ = 0;
  Digest digest_;  // Zero digest at version 0.
  std::deque<UndoEntry> undo_log_;
  // AdHash over the key records (data_ and last_writes_) and the outcome
  // records (outcomes_); StateCommitment() hashes it with the rest.
  RecordSum record_sum_;

  // key -> last transactional writer; part of replicated state (it feeds
  // the deterministic abort decision) so it is snapshotted/restored and
  // rolled back alongside data_.
  std::map<std::string, LastWrite> last_writes_;
  uint64_t conflict_window_ = 8;
  uint64_t txn_commits_ = 0;
  uint64_t txn_aborts_ = 0;

  // Sharded transaction state — all replicated (snapshot/restore/undo).
  uint64_t next_stamp_ = 1;
  std::map<uint64_t, Buffer> stamp_results_;
  std::map<ShardTxnId, PreparedTxn> prepared_;
  std::map<ShardTxnId, ShardOutcome> outcomes_;
};

}  // namespace bftlab

#endif  // BFTLAB_SMR_KV_STATE_MACHINE_H_
