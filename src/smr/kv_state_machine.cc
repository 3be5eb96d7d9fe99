#include "smr/kv_state_machine.h"

#include "common/codec.h"
#include "crypto/sha256.h"

namespace bftlab {

Buffer KvOp::Encode() const {
  Encoder enc;
  EncodeTo(&enc);
  return enc.Take();
}

void KvOp::EncodeTo(Encoder* enc) const {
  enc->PutU8(static_cast<uint8_t>(code));
  enc->PutString(key);
  switch (code) {
    case KvOpCode::kPut:
      enc->PutString(value);
      break;
    case KvOpCode::kAdd:
      enc->PutU64(static_cast<uint64_t>(delta));
      break;
    default:
      break;
  }
}

Result<KvOp> KvOp::Decode(Slice payload) {
  Decoder dec(payload);
  Result<KvOp> op = DecodeFrom(&dec);
  if (!op.ok()) return op;
  if (!dec.Done()) return Status::Corruption("trailing bytes after kv op");
  return op;
}

Result<KvOp> KvOp::DecodeFrom(Decoder* dec) {
  KvOp op;
  uint8_t code;
  BFTLAB_ASSIGN_OR_RETURN(code, dec->GetU8());
  if (code < 1 || code > 4) return Status::Corruption("bad kv opcode");
  op.code = static_cast<KvOpCode>(code);
  BFTLAB_ASSIGN_OR_RETURN(op.key, dec->GetString());
  switch (op.code) {
    case KvOpCode::kPut: {
      BFTLAB_ASSIGN_OR_RETURN(op.value, dec->GetString());
      break;
    }
    case KvOpCode::kAdd: {
      uint64_t d;
      BFTLAB_ASSIGN_OR_RETURN(d, dec->GetU64());
      op.delta = static_cast<int64_t>(d);
      break;
    }
    default:
      break;
  }
  return op;
}

Buffer KvOp::Put(const std::string& key, const std::string& value) {
  KvOp op;
  op.code = KvOpCode::kPut;
  op.key = key;
  op.value = value;
  return op.Encode();
}

Buffer KvOp::Get(const std::string& key) {
  KvOp op;
  op.code = KvOpCode::kGet;
  op.key = key;
  return op.Encode();
}

Buffer KvOp::Delete(const std::string& key) {
  KvOp op;
  op.code = KvOpCode::kDelete;
  op.key = key;
  return op.Encode();
}

Buffer KvOp::Add(const std::string& key, int64_t delta) {
  KvOp op;
  op.code = KvOpCode::kAdd;
  op.key = key;
  op.delta = delta;
  return op.Encode();
}

void KvStateMachine::RecordKeyUndo(const KvOp& op, UndoEntry* entry) {
  for (const KeyUndo& u : entry->keys) {
    if (u.key == op.key) return;  // First touch already captured.
  }
  KeyUndo undo;
  undo.key = op.key;
  auto it = data_.find(op.key);
  undo.existed = it != data_.end();
  if (undo.existed) undo.old_value = it->second;
  entry->keys.push_back(std::move(undo));
}

std::string KvStateMachine::ApplySubOp(const KvOp& op, UndoEntry* entry) {
  if (op.IsWrite()) RecordKeyUndo(op, entry);
  auto it = data_.find(op.key);
  const bool exists = it != data_.end();
  switch (op.code) {
    case KvOpCode::kPut:
      data_[op.key] = op.value;
      return "OK";
    case KvOpCode::kGet:
      return exists ? it->second : "";
    case KvOpCode::kDelete:
      if (!exists) return "NOTFOUND";
      data_.erase(it);
      return "OK";
    case KvOpCode::kAdd: {
      int64_t current = 0;
      if (exists) current = std::strtoll(it->second.c_str(), nullptr, 10);
      current += op.delta;
      std::string next = std::to_string(current);
      data_[op.key] = next;
      return next;
    }
  }
  return "";
}

Result<Buffer> KvStateMachine::Apply(Slice operation) {
  if (ShardOp::IsShardOp(operation)) {
    Result<ShardOp> op = ShardOp::Decode(operation);
    if (!op.ok()) return op.status();
    return ApplyShardOp(operation, *op);
  }
  if (KvTxn::IsTxn(operation)) {
    Result<KvTxn> txn = KvTxn::Decode(operation);
    if (!txn.ok()) return txn.status();
    return ApplyTxn(operation, *txn);
  }

  Result<KvOp> decoded = KvOp::Decode(operation);
  if (!decoded.ok()) return decoded.status();

  UndoEntry entry;
  std::string s = ApplySubOp(*decoded, &entry);
  FinishApply(operation, std::move(entry));
  return Buffer(s.begin(), s.end());
}

namespace {

// Limb `i` of a digest read as a 256-bit little-endian integer.
uint64_t Limb(const Digest& d, int i) {
  uint64_t v = 0;
  for (int b = 7; b >= 0; --b) v = v << 8 | d.data()[8 * i + b];
  return v;
}

}  // namespace

void KvStateMachine::RecordSum::Add(const Digest& record) {
  uint64_t carry = 0;
  for (int i = 0; i < 4; ++i) {
    const uint64_t r = Limb(record, i);
    uint64_t sum = limbs[i] + r;
    const uint64_t overflow = sum < r;
    sum += carry;
    carry = overflow | (sum < carry);
    limbs[i] = sum;
  }
}

void KvStateMachine::RecordSum::Remove(const Digest& record) {
  uint64_t borrow = 0;
  for (int i = 0; i < 4; ++i) {
    const uint64_t r = Limb(record, i);
    const uint64_t diff = limbs[i] - r - borrow;
    borrow = limbs[i] < r || (limbs[i] == r && borrow != 0);
    limbs[i] = diff;
  }
}

Digest KvStateMachine::KeyRecord(const std::string& key,
                                 const std::string* value,
                                 const LastWrite* writer) {
  Buffer bytes;
  bytes.reserve(32 + key.size() + (value != nullptr ? value->size() : 0));
  Encoder enc(std::move(bytes));
  enc.PutU8('k');
  enc.PutString(key);
  enc.PutBool(value != nullptr);
  if (value != nullptr) enc.PutString(*value);
  enc.PutBool(writer != nullptr);
  if (writer != nullptr) {
    enc.PutU32(writer->client);
    enc.PutU64(writer->version);
  }
  return Sha256::Hash(enc.buffer());
}

Digest KvStateMachine::OutcomeRecord(const ShardTxnId& txn,
                                     const ShardOutcome& outcome) {
  Encoder enc;
  enc.PutU8('o');
  enc.PutU32(txn.owner);
  enc.PutU64(txn.seq);
  enc.PutU8(static_cast<uint8_t>(outcome.kind));
  enc.PutBool(outcome.vote_commit);
  enc.PutU64(outcome.token);
  return Sha256::Hash(enc.buffer());
}

void KvStateMachine::FinishApply(Slice operation, UndoEntry entry) {
  entry.old_digest = digest_;
  entry.old_sum = record_sum_;
  // Swap each touched key's record: the undo entry holds the old value
  // and (when this apply re-stamped it) the old writer; an untouched
  // writer is unchanged, so the current one stands for both.
  for (const KeyUndo& undo : entry.keys) {
    auto writer = last_writes_.find(undo.key);
    const LastWrite* new_writer =
        writer == last_writes_.end() ? nullptr : &writer->second;
    const LastWrite* old_writer = new_writer;
    if (undo.touched_writer) {
      old_writer = undo.had_writer ? &undo.old_writer : nullptr;
    }
    if (undo.existed || old_writer != nullptr) {
      record_sum_.Remove(KeyRecord(
          undo.key, undo.existed ? &undo.old_value : nullptr, old_writer));
    }
    auto value = data_.find(undo.key);
    const std::string* new_value =
        value == data_.end() ? nullptr : &value->second;
    if (new_value != nullptr || new_writer != nullptr) {
      record_sum_.Add(KeyRecord(undo.key, new_value, new_writer));
    }
  }
  if (entry.shard && entry.shard->outcome_inserted) {
    record_sum_.Add(
        OutcomeRecord(entry.shard->txn, outcomes_.at(entry.shard->txn)));
  }
  ++version_;
  digest_ = Sha256::Hash2(digest_.AsSlice(), operation);
  entry.version = version_;
  undo_log_.push_back(std::move(entry));
}

void KvStateMachine::RecomputeRecordSum() {
  record_sum_ = RecordSum();
  for (const auto& [key, value] : data_) {
    auto writer = last_writes_.find(key);
    record_sum_.Add(KeyRecord(
        key, &value, writer == last_writes_.end() ? nullptr : &writer->second));
  }
  for (const auto& [key, writer] : last_writes_) {
    if (data_.count(key) == 0) record_sum_.Add(KeyRecord(key, nullptr, &writer));
  }
  for (const auto& [txn, outcome] : outcomes_) {
    record_sum_.Add(OutcomeRecord(txn, outcome));
  }
}

const std::string* KvStateMachine::FindWwConflict(const KvTxn& txn) const {
  // Write-write conflict scan before touching any state: abort if another
  // client's transaction wrote any of our write keys within the window.
  for (const KvOp& op : txn.ops) {
    if (!op.IsWrite()) continue;
    auto it = last_writes_.find(op.key);
    if (it == last_writes_.end()) continue;
    const LastWrite& lw = it->second;
    if (lw.client != 0 && lw.client != txn.owner &&
        version_ - lw.version < conflict_window_) {
      return &op.key;
    }
  }
  return nullptr;
}

std::string KvStateMachine::FindPreparedLockConflict(const ShardTxnId& self,
                                                     const KvTxn& txn) const {
  for (const auto& [other_id, other] : prepared_) {
    if (other_id == self) continue;
    for (const KvOp& op : txn.ops) {
      for (const std::string& locked : other.write_keys) {
        if (op.key == locked) {
          return "lock conflict on " + locked + " held by " +
                 other_id.ToString();
        }
      }
      // Writing into an undecided prepared txn's read set would
      // invalidate the reads its commit vote was computed from: the
      // anti-dependency must abort here, not rely on slot ordering
      // (unstamped prepares and the censored fallback skip slots).
      if (!op.IsWrite()) continue;
      for (const std::string& locked : other.read_keys) {
        if (op.key == locked) {
          return "read-lock conflict on " + locked + " held by " +
                 other_id.ToString();
        }
      }
    }
  }
  return "";
}

void KvStateMachine::StampLastWrites(ClientId owner, UndoEntry* entry) {
  // entry->keys holds each distinct write key once (first touch); stamp
  // this txn as the last writer and remember what it displaced.
  for (KeyUndo& undo : entry->keys) {
    if (undo.touched_writer) continue;
    undo.touched_writer = true;
    auto it = last_writes_.find(undo.key);
    undo.had_writer = it != last_writes_.end();
    if (undo.had_writer) undo.old_writer = it->second;
    last_writes_[undo.key] = LastWrite{owner, version_ + 1};
  }
}

Result<Buffer> KvStateMachine::ApplyTxn(Slice operation, const KvTxn& txn) {
  UndoEntry entry;

  // Plain txns (the censored single-shard fallback) must respect 2PC
  // locks like everything else: a write slipping between a prepare and
  // its decision would invalidate the prepared txn's vote. prepared_ is
  // empty outside sharded runs, so the legacy path never pays this.
  std::string lock_conflict;
  if (!prepared_.empty()) {
    lock_conflict = FindPreparedLockConflict(ShardTxnId{}, txn);
  }
  const std::string* conflict_key =
      lock_conflict.empty() ? FindWwConflict(txn) : nullptr;
  KvTxnResult out;
  if (!lock_conflict.empty()) {
    out.committed = false;
    out.abort_reason = lock_conflict;
    ++txn_aborts_;
  } else if (conflict_key != nullptr) {
    out.committed = false;
    out.abort_reason = "ww-conflict on " + *conflict_key;
    ++txn_aborts_;
  } else {
    out.committed = true;
    out.results.reserve(txn.ops.size());
    for (const KvOp& op : txn.ops) {
      out.results.push_back(ApplySubOp(op, &entry));
    }
    StampLastWrites(txn.owner, &entry);
    ++txn_commits_;
  }

  // Aborts advance the chain too: the abort decision is replicated state
  // and every replica must agree on it.
  FinishApply(operation, std::move(entry));
  return out.Encode();
}

Result<Buffer> KvStateMachine::ApplyShardOp(Slice operation,
                                            const ShardOp& op) {
  UndoEntry entry;
  entry.shard = std::make_shared<ShardUndo>();
  entry.shard->txn = op.txn;

  ShardOpResult res;
  switch (op.type) {
    case ShardOpType::kStamped:
      res = ExecuteStamped(op, &entry);
      break;
    case ShardOpType::kPrepare:
      res = ExecutePrepare(op, &entry);
      break;
    case ShardOpType::kDecision:
      res = ExecuteDecision(op, &entry);
      break;
    case ShardOpType::kCancel:
      res = ExecuteResolve(op, &entry, /*force_abort=*/true);
      break;
    case ShardOpType::kQuery:
      res = ExecuteResolve(op, &entry, /*force_abort=*/false);
      break;
  }

  // Every shard op advances the chain — gap/blocked/rejected outcomes
  // are replicated decisions all replicas must agree on.
  FinishApply(operation, std::move(entry));
  return res.Encode();
}

ShardOpResult KvStateMachine::DecidedResult(const ShardOutcome& o) const {
  ShardOpResult res;
  res.status = ShardOpStatus::kDecided;
  res.commit = o.kind != ShardTxnOutcome::kAborted;
  res.vote_commit = o.vote_commit;
  res.token = o.token;
  return res;
}

void KvStateMachine::RecordStampResult(uint64_t stamp, const Buffer& result,
                                       UndoEntry* entry) {
  ShardUndo& su = *entry->shard;
  su.stamp = stamp;
  su.stamp_result_recorded = true;
  stamp_results_[stamp] = result;
  if (stamp > kStampResultWindow) {
    auto old = stamp_results_.find(stamp - kStampResultWindow);
    if (old != stamp_results_.end()) {
      su.evicted = true;
      su.evicted_stamp = old->first;
      su.evicted_result = std::move(old->second);
      stamp_results_.erase(old);
    }
  }
}

ShardOpResult KvStateMachine::ExecuteStamped(const ShardOp& op,
                                             UndoEntry* entry) {
  ShardUndo& su = *entry->shard;
  ShardOpResult res;
  if (op.stamp < next_stamp_) {
    // Slot already consumed: replay the recorded result if still inside
    // the retention window (idempotent retries / duplicate deliveries).
    auto it = stamp_results_.find(op.stamp);
    if (it != stamp_results_.end()) {
      res.status = ShardOpStatus::kApplied;
      res.commit = !KvTxnResult::IsAbort(Slice(it->second));
      res.txn_result = it->second;
    } else {
      res.status = ShardOpStatus::kStampStale;
      res.next_stamp = next_stamp_;
    }
    return res;
  }
  if (op.stamp > next_stamp_) {
    res.status = ShardOpStatus::kStampGap;
    res.next_stamp = next_stamp_;
    return res;
  }
  if (!prepared_.empty()) {
    // Eris-style shard pause: an undecided prepared transaction must see
    // no intervening writes between its prepare and its decision.
    res.status = ShardOpStatus::kBlocked;
    res.next_stamp = next_stamp_;
    res.reason = "undecided prepared txn";
    return res;
  }

  const bool multi = op.participants.size() > 1;
  KvTxnResult out;
  if (multi) {
    // Multi-shard fast path carries blind writes only: it must commit on
    // every participant, so the conflict check is disabled by design.
    out.committed = true;
    out.results.reserve(op.sub.ops.size());
    for (const KvOp& sub_op : op.sub.ops) {
      out.results.push_back(ApplySubOp(sub_op, entry));
    }
    StampLastWrites(op.sub.owner, entry);
    ++txn_commits_;
    if (outcomes_.emplace(op.txn, ShardOutcome{ShardTxnOutcome::kFastApplied,
                                               false, 0})
            .second) {
      su.outcome_inserted = true;
    }
  } else {
    // Single-shard stamped txns keep full KvTxn semantics including the
    // first-committer-wins abort.
    const std::string* conflict_key = FindWwConflict(op.sub);
    if (conflict_key != nullptr) {
      out.committed = false;
      out.abort_reason = "ww-conflict on " + *conflict_key;
      ++txn_aborts_;
    } else {
      out.committed = true;
      out.results.reserve(op.sub.ops.size());
      for (const KvOp& sub_op : op.sub.ops) {
        out.results.push_back(ApplySubOp(sub_op, entry));
      }
      StampLastWrites(op.sub.owner, entry);
      ++txn_commits_;
    }
  }

  su.stamp_advanced = true;
  ++next_stamp_;
  Buffer encoded = out.Encode();
  RecordStampResult(op.stamp, encoded, entry);
  res.status = ShardOpStatus::kApplied;
  res.commit = out.committed;
  res.txn_result = std::move(encoded);
  return res;
}

ShardOpResult KvStateMachine::ExecutePrepare(const ShardOp& op,
                                             UndoEntry* entry) {
  ShardUndo& su = *entry->shard;
  ShardOpResult res;
  auto decided = outcomes_.find(op.txn);
  if (decided != outcomes_.end()) return DecidedResult(decided->second);
  auto prep = prepared_.find(op.txn);
  if (prep != prepared_.end()) {
    // Duplicate prepare: the vote is immutable, return it verbatim.
    res.status = ShardOpStatus::kVote;
    res.commit = true;
    res.vote_commit = true;
    res.token = prep->second.token;
    res.txn_result = prep->second.vote_result;
    return res;
  }

  if (op.stamp != 0) {
    // Stamped prepare occupies its sequencer slot like any stamped op.
    // (Unstamped prepares — the censored-sequencer fallback — skip slot
    // accounting entirely.)
    if (op.stamp < next_stamp_) {
      res.status = ShardOpStatus::kStampStale;
      res.next_stamp = next_stamp_;
      return res;
    }
    if (op.stamp > next_stamp_) {
      res.status = ShardOpStatus::kStampGap;
      res.next_stamp = next_stamp_;
      return res;
    }
  }

  // Vote. Prepares never wait on other prepares (no distributed
  // deadlock): any overlap with an undecided prepared txn's lock sets
  // (reads or writes vs its write locks, writes vs its read locks) is
  // an immediate abort vote.
  std::string conflict_reason = FindPreparedLockConflict(op.txn, op.sub);
  if (conflict_reason.empty()) {
    const std::string* ww = FindWwConflict(op.sub);
    if (ww != nullptr) conflict_reason = "ww-conflict on " + *ww;
  }

  const bool stamped = op.stamp != 0;
  if (!conflict_reason.empty()) {
    // Abort vote: recorded as a final outcome immediately — the
    // coordinator cannot commit without this shard's commit token.
    const uint64_t token = ShardVoteToken(op.txn, op.shard, false);
    if (outcomes_
            .emplace(op.txn,
                     ShardOutcome{ShardTxnOutcome::kAborted, false, token})
            .second) {
      su.outcome_inserted = true;
    }
    ++txn_aborts_;
    if (stamped) {
      su.stamp_advanced = true;
      ++next_stamp_;
    }
    res.status = ShardOpStatus::kVote;
    res.commit = false;
    res.token = token;
    res.reason = conflict_reason;
    return res;
  }

  // Commit vote: execute reads against the current state (plus this
  // txn's own earlier writes) and buffer write effects for the decision.
  PreparedTxn pt;
  pt.owner = op.sub.owner;
  pt.token = ShardVoteToken(op.txn, op.shard, true);
  pt.participants = op.participants;
  KvTxnResult vote_out;
  vote_out.committed = true;
  vote_out.results.reserve(op.sub.ops.size());
  std::map<std::string, std::optional<std::string>> overlay;
  auto read = [&](const std::string& key) -> std::optional<std::string> {
    auto ov = overlay.find(key);
    if (ov != overlay.end()) return ov->second;
    auto it = data_.find(key);
    if (it == data_.end()) return std::nullopt;
    return it->second;
  };
  for (const KvOp& sub_op : op.sub.ops) {
    switch (sub_op.code) {
      case KvOpCode::kGet: {
        auto v = read(sub_op.key);
        vote_out.results.push_back(v ? *v : "");
        bool seen = false;
        for (const std::string& k : pt.read_keys) {
          if (k == sub_op.key) {
            seen = true;
            break;
          }
        }
        if (!seen) pt.read_keys.push_back(sub_op.key);
        break;
      }
      case KvOpCode::kPut:
        overlay[sub_op.key] = sub_op.value;
        pt.writes.push_back(sub_op);
        vote_out.results.push_back("OK");
        break;
      case KvOpCode::kDelete: {
        auto v = read(sub_op.key);
        overlay[sub_op.key] = std::nullopt;
        pt.writes.push_back(sub_op);
        vote_out.results.push_back(v ? "OK" : "NOTFOUND");
        break;
      }
      case KvOpCode::kAdd: {
        auto v = read(sub_op.key);
        int64_t current =
            v ? std::strtoll(v->c_str(), nullptr, 10) : 0;
        current += sub_op.delta;
        std::string next = std::to_string(current);
        overlay[sub_op.key] = next;
        // Buffer the computed value as a literal PUT so the decision
        // replays it without re-reading state.
        KvOp put;
        put.code = KvOpCode::kPut;
        put.key = sub_op.key;
        put.value = next;
        pt.writes.push_back(std::move(put));
        vote_out.results.push_back(next);
        break;
      }
    }
  }
  for (const KvOp& w : pt.writes) {
    bool seen = false;
    for (const std::string& k : pt.write_keys) {
      if (k == w.key) {
        seen = true;
        break;
      }
    }
    if (!seen) pt.write_keys.push_back(w.key);
  }
  pt.vote_result = vote_out.Encode();

  res.status = ShardOpStatus::kVote;
  res.commit = true;
  res.vote_commit = true;
  res.token = pt.token;
  res.txn_result = pt.vote_result;
  prepared_.emplace(op.txn, std::move(pt));
  su.prepared_inserted = true;
  if (stamped) {
    su.stamp_advanced = true;
    ++next_stamp_;
  }
  return res;
}

ShardOpResult KvStateMachine::ExecuteDecision(const ShardOp& op,
                                              UndoEntry* entry) {
  ShardUndo& su = *entry->shard;
  ShardOpResult res;
  auto decided = outcomes_.find(op.txn);
  if (decided != outcomes_.end()) {
    if (decided->second.kind == ShardTxnOutcome::kFastApplied) {
      res.status = ShardOpStatus::kRejected;
      res.reason = "decision for fast-path txn";
      return res;
    }
    return DecidedResult(decided->second);
  }

  auto prep = prepared_.find(op.txn);
  if (op.commit) {
    // Commit requires a certificate of genuine commit-vote tokens from
    // every participant — an equivocating coordinator cannot mint one.
    if (prep == prepared_.end()) {
      res.status = ShardOpStatus::kRejected;
      res.reason = "commit decision for unprepared txn";
      return res;
    }
    for (uint32_t p : prep->second.participants) {
      bool found = false;
      for (const ShardVote& v : op.cert) {
        if (v.shard == p && v.commit &&
            v.token == ShardVoteToken(op.txn, p, true)) {
          found = true;
          break;
        }
      }
      if (!found) {
        res.status = ShardOpStatus::kRejected;
        res.reason = "invalid commit certificate";
        return res;
      }
    }
    PreparedTxn pt = std::move(prep->second);
    prepared_.erase(prep);
    su.prepared_erased = true;
    for (const KvOp& w : pt.writes) ApplySubOp(w, entry);
    StampLastWrites(pt.owner, entry);
    ++txn_commits_;
    outcomes_.emplace(
        op.txn, ShardOutcome{ShardTxnOutcome::kCommitted, true, pt.token});
    su.outcome_inserted = true;
    su.erased_prepared = std::move(pt);
    res.status = ShardOpStatus::kDecided;
    res.commit = true;
    res.vote_commit = true;
    res.token = su.erased_prepared.token;
    return res;
  }

  // Abort requires at least one genuine abort-vote token.
  bool valid = false;
  for (const ShardVote& v : op.cert) {
    if (!v.commit && v.token == ShardVoteToken(op.txn, v.shard, false)) {
      valid = true;
      break;
    }
  }
  if (!valid) {
    res.status = ShardOpStatus::kRejected;
    res.reason = "invalid abort certificate";
    return res;
  }
  bool vote_commit = false;
  uint64_t token = 0;
  if (prep != prepared_.end()) {
    vote_commit = true;
    token = prep->second.token;
    su.prepared_erased = true;
    su.erased_prepared = std::move(prep->second);
    prepared_.erase(prep);
  }
  ++txn_aborts_;
  outcomes_.emplace(op.txn,
                    ShardOutcome{ShardTxnOutcome::kAborted, vote_commit, token});
  su.outcome_inserted = true;
  res.status = ShardOpStatus::kDecided;
  res.commit = false;
  res.vote_commit = vote_commit;
  res.token = token;
  return res;
}

ShardOpResult KvStateMachine::ExecuteResolve(const ShardOp& op,
                                             UndoEntry* entry,
                                             bool force_abort) {
  ShardUndo& su = *entry->shard;
  ShardOpResult res;
  auto decided = outcomes_.find(op.txn);
  if (decided != outcomes_.end()) return DecidedResult(decided->second);
  auto prep = prepared_.find(op.txn);
  if (prep != prepared_.end()) {
    // A recorded commit vote is immutable — Cancel cannot revoke it.
    res.status = ShardOpStatus::kVote;
    res.commit = true;
    res.vote_commit = true;
    res.token = prep->second.token;
    res.txn_result = prep->second.vote_result;
    return res;
  }
  if (!force_abort) {
    res.status = ShardOpStatus::kUnknown;
    return res;
  }
  // Cancel of a never-prepared txn: vote abort so a recovery coordinator
  // obtains a certificate, and pin the outcome so a late prepare cannot
  // resurrect the transaction.
  const uint64_t token = ShardVoteToken(op.txn, op.shard, false);
  outcomes_.emplace(op.txn,
                    ShardOutcome{ShardTxnOutcome::kAborted, false, token});
  su.outcome_inserted = true;
  ++txn_aborts_;
  res.status = ShardOpStatus::kVote;
  res.commit = false;
  res.token = token;
  res.reason = "canceled before prepare";
  return res;
}

bool KvStateMachine::IsReadOnly(Slice operation) const {
  if (KvTxn::IsTxn(operation)) {
    Result<KvTxn> txn = KvTxn::Decode(operation);
    return txn.ok() && txn->IsReadOnly();
  }
  Result<KvOp> decoded = KvOp::Decode(operation);
  return decoded.ok() && decoded->code == KvOpCode::kGet;
}

Result<Buffer> KvStateMachine::ExecuteReadOnly(Slice operation) const {
  if (KvTxn::IsTxn(operation)) {
    Result<KvTxn> txn = KvTxn::Decode(operation);
    if (!txn.ok()) return txn.status();
    if (!txn->IsReadOnly()) {
      return Status::NotSupported("not a read-only transaction");
    }
    KvTxnResult out;
    out.committed = true;
    out.results.reserve(txn->ops.size());
    for (const KvOp& op : txn->ops) {
      auto it = data_.find(op.key);
      out.results.push_back(it == data_.end() ? "" : it->second);
    }
    return out.Encode();
  }
  Result<KvOp> decoded = KvOp::Decode(operation);
  if (!decoded.ok()) return decoded.status();
  if (decoded->code != KvOpCode::kGet) {
    return Status::NotSupported("not a read-only operation");
  }
  auto it = data_.find(decoded->key);
  return it == data_.end() ? Buffer{} : Slice(it->second).ToBuffer();
}

Buffer KvStateMachine::Snapshot() const {
  Encoder enc;
  enc.PutU64(version_);
  enc.PutRaw(digest_.AsSlice());
  enc.PutU64(data_.size());
  for (const auto& [k, v] : data_) {
    enc.PutString(k);
    enc.PutString(v);
  }
  // Last-writer map: part of replicated state (feeds the deterministic
  // abort decision), so state transfer must carry it.
  enc.PutU64(last_writes_.size());
  for (const auto& [k, lw] : last_writes_) {
    enc.PutString(k);
    enc.PutU32(lw.client);
    enc.PutU64(lw.version);
  }
  // Sharded transaction state: slot counter, retained stamped results,
  // undecided prepared txns (their locks survive state transfer — this
  // is what lets coordinator recovery lean on checkpoints), outcomes.
  EncodeShardWindow(&enc);
  enc.PutU64(outcomes_.size());
  for (const auto& [txn, o] : outcomes_) {
    enc.PutU32(txn.owner);
    enc.PutU64(txn.seq);
    enc.PutU8(static_cast<uint8_t>(o.kind));
    enc.PutBool(o.vote_commit);
    enc.PutU64(o.token);
  }
  return enc.Take();
}

void KvStateMachine::EncodeShardWindow(Encoder* enc) const {
  enc->PutU64(next_stamp_);
  enc->PutU64(stamp_results_.size());
  for (const auto& [stamp, result] : stamp_results_) {
    enc->PutU64(stamp);
    enc->PutBytes(Slice(result));
  }
  enc->PutU64(prepared_.size());
  for (const auto& [txn, pt] : prepared_) {
    enc->PutU32(txn.owner);
    enc->PutU64(txn.seq);
    enc->PutU32(pt.owner);
    enc->PutU64(pt.token);
    enc->PutBytes(Slice(pt.vote_result));
    enc->PutU32(static_cast<uint32_t>(pt.participants.size()));
    for (uint32_t p : pt.participants) enc->PutU32(p);
    enc->PutU32(static_cast<uint32_t>(pt.writes.size()));
    for (const KvOp& w : pt.writes) enc->PutBytes(Slice(w.Encode()));
    // Read locks can't be recomputed from the buffered writes, so state
    // transfer must carry them explicitly (write_keys are rederived).
    enc->PutU32(static_cast<uint32_t>(pt.read_keys.size()));
    for (const std::string& k : pt.read_keys) enc->PutString(k);
  }
}

Result<Buffer> KvStateMachine::SnapshotAt(uint64_t version) const {
  if (version == version_) return Snapshot();
  if (version > version_) {
    return Status::InvalidArgument("snapshot version is ahead of the state");
  }
  KvStateMachine past = *this;
  BFTLAB_RETURN_IF_ERROR(past.Rollback(version_ - version));
  return past.Snapshot();
}

Digest KvStateMachine::StateCommitment() const {
  // Everything Snapshot() encodes: the scalars and the bounded shard
  // window whole, the per-key and per-outcome records through their sum.
  Encoder enc;
  enc.PutU64(version_);
  enc.PutRaw(digest_.AsSlice());
  EncodeShardWindow(&enc);
  for (uint64_t limb : record_sum_.limbs) enc.PutU64(limb);
  return Sha256::Hash(enc.buffer());
}

Result<Digest> KvStateMachine::SnapshotCommitment(Slice snapshot) const {
  KvStateMachine restored;
  BFTLAB_RETURN_IF_ERROR(restored.Restore(snapshot));
  return restored.StateCommitment();
}

Status KvStateMachine::Restore(Slice snapshot) {
  Decoder dec(snapshot);
  uint64_t version;
  BFTLAB_ASSIGN_OR_RETURN(version, dec.GetU64());
  Buffer digest_bytes;
  {
    Result<Buffer> raw = dec.GetRaw(Digest::kSize);
    if (!raw.ok()) return raw.status();
    digest_bytes = std::move(raw).value();
  }
  uint64_t count;
  BFTLAB_ASSIGN_OR_RETURN(count, dec.GetU64());
  std::map<std::string, std::string> data;
  for (uint64_t i = 0; i < count; ++i) {
    std::string k, v;
    BFTLAB_ASSIGN_OR_RETURN(k, dec.GetString());
    BFTLAB_ASSIGN_OR_RETURN(v, dec.GetString());
    data.emplace(std::move(k), std::move(v));
  }
  uint64_t writer_count;
  BFTLAB_ASSIGN_OR_RETURN(writer_count, dec.GetU64());
  std::map<std::string, LastWrite> last_writes;
  for (uint64_t i = 0; i < writer_count; ++i) {
    std::string k;
    LastWrite lw;
    BFTLAB_ASSIGN_OR_RETURN(k, dec.GetString());
    BFTLAB_ASSIGN_OR_RETURN(lw.client, dec.GetU32());
    BFTLAB_ASSIGN_OR_RETURN(lw.version, dec.GetU64());
    last_writes.emplace(std::move(k), lw);
  }
  uint64_t next_stamp;
  BFTLAB_ASSIGN_OR_RETURN(next_stamp, dec.GetU64());
  uint64_t stamp_count;
  BFTLAB_ASSIGN_OR_RETURN(stamp_count, dec.GetU64());
  std::map<uint64_t, Buffer> stamp_results;
  for (uint64_t i = 0; i < stamp_count; ++i) {
    uint64_t stamp;
    Buffer result;
    BFTLAB_ASSIGN_OR_RETURN(stamp, dec.GetU64());
    BFTLAB_ASSIGN_OR_RETURN(result, dec.GetBytes());
    stamp_results.emplace(stamp, std::move(result));
  }
  uint64_t prepared_count;
  BFTLAB_ASSIGN_OR_RETURN(prepared_count, dec.GetU64());
  std::map<ShardTxnId, PreparedTxn> prepared;
  for (uint64_t i = 0; i < prepared_count; ++i) {
    ShardTxnId txn;
    PreparedTxn pt;
    BFTLAB_ASSIGN_OR_RETURN(txn.owner, dec.GetU32());
    BFTLAB_ASSIGN_OR_RETURN(txn.seq, dec.GetU64());
    BFTLAB_ASSIGN_OR_RETURN(pt.owner, dec.GetU32());
    BFTLAB_ASSIGN_OR_RETURN(pt.token, dec.GetU64());
    BFTLAB_ASSIGN_OR_RETURN(pt.vote_result, dec.GetBytes());
    uint32_t np;
    BFTLAB_ASSIGN_OR_RETURN(np, dec.GetU32());
    for (uint32_t j = 0; j < np; ++j) {
      uint32_t p;
      BFTLAB_ASSIGN_OR_RETURN(p, dec.GetU32());
      pt.participants.push_back(p);
    }
    uint32_t nw;
    BFTLAB_ASSIGN_OR_RETURN(nw, dec.GetU32());
    for (uint32_t j = 0; j < nw; ++j) {
      Buffer op_bytes;
      BFTLAB_ASSIGN_OR_RETURN(op_bytes, dec.GetBytes());
      Result<KvOp> w = KvOp::Decode(Slice(op_bytes));
      if (!w.ok()) return w.status();
      pt.writes.push_back(std::move(w).value());
    }
    for (const KvOp& w : pt.writes) {
      bool seen = false;
      for (const std::string& k : pt.write_keys) {
        if (k == w.key) {
          seen = true;
          break;
        }
      }
      if (!seen) pt.write_keys.push_back(w.key);
    }
    uint32_t nr;
    BFTLAB_ASSIGN_OR_RETURN(nr, dec.GetU32());
    for (uint32_t j = 0; j < nr; ++j) {
      std::string k;
      BFTLAB_ASSIGN_OR_RETURN(k, dec.GetString());
      pt.read_keys.push_back(std::move(k));
    }
    prepared.emplace(txn, std::move(pt));
  }
  uint64_t outcome_count;
  BFTLAB_ASSIGN_OR_RETURN(outcome_count, dec.GetU64());
  std::map<ShardTxnId, ShardOutcome> outcomes;
  for (uint64_t i = 0; i < outcome_count; ++i) {
    ShardTxnId txn;
    ShardOutcome o;
    BFTLAB_ASSIGN_OR_RETURN(txn.owner, dec.GetU32());
    BFTLAB_ASSIGN_OR_RETURN(txn.seq, dec.GetU64());
    uint8_t kind;
    BFTLAB_ASSIGN_OR_RETURN(kind, dec.GetU8());
    if (kind < 1 || kind > 3) return Status::Corruption("bad outcome kind");
    o.kind = static_cast<ShardTxnOutcome>(kind);
    BFTLAB_ASSIGN_OR_RETURN(o.vote_commit, dec.GetBool());
    BFTLAB_ASSIGN_OR_RETURN(o.token, dec.GetU64());
    outcomes.emplace(txn, o);
  }
  if (!dec.Done()) return Status::Corruption("trailing bytes after snapshot");
  data_ = std::move(data);
  last_writes_ = std::move(last_writes);
  version_ = version;
  std::copy(digest_bytes.begin(), digest_bytes.end(), digest_.data());
  undo_log_.clear();
  next_stamp_ = next_stamp;
  stamp_results_ = std::move(stamp_results);
  prepared_ = std::move(prepared);
  outcomes_ = std::move(outcomes);
  RecomputeRecordSum();
  return Status::Ok();
}

Status KvStateMachine::Rollback(uint64_t count) {
  if (count > undo_log_.size()) {
    return Status::FailedPrecondition("undo history too short");
  }
  for (uint64_t i = 0; i < count; ++i) {
    UndoEntry entry = std::move(undo_log_.back());
    undo_log_.pop_back();
    for (auto kit = entry.keys.rbegin(); kit != entry.keys.rend(); ++kit) {
      if (kit->existed) {
        data_[kit->key] = std::move(kit->old_value);
      } else {
        data_.erase(kit->key);
      }
      if (kit->touched_writer) {
        if (kit->had_writer) {
          last_writes_[kit->key] = kit->old_writer;
        } else {
          last_writes_.erase(kit->key);
        }
      }
    }
    if (entry.shard) {
      // Copied, not moved: a copy of this state machine may share it.
      const ShardUndo& su = *entry.shard;
      if (su.outcome_inserted) outcomes_.erase(su.txn);
      if (su.prepared_inserted) prepared_.erase(su.txn);
      if (su.prepared_erased) prepared_[su.txn] = su.erased_prepared;
      if (su.stamp_result_recorded) stamp_results_.erase(su.stamp);
      if (su.evicted) stamp_results_[su.evicted_stamp] = su.evicted_result;
      if (su.stamp_advanced) --next_stamp_;
    }
    digest_ = entry.old_digest;
    record_sum_ = entry.old_sum;
    --version_;
  }
  return Status::Ok();
}

Digest KvStateMachine::ContentDigest() const {
  Encoder enc;
  for (const auto& [k, v] : data_) {  // std::map: already sorted.
    enc.PutString(k);
    enc.PutString(v);
  }
  return Sha256::Hash(enc.buffer());
}

std::optional<std::string> KvStateMachine::Get(const std::string& key) const {
  auto it = data_.find(key);
  if (it == data_.end()) return std::nullopt;
  return it->second;
}

void KvStateMachine::TrimUndoHistory(uint64_t version) {
  while (!undo_log_.empty() && undo_log_.front().version <= version) {
    undo_log_.pop_front();
  }
}

}  // namespace bftlab
