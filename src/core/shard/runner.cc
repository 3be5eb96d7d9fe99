#include "core/shard/runner.h"

#include <algorithm>
#include <deque>
#include <queue>
#include <set>
#include <sstream>

#include "chaos/linearizability.h"
#include "core/registry.h"
#include "core/shard/atomicity.h"
#include "protocols/common/cluster.h"

namespace bftlab {

namespace {

/// Externally driven client: submits exactly the payload injected into
/// it and reports the accepted result through a one-shot callback. The
/// base class still does signing, quorum collection, and retransmission.
class GateClient : public Client {
 public:
  using Completion = std::function<void(Buffer)>;

  GateClient(NodeId id, ClientConfig config) : Client(id, std::move(config)) {
    config_.record_metrics = false;
    config_.history = nullptr;
    config_.max_requests = 0;
    config_.op_phases.clear();
    // AcceptCurrent() auto-submits when think time is 0; a nonzero think
    // time makes it schedule kThinkTag instead, which we swallow — the
    // next submission comes from the next Inject().
    config_.think_time_us = 1;
    config_.op_generator = [this](ClientId, RequestTimestamp, Rng*) {
      return pending_;
    };
  }

  void Start() override {}  // Externally driven; never self-submits.

  void OnTimer(uint64_t tag) override {
    if (tag == kThinkTag) return;
    Client::OnTimer(tag);
  }

  /// Must run inside the owning shard's simulator (scheduled task).
  void Inject(Buffer payload, Completion done) {
    pending_ = std::move(payload);
    completion_ = std::move(done);
    TraceMark("shard.gate_inject");
    SubmitNext();
  }

  bool busy() const { return in_flight_; }

 protected:
  void HandleReply(const ReplyMessage& reply) override {
    const uint64_t before = accepted_;
    Client::HandleReply(reply);
    if (accepted_ != before && completion_) {
      Completion done = std::move(completion_);
      completion_ = nullptr;
      done(accepted_result_);
    }
  }

 private:
  Buffer pending_;
  Completion completion_;
};

struct HostEvent {
  SimTime at = 0;
  uint64_t seq = 0;
  std::function<void()> fn;
  bool operator<(const HostEvent& o) const {
    // Reversed: std::priority_queue is a max-heap.
    if (at != o.at) return at > o.at;
    return seq > o.seq;
  }
};

class ShardedRunner {
 public:
  explicit ShardedRunner(const ShardedExperimentConfig& cfg)
      : cfg_(cfg), part_(cfg.topology), seq_(cfg.topology.num_shards) {}

  Result<ShardedResult> Run();

 private:
  struct Worker {
    ClientId id = 0;
    uint32_t index = 0;
    uint64_t next_seq = 1;
    std::unique_ptr<TxnCoordinator> coord;
    size_t rec_index = 0;
    bool crashed = false;
    Rng rng{0};
  };
  struct Orphan {
    ShardTxnId id;
    std::vector<uint32_t> participants;
  };

  void PushHost(SimTime at, std::function<void()> fn) {
    host_.push(HostEvent{std::max(at, now_), host_seq_++, std::move(fn)});
  }

  CoordOptions HonestOptions() const {
    CoordOptions opts;
    opts.gap_retry_us = cfg_.gap_retry_us;
    opts.blocked_retry_us = cfg_.blocked_retry_us;
    return opts;
  }

  const KvStateMachine* ShardMachine(uint32_t s) {
    Cluster& c = *clusters_[s];
    for (ReplicaId r = 0; r < static_cast<ReplicaId>(c.num_replicas()); ++r) {
      if (c.network().IsDown(r)) continue;
      return dynamic_cast<const KvStateMachine*>(&c.replica(r).state_machine());
    }
    return dynamic_cast<const KvStateMachine*>(&c.replica(0).state_machine());
  }

  void StartNextTxn(Worker* w);
  void HandleCoordSends(Worker* w, std::vector<CoordSend> sends);
  void InjectWorker(uint32_t shard, Worker* w, uint64_t txn_seq,
                    Buffer payload);
  void OnWorkerResult(Worker* w, uint64_t txn_seq, uint32_t shard,
                      Buffer result);
  void FinishTxn(Worker* w);
  void AddOrphan(const ShardTxnId& id, std::vector<uint32_t> participants);

  void RecoveryTick();
  void StartRecovery(Orphan orphan);
  void HandleRecoverySends(std::vector<CoordSend> sends);
  void FinishRecovery();
  void InjectRecovery(uint32_t shard, Buffer payload,
                      std::function<void(Buffer)> cb);

  const ShardedExperimentConfig& cfg_;
  KeyPartitioner part_;
  Sequencer seq_;
  std::vector<std::unique_ptr<Cluster>> clusters_;
  std::vector<std::vector<GateClient*>> gates_;  // [shard][worker index]
  std::vector<GateClient*> recovery_gates_;      // [shard]
  std::vector<bool> recovery_gate_busy_;
  std::vector<std::deque<std::pair<Buffer, std::function<void(Buffer)>>>>
      recovery_waiting_;
  std::vector<Worker> workers_;
  std::priority_queue<HostEvent> host_;
  uint64_t host_seq_ = 0;
  SimTime now_ = 0;
  SimTime end_ = 0;

  ShardedResult result_;
  std::map<ShardTxnId, size_t> rec_index_;
  std::vector<SimTime> latencies_;

  std::deque<Orphan> orphan_queue_;
  std::set<ShardTxnId> orphaned_;
  std::unique_ptr<TxnCoordinator> recovery_coord_;
  std::vector<uint64_t> last_next_stamp_;
  std::vector<SimTime> last_stamp_change_;
};

void ShardedRunner::StartNextTxn(Worker* w) {
  if (w->crashed || now_ >= cfg_.duration_us) return;
  const uint64_t txn_seq = w->next_seq++;
  Buffer raw = cfg_.txn_generator(w->id, txn_seq, &w->rng);
  Result<KvTxn> txn = KvTxn::Decode(Slice(raw));
  if (!txn.ok()) return;  // Generator bug; stop this worker.
  txn->owner = w->id;
  Buffer logical = txn->Encode();
  Result<TxnRouting> routing = RouteTxn(*txn, part_);
  if (!routing.ok()) return;

  const ShardTxnId id{w->id, txn_seq};
  std::optional<MultiStamp> stamps = seq_.Assign(w->id, routing->participants);
  if (!stamps.has_value()) ++result_.censored;

  CoordOptions opts = HonestOptions();
  opts.equivocate = cfg_.equivocate && cfg_.equivocate(w->id, txn_seq);

  ShardTxnRecord rec;
  rec.id = id;
  rec.participants = routing->participants;
  rec.invoke_us = now_;
  w->rec_index = result_.records.size();
  rec_index_[id] = w->rec_index;
  result_.records.push_back(rec);

  w->coord = std::make_unique<TxnCoordinator>(id, std::move(*routing),
                                              std::move(stamps), opts);
  result_.records[w->rec_index].path = w->coord->path();
  result_.history.RecordInvoke(w->id, txn_seq, Slice(logical), now_);

  std::vector<CoordSend> sends = w->coord->Start();
  // Register stamped payloads so abandoned slots can be re-injected.
  for (const CoordSend& s : sends) {
    const uint64_t stamp = ShardOp::StampOf(Slice(s.payload));
    if (stamp != 0) seq_.RegisterPayload(s.shard, stamp, s.payload);
  }

  if (cfg_.drop_fast_sends && cfg_.drop_fast_sends(w->id, txn_seq) &&
      w->coord->path() == TxnCoordinator::Path::kFast) {
    // Worker dies right after acquiring stamps: slots leak, sub-txns are
    // never submitted. The re-injection daemon must fill the gaps.
    result_.records[w->rec_index].abandoned = true;
    w->crashed = true;
    w->coord.reset();
    return;
  }
  HandleCoordSends(w, std::move(sends));
}

void ShardedRunner::HandleCoordSends(Worker* w, std::vector<CoordSend> sends) {
  const uint64_t txn_seq = w->coord->id().seq;
  for (CoordSend& s : sends) {
    const SimTime at = now_ + cfg_.cross_shard_latency_us + s.delay_us;
    const uint32_t shard = s.shard;
    Buffer payload = std::move(s.payload);
    PushHost(at, [this, w, txn_seq, shard, payload]() {
      if (!w->coord || w->coord->id().seq != txn_seq) return;
      InjectWorker(shard, w, txn_seq, payload);
    });
  }
  if (w->coord->done()) FinishTxn(w);
}

void ShardedRunner::InjectWorker(uint32_t shard, Worker* w, uint64_t txn_seq,
                                 Buffer payload) {
  Cluster& c = *clusters_[shard];
  GateClient* gate = gates_[shard][w->index];
  if (gate->busy()) {
    // A retransmitting request is still in flight (e.g. mid view
    // change); try again shortly.
    PushHost(now_ + cfg_.gap_retry_us, [this, shard, w, txn_seq, payload]() {
      if (!w->coord || w->coord->id().seq != txn_seq) return;
      InjectWorker(shard, w, txn_seq, payload);
    });
    return;
  }
  const SimTime sim_now = c.sim().now();
  const SimTime delay = now_ > sim_now ? now_ - sim_now : 0;
  c.sim().Schedule(delay, [this, gate, shard, w, txn_seq, payload]() {
    if (gate->busy()) return;  // Raced with a slow quorum; host retries.
    gate->Inject(payload, [this, shard, w, txn_seq](Buffer result) {
      const SimTime at =
          clusters_[shard]->sim().now() + cfg_.cross_shard_latency_us;
      PushHost(at, [this, w, txn_seq, shard, result]() {
        OnWorkerResult(w, txn_seq, shard, result);
      });
    });
  });
  c.metrics().Increment("shard.injections");
}

void ShardedRunner::OnWorkerResult(Worker* w, uint64_t txn_seq, uint32_t shard,
                                   Buffer result) {
  if (!w->coord || w->coord->id().seq != txn_seq) return;
  const bool decision_before = w->coord->decision_sent();
  std::vector<CoordSend> sends = w->coord->OnResult(shard, Slice(result));

  if (!decision_before && w->coord->decision_sent() &&
      cfg_.crash_after_prepare &&
      cfg_.crash_after_prepare(w->id, txn_seq)) {
    // Coordinator crash between prepare and commit: the decision is
    // computed but never transmitted; participants keep their locks
    // until the recovery daemon takes over.
    ShardTxnRecord& rec = result_.records[w->rec_index];
    rec.abandoned = true;
    AddOrphan(w->coord->id(), w->coord->participants());
    w->crashed = true;
    w->coord.reset();
    return;
  }
  HandleCoordSends(w, std::move(sends));
}

void ShardedRunner::FinishTxn(Worker* w) {
  TxnCoordinator& coord = *w->coord;
  ShardTxnRecord& rec = result_.records[w->rec_index];
  rec.completed = true;
  rec.committed = coord.committed();
  rec.uncertain = coord.uncertain();
  rec.complete_us = now_;

  result_.gap_retries += coord.gap_retries();
  result_.blocked_retries += coord.blocked_retries();
  switch (coord.path()) {
    case TxnCoordinator::Path::kSingle:
      ++result_.single_shard;
      break;
    case TxnCoordinator::Path::kFast:
      ++result_.fast_path;
      break;
    case TxnCoordinator::Path::kTwoPC:
      ++result_.two_pc;
      break;
    case TxnCoordinator::Path::kRecovery:
      break;
  }

  const bool equivocated =
      cfg_.equivocate && cfg_.equivocate(w->id, coord.id().seq);
  if (equivocated) {
    // The byzantine coordinator "knows" the outcome but its decision
    // messages were garbage on all but one shard: recovery must finish
    // the job, and the client-side completion stays unrecorded (the
    // history treats the txn as pending, which constrains nothing).
    rec.equivocated = true;
    AddOrphan(coord.id(), coord.participants());
  } else if (coord.decision_rejected()) {
    // A participant refused the decision (its prepare rolled back across
    // a view change and re-executed after we decided): it may hold locks
    // forever if nobody re-delivers, so recovery must settle the txn.
    AddOrphan(coord.id(), coord.participants());
  } else if (!rec.uncertain) {
    result_.history.RecordComplete(w->id, coord.id().seq,
                                   Slice(coord.Assemble().Encode()), now_);
  }

  if (rec.uncertain) {
    // Outcome unknown (evicted slot result or rejected decision): not a
    // commit, not an abort — keep throughput/latency metrics honest.
    ++result_.uncertain;
  } else if (rec.committed) {
    ++result_.committed;
    if (rec.participants.size() > 1) ++result_.cross_shard_committed;
    latencies_.push_back(rec.complete_us - rec.invoke_us);
  } else {
    ++result_.aborted;
  }

  w->coord.reset();
  StartNextTxn(w);
}

void ShardedRunner::AddOrphan(const ShardTxnId& id,
                              std::vector<uint32_t> participants) {
  if (!cfg_.enable_recovery) return;
  if (!orphaned_.insert(id).second) return;
  orphan_queue_.push_back(Orphan{id, std::move(participants)});
}

void ShardedRunner::RecoveryTick() {
  // Slot re-injection: a shard whose next stamp has not moved for a
  // while, with outstanding sequencer slots, is stalled on a gap.
  for (uint32_t s = 0; s < clusters_.size(); ++s) {
    const KvStateMachine* sm = ShardMachine(s);
    if (sm == nullptr) continue;
    const uint64_t ns = sm->next_stamp();
    if (ns != last_next_stamp_[s]) {
      last_next_stamp_[s] = ns;
      last_stamp_change_[s] = now_;
      continue;
    }
    if (seq_.next_stamp(s) > ns &&
        now_ - last_stamp_change_[s] >= cfg_.recovery_timeout_us) {
      if (const Buffer* payload = seq_.PayloadFor(s, ns)) {
        ++result_.slot_reinjections;
        clusters_[s]->metrics().Increment("shard.slot_reinjections");
        InjectRecovery(s, *payload, nullptr);
        last_stamp_change_[s] = now_;
      }
    }
  }

  if (recovery_coord_ == nullptr && !orphan_queue_.empty()) {
    Orphan o = std::move(orphan_queue_.front());
    orphan_queue_.pop_front();
    StartRecovery(std::move(o));
  }

  if (now_ + cfg_.recovery_check_us < end_) {
    PushHost(now_ + cfg_.recovery_check_us, [this]() { RecoveryTick(); });
  }
}

void ShardedRunner::StartRecovery(Orphan orphan) {
  ++result_.recovery_takeovers;
  recovery_coord_ = std::make_unique<TxnCoordinator>(TxnCoordinator::
      MakeRecovery(orphan.id, std::move(orphan.participants),
                   HonestOptions()));
  HandleRecoverySends(recovery_coord_->Start());
}

void ShardedRunner::HandleRecoverySends(std::vector<CoordSend> sends) {
  for (CoordSend& s : sends) {
    const uint32_t shard = s.shard;
    Buffer payload = std::move(s.payload);
    const ShardTxnId id = recovery_coord_->id();
    PushHost(now_ + cfg_.cross_shard_latency_us + s.delay_us,
             [this, shard, payload, id]() {
               if (!recovery_coord_ || !(recovery_coord_->id() == id)) return;
               InjectRecovery(shard, payload, [this, shard, id](Buffer result) {
                 if (!recovery_coord_ || !(recovery_coord_->id() == id)) {
                   return;
                 }
                 HandleRecoverySends(
                     recovery_coord_->OnResult(shard, Slice(result)));
                 if (recovery_coord_ && recovery_coord_->done()) {
                   FinishRecovery();
                 }
               });
             });
  }
  if (recovery_coord_ && recovery_coord_->done()) FinishRecovery();
}

void ShardedRunner::FinishRecovery() {
  const ShardTxnId id = recovery_coord_->id();
  if (recovery_coord_->decision_rejected()) {
    // Some participant refused even the recovery decision (e.g. its
    // prepare state shifted under a view change mid-delivery): retry on
    // a later tick rather than declaring the txn settled.
    std::vector<uint32_t> participants = recovery_coord_->participants();
    recovery_coord_.reset();
    orphaned_.erase(id);
    AddOrphan(id, std::move(participants));
    return;
  }
  auto it = rec_index_.find(id);
  if (it != rec_index_.end()) {
    ShardTxnRecord& rec = result_.records[it->second];
    rec.recovered = true;
    rec.committed = recovery_coord_->committed();
    // Recovery's decision is derived from immutable votes: the outcome
    // is now known, so the oracle may hold the txn to it.
    rec.uncertain = false;
  }
  recovery_coord_.reset();
}

void ShardedRunner::InjectRecovery(uint32_t shard, Buffer payload,
                                   std::function<void(Buffer)> cb) {
  if (recovery_gate_busy_[shard]) {
    recovery_waiting_[shard].emplace_back(std::move(payload), std::move(cb));
    return;
  }
  recovery_gate_busy_[shard] = true;
  Cluster& c = *clusters_[shard];
  GateClient* gate = recovery_gates_[shard];
  const SimTime sim_now = c.sim().now();
  const SimTime delay = now_ > sim_now ? now_ - sim_now : 0;
  c.sim().Schedule(delay, [this, gate, shard, payload, cb]() {
    gate->Inject(payload, [this, shard, cb](Buffer result) {
      const SimTime at =
          clusters_[shard]->sim().now() + cfg_.cross_shard_latency_us;
      PushHost(at, [this, shard, cb, result]() {
        recovery_gate_busy_[shard] = false;
        if (!recovery_waiting_[shard].empty()) {
          auto next = std::move(recovery_waiting_[shard].front());
          recovery_waiting_[shard].pop_front();
          InjectRecovery(shard, std::move(next.first),
                         std::move(next.second));
        }
        if (cb) cb(result);
      });
    });
  });
}

Result<ShardedResult> ShardedRunner::Run() {
  Result<ProtocolBuild> build = GetProtocol(cfg_.protocol, cfg_.f);
  if (!build.ok()) return build.status();
  if (build->client_factory != nullptr) {
    return Status::InvalidArgument(
        "sharded runs require base-client protocols (" + cfg_.protocol +
        " uses a custom client)");
  }
  if (cfg_.topology.num_shards == 0 || cfg_.workers_per_shard == 0) {
    return Status::InvalidArgument("need at least one shard and one worker");
  }
  if (!cfg_.txn_generator) {
    return Status::InvalidArgument("sharded runs need a txn_generator");
  }

  const uint32_t num_shards = cfg_.topology.num_shards;
  const uint32_t num_workers = num_shards * cfg_.workers_per_shard;
  end_ = cfg_.duration_us + cfg_.settle_us;

  gates_.resize(num_shards);
  recovery_gates_.resize(num_shards, nullptr);
  recovery_gate_busy_.assign(num_shards, false);
  recovery_waiting_.resize(num_shards);
  last_next_stamp_.assign(num_shards, 0);
  last_stamp_change_.assign(num_shards, 0);

  for (uint32_t s = 0; s < num_shards; ++s) {
    ClusterConfig cc;
    cc.n = build->RecommendedN(cfg_.f);
    cc.f = cfg_.f;
    cc.num_clients = 0;  // All traffic comes through gate clients.
    cc.seed = cfg_.seed * 1000003ull + s;
    cc.net = cfg_.net;
    cc.replica.batch_size = cfg_.batch_size;
    cc.replica.batch_timeout_us = cfg_.batch_timeout_us;
    cc.replica.checkpoint_interval = cfg_.checkpoint_interval;
    cc.replica.auth = build->descriptor.auth;
    cc.client.reply_quorum = build->ReplyQuorum(cfg_.f);
    cc.client.submit_policy = build->submit_policy;
    cc.client.retransmit_timeout_us = cfg_.client_retransmit_us;
    if (s < cfg_.tracers.size()) cc.tracer = cfg_.tracers[s];
    ClientConfig gate_template = cc.client;
    gate_template.num_replicas = cc.n;

    clusters_.push_back(std::make_unique<Cluster>(
        std::move(cc), build->replica_factory, build->client_factory));
    Cluster& cluster = *clusters_.back();
    gates_[s].resize(num_workers, nullptr);
    for (uint32_t w = 0; w < num_workers; ++w) {
      auto gate = std::make_unique<GateClient>(
          static_cast<NodeId>(kClientIdBase + w), gate_template);
      gates_[s][w] = gate.get();
      cluster.AddClient(std::move(gate));
    }
    // The next dense client id: the network and the metrics size their
    // client slabs by id.
    auto rgate = std::make_unique<GateClient>(
        static_cast<NodeId>(kClientIdBase + num_workers), gate_template);
    recovery_gates_[s] = rgate.get();
    cluster.AddClient(std::move(rgate));
  }

  // Replica fault schedule (crash/restart inside the shard's own sim).
  for (const ShardedExperimentConfig::ShardFault& f : cfg_.faults) {
    if (f.shard >= num_shards) continue;
    Cluster* c = clusters_[f.shard].get();
    c->sim().Schedule(f.crash_at,
                      [c, r = f.replica]() { c->network().Crash(r); });
    if (f.restart_at != 0) {
      c->sim().Schedule(f.restart_at,
                        [c, r = f.replica]() { c->network().Restart(r); });
    }
  }

  seq_.set_censor(cfg_.sequencer_censor);

  Rng host_rng(cfg_.seed * 7919ull + 13);
  workers_.reserve(num_workers);
  for (uint32_t w = 0; w < num_workers; ++w) {
    Worker worker;
    worker.id = static_cast<ClientId>(kClientIdBase + w);
    worker.index = w;
    worker.rng = host_rng.Fork();
    workers_.push_back(std::move(worker));
  }

  for (auto& cluster : clusters_) cluster->Start();
  for (Worker& w : workers_) {
    Worker* wp = &w;
    PushHost(0, [this, wp]() { StartNextTxn(wp); });
  }
  if (cfg_.enable_recovery) {
    PushHost(cfg_.recovery_check_us, [this]() { RecoveryTick(); });
  }

  // Deterministic lockstep: advance every shard one quantum, then drain
  // due host events (which may schedule work into the shard sims for
  // the next quantum).
  while (now_ < end_) {
    now_ = std::min(end_, now_ + cfg_.quantum_us);
    for (auto& cluster : clusters_) cluster->sim().RunUntil(now_);
    while (!host_.empty() && host_.top().at <= now_) {
      std::function<void()> fn = host_.top().fn;
      host_.pop();
      fn();
    }
  }

  // --- Collection --------------------------------------------------------
  result_.shard_count = num_shards;
  result_.censored = seq_.censored_requests();
  for (uint32_t s = 0; s < num_shards; ++s) {
    Cluster& c = *clusters_[s];
    Status agreement = c.CheckAgreement();
    if (!agreement.ok() && result_.violation.empty()) {
      result_.atomic = false;
      result_.violation = "shard " + std::to_string(s) +
                          " agreement: " + agreement.ToString();
    }
    Status machines = c.CheckStateMachines();
    if (!machines.ok() && result_.violation.empty()) {
      result_.atomic = false;
      result_.violation = "shard " + std::to_string(s) +
                          " state machines: " + machines.ToString();
    }
    const KvStateMachine* sm = ShardMachine(s);
    result_.per_shard_commits.push_back(sm ? sm->txn_commits() : 0);
    result_.outcomes.push_back(sm ? sm->shard_outcomes()
                                  : std::map<ShardTxnId,
                                             KvStateMachine::ShardOutcome>{});
    result_.prepared_left.push_back(sm ? sm->prepared_count() : 0);
  }

  const double duration_s = static_cast<double>(cfg_.duration_us) / 1e6;
  result_.aggregate_tput =
      duration_s > 0 ? static_cast<double>(result_.committed) / duration_s : 0;
  if (!latencies_.empty()) {
    std::sort(latencies_.begin(), latencies_.end());
    double sum = 0;
    for (SimTime l : latencies_) sum += static_cast<double>(l);
    result_.mean_latency_us = sum / static_cast<double>(latencies_.size());
    result_.p99_latency_us = static_cast<double>(
        latencies_[latencies_.size() * 99 / 100 == latencies_.size()
                       ? latencies_.size() - 1
                       : latencies_.size() * 99 / 100]);
  }

  if (cfg_.check_linearizability) {
    LinearizabilityReport lin = CheckLinearizability(result_.history);
    result_.linearizable = lin.ok;
    if (!lin.ok && result_.violation.empty()) {
      result_.violation = "linearizability: " + lin.violation;
    }
  }
  AtomicityReport atom = CheckCrossShardAtomicity(
      result_.records, result_.outcomes, result_.prepared_left,
      /*expect_quiescent=*/cfg_.enable_recovery);
  if (!atom.ok) {
    result_.atomic = false;
    if (result_.violation.empty()) result_.violation = atom.violation;
  }

  return std::move(result_);
}

}  // namespace

std::string ShardedResult::Json() const {
  std::ostringstream os;
  os << "{\"shard_count\":" << shard_count << ",\"committed\":" << committed
     << ",\"aborted\":" << aborted << ",\"uncertain\":" << uncertain
     << ",\"single_shard\":" << single_shard
     << ",\"fast_path\":" << fast_path << ",\"two_pc\":" << two_pc
     << ",\"cross_shard_committed\":" << cross_shard_committed
     << ",\"gap_retries\":" << gap_retries
     << ",\"blocked_retries\":" << blocked_retries
     << ",\"recovery_takeovers\":" << recovery_takeovers
     << ",\"slot_reinjections\":" << slot_reinjections
     << ",\"censored\":" << censored << ",\"aggregate_tput\":" << aggregate_tput
     << ",\"mean_latency_us\":" << mean_latency_us
     << ",\"p99_latency_us\":" << p99_latency_us
     << ",\"linearizable\":" << (linearizable ? "true" : "false")
     << ",\"atomic\":" << (atomic ? "true" : "false") << "}";
  return os.str();
}

Result<ShardedResult> RunShardedExperiment(const ShardedExperimentConfig& cfg) {
  ShardedRunner runner(cfg);
  return runner.Run();
}

}  // namespace bftlab
