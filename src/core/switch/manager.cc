#include "core/switch/manager.h"

#include <algorithm>
#include <deque>
#include <sstream>

#include "obs/export.h"
#include "smr/kv_op.h"
#include "smr/switch_op.h"

namespace bftlab {

std::string SwitchRecord::Json() const {
  std::ostringstream os;
  os << "{\"from_epoch\":" << from_epoch << ",\"to_epoch\":" << to_epoch
     << ",\"from_protocol\":\"" << JsonEscape(from_protocol) << "\""
     << ",\"to_protocol\":\"" << JsonEscape(to_protocol) << "\""
     << ",\"trigger\":\"" << JsonEscape(trigger) << "\""
     << ",\"reason\":\"" << JsonEscape(reason) << "\""
     << ",\"decided_at_us\":" << decided_at_us
     << ",\"cut_learned_at_us\":" << cut_learned_at_us
     << ",\"completed_at_us\":" << completed_at_us
     << ",\"cut_seq\":" << cut_seq << ",\"handoff_bytes\":" << handoff_bytes
     << ",\"filler_ops\":" << filler_ops
     << ",\"force_seeded\":" << force_seeded << ",\"stall_us\":" << stall_us
     << "}";
  return os.str();
}

// Harness-side client that carries switch directives and filler no-ops.
// Idle by default (Start is a no-op); ops are handed to it explicitly
// and drained one at a time through the normal closed-loop machinery,
// so directives get signing, retransmission, and quorum collection for
// free.
class SwitchManager::ControlClient : public Client {
 public:
  ControlClient(NodeId id, ClientConfig config)
      : Client(id, std::move(config)) {
    config_.op_generator = [this](ClientId, RequestTimestamp, Rng*) {
      return pending_;
    };
  }

  void Start() override {}  // Idle until handed an op.

  void Enqueue(Buffer op) {
    if (in_flight_) {
      queue_.push_back(std::move(op));
      return;
    }
    pending_ = std::move(op);
    Client::SubmitNext();
  }

  bool Idle() const { return !in_flight_ && queue_.empty(); }

 protected:
  // Called by AcceptCurrent after each completed op: drain the queue
  // instead of generating workload.
  void SubmitNext() override {
    if (queue_.empty()) return;
    pending_ = std::move(queue_.front());
    queue_.pop_front();
    Client::SubmitNext();
  }

 private:
  Buffer pending_;
  std::deque<Buffer> queue_;
};

SwitchManager::SwitchManager(Cluster* cluster, std::string initial_protocol,
                             AdaptiveSpec spec)
    : cluster_(cluster),
      spec_(std::move(spec)),
      current_protocol_(std::move(initial_protocol)),
      cursor_(&cluster->metrics()) {}

SwitchManager::~SwitchManager() = default;

bool SwitchManager::IsCorrectSlot(ReplicaId id) const {
  const ClusterConfig& cc = cluster_->config();
  auto byz = cc.byzantine.find(id);
  const ByzantineSpec& spec =
      byz != cc.byzantine.end() ? byz->second : cc.replica.byzantine;
  return spec.mode == ByzantineMode::kNone;
}

void SwitchManager::Install() {
  const ClusterConfig& cc = cluster_->config();
  // The live switch keeps the running default clients across the
  // cut-over, so the *source* protocol must be switchable away from,
  // mirroring the target-side check in StartSwitch: a custom-client
  // initial protocol (e.g. zyzzyva's speculative client) would be
  // AdoptEpoch'd into a protocol whose replies it cannot parse and the
  // run would stall at zero throughput instead of failing loudly.
  Result<ProtocolBuild> initial = GetProtocol(current_protocol_, cc.f);
  if (!initial.ok()) {
    status_ = initial.status();
    return;
  }
  if (initial->client_factory || initial->RecommendedN(cc.f) != cc.n) {
    status_ = Status::InvalidArgument(
        "initial protocol '" + current_protocol_ +
        "' is not live-switchable at n=" + std::to_string(cc.n));
    return;
  }
  ClientConfig ctl;
  ctl.num_replicas = cc.n;
  ctl.reply_quorum = cc.f + 1;
  ctl.submit_policy = SubmitPolicy::kAll;
  ctl.retransmit_timeout_us = Millis(150);
  ctl.record_metrics = false;
  auto client = std::make_unique<ControlClient>(kSwitchControlClientId, ctl);
  control_ = client.get();
  cluster_->AddClient(std::move(client));
  if (spec_.controller_enabled) {
    controller_.emplace(spec_.controller, current_protocol_, cc.f, cc.n);
  }
  next_eval_at_ = cluster_->sim().now() + spec_.evaluate_every_us;
  if (!spec_.manual) {
    cluster_->sim().Schedule(spec_.poll_every_us, [this] { Tick(); });
  }
}

void SwitchManager::Step() {
  const SimTime now = cluster_->sim().now();
  if (!status_.ok()) return;
  if (in_progress_) {
    PollHandoff(now);
  } else if (next_forced_ < spec_.forced.size() &&
             now >= spec_.forced[next_forced_].at_us) {
    const ForcedSwitch& forced = spec_.forced[next_forced_++];
    StartSwitch(forced.target, "forced", "scripted");
  } else if (now >= next_eval_at_) {
    next_eval_at_ = now + spec_.evaluate_every_us;
    Evaluate(now);
  }
}

void SwitchManager::Tick() {
  Step();
  cluster_->sim().Schedule(spec_.poll_every_us, [this] { Tick(); });
}

void SwitchManager::Evaluate(SimTime now) {
  if (!controller_) return;
  WindowStats window = cursor_.Advance(now);
  std::optional<SwitchProposal> proposal = controller_->Observe(window);
  if (!proposal) return;
  // The budget guards controller-triggered switches only; scripted
  // (forced) switches are the harness's business and must not consume it.
  if (controller_switches_ >= spec_.max_switches) return;
  StartSwitch(proposal->target, DegradationSignatureName(proposal->signature),
              proposal->reason, proposal->signature);
  if (in_progress_) ++controller_switches_;
}

void SwitchManager::StartSwitch(const std::string& target,
                                const std::string& trigger,
                                const std::string& reason,
                                DegradationSignature sig) {
  const ClusterConfig& cc = cluster_->config();
  Result<ProtocolBuild> build = GetProtocol(target, cc.f);
  if (!build.ok()) {
    status_ = build.status();
    return;
  }
  if (build->client_factory || build->RecommendedN(cc.f) != cc.n) {
    status_ = Status::InvalidArgument("protocol '" + target +
                                      "' is not live-switchable at n=" +
                                      std::to_string(cc.n));
    return;
  }
  // Re-base the controller even for forced switches so its cool-down and
  // current-protocol tracking stay truthful.
  if (controller_) controller_->NoteSwitchStarted(target, sig);

  in_progress_ = true;
  target_ = target;
  target_build_ = *build;
  cut_seq_ = 0;
  reference_.reset();
  swapped_.assign(cluster_->num_replicas(), false);
  force_deadline_ = 0;
  last_frontier_ = 0;

  SwitchRecord rec;
  rec.from_epoch = epoch_;
  rec.to_epoch = epoch_ + 1;
  rec.from_protocol = current_protocol_;
  rec.to_protocol = target;
  rec.trigger = trigger;
  rec.reason = reason;
  rec.decided_at_us = cluster_->sim().now();
  records_.push_back(std::move(rec));

  cluster_->metrics().Increment("switch.initiated");
  control_->Enqueue(EncodeSwitchDirective({epoch_ + 1, target}));
}

void SwitchManager::PollHandoff(SimTime now) {
  SwitchRecord& rec = records_.back();
  const size_t n = cluster_->num_replicas();

  // Learn the cut from the first correct replica that *finalized* the
  // directive's execution. A speculative execution (PoE, Zyzzyva)
  // schedules the switch too, but RollbackTo revokes that schedule and
  // the final ordering may place the directive at a different seq with a
  // different cut. Latching a revocable cut could hang the handoff (real
  // cut lower: Get(cut_seq_) never succeeds) or seed successors from an
  // earlier checkpoint than replicas finalized (real cut higher). Once
  // finalized_seq covers switch_sched_seq the schedule is irrevocable,
  // and agreement on the finalized order fixes the same cut on every
  // correct replica.
  if (cut_seq_ == 0) {
    for (ReplicaId r = 0; r < n; ++r) {
      if (!IsCorrectSlot(r)) continue;
      const Replica& rep = cluster_->replica(r);
      if (rep.epoch() == epoch_ && rep.switch_pending() &&
          rep.switch_target_epoch() == epoch_ + 1 &&
          rep.finalized_seq() >= rep.switch_sched_seq()) {
        cut_seq_ = rep.switch_cut_seq();
        rec.cut_seq = cut_seq_;
        rec.cut_learned_at_us = now;
        break;
      }
    }
    if (cut_seq_ == 0) return;  // Directive not executed anywhere yet.
  }

  // Frontier push: closed-loop clients can all be parked waiting for
  // replies while the cut sits one partial batch away. When the correct
  // frontier stalls below the cut between polls, inject a no-op filler.
  SequenceNumber frontier = 0;
  bool stalled_below_cut = false;
  for (ReplicaId r = 0; r < n; ++r) {
    if (!IsCorrectSlot(r)) continue;
    Replica& rep = cluster_->replica(r);
    if (rep.epoch() != epoch_) continue;  // Already swapped.
    frontier = std::max(frontier, rep.finalized_seq());
  }
  if (frontier < cut_seq_ && frontier <= last_frontier_ && control_->Idle()) {
    stalled_below_cut = true;
  }
  last_frontier_ = std::max(last_frontier_, frontier);
  if (stalled_below_cut) {
    control_->Enqueue(
        KvOp::Put("!bftlab/filler", std::to_string(++filler_counter_)));
    ++rec.filler_ops;
    cluster_->metrics().Increment("switch.filler_ops");
  }

  // Swap every replica that reached the cut. Correct replicas must agree
  // on the handoff checkpoint digest; the first ready one sets the
  // reference the rest are checked against (cross-epoch agreement at the
  // cut — same-epoch agreement is the cluster oracle's job).
  for (ReplicaId r = 0; r < n; ++r) {
    if (swapped_[r]) continue;
    Replica& rep = cluster_->replica(r);
    if (rep.epoch() != epoch_) {
      swapped_[r] = true;
      continue;
    }
    if (!rep.ReadyToSwitch() || rep.switch_target_epoch() != epoch_ + 1) {
      continue;
    }
    Result<Checkpoint> cp = rep.checkpoints().Get(cut_seq_);
    if (!cp.ok()) continue;
    // The replica is quiesced at the cut, so its payload is built from
    // its live state.
    Result<Buffer> payload = rep.CheckpointPayload(cut_seq_);
    if (!payload.ok()) {
      status_ = payload.status();
      return;
    }
    if (IsCorrectSlot(r)) {
      if (!reference_) {
        reference_ = *cp;
        reference_->payload = *payload;
        rec.handoff_bytes = payload->size();
      } else if (cp->state_digest != reference_->state_digest) {
        std::ostringstream os;
        os << "SWITCH HANDOFF DIVERGENCE at cut " << cut_seq_ << ": replica "
           << r << " certifies " << cp->state_digest.ShortHex()
           << " but the reference is " << reference_->state_digest.ShortHex();
        status_ = Status::Internal(os.str());
        return;
      }
    }
    // Each replica's successor is seeded from its own cut checkpoint
    // (identical to the reference for correct replicas; a Byzantine
    // replica inherits whatever state it made for itself).
    Status st = Status::Ok();
    std::unique_ptr<Replica> next =
        BuildSuccessor(r, *payload, cp->state_digest, &st);
    if (!st.ok()) {
      status_ = st;
      return;
    }
    cluster_->ReplaceReplica(r, std::move(next));
    swapped_[r] = true;
  }

  if (!reference_) return;  // No correct replica ready yet.
  if (force_deadline_ == 0) force_deadline_ = now + spec_.handoff_timeout_us;

  bool all_swapped =
      std::all_of(swapped_.begin(), swapped_.end(), [](bool s) { return s; });
  if (!all_swapped && now >= force_deadline_) {
    // Laggards (crashed, Byzantine-silent, or mid-state-transfer) get the
    // cross-checked reference payload instead — the live-switch analogue
    // of checkpoint state transfer. A crashed slot is swapped while down;
    // the successor starts when the network Restart()s it.
    for (ReplicaId r = 0; r < n; ++r) {
      if (swapped_[r]) continue;
      Status st = Status::Ok();
      std::unique_ptr<Replica> next = BuildSuccessor(
          r, *reference_->payload, reference_->state_digest, &st);
      if (!st.ok()) {
        status_ = st;
        return;
      }
      cluster_->ReplaceReplica(r, std::move(next));
      swapped_[r] = true;
      ++rec.force_seeded;
      cluster_->metrics().Increment("switch.force_seeded");
    }
    all_swapped = true;
  }
  if (all_swapped) CompleteSwitch(now);
}

std::unique_ptr<Replica> SwitchManager::BuildSuccessor(ReplicaId id,
                                                       const Buffer& payload,
                                                       const Digest& digest,
                                                       Status* st) {
  const ClusterConfig& cc = cluster_->config();
  ReplicaConfig rc = cc.replica;
  rc.id = id;
  rc.n = cc.n;
  rc.f = cc.f;
  rc.epoch = epoch_ + 1;
  rc.auth = target_build_.descriptor.auth;
  auto byz = cc.byzantine.find(id);
  rc.byzantine = byz != cc.byzantine.end() ? byz->second : cc.replica.byzantine;
  std::unique_ptr<Replica> next = target_build_.replica_factory(rc);
  *st = next->SeedFromPayload(payload, digest);
  return next;
}

void SwitchManager::CompleteSwitch(SimTime now) {
  ++epoch_;
  ++completed_;
  current_protocol_ = target_;
  in_progress_ = false;

  SwitchRecord& rec = records_.back();
  rec.completed_at_us = now;

  // Cut the clients over: new reply quorum and submit policy, in-flight
  // requests re-submitted into the new epoch (answered from the
  // carried-over reply cache when already executed).
  const uint32_t quorum = target_build_.ReplyQuorum(cluster_->config().f);
  for (size_t i = 0; i < cluster_->num_clients(); ++i) {
    cluster_->client(i).AdoptEpoch(epoch_, quorum, target_build_.submit_policy);
  }
  control_->AdoptEpoch(epoch_, cluster_->config().f + 1, SubmitPolicy::kAll);
  cluster_->metrics().Increment("switch.completed");
}

void SwitchManager::FinalizeTelemetry() {
  const std::vector<SimTime>& commits = cluster_->metrics().commit_times();
  for (SwitchRecord& rec : records_) {
    if (rec.completed_at_us == 0) continue;  // Switch never finished.
    // Client-observed stall: the commit gap spanning the cut-over.
    SimTime before = 0;
    SimTime after = 0;
    for (SimTime t : commits) {
      if (t <= rec.completed_at_us) {
        before = t;
      } else {
        after = t;
        break;
      }
    }
    if (after > 0) {
      rec.stall_us = after - (before > 0 ? before : rec.decided_at_us);
    }
  }
}

}  // namespace bftlab
