// SwitchManager: the agreed live-switch mechanism. Proposes a SWITCH
// directive as an ordinary ordered request (so the running protocol
// totally orders its own replacement), waits for every replica to
// quiesce at the derived checkpoint-boundary cut, cross-checks the cut
// checkpoint digest across correct replicas, then swaps each replica
// in place for a freshly-built next-epoch instance seeded from that
// checkpoint payload, and finally cuts the clients over.
//
// Deployed as harness-side orchestration (the trusted operator of the
// simulated cluster); the agreement-critical pieces — directive
// ordering, cut derivation, quiesce, checkpoint certification — all run
// inside the replicated protocol itself.

#ifndef BFTLAB_CORE_SWITCH_MANAGER_H_
#define BFTLAB_CORE_SWITCH_MANAGER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/registry.h"
#include "core/switch/controller.h"
#include "protocols/common/cluster.h"

namespace bftlab {

/// Node id of the manager's control client (directive + filler traffic).
inline constexpr NodeId kSwitchControlClientId = kClientIdBase + (1u << 15);

/// A scripted switch (tests and benches that bypass the controller).
struct ForcedSwitch {
  std::string target;
  SimTime at_us = 0;
};

struct AdaptiveSpec {
  /// Run the degradation controller (forced switches work either way).
  bool controller_enabled = true;
  ControllerConfig controller;
  /// Controller window length.
  SimTime evaluate_every_us = Millis(250);
  /// Handoff progress polling period.
  SimTime poll_every_us = Millis(20);
  /// After the first correct replica is ready, laggards that have not
  /// reached the cut within this budget are force-seeded from the
  /// cross-checked reference checkpoint (the live-switch analogue of
  /// checkpoint state transfer).
  SimTime handoff_timeout_us = Millis(800);
  /// Scripted switches, fired in order when their time passes.
  std::vector<ForcedSwitch> forced;
  /// Guard rail on controller-triggered switches.
  uint64_t max_switches = 8;
  /// Manual drive: Install() registers the control client but schedules
  /// no poll loop; the owner calls Step() itself. Used by the schedule
  /// explorer, where timer-driven ticks would pollute the choice space.
  bool manual = false;
};

/// Telemetry for one switch, start to finish.
struct SwitchRecord {
  uint64_t from_epoch = 0;
  uint64_t to_epoch = 0;
  std::string from_protocol;
  std::string to_protocol;
  /// Degradation signature name, or "forced".
  std::string trigger;
  std::string reason;
  SimTime decided_at_us = 0;
  /// Directive executed: first correct replica scheduled the cut.
  SimTime cut_learned_at_us = 0;
  SimTime completed_at_us = 0;
  SequenceNumber cut_seq = 0;
  /// Size of the handoff checkpoint payload (snapshot + reply cache).
  uint64_t handoff_bytes = 0;
  /// No-op requests injected to push a stalled frontier to the cut.
  uint64_t filler_ops = 0;
  /// Replicas force-seeded after the handoff timeout.
  uint32_t force_seeded = 0;
  /// Client-observed commit gap spanning the cut-over (filled by
  /// FinalizeTelemetry after the run).
  SimTime stall_us = 0;

  std::string Json() const;
};

/// Orchestrates live protocol switches over one Cluster.
class SwitchManager {
 public:
  /// `initial_protocol` must be the protocol the cluster was built with.
  SwitchManager(Cluster* cluster, std::string initial_protocol,
                AdaptiveSpec spec);
  ~SwitchManager();

  /// Registers the control client and schedules the evaluation/poll
  /// loop. Must be called before Cluster::Start().
  void Install();

  /// One evaluation/poll step, exactly what a timer tick performs. Only
  /// meaningful in manual mode; must be called outside event handlers.
  void Step();

  /// Computes per-switch stall windows from the run's commit telemetry;
  /// call once after the run.
  void FinalizeTelemetry();

  /// First error encountered (handoff digest divergence, bad forced
  /// target); ok while everything holds.
  const Status& status() const { return status_; }
  const std::vector<SwitchRecord>& records() const { return records_; }
  uint64_t epoch() const { return epoch_; }
  const std::string& current_protocol() const { return current_protocol_; }
  bool switch_in_progress() const { return in_progress_; }
  /// Completed switches.
  uint64_t switches_completed() const { return completed_; }

 private:
  class ControlClient;

  void Tick();
  void Evaluate(SimTime now);
  void StartSwitch(const std::string& target, const std::string& trigger,
                   const std::string& reason,
                   DegradationSignature sig = DegradationSignature::kNone);
  void PollHandoff(SimTime now);
  /// Builds the next-epoch replica for slot `id` seeded from `payload`
  /// (verified against the checkpoint `digest`).
  std::unique_ptr<Replica> BuildSuccessor(ReplicaId id, const Buffer& payload,
                                          const Digest& digest, Status* st);
  void CompleteSwitch(SimTime now);
  bool IsCorrectSlot(ReplicaId id) const;

  Cluster* cluster_;
  AdaptiveSpec spec_;
  std::string current_protocol_;
  uint64_t epoch_ = 0;
  uint64_t completed_ = 0;
  ControlClient* control_ = nullptr;  // Owned by the cluster.
  MetricsWindowCursor cursor_;
  std::optional<DegradationController> controller_;
  Status status_ = Status::Ok();
  SimTime next_eval_at_ = 0;
  size_t next_forced_ = 0;
  /// Controller-triggered switches started (spec_.max_switches budget;
  /// scripted switches are excluded).
  uint64_t controller_switches_ = 0;
  uint64_t filler_counter_ = 0;
  std::vector<SwitchRecord> records_;

  // In-flight switch state.
  bool in_progress_ = false;
  std::string target_;
  ProtocolBuild target_build_;
  SequenceNumber cut_seq_ = 0;
  /// Cross-checked handoff checkpoint from the first ready correct
  /// replica, holding its payload for force-seeded laggards.
  std::optional<Checkpoint> reference_;
  std::vector<bool> swapped_;
  SimTime force_deadline_ = 0;
  SequenceNumber last_frontier_ = 0;
};

}  // namespace bftlab

#endif  // BFTLAB_CORE_SWITCH_MANAGER_H_
