#include "protocols/themis/themis_replica.h"

#include <algorithm>

#include "sim/metrics.h"
#include "sim/network.h"
#include "smr/kv_state_machine.h"

namespace bftlab {

ThemisReplica::ThemisReplica(ReplicaConfig config,
                             std::unique_ptr<StateMachine> state_machine,
                             ThemisOptions options)
    : PbftReplica(config, std::move(state_machine)), options_(options) {}

void ThemisReplica::Start() {
  PbftReplica::Start();
  SetTimer(options_.round_us, kRoundTimer);
}

void ThemisReplica::OnClientRequest(NodeId /*from*/,
                                    const ClientRequest& request) {
  // Record the local receive order (clients broadcast to all replicas).
  Digest digest = request.ComputeDigest();
  if (arrival_rank_.emplace(digest, arrival_counter_).second) {
    ++arrival_counter_;
    arrival_sequence_.push_back(digest);
    arrival_time_.emplace(digest, Now());
  }
  // Do NOT relay to the leader (reports carry the information) and do not
  // propose directly: proposals are gated on fair-order reports. Backups
  // still arm the censorship timer via the base class (passing a replica
  // id as the source suppresses the relay).
  if (!IsLeader()) {
    PbftReplica::OnClientRequest(config().id, request);
  }
}

void ThemisReplica::OnRequestExecuted(const ClientRequest& request,
                                      bool speculative) {
  Digest digest = request.ComputeDigest();
  arrival_rank_.erase(digest);
  arrival_time_.erase(digest);
  arrival_sequence_.erase(std::remove(arrival_sequence_.begin(),
                                      arrival_sequence_.end(), digest),
                          arrival_sequence_.end());
  PbftReplica::OnRequestExecuted(request, speculative);
}

void ThemisReplica::SendOrderReport() {
  if (arrival_sequence_.empty()) return;
  auto report = std::make_shared<ThemisOrderReportMessage>(
      round_, config().id, arrival_sequence_);
  ChargeAuthSend(1, report->WireSize());
  if (IsLeader()) {
    latest_reports_[config().id] = arrival_sequence_;
  } else {
    Send(leader(), std::move(report));
  }
}

void ThemisReplica::OnTimer(uint64_t tag) {
  if (tag == kRoundTimer) {
    ++round_;
    SendOrderReport();
    if (IsLeader() && HasPending()) ProposeAvailable();
    SetTimer(options_.round_us, kRoundTimer);
    return;
  }
  PbftReplica::OnTimer(tag);
}

void ThemisReplica::OnProtocolMessage(NodeId from, const MessagePtr& msg) {
  switch (msg->type()) {
    case kThemisOrderReport: {
      const auto& report =
          static_cast<const ThemisOrderReportMessage&>(*msg);
      ChargeAuthVerify(report.WireSize());
      if (IsLeader()) {
        latest_reports_[report.replica()] = report.order();
        if (HasPending()) ProposeAvailable();
      }
      return;
    }
    case kThemisBundle: {
      const auto& bundle = static_cast<const ThemisBundleMessage&>(*msg);
      if (from == leader()) {
        ChargeAuthVerify(bundle.WireSize());
        bundles_[bundle.seq()] = bundle.reports();
        // Bounded memory: drop bundles far below the newest.
        while (!bundles_.empty() &&
               bundles_.begin()->first + 256 < bundle.seq()) {
          bundles_.erase(bundles_.begin());
        }
        // Jitter may deliver a proposal before its bundle: drain buffers.
        std::vector<std::pair<NodeId, MessagePtr>> buffered;
        buffered.swap(buffered_proposals_);
        for (auto& [src, proposal] : buffered) {
          OnProtocolMessage(src, proposal);  // Re-dispatch (may re-buffer).
        }
      }
      return;
    }
    case kPbftPrePrepare: {
      const auto& proposal = static_cast<const PrePrepareMessage&>(*msg);
      if (bundles_.count(proposal.seq()) == 0 &&
          buffered_proposals_.size() < 64) {
        buffered_proposals_.emplace_back(from, msg);
        return;
      }
      PbftReplica::OnProtocolMessage(from, msg);
      return;
    }
    default:
      PbftReplica::OnProtocolMessage(from, msg);
      return;
  }
}

std::vector<Digest> ThemisReplica::FairOrder(
    const std::map<ReplicaId, std::vector<Digest>>& reports) const {
  // Threshold: a request is orderable once >= max(f+1, ceil(γ * (n-f)))
  // reports contain it (f+1 prevents fabricated entries).
  size_t needed = std::max<size_t>(
      f() + 1,
      static_cast<size_t>(options_.gamma * static_cast<double>(n() - f()) +
                          0.999999));

  std::map<Digest, std::vector<uint64_t>> ranks;
  for (const auto& [replica, order] : reports) {
    for (size_t i = 0; i < order.size(); ++i) {
      ranks[order[i]].push_back(i);
    }
  }

  struct Entry {
    uint64_t median;
    Digest digest;
  };
  std::vector<Entry> orderable;
  for (auto& [digest, positions] : ranks) {
    if (positions.size() < needed) continue;
    std::sort(positions.begin(), positions.end());
    orderable.push_back(Entry{positions[positions.size() / 2], digest});
  }
  std::sort(orderable.begin(), orderable.end(),
            [](const Entry& a, const Entry& b) {
              if (a.median != b.median) return a.median < b.median;
              return a.digest < b.digest;
            });

  std::vector<Digest> out;
  out.reserve(orderable.size());
  for (const Entry& e : orderable) out.push_back(e.digest);
  return out;
}

Batch ThemisReplica::SelectBatch() {
  // Need reports from n-f replicas (including our own).
  latest_reports_[config().id] = arrival_sequence_;
  if (latest_reports_.size() < n() - f()) return Batch{};

  std::vector<Digest> fair = FairOrder(latest_reports_);
  Batch batch;
  for (const Digest& d : fair) {
    if (batch.requests.size() >= config().batch_size) break;
    const ClientRequest* req = FindPooled(d);
    if (req == nullptr) continue;  // Body unknown or already executed.
    batch.requests.push_back(*req);
  }
  if (batch.requests.empty()) return Batch{};
  for (const ClientRequest& r : batch.requests) {
    RemoveFromPool(r.ComputeDigest());
  }

  // Broadcast the justifying bundle, tagged with the sequence number the
  // subsequent pre-prepare will carry (next_seq_ is assigned to it).
  auto bundle = std::make_shared<ThemisBundleMessage>(round_, next_seq_,
                                                      latest_reports_);
  ChargeAuthSend(n() - 1, bundle->WireSize());
  Multicast(OtherReplicas(), bundle);
  metrics().Increment("themis.bundles");
  return batch;
}

bool ThemisReplica::ValidateProposal(const PrePrepareMessage& msg) {
  auto bundle = bundles_.find(msg.seq());
  if (bundle == bundles_.end()) {
    metrics().Increment("themis.missing_bundle");
    return false;
  }
  // Recompute the fair order and require the proposed batch to be
  // order-consistent with it (a subsequence): out-of-order proposals are
  // rejected outright. Skipping an orderable request is tolerated while
  // it is young (it may be in flight in an earlier proposal the leader
  // already sent), but a request this backup has held for many rounds
  // that keeps being passed over marks the leader as censoring.
  const SimTime age_limit = 10 * options_.round_us;
  std::vector<Digest> fair = FairOrder(bundle->second);
  size_t cursor = 0;
  for (const ClientRequest& r : msg.batch().requests) {
    Digest d = r.ComputeDigest();
    while (cursor < fair.size() && fair[cursor] != d) {
      const Digest& skipped = fair[cursor];
      auto seen = arrival_time_.find(skipped);
      if (seen != arrival_time_.end() && InPool(skipped) &&
          Now() - seen->second > age_limit) {
        metrics().Increment("themis.censorship_detected");
        return false;
      }
      ++cursor;
    }
    if (cursor == fair.size()) {
      metrics().Increment("themis.unfair_proposals");
      return false;
    }
    ++cursor;
  }
  return true;
}

std::unique_ptr<Replica> MakeThemisReplica(const ReplicaConfig& config) {
  return ThemisFactory(ThemisOptions())(config);
}

ReplicaFactory ThemisFactory(ThemisOptions options) {
  return [options](const ReplicaConfig& config) {
    return std::make_unique<ThemisReplica>(
        config, std::make_unique<KvStateMachine>(), options);
  };
}

}  // namespace bftlab
