// Measurement infrastructure: per-node traffic counters, latency
// histograms, commit accounting, and fairness bookkeeping. Every bench in
// bench/ reads its numbers from here.

#ifndef BFTLAB_SIM_METRICS_H_
#define BFTLAB_SIM_METRICS_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"

namespace bftlab {

/// Streaming log-bucketed histogram. Storage is O(log(max/min)) bucket
/// counters — never the sample count — so 10M-commit scale runs hold a
/// few KB instead of 80 MB of raw samples. Count, sum, min, and max are
/// exact (Mean() is exact; Percentile(0)/Percentile(100) return the true
/// extremes); interior quantiles resolve to a bucket's geometric
/// midpoint, within ~1% relative error at the 2% bucket growth factor.
class Histogram {
 public:
  void Add(double v);
  size_t count() const { return static_cast<size_t>(count_); }
  double Mean() const;                // Exact: sum / count.
  double Percentile(double p) const;  // p in [0, 100]; ~1% relative error.
  double Min() const;
  double Max() const;

  // --- Windowed queries ---------------------------------------------------
  // A Marker snapshots the bucket state at one instant; the *Since
  // queries describe exactly the samples recorded after the mark.
  // Empty windows return 0.
  struct Marker {
    uint64_t count = 0;
    double sum = 0;
    std::vector<uint64_t> buckets;
  };
  Marker Mark() const { return Marker{count_, sum_, buckets_}; }
  double MeanSince(const Marker& m) const;  // Exact over the window.
  double PercentileSince(const Marker& m, double p) const;

 private:
  /// Bucket width grows 2% per step; bucket 0 absorbs values <= 1.
  static size_t BucketIndex(double v);
  static double BucketValue(size_t idx);  // Geometric midpoint.

  std::vector<uint64_t> buckets_;  // Grown on demand to the max index.
  uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Per-node traffic and CPU accounting.
struct NodeStats {
  uint64_t msgs_sent = 0;
  uint64_t msgs_received = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  double crypto_cpu_us = 0;
  uint64_t msgs_dropped = 0;  // Sent but dropped by the network.
  /// Set once MetricsCollector::node() has handed this slot out. The slabs
  /// are indexed by id, so an id no actor holds leaves a default slot
  /// behind, and the per-node aggregates skip it.
  bool live = false;
};

/// One committed-request observation.
struct CommitRecord {
  SequenceNumber seq = 0;
  SimTime submit_time = 0;
  SimTime commit_time = 0;
};

/// Central collector shared by the network and all actors of one run.
class MetricsCollector {
 public:
  /// Per-node stats live in two flat vectors (replicas by id, clients by
  /// id - kClientIdBase): node() on the per-message hot path is an index,
  /// not a map walk. Slots materialize on first touch.
  NodeStats& node(NodeId id) {
    std::vector<NodeStats>& v =
        IsClientNode(id) ? client_stats_ : replica_stats_;
    size_t idx = IsClientNode(id) ? id - kClientIdBase : id;
    if (idx >= v.size()) v.resize(idx + 1);
    v[idx].live = true;
    return v[idx];
  }

  /// Records a request commit (called by clients when the reply quorum is
  /// reached, or by the harness from replica commit hooks).
  void RecordCommit(SequenceNumber seq, SimTime submit_time,
                    SimTime commit_time);

  uint64_t commits() const { return commits_; }
  const Histogram& commit_latency_us() const { return latency_us_; }
  bool has_commits() const { return has_commits_; }
  /// Commit-time window; only meaningful when has_commits().
  SimTime first_commit_time() const { return first_commit_; }
  SimTime last_commit_time() const { return last_commit_; }
  /// Commit times in arrival order (index i = the i-th accepted request);
  /// the switch telemetry uses this to measure the commit gap spanning a
  /// protocol handoff.
  const std::vector<SimTime>& commit_times() const { return commit_times_; }

  /// Throughput in commits/second over [start, end] simulated time.
  double Throughput(SimTime start, SimTime end) const;

  // --- Order-fairness bookkeeping (Q1) -----------------------------------
  // Clients record when each request was first submitted; one designated
  // replica records the global execution order. The inversion fraction
  // over all pairs measures how far commit order strays from submit
  // order (0 = perfectly fair).

  void RecordSubmission(ClientId client, RequestTimestamp ts, SimTime at) {
    submissions_[{client, ts}] = at;
  }
  void RecordExecution(ClientId client, RequestTimestamp ts) {
    execution_order_.emplace_back(client, ts);
  }
  /// Fraction of executed pairs whose submit order (separated by more
  /// than `margin_us`) was inverted in the execution order.
  double OrderInversionFraction(SimTime margin_us = 0) const;
  size_t executions_recorded() const { return execution_order_.size(); }

  /// Counter registry for protocol-specific events (view-changes,
  /// rollbacks, fast-path commits, fallbacks, ...).
  void Increment(const std::string& counter, uint64_t by = 1) {
    counters_[counter] += by;
  }
  uint64_t counter(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }
  const std::map<std::string, uint64_t>& counters() const { return counters_; }

  /// Per-message-type traffic accounting (keyed by Message::type()).
  void CountMessageType(uint32_t type) { msgs_by_type_[type]++; }
  const std::map<uint32_t, uint64_t>& msgs_by_type() const {
    return msgs_by_type_;
  }

  /// Total messages sent across all nodes.
  uint64_t TotalMsgsSent() const;
  /// Total bytes sent across all nodes.
  uint64_t TotalBytesSent() const;
  /// Max over nodes of (msgs_sent + msgs_received): the hotspot load.
  uint64_t MaxNodeMsgLoad() const;
  /// Coefficient of variation of per-node message load (load imbalance)
  /// over the nodes node() has handed out; 0 when there are none.
  double MsgLoadImbalance() const;

 private:
  std::vector<NodeStats> replica_stats_;
  std::vector<NodeStats> client_stats_;
  Histogram latency_us_;
  uint64_t commits_ = 0;
  bool has_commits_ = false;  // Explicit: commit_time 0 is a valid sample.
  SimTime first_commit_ = 0;
  SimTime last_commit_ = 0;
  std::vector<SimTime> commit_times_;
  std::map<std::string, uint64_t> counters_;
  std::map<uint32_t, uint64_t> msgs_by_type_;
  std::map<std::pair<ClientId, RequestTimestamp>, SimTime> submissions_;
  std::vector<std::pair<ClientId, RequestTimestamp>> execution_order_;
};

/// One window's worth of deltas as cut by MetricsWindowCursor: what
/// happened between two consecutive Advance() calls, not since the start
/// of the run.
struct WindowStats {
  SimTime window_start_us = 0;
  SimTime window_end_us = 0;
  uint64_t commits = 0;
  /// Latency distribution of exactly this window's commits.
  double latency_mean_us = 0;
  double latency_p50_us = 0;
  double latency_p99_us = 0;
  /// Per-counter deltas; only counters that moved appear.
  std::map<std::string, uint64_t> counter_deltas;

  uint64_t Counter(const std::string& name) const {
    auto it = counter_deltas.find(name);
    return it == counter_deltas.end() ? 0 : it->second;
  }
};

/// Converts the collector's cumulative totals into per-interval rates.
/// Each Advance(now) returns exactly what was recorded since the previous
/// Advance: the commit count, the latency distribution of just those
/// commits (a bucket-snapshot diff against the streaming histogram), and
/// the delta of every counter that moved. Degradation triggers read these
/// windows instead of cumulative totals, which drift: a counter that
/// spiked ten seconds ago should not keep a trigger armed forever.
class MetricsWindowCursor {
 public:
  explicit MetricsWindowCursor(const MetricsCollector* metrics)
      : metrics_(metrics) {}

  WindowStats Advance(SimTime now);

 private:
  const MetricsCollector* metrics_;
  SimTime last_advance_ = 0;
  Histogram::Marker latency_mark_;  // Bucket snapshot at the last cut.
  std::map<std::string, uint64_t> counter_marks_;
};

}  // namespace bftlab

#endif  // BFTLAB_SIM_METRICS_H_
