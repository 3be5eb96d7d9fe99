#include "sim/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace bftlab {

namespace {

constexpr double kBucketGrowth = 1.02;
const double kInvLogGrowth = 1.0 / std::log(kBucketGrowth);

}  // namespace

size_t Histogram::BucketIndex(double v) {
  if (!(v > 1.0)) return 0;  // Also absorbs NaN and negatives.
  return 1 + static_cast<size_t>(std::log(v) * kInvLogGrowth);
}

double Histogram::BucketValue(size_t idx) {
  if (idx == 0) return 1.0;
  // Geometric midpoint of the bucket [g^(idx-1), g^idx].
  return std::pow(kBucketGrowth, static_cast<double>(idx) - 0.5);
}

void Histogram::Add(double v) {
  size_t idx = BucketIndex(v);
  if (idx >= buckets_.size()) buckets_.resize(idx + 1, 0);
  buckets_[idx]++;
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
}

double Histogram::Mean() const {
  return count_ == 0 ? 0 : sum_ / static_cast<double>(count_);
}

double Histogram::Percentile(double p) const {
  if (count_ == 0) return 0;
  if (p <= 0) return min_;
  if (p >= 100) return max_;
  double rank = p / 100.0 * static_cast<double>(count_ - 1);
  uint64_t target = static_cast<uint64_t>(rank);
  uint64_t cum = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    cum += buckets_[i];
    if (cum > target) {
      return std::min(std::max(BucketValue(i), min_), max_);
    }
  }
  return max_;
}

double Histogram::Min() const { return count_ == 0 ? 0 : min_; }

double Histogram::Max() const { return count_ == 0 ? 0 : max_; }

double Histogram::MeanSince(const Marker& m) const {
  uint64_t n = count_ - m.count;
  if (n == 0) return 0;
  return (sum_ - m.sum) / static_cast<double>(n);
}

double Histogram::PercentileSince(const Marker& m, double p) const {
  uint64_t total = count_ - m.count;
  if (total == 0) return 0;
  double clamped_p = std::min(std::max(p, 0.0), 100.0);
  double rank = clamped_p / 100.0 * static_cast<double>(total - 1);
  uint64_t target = static_cast<uint64_t>(rank);
  uint64_t cum = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    uint64_t prev = i < m.buckets.size() ? m.buckets[i] : 0;
    cum += buckets_[i] - prev;
    if (cum > target) {
      // Window extremes are not tracked; clamp to the global envelope.
      return std::min(std::max(BucketValue(i), min_), max_);
    }
  }
  return max_;
}

void MetricsCollector::RecordCommit(SequenceNumber /*seq*/,
                                    SimTime submit_time,
                                    SimTime commit_time) {
  ++commits_;
  if (!has_commits_) {
    has_commits_ = true;
    first_commit_ = commit_time;
    last_commit_ = commit_time;
  } else {
    first_commit_ = std::min(first_commit_, commit_time);
    last_commit_ = std::max(last_commit_, commit_time);
  }
  commit_times_.push_back(commit_time);
  latency_us_.Add(static_cast<double>(commit_time - submit_time));
}

WindowStats MetricsWindowCursor::Advance(SimTime now) {
  WindowStats w;
  w.window_start_us = last_advance_;
  w.window_end_us = now;
  last_advance_ = now;

  const Histogram& lat = metrics_->commit_latency_us();
  w.commits = lat.count() - latency_mark_.count;
  w.latency_mean_us = lat.MeanSince(latency_mark_);
  w.latency_p50_us = lat.PercentileSince(latency_mark_, 50);
  w.latency_p99_us = lat.PercentileSince(latency_mark_, 99);
  latency_mark_ = lat.Mark();

  for (const auto& [name, value] : metrics_->counters()) {
    uint64_t& mark = counter_marks_[name];
    if (value > mark) w.counter_deltas[name] = value - mark;
    mark = value;
  }
  return w;
}

double MetricsCollector::Throughput(SimTime start, SimTime end) const {
  if (end <= start) return 0;
  return static_cast<double>(commits_) /
         (static_cast<double>(end - start) / 1e6);
}

double MetricsCollector::OrderInversionFraction(SimTime margin_us) const {
  // Collect the submit time of each executed request, in execution order.
  std::vector<SimTime> submit_times;
  submit_times.reserve(execution_order_.size());
  for (const auto& key : execution_order_) {
    auto it = submissions_.find(key);
    if (it != submissions_.end()) submit_times.push_back(it->second);
  }
  if (submit_times.size() < 2) return 0;
  // O(k^2) pair comparison: cap the sample to keep benches fast.
  if (submit_times.size() > 2000) submit_times.resize(2000);
  uint64_t comparable = 0, inverted = 0;
  for (size_t i = 0; i < submit_times.size(); ++i) {
    for (size_t j = i + 1; j < submit_times.size(); ++j) {
      SimTime a = submit_times[i], b = submit_times[j];
      if (a + margin_us < b) {
        ++comparable;  // Submitted clearly before and executed before: fair.
      } else if (b + margin_us < a) {
        ++comparable;
        ++inverted;  // Submitted clearly after but executed before.
      }
    }
  }
  return comparable == 0
             ? 0
             : static_cast<double>(inverted) / static_cast<double>(comparable);
}

uint64_t MetricsCollector::TotalMsgsSent() const {
  uint64_t total = 0;
  for (const NodeStats& stats : replica_stats_) total += stats.msgs_sent;
  for (const NodeStats& stats : client_stats_) total += stats.msgs_sent;
  return total;
}

uint64_t MetricsCollector::TotalBytesSent() const {
  uint64_t total = 0;
  for (const NodeStats& stats : replica_stats_) total += stats.bytes_sent;
  for (const NodeStats& stats : client_stats_) total += stats.bytes_sent;
  return total;
}

uint64_t MetricsCollector::MaxNodeMsgLoad() const {
  uint64_t max_load = 0;
  for (const NodeStats& stats : replica_stats_) {
    max_load = std::max(max_load, stats.msgs_sent + stats.msgs_received);
  }
  for (const NodeStats& stats : client_stats_) {
    max_load = std::max(max_load, stats.msgs_sent + stats.msgs_received);
  }
  return max_load;
}

double MetricsCollector::MsgLoadImbalance() const {
  std::vector<double> loads;
  for (const auto* slab : {&replica_stats_, &client_stats_}) {
    for (const NodeStats& stats : *slab) {
      if (!stats.live) continue;
      loads.push_back(
          static_cast<double>(stats.msgs_sent + stats.msgs_received));
    }
  }
  if (loads.empty()) return 0;
  double mean = 0;
  for (double l : loads) mean += l;
  mean /= static_cast<double>(loads.size());
  if (mean == 0) return 0;
  double var = 0;
  for (double l : loads) var += (l - mean) * (l - mean);
  var /= static_cast<double>(loads.size());
  return std::sqrt(var) / mean;
}

}  // namespace bftlab
