// bench_suite: fixed workloads that measure bftlab's host cost (wall
// time, set-up time, memory) end to end through RunExperiment and
// RunShardedExperiment, plus a traced pass that re-drives the same cells
// through each layer's public functions. See README.md in this directory.

#ifndef BFTLAB_BENCH_SUITE_SUITE_H_
#define BFTLAB_BENCH_SUITE_SUITE_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench/suite/spans.h"
#include "core/experiment.h"
#include "core/shard/runner.h"

namespace bftlab {
namespace suite {

/// One entry-point call: a single-cluster experiment, or a sharded one
/// when `sharded` is set.
struct Cell {
  std::string label;
  ExperimentConfig single;
  std::optional<ShardedExperimentConfig> sharded;
};

struct Workload {
  std::string name;
  /// Virtual horizon of each cell (after the --smoke cut).
  SimTime horizon_us = 0;
  /// RunFor slice of the traced pass: 1 virtual second (after the cut).
  SimTime slice_us = 0;
  std::vector<Cell> cells;
};

/// The six workloads. `seed` offsets every cluster and Nemesis seed by
/// seed-1 (chaos offsets its index into a list of seeds on which every
/// chaos cell passes); `smoke` cuts every horizon to 1/20 (chaos keeps its
/// fault schedule and runs its first seed only).
std::vector<Workload> BuildWorkloads(uint64_t seed, bool smoke);

/// The set-up probe of a cell: the same entry point with the horizon cut
/// to 1 us, faults removed and no settle time.
Cell SetupVariant(const Cell& cell);

/// What one untraced entry-point call produced.
struct CellOutcome {
  bool ok = false;
  std::string error;
  uint64_t commits = 0;
  /// Simulator events (single-cluster cells only; 0 for sharded).
  uint64_t events = 0;
  /// ExperimentResult::Digest(), or SHA-256 of ShardedResult::Json().
  std::string digest;
  /// Wall time of the entry-point call.
  double wall_s = 0;
  // Virtual plane (ungated): requests/s, latency median and p99 over
  // `latency_samples` commits, replica messages per commit.
  double tput_rps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  uint64_t latency_samples = 0;
  double msgs_per_commit = 0;
};

/// Runs the cell through its entry point. Entry-point errors and oracle
/// violations come back as !ok.
CellOutcome RunCell(const Cell& cell);

/// One line per outcome; the child -> parent wire format.
std::string EncodeOutcomes(const std::vector<CellOutcome>& outcomes);
/// Inverse of EncodeOutcomes; false on a malformed line.
bool DecodeOutcomes(const std::string& text, std::vector<CellOutcome>* out);

struct Metric {
  double value = 0;
  std::string unit;
};

/// The traced pass over one workload.
struct TracedRun {
  /// Per-layer metrics by name; README.md defines each one.
  std::map<std::string, Metric> layers;
  /// Cells whose traced commits/events (or sharded digest) differ from
  /// `untraced`, or whose re-driven oracles failed; one line each.
  std::vector<std::string> mismatches;
  /// Wall time of the traced cells, spans included.
  double wall_s = 0;
};

/// Re-drives every cell of `workload` through each layer's public calls
/// in RunExperiment's order, recording spans into `spans`, and compares
/// each cell with its untraced outcome. Also times direct crypto calls
/// and the in-program Tracer on hot-txn's first 3 virtual seconds, built
/// from (`seed`, `smoke`).
TracedRun RunTraced(const Workload& workload, uint64_t seed, bool smoke,
                    const std::vector<CellOutcome>& untraced,
                    SpanLog* spans);

}  // namespace suite
}  // namespace bftlab

#endif  // BFTLAB_BENCH_SUITE_SUITE_H_
