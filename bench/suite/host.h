// Host-plane helpers for bench_suite: wall clock, medians, and running a
// body of work in a forked child so that wait4() reports that work's own
// peak RSS.

#ifndef BFTLAB_BENCH_SUITE_HOST_H_
#define BFTLAB_BENCH_SUITE_HOST_H_

#include <functional>
#include <string>
#include <vector>

namespace bftlab {
namespace suite {

/// Monotonic wall clock, seconds.
double Now();

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// Outcome of RunInChild.
struct ChildRun {
  /// The child exited with status 0.
  bool ok = false;
  /// What the body appended to its output string.
  std::string output;
  /// The child's ru_maxrss, MiB.
  double peak_rss_mib = 0;
};

/// Forks, runs `body` in the child, ships the string it fills back
/// through a pipe, and reaps the child with wait4(). The caller must hold
/// no threads (the parallel sweep runner is never used here).
ChildRun RunInChild(const std::function<void(std::string*)>& body);

}  // namespace suite
}  // namespace bftlab

#endif  // BFTLAB_BENCH_SUITE_HOST_H_
