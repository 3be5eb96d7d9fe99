// In-memory span log for the traced pass. Spans are recorded from the
// benchmark's own code around calls into each layer (name, start, end,
// parent, cell) and written once, at exit.

#ifndef BFTLAB_BENCH_SUITE_SPANS_H_
#define BFTLAB_BENCH_SUITE_SPANS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace bftlab {
namespace suite {

struct Span {
  uint64_t id = 0;      // 1-based.
  uint64_t parent = 0;  // Enclosing span's id, 0 at the top.
  std::string name;     // "<layer>.<call>", e.g. "sim.run_for".
  std::string cell;     // "<workload>/<cell label>".
  double start_s = 0;   // Seconds since the log was created.
  double end_s = 0;
};

class SpanLog {
 public:
  SpanLog();

  /// Tags spans opened from now on.
  void SetCell(std::string cell) { cell_ = std::move(cell); }

  /// Opens a span nested in the innermost open one; returns its handle.
  size_t Begin(std::string name);
  /// Closes the span (it must be the innermost open one); returns its
  /// duration in seconds.
  double End(size_t handle);

  /// Runs `fn` inside a span; returns the span's duration in seconds.
  template <typename Fn>
  double Time(std::string name, Fn&& fn) {
    const size_t handle = Begin(std::move(name));
    fn();
    return End(handle);
  }

  /// Summed duration of the spans called `name`, over the spans recorded
  /// since size() read `since`.
  double Total(const std::string& name, size_t since = 0) const;

  /// {"spans":[...]} with each span's self time; JsonWellFormed.
  std::string Json() const;

  size_t size() const { return spans_.size(); }

 private:
  double origin_s_ = 0;
  std::string cell_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

}  // namespace suite
}  // namespace bftlab

#endif  // BFTLAB_BENCH_SUITE_SPANS_H_
