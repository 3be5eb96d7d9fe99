// bench_suite: end-to-end host cost of six fixed workloads, plus an
// optional traced pass for per-layer numbers. README.md in this directory
// documents the workloads, metrics and bounds.
//
//   bench_suite [--workload NAME] [--seed S] [--smoke] [--seconds T]
//               [--traced SPANS_PATH] [--json REPORT_PATH]
//
// Each pass over a workload's cells runs in a forked child (its
// ru_maxrss is the workload's peak RSS). Passes repeat while another one
// fits in T seconds (default 0: one pass), and each end-to-end metric is
// the median over passes. Exit status is 0 only when every cell passed its
// oracles, passes agreed, traced cells reproduced their untraced commits
// and events, and the JSON report is well-formed.

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/suite/host.h"
#include "bench/suite/spans.h"
#include "bench/suite/suite.h"
#include "crypto/sha256.h"
#include "obs/export.h"

namespace bftlab {
namespace suite {
namespace {

struct Options {
  uint64_t seed = 1;
  std::string workload;  // Empty = all.
  bool smoke = false;
  double seconds = 0;
  std::string traced_path;
  std::string json_path;
};

/// Set-up probe repetitions: at least kMinSetupReps (1 under --smoke),
/// then more until kSetupBudgetS has been spent, at most kMaxSetupReps.
constexpr int kMinSetupReps = 5;
constexpr int kMaxSetupReps = 2000;
constexpr double kSetupBudgetS = 0.5;

struct WorkloadReport {
  const Workload* workload = nullptr;
  std::vector<CellOutcome> first_pass;
  std::vector<double> commits_per_wall_s;  // One sample per pass.
  std::vector<double> peak_rss_mib;        // One sample per pass.
  std::vector<double> setup_s;             // One sample per repetition.
  size_t passes = 0;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> problems;
  std::optional<TracedRun> traced;

  double failed_frac() const {
    return attempted == 0 ? 1.0 : static_cast<double>(failed) / attempted;
  }
};

bool ParseOptions(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    char* end = nullptr;
    if (flag == "--smoke") {
      o->smoke = true;
    } else if (flag == "--seed" && has_value) {
      o->seed = std::strtoull(argv[++i], &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds" && has_value) {
      o->seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' || !(o->seconds >= 0)) return false;
    } else if (flag == "--workload" && has_value) {
      o->workload = argv[++i];
    } else if (flag == "--traced" && has_value) {
      o->traced_path = argv[++i];
    } else if (flag == "--json" && has_value) {
      o->json_path = argv[++i];
    } else {
      return false;
    }
  }
  return true;
}

void MeasureSetup(const Workload& w, bool smoke, WorkloadReport* rep) {
  ChildRun run = RunInChild([&](std::string* out) {
    const double start = Now();
    const int min_reps = smoke ? 1 : kMinSetupReps;
    const double budget = smoke ? 0 : kSetupBudgetS;
    for (int r = 0; r < min_reps ||
                    (r < kMaxSetupReps && Now() - start < budget);
         ++r) {
      double total = 0;
      for (const Cell& cell : w.cells) {
        CellOutcome o = RunCell(SetupVariant(cell));
        if (!o.ok) {
          *out += "fail " + cell.label + ": " + o.error + "\n";
          return;
        }
        total += o.wall_s;
      }
      char line[64];
      std::snprintf(line, sizeof(line), "%.17g\n", total);
      *out += line;
    }
  });
  std::istringstream lines(run.output);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("fail ", 0) == 0) {
      rep->problems.push_back("set-up probe " + line);
    } else {
      rep->setup_s.push_back(std::strtod(line.c_str(), nullptr));
    }
  }
  if (!run.ok || rep->setup_s.empty()) {
    rep->problems.push_back("set-up probe child failed");
  }
}

/// Repeats passes while one more, as long as the longest so far, still
/// ends within `seconds` of the first pass's start; at least one pass.
void MeasurePasses(const Workload& w, double seconds, WorkloadReport* rep) {
  const double start = Now();
  double longest_s = 0;
  for (;;) {
    const double pass_start = Now();
    ChildRun run = RunInChild([&](std::string* out) {
      std::vector<CellOutcome> outcomes;
      for (const Cell& cell : w.cells) outcomes.push_back(RunCell(cell));
      *out = EncodeOutcomes(outcomes);
    });
    std::vector<CellOutcome> outcomes;
    ++rep->passes;
    rep->attempted += w.cells.size();
    if (!run.ok || !DecodeOutcomes(run.output, &outcomes) ||
        outcomes.size() != w.cells.size()) {
      rep->failed += w.cells.size();
      rep->problems.push_back("pass " + std::to_string(rep->passes) +
                              ": child died");
      return;
    }
    uint64_t commits = 0;
    double wall_s = 0;
    for (size_t i = 0; i < outcomes.size(); ++i) {
      const CellOutcome& o = outcomes[i];
      commits += o.commits;
      wall_s += o.wall_s;
      if (!o.ok) {
        ++rep->failed;
        rep->problems.push_back(w.cells[i].label + ": " + o.error);
      } else if (rep->passes > 1 &&
                 o.digest != rep->first_pass[i].digest) {
        rep->problems.push_back(w.cells[i].label +
                                ": result differs between passes");
      }
    }
    if (rep->passes == 1) rep->first_pass = outcomes;
    rep->commits_per_wall_s.push_back(wall_s > 0 ? commits / wall_s : 0);
    rep->peak_rss_mib.push_back(run.peak_rss_mib);
    longest_s = std::max(longest_s, Now() - pass_start);
    if (Now() - start + longest_s > seconds) return;
  }
}

/// SHA-256 over the cells' result digests, in cell order.
std::string CombinedDigest(const std::vector<CellOutcome>& outcomes) {
  Sha256 h;
  for (const CellOutcome& o : outcomes) h.Update(Slice(o.digest));
  return h.Finalize().ToHex();
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricJson(double value, const std::string& unit,
                       const std::vector<double>& samples) {
  std::string s = "{\"value\":" + Num(value) + ",\"unit\":\"" +
                  JsonEscape(unit) + "\",\"samples\":[";
  for (size_t i = 0; i < samples.size(); ++i) {
    if (i > 0) s += ",";
    s += Num(samples[i]);
  }
  return s + "]}";
}

struct VirtualPlane {
  double tput_rps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  uint64_t samples = 0;
  double msgs_per_commit = 0;
};

/// Across cells: mean per-cell throughput, median of the cell medians,
/// the worst cell p99, and the commit-weighted messages per commit.
VirtualPlane Virtual(const std::vector<CellOutcome>& cells) {
  VirtualPlane v;
  std::vector<double> p50s;
  uint64_t commits = 0;
  for (const CellOutcome& o : cells) {
    v.tput_rps += o.tput_rps / static_cast<double>(cells.size());
    p50s.push_back(o.p50_ms);
    v.p99_ms = std::max(v.p99_ms, o.p99_ms);
    v.samples += o.latency_samples;
    v.msgs_per_commit += o.msgs_per_commit * static_cast<double>(o.commits);
    commits += o.commits;
  }
  v.p50_ms = Median(p50s);
  if (commits > 0) v.msgs_per_commit /= static_cast<double>(commits);
  return v;
}

std::string ReportJson(const Options& o,
                       const std::vector<WorkloadReport>& reports) {
  std::ostringstream os;
  os << "{\"manifest\":{\"git_sha\":\"" << JsonEscape(BENCH_SUITE_GIT_SHA)
     << "\",\"build_type\":\"" << JsonEscape(BENCH_SUITE_BUILD_TYPE)
     << "\",\"compiler\":\"" << JsonEscape(BENCH_SUITE_COMPILER)
     << "\",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
     << ",\"seed\":" << o.seed << ",\"smoke\":"
     << (o.smoke ? "true" : "false") << ",\"seconds\":" << Num(o.seconds)
     << ",\"horizons_us\":{";
  for (size_t i = 0; i < reports.size(); ++i) {
    os << (i > 0 ? "," : "") << "\"" << reports[i].workload->name
       << "\":" << reports[i].workload->horizon_us;
  }
  os << "}},\"workloads\":[";
  for (size_t i = 0; i < reports.size(); ++i) {
    const WorkloadReport& r = reports[i];
    const Workload& w = *r.workload;
    const VirtualPlane v = Virtual(r.first_pass);
    os << (i > 0 ? ",\n" : "") << "{\"name\":\"" << JsonEscape(w.name)
       << "\",\"cells\":" << w.cells.size() << ",\"passes\":" << r.passes
       << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
       << ",\"correct\":" << (r.problems.empty() ? "true" : "false")
       << ",\"metrics\":{\"commits_per_wall_s\":"
       << MetricJson(Median(r.commits_per_wall_s), "commits/s",
                     r.commits_per_wall_s)
       << ",\"setup_s\":" << MetricJson(Median(r.setup_s), "s", r.setup_s)
       << ",\"peak_rss_mib\":"
       << MetricJson(Median(r.peak_rss_mib), "MiB", r.peak_rss_mib)
       << ",\"failed_frac\":" << MetricJson(r.failed_frac(), "ratio", {})
       << "},\"virtual\":{\"tput_rps\":" << Num(v.tput_rps)
       << ",\"p50_ms\":" << Num(v.p50_ms) << ",\"p99_ms\":" << Num(v.p99_ms)
       << ",\"samples\":" << v.samples
       << ",\"msgs_per_commit\":" << Num(v.msgs_per_commit)
       << ",\"digest\":\"" << CombinedDigest(r.first_pass) << "\"}";
    if (r.traced) {
      os << ",\"layers\":{";
      bool first = true;
      for (const auto& [name, m] : r.traced->layers) {
        os << (first ? "" : ",") << "\"" << JsonEscape(name)
           << "\":" << MetricJson(m.value, m.unit, {});
        first = false;
      }
      os << "}";
    }
    os << ",\"problems\":[";
    for (size_t p = 0; p < r.problems.size(); ++p) {
      os << (p > 0 ? "," : "") << "\"" << JsonEscape(r.problems[p]) << "\"";
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

void PrintReport(const WorkloadReport& r) {
  const Workload& w = *r.workload;
  const VirtualPlane v = Virtual(r.first_pass);
  std::printf("%-13s cells=%-3zu passes=%-2zu commits_per_wall_s=%-10.1f "
              "setup_s=%-10.6f peak_rss_mib=%-8.1f failed_frac=%.4f\n",
              w.name.c_str(), w.cells.size(), r.passes,
              Median(r.commits_per_wall_s), Median(r.setup_s),
              Median(r.peak_rss_mib), r.failed_frac());
  std::printf("  virtual.tput_rps=%.1f virtual.p50_ms=%.3f "
              "virtual.p99_ms=%.3f (n=%" PRIu64 ") "
              "virtual.msgs_per_commit=%.2f virtual.digest=%.16s\n",
              v.tput_rps, v.p50_ms, v.p99_ms, v.samples, v.msgs_per_commit,
              CombinedDigest(r.first_pass).c_str());
  if (r.traced) {
    for (const auto& [name, m] : r.traced->layers) {
      std::printf("  %-34s %14.6g %s\n", name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  for (const std::string& p : r.problems) {
    std::printf("  PROBLEM: %s\n", p.c_str());
  }
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text << "\n";
  return out.good();
}

int Main(int argc, char** argv) {
  Options o;
  if (!ParseOptions(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: bench_suite [--workload NAME] [--seed S] "
                 "[--smoke] [--seconds T] [--traced PATH] [--json PATH]\n");
    return 2;
  }
  if (std::strcmp(BENCH_SUITE_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "WARNING: bench_suite built as '%s', not Release; host-cost "
                 "numbers are not comparable.\n",
                 BENCH_SUITE_BUILD_TYPE);
  }
  std::vector<Workload> workloads = BuildWorkloads(o.seed, o.smoke);
  std::vector<WorkloadReport> reports;
  for (const Workload& w : workloads) {
    if (!o.workload.empty() && w.name != o.workload) continue;
    WorkloadReport rep;
    rep.workload = &w;
    reports.push_back(std::move(rep));
  }
  if (reports.empty()) {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }

  // Untraced passes first, each in a child: the traced pass runs in this
  // process and would otherwise inflate the children's inherited RSS.
  for (WorkloadReport& r : reports) {
    MeasureSetup(*r.workload, o.smoke, &r);
    MeasurePasses(*r.workload, o.seconds, &r);
  }
  SpanLog spans;
  if (!o.traced_path.empty()) {
    for (WorkloadReport& r : reports) {
      if (r.first_pass.size() != r.workload->cells.size()) continue;
      r.traced =
          RunTraced(*r.workload, o.seed, o.smoke, r.first_pass, &spans);
      r.attempted += r.workload->cells.size();
      r.failed += r.traced->mismatches.size();
      for (const std::string& m : r.traced->mismatches) {
        r.problems.push_back("traced " + m);
      }
    }
  }

  bool ok = true;
  for (const WorkloadReport& r : reports) {
    PrintReport(r);
    ok = ok && r.problems.empty();
  }
  if (!o.traced_path.empty() && !WriteFile(o.traced_path, spans.Json())) {
    std::fprintf(stderr, "cannot write %s\n", o.traced_path.c_str());
    ok = false;
  }
  const std::string report = ReportJson(o, reports);
  std::string json_error;
  if (!JsonWellFormed(report, &json_error)) {
    std::fprintf(stderr, "JSON report malformed: %s\n", json_error.c_str());
    ok = false;
  } else if (!o.json_path.empty() && !WriteFile(o.json_path, report)) {
    std::fprintf(stderr, "cannot write %s\n", o.json_path.c_str());
    ok = false;
  }
  std::printf("%s\n", ok ? "[SUITE-OK]" : "[SUITE-FAIL]");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace suite
}  // namespace bftlab

int main(int argc, char** argv) { return bftlab::suite::Main(argc, argv); }
