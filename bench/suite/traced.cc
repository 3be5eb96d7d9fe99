// The traced pass. Each single-cluster cell is composed from the public
// calls RunExperiment makes, in its order — GetProtocol, the Cluster
// constructor, Start, the Nemesis, RunFor (here in 1-virtual-second
// slices), the metrics queries, the commit-chain hash and the oracles —
// with a span around each call. Slicing RunFor does not change the run:
// the simulator executes the same events in the same order, which the
// commits/events comparison against the untraced cell checks. Only the
// RunExperiment features the workloads use are composed (no scheduled
// crashes, partitions, slow windows or live switching). Spans live in the
// benchmark only; nothing inside src/ is instrumented.

#include <algorithm>
#include <optional>

#include "bench/suite/host.h"
#include "bench/suite/suite.h"
#include "chaos/history.h"
#include "chaos/linearizability.h"
#include "core/registry.h"
#include "core/shard/atomicity.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "obs/trace.h"

namespace bftlab {
namespace suite {
namespace {

/// Keeps a computed digest alive past the optimizer.
volatile uint8_t g_sink = 0;
void Keep(const Digest& digest) { g_sink = g_sink + digest.AsSlice()[0]; }

/// Wall time and commits of one RunFor slice.
struct Slice {
  double wall_s = 0;
  uint64_t commits = 0;
};

/// What re-driving one cell produced.
struct CellTrace {
  std::string problem;  // Empty when the cell and its oracles passed.
  double run_s = 0;     // Wall time inside the simulation calls.
  uint64_t commits = 0;
  uint64_t events = 0;
};

/// Per-layer totals over a workload's cells.
struct Totals {
  uint64_t events = 0;
  uint64_t commits = 0;
  uint64_t peak_live_events = 0;
  uint64_t peak_inbox_packets = 0;
  uint64_t replica_msgs = 0;
  uint64_t replica_bytes = 0;
  Slice first, last;
  std::map<std::string, double> family_wall_s;
  uint64_t view_changes = 0;
  double checkpoint_est_s = 0;
  uint64_t checkpoints_taken = 0;
  double snapshot_kib_end = 0;
  uint64_t txn_commits = 0;
  uint64_t txn_failed = 0;
  uint64_t client_retransmissions = 0;
  uint64_t state_transfers = 0;
  uint64_t lin_ops_checked = 0;
  uint64_t faults_injected = 0;
  double recovery_ms_max = 0;
  uint64_t shard_txns = 0;
  uint64_t shard_two_pc = 0;
  uint64_t shard_committed = 0;
  uint64_t shard_aborted = 0;
  uint64_t gap_retries = 0;
  uint64_t blocked_retries = 0;
  uint64_t recovery_takeovers = 0;
};

/// Leader replacements across families: view changes started (pbft and
/// its descendants, poe, minbft), pacemaker timeouts (hotstuff family)
/// and wasted rounds (tendermint).
uint64_t ViewChanges(const std::map<std::string, uint64_t>& counters) {
  uint64_t total = 0;
  for (const auto& [name, value] : counters) {
    if (name.ends_with(".view_change_started") ||
        name == "hotstuff.pacemaker_timeouts" ||
        name == "tendermint.rounds_wasted") {
      total += value;
    }
  }
  return total;
}

/// RunExperiment's ExperimentConfig -> ClusterConfig mapping.
ClusterConfig MakeClusterConfig(const ExperimentConfig& config,
                                const ProtocolBuild& build) {
  ClusterConfig cc;
  cc.n = config.n_override != 0 ? config.n_override
                                : build.RecommendedN(config.f);
  cc.f = config.f;
  cc.num_clients = config.num_clients;
  cc.seed = config.seed;
  cc.net = config.net;
  cc.cost_model = config.cost_model;
  cc.replica.batch_size = config.batch_size;
  cc.replica.batch_timeout_us = config.batch_timeout_us;
  cc.replica.checkpoint_interval = config.checkpoint_interval;
  cc.replica.view_change_timeout_us = config.view_change_timeout_us;
  cc.replica.view_change_timeout_cap_us = config.view_change_timeout_cap_us;
  cc.replica.auth = config.auth_override.value_or(build.descriptor.auth);
  cc.replica.verify_trusted_ui = config.verify_trusted_ui;
  cc.client.reply_quorum = build.ReplyQuorum(config.f);
  cc.client.submit_policy = build.submit_policy;
  cc.client.retransmit_timeout_us = config.client_retransmit_us;
  cc.client.retransmit_backoff = config.client_backoff;
  cc.client.retransmit_cap_us = config.client_retransmit_cap_us;
  cc.client.op_generator = config.op_generator;
  cc.client.op_phases = config.op_phases;
  cc.byzantine = config.byzantine;
  return cc;
}

/// Re-drives one single-cluster cell.
CellTrace TraceSingle(const ExperimentConfig& config, SimTime slice_us,
                      SpanLog* spans, Totals* t) {
  CellTrace out;
  const size_t handle = spans->Begin("protocols.get");
  Result<ProtocolBuild> build = GetProtocol(config.protocol, config.f);
  spans->End(handle);
  if (!build.ok()) {
    out.problem = build.status().ToString();
    return out;
  }

  ClusterConfig cc = MakeClusterConfig(config, *build);
  History history;
  if (config.nemesis) {
    Nemesis::ApplyNetworkDefaults(*config.nemesis, &cc.net);
    for (const auto& [id, byz] :
         Nemesis::ByzantineOverrides(*config.nemesis, cc.n, cc.f)) {
      cc.byzantine.emplace(id, byz);
    }
    cc.client.history = &history;
  }

  std::optional<Cluster> cluster;
  spans->Time("protocols.build", [&] {
    cluster.emplace(std::move(cc), build->replica_factory,
                    build->client_factory);
  });
  std::optional<Nemesis> nemesis;
  spans->Time("protocols.start", [&] {
    cluster->Start();
    if (config.nemesis) {
      nemesis.emplace(&*cluster, *config.nemesis);
      nemesis->Install();
    }
  });

  MetricsCollector& m = cluster->metrics();
  std::vector<Slice> slices;
  uint64_t commits_before = 0, checkpoints_before = 0;
  size_t snapshot_bytes = 0;
  for (SimTime done = 0; done < config.duration_us;) {
    const SimTime step = std::min(slice_us, config.duration_us - done);
    Slice s;
    s.wall_s = spans->Time("sim.run_for", [&] { cluster->RunFor(step); });
    done += step;
    out.run_s += s.wall_s;
    const uint64_t commits = cluster->TotalAccepted();
    s.commits = commits - commits_before;
    commits_before = commits;
    slices.push_back(s);
    // Checkpoint cost estimate: one Snapshot() + SHA-256 of replica 0's
    // state now, times the checkpoints all replicas took in this slice.
    const uint64_t checkpoints = m.counter("replica.checkpoints_taken");
    const double probe_s = spans->Time("smr.checkpoint_probe", [&] {
      Buffer snapshot = cluster->replica(0).state_machine().Snapshot();
      snapshot_bytes = snapshot.size();
      Keep(Sha256::Hash(snapshot));
    });
    t->checkpoint_est_s +=
        probe_s * static_cast<double>(checkpoints - checkpoints_before);
    checkpoints_before = checkpoints;
  }

  // The metrics queries RunExperiment makes for an ExperimentResult.
  std::map<std::string, uint64_t> counters;
  std::map<uint32_t, uint64_t> by_type;
  volatile double summary = 0;
  spans->Time("sim.metrics_summary", [&] {
    const Histogram& latency = m.commit_latency_us();
    summary = latency.Mean() + latency.Percentile(50) +
              latency.Percentile(99) + m.MsgLoadImbalance() +
              static_cast<double>(m.MaxNodeMsgLoad()) +
              m.OrderInversionFraction(Millis(1));
    for (ReplicaId id = 0; id < cluster->config().n; ++id) {
      const NodeStats& s = m.node(id);
      t->replica_msgs += s.msgs_sent;
      t->replica_bytes += s.bytes_sent;
    }
    counters = m.counters();
    by_type = m.msgs_by_type();
  });

  // RunExperiment's commit-history hash over the witness replica.
  spans->Time("smr.state_digest", [&] {
    std::vector<ReplicaId> correct = cluster->CorrectReplicas();
    ReplicaId witness = correct.empty() ? 0 : correct.front();
    Sha256 h;
    for (const auto& [seq, digest] :
         cluster->replica(witness).finalized_digests()) {
      Encoder enc;
      enc.PutU64(seq);
      enc.PutRaw(digest.AsSlice());
      h.Update(enc.buffer());
    }
    Keep(h.Finalize());
  });

  std::string& problem = out.problem;
  if (build->descriptor.good_case_phases > 0) {
    Status agreement;
    spans->Time("chaos.agreement",
                [&] { agreement = cluster->CheckAgreement(); });
    if (!agreement.ok()) problem = agreement.ToString();
  }
  if (nemesis && problem.empty()) {
    Status integrity;
    spans->Time("chaos.state_check",
                [&] { integrity = cluster->CheckStateMachines(); });
    if (!integrity.ok()) problem = integrity.ToString();
    if (build->descriptor.good_case_phases > 0 && problem.empty()) {
      LinearizabilityReport lin;
      spans->Time("chaos.linearizability",
                  [&] { lin = CheckLinearizability(history); });
      if (!lin.ok) problem = "LINEARIZABILITY VIOLATION: " + lin.violation;
      t->lin_ops_checked += lin.ops_checked;
    }
    const SimTime gst = nemesis->last_fault_us();
    std::optional<SimTime> first = history.FirstCompletionAtOrAfter(gst);
    if (!first.has_value() ||
        *first - gst > config.recovery_bound_us) {
      if (problem.empty()) problem = "RECOVERY FAILURE after GST";
    } else {
      t->recovery_ms_max = std::max(
          t->recovery_ms_max, static_cast<double>(*first - gst) / 1000.0);
    }
  }

  out.events = cluster->sim().events_processed();
  out.commits = cluster->TotalAccepted();
  t->events += out.events;
  t->commits += out.commits;
  t->peak_live_events = std::max<uint64_t>(
      t->peak_live_events, cluster->sim().peak_live_events());
  t->peak_inbox_packets = std::max<uint64_t>(
      t->peak_inbox_packets, cluster->network().peak_inbox_packets());
  t->first.wall_s += slices.front().wall_s;
  t->first.commits += slices.front().commits;
  t->last.wall_s += slices.back().wall_s;
  t->last.commits += slices.back().commits;
  t->family_wall_s[config.protocol] += out.run_s;
  auto counter = [&counters](const std::string& name) -> uint64_t {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  };
  t->view_changes += ViewChanges(counters);
  t->checkpoints_taken += counter("replica.checkpoints_taken");
  t->snapshot_kib_end = std::max(
      t->snapshot_kib_end, static_cast<double>(snapshot_bytes) / 1024);
  t->txn_commits += counter("txn.commits");
  t->txn_failed += counter("txn.aborts") + counter("txn.rejects");
  t->client_retransmissions += counter("client.retransmissions");
  t->state_transfers += counter("replica.state_transfers_completed");
  t->faults_injected += counter("chaos.faults_injected");
  return out;
}

/// Re-drives one sharded cell: the runner is one entry point, so the
/// span covers the call and the oracles are re-run on what it returned.
CellTrace TraceSharded(const ShardedExperimentConfig& config,
                       const CellOutcome& untraced, SpanLog* spans,
                       Totals* t) {
  CellTrace out;
  std::optional<Result<ShardedResult>> r;
  out.run_s = spans->Time("shard.run",
                          [&] { r.emplace(RunShardedExperiment(config)); });
  if (!r->ok()) {
    out.problem = r->status().ToString();
    return out;
  }
  const ShardedResult& res = r->value();
  std::string& problem = out.problem;
  LinearizabilityReport lin;
  spans->Time("chaos.linearizability",
              [&] { lin = CheckLinearizability(res.history); });
  if (!lin.ok) problem = "LINEARIZABILITY VIOLATION: " + lin.violation;
  AtomicityReport atomicity;
  spans->Time("shard.atomicity", [&] {
    atomicity = CheckCrossShardAtomicity(res.records, res.outcomes,
                                         res.prepared_left,
                                         config.enable_recovery);
  });
  if (!atomicity.ok && problem.empty()) problem = atomicity.violation;
  if (Sha256::Hash(res.Json()).ToHex() != untraced.digest &&
      problem.empty()) {
    problem = "sharded result differs from the untraced run";
  }
  out.commits = res.committed;
  t->commits += res.committed;
  t->lin_ops_checked += lin.ops_checked;
  t->shard_txns += res.single_shard + res.fast_path + res.two_pc;
  t->shard_two_pc += res.two_pc;
  t->shard_committed += res.committed;
  t->shard_aborted += res.aborted;
  t->gap_retries += res.gap_retries;
  t->blocked_retries += res.blocked_retries;
  t->recovery_takeovers += res.recovery_takeovers;
  t->family_wall_s[config.protocol] += out.run_s;
  return out;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Times direct crypto calls on run-time inputs.
void CryptoProbe(uint64_t seed, SpanLog* spans,
                 std::map<std::string, Metric>* layers) {
  Buffer small(64, static_cast<uint8_t>(seed));
  Buffer page(4096, static_cast<uint8_t>(seed + 1));
  Buffer key(32, static_cast<uint8_t>(seed + 2));
  constexpr int kSmall = 200000, kPages = 20000;
  const double sha_small = spans->Time("crypto.sha256_64b", [&] {
    for (int i = 0; i < kSmall; ++i) {
      small[0] = static_cast<uint8_t>(i);
      Keep(Sha256::Hash(small));
    }
  });
  const double sha_page = spans->Time("crypto.sha256_4k", [&] {
    for (int i = 0; i < kPages; ++i) {
      page[0] = static_cast<uint8_t>(i);
      Keep(Sha256::Hash(page));
    }
  });
  const double hmac_small = spans->Time("crypto.hmac_64b", [&] {
    for (int i = 0; i < kSmall; ++i) {
      small[0] = static_cast<uint8_t>(i);
      Keep(HmacSha256(key, small));
    }
  });
  (*layers)["crypto.sha256_64b_ns"] = {sha_small / kSmall * 1e9, "ns"};
  (*layers)["crypto.sha256_4k_mib_s"] = {
      Ratio(kPages * 4096.0 / (1024 * 1024), sha_page), "MiB/s"};
  (*layers)["crypto.hmac_64b_ns"] = {hmac_small / kSmall * 1e9, "ns"};
}

/// The first 3 virtual seconds of hot-txn's cell with and without an
/// attached Tracer: the cost of the existing in-program tracing.
void TracerProbe(uint64_t seed, bool smoke, SpanLog* spans,
                 std::map<std::string, Metric>* layers) {
  ExperimentConfig cfg;
  for (Workload& w : BuildWorkloads(seed, smoke)) {
    if (w.name == "hot-txn") cfg = w.cells.front().single;
  }
  cfg.duration_us = smoke ? Millis(150) : Seconds(3);
  uint64_t commits = 0;
  const double plain = spans->Time("obs.untraced_run", [&] {
    Result<ExperimentResult> r = RunExperiment(cfg);
    if (r.ok()) commits = r->commits;
  });
  Tracer tracer;
  cfg.tracer = &tracer;
  const double traced =
      spans->Time("obs.traced_run", [&] { (void)RunExperiment(cfg); });
  (*layers)["obs.trace_overhead"] = {Ratio(traced, plain), "ratio"};
  (*layers)["obs.trace_events_per_commit"] = {
      Ratio(static_cast<double>(tracer.size()), static_cast<double>(commits)),
      "count"};
}

}  // namespace

TracedRun RunTraced(const Workload& workload, uint64_t seed, bool smoke,
                    const std::vector<CellOutcome>& untraced,
                    SpanLog* spans) {
  TracedRun out;
  Totals t;
  for (const std::string& family : AllProtocolNames()) {
    t.family_wall_s[family] = 0;
  }
  const double start = Now();
  const size_t first_span = spans->size();
  double run_s = 0;
  for (size_t i = 0; i < workload.cells.size(); ++i) {
    const Cell& cell = workload.cells[i];
    spans->SetCell(workload.name + "/" + cell.label);
    const size_t handle = spans->Begin("cell");
    CellTrace c = cell.sharded
                      ? TraceSharded(*cell.sharded, untraced[i], spans, &t)
                      : TraceSingle(cell.single, workload.slice_us, spans, &t);
    spans->End(handle);
    run_s += c.run_s;
    if (c.problem.empty() &&
        (!untraced[i].ok || c.commits != untraced[i].commits ||
         c.events != untraced[i].events)) {
      c.problem = "traced commits/events " + std::to_string(c.commits) +
                  "/" + std::to_string(c.events) + " vs untraced " +
                  std::to_string(untraced[i].commits) + "/" +
                  std::to_string(untraced[i].events);
    }
    if (!c.problem.empty()) {
      out.mismatches.push_back(cell.label + ": " + c.problem);
    }
  }
  out.wall_s = Now() - start;
  spans->SetCell(workload.name);

  auto put = [&out](const std::string& name, double value,
                    const char* unit) {
    out.layers[name] = Metric{value, unit};
  };
  auto count = [](uint64_t v) { return static_cast<double>(v); };
  auto span_s = [&](const char* name) {
    return spans->Total(name, first_span);
  };
  const double us_first = Ratio(t.first.wall_s * 1e6, count(t.first.commits));
  const double us_last = Ratio(t.last.wall_s * 1e6, count(t.last.commits));
  put("sim.run_s", run_s, "s");
  put("sim.events", count(t.events), "count");
  put("sim.events_per_s", Ratio(count(t.events), run_s), "1/s");
  put("sim.us_per_commit_first", us_first, "us");
  put("sim.us_per_commit_last", us_last, "us");
  put("sim.growth_ratio", Ratio(us_last, us_first), "ratio");
  put("sim.peak_live_events", count(t.peak_live_events), "count");
  put("sim.metrics_summary_s", span_s("sim.metrics_summary"), "s");
  put("net.peak_inbox_packets", count(t.peak_inbox_packets), "count");
  put("net.msgs_per_commit", Ratio(count(t.replica_msgs), count(t.commits)),
      "msgs");
  put("net.kib_per_commit",
      Ratio(count(t.replica_bytes) / 1024, count(t.commits)), "KiB");
  put("protocols.build_s", span_s("protocols.build"), "s");
  put("protocols.start_s", span_s("protocols.start"), "s");
  for (const auto& [family, wall_s] : t.family_wall_s) {
    put("protocols." + family + ".wall_s", wall_s, "s");
  }
  put("protocols.view_changes", count(t.view_changes), "count");
  put("smr.checkpoint_est_s", t.checkpoint_est_s, "s");
  put("smr.checkpoint_share", Ratio(t.checkpoint_est_s, run_s), "ratio");
  put("smr.snapshot_kib_end", t.snapshot_kib_end, "KiB");
  put("smr.checkpoints_taken", count(t.checkpoints_taken), "count");
  put("smr.state_digest_s", span_s("smr.state_digest"), "s");
  put("smr.txn_abort_ratio",
      Ratio(count(t.txn_failed), count(t.txn_commits + t.txn_failed)),
      "ratio");
  put("smr.client_retransmissions", count(t.client_retransmissions),
      "count");
  put("smr.state_transfers", count(t.state_transfers), "count");
  put("chaos.agreement_s", span_s("chaos.agreement"), "s");
  put("chaos.state_check_s", span_s("chaos.state_check"), "s");
  put("chaos.linearizability_s", span_s("chaos.linearizability"), "s");
  put("chaos.lin_ops_checked", count(t.lin_ops_checked), "count");
  put("chaos.faults_injected", count(t.faults_injected), "count");
  put("chaos.recovery_ms_max", t.recovery_ms_max, "ms");
  put("shard.two_pc_share", Ratio(count(t.shard_two_pc), count(t.shard_txns)),
      "ratio");
  put("shard.abort_ratio",
      Ratio(count(t.shard_aborted),
            count(t.shard_committed + t.shard_aborted)),
      "ratio");
  put("shard.gap_retries", count(t.gap_retries), "count");
  put("shard.blocked_retries", count(t.blocked_retries), "count");
  put("shard.recovery_takeovers", count(t.recovery_takeovers), "count");
  double untraced_wall = 0;
  for (const CellOutcome& o : untraced) untraced_wall += o.wall_s;
  put("obs.pass_overhead", Ratio(out.wall_s, untraced_wall), "ratio");
  CryptoProbe(seed, spans, &out.layers);
  TracerProbe(seed, smoke, spans, &out.layers);
  return out;
}

}  // namespace suite
}  // namespace bftlab
