// pisrep end-to-end benchmark: drives the read path, the write path and the
// aggregation job through the code that serves traffic, checks every
// output, and prints one JSON result line. See perfbench/README.md.
//
//   pisrep_perfbench --workload lookup|ingest|aggregate --seed N
//                    --seconds S --trace 0|1 [--work-dir DIR] [--source ID]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <memory>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "phase.h"
#include "report.h"
#include "spans.h"
#include "util/string_util.h"
#include "wall_clock.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace pisrep::perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
  /// Samples a percentile metric is taken from (null: a pooled ratio of
  /// the same name), and which percentile.
  const char* samples = nullptr;
  double q = 0;
};

/// End-to-end metrics: printed on every untraced run of every workload.
/// setup_s and rss_peak_mb come last; they are not split by tracing.
constexpr MetricSpec kEndToEnd[] = {
    {"decision_p50_us", "us", "decision_us", 0.50},
    {"decision_p99_us", "us", "decision_us", 0.99},
    {"decisions_per_s", "1/s"},
    {"vote_ack_p50_us", "us", "vote_ack_us", 0.50},
    {"vote_ack_p99_us", "us", "vote_ack_us", 0.99},
    {"votes_per_s", "1/s"},
    {"onboard_p50_us", "us", "onboard_us", 0.50},
    {"onboard_p99_us", "us", "onboard_us", 0.99},
    {"aggregation_full_ms", "ms", "aggregation_full_ms", 0.50},
    {"aggregation_incr_ms", "ms", "aggregation_incr_ms", 0.50},
    {"setup_s", "s", "setup_s", 0.50},
    {"rss_peak_mb", "MB"},
};
constexpr std::size_t kSplitByTracing = std::size(kEndToEnd) - 2;

/// Per-layer metrics: printed on every traced run. The tracing overhead of
/// each timed end-to-end metric (traced minus untraced) follows them.
constexpr MetricSpec kPerLayer[] = {
    {"client.digest_us", "us"},
    {"client.cache_hit_ratio", "ratio"},
    {"client.puzzle_us", "us"},
    {"server.query_handler_us", "us"},
    {"server.report_handler_us", "us"},
    {"server.snapshot_hit_ratio", "ratio"},
    {"server.vote_handler_us", "us"},
    {"server.onboard_handler_us", "us"},
    {"server.aggregation_recomputed", "count"},
    {"server.aggregation_candidates", "count"},
    {"server.snapshot_publish_ms", "ms"},
    {"server.trust_factors_ms", "ms"},
    {"storage.wal_bytes_per_op", "B"},
    {"storage.vote_scan_ns_per_vote", "ns"},
    {"net.rpc_self_us", "us"},
    {"net.messages_per_op", "count"},
    {"net.bytes_per_op", "B"},
    {"net.messages_per_vote", "count"},
    {"net.bytes_per_vote", "B"},
    {"cluster.ack_wait_us", "us"},
    {"cluster.replication_frames_per_vote", "count"},
    {"cluster.scatter_legs_per_query", "count"},
    {"cluster.broadcast_legs_per_onboard", "count"},
    {"trace.coverage_decision", "ratio"},
    {"trace.coverage_vote_ack", "ratio"},
    {"trace.coverage_onboard", "ratio"},
    {"trace.coverage_aggregation_full", "ratio"},
    {"trace.coverage_aggregation_incr", "ratio"},
};

/// Set-up is repeated and its median reported, so one slow build of the
/// state does not move setup_s.
constexpr int kSetupRuns = 3;

/// The measured time is cut into rounds that visit every path in turn, so
/// each path samples the whole run rather than one stretch of it: a host
/// whose speed drifts over seconds then moves every path alike.
constexpr int kRounds = 6;

const char* const kPhaseNames[] = {"lookup", "ingest", "aggregate"};

/// The share of each round that each path (in kPhaseNames order) gets,
/// by named workload. Companion paths get enough of the run to keep their
/// metrics steady: the read path's median moves the most with the host,
/// and the onboarding and vote-ack p99s need samples. ingest is not in
/// BENCHMARK.json (see README.md) but stays runnable.
constexpr double kShares[3][3] = {
    {0.55, 0.3, 0.15},  // lookup
    {0.35, 0.5, 0.15},  // ingest
    {0.35, 0.3, 0.35},  // aggregate
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: pisrep_perfbench --workload "
               "lookup|ingest|aggregate --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR] [--source ID]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options->trace = value == "1";
    } else if (flag == "--work-dir") {
      options->work_dir = value;
    } else if (flag == "--source") {
      options->source = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && options->seconds > 0;
}

std::vector<std::unique_ptr<Phase>> MakePhases(const Options& options) {
  std::vector<std::unique_ptr<Phase>> phases;
  for (int i = 0; i < 3; ++i) {
    PhaseParams params;
    params.full = options.workload == kPhaseNames[i];
    params.seed = options.seed;
    params.dir = options.work_dir + "/" + kPhaseNames[i];
    params.op_base = static_cast<std::uint64_t>(i + 1) << 40;
    switch (i) {
      case 0:
        phases.push_back(MakeLookupPhase(params));
        break;
      case 1:
        phases.push_back(MakeIngestPhase(params));
        break;
      default:
        phases.push_back(MakeAggregatePhase(params));
    }
  }
  return phases;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  return util::StrFormat("%.10g", value);
}

/// Metric values by name, from pooled measurements.
using Values = std::map<std::string, double>;

Values Finish(const Measurements& m) {
  Values values;
  for (const MetricSpec& spec : kEndToEnd) {
    values[spec.name] = spec.samples != nullptr
                            ? m.Percentile(spec.samples, spec.q)
                            : m.Ratio(spec.name);
  }
  for (const MetricSpec& spec : kPerLayer) values[spec.name] = m.Ratio(spec.name);
  return values;
}

std::string MetricsJson(const Values& values, const MetricSpec* specs,
                        std::size_t count, const char* prefix) {
  std::string out;
  for (std::size_t i = 0; i < count; ++i) {
    auto it = values.find(std::string(prefix) + specs[i].name);
    double value = it == values.end() ? 0.0 : it->second;
    if (!out.empty()) out += ", ";
    out += util::StrFormat("\"%s%s\": {\"value\": %s, \"unit\": \"%s\"}",
                           prefix, specs[i].name, JsonNumber(value).c_str(),
                           specs[i].unit);
  }
  return out;
}

int Run(const Options& options) {
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);

  Measurements untraced;
  Measurements traced;
  std::vector<std::unique_ptr<Phase>> phases;
  for (int r = 0; r < kSetupRuns; ++r) {
    phases.clear();  // frees the previous state before building the next
    phases = MakePhases(options);
    WallTimer timer;
    for (auto& phase : phases) phase->Setup();
    untraced.Sample("setup_s", timer.ElapsedSeconds());
  }

  int workload = 0;
  while (options.workload != kPhaseNames[workload]) ++workload;
  Report report;
  SpanRecorder off(false);
  SpanRecorder on(true);
  for (int round = 0; round < kRounds; ++round) {
    // With tracing on, untraced and traced rounds alternate, so state that
    // grows during the run weighs on both alike and their difference is
    // the tracing overhead.
    const bool trace = options.trace && round % 2 == 1;
    const double share = options.trace ? 2.0 / kRounds : 1.0 / kRounds;
    for (int i = 0; i < 3; ++i) {
      double seconds = options.seconds / kRounds * kShares[workload][i];
      phases[i]->Measure(seconds, share, trace ? &on : &off, &report,
                         trace ? &traced : &untraced);
    }
  }
  for (auto& phase : phases) phase->Verify(&report);
  untraced.Add("rss_peak_mb", PeakRssMb(), 1);
  Values values = Finish(untraced);
  for (const MetricSpec& spec : kEndToEnd) {
    report.Check(values[spec.name] > 0,
                 util::StrFormat("metric %s was not measured", spec.name));
  }
  for (const auto& [name, samples] : untraced.samples()) {
    report.Count(name, samples.size());
  }

  std::string result;
  if (options.trace) {
    Values layers = Finish(traced);
    for (std::size_t i = 0; i < kSplitByTracing; ++i) {
      const char* name = kEndToEnd[i].name;
      layers[std::string("overhead.") + name] = layers[name] - values[name];
    }
    std::string trace_path = util::StrFormat(
        "%s/trace-%s.json", options.work_dir.c_str(),
        options.workload.c_str());
    util::Status written = on.WriteChromeTrace(trace_path);
    report.Check(written.ok(), written.ToString());
    report.Count("trace.spans", on.size());
    result = MetricsJson(layers, kPerLayer, std::size(kPerLayer), "") + ", " +
             MetricsJson(layers, kEndToEnd, kSplitByTracing, "overhead.");
  } else {
    result = MetricsJson(values, kEndToEnd, std::size(kEndToEnd), "");
  }
  std::string counts;
  for (const auto& [name, n] : report.counts()) {
    if (!counts.empty()) counts += ", ";
    counts += util::StrFormat("\"%s\": %llu", name.c_str(),
                              static_cast<unsigned long long>(n));
  }
  std::string record = util::StrFormat(
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, \"trace\": "
      "%d, \"host_cpus\": %u, \"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"source\": \"%s\", \"setup_runs\": %d, \"samples\": {%s}}",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      JsonNumber(options.seconds).c_str(), options.trace ? 1 : 0,
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE, __VERSION__,
      options.source.c_str(), kSetupRuns, counts.c_str());
  std::string line = util::StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}",
      report.correct() ? "true" : "false",
      static_cast<unsigned long long>(report.attempted()),
      static_cast<unsigned long long>(report.failed()), result.c_str());

  std::string results_dir = options.work_dir + "/results";
  std::filesystem::create_directories(results_dir, ec);
  std::string results_path = util::StrFormat(
      "%s/%s-seed%llu-trace%d.json", results_dir.c_str(),
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.trace ? 1 : 0);
  if (std::FILE* file = std::fopen(results_path.c_str(), "w")) {
    std::fprintf(file, "{\"record\": %s, \"result\": %s}\n", record.c_str(),
                 line.c_str());
    std::fclose(file);
  }
  phases.clear();
  for (const char* name : kPhaseNames) {
    std::filesystem::remove_all(options.work_dir + "/" + name, ec);
  }

  std::printf("record: %s\n%s\n", record.c_str(), line.c_str());
  return 0;
}

}  // namespace
}  // namespace pisrep::perfbench

int main(int argc, char** argv) {
  pisrep::perfbench::Options options;
  if (!pisrep::perfbench::ParseArgs(argc, argv, &options)) {
    return pisrep::perfbench::Usage("bad arguments");
  }
  if (options.workload != "lookup" && options.workload != "ingest" &&
      options.workload != "aggregate") {
    return pisrep::perfbench::Usage("unknown workload");
  }
  return pisrep::perfbench::Run(options);
}
