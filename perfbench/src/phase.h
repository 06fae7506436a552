#ifndef PISREP_PERFBENCH_PHASE_H_
#define PISREP_PERFBENCH_PHASE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/event_loop.h"
#include "net/network.h"
#include "report.h"
#include "spans.h"
#include "util/random.h"

namespace pisrep::perfbench {

/// What the passes of one run measured, pooled across passes: raw samples
/// for the metrics reported as percentiles, and numerator/denominator pairs
/// for rates, ratios and per-operation means.
class Measurements {
 public:
  void Sample(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  void Add(const std::string& name, double numerator, double denominator) {
    auto& ratio = ratios_[name];
    ratio.first += numerator;
    ratio.second += denominator;
  }
  /// Nearest-rank percentile of the named samples (0 when none).
  double Percentile(const std::string& name, double q) const;
  /// Pooled numerator over pooled denominator (0 when the latter is 0).
  double Ratio(const std::string& name) const;
  const std::map<std::string, std::vector<double>>& samples() const {
    return samples_;
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, std::pair<double, double>> ratios_;
};

/// How one path is set up for a run. The workload named on the command line
/// runs its own path at full size; the other two paths run at companion
/// size (a tenth of the state, same ratios) so that every end-to-end metric
/// is measured on every workload.
struct PhaseParams {
  bool full = true;
  std::uint64_t seed = 1;
  /// Scratch directory owned by this phase (write-ahead logs).
  std::string dir;
  /// Operation ids of this phase start here, so spans from different
  /// phases never share an id.
  std::uint64_t op_base = 0;
};

/// One served path: read (lookup), write (ingest) or aggregation.
class Phase {
 public:
  virtual ~Phase() = default;

  /// Builds the path's state. Timed by the caller as set-up.
  virtual void Setup() = 0;

  /// Drives traffic for `seconds` of wall time and adds what it measured
  /// to `out`: end-to-end samples always, per-layer figures (self times,
  /// counters, coverage) when `spans` is enabled. `share` is the part of
  /// the run's samples this pass collects (a run may pool several passes).
  virtual void Measure(double seconds, double share, SpanRecorder* spans,
                       Report* report, Measurements* out) = 0;

  /// Checks the path's outputs once all traffic has drained.
  virtual void Verify(Report* report) = 0;
};

std::unique_ptr<Phase> MakeLookupPhase(const PhaseParams& params);
std::unique_ptr<Phase> MakeIngestPhase(const PhaseParams& params);
std::unique_ptr<Phase> MakeAggregatePhase(const PhaseParams& params);

/// Runs loop events until `done()` holds, the loop runs dry, or simulated
/// time passes `limit` (a hung operation must not hang the run; the
/// caller's correctness checks then fail it).
template <typename Pred>
void RunLoopUntil(net::EventLoop* loop, Pred done,
                  util::Duration limit = 10 * util::kMinute) {
  const util::TimePoint deadline = loop->Now() + limit;
  while (!done() && loop->Now() <= deadline) {
    if (!loop->RunOne()) return;
  }
}

/// True when every message sent has been delivered or dropped.
inline bool NetworkQuiet(const net::SimNetwork& network) {
  return network.messages_sent() ==
         network.messages_delivered() + network.messages_dropped();
}

/// Zipf(s) sampler over [0, n) with a precomputed CDF.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);
  std::size_t Next(util::Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// Removes and re-creates `dir`; aborts the run when that fails.
void ResetDirectory(const std::string& dir);

/// Size of the file at `path` in bytes (0 when absent).
std::uint64_t FileBytes(const std::string& path);


}  // namespace pisrep::perfbench

#endif  // PISREP_PERFBENCH_PHASE_H_
