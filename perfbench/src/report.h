#ifndef PISREP_PERFBENCH_REPORT_H_
#define PISREP_PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace pisrep::perfbench {

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measured wall time of one run, split over the run's phases.
  double seconds = 10;
  /// When set, the run also records spans and reports per-layer metrics.
  bool trace = false;
  /// Scratch directory for write-ahead logs and the exported trace.
  std::string work_dir = ".bench_build/perfbench-work";
  /// Free-form provenance forwarded by the launcher (source digest).
  std::string source;
};

/// Everything one run reports besides its metrics: correctness verdicts,
/// operations attempted and failed, and sample counts for the record.
class Report {
 public:
  /// Records a correctness verdict; a false one fails the run.
  void Check(bool ok, std::string_view what);
  bool correct() const { return correct_; }

  void Attempted(std::uint64_t n) { attempted_ += n; }
  /// Counts `n` failed operations; `what` names the failure on stderr.
  void Failed(std::uint64_t n, std::string_view what);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// Sample counts and other provenance for the run record.
  void Count(const std::string& name, std::uint64_t n) { counts_[name] = n; }
  const std::map<std::string, std::uint64_t>& counts() const {
    return counts_;
  }

 private:
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, std::uint64_t> counts_;
};

/// Nearest-rank percentile (q in [0, 1]) of `samples`; 0 when empty.
double Percentile(std::vector<double> samples, double q);

/// Peak resident set of this process in MiB (getrusage).
double PeakRssMb();

/// Aborts the run with a message when set-up fails: numbers measured on
/// half-built state are worse than none.
void MustOk(const util::Status& status, std::string_view what);
template <typename T>
void MustOk(const util::Result<T>& result, std::string_view what) {
  MustOk(result.status(), what);
}

}  // namespace pisrep::perfbench

#endif  // PISREP_PERFBENCH_REPORT_H_
