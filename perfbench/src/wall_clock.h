#ifndef PISREP_PERFBENCH_WALL_CLOCK_H_
#define PISREP_PERFBENCH_WALL_CLOCK_H_

#include <chrono>
#include <cstdint>

namespace pisrep::perfbench {

/// The one place in the benchmark that reads real time. Everything the
/// benchmark drives runs on simulated util::TimePoint; only the benchmark
/// itself measures wall time, and only through this header, so the
/// pisrep-lint `wall-clock` rule stays green when this directory is scanned.
inline std::int64_t NowNanos() {
  auto now = std::chrono::steady_clock::now();  // pisrep-lint: allow(wall-clock)
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             now.time_since_epoch())
      .count();
}

/// Elapsed wall time since construction or the last Reset.
class WallTimer {
 public:
  WallTimer() : start_(NowNanos()) {}

  void Reset() { start_ = NowNanos(); }
  std::int64_t ElapsedNanos() const { return NowNanos() - start_; }
  double ElapsedSeconds() const {
    return static_cast<double>(ElapsedNanos()) / 1e9;
  }

 private:
  std::int64_t start_;
};

}  // namespace pisrep::perfbench

#endif  // PISREP_PERFBENCH_WALL_CLOCK_H_
