#ifndef PISREP_PERFBENCH_SPANS_H_
#define PISREP_PERFBENCH_SPANS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "net/rpc.h"
#include "util/status.h"
#include "xml/xml_node.h"

namespace pisrep::perfbench {

/// Wall-clock spans recorded by the benchmark around its calls into each
/// layer's public functions. A span has a name, start, end, the index of
/// the span that caused it (-1 for a root) and the id of the end-to-end
/// operation it belongs to. Spans stay in memory and are written out as
/// Chrome trace-event JSON when the run ends. A disabled recorder costs one
/// branch per call.
class SpanRecorder {
 public:
  static constexpr int kNone = -1;

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its index (kNone when disabled).
  int Begin(const char* name, std::uint64_t op, int parent);
  /// Closes the span `index` (no-op for kNone).
  void End(int index);

  /// Per-name totals over closed spans: count, summed duration and summed
  /// self time (duration minus the time its child spans cover).
  struct Totals {
    std::uint64_t count = 0;
    double total_ns = 0;
    double self_ns = 0;
  };
  /// Spans from index `from` on (an earlier size()) are summarized.
  std::map<std::string, Totals> Summarize(std::size_t from = 0) const;

  std::size_t size() const { return spans_.size(); }

  /// Writes every span as a complete ("ph":"X") Chrome trace event.
  util::Status WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t op;
    int parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  bool enabled_;
  std::vector<Span> spans_;
};

/// Where a handler call belongs: the operation id and the parent span.
using SpanContext = std::pair<std::uint64_t, int>;
using ContextFn = std::function<SpanContext(const xml::XmlNode& request)>;
using ObserveFn = std::function<void(const util::Result<xml::XmlNode>&)>;

/// Wraps RPC handlers in spans for one traced pass and restores the
/// original handlers when destroyed, so untraced passes run the unwrapped
/// code. Wrapping is a no-op while the recorder is disabled.
class MethodWrapper {
 public:
  explicit MethodWrapper(SpanRecorder* recorder) : recorder_(recorder) {}
  ~MethodWrapper();

  MethodWrapper(const MethodWrapper&) = delete;
  MethodWrapper& operator=(const MethodWrapper&) = delete;

  /// Re-registers `method` on `rpc` inside a span named `span_name` (the
  /// name must outlive the recorder) whose context `context` derives from
  /// the request; `observe`, when set, sees each result after the span
  /// closes.
  void Wrap(net::RpcServer* rpc, const std::string& method,
            const char* span_name, ContextFn context,
            ObserveFn observe = nullptr);

 private:
  struct Original {
    net::RpcServer* rpc;
    std::string method;
    net::RpcServer::Method handler;
  };

  SpanRecorder* recorder_;
  std::vector<Original> originals_;
};

}  // namespace pisrep::perfbench

#endif  // PISREP_PERFBENCH_SPANS_H_
