#include "spans.h"

#include <cstdio>
#include <memory>

#include "wall_clock.h"

namespace pisrep::perfbench {

int SpanRecorder::Begin(const char* name, std::uint64_t op, int parent) {
  if (!enabled_) return kNone;
  std::int64_t now = NowNanos();
  spans_.push_back(Span{name, op, parent, now, now});
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::End(int index) {
  if (index == kNone) return;
  spans_[static_cast<std::size_t>(index)].end_ns = NowNanos();
}

std::map<std::string, SpanRecorder::Totals> SpanRecorder::Summarize(
    std::size_t from) const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (std::size_t i = from; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.parent == kNone) continue;
    child_ns[static_cast<std::size_t>(span.parent)] +=
        static_cast<double>(span.end_ns - span.start_ns);
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    double duration = static_cast<double>(span.end_ns - span.start_ns);
    Totals& totals = out[span.name];
    ++totals.count;
    totals.total_ns += duration;
    totals.self_ns += duration - child_ns[i];
  }
  return out;
}

util::Status SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (file == nullptr) {
    return util::Status::Internal("cannot open trace file " + path);
  }
  std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", file.get());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file.get(),
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"op\":%llu}}\n",
                 i == 0 ? "" : ",", span.name,
                 static_cast<double>(span.start_ns - origin) / 1000.0,
                 static_cast<double>(span.end_ns - span.start_ns) / 1000.0, i,
                 span.parent, static_cast<unsigned long long>(span.op));
  }
  std::fputs("]}\n", file.get());
  if (std::ferror(file.get()) != 0) {
    return util::Status::Internal("short write to trace file " + path);
  }
  return util::Status::Ok();
}

MethodWrapper::~MethodWrapper() {
  for (auto it = originals_.rbegin(); it != originals_.rend(); ++it) {
    it->rpc->RegisterMethod(it->method, std::move(it->handler));
  }
}

void MethodWrapper::Wrap(net::RpcServer* rpc, const std::string& method,
                         const char* span_name, ContextFn context,
                         ObserveFn observe) {
  if (!recorder_->enabled()) return;
  net::RpcServer::Method inner = rpc->FindMethod(method);
  if (!inner) return;
  originals_.push_back(Original{rpc, method, inner});
  rpc->RegisterMethod(
      method, [inner = std::move(inner), span_name, recorder = recorder_,
               context = std::move(context),
               observe = std::move(observe)](const xml::XmlNode& request) {
        SpanContext where = context(request);
        int span = recorder->Begin(span_name, where.first, where.second);
        util::Result<xml::XmlNode> result = inner(request);
        recorder->End(span);
        if (observe) observe(result);
        return result;
      });
}

}  // namespace pisrep::perfbench
