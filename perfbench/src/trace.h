// The benchmark's own tracer: spans recorded around calls into the library,
// kept in memory and written out as Chrome trace JSON when the run ends.
// Spans cost nothing while tracing is off, so the untraced run that gives
// the end-to-end metrics measures the program alone.
#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "opaq/opaq.h"
#include "perfbench.h"

namespace perfbench {

/// Per-name totals over the recorded spans. Self time is a span's duration
/// minus the part of it that its child spans cover.
struct SpanTotals {
  double total_seconds = 0;
  double self_seconds = 0;
  std::vector<double> durations;  // seconds, one per span
};

class Tracer {
 public:
  static void SetEnabled(bool enabled);
  static bool enabled();
  /// A fresh operation id; spans of one operation share it.
  static uint64_t NewOp();
  /// Totals of the spans called `name` that started at or after `since`
  /// (an index from `Mark`), so a phase can be measured on its own.
  static SpanTotals Totals(const std::string& name, size_t since = 0);
  static size_t Mark();
  /// Writes every span as Chrome trace JSON (`chrome://tracing`, Perfetto).
  static bool WriteChromeTrace(const std::string& path);
};

/// Records [construction, destruction) as a span named `name` when tracing
/// is on. The parent is the innermost open span of the same thread. Unless
/// `op` is given, the op id is the parent's, or a fresh one for a root span.
class Span {
 public:
  explicit Span(const char* name, uint64_t op = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t index_ = -1;
};

/// A `RunProvider` decorator that records an `io.next_run` span around
/// every `RunSource::NextRun` of the streams it opens, and a `sample.run`
/// span from each run's delivery to the consumer's next request. Passed to a
/// real `Engine::Build` through `Source::FromProvider`, it splits the sample
/// phase into waiting on the io layer and working on runs. The inner
/// provider is borrowed; a stream must be used and destroyed on one thread.
template <typename K>
class TracingProvider : public opaq::RunProvider<K> {
 public:
  explicit TracingProvider(const opaq::RunProvider<K>* inner)
      : inner_(inner) {}

  uint64_t size() const override { return inner_->size(); }

  std::unique_ptr<opaq::RunSource<K>> OpenRuns(
      const opaq::ReadOptions& options, uint64_t first = 0,
      uint64_t count = UINT64_MAX) const override {
    return std::make_unique<Stream>(inner_->OpenRuns(options, first, count));
  }

  const opaq::ExtentStats* pack_stats() const override {
    return inner_->pack_stats();
  }

 private:
  class Stream : public opaq::RunSource<K> {
   public:
    explicit Stream(std::unique_ptr<opaq::RunSource<K>> inner)
        : inner_(std::move(inner)) {}
    opaq::Result<bool> NextRun(std::vector<K>* buffer) override {
      consumer_.reset();
      opaq::Result<bool> more = [&] {
        Span span("io.next_run");
        return inner_->NextRun(buffer);
      }();
      if (more.ok() && *more) consumer_.emplace("sample.run");
      return more;
    }

   private:
    std::unique_ptr<opaq::RunSource<K>> inner_;
    std::optional<Span> consumer_;  // open while the consumer holds a run
  };

  const opaq::RunProvider<K>* inner_;
};

/// `Engine::Build` over `source` inside an `engine.build` span. Under
/// tracing the build reads through a `TracingProvider` and the session it
/// returns is bound to `source` itself, so exact passes read untraced.
/// `stats`, when given, receives the engine's stats.
opaq::Result<opaq::QuerySession<Key>> BuildSession(
    const opaq::OpaqConfig& config, const opaq::Source<Key>& source,
    opaq::EngineStats* stats = nullptr);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
