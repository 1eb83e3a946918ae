#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <utility>

namespace perfbench {
namespace {

struct SpanRecord {
  const char* name;
  int64_t parent;
  uint64_t op;
  uint64_t thread;
  Clock::time_point start;
  Clock::time_point end;
};

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_op{1};
std::atomic<uint64_t> g_next_thread{1};
std::mutex g_mutex;
std::vector<SpanRecord> g_spans;  // guarded by g_mutex
const Clock::time_point g_epoch = Clock::now();

struct ThreadState {
  uint64_t id = g_next_thread.fetch_add(1);
  std::vector<int64_t> open;  // indices of this thread's open spans
};
thread_local ThreadState t_state;

double Micros(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - g_epoch).count();
}

}  // namespace

void Tracer::SetEnabled(bool enabled) { g_enabled.store(enabled); }
bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }
uint64_t Tracer::NewOp() { return g_next_op.fetch_add(1); }

size_t Tracer::Mark() {
  std::lock_guard<std::mutex> lock(g_mutex);
  return g_spans.size();
}

Span::Span(const char* name, uint64_t op) {
  if (!Tracer::enabled()) return;
  std::lock_guard<std::mutex> lock(g_mutex);
  const int64_t parent = t_state.open.empty() ? -1 : t_state.open.back();
  if (op == 0) {
    op = parent >= 0 ? g_spans[static_cast<size_t>(parent)].op
                     : g_next_op.fetch_add(1);
  }
  index_ = static_cast<int64_t>(g_spans.size());
  g_spans.push_back({name, parent, op, t_state.id, Clock::now(), {}});
  t_state.open.push_back(index_);
}

Span::~Span() {
  if (index_ < 0) return;
  const Clock::time_point end = Clock::now();
  std::lock_guard<std::mutex> lock(g_mutex);
  g_spans[static_cast<size_t>(index_)].end = end;
  t_state.open.pop_back();
}

SpanTotals Tracer::Totals(const std::string& name, size_t since) {
  std::lock_guard<std::mutex> lock(g_mutex);
  // Child intervals per parent, to subtract their union from the parent.
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
      children(g_spans.size());
  for (const SpanRecord& span : g_spans) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start,
                                                              span.end);
    }
  }
  SpanTotals totals;
  for (size_t i = since; i < g_spans.size(); ++i) {
    const SpanRecord& span = g_spans[i];
    if (name != span.name) continue;
    const double duration =
        std::chrono::duration<double>(span.end - span.start).count();
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    Clock::time_point reach = span.start;
    for (const auto& [start, end] : kids) {
      const Clock::time_point from = std::max(start, reach);
      const Clock::time_point to = std::min(end, span.end);
      if (to > from) {
        covered += std::chrono::duration<double>(to - from).count();
        reach = to;
      }
    }
    totals.total_seconds += duration;
    totals.self_seconds += duration - covered;
    totals.durations.push_back(duration);
  }
  return totals;
}

opaq::Result<opaq::QuerySession<Key>> BuildSession(
    const opaq::OpaqConfig& config, const opaq::Source<Key>& source,
    opaq::EngineStats* stats) {
  Span span("engine.build");
  if (!Tracer::enabled()) {
    opaq::Engine<Key> engine(config, source);
    auto session = engine.Build();
    if (stats != nullptr) *stats = engine.stats();
    return session;
  }
  TracingProvider<Key> traced(&source.provider());
  opaq::Engine<Key> engine(config, opaq::Source<Key>::FromProvider(&traced));
  auto built = engine.Build();
  if (stats != nullptr) *stats = engine.stats();
  if (!built.ok()) return built.status();
  return opaq::QuerySession<Key>(built->sample_list(), {source},
                                 built->config());
}

bool Tracer::WriteChromeTrace(const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::lock_guard<std::mutex> lock(g_mutex);
  std::fprintf(out, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < g_spans.size(); ++i) {
    const SpanRecord& span = g_spans[i];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld,\"op\":%llu}}\n",
                 i == 0 ? "" : ",", span.name,
                 static_cast<unsigned long long>(span.thread),
                 Micros(span.start), Micros(span.end) - Micros(span.start), i,
                 static_cast<long long>(span.parent),
                 static_cast<unsigned long long>(span.op));
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
