// Self time per span name, from a span-tracer snapshot.
//
// Spans on one thread nest (they are RAII scopes), so each thread's
// spans form a forest. A span's self time is its duration minus the
// durations of its direct children; summing self time over the span
// names of one layer gives that layer's self time.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "memfront/obs/span_tracer.hpp"

namespace e2ebench {

struct SpanTotals {
  std::map<std::string, double> self_s;   // exclusive seconds per name
  std::map<std::string, double> total_s;  // inclusive seconds per name
  std::uint64_t dropped = 0;              // events lost to ring wraparound

  double self(const std::string& name) const {
    const auto it = self_s.find(name);
    return it == self_s.end() ? 0.0 : it->second;
  }
  double total(const std::string& name) const {
    const auto it = total_s.find(name);
    return it == total_s.end() ? 0.0 : it->second;
  }
  void add(const SpanTotals& o) {
    for (const auto& [k, v] : o.self_s) self_s[k] += v;
    for (const auto& [k, v] : o.total_s) total_s[k] += v;
    dropped += o.dropped;
  }
};

inline SpanTotals summarize_spans(
    const std::vector<memfront::obs::Tracer::TrackSnapshot>& tracks) {
  using memfront::obs::TraceEvent;
  using memfront::obs::TraceEventKind;
  SpanTotals out;
  for (const auto& track : tracks) {
    out.dropped += track.dropped;
    std::vector<TraceEvent> spans;
    for (const TraceEvent& e : track.events)
      if (e.kind == TraceEventKind::kSpan && e.name != nullptr &&
          e.t1_ns >= e.t0_ns)
        spans.push_back(e);
    // Parents first: earlier start, and on a tie the longer span.
    std::sort(spans.begin(), spans.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                return a.t0_ns != b.t0_ns ? a.t0_ns < b.t0_ns
                                          : a.t1_ns > b.t1_ns;
              });
    struct Open {
      const TraceEvent* span;
      std::uint64_t child_ns;
    };
    std::vector<Open> stack;
    auto close = [&](const Open& o) {
      const std::uint64_t dur = o.span->t1_ns - o.span->t0_ns;
      out.total_s[o.span->name] += 1e-9 * static_cast<double>(dur);
      out.self_s[o.span->name] +=
          1e-9 * static_cast<double>(dur - std::min(dur, o.child_ns));
    };
    for (const TraceEvent& e : spans) {
      while (!stack.empty() && stack.back().span->t1_ns <= e.t0_ns) {
        close(stack.back());
        stack.pop_back();
      }
      if (!stack.empty()) stack.back().child_ns += e.t1_ns - e.t0_ns;
      stack.push_back({&e, 0});
    }
    while (!stack.empty()) {
      close(stack.back());
      stack.pop_back();
    }
  }
  return out;
}

/// Snapshots the global tracer, folds it into `into` and clears it. Call
/// only while no traced thread is recording (after each public call).
inline void harvest_spans(SpanTotals& into) {
  auto& tracer = memfront::obs::Tracer::global();
  into.add(summarize_spans(tracer.snapshot()));
  tracer.clear();
}

}  // namespace e2ebench
