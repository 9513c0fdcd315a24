//===- perfbench/src/Spans.h - In-memory span recorder ----------*- C++ -*-===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own tracing: a span (name, start, end, parent, run id)
/// around each call the harness makes into one of the program's modules.
/// Spans stay in memory while the benchmark runs and are written out once
/// at exit, so recording costs two clock reads and one locked append.
/// Nothing here reaches inside the program: spans only bracket calls into
/// its public functions.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (std::chrono::steady_clock).
uint64_t nowNs();

/// One recorded interval. Parent 0 means a root span.
struct Span {
  const char *Name = "";
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  uint32_t Id = 0;
  uint32_t Parent = 0;
  uint32_t Run = 0;

  double seconds() const { return double(EndNs - StartNs) * 1e-9; }
};

/// Per-name totals. Self time is a span's duration minus the part of its
/// interval covered by its children.
struct SpanTotals {
  uint64_t Count = 0;
  double TotalS = 0;
  double SelfS = 0;
};

/// Process-wide recorder. Disabled, it records nothing and ScopedSpan
/// costs one relaxed load.
void setTracing(bool On);

/// Starts a new run id (one per workload iteration or probe) and makes
/// it current for spans opened afterwards on any thread.
uint32_t newRun();

/// RAII span. The parent defaults to the innermost open span on this
/// thread; work handed to another thread passes it explicitly.
class ScopedSpan {
public:
  explicit ScopedSpan(const char *Name);
  ScopedSpan(const char *Name, uint32_t Parent);
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;
  ~ScopedSpan();

  uint32_t id() const { return S.Id; }

private:
  Span S;
  uint32_t SavedCurrent = 0;
};

/// The innermost open span on this thread (0 if none).
uint32_t currentSpan();

/// Per-name totals over the spans of run \p Run (every run when 0).
std::map<std::string, SpanTotals> spanTotals(uint32_t Run = 0);

/// Writes every span plus the per-name totals as JSON to \p Path.
bool writeSpans(const std::string &Path);

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
