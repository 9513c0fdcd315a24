//===- urcm/support/Telemetry.h - Counters, timers, traces ------*- C++ -*-===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Process-wide telemetry: named counters and histograms (LLVM
/// `Statistic`-style), RAII phase timers, classification remarks, and
/// two exporters — a stable JSON snapshot and Chrome trace-event JSON
/// (loadable in chrome://tracing / Perfetto).
///
/// Cost model. Telemetry is off by default and every recording call
/// starts with one relaxed load of a global flag — a predictable
/// untaken branch, so instrumented code paths pay nothing measurable
/// when disabled (the benches assert this stays within noise). When
/// enabled, counters and histograms write to *thread-local* cells with
/// relaxed atomics — no locks, no cross-thread cache-line sharing on
/// the hot path; exporters aggregate across threads. Phase spans take a
/// per-thread mutex, which only an exporter ever contends.
///
/// Remarks follow the branch-on-null-sink contract: emission sites do
///
///   if (telemetry::RemarkSink *S = telemetry::classifySink())
///     S->remark(...);
///
/// and classifySink() is null unless telemetry is enabled *and* a sink
/// was installed, so a disabled build never constructs a remark.
///
/// Defining URCM_TELEMETRY_DISABLED at compile time turns the flag load
/// into `false` and compiles every recording body out entirely.
///
//===----------------------------------------------------------------------===//

#ifndef URCM_SUPPORT_TELEMETRY_H
#define URCM_SUPPORT_TELEMETRY_H

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace urcm {
namespace telemetry {

namespace detail {

#ifndef URCM_TELEMETRY_DISABLED
extern std::atomic<bool> EnabledFlag;
inline bool enabledFast() {
  return EnabledFlag.load(std::memory_order_relaxed);
}
#else
inline bool enabledFast() { return false; }
#endif

uint64_t nowNs();
void counterAdd(uint32_t Id, uint64_t N);
void histRecord(uint32_t Id, uint64_t Value);
void endPhase(const char *Name, std::string Detail, uint64_t StartNs);
uint32_t registerCounter(const char *Name, const char *Desc);
uint32_t registerHistogram(const char *Name, const char *Desc);

} // namespace detail

/// Master switch. Recording calls are no-ops while disabled. Flip it
/// before spawning worker threads when possible; the flag itself is
/// safe to toggle at any time.
bool enabled();
void setEnabled(bool On);

/// Nanoseconds since process telemetry start (steady clock). Exposed so
/// instrumentation can aggregate interval time into counters without a
/// span per interval.
uint64_t nowNanos();

/// A named monotonic counter. Instances must have static storage
/// duration (registration is permanent); use the URCM_STAT macro.
class Counter {
public:
  Counter(const char *Name, const char *Desc)
      : Name(Name), Desc(Desc), Id(detail::registerCounter(Name, Desc)) {}
  Counter(const Counter &) = delete;
  Counter &operator=(const Counter &) = delete;

  void add(uint64_t N = 1) {
    if (detail::enabledFast())
      detail::counterAdd(Id, N);
  }
  /// Aggregated value across all threads, live and exited.
  uint64_t value() const;
  const char *name() const { return Name; }
  const char *desc() const { return Desc; }

private:
  const char *Name;
  const char *Desc;
  uint32_t Id;
};

/// A named log-linear histogram (4 sub-buckets per power of two, so
/// percentile estimates carry at most 25% relative error). Instances
/// must have static storage duration; use the URCM_HISTOGRAM macro.
class Histogram {
public:
  Histogram(const char *Name, const char *Desc)
      : Name(Name), Desc(Desc), Id(detail::registerHistogram(Name, Desc)) {}
  Histogram(const Histogram &) = delete;
  Histogram &operator=(const Histogram &) = delete;

  void record(uint64_t Value) {
    if (detail::enabledFast())
      detail::histRecord(Id, Value);
  }
  uint64_t count() const;
  uint64_t max() const;
  uint64_t sum() const;
  /// Upper bound of the bucket holding the \p P-th percentile
  /// (0 < P <= 100) of all recorded values; 0 when empty.
  uint64_t percentile(double P) const;
  const char *name() const { return Name; }

private:
  const char *Name;
  const char *Desc;
  uint32_t Id;
};

/// RAII phase span: construction stamps the start, destruction records
/// a {name, detail, start, duration} span on the current thread. Spans
/// feed both the Chrome trace export and the aggregated per-phase
/// totals in the JSON snapshot. Records nothing while disabled.
class ScopedPhase {
public:
  explicit ScopedPhase(const char *Name) : Name(Name) {
    if (detail::enabledFast())
      Start = detail::nowNs();
  }
  ScopedPhase(const char *Name, std::string DetailStr) : Name(Name) {
    if (detail::enabledFast()) {
      Detail = std::move(DetailStr);
      Start = detail::nowNs();
    }
  }
  ScopedPhase(const ScopedPhase &) = delete;
  ScopedPhase &operator=(const ScopedPhase &) = delete;
  ~ScopedPhase() {
    if (Start)
      detail::endPhase(Name, std::move(Detail), Start);
  }

private:
  const char *Name;
  std::string Detail;
  uint64_t Start = 0; // 0 = telemetry was disabled at construction.
};

/// Names the calling thread in trace exports ("pool-3",
/// "main", ...). Cheap; safe to call with telemetry disabled.
void setThreadName(std::string Name);

/// Aggregated totals for one span name (JSON snapshot form).
struct PhaseTotals {
  std::string Name;
  uint64_t Count = 0;
  uint64_t TotalNs = 0;
  uint64_t MaxNs = 0;
};
std::vector<PhaseTotals> phaseTotals();

//===----------------------------------------------------------------------===//
// Classification remarks (-Rurcm-classify)
//===----------------------------------------------------------------------===//

/// One per-memory-reference decision record from the unified management
/// pass: where the reference goes and why. The `const char *` fields
/// point at string literals (the remark taxonomy is closed; see
/// DESIGN.md section 11).
struct ClassifyRemark {
  std::string Function;
  uint32_t Line = 0; ///< 0 = unknown source location.
  uint32_t Col = 0;
  /// Paper reference form: Am_LOAD, AmSp_STORE, UmAm_LOAD, UmAm_STORE.
  const char *Form = "";
  /// Alias-set verdict: unambiguous | ambiguous | spill | spill-reload.
  const char *Verdict = "";
  /// Why the bypass bit is what it is: unambiguous | ambiguous-alias |
  /// spill | reuse-hot | hints-disabled.
  const char *Reason = "";
  /// Why the last-reference bit is set: last-read | dead-store; empty
  /// when the bit is clear.
  const char *DeadReason = "";
  bool Bypass = false;
  bool LastRef = false;
  int32_t AliasSet = -1; ///< Alias-set id, or -1 when none applies.

  /// The stable one-line text form (golden-tested):
  ///   line:col: urcm-classify: FORM func=... class=... bypass=B
  ///   lastref=L alias-set=N reason=R [dead=D]
  std::string str() const;
};

/// Consumer of classification remarks.
class RemarkSink {
public:
  virtual ~RemarkSink();
  virtual void remark(const ClassifyRemark &R) = 0;
};

/// The installed sink, or null when telemetry is disabled or no sink is
/// installed. Emission sites must branch on the returned pointer.
RemarkSink *classifySink();
/// Installs \p Sink (not owned; null uninstalls).
void setClassifySink(RemarkSink *Sink);

/// Installs the built-in collecting sink: remarks accumulate for the
/// JSON snapshot / collectedRemarks(), and are echoed line-by-line to
/// \p Echo when non-null.
void enableClassifyCapture(std::FILE *Echo = nullptr);
std::vector<ClassifyRemark> collectedRemarks();

//===----------------------------------------------------------------------===//
// Exporters
//===----------------------------------------------------------------------===//

/// Stable JSON snapshot of all registered counters, histograms,
/// aggregated phase totals, and collected remarks (sorted by name;
/// schema in docs/telemetry_schema.json).
std::string snapshotJSON();

/// Chrome trace-event JSON ({"traceEvents":[...]}): one complete ("X")
/// event per recorded span plus process/thread-name metadata.
std::string chromeTraceJSON();

/// Human-readable counter/histogram/phase listing (urcmc --telemetry).
/// Histograms print p50/p90/p99 (log-linear estimates, <= 25% relative
/// error) next to the raw bucket dump.
std::string summaryText();

/// Background time-series sampler (urcmc/urcm_report --metrics-out).
/// A dedicated thread appends one JSON object per line (JSONL) to the
/// given file every IntervalMs milliseconds:
///
///   {"t_ms": ..., "events": ..., "events_per_s": ...,
///    "rss_kb": ..., "rss_hwm_kb": ..., "counters": {...}}
///
/// where `events` is the cumulative work metric (data references
/// simulated plus trace events streamed), `events_per_s` its rate over
/// the last interval, the RSS fields come from /proc/self/status
/// (0 off Linux), and `counters` holds every registered counter with a
/// nonzero aggregate. stop() (or destruction) joins the thread and
/// appends one final sample, so even sub-interval runs produce a
/// complete trajectory. Construction never fails the host tool: if the
/// file cannot be opened the sampler is inert.
class MetricsSampler {
public:
  explicit MetricsSampler(const std::string &Path,
                          uint32_t IntervalMs = 200);
  ~MetricsSampler();
  MetricsSampler(const MetricsSampler &) = delete;
  MetricsSampler &operator=(const MetricsSampler &) = delete;

  /// True when the output file was opened and the thread is running.
  bool active() const { return P != nullptr; }

  /// Stops the thread, writes the final sample and closes the file.
  /// Idempotent.
  void stop();

private:
  struct Impl;
  Impl *P = nullptr;
};

/// Zeroes every counter and histogram and drops all spans and remarks.
/// Registration (names) is permanent. Intended for tests and tools; do
/// not race it against recording threads.
void reset();

} // namespace telemetry
} // namespace urcm

//===----------------------------------------------------------------------===//
// Registration macros (LLVM Statistic style). The variables are
// function-local or namespace-scope statics; both expand to nothing
// that survives the optimizer when URCM_TELEMETRY_DISABLED is defined.
//===----------------------------------------------------------------------===//

#ifndef URCM_TELEMETRY_DISABLED
#define URCM_STAT(Var, Name, Desc)                                           \
  static ::urcm::telemetry::Counter Var(Name, Desc)
#define URCM_HISTOGRAM(Var, Name, Desc)                                      \
  static ::urcm::telemetry::Histogram Var(Name, Desc)
#else
namespace urcm::telemetry::detail {
struct NullCounter {
  void add(uint64_t = 1) const {}
  uint64_t value() const { return 0; }
};
struct NullHistogram {
  void record(uint64_t) const {}
};
} // namespace urcm::telemetry::detail
#define URCM_STAT(Var, Name, Desc)                                           \
  static constexpr ::urcm::telemetry::detail::NullCounter Var {}
#define URCM_HISTOGRAM(Var, Name, Desc)                                      \
  static constexpr ::urcm::telemetry::detail::NullHistogram Var {}
#endif

#endif // URCM_SUPPORT_TELEMETRY_H
