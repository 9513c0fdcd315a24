//===- Telemetry.cpp - Counters, timers, traces --------------------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Storage layout. A leaked registry singleton (immune to static
// destruction order) holds the name tables and a list of live
// ThreadState blocks. Each thread lazily allocates one ThreadState on
// first recording call: a fixed array of relaxed-atomic counter cells,
// lazily-allocated histogram bucket arrays, and a span vector guarded
// by a per-thread mutex. Only the owning thread writes its cells, so
// the relaxed atomics cost what plain adds cost; exporters read
// everything under the registry lock plus the per-thread span locks.
// When a thread exits, its state folds into the registry's retired
// accumulators, so short-lived threads (the streaming trace producers)
// lose nothing.
//
//===----------------------------------------------------------------------===//

#include "urcm/support/Telemetry.h"

#include "urcm/support/StringUtils.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

using namespace urcm;
using namespace urcm::telemetry;

namespace {

constexpr uint32_t MaxCounters = 256;
constexpr uint32_t MaxHistograms = 64;
constexpr uint32_t NumBuckets = 256; // 4 sub-buckets x 64 powers of two.

/// Log-linear bucket index: exact below 4, then 4 sub-buckets per power
/// of two (<= 25% relative error on the bucket upper bound).
uint32_t bucketOf(uint64_t V) {
  if (V < 4)
    return static_cast<uint32_t>(V);
  uint32_t Msb = 63 - static_cast<uint32_t>(__builtin_clzll(V));
  return (Msb << 2) | static_cast<uint32_t>((V >> (Msb - 2)) & 3);
}

uint64_t bucketUpper(uint32_t B) {
  // Buckets 4..7 are never filled (bucketOf maps 4 to bucket 8); giving
  // them bucket 3's bound keeps the shift below well-defined.
  if (B < 8)
    return B < 4 ? B : 3;
  uint32_t Msb = B >> 2, Sub = B & 3;
  return (uint64_t(1) << Msb) + ((uint64_t(Sub) + 1) << (Msb - 2)) - 1;
}

struct Span {
  const char *Name;
  std::string Detail;
  uint64_t StartNs;
  uint64_t DurNs;
};

struct HistCells {
  std::atomic<std::atomic<uint64_t> *> Buckets{nullptr};
  std::atomic<uint64_t> Count{0};
  std::atomic<uint64_t> Sum{0};
  std::atomic<uint64_t> Max{0};
};

struct HistAccum {
  std::array<uint64_t, NumBuckets> Buckets{};
  uint64_t Count = 0;
  uint64_t Sum = 0;
  uint64_t Max = 0;

  void fold(const HistCells &C) {
    if (std::atomic<uint64_t> *B =
            C.Buckets.load(std::memory_order_acquire))
      for (uint32_t I = 0; I != NumBuckets; ++I)
        Buckets[I] += B[I].load(std::memory_order_relaxed);
    Count += C.Count.load(std::memory_order_relaxed);
    Sum += C.Sum.load(std::memory_order_relaxed);
    Max = std::max(Max, C.Max.load(std::memory_order_relaxed));
  }
};

struct ThreadState {
  uint32_t Tid = 0;
  std::string Name;
  std::array<std::atomic<uint64_t>, MaxCounters> Counts{};
  std::array<HistCells, MaxHistograms> Hists;
  std::mutex SpanM;
  std::vector<Span> Spans;

  ~ThreadState() {
    for (HistCells &H : Hists)
      delete[] H.Buckets.load(std::memory_order_relaxed);
  }
};

struct RetiredSpan {
  Span S;
  uint32_t Tid;
  std::string ThreadName;
};

struct NamedId {
  const char *Name;
  const char *Desc;
};

struct Registry {
  std::mutex M;
  std::vector<NamedId> Counters;
  std::vector<NamedId> Histograms;
  std::vector<ThreadState *> Live;
  uint32_t NextTid = 0;
  // Folded state of exited threads.
  std::array<uint64_t, MaxCounters> RetiredCounts{};
  std::array<HistAccum, MaxHistograms> RetiredHists;
  std::vector<RetiredSpan> RetiredSpans;
  // Collected classification remarks.
  std::vector<ClassifyRemark> Remarks;
  std::FILE *RemarkEcho = nullptr;
};

Registry &registry() {
  static Registry *R = new Registry; // Leaked: outlives thread_local dtors.
  return *R;
}

std::chrono::steady_clock::time_point processOrigin() {
  static const std::chrono::steady_clock::time_point Origin =
      std::chrono::steady_clock::now();
  return Origin;
}

/// Registers on first touch, folds into the registry on thread exit.
struct ThreadStateHolder {
  ThreadState *TS;

  ThreadStateHolder() : TS(new ThreadState) {
    Registry &R = registry();
    std::lock_guard<std::mutex> Lock(R.M);
    TS->Tid = R.NextTid++;
    R.Live.push_back(TS);
  }

  ~ThreadStateHolder() {
    Registry &R = registry();
    std::lock_guard<std::mutex> Lock(R.M);
    for (uint32_t I = 0; I != MaxCounters; ++I)
      R.RetiredCounts[I] += TS->Counts[I].load(std::memory_order_relaxed);
    for (uint32_t I = 0; I != MaxHistograms; ++I)
      R.RetiredHists[I].fold(TS->Hists[I]);
    for (Span &S : TS->Spans)
      R.RetiredSpans.push_back({std::move(S), TS->Tid, TS->Name});
    R.Live.erase(std::find(R.Live.begin(), R.Live.end(), TS));
    delete TS;
  }
};

ThreadState &threadState() {
  thread_local ThreadStateHolder Holder;
  return *Holder.TS;
}

/// The built-in collecting sink (enableClassifyCapture).
class CollectingSink : public RemarkSink {
public:
  void remark(const ClassifyRemark &R) override {
    Registry &Reg = registry();
    std::FILE *Echo;
    {
      std::lock_guard<std::mutex> Lock(Reg.M);
      Reg.Remarks.push_back(R);
      Echo = Reg.RemarkEcho;
    }
    if (Echo) {
      std::string Line = R.str();
      Line.push_back('\n');
      std::fwrite(Line.data(), 1, Line.size(), Echo);
    }
  }
};

CollectingSink &collectingSink() {
  static CollectingSink *S = new CollectingSink;
  return *S;
}

std::atomic<RemarkSink *> InstalledSink{nullptr};

//===--------------------------------------------------------------------===//
// JSON helpers
//===--------------------------------------------------------------------===//

void jsonEscape(std::string &Out, const char *S) {
  for (; *S; ++S) {
    unsigned char C = static_cast<unsigned char>(*S);
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (C < 0x20)
        Out += formatString("\\u%04x", C);
      else
        Out.push_back(static_cast<char>(C));
    }
  }
}

void jsonString(std::string &Out, const std::string &S) {
  Out.push_back('"');
  jsonEscape(Out, S.c_str());
  Out.push_back('"');
}

//===--------------------------------------------------------------------===//
// Aggregation snapshots (taken under the registry lock)
//===--------------------------------------------------------------------===//

std::array<uint64_t, MaxCounters> aggregateCountsLocked(Registry &R) {
  std::array<uint64_t, MaxCounters> Out = R.RetiredCounts;
  for (ThreadState *TS : R.Live)
    for (uint32_t I = 0; I != MaxCounters; ++I)
      Out[I] += TS->Counts[I].load(std::memory_order_relaxed);
  return Out;
}

HistAccum aggregateHistLocked(Registry &R, uint32_t Id) {
  HistAccum Out = R.RetiredHists[Id];
  for (ThreadState *TS : R.Live)
    Out.fold(TS->Hists[Id]);
  return Out;
}

uint64_t histPercentile(const HistAccum &H, double P) {
  if (H.Count == 0)
    return 0;
  double Clamped = std::min(std::max(P, 0.0), 100.0);
  uint64_t Rank = static_cast<uint64_t>(
      std::ceil(Clamped / 100.0 * static_cast<double>(H.Count)));
  Rank = std::max<uint64_t>(Rank, 1);
  uint64_t Seen = 0;
  for (uint32_t B = 0; B != NumBuckets; ++B) {
    Seen += H.Buckets[B];
    if (Seen >= Rank)
      return std::min(bucketUpper(B), H.Max);
  }
  return H.Max;
}

/// All spans, exported as {span, tid, thread name}; collected under the
/// registry lock plus each live thread's span lock.
std::vector<RetiredSpan> collectSpans() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.M);
  std::vector<RetiredSpan> Out = R.RetiredSpans;
  for (ThreadState *TS : R.Live) {
    std::lock_guard<std::mutex> SpanLock(TS->SpanM);
    for (const Span &S : TS->Spans)
      Out.push_back({S, TS->Tid, TS->Name});
  }
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Public API
//===----------------------------------------------------------------------===//

#ifndef URCM_TELEMETRY_DISABLED
std::atomic<bool> detail::EnabledFlag{false};
#endif

bool telemetry::enabled() { return detail::enabledFast(); }

void telemetry::setEnabled(bool On) {
#ifndef URCM_TELEMETRY_DISABLED
  if (On)
    processOrigin(); // Pin the clock origin before the first span.
  detail::EnabledFlag.store(On, std::memory_order_relaxed);
#else
  (void)On;
#endif
}

uint64_t detail::nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - processOrigin())
          .count());
}

uint64_t telemetry::nowNanos() { return detail::nowNs(); }

uint32_t detail::registerCounter(const char *Name, const char *Desc) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.M);
  assert(R.Counters.size() < MaxCounters && "raise MaxCounters");
  R.Counters.push_back({Name, Desc});
  return static_cast<uint32_t>(R.Counters.size() - 1);
}

uint32_t detail::registerHistogram(const char *Name, const char *Desc) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.M);
  assert(R.Histograms.size() < MaxHistograms && "raise MaxHistograms");
  R.Histograms.push_back({Name, Desc});
  return static_cast<uint32_t>(R.Histograms.size() - 1);
}

void detail::counterAdd(uint32_t Id, uint64_t N) {
  threadState().Counts[Id].fetch_add(N, std::memory_order_relaxed);
}

void detail::histRecord(uint32_t Id, uint64_t Value) {
  HistCells &H = threadState().Hists[Id];
  std::atomic<uint64_t> *B = H.Buckets.load(std::memory_order_relaxed);
  if (!B) {
    B = new std::atomic<uint64_t>[NumBuckets]();
    H.Buckets.store(B, std::memory_order_release);
  }
  B[bucketOf(Value)].fetch_add(1, std::memory_order_relaxed);
  H.Count.fetch_add(1, std::memory_order_relaxed);
  H.Sum.fetch_add(Value, std::memory_order_relaxed);
  if (Value > H.Max.load(std::memory_order_relaxed))
    H.Max.store(Value, std::memory_order_relaxed);
}

void detail::endPhase(const char *Name, std::string Detail,
                      uint64_t StartNs) {
  uint64_t End = nowNs();
  ThreadState &TS = threadState();
  std::lock_guard<std::mutex> Lock(TS.SpanM);
  TS.Spans.push_back(
      {Name, std::move(Detail), StartNs, End - StartNs});
}

uint64_t Counter::value() const {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.M);
  return aggregateCountsLocked(R)[Id];
}

uint64_t Histogram::count() const {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.M);
  return aggregateHistLocked(R, Id).Count;
}

uint64_t Histogram::max() const {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.M);
  return aggregateHistLocked(R, Id).Max;
}

uint64_t Histogram::sum() const {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.M);
  return aggregateHistLocked(R, Id).Sum;
}

uint64_t Histogram::percentile(double P) const {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.M);
  return histPercentile(aggregateHistLocked(R, Id), P);
}

void telemetry::setThreadName(std::string Name) {
  ThreadState &TS = threadState();
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.M);
  TS.Name = std::move(Name);
}

std::vector<PhaseTotals> telemetry::phaseTotals() {
  std::map<std::string, PhaseTotals> ByName;
  for (const RetiredSpan &RS : collectSpans()) {
    PhaseTotals &T = ByName[RS.S.Name];
    T.Name = RS.S.Name;
    ++T.Count;
    T.TotalNs += RS.S.DurNs;
    T.MaxNs = std::max(T.MaxNs, RS.S.DurNs);
  }
  std::vector<PhaseTotals> Out;
  Out.reserve(ByName.size());
  for (auto &[Name, T] : ByName)
    Out.push_back(std::move(T));
  return Out;
}

//===----------------------------------------------------------------------===//
// Remarks
//===----------------------------------------------------------------------===//

RemarkSink::~RemarkSink() = default;

std::string ClassifyRemark::str() const {
  std::string Loc = Line == 0 ? std::string("<unknown>")
                              : formatString("%u:%u", Line, Col);
  std::string Out = formatString(
      "%s: urcm-classify: %s func=%s class=%s bypass=%d lastref=%d "
      "alias-set=%d reason=%s",
      Loc.c_str(), Form, Function.c_str(), Verdict, Bypass ? 1 : 0,
      LastRef ? 1 : 0, AliasSet, Reason);
  if (DeadReason[0] != '\0')
    Out += formatString(" dead=%s", DeadReason);
  return Out;
}

RemarkSink *telemetry::classifySink() {
  if (!detail::enabledFast())
    return nullptr;
  return InstalledSink.load(std::memory_order_acquire);
}

void telemetry::setClassifySink(RemarkSink *Sink) {
  InstalledSink.store(Sink, std::memory_order_release);
}

void telemetry::enableClassifyCapture(std::FILE *Echo) {
  {
    Registry &R = registry();
    std::lock_guard<std::mutex> Lock(R.M);
    R.RemarkEcho = Echo;
  }
  setClassifySink(&collectingSink());
}

std::vector<ClassifyRemark> telemetry::collectedRemarks() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.M);
  return R.Remarks;
}

//===----------------------------------------------------------------------===//
// Exporters
//===----------------------------------------------------------------------===//

std::string telemetry::snapshotJSON() {
  // Stable output: every registered name appears, sorted.
  Registry &R = registry();
  std::vector<std::pair<std::string, uint64_t>> Counters;
  std::vector<std::pair<std::string, HistAccum>> Hists;
  std::vector<ClassifyRemark> Remarks;
  {
    std::lock_guard<std::mutex> Lock(R.M);
    std::array<uint64_t, MaxCounters> Counts = aggregateCountsLocked(R);
    for (uint32_t I = 0; I != R.Counters.size(); ++I)
      Counters.emplace_back(R.Counters[I].Name, Counts[I]);
    for (uint32_t I = 0; I != R.Histograms.size(); ++I)
      Hists.emplace_back(R.Histograms[I].Name, aggregateHistLocked(R, I));
    Remarks = R.Remarks;
  }
  std::sort(Counters.begin(), Counters.end());
  std::sort(Hists.begin(), Hists.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  std::vector<PhaseTotals> Phases = phaseTotals();

  std::string Out = "{\n  \"version\": 1,\n  \"counters\": {";
  bool First = true;
  for (const auto &[Name, Value] : Counters) {
    Out += First ? "\n    " : ",\n    ";
    First = false;
    jsonString(Out, Name);
    Out += formatString(": %llu", static_cast<unsigned long long>(Value));
  }
  Out += "\n  },\n  \"histograms\": {";
  First = true;
  for (const auto &[Name, H] : Hists) {
    Out += First ? "\n    " : ",\n    ";
    First = false;
    jsonString(Out, Name);
    Out += formatString(
        ": {\"count\": %llu, \"sum\": %llu, \"max\": %llu, "
        "\"p50\": %llu, \"p90\": %llu, \"p99\": %llu}",
        static_cast<unsigned long long>(H.Count),
        static_cast<unsigned long long>(H.Sum),
        static_cast<unsigned long long>(H.Max),
        static_cast<unsigned long long>(histPercentile(H, 50)),
        static_cast<unsigned long long>(histPercentile(H, 90)),
        static_cast<unsigned long long>(histPercentile(H, 99)));
  }
  Out += "\n  },\n  \"phases\": {";
  First = true;
  for (const PhaseTotals &T : Phases) {
    Out += First ? "\n    " : ",\n    ";
    First = false;
    jsonString(Out, T.Name);
    Out += formatString(
        ": {\"count\": %llu, \"total_us\": %.3f, \"max_us\": %.3f}",
        static_cast<unsigned long long>(T.Count),
        static_cast<double>(T.TotalNs) / 1e3,
        static_cast<double>(T.MaxNs) / 1e3);
  }
  Out += "\n  },\n  \"remarks\": [";
  First = true;
  for (const ClassifyRemark &Rem : Remarks) {
    Out += First ? "\n    {" : ",\n    {";
    First = false;
    Out += "\"function\": ";
    jsonString(Out, Rem.Function);
    Out += formatString(", \"line\": %u, \"col\": %u, \"form\": \"%s\", "
                        "\"class\": \"%s\", \"bypass\": %s, "
                        "\"lastref\": %s, \"alias_set\": %d, "
                        "\"reason\": \"%s\", \"dead\": \"%s\"}",
                        Rem.Line, Rem.Col, Rem.Form, Rem.Verdict,
                        Rem.Bypass ? "true" : "false",
                        Rem.LastRef ? "true" : "false", Rem.AliasSet,
                        Rem.Reason, Rem.DeadReason);
  }
  Out += "\n  ]\n}\n";
  return Out;
}

std::string telemetry::chromeTraceJSON() {
  std::vector<RetiredSpan> Spans = collectSpans();
  std::sort(Spans.begin(), Spans.end(),
            [](const RetiredSpan &A, const RetiredSpan &B) {
              return A.S.StartNs < B.S.StartNs;
            });

  std::string Out = "{\"traceEvents\":[\n";
  Out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"urcm\"}}";

  // One thread_name metadata record per thread that recorded anything.
  std::map<uint32_t, std::string> ThreadNames;
  for (const RetiredSpan &RS : Spans)
    if (!RS.ThreadName.empty())
      ThreadNames.emplace(RS.Tid, RS.ThreadName);
  for (const auto &[Tid, Name] : ThreadNames) {
    Out += formatString(
        ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%u,"
        "\"args\":{\"name\":",
        Tid);
    jsonString(Out, Name);
    Out += "}}";
  }

  for (const RetiredSpan &RS : Spans) {
    Out += ",\n{\"name\":";
    jsonString(Out, RS.S.Name);
    Out += formatString(",\"cat\":\"urcm\",\"ph\":\"X\",\"ts\":%.3f,"
                        "\"dur\":%.3f,\"pid\":1,\"tid\":%u",
                        static_cast<double>(RS.S.StartNs) / 1e3,
                        static_cast<double>(RS.S.DurNs) / 1e3, RS.Tid);
    if (!RS.S.Detail.empty()) {
      Out += ",\"args\":{\"detail\":";
      jsonString(Out, RS.S.Detail);
      Out += "}";
    }
    Out += "}";
  }
  Out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return Out;
}

std::string telemetry::summaryText() {
  Registry &R = registry();
  std::vector<std::pair<std::string, uint64_t>> Counters;
  std::vector<std::pair<std::string, HistAccum>> Hists;
  {
    std::lock_guard<std::mutex> Lock(R.M);
    std::array<uint64_t, MaxCounters> Counts = aggregateCountsLocked(R);
    for (uint32_t I = 0; I != R.Counters.size(); ++I)
      if (Counts[I] != 0)
        Counters.emplace_back(formatString("%-34s %s", R.Counters[I].Name,
                                           R.Counters[I].Desc),
                              Counts[I]);
    for (uint32_t I = 0; I != R.Histograms.size(); ++I) {
      HistAccum H = aggregateHistLocked(R, I);
      if (H.Count != 0)
        Hists.emplace_back(R.Histograms[I].Name, H);
    }
  }
  std::sort(Counters.begin(), Counters.end());
  std::sort(Hists.begin(), Hists.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });

  std::string Out = "=== urcm telemetry ===\n";
  for (const auto &[Label, Value] : Counters)
    Out += formatString("%12llu  %s\n",
                        static_cast<unsigned long long>(Value),
                        Label.c_str());
  for (const auto &[Name, H] : Hists) {
    Out += formatString(
        "%12llu  %-34s p50=%llu p90=%llu p99=%llu max=%llu\n",
        static_cast<unsigned long long>(H.Count), Name.c_str(),
        static_cast<unsigned long long>(histPercentile(H, 50)),
        static_cast<unsigned long long>(histPercentile(H, 90)),
        static_cast<unsigned long long>(histPercentile(H, 99)),
        static_cast<unsigned long long>(H.Max));
    // Raw bucket dump: one [lower..upper]=count term per nonzero
    // log-linear bucket.
    Out += "              buckets:";
    for (uint32_t B = 0; B != NumBuckets; ++B)
      if (H.Buckets[B] != 0)
        Out += formatString(
            " [%llu..%llu]=%llu",
            static_cast<unsigned long long>(B == 0 ? 0
                                                   : bucketUpper(B - 1) + 1),
            static_cast<unsigned long long>(bucketUpper(B)),
            static_cast<unsigned long long>(H.Buckets[B]));
    Out += '\n';
  }
  for (const PhaseTotals &T : phaseTotals())
    Out += formatString("%12.3f ms %-32s (%llu spans)\n",
                        static_cast<double>(T.TotalNs) / 1e6,
                        T.Name.c_str(),
                        static_cast<unsigned long long>(T.Count));
  return Out;
}

void telemetry::reset() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.M);
  R.RetiredCounts.fill(0);
  for (HistAccum &H : R.RetiredHists)
    H = HistAccum();
  R.RetiredSpans.clear();
  R.Remarks.clear();
  for (ThreadState *TS : R.Live) {
    for (std::atomic<uint64_t> &C : TS->Counts)
      C.store(0, std::memory_order_relaxed);
    for (HistCells &H : TS->Hists) {
      if (std::atomic<uint64_t> *B =
              H.Buckets.load(std::memory_order_relaxed))
        for (uint32_t I = 0; I != NumBuckets; ++I)
          B[I].store(0, std::memory_order_relaxed);
      H.Count.store(0, std::memory_order_relaxed);
      H.Sum.store(0, std::memory_order_relaxed);
      H.Max.store(0, std::memory_order_relaxed);
    }
    std::lock_guard<std::mutex> SpanLock(TS->SpanM);
    TS->Spans.clear();
  }
}

//===----------------------------------------------------------------------===//
// Metrics sampler (--metrics-out)
//===----------------------------------------------------------------------===//

namespace {

/// {VmRSS, VmHWM} in KiB from /proc/self/status; {0, 0} off Linux.
std::pair<uint64_t, uint64_t> readRssKb() {
#if defined(__linux__)
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return {0, 0};
  uint64_t Rss = 0, Hwm = 0;
  char Line[256];
  while (std::fgets(Line, sizeof(Line), F)) {
    if (std::strncmp(Line, "VmRSS:", 6) == 0)
      Rss = std::strtoull(Line + 6, nullptr, 10);
    else if (std::strncmp(Line, "VmHWM:", 6) == 0)
      Hwm = std::strtoull(Line + 6, nullptr, 10);
  }
  std::fclose(F);
  return {Rss, Hwm};
#else
  return {0, 0};
#endif
}

} // namespace

struct telemetry::MetricsSampler::Impl {
  std::FILE *File = nullptr;
  uint32_t IntervalMs = 200;
  std::thread Thread;
  std::mutex M;
  std::condition_variable CV;
  bool StopRequested = false;
  // Rate state (sampler thread only).
  uint64_t LastEvents = 0;
  uint64_t LastNs = 0;

  /// Appends one JSONL sample. Called from the sampler thread and once
  /// more (after the join) from stop().
  void writeSample() {
    Registry &R = registry();
    std::vector<std::pair<std::string, uint64_t>> Counters;
    {
      std::lock_guard<std::mutex> Lock(R.M);
      std::array<uint64_t, MaxCounters> Counts = aggregateCountsLocked(R);
      for (uint32_t I = 0; I != R.Counters.size(); ++I)
        if (Counts[I] != 0)
          Counters.emplace_back(R.Counters[I].Name, Counts[I]);
    }
    std::sort(Counters.begin(), Counters.end());

    // The work metric: data references simulated (live runs) plus trace
    // events streamed (replay paths).
    uint64_t Events = 0;
    for (const auto &[Name, Value] : Counters)
      if (Name == "sim.data-refs" || Name == "trace.events")
        Events += Value;
    uint64_t Now = detail::nowNs();
    double Rate = 0;
    if (Now > LastNs)
      Rate = static_cast<double>(Events - LastEvents) /
             (static_cast<double>(Now - LastNs) / 1e9);
    LastEvents = Events;
    LastNs = Now;

    auto [RssKb, HwmKb] = readRssKb();
    std::string Out = formatString(
        "{\"t_ms\": %.3f, \"events\": %llu, \"events_per_s\": %.0f, "
        "\"rss_kb\": %llu, \"rss_hwm_kb\": %llu, \"counters\": {",
        static_cast<double>(Now) / 1e6,
        static_cast<unsigned long long>(Events), Rate,
        static_cast<unsigned long long>(RssKb),
        static_cast<unsigned long long>(HwmKb));
    bool First = true;
    for (const auto &[Name, Value] : Counters) {
      if (!First)
        Out += ", ";
      First = false;
      jsonString(Out, Name);
      Out += formatString(": %llu", static_cast<unsigned long long>(Value));
    }
    Out += "}}\n";
    std::fwrite(Out.data(), 1, Out.size(), File);
    std::fflush(File);
  }
};

telemetry::MetricsSampler::MetricsSampler(const std::string &Path,
                                          uint32_t IntervalMs) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return; // Inert sampler: a bad path never fails the host tool.
  P = new Impl;
  P->File = F;
  P->IntervalMs = IntervalMs == 0 ? 1 : IntervalMs;
  P->LastNs = detail::nowNs();
  P->Thread = std::thread([Impl = P] {
    setThreadName("metrics-sampler");
    std::unique_lock<std::mutex> Lock(Impl->M);
    while (!Impl->StopRequested) {
      Impl->CV.wait_for(Lock,
                        std::chrono::milliseconds(Impl->IntervalMs));
      if (Impl->StopRequested)
        break; // stop() writes the final sample after the join.
      Impl->writeSample();
    }
  });
}

telemetry::MetricsSampler::~MetricsSampler() { stop(); }

void telemetry::MetricsSampler::stop() {
  if (!P)
    return;
  {
    std::lock_guard<std::mutex> Lock(P->M);
    P->StopRequested = true;
  }
  P->CV.notify_all();
  P->Thread.join();
  P->writeSample(); // Final sample: sub-interval runs still get one.
  std::fclose(P->File);
  delete P;
  P = nullptr;
}
