//===- perfbench/src/Spans.cpp - In-memory span recorder -----------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

using namespace perfbench;

namespace {

std::atomic<bool> Enabled{false};
std::atomic<uint32_t> NextId{1};
std::atomic<uint32_t> CurrentRun{0};
std::mutex M;
std::vector<Span> Done; // Guarded by M.
thread_local uint32_t Current = 0;

bool tracing() { return Enabled.load(std::memory_order_relaxed); }

/// Every recorded span, in completion order.
std::vector<Span> spans() {
  std::lock_guard<std::mutex> Lock(M);
  return Done;
}

} // namespace

uint64_t perfbench::nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void perfbench::setTracing(bool On) { Enabled.store(On); }

uint32_t perfbench::newRun() { return CurrentRun.fetch_add(1) + 1; }

uint32_t perfbench::currentSpan() { return Current; }

ScopedSpan::ScopedSpan(const char *Name) : ScopedSpan(Name, Current) {}

ScopedSpan::ScopedSpan(const char *Name, uint32_t Parent) {
  if (!tracing())
    return;
  S.Name = Name;
  S.Id = NextId.fetch_add(1);
  S.Parent = Parent;
  S.Run = CurrentRun.load(std::memory_order_relaxed);
  SavedCurrent = Current;
  Current = S.Id;
  S.StartNs = nowNs();
}

ScopedSpan::~ScopedSpan() {
  if (S.Id == 0)
    return;
  S.EndNs = nowNs();
  Current = SavedCurrent;
  std::lock_guard<std::mutex> Lock(M);
  Done.push_back(S);
}

std::map<std::string, SpanTotals> perfbench::spanTotals(uint32_t Run) {
  std::vector<Span> All = spans();
  std::map<uint32_t, std::vector<const Span *>> Children;
  for (const Span &S : All)
    if (S.Parent != 0)
      Children[S.Parent].push_back(&S);

  std::map<std::string, SpanTotals> Totals;
  for (const Span &S : All) {
    if (Run != 0 && S.Run != Run)
      continue;
    // Union of the children's intervals, clipped to this span: children
    // on other threads may overlap one another.
    std::vector<std::pair<uint64_t, uint64_t>> Cover;
    auto It = Children.find(S.Id);
    if (It != Children.end())
      for (const Span *C : It->second)
        Cover.emplace_back(std::max(C->StartNs, S.StartNs),
                           std::min(C->EndNs, S.EndNs));
    std::sort(Cover.begin(), Cover.end());
    uint64_t Covered = 0, Reach = S.StartNs;
    for (auto [B, E] : Cover) {
      B = std::max(B, Reach);
      if (E > B) {
        Covered += E - B;
        Reach = E;
      }
    }
    SpanTotals &T = Totals[S.Name];
    ++T.Count;
    T.TotalS += S.seconds();
    T.SelfS += double(S.EndNs - S.StartNs - Covered) * 1e-9;
  }
  return Totals;
}

bool perfbench::writeSpans(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::vector<Span> All = spans();
  uint64_t Origin = All.empty() ? 0 : All.front().StartNs;
  for (const Span &S : All)
    Origin = std::min(Origin, S.StartNs);
  std::fprintf(F, "{\"spans\": [");
  for (size_t I = 0; I != All.size(); ++I) {
    const Span &S = All[I];
    std::fprintf(F,
                 "%s\n  {\"name\": \"%s\", \"id\": %u, \"parent\": %u, "
                 "\"run\": %u, \"start_ns\": %llu, \"end_ns\": %llu}",
                 I ? "," : "", S.Name, S.Id, S.Parent, S.Run,
                 static_cast<unsigned long long>(S.StartNs - Origin),
                 static_cast<unsigned long long>(S.EndNs - Origin));
  }
  std::fprintf(F, "\n], \"totals\": {");
  bool First = true;
  for (const auto &[Name, T] : spanTotals()) {
    std::fprintf(F,
                 "%s\n  \"%s\": {\"count\": %llu, \"total_s\": %.6f, "
                 "\"self_s\": %.6f}",
                 First ? "" : ",", Name.c_str(),
                 static_cast<unsigned long long>(T.Count), T.TotalS,
                 T.SelfS);
    First = false;
  }
  std::fprintf(F, "\n}}\n");
  return std::fclose(F) == 0;
}
