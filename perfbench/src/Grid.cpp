//===- perfbench/src/Grid.cpp - Workload inputs ---------------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Grid.h"

#include "urcm/support/RNG.h"

#include <algorithm>
#include <cstdio>

using namespace urcm;
using namespace perfbench;

CacheConfig perfbench::paperCache() {
  CacheConfig C;
  C.NumLines = 128;
  C.Assoc = 2;
  C.LineWords = 1;
  return C;
}

const std::vector<CachePolicy> &perfbench::allPolicies() {
  static const std::vector<CachePolicy> Policies = {
      CachePolicy::LRU,      CachePolicy::FIFO,  CachePolicy::Random,
      CachePolicy::MIN,      CachePolicy::TreePLRU, CachePolicy::SRRIP,
      CachePolicy::LivenessBypass};
  return Policies;
}

std::vector<SweepPoint> perfbench::reportPoints() {
  // urcm_report's replacement-policy grid, in its order.
  static const CachePolicy ReportPolicies[] = {
      CachePolicy::LRU,      CachePolicy::FIFO,  CachePolicy::Random,
      CachePolicy::TreePLRU, CachePolicy::SRRIP, CachePolicy::LivenessBypass};
  std::vector<SweepPoint> Points;
  for (CachePolicy P : ReportPolicies)
    for (bool Strip : {false, true}) {
      SweepPoint Pt;
      Pt.Config = paperCache();
      Pt.Config.Policy = P;
      Pt.Policy = P;
      Pt.IgnoreHints = Strip;
      Points.push_back(Pt);
    }
  return Points;
}

const std::vector<ReportConfig> &perfbench::reportConfigs() {
  static const std::vector<ReportConfig> Configs = [] {
    CompileOptions Era;
    Era.IRGen.ScalarLocalsInMemory = true;
    CompileOptions Unified = Era;
    Unified.Scheme = UnifiedOptions::unified();
    CompileOptions Conventional = Era;
    Conventional.Scheme = UnifiedOptions::conventional();
    CompileOptions Complete;
    Complete.PromoteLoopScalars = true;
    Complete.Scheme = UnifiedOptions::reuseAware();
    // urcm_report compiles the era baseline with the conventional
    // options a second time; the benchmark keeps that duplicate so the
    // compile set is the report's 24 pipelines.
    return std::vector<ReportConfig>{{"fig5-unified", Unified},
                                     {"fig5-conventional", Conventional},
                                     {"era-baseline", Conventional},
                                     {"complete-unified", Complete}};
  }();
  return Configs;
}

CompileOptions perfbench::fig5Options() { return reportConfigs()[0].Options; }

namespace {

template <typename T, size_t N> void shuffle(SplitMix64 &Rng, T (&A)[N]) {
  for (size_t I = N - 1; I != 0; --I)
    std::swap(A[I], A[Rng.nextBelow(I + 1)]);
}

const CachePolicy LivePolicies[] = {CachePolicy::LRU, CachePolicy::FIFO,
                                    CachePolicy::Random,
                                    CachePolicy::TreePLRU,
                                    CachePolicy::SRRIP};
constexpr unsigned LiveSlots = 3;

} // namespace

std::vector<SweepPoint> perfbench::sweepGrid(uint64_t Seed) {
  static const uint32_t Assocs[] = {1, 2, 4, 8};
  SplitMix64 Rng(Seed ^ 0x5eeb9a1dULL);
  std::vector<SweepPoint> Points;
  for (CachePolicy P : allPolicies()) {
    // Within a policy, the four associativities take the four size
    // classes in a seeded order, and two of them replay hint-stripped.
    // Class k pairs 16 * 4^k lines (doubled on a coin flip, at most 1024)
    // with 8 >> k words per line, so the multiset of cache capacities, and
    // with it the replay cost, hardly moves between seeds.
    uint32_t Class[] = {0, 1, 2, 3};
    bool Strip[] = {false, false, true, true};
    shuffle(Rng, Class);
    shuffle(Rng, Strip);
    for (unsigned I = 0; I != 4; ++I) {
      SweepPoint Pt;
      Pt.Policy = P;
      Pt.Config.Policy = P;
      Pt.Config.Assoc = Assocs[I];
      Pt.Config.NumLines = std::min<uint32_t>(
          1024, (16u << (2 * Class[I])) << Rng.nextBelow(2));
      Pt.Config.LineWords = 8u >> Class[I];
      Pt.Config.Seed = Rng.next();
      Pt.IgnoreHints = Strip[I];
      Points.push_back(Pt);
    }
  }
  return Points;
}

std::vector<const Workload *> perfbench::livePrograms() {
  // Longest-running first, so the pool starts the comparisons that bound
  // the iteration's wall time before the short ones.
  std::vector<const Workload *> Programs;
  for (const char *Name : {"Towers", "Puzzle", "Bubble", "Quick", "Perm",
                           "Intmm", "Queen", "Sieve"})
    Programs.push_back(findWorkload(Name));
  return Programs;
}

std::vector<LiveCase> perfbench::liveCases(uint64_t Seed) {
  static const uint32_t AssocClass[LiveSlots][2] = {{1, 2}, {4, 4}, {8, 8}};
  SplitMix64 Rng(Seed ^ 0x11feca5eULL);
  std::vector<LiveCase> Cases;
  std::vector<const Workload *> Programs = livePrograms();
  for (size_t P = 0; P != Programs.size(); ++P) {
    // As in sweepGrid: the slots take the capacity classes in a seeded
    // order; class k has 32 * 4^k lines (doubled on a coin flip) of
    // 4 >> k words.
    uint32_t Class[] = {0, 1, 2};
    shuffle(Rng, Class);
    for (unsigned S = 0; S != LiveSlots; ++S) {
      LiveCase C;
      C.Program = Programs[P];
      C.Cache.Policy = LivePolicies[(3 * P + S) % 5];
      C.Cache.Assoc = AssocClass[S][Rng.nextBelow(2)];
      C.Cache.NumLines = (32u << (2 * Class[S])) << Rng.nextBelow(2);
      C.Cache.LineWords = 4u >> Class[S];
      C.Cache.Seed = Rng.next();
      Cases.push_back(C);
    }
  }
  return Cases;
}

std::string perfbench::describe(const CacheConfig &C, CachePolicy P) {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "%s %ux%ux%uw", cachePolicyName(P),
                C.Assoc, C.NumLines / C.Assoc, C.LineWords);
  return Buf;
}

std::string perfbench::describe(const SweepPoint &P) {
  return describe(P.Config, P.Policy) +
         (P.IgnoreHints ? " stripped" : " hinted");
}
