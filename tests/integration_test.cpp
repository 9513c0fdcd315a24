//===- integration_test.cpp - Parameterized end-to-end sweeps ------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
// Property-style sweeps: for every workload and a grid of cache
// geometries/policies, the unified scheme must (a) compute identical
// results, (b) keep the paranoid shadow memory clean, (c) never increase
// data-cache traffic, and (d) obey the cache conservation laws.
//
//===----------------------------------------------------------------------===//

#include "urcm/driver/Driver.h"
#include "urcm/sim/CacheModel.h"
#include "urcm/workloads/Workloads.h"

#include <gtest/gtest.h>

#include <tuple>

using namespace urcm;

namespace {

struct SweepParam {
  const char *WorkloadName;
  uint32_t NumLines;
  uint32_t Assoc;
  CachePolicy Policy;
  bool EraMode;
};

std::string paramName(const ::testing::TestParamInfo<SweepParam> &Info) {
  const SweepParam &P = Info.param;
  std::string Name = P.WorkloadName;
  Name += "_L" + std::to_string(P.NumLines);
  Name += "_A" + std::to_string(P.Assoc);
  Name += cachePolicyName(P.Policy);
  Name += P.EraMode ? "_era" : "_alloc";
  return Name;
}

class SchemeSweep : public ::testing::TestWithParam<SweepParam> {};

void checkConservation(const CacheStats &S) {
  // hits + misses == through-cache refs.
  EXPECT_EQ(S.Reads + S.Writes, S.ReadHits + S.WriteHits + S.misses());
  // Every miss allocates exactly one line.
  EXPECT_EQ(S.misses(), S.Fills);
}

} // namespace

TEST_P(SchemeSweep, UnifiedNeverLosesOnCacheTraffic) {
  const SweepParam &P = GetParam();
  const Workload *W = findWorkload(P.WorkloadName);
  ASSERT_NE(W, nullptr);

  CompileOptions Options;
  Options.IRGen.ScalarLocalsInMemory = P.EraMode;
  CacheConfig Cache;
  Cache.NumLines = P.NumLines;
  Cache.Assoc = P.Assoc;
  Cache.Policy = P.Policy;

  SchemeComparison C = compareSchemes(W->Source, Options, Cache);
  ASSERT_TRUE(C.ok()) << C.Error;

  // (a)+(b) are checked inside compareSchemes (outputs equal, coherence
  // clean). (c): the cache never handles more traffic under the unified
  // scheme.
  EXPECT_LE(C.Unified.Cache.cacheTraffic(),
            C.Conventional.Cache.cacheTraffic());
  // Same instruction stream: reference counts match.
  EXPECT_EQ(C.Unified.Refs.total(), C.Conventional.Refs.total());
  // The conventional scheme must report zero hint activity.
  EXPECT_EQ(C.Conventional.Refs.Bypassed, 0u);
  EXPECT_EQ(C.Conventional.Cache.DeadFrees, 0u);

  // (d) conservation laws for both runs.
  checkConservation(C.Conventional.Cache);
  checkConservation(C.Unified.Cache);
}

INSTANTIATE_TEST_SUITE_P(
    GeometryGrid, SchemeSweep,
    ::testing::Values(
        // The Figure-5 configuration (era compiler) across geometries.
        SweepParam{"Bubble", 128, 2, CachePolicy::LRU, true},
        SweepParam{"Bubble", 32, 1, CachePolicy::LRU, true},
        SweepParam{"Intmm", 128, 2, CachePolicy::LRU, true},
        SweepParam{"Intmm", 64, 4, CachePolicy::FIFO, true},
        SweepParam{"Queen", 128, 2, CachePolicy::LRU, true},
        SweepParam{"Queen", 16, 2, CachePolicy::Random, true},
        SweepParam{"Sieve", 128, 2, CachePolicy::LRU, true},
        SweepParam{"Sieve", 256, 8, CachePolicy::FIFO, true},
        SweepParam{"Towers", 128, 2, CachePolicy::LRU, true},
        SweepParam{"Towers", 64, 2, CachePolicy::Random, true},
        // Modern allocation mode.
        SweepParam{"Bubble", 128, 2, CachePolicy::LRU, false},
        SweepParam{"Queen", 64, 4, CachePolicy::LRU, false},
        SweepParam{"Sieve", 128, 2, CachePolicy::FIFO, false},
        SweepParam{"Towers", 128, 2, CachePolicy::LRU, false}),
    paramName);

namespace {

class PuzzleSweep : public ::testing::TestWithParam<SweepParam> {};

} // namespace

// Puzzle is the heaviest benchmark; sweep it separately with fewer
// configurations so the suite stays fast.
TEST_P(PuzzleSweep, UnifiedNeverLosesOnCacheTraffic) {
  const SweepParam &P = GetParam();
  const Workload *W = findWorkload(P.WorkloadName);
  ASSERT_NE(W, nullptr);
  CompileOptions Options;
  Options.IRGen.ScalarLocalsInMemory = P.EraMode;
  CacheConfig Cache;
  Cache.NumLines = P.NumLines;
  Cache.Assoc = P.Assoc;
  Cache.Policy = P.Policy;
  SchemeComparison C = compareSchemes(W->Source, Options, Cache);
  ASSERT_TRUE(C.ok()) << C.Error;
  EXPECT_LE(C.Unified.Cache.cacheTraffic(),
            C.Conventional.Cache.cacheTraffic());
}

INSTANTIATE_TEST_SUITE_P(
    PuzzleGrid, PuzzleSweep,
    ::testing::Values(
        SweepParam{"Puzzle", 128, 2, CachePolicy::LRU, true},
        SweepParam{"Puzzle", 128, 2, CachePolicy::LRU, false}),
    paramName);

namespace {

/// Line-size sweep parameters (conventional scheme).
class LineSizeSweep : public ::testing::TestWithParam<uint32_t> {};

} // namespace

TEST_P(LineSizeSweep, ProgramsRunAtAnyLineSize) {
  uint32_t LineWords = GetParam();
  const Workload *W = findWorkload("Sieve");
  CompileOptions Options;
  Options.IRGen.ScalarLocalsInMemory = true;
  Options.Scheme = UnifiedOptions::conventional();
  SimConfig Sim;
  Sim.Cache.NumLines = 128;
  Sim.Cache.Assoc = 2;
  Sim.Cache.LineWords = LineWords;
  DiagnosticEngine Diags;
  SimResult R = compileAndRun(W->Source, Options, Sim, Diags);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.CoherenceViolations, 0u);
  checkConservation(R.Cache);
}

INSTANTIATE_TEST_SUITE_P(LineSizes, LineSizeSweep,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

TEST(Integration, TraceReplayConsistentWithLiveRun) {
  // Record a trace from the live run and replay it under LRU: cache stats
  // must match exactly (two independent cache implementations).
  const Workload *W = findWorkload("Queen");
  CompileOptions Options;
  Options.IRGen.ScalarLocalsInMemory = true;
  SimConfig Sim;
  Sim.Cache.NumLines = 64;
  Sim.Cache.Assoc = 2;
  Sim.RecordTrace = true;
  DiagnosticEngine Diags;
  SimResult Live = compileAndRun(W->Source, Options, Sim, Diags);
  ASSERT_TRUE(Live.ok()) << Live.Error;

  CacheStats Replayed =
      replayTrace(Live.Trace, Sim.Cache, CachePolicy::LRU);
  EXPECT_EQ(Live.Cache.Reads, Replayed.Reads);
  EXPECT_EQ(Live.Cache.ReadHits, Replayed.ReadHits);
  EXPECT_EQ(Live.Cache.WriteHits, Replayed.WriteHits);
  EXPECT_EQ(Live.Cache.Fills, Replayed.Fills);
  EXPECT_EQ(Live.Cache.WriteBacks, Replayed.WriteBacks);
  EXPECT_EQ(Live.Cache.DeadFrees, Replayed.DeadFrees);
  EXPECT_EQ(Live.Cache.BypassReads, Replayed.BypassReads);
  EXPECT_EQ(Live.Cache.BypassHitMigrations,
            Replayed.BypassHitMigrations);
}

TEST(Integration, MINNeverWorseThanLRUOnWorkloadTraces) {
  for (const char *Name : {"Queen", "Sieve"}) {
    const Workload *W = findWorkload(Name);
    CompileOptions Options;
    Options.IRGen.ScalarLocalsInMemory = true;
    Options.Scheme = UnifiedOptions::conventional();
    SimConfig Sim;
    Sim.Cache.NumLines = 64;
    Sim.Cache.Assoc = 4;
    Sim.RecordTrace = true;
    DiagnosticEngine Diags;
    SimResult Live = compileAndRun(W->Source, Options, Sim, Diags);
    ASSERT_TRUE(Live.ok()) << Live.Error;
    CacheStats MIN = replayTrace(Live.Trace, Sim.Cache, CachePolicy::MIN);
    CacheStats LRU = replayTrace(Live.Trace, Sim.Cache, CachePolicy::LRU);
    EXPECT_LE(MIN.misses(), LRU.misses()) << Name;
  }
}
