//===- shardedreplay_test.cpp - Sharded-replay bit-identity tests --------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
// The sharded replay engine's contract is the merge invariant: set
// shards (and capacity shards, and the sequential leftover unit)
// replayed independently and merged must reproduce the sequential
// replay counters bit for bit, for every shard count — including ones
// that do not divide the set count. These tests pin that against
// replaySweepPoints for all six paper benchmarks and for adversarial
// synthetic traces, across shard counts {1, 2, 7, num_sets}.
//
//===----------------------------------------------------------------------===//

#include "urcm/sim/ShardedReplay.h"

#include "urcm/driver/Driver.h"
#include "urcm/sim/SweepEngine.h"
#include "urcm/support/RNG.h"
#include "urcm/support/ThreadPool.h"
#include "urcm/workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace urcm;

namespace {

CacheConfig config(uint32_t Lines, uint32_t Assoc, uint32_t LineWords = 1) {
  CacheConfig C;
  C.NumLines = Lines;
  C.Assoc = Assoc;
  C.LineWords = LineWords;
  return C;
}

/// A deterministic trace with locality, writes, and hint bits on a
/// fraction of events (hint placement need not be compiler-plausible:
/// the replayers must agree on any input).
std::vector<TraceEvent> hintedTrace(uint64_t Seed, size_t N,
                                    uint32_t AddressRange) {
  SplitMix64 Rng(Seed);
  std::vector<TraceEvent> Trace;
  Trace.reserve(N);
  uint32_t Hot = 0;
  for (size_t I = 0; I != N; ++I) {
    uint64_t Roll = Rng.nextBelow(100);
    TraceEvent E;
    E.Addr = static_cast<uint32_t>(
        Roll < 60 ? (Hot + Rng.nextBelow(8)) % AddressRange
                  : Rng.nextBelow(AddressRange));
    if (Roll == 99)
      Hot = static_cast<uint32_t>(Rng.nextBelow(AddressRange));
    E.IsWrite = Rng.nextBelow(4) == 0;
    E.Info.Bypass = Rng.nextBelow(10) == 0;
    E.Info.LastRef = !E.Info.Bypass && Rng.nextBelow(13) == 0;
    Trace.push_back(E);
  }
  return Trace;
}

std::vector<TraceEvent> strippedCopy(std::vector<TraceEvent> Trace) {
  for (TraceEvent &E : Trace) {
    E.Info.Bypass = false;
    E.Info.LastRef = false;
  }
  return Trace;
}

/// The shard counts the merge invariant is pinned at: sequential,
/// even, a divisor-hostile prime, and one shard per set of the paper
/// geometry (128 lines / 2 ways = 64 sets).
const uint32_t ShardCounts[] = {1, 2, 7, 64};

/// A mixed point set exercising every unit family: the two-way fast
/// kernel, the generic replayer (other associativities, write-through,
/// FIFO), and both hint views.
std::vector<SweepPoint> mixedShardablePoints() {
  std::vector<SweepPoint> Points = {
      {config(128, 2), CachePolicy::LRU, false},
      {config(128, 2), CachePolicy::LRU, true},
      {config(16, 2), CachePolicy::LRU, false},
      {config(64, 4), CachePolicy::LRU, false},
      {config(64, 4), CachePolicy::LRU, true},
      {config(64, 2), CachePolicy::FIFO, false},
      {config(32, 2, 2), CachePolicy::LRU, false},
  };
  SweepPoint WriteThrough{config(64, 2), CachePolicy::LRU, false};
  WriteThrough.Config.Write = WritePolicy::WriteThrough;
  Points.push_back(WriteThrough);
  return Points;
}

std::vector<TraceEvent> tracedWorkloadRun(const Workload &W) {
  CompileOptions Options;
  Options.IRGen.ScalarLocalsInMemory = true;
  SimConfig Sim;
  Sim.Cache = config(128, 2);
  Sim.RecordTrace = true;
  DiagnosticEngine Diags;
  SimResult R = compileAndRun(W.Source, Options, Sim, Diags);
  EXPECT_TRUE(R.ok()) << W.Name << ": " << R.Error;
  EXPECT_FALSE(R.Trace.empty()) << W.Name;
  return std::move(R.Trace);
}

void expectShardedMatchesSequential(const std::vector<TraceEvent> &Trace,
                                    const std::vector<SweepPoint> &Points,
                                    ThreadPool &Pool,
                                    const std::string &Label) {
  const std::vector<CacheStats> Sequential =
      replaySweepPoints(Trace, Points);
  for (uint32_t Shards : ShardCounts) {
    const std::vector<CacheStats> Sharded =
        replaySweepPointsSharded(Trace, Points, Shards, &Pool);
    ASSERT_EQ(Sharded.size(), Sequential.size());
    for (size_t I = 0; I != Points.size(); ++I)
      EXPECT_EQ(Sharded[I], Sequential[I])
          << Label << ": shards=" << Shards << " point " << I;
  }
}

TEST(ShardedReplay, SixBenchmarksBitIdenticalAcrossShardCounts) {
  ThreadPool Pool(4);
  const std::vector<SweepPoint> Points = mixedShardablePoints();
  for (const Workload &W : paperWorkloads()) {
    const std::vector<TraceEvent> Trace = tracedWorkloadRun(W);
    expectShardedMatchesSequential(Trace, Points, Pool, W.Name);
  }
}

TEST(ShardedReplay, FuzzHintedAndHintStrippedTraces) {
  ThreadPool Pool(4);
  // Beyond the shardable mix: Random and MIN (sequential leftover
  // unit) and fully-associative LRU (capacity shards), both views.
  std::vector<SweepPoint> Points = mixedShardablePoints();
  Points.push_back({config(64, 2), CachePolicy::Random, false});
  Points.push_back({config(64, 2), CachePolicy::MIN, false});
  Points.push_back({config(64, 2), CachePolicy::MIN, true});
  Points.push_back({config(8, 8), CachePolicy::LRU, false});
  Points.push_back({config(32, 32), CachePolicy::LRU, false});
  Points.push_back({config(32, 32), CachePolicy::LRU, true});
  for (uint64_t Seed : {3u, 17u, 99u}) {
    const std::vector<TraceEvent> Hinted = hintedTrace(Seed, 30000, 700);
    expectShardedMatchesSequential(Hinted, Points, Pool,
                                   "hinted seed " + std::to_string(Seed));
    // A hint-stripped trace must agree too (and IgnoreHints points
    // then coincide with their hinted twins).
    expectShardedMatchesSequential(strippedCopy(Hinted), Points, Pool,
                                   "stripped seed " +
                                       std::to_string(Seed));
  }
}

TEST(ShardedReplay, StreamingChunkFeedMatchesBatch) {
  ThreadPool Pool(4);
  // No MIN (streaming-compatible set, as the engine's streaming branch
  // requires); capacity shards and set shards both present.
  std::vector<SweepPoint> Points = mixedShardablePoints();
  Points.push_back({config(8, 8), CachePolicy::LRU, false});
  Points.push_back({config(64, 2), CachePolicy::Random, false});
  const std::vector<TraceEvent> Trace = hintedTrace(21, 50000, 900);
  const std::vector<CacheStats> Sequential =
      replaySweepPoints(Trace, Points);
  for (uint32_t Shards : {2u, 7u}) {
    ShardedSweepStream Stream(Points, Shards, &Pool);
    Stream.reserve(Trace.size());
    size_t Offset = 0;
    for (size_t ChunkSize : {1ul, 97ul, 4096ul, 29999ul, 30000ul,
                             50000ul}) {
      size_t Count = std::min(ChunkSize, Trace.size() - Offset);
      Stream.feed(Trace.data() + Offset, Count);
      Offset += Count;
    }
    ASSERT_EQ(Offset, Trace.size());
    const std::vector<CacheStats> Sharded = Stream.finish();
    for (size_t I = 0; I != Points.size(); ++I)
      EXPECT_EQ(Sharded[I], Sequential[I])
          << "shards=" << Shards << " point " << I;
  }
}

TEST(ShardedReplay, CapacityShardsMatchStackSweep) {
  const std::vector<TraceEvent> Trace = hintedTrace(5, 25000, 500);
  const std::vector<uint32_t> Sizes = {2, 4, 8, 16, 64, 256, 1024};
  ThreadPool Pool(4);
  for (bool IgnoreHints : {false, true}) {
    const std::vector<CacheStats> Expect =
        sweepLRUStackDistance(Trace, Sizes, IgnoreHints);
    std::vector<SweepPoint> Points;
    for (uint32_t S : Sizes)
      Points.push_back({config(S, S), CachePolicy::LRU, IgnoreHints});
    const std::vector<CacheStats> Got =
        replaySweepPointsSharded(Trace, Points, 3, &Pool);
    for (size_t I = 0; I != Sizes.size(); ++I)
      EXPECT_EQ(Got[I], Expect[I])
          << "ignoreHints=" << IgnoreHints << " size " << Sizes[I];
  }
}

/// The engine-level integration: one point-parallel engine run (the
/// streaming branch and the materialized MIN branch both) and the
/// set-sharded library replay return the counters of each point
/// replayed alone, sequentially.
TEST(ShardedReplay, EngineAndShardedReplayMatchSequentialOracle) {
  const Workload *W = findWorkload("Queen");
  ASSERT_NE(W, nullptr);
  std::vector<SweepPoint> Streamable = mixedShardablePoints();
  std::vector<SweepPoint> WithMin = mixedShardablePoints();
  WithMin.push_back({config(128, 2), CachePolicy::MIN, false});
  const std::vector<TraceEvent> Trace = tracedWorkloadRun(*W);

  ThreadPool Pool(4);
  for (const std::vector<SweepPoint> &Points : {Streamable, WithMin}) {
    SweepEngine Engine(&Pool);
    SimConfig Base;
    Base.Cache = config(128, 2);
    Engine.schedule("exp", "grp", Base, Points,
                    [&](const SimConfig &Sim) {
                      DiagnosticEngine Diags;
                      return compileAndRun(W->Source,
                                           [] {
                                             CompileOptions O;
                                             O.IRGen.ScalarLocalsInMemory =
                                                 true;
                                             return O;
                                           }(),
                                           Sim, Diags);
                    });
    Engine.run();
    ASSERT_TRUE(Engine.base("exp").ok());
    const std::vector<CacheStats> Sharded = replaySweepPointsSharded(
        Trace, Points, resolveShardCount(0, Pool), &Pool);
    for (size_t I = 0; I != Points.size(); ++I) {
      const CacheStats Oracle = replaySweepPoints(Trace, {Points[I]})[0];
      EXPECT_EQ(Engine.point("exp", I), Oracle) << "engine point " << I;
      EXPECT_EQ(Sharded[I], Oracle) << "sharded point " << I;
    }
  }
}

TEST(ShardedReplay, ResolveShardCount) {
  ThreadPool Pool(3);
  EXPECT_EQ(resolveShardCount(0, Pool), 4u); // Workers + the caller.
  EXPECT_EQ(resolveShardCount(1, Pool), 1u);
  EXPECT_EQ(resolveShardCount(9, Pool), 9u);
}

} // namespace
