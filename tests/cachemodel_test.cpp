//===- cachemodel_test.cpp - Unified cache-model differential tests ------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
// The unified CacheModel's contract, pinned here from five directions:
//
//  1. live agreement — for every live-eligible policy (LRU, FIFO,
//     Random, TreePLRU, SRRIP) the data facet driven live (LiveCache)
//     and the tag-only replay produce bit-identical CacheStats and
//     attribution tables over the same reference stream, hints
//     included, write-back and write-through;
//  2. mode agreement — for every policy, sequential replay, set-sharded
//     replay at several shard counts, and warm trace-store serving all
//     produce bit-identical CacheStats and attribution tables, over all
//     six paper benchmarks and adversarial fuzz traces;
//  3. policy properties — the TreePLRU tree bits never victimize the
//     most recently touched way (and pointing a way makes it the
//     victim), and SRRIP's aging scan terminates with every RRPV within
//     its 2-bit bound;
//  4. shape agreement — every compile-time shape (1, 2, 4, 8 ways) gives
//     the counters, attribution tables, delivered words and final memory
//     of the runtime-geometry fallback on the same geometry, for every
//     policy, write policy, hint view and attribution setting;
//  5. store invariance — the replacement policy and RNG seed are
//     observers of the recorded trace: changing either never changes
//     the content hash (one stored trace serves the whole policy grid),
//     and a warm engine under a different base policy still serves the
//     correct counters without invoking the producer.
//
//===----------------------------------------------------------------------===//

#include "urcm/sim/CacheModel.h"

#include "urcm/driver/Driver.h"
#include "urcm/sim/ShardedReplay.h"
#include "urcm/sim/SweepEngine.h"
#include "urcm/sim/TraceStore.h"
#include "urcm/support/RNG.h"
#include "urcm/support/ThreadPool.h"
#include "urcm/workloads/Workloads.h"

#include <atomic>
#include <filesystem>
#include <gtest/gtest.h>
#include <memory>

using namespace urcm;

namespace {

CacheConfig config(uint32_t Lines, uint32_t Assoc,
                   uint32_t LineWords = 1) {
  CacheConfig C;
  C.NumLines = Lines;
  C.Assoc = Assoc;
  C.LineWords = LineWords;
  return C;
}

/// Every policy the unified model implements.
const CachePolicy AllPolicies[] = {
    CachePolicy::LRU,      CachePolicy::FIFO,
    CachePolicy::Random,   CachePolicy::MIN,
    CachePolicy::TreePLRU, CachePolicy::SRRIP,
    CachePolicy::LivenessBypass,
};

/// A deterministic trace with locality, writes, hint bits, and
/// reference ids (the LivenessBypass predictor trains per RefId, so
/// id-free traces would leave it untested).
std::vector<TraceEvent> hintedTrace(uint64_t Seed, size_t N,
                                    uint32_t AddressRange) {
  SplitMix64 Rng(Seed);
  std::vector<TraceEvent> Trace;
  Trace.reserve(N);
  uint32_t Hot = 0;
  uint16_t Ref = 0;
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
    if (Roll < 70)
      Ref = static_cast<uint16_t>((Ref + 1) % 200);
    else if (Roll < 85)
      Ref = static_cast<uint16_t>(Rng.nextBelow(200));
    E.RefId = Roll < 95 ? Ref : MemRefInfo::NoRefId;
    Trace.push_back(E);
  }
  return Trace;
}

/// \p Trace with every hint bit cleared: the conventional view.
std::vector<TraceEvent> stripped(std::vector<TraceEvent> Trace) {
  for (TraceEvent &E : Trace)
    E.Info = TraceEvent::Hints();
  return Trace;
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

/// The full policy grid at mixed geometries, hinted and hint-stripped.
/// TreePLRU rows keep power-of-two associativities.
std::vector<SweepPoint> policyGridPoints() {
  std::vector<SweepPoint> Points;
  for (CachePolicy P : AllPolicies)
    for (bool IgnoreHints : {false, true}) {
      SweepPoint Pt{config(128, 2), P, IgnoreHints};
      Pt.Config.Policy = P;
      Points.push_back(Pt);
    }
  // Off-diagonal geometries for the new policies: higher
  // associativity, multi-word lines, write-through.
  for (CachePolicy P : {CachePolicy::TreePLRU, CachePolicy::SRRIP,
                        CachePolicy::LivenessBypass}) {
    SweepPoint Pt{config(64, 4), P, false};
    Pt.Config.Policy = P;
    Points.push_back(Pt);
    Pt.Config = config(32, 2, 2);
    Pt.Config.Policy = P;
    Points.push_back(Pt);
    Pt.Config = config(64, 2);
    Pt.Config.Policy = P;
    Pt.Config.Write = WritePolicy::WriteThrough;
    Points.push_back(Pt);
  }
  return Points;
}

/// Fresh scratch directory per test case, removed on destruction.
struct ScratchDir {
  std::filesystem::path Path;
  explicit ScratchDir(const char *Name) {
    Path = std::filesystem::temp_directory_path() /
           (std::string("urcm_cachemodel_") + Name + "." +
            std::to_string(::getpid()));
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~ScratchDir() {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
  std::string str() const { return Path.string(); }
};

} // namespace

//===----------------------------------------------------------------------===//
// Policy properties: TreePLRU tree bits and SRRIP aging.
//===----------------------------------------------------------------------===//

TEST(CacheModelProperties, TreePLRUVictimNeverMostRecentlyTouched) {
  SplitMix64 Rng(7);
  for (uint32_t Assoc : {2u, 4u, 8u, 16u, 32u, 64u}) {
    uint64_t Bits = 0;
    for (int Step = 0; Step != 2000; ++Step) {
      uint32_t Way = static_cast<uint32_t>(Rng.nextBelow(Assoc));
      Bits = detail::treePLRUTouch(Bits, Assoc, Way);
      uint32_t Victim = detail::treePLRUVictimWay(Bits, Assoc);
      ASSERT_LT(Victim, Assoc) << "assoc " << Assoc;
      EXPECT_NE(Victim, Way)
          << "assoc " << Assoc << ": just-touched way chosen as victim";
    }
  }
}

TEST(CacheModelProperties, TreePLRUPointAtMakesWayTheVictim) {
  SplitMix64 Rng(8);
  for (uint32_t Assoc : {2u, 4u, 8u, 16u, 64u}) {
    uint64_t Bits = Rng.next();
    for (int Step = 0; Step != 500; ++Step) {
      uint32_t Way = static_cast<uint32_t>(Rng.nextBelow(Assoc));
      Bits = detail::treePLRUPointAt(Bits, Assoc, Way);
      EXPECT_EQ(detail::treePLRUVictimWay(Bits, Assoc), Way)
          << "assoc " << Assoc;
      // Unrelated touches along a different path must not re-protect it.
      Bits = detail::treePLRUTouch(Bits, Assoc, Way);
      EXPECT_NE(detail::treePLRUVictimWay(Bits, Assoc), Way);
    }
  }
}

TEST(CacheModelProperties, TreePLRUIsExactlyLRUAtTwoWays) {
  // A one-node tree is a single LRU bit (and a one-way set has no
  // choice at all): the two policies must agree bit for bit at
  // associativity 1 and 2 (the paper's cache geometry), under either
  // write policy, hinted or hint-stripped, as long as lines are one
  // word. The sweep engine relies on this to reuse LRU counters for
  // such TreePLRU points. Multi-word dead frees demote instead of
  // invalidating, and a demotion tie (both ways at LastUsed 0) is
  // broken by scan order under LRU but by the last pointed way under
  // the tree, so the exact correspondence is deliberately not claimed
  // for multi-word lines.
  std::vector<std::pair<std::string, std::vector<TraceEvent>>> Traces;
  for (uint64_t Seed : {3u, 44u})
    Traces.emplace_back("seed " + std::to_string(Seed),
                        hintedTrace(Seed, 20000, 700));
  for (const char *Name : {"Queen", "Bubble"})
    Traces.emplace_back(Name, tracedWorkloadRun(*findWorkload(Name)));
  for (const auto &[What, Hinted] : Traces) {
    const std::vector<TraceEvent> Stripped = stripped(Hinted);
    for (uint32_t Assoc : {1u, 2u})
      for (uint32_t Lines : {16u, 64u, 128u})
        for (WritePolicy Write :
             {WritePolicy::WriteBack, WritePolicy::WriteThrough}) {
          CacheConfig Geometry = config(Lines, Assoc);
          Geometry.Write = Write;
          for (const std::vector<TraceEvent> *Trace : {&Hinted, &Stripped})
            EXPECT_EQ(replayTrace(*Trace, Geometry, CachePolicy::TreePLRU),
                      replayTrace(*Trace, Geometry, CachePolicy::LRU))
                << What << (Trace == &Stripped ? " stripped" : " hinted")
                << " " << Lines << "x" << Assoc << " "
                << writePolicyName(Write);
        }
  }
}

TEST(CacheModelProperties, SRRIPAgingBoundsAndTermination) {
  SplitMix64 Rng(9);
  for (uint32_t Assoc : {2u, 4u, 8u, 16u}) {
    std::vector<uint8_t> RRPV(Assoc, 0);
    for (int Step = 0; Step != 3000; ++Step) {
      uint32_t Victim = detail::srripVictimWay(RRPV.data(), Assoc);
      ASSERT_LT(Victim, Assoc);
      EXPECT_GE(RRPV[Victim], SRRIPMaxRRPV)
          << "victim not at distant-future RRPV";
      for (uint32_t W = 0; W != Assoc; ++W)
        EXPECT_LE(RRPV[W], SRRIPMaxRRPV)
            << "aging overflowed the 2-bit RRPV bound";
      // Simulate install on the victim and a random hit, as the model
      // does, then scan again from the mutated state.
      RRPV[Victim] = SRRIPInsertRRPV;
      RRPV[Rng.nextBelow(Assoc)] =
          static_cast<uint8_t>(Rng.nextBelow(SRRIPMaxRRPV + 1));
    }
  }
  // From all-zero state the scan ages every way to the bound, then
  // picks the first way.
  std::vector<uint8_t> Fresh(4, 0);
  EXPECT_EQ(detail::srripVictimWay(Fresh.data(), 4), 0u);
  for (uint8_t V : Fresh)
    EXPECT_EQ(V, SRRIPMaxRRPV);
}

//===----------------------------------------------------------------------===//
// Live agreement: the data facet == replay for every live-eligible policy.
//===----------------------------------------------------------------------===//

TEST(CacheModelLive, DataFacetMatchesReplayForEveryLivePolicy) {
  CacheConfig WriteThrough = config(16, 4);
  WriteThrough.Write = WritePolicy::WriteThrough;
  for (CachePolicy P : AllPolicies) {
    if (!cachePolicyLiveEligible(P))
      continue;
    for (auto Geometry : {config(16, 4), config(128, 2), config(32, 2, 2),
                          config(8, 8), WriteThrough}) {
      Geometry.Policy = P;
      for (uint64_t Seed : {11u, 31u}) {
        auto Trace = hintedTrace(Seed, 8000, 300);
        MainMemory Mem(4096);
        LiveCache Live(Geometry, Mem);
        RefAttribution LiveAttr(200);
        Live.setAttribution(&LiveAttr);
        for (const TraceEvent &E : Trace) {
          MemRefInfo Info = E.Info;
          Info.RefId = E.RefId;
          if (E.IsWrite)
            Live.write(E.Addr, 1, Info);
          else
            Live.read(E.Addr, Info);
        }
        Live.flush();

        CacheModel Replay(Geometry, P);
        RefAttribution ReplayAttr(200);
        Replay.setAttribution(&ReplayAttr);
        Replay.feed(Trace.data(), Trace.size(), 0);
        const CacheStats Replayed = Replay.finish();

        EXPECT_EQ(Live.stats(), Replayed)
            << cachePolicyName(P) << " seed " << Seed << " lines "
            << Geometry.NumLines << "x" << Geometry.Assoc << " "
            << writePolicyName(Geometry.Write) << "\n  live:   "
            << Live.stats().str() << "\n  replay: " << Replayed.str();
        EXPECT_EQ(LiveAttr, ReplayAttr)
            << cachePolicyName(P) << " seed " << Seed << " lines "
            << Geometry.NumLines << "x" << Geometry.Assoc << " "
            << writePolicyName(Geometry.Write);
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Shape agreement: every compile-time shape == the runtime fallback.
//===----------------------------------------------------------------------===//

namespace {

/// One replay of \p Trace through \p Model, with a 200-row table when
/// \p Attributed; returns the counters and the table.
std::pair<CacheStats, RefAttribution>
replayModel(CacheModel &Model, const std::vector<TraceEvent> &Trace,
            bool Attributed) {
  RefAttribution Table(Attributed ? 200 : 0);
  if (Attributed)
    Model.setAttribution(&Table);
  Model.feed(Trace.data(), Trace.size(), 0);
  CacheStats Stats = Model.finish();
  return {Stats, std::move(Table)};
}

/// What a live run shows: counters, table, every delivered word and the
/// memory left after the final flush.
struct LiveRun {
  CacheStats Stats;
  RefAttribution Table;
  std::vector<int64_t> Delivered;
  std::vector<int64_t> Memory;
};

LiveRun runLive(const CacheConfig &Geometry, bool Fallback,
                const std::vector<TraceEvent> &Trace, bool Attributed) {
  LiveRun R;
  R.Table = RefAttribution(Attributed ? 200 : 0);
  MainMemory Mem(4096);
  LiveCache Live(Geometry, Mem);
  if (Fallback)
    Live.useFallbackShape();
  if (Attributed)
    Live.setAttribution(&R.Table);
  int64_t Value = 0;
  for (const TraceEvent &E : Trace) {
    MemRefInfo Info = E.Info;
    Info.RefId = E.RefId;
    if (E.IsWrite)
      Live.write(E.Addr, ++Value, Info);
    else
      R.Delivered.push_back(Live.read(E.Addr, Info));
  }
  Live.flush();
  R.Stats = Live.stats();
  for (uint64_t A = 0; A != Mem.size(); ++A)
    R.Memory.push_back(Mem.read(A));
  return R;
}

} // namespace

TEST(CacheModelShapes, EveryShapeMatchesTheFallback) {
  // Every (policy, shape, write policy, hint view, attribution) cell:
  // the specialised instantiation and the runtime-geometry fallback on
  // the same geometry produce the same counters and tables, and live,
  // the same delivered words and final memory. The sizes run from one
  // set (constant eviction pressure) to sets enough that nothing
  // evicts.
  const std::vector<TraceEvent> Hinted = hintedTrace(21, 30000, 4000);
  const std::vector<TraceEvent> Stripped = stripped(Hinted);
  const auto NextHinted = computeNextLineUses(Hinted, 1);
  // Stripped replay counts bypassed events as accesses, so MIN's index
  // is the one of the stripped trace.
  const auto NextStripped = computeNextLineUses(Stripped, 1);
  for (CachePolicy P : AllPolicies)
    for (uint32_t Ways : {1u, 2u, 4u, 8u})
      for (uint32_t Sets : {1u, 2u, 8u, 2048u})
        for (WritePolicy Write :
             {WritePolicy::WriteBack, WritePolicy::WriteThrough}) {
          CacheConfig Geometry = config(Ways * Sets, Ways);
          Geometry.Policy = P;
          Geometry.Write = Write;
          ASSERT_EQ(CacheModel::shapeOf(Geometry), Ways);
          for (bool Strip : {false, true})
            for (bool Attributed : {false, true}) {
              std::string Cell = std::string(cachePolicyName(P)) + " " +
                                 std::to_string(Sets) + "x" +
                                 std::to_string(Ways) + " " +
                                 writePolicyName(Write) +
                                 (Strip ? " stripped" : " hinted") +
                                 (Attributed ? " attributed" : "");
              const auto &Next = Strip ? NextStripped : NextHinted;
              CacheModel Shaped(Geometry, P, Next);
              CacheModel Fallback(Geometry, P, Next);
              Fallback.useFallbackShape();
              ASSERT_EQ(Shaped.shape(), Ways) << Cell;
              ASSERT_EQ(Fallback.shape(), 0u) << Cell;
              Shaped.setIgnoreHints(Strip);
              Fallback.setIgnoreHints(Strip);
              auto [ShapedStats, ShapedTable] =
                  replayModel(Shaped, Hinted, Attributed);
              auto [FallbackStats, FallbackTable] =
                  replayModel(Fallback, Hinted, Attributed);
              EXPECT_EQ(ShapedStats, FallbackStats) << Cell;
              EXPECT_EQ(ShapedTable, FallbackTable) << Cell;

              if (!cachePolicyLiveEligible(P))
                continue;
              const std::vector<TraceEvent> &Trace =
                  Strip ? Stripped : Hinted;
              LiveRun A = runLive(Geometry, false, Trace, Attributed);
              LiveRun B = runLive(Geometry, true, Trace, Attributed);
              EXPECT_EQ(A.Stats, B.Stats) << "live " << Cell;
              EXPECT_EQ(A.Stats, ShapedStats) << "live " << Cell;
              EXPECT_EQ(A.Table, B.Table) << "live " << Cell;
              EXPECT_EQ(A.Delivered, B.Delivered) << "live " << Cell;
              EXPECT_EQ(A.Memory, B.Memory) << "live " << Cell;
            }
        }
}

TEST(CacheModelShapes, OtherGeometriesTakeTheFallback) {
  // Three ways, a set count that is not a power of two, multi-word
  // lines and a shard divisor that is not a power of two run on the
  // fallback; there the data facet still matches replay.
  CacheConfig ThreeWays = config(48, 3);
  CacheConfig OddSets = config(126, 2);
  CacheConfig FourWords = config(32, 2, 4);
  const std::vector<TraceEvent> Trace = hintedTrace(21, 30000, 4000);
  for (CacheConfig Geometry : {ThreeWays, OddSets, FourWords}) {
    EXPECT_EQ(CacheModel::shapeOf(Geometry), 0u);
    for (CachePolicy P : AllPolicies) {
      if (!cachePolicyLiveEligible(P) ||
          (P == CachePolicy::TreePLRU && Geometry.Assoc == 3))
        continue;
      Geometry.Policy = P;
      CacheModel Replay(Geometry, P);
      EXPECT_EQ(Replay.shape(), 0u);
      auto [Stats, Table] = replayModel(Replay, Trace, true);
      LiveRun Live = runLive(Geometry, false, Trace, true);
      EXPECT_EQ(Live.Stats, Stats)
          << cachePolicyName(P) << " " << Geometry.NumLines << "x"
          << Geometry.Assoc << "x" << Geometry.LineWords;
      EXPECT_EQ(Live.Table, Table) << cachePolicyName(P);
    }
  }
  EXPECT_EQ(CacheModel(config(128, 2), CachePolicy::LRU, nullptr, 7).shape(),
            0u);
  EXPECT_EQ(CacheModel(config(128, 2), CachePolicy::LRU, nullptr, 4).shape(),
            2u);
}

//===----------------------------------------------------------------------===//
// Mode agreement: sequential == sharded == warm store, per policy.
//===----------------------------------------------------------------------===//

TEST(CacheModelModes, SixBenchmarksPolicyGridShardBitIdentical) {
  ThreadPool Pool(4);
  const std::vector<SweepPoint> Points = policyGridPoints();
  for (const Workload &W : paperWorkloads()) {
    const std::vector<TraceEvent> Trace = tracedWorkloadRun(W);
    const std::vector<CacheStats> Sequential =
        replaySweepPoints(Trace, Points);
    for (uint32_t Shards : {1u, 7u, 64u}) {
      const std::vector<CacheStats> Sharded =
          replaySweepPointsSharded(Trace, Points, Shards, &Pool);
      ASSERT_EQ(Sharded.size(), Sequential.size());
      for (size_t I = 0; I != Points.size(); ++I)
        EXPECT_EQ(Sharded[I], Sequential[I])
            << W.Name << ": shards=" << Shards << " policy="
            << cachePolicyName(Points[I].Policy) << " point " << I;
    }
  }
}

TEST(CacheModelModes, FuzzedTracesPolicyGridShardBitIdentical) {
  ThreadPool Pool(4);
  const std::vector<SweepPoint> Points = policyGridPoints();
  for (uint64_t Seed : {5u, 23u, 77u}) {
    const std::vector<TraceEvent> Trace = hintedTrace(Seed, 30000, 700);
    const std::vector<CacheStats> Sequential =
        replaySweepPoints(Trace, Points);
    for (uint32_t Shards : {2u, 7u}) {
      const std::vector<CacheStats> Sharded =
          replaySweepPointsSharded(Trace, Points, Shards, &Pool);
      for (size_t I = 0; I != Points.size(); ++I)
        EXPECT_EQ(Sharded[I], Sequential[I])
            << "seed " << Seed << ": shards=" << Shards << " policy="
            << cachePolicyName(Points[I].Policy) << " point " << I;
    }
  }
}

TEST(CacheModelModes, AttributionTablesMatchAcrossModes) {
  ThreadPool Pool(4);
  const std::vector<TraceEvent> Trace = hintedTrace(13, 25000, 500);
  const uint32_t NumRefs = 200;
  for (CachePolicy P : AllPolicies) {
    SweepPoint Pt{config(64, 2), P, false};
    Pt.Config.Policy = P;
    Pt.AttributionRefs = NumRefs;
    const std::vector<SweepPoint> Points = {Pt};

    // Sequential oracle straight through the model.
    std::shared_ptr<const std::vector<uint64_t>> NextUses;
    if (P == CachePolicy::MIN)
      NextUses = computeNextLineUses(Trace, Pt.Config.LineWords);
    CacheModel Model(Pt.Config, P, NextUses);
    RefAttribution Oracle(NumRefs);
    Model.setAttribution(&Oracle);
    Model.feed(Trace.data(), Trace.size(), 0);
    CacheStats OracleStats = Model.finish();

    SweepPointStream Seq(Points, &Trace);
    Seq.feed(Trace.data(), Trace.size());
    EXPECT_EQ(Seq.finish()[0], OracleStats) << cachePolicyName(P);
    EXPECT_EQ(Seq.takeAttribution(0), Oracle) << cachePolicyName(P);

    for (uint32_t Shards : {2u, 7u}) {
      ShardedSweepStream Sharded(Points, Shards, &Pool, &Trace);
      Sharded.feed(Trace.data(), Trace.size());
      EXPECT_EQ(Sharded.finish()[0], OracleStats)
          << cachePolicyName(P) << " shards " << Shards;
      EXPECT_EQ(Sharded.takeAttribution(0), Oracle)
          << cachePolicyName(P) << " shards " << Shards;
    }
  }
}

//===----------------------------------------------------------------------===//
// Store invariance: policy and seed are observers of the content hash.
//===----------------------------------------------------------------------===//

namespace {

struct CountedProducer {
  std::shared_ptr<MachineProgram> Prog;
  std::shared_ptr<std::atomic<int>> Calls =
      std::make_shared<std::atomic<int>>(0);

  explicit CountedProducer(const std::string &Name) {
    const Workload *W = findWorkload(Name);
    EXPECT_NE(W, nullptr);
    DiagnosticEngine Diags;
    CompileOptions Options;
    CompileResult R = compileProgram(W->Source, Options, Diags);
    EXPECT_TRUE(R.Ok) << Diags.str();
    Prog = std::make_shared<MachineProgram>(std::move(R.Program));
  }

  SweepEngine::Producer producer() const {
    auto P = Prog;
    auto C = Calls;
    return [P, C](const SimConfig &Config) {
      C->fetch_add(1);
      Simulator S(Config);
      return S.run(*P);
    };
  }
};

} // namespace

TEST(CacheModelStore, PolicyAndSeedNeverChangeTheContentHash) {
  CountedProducer Queen("Queen");
  SimConfig Sim;
  const uint64_t H = traceContentHash(*Queen.Prog, Sim);

  // The data cache observes the reference stream: any replacement
  // policy or RNG seed must map to the same stored trace.
  for (CachePolicy P : AllPolicies) {
    SimConfig Alt = Sim;
    Alt.Cache.Policy = P;
    EXPECT_EQ(H, traceContentHash(*Queen.Prog, Alt))
        << "policy " << cachePolicyName(P) << " caused a store miss";
    Alt.Cache.Seed = 0xDEADBEEF;
    EXPECT_EQ(H, traceContentHash(*Queen.Prog, Alt))
        << "seed change caused a store miss";
  }

  // The instruction cache's counters live in the stored summary, so its
  // configuration (policy included) must stay salted.
  SimConfig WithICache = Sim;
  WithICache.ModelICache = true;
  const uint64_t HI = traceContentHash(*Queen.Prog, WithICache);
  SimConfig AltICache = WithICache;
  AltICache.ICache.Policy = CachePolicy::FIFO;
  EXPECT_NE(HI, traceContentHash(*Queen.Prog, AltICache));
}

TEST(CacheModelStore, WarmServesDifferentBasePolicyCorrectly) {
  // Record under LRU, then serve a FIFO-base experiment warm: the
  // producer must not run again, and the FIFO base counters must equal
  // a live FIFO simulation.
  ScratchDir Dir("policy");
  CountedProducer Sieve("Sieve");
  SimConfig LruBase;
  SimConfig FifoBase;
  FifoBase.Cache.Policy = CachePolicy::FIFO;
  const uint64_t Hash = traceContentHash(*Sieve.Prog, LruBase);
  ASSERT_EQ(Hash, traceContentHash(*Sieve.Prog, FifoBase));

  DiagnosticEngine ColdDiags;
  SweepEngine Cold;
  Cold.setTraceStore(Dir.str(), &ColdDiags);
  Cold.schedule("exp", "g", LruBase, {}, Sieve.producer(), Hash);
  Cold.run();
  ASSERT_TRUE(Cold.base("exp").ok());
  EXPECT_EQ(Sieve.Calls->load(), 1);
  EXPECT_FALSE(ColdDiags.hasErrors()) << ColdDiags.str();

  // The live FIFO oracle (no store involved).
  SweepEngine Live;
  Live.schedule("exp", "g", FifoBase, {}, Sieve.producer(), 0);
  Live.run();
  ASSERT_TRUE(Live.base("exp").ok());
  EXPECT_EQ(Sieve.Calls->load(), 2);

  DiagnosticEngine WarmDiags;
  SweepEngine Warm;
  Warm.setTraceStore(Dir.str(), &WarmDiags);
  Warm.schedule("exp", "g", FifoBase, {}, Sieve.producer(), Hash);
  Warm.run();
  EXPECT_EQ(Sieve.Calls->load(), 2) << "warm serve ran the producer";
  EXPECT_FALSE(WarmDiags.hasErrors()) << WarmDiags.str();
  ASSERT_TRUE(Warm.base("exp").ok());
  EXPECT_EQ(Warm.base("exp").Cache, Live.base("exp").Cache)
      << "warm FIFO base counters diverge from the live FIFO run";
  EXPECT_EQ(Warm.base("exp").Steps, Live.base("exp").Steps);
  EXPECT_EQ(Warm.base("exp").Output, Live.base("exp").Output);
}

TEST(CacheModelStore, WarmPolicyGridMatchesColdAndPlain) {
  ScratchDir Dir("grid");
  CountedProducer Queen("Queen");
  const std::vector<SweepPoint> Points = policyGridPoints();
  SimConfig Base;
  const uint64_t Hash = traceContentHash(*Queen.Prog, Base);

  SweepEngine Plain;
  Plain.schedule("exp", "g", Base, Points, Queen.producer(), Hash);
  Plain.run();

  DiagnosticEngine ColdDiags;
  SweepEngine Cold;
  Cold.setTraceStore(Dir.str(), &ColdDiags);
  Cold.schedule("exp", "g", Base, Points, Queen.producer(), Hash);
  Cold.run();
  EXPECT_FALSE(ColdDiags.hasErrors()) << ColdDiags.str();

  // The oracle: per-point sequential replay of a freshly recorded trace.
  SimConfig Traced = Base;
  Traced.RecordTrace = true;
  const SimResult Recorded = Simulator(Traced).run(*Queen.Prog);
  ASSERT_TRUE(Recorded.ok()) << Recorded.Error;

  DiagnosticEngine WarmDiags;
  ThreadPool Pool(4);
  SweepEngine Warm(&Pool);
  Warm.setTraceStore(Dir.str(), &WarmDiags);
  Warm.schedule("exp", "g", Base, Points, Queen.producer(), Hash);
  Warm.run();
  EXPECT_FALSE(WarmDiags.hasErrors()) << WarmDiags.str();
  for (size_t I = 0; I != Points.size(); ++I) {
    const CacheStats Oracle = replaySweepPoints(Recorded.Trace, {Points[I]})[0];
    const char *Policy = cachePolicyName(Points[I].Policy);
    EXPECT_EQ(Plain.point("exp", I), Oracle)
        << "plain policy=" << Policy << " point " << I;
    EXPECT_EQ(Cold.point("exp", I), Oracle)
        << "cold policy=" << Policy << " point " << I;
    EXPECT_EQ(Warm.point("exp", I), Oracle)
        << "warm policy=" << Policy << " point " << I;
  }
  EXPECT_EQ(Queen.Calls->load(), 2) << "plain + cold; warm runs served";
}

//===----------------------------------------------------------------------===//
// LivenessBypass predictor semantics.
//===----------------------------------------------------------------------===//

TEST(CacheModelPredictor, LearnsDeadOnArrivalReferences) {
  // One static reference streams over fresh lines and never reuses
  // them; after two dead evictions its counter saturates and further
  // misses stop allocating (bypass accounting), modulo the 1-in-16
  // retraining probe.
  std::vector<TraceEvent> Trace;
  for (uint32_t I = 0; I != 4096; ++I) {
    TraceEvent E;
    E.Addr = I;
    E.RefId = 7;
    Trace.push_back(E);
  }
  CacheStats Bypass =
      replayTrace(Trace, config(8, 8), CachePolicy::LivenessBypass);
  CacheStats Lru = replayTrace(Trace, config(8, 8), CachePolicy::LRU);

  EXPECT_EQ(Lru.BypassReads, 0u);
  EXPECT_GT(Bypass.BypassReads, 3000u)
      << "predictor never engaged on a pure streaming reference";
  EXPECT_LT(Bypass.Fills, Lru.Fills / 4)
      << "predicted-dead misses still allocate";
  EXPECT_GT(Bypass.Fills, 0u) << "retraining probe never allocates";
  // Accounting conservation: every access is either through-cache or
  // predictor-bypassed.
  EXPECT_EQ(Bypass.Reads + Bypass.BypassReads, Lru.Reads);
}

TEST(CacheModelPredictor, ReusedReferencesAreNeverBypassed) {
  // A hot loop over a small working set reuses every line: the
  // predictor must stay untrained and the counters must degenerate to
  // plain LRU.
  std::vector<TraceEvent> Trace;
  for (uint32_t Round = 0; Round != 500; ++Round)
    for (uint32_t A = 0; A != 8; ++A) {
      TraceEvent E;
      E.Addr = A;
      E.RefId = static_cast<uint16_t>(A);
      Trace.push_back(E);
    }
  CacheStats Bypass =
      replayTrace(Trace, config(16, 2), CachePolicy::LivenessBypass);
  CacheStats Lru = replayTrace(Trace, config(16, 2), CachePolicy::LRU);
  EXPECT_EQ(Bypass, Lru)
      << "a fully-reused working set must not trigger the predictor";
}
