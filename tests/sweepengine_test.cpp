//===- sweepengine_test.cpp - Sweep-engine equivalence tests -------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
// The sweep engine's whole contract is bit-identity: every stats-only
// shortcut (lock-step multi-replay, the two-way LRU kernel, the
// hole-extended stack-distance pass, hint-stripped conventional replay)
// must reproduce the exact counters of the slow path it replaces. These
// tests pin that down against CacheModel, the live caches and
// full conventional-scheme simulations.
//
//===----------------------------------------------------------------------===//

#include "urcm/sim/SweepEngine.h"

#include "urcm/driver/Driver.h"
#include "urcm/sim/TraceStore.h"
#include "urcm/support/RNG.h"
#include "urcm/support/Telemetry.h"
#include "urcm/support/ThreadPool.h"
#include "urcm/workloads/Workloads.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <gtest/gtest.h>
#include <thread>
#include <unistd.h>

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

std::vector<TraceEvent> stripped(std::vector<TraceEvent> Trace) {
  for (TraceEvent &E : Trace) {
    E.Info.Bypass = false;
    E.Info.LastRef = false;
  }
  return Trace;
}

/// Per-point ground truth for a sweep point: single-config replay of
/// the (possibly hint-stripped) trace.
CacheStats groundTruth(const std::vector<TraceEvent> &Trace,
                       const SweepPoint &P) {
  return replayTrace(P.IgnoreHints ? stripped(Trace) : Trace, P.Config,
                     P.Policy);
}

SimResult runWorkload(const std::string &Name, const CompileOptions &O,
                      const SimConfig &Sim) {
  const Workload *W = findWorkload(Name);
  EXPECT_NE(W, nullptr);
  DiagnosticEngine Diags;
  SimResult R = compileAndRun(W->Source, O, Sim, Diags);
  EXPECT_TRUE(R.ok()) << R.Error;
  return R;
}

TEST(ReplayMulti, MatchesPerPointReplayAcrossConfigurations) {
  std::vector<TraceEvent> Trace = hintedTrace(7, 20000, 600);
  std::vector<SweepPoint> Points = {
      // Two-way LRU kernel candidates, hinted and stripped.
      {config(128, 2), CachePolicy::LRU, false},
      {config(16, 2), CachePolicy::LRU, false},
      {config(16, 2), CachePolicy::LRU, true},
      {config(1024, 2), CachePolicy::LRU, true},
      // General path: other associativities, multi-word lines,
      // write-through, non-LRU policies, Belady MIN.
      {config(64, 4), CachePolicy::LRU, false},
      {config(32, 2, 2), CachePolicy::LRU, false},
      {config(32, 2, 4), CachePolicy::LRU, true},
      {config(64, 2), CachePolicy::FIFO, false},
      {config(64, 2), CachePolicy::Random, false},
      {config(64, 2), CachePolicy::MIN, false},
      {config(64, 2), CachePolicy::MIN, true},
      {config(8, 8), CachePolicy::LRU, false},
  };
  SweepPoint WriteThrough{config(64, 2), CachePolicy::LRU, false};
  WriteThrough.Config.Write = WritePolicy::WriteThrough;
  Points.push_back(WriteThrough);

  std::vector<CacheStats> Got = replayTraceMulti(Trace, Points);
  ASSERT_EQ(Got.size(), Points.size());
  for (size_t I = 0; I != Points.size(); ++I)
    EXPECT_EQ(Got[I], groundTruth(Trace, Points[I])) << "point " << I;
}

TEST(ReplayMulti, TwoWayKernelOddTrafficPatterns) {
  // Dead-tag and bypass interplay at tiny sizes (constant eviction
  // pressure) and at sizes big enough that nothing evicts.
  std::vector<TraceEvent> Trace = hintedTrace(21, 30000, 4000);
  std::vector<SweepPoint> Points;
  for (uint32_t Lines : {2u, 4u, 16u, 4096u})
    for (bool Ignore : {false, true})
      Points.push_back({config(Lines, 2), CachePolicy::LRU, Ignore});
  std::vector<CacheStats> Got = replayTraceMulti(Trace, Points);
  for (size_t I = 0; I != Points.size(); ++I)
    EXPECT_EQ(Got[I], groundTruth(Trace, Points[I])) << "point " << I;
}

TEST(StackDistance, MatchesReplayAtEveryFullyAssociativeSize) {
  std::vector<TraceEvent> Trace = hintedTrace(11, 20000, 500);
  std::vector<uint32_t> Sizes = {1, 2, 3, 8, 32, 100, 512};
  for (bool Ignore : {false, true}) {
    std::vector<CacheStats> Got =
        sweepLRUStackDistance(Trace, Sizes, Ignore);
    ASSERT_EQ(Got.size(), Sizes.size());
    for (size_t I = 0; I != Sizes.size(); ++I) {
      SweepPoint P{config(Sizes[I], Sizes[I]), CachePolicy::LRU, Ignore};
      EXPECT_EQ(Got[I], groundTruth(Trace, P))
          << "size " << Sizes[I] << " ignore=" << Ignore;
    }
  }
}

TEST(StackDistance, ReplaySweepPointsDispatchesToIt) {
  std::vector<TraceEvent> Trace = hintedTrace(13, 15000, 300);
  std::vector<SweepPoint> Points;
  for (uint32_t S : {4u, 16u, 64u})
    Points.push_back({config(S, S), CachePolicy::LRU, false});
  Points.push_back({config(32, 32), CachePolicy::LRU, true});
  ASSERT_TRUE(std::all_of(Points.begin(), Points.end(),
                          stackDistanceEligible));
  std::vector<CacheStats> Got = replaySweepPoints(Trace, Points);
  for (size_t I = 0; I != Points.size(); ++I)
    EXPECT_EQ(Got[I], groundTruth(Trace, Points[I])) << "point " << I;
}

TEST(ReplayEquivalence, WorkloadTraceMatchesLiveSimulation) {
  // The traced base run's own counters must equal a replay of its
  // trace — this is what lets the engine reuse base stats for the
  // matching sweep point.
  CompileOptions O;
  O.IRGen.ScalarLocalsInMemory = true;
  SimConfig Sim;
  Sim.Cache = config(128, 2);
  Sim.RecordTrace = true;
  SimResult R = runWorkload("Queen", O, Sim);
  EXPECT_EQ(R.Cache, replayTrace(R.Trace, Sim.Cache, CachePolicy::LRU));

  // And every sweep geometry replayed from this trace matches a
  // dedicated per-point replay.
  std::vector<SweepPoint> Points;
  for (uint32_t Lines : {16u, 64u, 256u, 1024u})
    for (bool Ignore : {false, true})
      Points.push_back({config(Lines, 2), CachePolicy::LRU, Ignore});
  std::vector<CacheStats> Got = replayTraceMulti(R.Trace, Points);
  for (size_t I = 0; I != Points.size(); ++I)
    EXPECT_EQ(Got[I], groundTruth(R.Trace, Points[I])) << "point " << I;
}

TEST(ReplayEquivalence, HintStrippedReplayMatchesConventionalRun) {
  // The derived-conventional trick: the unified pass only flips hint
  // bits on an identical instruction stream, so replaying the unified
  // trace with hints ignored must reproduce the conventional scheme's
  // live cache counters exactly — at the traced geometry and at others.
  CompileOptions Uni;
  Uni.IRGen.ScalarLocalsInMemory = true;
  Uni.Scheme = UnifiedOptions::unified();
  CompileOptions Conv = Uni;
  Conv.Scheme = UnifiedOptions::conventional();

  SimConfig Traced;
  Traced.Cache = config(128, 2);
  Traced.RecordTrace = true;
  SimResult U = runWorkload("Queen", Uni, Traced);

  for (uint32_t Lines : {16u, 128u}) {
    SimConfig Sim;
    Sim.Cache = config(Lines, 2);
    SimResult C = runWorkload("Queen", Conv, Sim);
    SweepPoint P{Sim.Cache, CachePolicy::LRU, /*IgnoreHints=*/true};
    EXPECT_EQ(C.Cache, replayTraceMulti(U.Trace, {P})[0])
        << "lines " << Lines;
    EXPECT_EQ(C.Output, U.Output);
    EXPECT_EQ(C.Steps, U.Steps);
  }
}

TEST(Engine, CompileOnceServesEveryPointAndReusesBase) {
  ThreadPool Pool(2);
  SweepEngine Engine(&Pool);
  std::atomic<int> Runs{0};

  CompileOptions O;
  O.Scheme = UnifiedOptions::unified();
  SimConfig Base;
  Base.Cache = config(128, 2);
  std::vector<SweepPoint> Points = {
      {config(16, 2), CachePolicy::LRU, false},
      {config(128, 2), CachePolicy::LRU, false}, // == base geometry
      {config(16, 2), CachePolicy::LRU, true},
  };
  auto Producer = [&](const SimConfig &Sim) {
    ++Runs;
    // The engine must capture the trace one way or the other: streamed
    // through a sink (no MIN points here) or materialized.
    EXPECT_TRUE(Sim.Sink != nullptr || Sim.RecordTrace);
    const Workload *W = findWorkload("Queen");
    DiagnosticEngine Diags;
    return compileAndRun(W->Source, O, Sim, Diags);
  };
  Engine.schedule("queen", "Queen", Base, Points, Producer);
  Engine.schedule("queen", "Queen", Base, Points, Producer); // no-op
  Engine.run();

  EXPECT_EQ(Runs.load(), 1);
  ASSERT_TRUE(Engine.done("queen"));
  const SimResult &BaseRun = Engine.base("queen");
  EXPECT_TRUE(BaseRun.ok());
  // The trace is freed once the points are served.
  EXPECT_TRUE(BaseRun.Trace.empty());
  // The point matching the base geometry is the base run's own stats.
  EXPECT_EQ(Engine.point("queen", 1), BaseRun.Cache);
  // Ground truth for the others from an independent traced run.
  SimConfig Traced = Base;
  Traced.RecordTrace = true;
  SimResult Fresh = runWorkload("Queen", O, Traced);
  for (size_t I = 0; I != Points.size(); ++I)
    EXPECT_EQ(Engine.point("queen", I), groundTruth(Fresh.Trace, Points[I]))
        << "point " << I;

  // Scheduling after run() still works and runs exactly once more.
  Engine.schedule("queen2", "Queen", Base, Points, Producer);
  Engine.run();
  EXPECT_EQ(Runs.load(), 2);
  EXPECT_EQ(Engine.point("queen2", 0), Engine.point("queen", 0));
}

TEST(Engine, ParallelExecutionIsDeterministic) {
  // The same experiment set run serially and across a pool must
  // produce identical counters (Random-policy replays are seeded per
  // point, so thread scheduling cannot leak in).
  CompileOptions O;
  O.Scheme = UnifiedOptions::unified();
  auto Schedule = [&](SweepEngine &Engine) {
    for (const char *Name : {"Queen", "Sieve"}) {
      SimConfig Base;
      Base.Cache = config(128, 2);
      std::vector<SweepPoint> Points = {
          {config(16, 2), CachePolicy::LRU, false},
          {config(64, 2), CachePolicy::Random, false},
          {config(64, 2), CachePolicy::MIN, true},
      };
      Engine.schedule(Name, Name, Base, Points,
                      [Name, O](const SimConfig &Sim) {
                        const Workload *W = findWorkload(Name);
                        DiagnosticEngine Diags;
                        return compileAndRun(W->Source, O, Sim, Diags);
                      });
    }
  };
  ThreadPool Serial(1), Wide(4);
  SweepEngine A(&Serial), B(&Wide);
  Schedule(A);
  Schedule(B);
  A.run();
  B.run();
  for (const char *Name : {"Queen", "Sieve"}) {
    EXPECT_EQ(A.base(Name).Cache, B.base(Name).Cache);
    for (size_t I = 0; I != 3; ++I)
      EXPECT_EQ(A.point(Name, I), B.point(Name, I)) << Name << " " << I;
  }
}

TEST(Engine, TraceReserveHintDoesNotChangeResults) {
  CompileOptions O;
  SimConfig Sim;
  Sim.Cache = config(128, 2);
  Sim.RecordTrace = true;
  SimResult Plain = runWorkload("Sieve", O, Sim);
  Sim.TraceSizeHint = 1 << 20;
  SimResult Hinted = runWorkload("Sieve", O, Sim);
  EXPECT_EQ(Plain.Cache, Hinted.Cache);
  EXPECT_EQ(Plain.Output, Hinted.Output);
  EXPECT_EQ(Plain.Trace.size(), Hinted.Trace.size());
  EXPECT_GE(Hinted.Trace.capacity(), size_t(1) << 20);
}

} // namespace

//===----------------------------------------------------------------------===//
// Streaming pipeline: chunk-fed replay and the producer/consumer stream
// must be bit-identical to the materialize-then-replay path.
//===----------------------------------------------------------------------===//

TEST(Streaming, ChunkedFeedMatchesBatchKernels) {
  std::vector<TraceEvent> Trace = hintedTrace(21, 30000, 700);
  std::vector<SweepPoint> Points = {
      {config(128, 2), CachePolicy::LRU, false},
      {config(16, 2), CachePolicy::LRU, true},
      {config(64, 4), CachePolicy::LRU, false},
      {config(32, 2, 2), CachePolicy::LRU, true},
      {config(64, 2), CachePolicy::FIFO, false},
      {config(8, 8), CachePolicy::LRU, false},
  };
  std::vector<CacheStats> Batch = replaySweepPoints(Trace, Points);
  // Awkward chunk sizes: prime-sized, single-event, and a short tail.
  for (size_t ChunkSize : {1u, 97u, 4096u, 29999u, 30000u, 50000u}) {
    SweepPointStream Stream(Points);
    for (size_t At = 0; At < Trace.size(); At += ChunkSize)
      Stream.feed(Trace.data() + At,
                  std::min(ChunkSize, Trace.size() - At));
    EXPECT_EQ(Stream.finish(), Batch) << "chunk size " << ChunkSize;
  }
}

TEST(Streaming, ChunkedFeedMatchesBatchStackDistance) {
  // All points stack-eligible: the streaming path uses the growable
  // Fenwick trees with no up-front reserve (geometric growth).
  std::vector<TraceEvent> Trace = hintedTrace(22, 30000, 500);
  std::vector<SweepPoint> Points;
  for (uint32_t Lines : {2u, 8u, 32u, 100u, 256u, 1024u}) {
    Points.push_back({config(Lines, Lines), CachePolicy::LRU, false});
    Points.push_back({config(Lines, Lines), CachePolicy::LRU, true});
  }
  ASSERT_TRUE(std::all_of(Points.begin(), Points.end(),
                          stackDistanceEligible));
  std::vector<CacheStats> Batch = replaySweepPoints(Trace, Points);
  for (size_t ChunkSize : {63u, 7000u}) {
    SweepPointStream Stream(Points);
    for (size_t At = 0; At < Trace.size(); At += ChunkSize)
      Stream.feed(Trace.data() + At,
                  std::min(ChunkSize, Trace.size() - At));
    EXPECT_EQ(Stream.finish(), Batch) << "chunk size " << ChunkSize;
  }
  // Per-point ground truth too (not just batch-vs-stream agreement).
  SweepPointStream Stream(Points);
  Stream.feed(Trace.data(), Trace.size());
  std::vector<CacheStats> Out = Stream.finish();
  for (size_t I = 0; I != Points.size(); ++I)
    EXPECT_EQ(Out[I], groundTruth(Trace, Points[I])) << "point " << I;
}

//===----------------------------------------------------------------------===//
// Point-parallel replay: the engine splits one experiment's points into
// groups on the pool; every point must equal the same point replayed
// alone, sequentially, in every trace mode and at every pool width.
//===----------------------------------------------------------------------===//

namespace {

/// Fresh store directory per test case, removed on destruction.
struct ScratchDir {
  std::filesystem::path Path;
  explicit ScratchDir(const char *Name) {
    Path = std::filesystem::temp_directory_path() /
           (std::string("urcm_sweepengine_") + Name + "." +
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

std::shared_ptr<MachineProgram> compileUnified(const std::string &Name) {
  const Workload *W = findWorkload(Name);
  EXPECT_NE(W, nullptr);
  CompileOptions O;
  O.Scheme = UnifiedOptions::unified();
  DiagnosticEngine Diags;
  CompileResult R = compileProgram(W->Source, O, Diags);
  EXPECT_TRUE(R.Ok) << Diags.str();
  return std::make_shared<MachineProgram>(std::move(R.Program));
}

/// Every policy in both hint views at the paper geometry, each with
/// per-reference attribution, plus attribution-free fully-associative
/// LRU points that group into shared stack-distance walks. \p WithMIN
/// adds Belady MIN, which moves the experiment onto the
/// materialized-trace path.
std::vector<SweepPoint> pointParallelGrid(uint32_t NumRefs, bool WithMIN) {
  std::vector<SweepPoint> Points;
  for (CachePolicy P :
       {CachePolicy::LRU, CachePolicy::FIFO, CachePolicy::Random,
        CachePolicy::TreePLRU, CachePolicy::SRRIP,
        CachePolicy::LivenessBypass, CachePolicy::MIN}) {
    if (P == CachePolicy::MIN && !WithMIN)
      continue;
    for (bool IgnoreHints : {false, true}) {
      SweepPoint Pt{config(128, 2), P, IgnoreHints};
      Pt.Config.Policy = P;
      Pt.AttributionRefs = NumRefs;
      Points.push_back(Pt);
    }
  }
  for (uint32_t Lines : {16u, 64u})
    for (bool IgnoreHints : {false, true})
      Points.push_back(
          {config(Lines, Lines), CachePolicy::LRU, IgnoreHints});
  return Points;
}

struct PointOracle {
  std::vector<CacheStats> Stats;
  std::vector<RefAttribution> Attrib;
};

/// The oracle: each point replayed alone — replaySweepPoints for the
/// counters, a one-point SweepPointStream for the attribution table.
PointOracle perPointOracle(const std::vector<TraceEvent> &Trace,
                           const std::vector<SweepPoint> &Points) {
  PointOracle O;
  for (const SweepPoint &P : Points) {
    O.Stats.push_back(replaySweepPoints(Trace, {P})[0]);
    SweepPointStream Stream({P}, &Trace);
    Stream.feed(Trace.data(), Trace.size());
    Stream.finish();
    O.Attrib.push_back(Stream.takeAttribution(0));
  }
  return O;
}

void expectMatchesOracle(const SweepEngine &Engine,
                         const std::vector<SweepPoint> &Points,
                         const PointOracle &Oracle,
                         const std::string &Label) {
  ASSERT_TRUE(Engine.base("exp").ok()) << Label;
  for (size_t I = 0; I != Points.size(); ++I) {
    const std::string At = Label + " point " + std::to_string(I) + " (" +
                           cachePolicyName(Points[I].Policy) +
                           (Points[I].IgnoreHints ? ", stripped)" : ")");
    EXPECT_EQ(Engine.point("exp", I), Oracle.Stats[I]) << At;
    if (Points[I].wantsAttribution()) {
      EXPECT_EQ(Engine.attribution("exp", I), Oracle.Attrib[I]) << At;
    }
  }
}

/// Enables telemetry for one test and resets it on both ends.
struct TelemetryScope {
  TelemetryScope() {
    telemetry::setEnabled(true);
    telemetry::reset();
  }
  ~TelemetryScope() {
    telemetry::setEnabled(false);
    telemetry::reset();
  }
};

uint64_t telemetryCounter(const char *Name) {
  std::string JSON = telemetry::snapshotJSON();
  std::string Key = std::string("\"") + Name + "\": ";
  size_t At = JSON.find(Key);
  if (At == std::string::npos)
    return 0;
  return std::strtoull(JSON.c_str() + At + Key.size(), nullptr, 10);
}

/// The base-run fields a streamed engine run must reproduce from the
/// buffered run (everything but the trace itself).
void expectSameBase(const SimResult &Got, const SimResult &Want,
                    const std::string &Label) {
  ASSERT_TRUE(Got.ok()) << Label << ": " << Got.Error;
  EXPECT_TRUE(Got.Trace.empty()) << Label; // Streamed, not materialized.
  EXPECT_EQ(Got.Steps, Want.Steps) << Label;
  EXPECT_EQ(Got.Output, Want.Output) << Label;
  EXPECT_EQ(Got.Cache, Want.Cache) << Label;
  EXPECT_EQ(Got.ICache, Want.ICache) << Label;
  EXPECT_EQ(Got.Refs.total(), Want.Refs.total()) << Label;
  EXPECT_EQ(Got.Refs.Bypassed, Want.Refs.Bypassed) << Label;
  EXPECT_EQ(Got.Refs.LastRefTagged, Want.Refs.LastRefTagged) << Label;
  EXPECT_EQ(Got.InstructionFetches, Want.InstructionFetches) << Label;
  EXPECT_EQ(Got.BypassTransitions, Want.BypassTransitions) << Label;
}

TEST(Streaming, StreamTraceMatchesBufferedRun) {
  // The engine's streamed replay must see exactly the trace RecordTrace
  // would have materialized — live, recording into a cold store, and
  // decoded warm from it — across chunk-boundary shapes (a short final
  // chunk, many chunks per window, and one chunk holding the whole
  // trace).
  std::shared_ptr<MachineProgram> Prog = compileUnified("Queen");
  SimConfig Buffered;
  Buffered.Cache = config(128, 2);
  Buffered.RecordTrace = true;
  const SimResult Recorded = Simulator(Buffered).run(*Prog);
  ASSERT_TRUE(Recorded.ok()) << Recorded.Error;
  ASSERT_FALSE(Recorded.Trace.empty());
  const std::vector<SweepPoint> Points = pointParallelGrid(
      static_cast<uint32_t>(Prog->RefTable.size()), /*WithMIN=*/false);
  const std::vector<CacheStats> Want =
      replaySweepPoints(Recorded.Trace, Points);
  SweepEngine::Producer Produce = [Prog](const SimConfig &Sim) {
    EXPECT_NE(Sim.Sink, nullptr);
    Simulator S(Sim);
    return S.run(*Prog);
  };
  SweepEngine::Producer MustNotRun = [](const SimConfig &) {
    ADD_FAILURE() << "warm run simulated";
    return SimResult();
  };
  const uint64_t Hash = traceContentHash(*Prog, Buffered);

  for (uint32_t ChunkEvents : {7u, 1024u, 1u << 20}) {
    SimConfig Base;
    Base.Cache = Buffered.Cache;
    Base.TraceChunkEvents = ChunkEvents;
    ScratchDir Dir(("chunks" + std::to_string(ChunkEvents)).c_str());
    for (const char *Mode : {"live", "cold", "warm"}) {
      const std::string Label =
          std::string(Mode) + " chunk " + std::to_string(ChunkEvents);
      SweepEngine Engine;
      DiagnosticEngine Diags;
      const bool Stored = std::string(Mode) != "live";
      if (Stored)
        Engine.setTraceStore(Dir.str(), &Diags);
      Engine.schedule("exp", "g", Base, Points,
                      std::string(Mode) == "warm" ? MustNotRun : Produce,
                      Stored ? Hash : 0);
      Engine.run();
      EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
      expectSameBase(Engine.base("exp"), Recorded, Label);
      for (size_t I = 0; I != Points.size(); ++I)
        EXPECT_EQ(Engine.point("exp", I), Want[I]) << Label << " point " << I;
      if (std::string(Mode) == "cold") {
        // The writer sees every chunk the sink takes, so the stored
        // trace is the buffered one, event for event.
        TraceStoreReader Reader;
        DiagnosticEngine OpenDiags;
        ASSERT_EQ(Reader.open(traceStorePath(Dir.str(), Hash), Hash,
                              OpenDiags),
                  TraceStoreReader::OpenStatus::Ok);
        std::vector<TraceEvent> Stored;
        ASSERT_TRUE(Reader.readAll(Stored));
        ASSERT_EQ(Stored.size(), Recorded.Trace.size()) << Label;
        for (size_t I = 0; I != Stored.size(); ++I) {
          const TraceEvent &A = Stored[I], &B = Recorded.Trace[I];
          ASSERT_TRUE(A.Addr == B.Addr && A.IsWrite == B.IsWrite &&
                      A.Info.Bypass == B.Info.Bypass &&
                      A.Info.LastRef == B.Info.LastRef && A.RefId == B.RefId)
              << Label << " event " << I;
        }
      }
    }
  }
}

TEST(Streaming, ProducerExceptionPropagatesWithoutDeadlock) {
  // A producer that fails after several windows' worth of chunks reached
  // the replay groups must surface from run() at every pool width: the
  // window closes, every group drains and returns, and the half-recorded
  // trace is never published to the store.
  const std::vector<TraceEvent> Trace = hintedTrace(9, 5000, 400);
  SimConfig Base;
  Base.Cache = config(64, 2);
  std::vector<SweepPoint> Points;
  for (CachePolicy P : {CachePolicy::LRU, CachePolicy::FIFO,
                        CachePolicy::Random, CachePolicy::SRRIP})
    Points.push_back({config(128, 4), P, false});
  for (uint32_t Lines : {16u, 64u})
    Points.push_back({config(Lines, Lines), CachePolicy::LRU, true});
  SweepEngine::Producer Throws = [&Trace](const SimConfig &Sim) -> SimResult {
    std::vector<TraceEvent> Chunk;
    for (size_t At = 0; At < Trace.size(); At += 100) {
      Chunk.assign(Trace.begin() + At,
                   Trace.begin() + std::min(At + 100, Trace.size()));
      Chunk = Sim.Sink->chunk(std::move(Chunk));
    }
    throw std::runtime_error("producer failed");
  };
  for (unsigned Width : {1u, 2u, 4u}) {
    ThreadPool Pool(Width);
    ScratchDir Dir("producer_throws");
    SweepEngine Engine(&Pool);
    DiagnosticEngine Diags;
    Engine.setTraceStore(Dir.str(), &Diags);
    Engine.schedule("exp", "g", Base, Points, Throws, /*ContentHash=*/0x5eed);
    EXPECT_THROW(Engine.run(), std::runtime_error) << "width " << Width;
    EXPECT_FALSE(Engine.done("exp")) << "width " << Width;
    EXPECT_TRUE(std::filesystem::is_empty(Dir.Path)) << "width " << Width;
  }
}

TEST(Streaming, RecordOnlyRunFillsTheStore) {
  // Every point of this experiment reuses the base counters, so there is
  // nothing to replay; a cold run with a store still streams its trace
  // into the writer (the same sink with zero replay groups), and the
  // next run is served warm without simulating.
  std::shared_ptr<MachineProgram> Prog = compileUnified("Queen");
  SimConfig Base;
  Base.Cache = config(128, 2);
  const std::vector<SweepPoint> Points = {
      {Base.Cache, Base.Cache.Policy, false}};
  auto Calls = std::make_shared<std::atomic<int>>(0);
  SweepEngine::Producer Produce = [Prog, Calls](const SimConfig &Sim) {
    Calls->fetch_add(1);
    Simulator S(Sim);
    return S.run(*Prog);
  };
  const uint64_t Hash = traceContentHash(*Prog, Base);
  ScratchDir Dir("record_only");
  SimResult Cold;
  for (const char *Mode : {"cold", "warm"}) {
    SweepEngine Engine;
    DiagnosticEngine Diags;
    Engine.setTraceStore(Dir.str(), &Diags);
    Engine.schedule("exp", "g", Base, Points, Produce, Hash);
    Engine.run();
    EXPECT_FALSE(Diags.hasErrors()) << Mode << ": " << Diags.str();
    if (std::string(Mode) == "cold") {
      Cold = Engine.base("exp");
      ASSERT_TRUE(Cold.ok()) << Cold.Error;
      ASSERT_TRUE(
          std::filesystem::exists(traceStorePath(Dir.str(), Hash)));
    } else {
      expectSameBase(Engine.base("exp"), Cold, Mode);
    }
    EXPECT_EQ(Engine.point("exp", 0), Cold.Cache) << Mode;
  }
  EXPECT_EQ(Calls->load(), 1) << "the warm run simulated";
}

TEST(Streaming, TelemetryCountsEveryChunkAndEvent) {
  // trace.events and trace.chunks are counted at the replay window, for
  // the live simulator and for warm store decode alike.
  TelemetryScope Telemetry;
  std::shared_ptr<MachineProgram> Prog = compileUnified("Queen");
  SimConfig Base;
  Base.Cache = config(128, 2);
  Base.TraceChunkEvents = 4096;
  SimConfig Traced = Base;
  Traced.RecordTrace = true;
  const SimResult Recorded = Simulator(Traced).run(*Prog);
  ASSERT_TRUE(Recorded.ok()) << Recorded.Error;
  const uint64_t Events = Recorded.Trace.size();
  const std::vector<SweepPoint> Points = {
      {config(64, 2), CachePolicy::FIFO, false},
      {config(32, 32), CachePolicy::LRU, false}};
  SweepEngine::Producer Produce = [Prog](const SimConfig &Sim) {
    Simulator S(Sim);
    return S.run(*Prog);
  };
  const uint64_t Hash = traceContentHash(*Prog, Base);
  ScratchDir Dir("telemetry");
  for (const char *Mode : {"live", "cold", "warm"}) {
    telemetry::reset();
    SweepEngine Engine;
    DiagnosticEngine Diags;
    const bool Stored = std::string(Mode) != "live";
    if (Stored)
      Engine.setTraceStore(Dir.str(), &Diags);
    Engine.schedule("exp", "g", Base, Points, Produce, Stored ? Hash : 0);
    Engine.run();
    ASSERT_TRUE(Engine.base("exp").ok()) << Mode;
    EXPECT_EQ(telemetryCounter("trace.events"), Events) << Mode;
    if (std::string(Mode) == "live") {
      EXPECT_EQ(telemetryCounter("trace.chunks"),
                (Events + Base.TraceChunkEvents - 1) / Base.TraceChunkEvents);
    } else if (std::string(Mode) == "warm") {
      // Warm chunks are the store's own, whatever the live chunk size.
      TraceStoreReader Reader;
      DiagnosticEngine OpenDiags;
      ASSERT_EQ(Reader.open(traceStorePath(Dir.str(), Hash), Hash, OpenDiags),
                TraceStoreReader::OpenStatus::Ok);
      uint64_t StoredChunks = 0;
      std::vector<TraceEvent> Chunk;
      while (Reader.next(Chunk))
        ++StoredChunks;
      EXPECT_EQ(telemetryCounter("trace.chunks"), StoredChunks);
      EXPECT_EQ(telemetryCounter("sim.runs"), 0u);
    }
  }
}

TEST(PointParallel, EngineMatchesPerPointOracleInEveryModeAndWidth) {
  std::shared_ptr<MachineProgram> Prog = compileUnified("Queen");
  const uint32_t NumRefs = static_cast<uint32_t>(Prog->RefTable.size());
  SimConfig Base;
  Base.Cache = config(128, 2);
  // Many more chunks than the replay window, so groups run ahead of
  // and behind one another.
  Base.TraceChunkEvents = 4096;
  SimConfig Traced = Base;
  Traced.RecordTrace = true;
  const SimResult Recorded = Simulator(Traced).run(*Prog);
  ASSERT_TRUE(Recorded.ok()) << Recorded.Error;
  ASSERT_GT(Recorded.Trace.size(), 8u * Base.TraceChunkEvents);
  const uint64_t Hash = traceContentHash(*Prog, Base);
  auto Calls = std::make_shared<std::atomic<int>>(0);
  SweepEngine::Producer Produce = [Prog, Calls](const SimConfig &Sim) {
    Calls->fetch_add(1);
    Simulator S(Sim);
    return S.run(*Prog);
  };

  // Live stream (no MIN) and the materialized MIN path, each cold into
  // a store, then live and warm at pool widths 1, 2 and 4.
  for (bool WithMIN : {false, true}) {
    const std::vector<SweepPoint> Points =
        pointParallelGrid(NumRefs, WithMIN);
    const PointOracle Oracle = perPointOracle(Recorded.Trace, Points);
    const std::string Path = WithMIN ? "materialized" : "streamed";
    ScratchDir Dir(Path.c_str());
    {
      SweepEngine Cold;
      DiagnosticEngine Diags;
      Cold.setTraceStore(Dir.str(), &Diags);
      Cold.schedule("exp", "g", Base, Points, Produce, Hash);
      Cold.run();
      EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
      expectMatchesOracle(Cold, Points, Oracle, Path + " cold");
    }
    for (unsigned Width : {1u, 2u, 4u}) {
      ThreadPool Pool(Width);
      const std::string Label = Path + " width " + std::to_string(Width);
      SweepEngine Live(&Pool);
      Live.schedule("exp", "g", Base, Points, Produce);
      Live.run();
      expectMatchesOracle(Live, Points, Oracle, Label + " live");

      const int CallsBefore = Calls->load();
      SweepEngine Warm(&Pool);
      DiagnosticEngine Diags;
      Warm.setTraceStore(Dir.str(), &Diags);
      Warm.schedule("exp", "g", Base, Points, Produce, Hash);
      Warm.run();
      EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
      EXPECT_EQ(Calls->load(), CallsBefore) << Label << ": warm simulated";
      expectMatchesOracle(Warm, Points, Oracle, Label + " warm");
      EXPECT_EQ(Warm.base("exp").Cache, Oracle.Stats[0]) << Label;
    }
  }
}

TEST(PointParallel, SaturatedPoolReplaysInlineWithoutDeadlock) {
  // Every worker is parked inside an outer parallelFor while the engine
  // runs, so no pool thread can claim a replay group: the publishing
  // thread must replay every group's chunks itself rather than wait on
  // a group nobody runs.
  TelemetryScope Telemetry;
  std::shared_ptr<MachineProgram> Prog = compileUnified("Queen");
  SimConfig Base;
  Base.Cache = config(128, 2);
  Base.TraceChunkEvents = 1024;
  SimConfig Traced = Base;
  Traced.RecordTrace = true;
  const SimResult Recorded = Simulator(Traced).run(*Prog);
  ASSERT_TRUE(Recorded.ok()) << Recorded.Error;

  for (bool WithMIN : {false, true}) {
    const std::vector<SweepPoint> Points = pointParallelGrid(
        static_cast<uint32_t>(Prog->RefTable.size()), WithMIN);
    const PointOracle Oracle = perPointOracle(Recorded.Trace, Points);
    ThreadPool Pool(2);
    SweepEngine Engine(&Pool);
    Engine.schedule("exp", "g", Base, Points, [Prog](const SimConfig &Sim) {
      Simulator S(Sim);
      return S.run(*Prog);
    });
    std::atomic<int> Parked{0};
    std::atomic<bool> Release{false};
    Pool.parallelFor(Pool.size() + 1, [&](size_t I) {
      if (I != 0) {
        Parked.fetch_add(1);
        while (!Release.load())
          std::this_thread::yield();
        return;
      }
      while (Parked.load() != static_cast<int>(Pool.size()))
        std::this_thread::yield();
      Engine.run();
      Release.store(true);
    });
    expectMatchesOracle(Engine, Points, Oracle,
                        WithMIN ? "saturated materialized"
                                : "saturated streamed");
  }
  EXPECT_GT(telemetryCounter("sim.replay.inline-chunks"), 0u);
}

} // namespace
