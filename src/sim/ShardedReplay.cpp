//===- ShardedReplay.cpp - Set-sharded parallel replay -------------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
//
// See urcm/sim/ShardedReplay.h for the unit taxonomy (set shards,
// capacity shards, sequential leftovers) and the merge invariant. The
// implementation notes that matter here:
//
//  * Demux partitions are keyed by (line-words, set-count), not by full
//    configuration: the set an address maps to depends on nothing else,
//    so a 2-way LRU, a 4-way FIFO and a write-through cache with the
//    same set count all replay from one partition. shard = set % N
//    works for any N <= NumSets (the test matrix includes N = 7 against
//    power-of-two set counts); the replay kernels compact a shard's
//    sets to set / N, and the two mappings compose for every residue
//    class, divisor or not.
//
//  * Correctness of per-shard recency: LRU/FIFO ticks are allocated
//    per replayer in feed order, so a shard's ticks differ numerically
//    from the sequential run's — but comparisons only ever happen
//    between ways of one set, events of one set arrive in trace order
//    within their shard, and ticks are strictly monotonic, so every
//    comparison resolves identically. (At a compile-time shape LRU
//    keeps no ticks at all: its recency is each set's slot order.)
//    Policies whose state crosses sets (Random's RNG stream, MIN's
//    global indexes) are routed to the sequential leftover unit
//    instead (setShardEligible).
//
//  * All replay happens in finish(): feed() only appends to per-shard
//    buffers, so when the streaming pipeline drives this stream, demux
//    overlaps trace generation and the expensive replay runs wide
//    afterwards. Per-unit results land in cache-line-padded slots;
//    the kernels themselves accumulate into unit-local state, so the
//    parallel phase shares no mutable line between units.
//
//===----------------------------------------------------------------------===//

#include "urcm/sim/ShardedReplay.h"

#include "ReplayKernels.h"
#include "urcm/support/CacheAlign.h"
#include "urcm/support/Telemetry.h"

#include <cassert>
#include <functional>
#include <map>

using namespace urcm;

URCM_STAT(NumShardReplays, "sim.shard.replays",
          "Sharded replays executed (one per finish())");
URCM_STAT(NumShardsUsed, "sim.shard.shards",
          "Shard count, summed over sharded replays");
URCM_STAT(NumShardUnits, "sim.shard.units",
          "Parallel replay units (set shards + capacity shards + "
          "sequential leftovers)");
URCM_STAT(ShardDemuxNs, "sim.shard.demux-ns",
          "Nanoseconds demultiplexing trace chunks into shard buffers");
URCM_STAT(ShardReplayNs, "sim.shard.replay-ns",
          "Nanoseconds in the parallel shard-replay phase (wall clock "
          "of the fan-out, not summed across units)");
URCM_HISTOGRAM(ShardImbalance, "sim.shard.imbalance",
               "Largest shard's share of its partition, percent of the "
               "even split (100 = perfectly balanced)");

uint32_t urcm::resolveShardCount(uint32_t Requested,
                                 const ThreadPool &Pool) {
  if (Requested != 0)
    return Requested;
  return Pool.size() + 1; // parallelFor's caller participates.
}

struct ShardedSweepStream::Impl {
  std::vector<SweepPoint> Points;
  uint32_t Shards;
  ThreadPool *Pool;
  const std::vector<TraceEvent> *ExternalTrace;
  /// Set when some unit must walk the raw trace (capacity shards,
  /// sequential leftovers) and no external copy exists.
  bool NeedRaw = false;
  std::vector<TraceEvent> Raw;

  /// One demux partition per distinct (line-words, set-count) geometry
  /// among the set-shardable points, shared by every configuration with
  /// that geometry.
  struct Group {
    uint32_t GroupShards = 1;
    CacheGeometry Geo;
    std::vector<size_t> PointIdx; ///< Into Points, order preserved.
    std::vector<SweepPoint> Pts;  ///< Parallel to PointIdx.
    std::vector<std::vector<TraceEvent>> Buffers; ///< [GroupShards].
  };
  std::vector<Group> Groups;

  /// One capacity shard of the stack-distance sweep: a slice of one
  /// hint view's size list, walking the full trace.
  struct StackUnit {
    bool IgnoreHints = false;
    std::vector<uint32_t> Sizes;
    std::vector<size_t> PointIdx;
  };
  std::vector<StackUnit> StackUnits;

  std::vector<SweepPoint> SeqPts;
  std::vector<size_t> SeqIdx;

  /// Merged attribution tables, parallel to Points (default-empty for
  /// points that did not request attribution); filled by finish().
  std::vector<RefAttribution> OutAttrib;

  const std::vector<TraceEvent> &trace() const {
    return ExternalTrace ? *ExternalTrace : Raw;
  }
};

ShardedSweepStream::ShardedSweepStream(
    std::vector<SweepPoint> Points, uint32_t Shards, ThreadPool *Pool,
    const std::vector<TraceEvent> *FullTrace)
    : P(std::make_unique<Impl>()) {
  assert(Shards >= 1 && "pass resolveShardCount's result");
  P->Points = std::move(Points);
  P->Shards = Shards;
  P->Pool = Pool ? Pool : &ThreadPool::global();
  P->ExternalTrace = FullTrace;

  // Classify every point into a work-unit family. Stack-eligible points
  // become capacity shards (collected per hint view, sliced below);
  // set-shardable points join their geometry's demux partition when it
  // yields at least two shards; everything else replays sequentially.
  std::vector<uint32_t> ViewSizes[2];
  std::vector<size_t> ViewIdx[2];
  std::map<std::pair<uint32_t, uint32_t>, size_t> GroupOf;
  for (size_t I = 0; I != P->Points.size(); ++I) {
    const SweepPoint &Pt = P->Points[I];
    // Attribution excludes a point from the capacity shards: the
    // positional stack walk cannot charge events to references. Such a
    // point has one set, so the set-shard test below sends it to the
    // sequential leftovers, where the per-event kernels attribute.
    if (Shards > 1 && stackDistanceEligible(Pt) &&
        !Pt.wantsAttribution()) {
      const int View = Pt.IgnoreHints ? 1 : 0;
      ViewSizes[View].push_back(Pt.Config.NumLines);
      ViewIdx[View].push_back(I);
      continue;
    }
    const uint32_t NumSets = Pt.Config.NumLines / Pt.Config.Assoc;
    const uint32_t GS = std::min(Shards, NumSets);
    if (detail::setShardEligible(Pt) && GS >= 2) {
      auto [It, Inserted] =
          GroupOf.try_emplace({Pt.Config.LineWords, NumSets},
                              P->Groups.size());
      if (Inserted) {
        Impl::Group G;
        G.GroupShards = GS;
        CacheConfig GeoConfig;
        GeoConfig.NumLines = NumSets;
        GeoConfig.Assoc = 1;
        GeoConfig.LineWords = Pt.Config.LineWords;
        G.Geo = CacheGeometry(GeoConfig);
        G.Buffers.resize(GS);
        P->Groups.push_back(std::move(G));
      }
      Impl::Group &G = P->Groups[It->second];
      G.PointIdx.push_back(I);
      G.Pts.push_back(Pt);
      continue;
    }
    P->SeqPts.push_back(Pt);
    P->SeqIdx.push_back(I);
  }

  // Slice each view's size list into up to Shards capacity shards. The
  // walk cost is trace-dominated and identical per unit, so an even
  // count split balances.
  for (int View : {0, 1}) {
    const size_t N = ViewSizes[View].size();
    if (N == 0)
      continue;
    const size_t NumUnits = std::min<size_t>(Shards, N);
    for (size_t U = 0; U != NumUnits; ++U) {
      const size_t Begin = U * N / NumUnits;
      const size_t End = (U + 1) * N / NumUnits;
      Impl::StackUnit SU;
      SU.IgnoreHints = View == 1;
      SU.Sizes.assign(ViewSizes[View].begin() + Begin,
                      ViewSizes[View].begin() + End);
      SU.PointIdx.assign(ViewIdx[View].begin() + Begin,
                         ViewIdx[View].begin() + End);
      P->StackUnits.push_back(std::move(SU));
    }
  }

  P->NeedRaw = !P->ExternalTrace &&
               (!P->StackUnits.empty() || !P->SeqPts.empty());
}

ShardedSweepStream::~ShardedSweepStream() = default;

void ShardedSweepStream::reserve(uint64_t ExpectedEvents) {
  for (Impl::Group &G : P->Groups) {
    // An even split plus slack; skewed sets grow past it on demand.
    const uint64_t PerShard =
        ExpectedEvents / G.GroupShards + ExpectedEvents / (4 * G.GroupShards);
    for (std::vector<TraceEvent> &B : G.Buffers)
      B.reserve(PerShard);
  }
  if (P->NeedRaw)
    P->Raw.reserve(ExpectedEvents);
}

void ShardedSweepStream::feed(const TraceEvent *Events, size_t Count) {
  if (Count == 0)
    return;
  const bool Metered = telemetry::enabled();
  const uint64_t T0 = Metered ? telemetry::nowNanos() : 0;
  for (Impl::Group &G : P->Groups) {
    const uint32_t GS = G.GroupShards;
    std::vector<TraceEvent> *const Buffers = G.Buffers.data();
    if ((GS & (GS - 1)) == 0) {
      const uint32_t Mask = GS - 1;
      for (const TraceEvent *E = Events, *End = Events + Count; E != End;
           ++E)
        Buffers[G.Geo.setOf(G.Geo.lineAddr(E->Addr)) & Mask].push_back(*E);
    } else {
      for (const TraceEvent *E = Events, *End = Events + Count; E != End;
           ++E)
        Buffers[G.Geo.setOf(G.Geo.lineAddr(E->Addr)) % GS].push_back(*E);
    }
  }
  if (P->NeedRaw)
    P->Raw.insert(P->Raw.end(), Events, Events + Count);
  if (Metered)
    ShardDemuxNs.add(telemetry::nowNanos() - T0);
}

std::vector<CacheStats> ShardedSweepStream::finish() {
  Impl &I = *P;

  // Flatten the work units. Each returns its counters (and, for points
  // that request it, attribution tables) in unit-local order; the merge
  // below scatters/accumulates them single-threaded.
  struct UnitResult {
    std::vector<CacheStats> Stats;
    std::vector<RefAttribution> Attrib;
  };
  std::vector<std::function<UnitResult()>> Units;
  for (Impl::Group &G : I.Groups)
    for (uint32_t S = 0; S != G.GroupShards; ++S)
      Units.push_back([&G, S] {
        const std::vector<TraceEvent> &Buf = G.Buffers[S];
        UnitResult R;
        // Sized once up front so the models' table pointers stay valid
        // for the whole replay.
        R.Attrib.resize(G.Pts.size());
        detail::GenericMultiStream K(G.Pts, nullptr, G.GroupShards);
        for (size_t J = 0; J != G.Pts.size(); ++J)
          if (G.Pts[J].wantsAttribution()) {
            R.Attrib[J] = RefAttribution(G.Pts[J].AttributionRefs);
            K.setAttribution(J, &R.Attrib[J]);
          }
        K.feed(Buf.data(), Buf.size());
        R.Stats = K.finish();
        return R;
      });
  for (Impl::StackUnit &SU : I.StackUnits)
    Units.push_back([&I, &SU] {
      const std::vector<TraceEvent> &T = I.trace();
      detail::StackDistanceStream K(SU.Sizes, SU.IgnoreHints);
      K.reserve(T.size());
      K.feed(T.data(), T.size());
      // Capacity shards never attribute (classification excludes
      // attributing points), so Attrib stays empty.
      return UnitResult{K.finish(), {}};
    });
  if (!I.SeqPts.empty())
    Units.push_back([&I] {
      const std::vector<TraceEvent> &T = I.trace();
      SweepPointStream Stream(I.SeqPts, &T);
      Stream.reserve(T.size());
      Stream.feed(T.data(), T.size());
      UnitResult R;
      R.Stats = Stream.finish();
      R.Attrib.resize(I.SeqPts.size());
      for (size_t J = 0; J != I.SeqPts.size(); ++J)
        if (I.SeqPts[J].wantsAttribution())
          R.Attrib[J] = Stream.takeAttribution(J);
      return R;
    });

  // Replay every unit on the pool. Results land in padded slots so
  // concurrent completions never write the same cache line; the merge
  // afterwards is sequential and deterministic (sums of uint64 are
  // order-independent anyway).
  struct alignas(DestructiveInterferenceSize) UnitSlot {
    UnitResult R;
  };
  std::vector<UnitSlot> Slots(Units.size());
  const bool Metered = telemetry::enabled();
  const uint64_t T0 = Metered ? telemetry::nowNanos() : 0;
  I.Pool->parallelFor(
      Units.size(), [&](size_t U) { Slots[U].R = Units[U](); });
  if (Metered) {
    ShardReplayNs.add(telemetry::nowNanos() - T0);
    NumShardReplays.add();
    NumShardsUsed.add(I.Shards);
    NumShardUnits.add(Units.size());
    for (const Impl::Group &G : I.Groups) {
      uint64_t Total = 0, Max = 0;
      for (const std::vector<TraceEvent> &B : G.Buffers) {
        Total += B.size();
        Max = std::max<uint64_t>(Max, B.size());
      }
      if (Total)
        ShardImbalance.record(Max * G.GroupShards * 100 / Total);
    }
  }

  std::vector<CacheStats> Out(I.Points.size());
  I.OutAttrib.assign(I.Points.size(), RefAttribution());
  size_t U = 0;
  for (const Impl::Group &G : I.Groups)
    for (uint32_t S = 0; S != G.GroupShards; ++S, ++U)
      for (size_t J = 0; J != G.PointIdx.size(); ++J) {
        Out[G.PointIdx[J]] += Slots[U].R.Stats[J];
        if (I.Points[G.PointIdx[J]].wantsAttribution())
          I.OutAttrib[G.PointIdx[J]] += Slots[U].R.Attrib[J];
      }
  for (const Impl::StackUnit &SU : I.StackUnits) {
    for (size_t J = 0; J != SU.PointIdx.size(); ++J)
      Out[SU.PointIdx[J]] = Slots[U].R.Stats[J];
    ++U;
  }
  if (!I.SeqPts.empty()) {
    for (size_t J = 0; J != I.SeqIdx.size(); ++J) {
      Out[I.SeqIdx[J]] = Slots[U].R.Stats[J];
      I.OutAttrib[I.SeqIdx[J]] = std::move(Slots[U].R.Attrib[J]);
    }
    ++U;
  }
  return Out;
}

RefAttribution ShardedSweepStream::takeAttribution(size_t PointIndex) {
  assert(PointIndex < P->OutAttrib.size() &&
         "sweep point index out of range (or finish() not called)");
  return std::move(P->OutAttrib[PointIndex]);
}

std::vector<CacheStats>
urcm::replaySweepPointsSharded(const std::vector<TraceEvent> &Trace,
                               const std::vector<SweepPoint> &Points,
                               uint32_t Shards, ThreadPool *Pool) {
  ShardedSweepStream Stream(Points, Shards, Pool, &Trace);
  Stream.reserve(Trace.size());
  Stream.feed(Trace.data(), Trace.size());
  return Stream.finish();
}
