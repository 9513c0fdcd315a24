//===- SweepEngine.cpp - Compile-once/replay-many sweeps -----------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The stack-distance fast path implemented here extends Mattson's
// one-pass algorithm [Mattson et al., IBM Sys. J. 1970] to the paper's
// hint semantics. The classic algorithm exploits LRU inclusion: lines
// ordered by recency form a stack, an access at stack depth d hits in
// every fully-associative LRU cache with more than d lines and misses in
// the rest, so one walk yields hit counts for all sizes.
//
// Dead-tag frees and bypass migrations break the textbook version: a
// freed line leaves a free slot in every cache that held it, and caches
// of different sizes disagree about which lines they hold. Deleting the
// freed line from the stack is wrong — it would promote every deeper
// line by one position, turning later misses into phantom hits for
// intermediate sizes. Instead a freed line's stack slot is kept as a
// *hole*: depth arithmetic still counts it, and the number of holes
// among the top S entries is exactly the number of free slots in the
// size-S cache. The update rules (derived positionally, asserted
// bit-identical to CacheModel by tests/sweepengine_test.cpp):
//
//  * free (dead tag / bypass migration): the line's entry becomes a
//    hole in place;
//  * miss everywhere: the new line pushes on top and consumes the
//    topmost hole, if any — sizes that see the hole fill a free slot,
//    sizes above the hole evict their own per-size LRU victim (the
//    entry at stack position S, which simply slides out of the top-S
//    window);
//  * hit at depth d with a hole above: the line moves to the top and
//    the topmost hole moves down into the vacated slot, recording that
//    every size small enough to miss but deep enough to contain the
//    hole consumed its free slot, while hitting sizes keep theirs.
//
// Dirtiness is also size-dependent (a size that missed refetches the
// line clean), captured by a per-line DirtyMin = smallest size whose
// copy is dirty: a write sets it to 1, a read at depth d raises it to
// max(DirtyMin, d+1) because sizes <= d refill clean.
//
// Two Fenwick trees over the timestamp domain (all entries / holes
// only) give O(log n) depth, topmost-hole and per-size victim queries.
//
// Every replay kernel here (the two-way-LRU kernel, the generic
// lock-step replayer, the stack-distance sweep) is written as a
// chunk-fed stream — construct, feed(events), finish() — and the batch
// entry points (replayTraceMulti, sweepLRUStackDistance,
// replaySweepPoints) are one-chunk wrappers, so the streamed replay
// (StreamedReplay below) and the materialized-trace path execute the
// same per-event code and cannot diverge. The stack-distance stream's
// Fenwick trees grow geometrically because a streaming consumer does
// not know the trace length up front; the batch wrapper pre-sizes them
// to the exact domain.
//
//===----------------------------------------------------------------------===//

#include "urcm/sim/SweepEngine.h"

#include "ReplayKernels.h"

#include "urcm/sim/TraceStore.h"
#include "urcm/support/Diagnostics.h"
#include "urcm/support/Telemetry.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <exception>
#include <limits>
#include <map>
#include <tuple>
#include <unordered_map>

using namespace urcm;

URCM_STAT(NumSweepExperiments, "sweep.experiments",
          "Sweep experiments executed (compile+simulate+replay)");
URCM_STAT(NumSweepMemoHits, "sweep.memo-hits",
          "schedule() calls deduplicated by the experiment memo");
URCM_STAT(NumSweepPointsReplayed, "sweep.points-replayed",
          "Sweep points answered by trace replay");
URCM_STAT(NumSweepPointsReused, "sweep.points-reused",
          "Sweep points answered by reusing the base run's counters");
URCM_STAT(NumSweepTraceEvents, "sweep.trace-events",
          "Trace events generated across all experiments");
URCM_STAT(NumSweepBytesFreed, "sweep.trace-bytes-freed",
          "Bytes of materialized trace released after replay");
URCM_STAT(SweepReplayNs, "sweep.replay-ns",
          "Nanoseconds spent replaying trace chunks (consumer side)");
URCM_STAT(NumReplayWorkers, "sim.replay.workers",
          "Point-parallel replay groups run, summed over replays");
URCM_HISTOGRAM(ReplayPointsPerWorker, "sim.replay.points-per-worker",
               "Sweep points per point-parallel replay group");
URCM_HISTOGRAM(ReplayImbalance, "sim.replay.imbalance",
               "Busiest replay group's share of a replay's busy time, "
               "times the group count, in percent (100 = balanced)");
URCM_STAT(NumInlineChunks, "sim.replay.inline-chunks",
          "Trace chunks the producing thread replayed itself for a "
          "group no pool thread had claimed (saturated pool)");
URCM_STAT(NumTraceChunks, "trace.chunks", "Trace chunks streamed");
URCM_STAT(NumTraceEvents, "trace.events", "Trace events streamed");
URCM_STAT(NumProducerStalls, "trace.producer-stalls",
          "Producer waited for a free replay-window slot");
URCM_STAT(NumConsumerStalls, "trace.consumer-stalls",
          "Replay group waited for the next chunk");
URCM_STAT(NumPolicyLRUPoints, "sim.policy.lru",
          "Sweep points answered under the LRU policy");
URCM_STAT(NumPolicyFIFOPoints, "sim.policy.fifo",
          "Sweep points answered under the FIFO policy");
URCM_STAT(NumPolicyRandomPoints, "sim.policy.random",
          "Sweep points answered under the Random policy");
URCM_STAT(NumPolicyMINPoints, "sim.policy.min",
          "Sweep points answered under the Belady MIN policy");
URCM_STAT(NumPolicyTreePLRUPoints, "sim.policy.tree-plru",
          "Sweep points answered under the tree-PLRU policy");
URCM_STAT(NumPolicySRRIPPoints, "sim.policy.srrip",
          "Sweep points answered under the SRRIP policy");
URCM_STAT(NumPolicyBypassPoints, "sim.policy.liveness-bypass",
          "Sweep points answered under the liveness-bypass predictor");

namespace {
/// One counter per policy so `--stats` shows how a sweep's points were
/// distributed across the policy axis (reused and replayed alike).
void countPolicyPoint(CachePolicy Policy) {
  switch (Policy) {
  case CachePolicy::LRU:
    NumPolicyLRUPoints.add();
    break;
  case CachePolicy::FIFO:
    NumPolicyFIFOPoints.add();
    break;
  case CachePolicy::Random:
    NumPolicyRandomPoints.add();
    break;
  case CachePolicy::MIN:
    NumPolicyMINPoints.add();
    break;
  case CachePolicy::TreePLRU:
    NumPolicyTreePLRUPoints.add();
    break;
  case CachePolicy::SRRIP:
    NumPolicySRRIPPoints.add();
    break;
  case CachePolicy::LivenessBypass:
    NumPolicyBypassPoints.add();
    break;
  }
}
} // namespace


//===----------------------------------------------------------------------===//
// SweepPointStream: the dispatching stream over all kernels.
//===----------------------------------------------------------------------===//

struct SweepPointStream::Impl {
  std::vector<SweepPoint> Points;
  bool UseStack = false;
  // Stack mode: one stream per hint view ([0] hinted, [1] stripped).
  std::unique_ptr<detail::StackDistanceStream> Stack[2];
  std::vector<size_t> StackIdx[2];
  // Kernel mode: the specialized two-way kernel plus the generic walk.
  std::unique_ptr<detail::LRUTwoWayStream> Fast;
  std::unique_ptr<detail::GenericMultiStream> Slow;
  std::vector<size_t> FastIdx, SlowIdx;
  /// Per-point attribution tables, parallel to Points (default-empty
  /// rows for points that did not request attribution); the kernels
  /// accumulate into these in place and takeAttribution moves them out.
  std::vector<RefAttribution> Attrib;
};

bool SweepPointStream::streamable(const std::vector<SweepPoint> &Points) {
  return std::none_of(Points.begin(), Points.end(), [](const SweepPoint &P) {
    return P.Policy == CachePolicy::MIN;
  });
}

SweepPointStream::SweepPointStream(
    std::vector<SweepPoint> Points,
    const std::vector<TraceEvent> *FullTrace, bool AllowStackFastPath)
    : P(std::make_unique<Impl>()) {
  P->Points = std::move(Points);
  const std::vector<SweepPoint> &Pts = P->Points;
  P->Attrib.resize(Pts.size());
  // Attribution pins a point to the per-event kernels: the positional
  // stack walk shares state across all sizes and cannot charge events
  // to references, so one attributing point demotes the whole batch.
  P->UseStack =
      AllowStackFastPath && !Pts.empty() &&
      std::all_of(Pts.begin(), Pts.end(), stackDistanceEligible) &&
      std::none_of(Pts.begin(), Pts.end(), [](const SweepPoint &Pt) {
        return Pt.wantsAttribution();
      });
  if (P->UseStack) {
    // One stack walk per hint view (the walk itself covers all sizes).
    for (size_t I = 0; I != Pts.size(); ++I)
      P->StackIdx[Pts[I].IgnoreHints ? 1 : 0].push_back(I);
    for (int View : {0, 1}) {
      if (P->StackIdx[View].empty())
        continue;
      std::vector<uint32_t> Sizes;
      Sizes.reserve(P->StackIdx[View].size());
      for (size_t I : P->StackIdx[View])
        Sizes.push_back(Pts[I].Config.NumLines);
      P->Stack[View] = std::make_unique<detail::StackDistanceStream>(
          std::move(Sizes), View == 1);
    }
    return;
  }
  // Partition into the specialized two-way LRU kernel and the general
  // replayer. The two groups each walk every chunk once; touching a
  // chunk twice is far cheaper than running every point through the
  // general per-event machinery.
  std::vector<SweepPoint> Fast, Slow;
  for (size_t I = 0; I != Pts.size(); ++I) {
    if (detail::lruTwoWayEligible(Pts[I])) {
      P->FastIdx.push_back(I);
      Fast.push_back(Pts[I]);
    } else {
      P->SlowIdx.push_back(I);
      Slow.push_back(Pts[I]);
    }
  }
  if (!Fast.empty())
    P->Fast = std::make_unique<detail::LRUTwoWayStream>(Fast);
  if (!Slow.empty())
    P->Slow =
        std::make_unique<detail::GenericMultiStream>(std::move(Slow), FullTrace);
  // Allocate each requesting point's table and hand its kernel a
  // pointer. Attrib was sized above and is never resized again, so the
  // element addresses stay valid for the stream's lifetime.
  for (size_t J = 0; J != P->FastIdx.size(); ++J) {
    const size_t I = P->FastIdx[J];
    if (Pts[I].wantsAttribution()) {
      P->Attrib[I] = RefAttribution(Pts[I].AttributionRefs);
      P->Fast->setAttribution(J, &P->Attrib[I]);
    }
  }
  for (size_t J = 0; J != P->SlowIdx.size(); ++J) {
    const size_t I = P->SlowIdx[J];
    if (Pts[I].wantsAttribution()) {
      P->Attrib[I] = RefAttribution(Pts[I].AttributionRefs);
      P->Slow->setAttribution(J, &P->Attrib[I]);
    }
  }
}

SweepPointStream::~SweepPointStream() = default;

void SweepPointStream::reserve(uint64_t ExpectedEvents) {
  for (int View : {0, 1})
    if (P->Stack[View])
      P->Stack[View]->reserve(ExpectedEvents);
}

void SweepPointStream::feed(const TraceEvent *Events, size_t Count) {
  if (Count == 0)
    return;
  for (int View : {0, 1})
    if (P->Stack[View])
      P->Stack[View]->feed(Events, Count);
  if (P->Fast)
    P->Fast->feed(Events, Count);
  if (P->Slow)
    P->Slow->feed(Events, Count);
}

std::vector<CacheStats> SweepPointStream::finish() {
  std::vector<CacheStats> Out(P->Points.size());
  for (int View : {0, 1}) {
    if (!P->Stack[View])
      continue;
    std::vector<CacheStats> Part = P->Stack[View]->finish();
    for (size_t I = 0; I != P->StackIdx[View].size(); ++I)
      Out[P->StackIdx[View][I]] = Part[I];
  }
  if (P->Fast) {
    std::vector<CacheStats> Part = P->Fast->finish();
    for (size_t I = 0; I != P->FastIdx.size(); ++I)
      Out[P->FastIdx[I]] = Part[I];
  }
  if (P->Slow) {
    std::vector<CacheStats> Part = P->Slow->finish();
    for (size_t I = 0; I != P->SlowIdx.size(); ++I)
      Out[P->SlowIdx[I]] = Part[I];
  }
  return Out;
}

RefAttribution SweepPointStream::takeAttribution(size_t PointIndex) {
  assert(PointIndex < P->Attrib.size() &&
         "sweep point index out of range");
  return std::move(P->Attrib[PointIndex]);
}

//===----------------------------------------------------------------------===//
// Batch wrappers: one chunk, then finish.
//===----------------------------------------------------------------------===//

std::vector<CacheStats>
urcm::replayTraceMulti(const std::vector<TraceEvent> &Trace,
                       const std::vector<SweepPoint> &Points) {
  SweepPointStream Stream(Points, &Trace, /*AllowStackFastPath=*/false);
  Stream.feed(Trace.data(), Trace.size());
  return Stream.finish();
}

bool urcm::stackDistanceEligible(const SweepPoint &Point) {
  return Point.Policy == CachePolicy::LRU &&
         Point.Config.Write == WritePolicy::WriteBack &&
         Point.Config.LineWords == 1 &&
         Point.Config.Assoc == Point.Config.NumLines &&
         Point.Config.NumLines > 0;
}

std::vector<CacheStats>
urcm::sweepLRUStackDistance(const std::vector<TraceEvent> &Trace,
                            const std::vector<uint32_t> &NumLines,
                            bool IgnoreHints) {
  detail::StackDistanceStream Stream(NumLines, IgnoreHints);
  Stream.reserve(Trace.size());
  Stream.feed(Trace.data(), Trace.size());
  return Stream.finish();
}

std::vector<CacheStats>
urcm::replaySweepPoints(const std::vector<TraceEvent> &Trace,
                        const std::vector<SweepPoint> &Points) {
  SweepPointStream Stream(Points, &Trace);
  Stream.reserve(Trace.size());
  Stream.feed(Trace.data(), Trace.size());
  return Stream.finish();
}

//===----------------------------------------------------------------------===//
// Point-parallel replay: one experiment's points split into groups, each
// group a plain sequential SweepPointStream on a pool thread.
//===----------------------------------------------------------------------===//

namespace {

/// Splits \p Points into at most \p MaxGroups replay groups (ascending
/// indexes into \p Points). Points that share one walk form an
/// indivisible unit: the stack-distance-eligible points of one hint view
/// (one Mattson walk answers all their sizes) and the MIN points of one
/// (line size, hint view) (one next-use precomputation). Every other
/// point is a unit of its own. Units go largest first to the group with
/// the fewest points — per-point replay costs are within about a
/// quarter of each other across policies, so point count is the load.
/// The grouping depends only on the points and the bound, never on
/// timing.
std::vector<std::vector<size_t>>
groupPoints(const std::vector<SweepPoint> &Points, size_t MaxGroups) {
  enum SharedWalk { StackWalk, MINWalk };
  std::vector<std::vector<size_t>> Units;
  std::map<std::tuple<SharedWalk, uint32_t, bool>, size_t> UnitOf;
  for (size_t I = 0; I != Points.size(); ++I) {
    const SweepPoint &P = Points[I];
    std::tuple<SharedWalk, uint32_t, bool> Key;
    if (stackDistanceEligible(P) && !P.wantsAttribution())
      Key = {StackWalk, 0, P.IgnoreHints};
    else if (P.Policy == CachePolicy::MIN)
      Key = {MINWalk, P.Config.LineWords, P.IgnoreHints};
    else {
      Units.push_back({I});
      continue;
    }
    auto [It, Inserted] = UnitOf.try_emplace(Key, Units.size());
    if (Inserted)
      Units.emplace_back();
    Units[It->second].push_back(I);
  }
  std::stable_sort(Units.begin(), Units.end(),
                   [](const std::vector<size_t> &A,
                      const std::vector<size_t> &B) {
                     return A.size() > B.size();
                   });
  std::vector<std::vector<size_t>> Groups(std::min(MaxGroups, Units.size()));
  for (const std::vector<size_t> &Unit : Units) {
    std::vector<size_t> &Lightest = *std::min_element(
        Groups.begin(), Groups.end(),
        [](const std::vector<size_t> &A, const std::vector<size_t> &B) {
          return A.size() < B.size();
        });
    Lightest.insert(Lightest.end(), Unit.begin(), Unit.end());
  }
  for (std::vector<size_t> &G : Groups)
    std::sort(G.begin(), G.end());
  return Groups;
}

/// One replay group: a sequential SweepPointStream over a subset of an
/// experiment's points. Whichever thread feeds the stream holds
/// Replaying; a replay error is parked in Error and rethrown by gather()
/// once every thread is done with the group.
struct ReplayGroup {
  std::vector<size_t> Members; ///< Indexes into the experiment's points.
  std::unique_ptr<SweepPointStream> Stream;
  std::vector<CacheStats> Stats; ///< finish() output, parallel to Members.
  uint64_t BusyNs = 0;           ///< Replay time (metered runs only).
  std::exception_ptr Error;

  // Streamed mode only (see StreamedReplay).
  std::mutex Replaying;
  /// The next chunk this group replays; written under Replaying.
  std::atomic<uint64_t> Next{0};
  /// Set when a thread starts the group's task: from then on the
  /// producer leaves the group's chunks to that thread and may wait on
  /// it.
  std::atomic<bool> Claimed{false};

  void feed(const TraceEvent *Events, size_t Count) {
    replay([&] { Stream->feed(Events, Count); });
  }
  void finish() {
    replay([&] { Stats = Stream->finish(); });
  }

private:
  /// Runs one step of the stream, metered; after a failure, later steps
  /// are skipped but the caller keeps consuming chunks so the window
  /// still drains.
  template <typename Step> void replay(Step &&Work) {
    if (Error)
      return;
    const uint64_t T0 = telemetry::enabled() ? telemetry::nowNanos() : 0;
    try {
      Work();
    } catch (...) {
      Error = std::current_exception();
    }
    if (T0)
      BusyNs += telemetry::nowNanos() - T0;
  }
};

using ReplayGroups = std::vector<std::unique_ptr<ReplayGroup>>;

/// One group per pool worker at most. \p FullTrace is the materialized
/// trace (MIN) or null; \p SizeHint pre-sizes the stack-distance walks.
ReplayGroups makeGroups(const std::vector<SweepPoint> &Points,
                        const ThreadPool &Pool,
                        const std::vector<TraceEvent> *FullTrace,
                        uint64_t SizeHint) {
  ReplayGroups Groups;
  for (std::vector<size_t> &Members : groupPoints(Points, Pool.size())) {
    auto G = std::make_unique<ReplayGroup>();
    std::vector<SweepPoint> Subset;
    Subset.reserve(Members.size());
    for (size_t I : Members)
      Subset.push_back(Points[I]);
    G->Members = std::move(Members);
    G->Stream = std::make_unique<SweepPointStream>(std::move(Subset),
                                                   FullTrace);
    if (SizeHint)
      G->Stream->reserve(SizeHint);
    Groups.push_back(std::move(G));
  }
  return Groups;
}

/// Scatters every group's counters and attribution tables back into the
/// order of \p Points and records the point-parallel telemetry. Rethrows
/// the first replay error.
std::vector<CacheStats> gather(ReplayGroups &Groups,
                               const std::vector<SweepPoint> &Points,
                               std::vector<RefAttribution> &Attrib) {
  for (const std::unique_ptr<ReplayGroup> &G : Groups)
    if (G->Error)
      std::rethrow_exception(G->Error);
  std::vector<CacheStats> Out(Points.size());
  Attrib.assign(Points.size(), RefAttribution());
  uint64_t TotalNs = 0, MaxNs = 0;
  for (const std::unique_ptr<ReplayGroup> &G : Groups) {
    for (size_t J = 0; J != G->Members.size(); ++J) {
      const size_t I = G->Members[J];
      Out[I] = G->Stats[J];
      if (Points[I].wantsAttribution())
        Attrib[I] = G->Stream->takeAttribution(J);
    }
    NumReplayWorkers.add();
    ReplayPointsPerWorker.record(G->Members.size());
    TotalNs += G->BusyNs;
    MaxNs = std::max(MaxNs, G->BusyNs);
  }
  SweepReplayNs.add(TotalNs);
  if (TotalNs)
    ReplayImbalance.record(MaxNs * Groups.size() * 100 / TotalNs);
  return Out;
}

/// Materialized-trace replay (the Belady MIN path): the groups fan out
/// with a nested parallelFor, each walking the whole trace.
std::vector<CacheStats>
replayMaterialized(const std::vector<TraceEvent> &Trace,
                   const std::vector<SweepPoint> &Points, ThreadPool &Pool,
                   std::vector<RefAttribution> &Attrib) {
  ReplayGroups Groups = makeGroups(Points, Pool, &Trace, Trace.size());
  Pool.parallelFor(Groups.size(), [&](size_t I) {
    Groups[I]->feed(Trace.data(), Trace.size());
    Groups[I]->finish();
  });
  return gather(Groups, Points, Attrib);
}

/// Point-parallel replay of a streamed trace. StreamedReplay is the
/// producer's TraceSink: chunk() hands each buffer, without a copy, to a
/// window of WindowChunks slots and returns the spent buffer of the slot
/// it reuses, so the steady state allocates nothing. A slot is read-only
/// while any group has yet to replay it. Each group is one pool task
/// replaying every chunk in order, so each point sees exactly the event
/// sequence of a sequential replay and its counters are bit-identical by
/// construction.
///
/// Deadlock freedom: the producer and the groups are the indexes of one
/// parallelFor, producer first. parallelFor hands indexes out in order,
/// so a group only ever waits on a running producer. The producer waits
/// only on claimed groups, which are running; the pending chunks of a
/// group no thread has claimed (every worker busy elsewhere) are replayed
/// by the producer itself, so a saturated pool degrades to sequential
/// replay on the producing thread.
class StreamedReplay : public TraceSink {
public:
  /// \p Writer, when non-null, records every chunk on the producing
  /// thread before it is published.
  StreamedReplay(ReplayGroups &Groups, TraceStoreWriter *Writer)
      : Groups(Groups), Writer(Writer) {}

  /// Runs \p Produce — which must hand every chunk, in order, to the
  /// sink it is given and return whether the stream completed —
  /// alongside the groups. Returns Produce's verdict.
  bool run(ThreadPool &Pool, const std::function<bool(TraceSink &)> &Produce) {
    bool Ok = false;
    Pool.parallelFor(Groups.size() + 1, [&](size_t I) {
      if (I != 0) {
        runGroup(*Groups[I - 1]);
        return;
      }
      // Close even if the producer throws, or the groups wait forever.
      struct Closer {
        StreamedReplay &R;
        ~Closer() { R.close(); }
      } Close{*this};
      Ok = Produce(*this);
    });
    NumTraceChunks.add(Sequence);
    NumTraceEvents.add(Events);
    NumProducerStalls.add(ProducerStalls);
    NumConsumerStalls.add(ConsumerStalls);
    NumInlineChunks.add(InlineChunks);
    return Ok;
  }

  /// Events streamed so far.
  uint64_t events() const { return Events; }

  std::vector<TraceEvent> chunk(std::vector<TraceEvent> Chunk) override {
    if (Writer)
      Writer->append(Chunk.data(), Chunk.size());
    Events += Chunk.size();
    Slot &S = Window[Sequence % WindowChunks];
    if (Sequence >= WindowChunks)
      reclaim(S, Sequence - WindowChunks);
    // The slot's spent buffer goes back to the producer for the next
    // chunk.
    S.Events.swap(Chunk);
    Chunk.clear();
    {
      std::lock_guard<std::mutex> Lock(M);
      S.Readers = Groups.size();
      Published = ++Sequence;
    }
    PublishedCV.notify_all();
    return Chunk;
  }

private:
  /// Slots in the window. With the chunk being filled, an experiment
  /// holds at most WindowChunks + 1 chunk buffers. Three measured the
  /// same report wall time and peak RSS as two with under a third of
  /// the producer stalls (DESIGN.md §13).
  static constexpr size_t WindowChunks = 3;

  struct Slot {
    std::vector<TraceEvent> Events;
    size_t Readers = 0; ///< Groups yet to replay it; guarded by M.
  };

  /// Waits until slot \p S, holding chunk \p OldSeq, has been replayed
  /// by every group, first replaying it here for each unclaimed group.
  void reclaim(Slot &S, uint64_t OldSeq) {
    for (std::unique_ptr<ReplayGroup> &G : Groups) {
      if (G->Next.load() > OldSeq || G->Claimed.load())
        continue;
      std::lock_guard<std::mutex> Run(G->Replaying);
      InlineChunks += drain(*G);
    }
    std::unique_lock<std::mutex> Lock(M);
    if (S.Readers != 0) {
      ++ProducerStalls;
      FreedCV.wait(Lock, [&] { return S.Readers == 0; });
    }
  }

  void close() {
    {
      std::lock_guard<std::mutex> Lock(M);
      Closed = true;
    }
    PublishedCV.notify_all();
  }

  void runGroup(ReplayGroup &G) {
    G.Claimed.store(true);
    for (;;) {
      {
        std::unique_lock<std::mutex> Lock(M);
        auto Ready = [&] { return Closed || G.Next.load() < Published; };
        if (!Ready()) {
          ++ConsumerStalls;
          PublishedCV.wait(Lock, Ready);
        }
        if (G.Next.load() >= Published)
          break; // Closed, and every chunk replayed.
      }
      std::lock_guard<std::mutex> Run(G.Replaying);
      drain(G);
    }
    std::lock_guard<std::mutex> Run(G.Replaying);
    G.finish();
  }

  /// Replays every published chunk \p G has not seen; the caller holds
  /// G.Replaying. Returns the number of chunks replayed.
  size_t drain(ReplayGroup &G) {
    uint64_t Avail;
    {
      std::lock_guard<std::mutex> Lock(M);
      Avail = Published;
    }
    size_t Fed = 0;
    for (uint64_t Seq = G.Next.load(); Seq < Avail; ++Seq, ++Fed) {
      Slot &S = Window[Seq % WindowChunks];
      G.feed(S.Events.data(), S.Events.size());
      G.Next.store(Seq + 1);
      bool Freed;
      {
        std::lock_guard<std::mutex> Lock(M);
        Freed = --S.Readers == 0;
        Avail = Published;
      }
      if (Freed)
        FreedCV.notify_one();
    }
    return Fed;
  }

  ReplayGroups &Groups;
  TraceStoreWriter *Writer;
  /// Producer-only: chunks and events published so far, waits for a
  /// slot, and chunks it replayed for unclaimed groups.
  uint64_t Sequence = 0;
  uint64_t Events = 0;
  uint64_t ProducerStalls = 0;
  uint64_t InlineChunks = 0;
  std::mutex M;
  std::condition_variable PublishedCV; ///< Groups wait for chunks here.
  std::condition_variable FreedCV;     ///< The producer waits for slots.
  Slot Window[WindowChunks];           ///< Readers guarded by M.
  uint64_t Published = 0;              ///< Guarded by M.
  uint64_t ConsumerStalls = 0;         ///< Guarded by M.
  bool Closed = false;                 ///< Guarded by M.
};

/// Streamed replay of \p Points: \p Produce runs the chunk producer (live
/// simulation or store decode) into the sink it is given and returns
/// whether the stream completed; \p Writer, when non-null, records the
/// stream. Sets \p Events to the events streamed. On success fills
/// \p Stats and \p Attrib in point order; on failure the replay state
/// saw at most a prefix of the trace and is discarded.
bool replayStreamed(const std::vector<SweepPoint> &Points, ThreadPool &Pool,
                    uint64_t SizeHint, TraceStoreWriter *Writer,
                    const std::function<bool(TraceSink &)> &Produce,
                    uint64_t &Events, std::vector<CacheStats> &Stats,
                    std::vector<RefAttribution> &Attrib) {
  ReplayGroups Groups = makeGroups(Points, Pool, nullptr, SizeHint);
  StreamedReplay Replay(Groups, Writer);
  const bool Ok = Replay.run(Pool, Produce);
  Events = Replay.events();
  if (!Ok)
    return false;
  Stats = gather(Groups, Points, Attrib);
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// SweepEngine
//===----------------------------------------------------------------------===//

SweepEngine &SweepEngine::global() {
  static SweepEngine Engine;
  return Engine;
}

void SweepEngine::schedule(const std::string &Key,
                           const std::string &HintGroup,
                           const SimConfig &Base,
                           std::vector<SweepPoint> Points, Producer Run,
                           uint64_t ContentHash) {
  std::lock_guard<std::mutex> Lock(M);
  auto [It, Inserted] = Experiments.try_emplace(Key);
  if (!Inserted) {
    NumSweepMemoHits.add();
    return;
  }
  Experiment &E = It->second;
  E.HintGroup = HintGroup;
  E.Base = Base;
  E.Points = std::move(Points);
  E.Run = std::move(Run);
  E.ContentHash = ContentHash;
}

void SweepEngine::forwardStoreDiags(const DiagnosticEngine &Local) {
  if (!StoreDiags || Local.diagnostics().empty())
    return;
  std::lock_guard<std::mutex> Lock(M);
  for (const Diagnostic &D : Local.diagnostics())
    StoreDiags->report(D.Severity, D.Loc, D.Message);
}

uint64_t SweepEngine::sizeHint(const std::string &HintGroup) const {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Hints.find(HintGroup);
  return It == Hints.end() ? 0 : It->second;
}

bool SweepEngine::serveFromStore(Experiment &E,
                                 const std::vector<SweepPoint> &Rest,
                                 uint64_t &TraceEvents,
                                 std::vector<CacheStats> &Replayed,
                                 std::vector<RefAttribution> &ReplayedAttrib) {
  DiagnosticEngine OpenDiags;
  TraceStoreReader Reader;
  const std::string Path = traceStorePath(StoreDir, E.ContentHash);
  const TraceStoreReader::OpenStatus Status =
      Reader.open(Path, E.ContentHash, OpenDiags);
  forwardStoreDiags(OpenDiags);
  if (Status != TraceStoreReader::OpenStatus::Ok)
    return false;

  // Warm hit: every replay point is fed from decoded chunks — the
  // Simulator is never invoked (no sim.run span on this path; asserted
  // by tests and check.sh). The store's content hash deliberately
  // ignores the data-cache policy and seed (the recorded trace is
  // policy-independent, so one stored trace serves the whole policy
  // grid), which means the stored summary's cache counters may have
  // been recorded under a different policy than this experiment's base
  // configuration. A synthetic point at the base configuration rides
  // the replay set and its counters overwrite the stored ones below.
  telemetry::ScopedPhase Serve("sweep.store-serve");
  SweepPoint BasePt;
  BasePt.Config = E.Base.Cache;
  BasePt.Policy = E.Base.Cache.Policy;
  std::vector<SweepPoint> Work = Rest;
  Work.push_back(BasePt);
  bool Ok = true;
  if (SweepPointStream::streamable(Work)) {
    // Same shape as the live streaming path, with decode in place of
    // simulation: peak memory O(chunk).
    uint64_t Decoded = 0;
    Ok = replayStreamed(
        Work, *Pool, Reader.eventCount(), /*Writer=*/nullptr,
        [&](TraceSink &Sink) {
          std::vector<TraceEvent> Chunk;
          while (Reader.next(Chunk))
            if (!Chunk.empty())
              Chunk = Sink.chunk(std::move(Chunk));
          return !Reader.failed();
        },
        Decoded, Replayed, ReplayedAttrib);
  } else {
    // Belady MIN: materialize the decoded trace for its backward
    // next-use pass, exactly as the live path materializes its own.
    std::vector<TraceEvent> Trace;
    Ok = Reader.readAll(Trace);
    if (Ok) {
      telemetry::ScopedPhase Replay("sweep.replay");
      Replayed = replayMaterialized(Trace, Work, *Pool, ReplayedAttrib);
      NumSweepBytesFreed.add(Trace.capacity() * sizeof(TraceEvent));
    }
  }
  if (!Ok) {
    // Decode failed after a fully-validated open: the file changed
    // under us. The replay consumers saw a prefix, so their state is
    // unusable — report, discard, and let the caller run live.
    DiagnosticEngine Local;
    Local.error({}, "trace store: decode failed mid-stream for '" + Path +
                        "'; falling back to live simulation");
    forwardStoreDiags(Local);
    Replayed.clear();
    ReplayedAttrib.clear();
    return false;
  }
  E.Result = Reader.summary();
  // The trailing synthetic point carries the base configuration's true
  // counters; the stored summary keeps everything that really is
  // policy-invariant (ICache stats, occupancy, instruction counts).
  E.Result.Cache = Replayed.back();
  Replayed.pop_back();
  ReplayedAttrib.resize(Rest.size());
  TraceEvents = Reader.eventCount();
  return true;
}

void SweepEngine::run() {
  // Snapshot the pending set; schedule() must not be called while run()
  // is in flight.
  std::vector<Experiment *> Pending;
  {
    std::lock_guard<std::mutex> Lock(M);
    for (auto &[Key, E] : Experiments)
      if (!E.Done)
        Pending.push_back(&E);
  }

  Pool->parallelFor(Pending.size(), [&](size_t I) {
    Experiment &E = *Pending[I];
    telemetry::ScopedPhase ExpPhase("sweep.experiment");
    NumSweepExperiments.add();
    SimConfig Config = E.Base;

    // A point matching the base run's own cache configuration reuses
    // the base counters (replay is bit-identical, so this is pure
    // reuse); everything else replays. The partition depends only on
    // configurations, so it is computed up front and shared by both
    // trace modes. Attribution requests force a point into the replay
    // set — the base run carries no table to reuse.
    std::vector<SweepPoint> Rest;
    std::vector<size_t> RestIndex, ReusedIndex;
    for (size_t P = 0; P != E.Points.size(); ++P) {
      const SweepPoint &Pt = E.Points[P];
      countPolicyPoint(Pt.Policy);
      if (!Pt.IgnoreHints && !Pt.wantsAttribution() &&
          Pt.Config == Config.Cache && Pt.Policy == Config.Cache.Policy) {
        ReusedIndex.push_back(P);
      } else {
        Rest.push_back(Pt);
        RestIndex.push_back(P);
      }
    }

    uint64_t TraceEvents = 0;
    std::vector<CacheStats> Replayed;
    std::vector<RefAttribution> ReplayedAttrib;
    const bool StoreEnabled = !StoreDir.empty() && E.ContentHash != 0;
    const bool Served =
        StoreEnabled &&
        serveFromStore(E, Rest, TraceEvents, Replayed, ReplayedAttrib);

    // On a store miss the live run tees its trace into a writer so the
    // next process (or a rerun) is served warm. The writer observes; it
    // can never fail the experiment (open failure leaves it closed and
    // every call below a no-op).
    TraceStoreWriter Writer;
    if (!Served && StoreEnabled) {
      DiagnosticEngine WriterDiags;
      Writer.open(StoreDir, E.ContentHash, WriterDiags);
      forwardStoreDiags(WriterDiags);
    }

    if (Served) {
      // Nothing to simulate: base result and points came from the store.
    } else if (Rest.empty() && !Writer.isOpen()) {
      E.Result = E.Run(Config); // No replay consumers, nothing to record.
    } else if (SweepPointStream::streamable(Rest)) {
      // Streaming mode: replay overlaps generation chunk by chunk and
      // the trace is never materialized — peak trace memory drops from
      // O(trace) to O(chunk), which is what lets the sweep methodology
      // scale to much larger workloads. The span covers the whole
      // pipeline; SweepReplayNs meters the replay kernels alone. With no
      // points left the same sink, with zero groups, only records.
      telemetry::ScopedPhase Replay("sweep.replay", "streaming");
      // Recording rides the simulating thread: the writer sees each
      // chunk before it is published for replay, so a store miss costs
      // one encode pass overlapped with replay, not an extra trace walk.
      replayStreamed(
          Rest, *Pool, sizeHint(E.HintGroup),
          Writer.isOpen() ? &Writer : nullptr,
          [&](TraceSink &Sink) {
            Config.Sink = &Sink;
            E.Result = E.Run(Config);
            return E.Result.ok();
          },
          TraceEvents, Replayed, ReplayedAttrib);
    } else {
      // Belady MIN needs the whole trace (backward next-use pass):
      // materialize it, replay, and drop it before the next experiment.
      Config.RecordTrace = true;
      Config.TraceSizeHint = sizeHint(E.HintGroup);
      E.Result = E.Run(Config);
      if (E.Result.ok()) {
        TraceEvents = E.Result.Trace.size();
        if (Writer.isOpen())
          Writer.append(E.Result.Trace.data(), E.Result.Trace.size());
        telemetry::ScopedPhase Replay("sweep.replay");
        Replayed =
            replayMaterialized(E.Result.Trace, Rest, *Pool, ReplayedAttrib);
      }
      NumSweepBytesFreed.add(E.Result.Trace.capacity() *
                             sizeof(TraceEvent));
      E.Result.Trace.clear();
      E.Result.Trace.shrink_to_fit();
    }

    if (Writer.isOpen()) {
      if (E.Result.ok()) {
        DiagnosticEngine CommitDiags;
        Writer.commit(E.Result, CommitDiags);
        forwardStoreDiags(CommitDiags);
      } else {
        Writer.discard(); // Never publish a failed run's trace.
      }
    }

    if (E.Result.ok()) {
      {
        std::lock_guard<std::mutex> Lock(M);
        uint64_t &Hint = Hints[E.HintGroup];
        Hint = std::max<uint64_t>(Hint, TraceEvents);
      }
      NumSweepTraceEvents.add(TraceEvents);
      NumSweepPointsReused.add(ReusedIndex.size());
      NumSweepPointsReplayed.add(RestIndex.size());
      E.Stats.resize(E.Points.size());
      for (size_t P : ReusedIndex)
        E.Stats[P] = E.Result.Cache;
      E.Attrib.resize(E.Points.size());
      for (size_t R = 0; R != RestIndex.size(); ++R) {
        E.Stats[RestIndex[R]] = Replayed[R];
        E.Attrib[RestIndex[R]] = std::move(ReplayedAttrib[R]);
      }
    }
    std::lock_guard<std::mutex> Lock(M);
    E.Done = true;
  });
}

const SweepEngine::Experiment &
SweepEngine::finished(const std::string &Key) const {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Experiments.find(Key);
  assert(It != Experiments.end() && It->second.Done &&
         "experiment was not scheduled/run");
  return It->second;
}

bool SweepEngine::done(const std::string &Key) const {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Experiments.find(Key);
  return It != Experiments.end() && It->second.Done;
}

const SimResult &SweepEngine::base(const std::string &Key) const {
  return finished(Key).Result;
}

const CacheStats &SweepEngine::point(const std::string &Key,
                                     size_t Index) const {
  const Experiment &E = finished(Key);
  assert(Index < E.Stats.size() && "sweep point index out of range");
  return E.Stats[Index];
}

const RefAttribution &SweepEngine::attribution(const std::string &Key,
                                               size_t Index) const {
  const Experiment &E = finished(Key);
  assert(Index < E.Attrib.size() && "sweep point index out of range");
  assert(E.Points[Index].wantsAttribution() &&
         "point did not request attribution (set "
         "SweepPoint::AttributionRefs)");
  return E.Attrib[Index];
}
