//===- urcm/sim/SweepEngine.h - Compile-once/replay-many sweeps -*- C++ -*-===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sweep engine that powers the paper-reproduction experiment grids
/// (cache-size sweep E10, replacement policies E8, line-size sweep E9,
/// the urcm_report tool). A sweep evaluates one workload at many cache
/// geometries/policies; the recorded data-reference trace of a program
/// is independent of cache geometry (the cache is an observer — control
/// flow never consults it), so the engine runs the expensive functional
/// Simulator exactly once per compiled program and serves every sweep
/// point from cheap stats-only replay. Three layers:
///
///  1. compile-once/replay-many: SweepEngine memoizes one traced base
///     run per experiment key and frees each trace as soon as its sweep
///     points are served (traces run to hundreds of MB);
///  2. single-pass multi-configuration replay: replayTraceMulti walks
///     the trace once and advances every requested configuration in
///     lock-step; sweepLRUStackDistance is a Mattson-style stack-
///     distance pass that produces exact LRU counters for *every*
///     fully-associative size in one walk, extended with hole-based
///     bookkeeping so the paper's bypass and last-reference (dead-tag)
///     hints remain exact (a freed line leaves a "hole" at its stack
///     depth, which encodes precisely the set of capacities that
///     gained a free slot);
///  3. a thread pool (urcm/support/ThreadPool.h) runs independent
///     experiments concurrently, and spreads each experiment's points
///     across it: the points split into groups, each a sequential
///     SweepPointStream on one pool thread reading every trace chunk the
///     experiment's single producer publishes (point-parallel replay,
///     DESIGN.md §13).
///
/// Replay counters are bit-identical to the live cache's (asserted
/// by tests/sweepengine_test.cpp), so exhibits that moved from
/// re-simulation to replay print unchanged numbers.
///
//===----------------------------------------------------------------------===//

#ifndef URCM_SIM_SWEEPENGINE_H
#define URCM_SIM_SWEEPENGINE_H

#include "urcm/sim/RefAttribution.h"
#include "urcm/sim/CacheModel.h"
#include "urcm/support/ThreadPool.h"

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace urcm {

class DiagnosticEngine;

/// One sweep point: a cache geometry plus the replacement policy to
/// replay it under — any CachePolicy, including the replay-only MIN
/// and LivenessBypass (urcm/sim/CachePolicy.h).
///
/// IgnoreHints replays the point with every bypass/last-reference hint
/// bit cleared — the conventional scheme's view of the same reference
/// stream. The unified-management pass only flips hint bits on an
/// otherwise identical instruction stream (see fig5_traffic_reduction),
/// so a hint-stripped replay of a unified-scheme trace equals a run of
/// the conventionally-compiled program: one traced simulation serves
/// both schemes.
struct SweepPoint {
  CacheConfig Config;
  CachePolicy Policy = CachePolicy::LRU;
  bool IgnoreHints = false;
  /// Non-zero requests per-static-reference attribution
  /// (urcm/sim/RefAttribution.h) for this point; the value is the
  /// program's static reference count (MachineProgram::RefTable.size()),
  /// which sizes the table. Attribution pins the point to the
  /// per-event replay kernels — the stack-distance fast path answers
  /// many capacities from shared positional state and cannot attribute
  /// — and disables the engine's base-counter reuse, so it costs replay
  /// time; zero (the default) keeps every fast path.
  uint32_t AttributionRefs = 0;

  bool wantsAttribution() const { return AttributionRefs != 0; }
};

/// Walks \p Trace once and replays every point in lock-step. Counters
/// are identical to calling replayTrace per point (each point's state is
/// independent); the single pass touches the big trace once instead of
/// Points.size() times. MIN points sharing a line size share one
/// next-use precomputation.
std::vector<CacheStats>
replayTraceMulti(const std::vector<TraceEvent> &Trace,
                 const std::vector<SweepPoint> &Points);

/// True if \p Point can be served by the stack-distance fast path:
/// fully-associative LRU, write-back, one-word lines (the paper's
/// preferred line size).
bool stackDistanceEligible(const SweepPoint &Point);

/// Exact one-pass Mattson sweep: returns, for each entry of
/// \p NumLines, the counters of a fully-associative LRU write-back
/// cache with that many one-word lines — byte-identical to
/// replayTrace on the same geometry. Bypass and last-reference hints
/// are honoured exactly via hole-based stack bookkeeping; with
/// \p IgnoreHints they are stripped instead (every event is a plain
/// through-cache access).
std::vector<CacheStats>
sweepLRUStackDistance(const std::vector<TraceEvent> &Trace,
                      const std::vector<uint32_t> &NumLines,
                      bool IgnoreHints = false);

/// Replays \p Points from \p Trace, dispatching to the stack-distance
/// fast path when every point is eligible and to the lock-step
/// multi-replay otherwise. Results are identical either way.
std::vector<CacheStats>
replaySweepPoints(const std::vector<TraceEvent> &Trace,
                  const std::vector<SweepPoint> &Points);

/// Chunk-driven replay of a set of sweep points: the streaming form of
/// replaySweepPoints, advanced one trace chunk at a time so replay can
/// start before generation finishes (SweepEngine feeds it from the
/// simulator's TraceSink).
/// Feeding the whole trace as one chunk is exactly the batch call — the
/// batch entry points are wrappers over this class, so the two modes
/// cannot diverge. Internally dispatches to the same kernels: the
/// hole-extended Mattson stack-distance sweep when every point is
/// eligible (unless \p AllowStackFastPath is false, which pins the
/// lock-step kernel — that is replayTraceMulti's contract), else the
/// lock-step walk over one cache model per point.
class SweepPointStream {
public:
  /// True when every point replays in one forward pass. Belady MIN
  /// points do not: their next-use precomputation reads the whole trace
  /// backwards, so they require batch mode (\p FullTrace).
  static bool streamable(const std::vector<SweepPoint> &Points);

  /// \p FullTrace must be non-null when any point uses CachePolicy::MIN
  /// and is ignored otherwise.
  explicit SweepPointStream(std::vector<SweepPoint> Points,
                            const std::vector<TraceEvent> *FullTrace =
                                nullptr,
                            bool AllowStackFastPath = true);
  SweepPointStream(const SweepPointStream &) = delete;
  SweepPointStream &operator=(const SweepPointStream &) = delete;
  ~SweepPointStream();

  /// Pre-sizes internal structures for an expected total event count (a
  /// pure allocation hint the batch wrappers use; streaming callers,
  /// who do not know the trace length, simply grow on demand).
  void reserve(uint64_t ExpectedEvents);

  /// Advances every point over the next \p Count trace events.
  void feed(const TraceEvent *Events, size_t Count);

  /// End of trace: final flush accounting. Call exactly once; counters
  /// are returned in the order of the constructor's Points.
  std::vector<CacheStats> finish();

  /// Moves out the attribution table of the point at \p PointIndex
  /// (empty unless that point set SweepPoint::AttributionRefs). Call
  /// after finish(), at most once per point.
  RefAttribution takeAttribution(size_t PointIndex);

private:
  struct Impl;
  std::unique_ptr<Impl> P;
};

/// Memoizing, parallel front-end: each *experiment* is one traced
/// functional run (the producer closure compiles and simulates — the
/// engine itself is compiler-agnostic) plus the sweep points replayed
/// from its trace. Experiments are keyed by caller-chosen strings
/// (callers key on config *contents*); scheduling the same key twice is
/// idempotent. run() executes pending experiments across the thread
/// pool, replays each experiment's points in parallel groups on the same
/// pool, and frees each trace once its points are served. Counters and
/// attribution tables are bit-identical to replaySweepPoints for every
/// pool width: each point is replayed exactly as it is sequentially.
class SweepEngine {
public:
  /// Runs the functional simulator for this experiment's program under
  /// \p Config (the engine sets the trace Sink, or RecordTrace and the
  /// trace reserve hint, before calling), on a pool thread. Must be
  /// thread-safe across distinct experiments.
  using Producer = std::function<SimResult(const SimConfig &)>;

  /// \p Pool null uses ThreadPool::global().
  explicit SweepEngine(ThreadPool *Pool = nullptr)
      : Pool(Pool ? Pool : &ThreadPool::global()) {}

  /// The process-wide engine over the global pool.
  static SweepEngine &global();

  /// Schedules one experiment. \p HintGroup names a family of runs with
  /// similar trace lengths (e.g. the workload name): the first run in a
  /// group sizes later runs' trace reservations. Re-scheduling an
  /// existing \p Key is a no-op (the points must match).
  ///
  /// \p ContentHash is the experiment's traceContentHash
  /// (urcm/sim/TraceStore.h) — the fingerprint of the compiled program
  /// plus simulation inputs that keys its trace in the persistent
  /// store. Zero (the default) opts this experiment out of the store
  /// even when a store directory is configured (callers that cannot
  /// hash — e.g. the producer compiles lazily — simply never touch it).
  void schedule(const std::string &Key, const std::string &HintGroup,
                const SimConfig &Base, std::vector<SweepPoint> Points,
                Producer Run, uint64_t ContentHash = 0);

  /// Runs every pending experiment (parallel across experiments) and
  /// returns when all are done. Base runs that fail (as reported by
  /// SimResult::ok) are kept with their error; point stats for a failed
  /// base are empty.
  void run();

  /// Enables the persistent trace store (urcm/sim/TraceStore.h) under
  /// \p Dir — empty disables (the default). With a store configured,
  /// every experiment scheduled with a non-zero content hash first
  /// consults `<Dir>/<hash>.urctrc`: on a hit the whole experiment is
  /// served by decoding the stored trace into the replay pipeline (the
  /// Simulator is never invoked — the base result comes from the stored
  /// summary); on a miss the live run tees its trace into the store for
  /// the next process. Store problems (unwritable dir, corrupt or stale
  /// files) are reported to \p Diags (when non-null; rejected files
  /// surface as errors, see TraceStoreReader) and the experiment falls
  /// back to live simulation — the store can slow an experiment down,
  /// never fail it. Set before run(); \p Diags must outlive run().
  void setTraceStore(std::string Dir, DiagnosticEngine *Diags = nullptr) {
    StoreDir = std::move(Dir);
    StoreDiags = Diags;
  }
  const std::string &traceStoreDir() const { return StoreDir; }

  bool done(const std::string &Key) const;

  /// The base functional run (trace dropped). Valid after run().
  const SimResult &base(const std::string &Key) const;

  /// The replayed counters of point \p Index. When a point's geometry
  /// and policy equal the base run's cache configuration, the base
  /// run's own counters are returned (replay is bit-identical, so this
  /// is pure reuse). Valid after run().
  const CacheStats &point(const std::string &Key, size_t Index) const;

  /// The per-reference attribution of point \p Index, which must have
  /// been scheduled with SweepPoint::AttributionRefs non-zero.
  /// Bit-identical across pool widths and store modes (the attribution
  /// counterpart of the CacheStats merge invariant). Valid after run().
  const RefAttribution &attribution(const std::string &Key,
                                    size_t Index) const;

private:
  struct Experiment {
    std::string HintGroup;
    SimConfig Base;
    std::vector<SweepPoint> Points;
    Producer Run;
    uint64_t ContentHash = 0;
    SimResult Result;
    std::vector<CacheStats> Stats;
    /// Parallel to Points; non-empty rows only where AttributionRefs.
    std::vector<RefAttribution> Attrib;
    bool Done = false;
  };

  const Experiment &finished(const std::string &Key) const;

  /// Serves \p E entirely from the trace store. True on success; false
  /// (missing/rejected file, decode failure) means run the live path.
  /// \p ReplayedAttrib receives attribution tables parallel to \p Rest
  /// (empty rows for points that did not request attribution).
  bool serveFromStore(Experiment &E, const std::vector<SweepPoint> &Rest,
                      uint64_t &TraceEvents,
                      std::vector<CacheStats> &Replayed,
                      std::vector<RefAttribution> &ReplayedAttrib);

  /// The trace reserve hint of \p HintGroup (0 before its first run).
  uint64_t sizeHint(const std::string &HintGroup) const;

  /// Forwards diagnostics collected during store I/O to the configured
  /// sink under the engine lock (experiments run in parallel).
  void forwardStoreDiags(const DiagnosticEngine &Local);

  ThreadPool *Pool;
  std::string StoreDir;
  DiagnosticEngine *StoreDiags = nullptr;
  mutable std::mutex M;
  std::map<std::string, Experiment> Experiments;
  /// Largest trace length seen per hint group (reserve hint source).
  std::map<std::string, uint64_t> Hints;
};

} // namespace urcm

#endif // URCM_SIM_SWEEPENGINE_H
