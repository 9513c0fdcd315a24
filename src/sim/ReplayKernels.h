//===- sim/ReplayKernels.h - Shared trace-replay kernels --------*- C++ -*-===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The chunk-fed replay kernels shared by the sequential sweep stream
/// (SweepEngine.cpp) and the set-sharded replay engine
/// (ShardedReplay.cpp). Internal to src/sim — the public surface is
/// urcm/sim/SweepEngine.h and urcm/sim/ShardedReplay.h.
///
/// Every kernel is a stream — construct, feed(events), finish() — so
/// the streaming pipeline and the materialized-trace path execute the
/// same per-event code and cannot diverge. There are two: the lock-step
/// walk over one CacheModel per point (GenericMultiStream), whose models
/// each run at their own compile-time shape, and the stack-distance
/// sweep.
///
/// GenericMultiStream takes an optional shard divisor: built with
/// ShardDiv = N > 1 it replays a *set shard*, the subsequence of the
/// trace whose events map to cache sets congruent to one residue mod N.
/// Set-associative state is strictly per-set (lookup, victim choice,
/// recency all stay inside one set), so replaying each residue class
/// independently and summing the counters is bit-identical to the
/// sequential replay; the models compact the sets they own into
/// localSet = globalSet / N so a shard allocates 1/N of the tag state.
/// The stack-distance kernel needs no shard form — it models
/// fully-associative caches (one set), which shard across *capacities*
/// instead: each shard instance sweeps a slice of the size list over the
/// full trace.
///
/// See SweepEngine.cpp's file comment for the hole-extended Mattson
/// algorithm implemented by StackDistanceStream.
///
//===----------------------------------------------------------------------===//

#ifndef URCM_SIM_REPLAYKERNELS_H
#define URCM_SIM_REPLAYKERNELS_H

#include "urcm/sim/SweepEngine.h"
#include "urcm/sim/CacheModel.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

namespace urcm {
namespace detail {

/// computeNextLineUses for an IgnoreHints replay: bypassed events count
/// as through-cache accesses there, so the next-use index must include
/// them.
inline std::shared_ptr<const std::vector<uint64_t>>
computeNextLineUsesUnhinted(const std::vector<TraceEvent> &Trace,
                            uint32_t LineWords) {
  CacheConfig Geo;
  Geo.LineWords = LineWords;
  CacheGeometry G(Geo);
  auto Next = std::make_shared<std::vector<uint64_t>>(
      Trace.size(), std::numeric_limits<uint64_t>::max());
  std::unordered_map<uint64_t, uint64_t> NextOfLine;
  for (uint64_t Index = Trace.size(); Index-- > 0;) {
    uint64_t LA = G.lineAddr(Trace[Index].Addr);
    auto It = NextOfLine.find(LA);
    if (It != NextOfLine.end())
      (*Next)[Index] = It->second;
    NextOfLine[LA] = Index;
  }
  return Next;
}

/// True if \p P can be replayed as independent set shards: replacement
/// state must be strictly set-local. LRU and FIFO qualify (their ticks
/// only order events *within* a set, and a shard feeds each of its sets
/// the same relative event order as the full trace), as do TreePLRU
/// (per-set tree bits) and SRRIP (per-line RRPVs aged per set). Random
/// does not — every miss anywhere consumes the next value of one shared
/// RNG sequence, so victim choice depends on the global interleaving of
/// sets. MIN does not either: its next-use lookups are indexed by
/// global trace position, which a shard subsequence loses. Neither does
/// LivenessBypass: its predictor table is global across sets.
inline bool setShardEligible(const SweepPoint &P) {
  return cachePolicySetShardEligible(P.Policy);
}

/// The lock-step walk: one CacheModel per point, each at its own
/// compile-time shape, advanced a chunk at a time (a running event index
/// supplies MIN's future-knowledge lookups, so batch callers that feed
/// the whole trace as one chunk see the original indexes). An
/// IgnoreHints point's model clears the hints itself.
///
/// \p ShardDiv > 1 builds every model in set-shard mode (see
/// CacheModel); MIN, Random and LivenessBypass points are not
/// shard-eligible (setShardEligible) and must not appear then.
class GenericMultiStream {
  std::vector<CacheModel> Replayers;
  uint64_t RunningIndex = 0;

public:
  /// \p FullTrace is required when any point uses CachePolicy::MIN.
  GenericMultiStream(const std::vector<SweepPoint> &Points,
                     const std::vector<TraceEvent> *FullTrace,
                     uint32_t ShardDiv = 1) {
    // MIN points with the same line size and hint view share one
    // next-use index.
    std::map<std::pair<uint32_t, bool>,
             std::shared_ptr<const std::vector<uint64_t>>>
        NextUses;
    Replayers.reserve(Points.size());
    for (const SweepPoint &P : Points) {
      std::shared_ptr<const std::vector<uint64_t>> Next;
      if (P.Policy == CachePolicy::MIN) {
        assert(FullTrace && "MIN points require the materialized trace");
        auto &Slot = NextUses[{P.Config.LineWords, P.IgnoreHints}];
        if (!Slot)
          Slot = P.IgnoreHints ? computeNextLineUsesUnhinted(
                                     *FullTrace, P.Config.LineWords)
                               : computeNextLineUses(*FullTrace,
                                                     P.Config.LineWords);
        Next = Slot;
      }
      Replayers.emplace_back(P.Config, P.Policy, std::move(Next),
                             ShardDiv);
      Replayers.back().setIgnoreHints(P.IgnoreHints);
    }
  }

  /// Routes attribution for the point at \p PointIdx into \p A. Hint
  /// stripping leaves RefIds in place, so IgnoreHints points attribute
  /// too (hinted and stripped compilations number their references
  /// identically; see MachineProgram::RefTable).
  void setAttribution(size_t PointIdx, RefAttribution *A) {
    Replayers[PointIdx].setAttribution(A);
  }

  void feed(const TraceEvent *Events, size_t Count) {
    // Configuration-major: each replayer streams the whole chunk before
    // the next starts, keeping its cache state hot. The replayers are
    // mutually independent, so the counters equal per-point replayTrace
    // calls.
    const uint64_t Base = RunningIndex;
    RunningIndex += Count;
    for (CacheModel &R : Replayers)
      R.feed(Events, Count, Base);
  }

  std::vector<CacheStats> finish() {
    std::vector<CacheStats> Out;
    Out.reserve(Replayers.size());
    for (CacheModel &R : Replayers)
      Out.push_back(R.finish());
    return Out;
  }
};

constexpr uint64_t StackNever = std::numeric_limits<uint64_t>::max();

/// Fenwick tree of 0/1 flags over a growable 1-based position domain.
/// ensure() extends the domain geometrically, preserving the set flags
/// (an O(domain) rebuild per doubling — amortized constant per
/// position, and zero rebuilds when the final domain is reserved up
/// front, as the batch wrappers do).
class BitTree {
public:
  uint64_t total() const { return Total; }

  /// Grows the domain so position \p N is addressable.
  void ensure(uint64_t N) {
    if (N < Tree.size())
      return;
    uint64_t NewDomain =
        std::max<uint64_t>(N, Tree.empty() ? 64 : 2 * (Tree.size() - 1));
    Flags.resize(NewDomain + 1, 0);
    Tree.assign(NewDomain + 1, 0);
    LogN = 0;
    while ((uint64_t(1) << (LogN + 1)) <= NewDomain)
      ++LogN;
    // Linear Fenwick rebuild: by the time position I propagates to its
    // parent, every child range of I has already folded into Tree[I].
    for (uint64_t I = 1; I <= NewDomain; ++I) {
      Tree[I] += Flags[I];
      uint64_t J = I + (I & (~I + 1));
      if (J <= NewDomain)
        Tree[J] += Tree[I];
    }
  }

  void set(uint64_t I) {
    Flags[I] = 1;
    ++Total;
    for (; I < Tree.size(); I += I & (~I + 1))
      ++Tree[I];
  }

  void clear(uint64_t I) {
    Flags[I] = 0;
    --Total;
    for (; I < Tree.size(); I += I & (~I + 1))
      --Tree[I];
  }

  /// Number of set flags at positions <= I.
  uint64_t prefix(uint64_t I) const {
    uint64_t Sum = 0;
    for (; I > 0; I -= I & (~I + 1))
      Sum += Tree[I];
    return Sum;
  }

  /// Smallest position whose prefix is >= K (the K-th set flag);
  /// requires 1 <= K <= total().
  uint64_t select(uint64_t K) const {
    uint64_t Pos = 0;
    for (uint32_t Bit = LogN + 1; Bit-- > 0;) {
      uint64_t Next = Pos + (uint64_t(1) << Bit);
      if (Next < Tree.size() && Tree[Next] < K) {
        Pos = Next;
        K -= Tree[Next];
      }
    }
    return Pos + 1;
  }

private:
  std::vector<uint32_t> Tree;
  std::vector<uint8_t> Flags;
  uint64_t Total = 0;
  uint32_t LogN = 0;
};

/// Chunk-fed form of the hole-extended Mattson sweep (see
/// SweepEngine.cpp's file comment for the update rules). One instance
/// per hint view.
class StackDistanceStream {
  static constexpr uint64_t Never = StackNever;

  /// DirtyMin = smallest tracked-or-not capacity whose copy of the line
  /// is dirty (Never when clean in every size).
  struct LineState {
    uint64_t Ts;
    uint64_t DirtyMin;
  };

  std::vector<uint32_t> NumLines;
  bool IgnoreHints;
  std::vector<CacheStats> Stats;
  BitTree All;   // Valid lines and holes.
  BitTree Holes; // Holes only.
  std::unordered_map<uint64_t, LineState> Lines;
  std::vector<uint64_t> AddrOfTs;
  uint64_t NextTs = 0;

  // 0-based stack depth: number of entries more recent than Ts.
  uint64_t depthOf(uint64_t Ts) const {
    return All.total() - All.prefix(Ts);
  }

public:
  StackDistanceStream(std::vector<uint32_t> NumLinesIn, bool IgnoreHints)
      : NumLines(std::move(NumLinesIn)), IgnoreHints(IgnoreHints),
        Stats(NumLines.size()) {}

  /// Pre-sizes the timestamp domain (each event consumes at most one
  /// fresh timestamp).
  void reserve(uint64_t ExpectedEvents) {
    All.ensure(ExpectedEvents + 1);
    Holes.ensure(ExpectedEvents + 1);
    if (AddrOfTs.size() < ExpectedEvents + 2)
      AddrOfTs.resize(ExpectedEvents + 2, 0);
  }

  void feed(const TraceEvent *Events, size_t Count) {
    const size_t NumSizes = NumLines.size();
    if (NumSizes == 0)
      return;
    // Grow the timestamp domain ahead of the chunk.
    All.ensure(NextTs + Count + 1);
    Holes.ensure(NextTs + Count + 1);
    if (AddrOfTs.size() < NextTs + Count + 2)
      AddrOfTs.resize(
          std::max<uint64_t>(NextTs + Count + 2, 2 * AddrOfTs.size()), 0);

    for (const TraceEvent *EP = Events, *EEnd = Events + Count;
         EP != EEnd; ++EP) {
      const TraceEvent &E = *EP;
      const uint64_t LA = E.Addr; // One-word lines: address == line addr.
      const bool Bypass = !IgnoreHints && E.Info.Bypass;
      const bool LastRef = !IgnoreHints && E.Info.LastRef;
      auto It = Lines.find(LA);

      if (Bypass) {
        if (E.IsWrite) {
          // UmAm_STORE: straight to memory in every size.
          for (CacheStats &St : Stats)
            ++St.BypassWrites;
          continue;
        }
        if (It == Lines.end()) {
          for (CacheStats &St : Stats)
            ++St.BypassReads;
          continue;
        }
        // UmAm_LOAD: sizes holding the line migrate-and-free it (dirty
        // copies are written back first, see CacheModelT::access); the rest
        // read memory directly.
        const uint64_t D = depthOf(It->second.Ts);
        const uint64_t DirtyMin = It->second.DirtyMin;
        for (size_t K = 0; K != NumSizes; ++K) {
          CacheStats &St = Stats[K];
          const uint64_t S = NumLines[K];
          if (S > D) {
            ++St.BypassHitMigrations;
            ++St.DeadFrees;
            if (DirtyMin <= S) {
              ++St.WriteBacks;
              ++St.WriteBackWords;
              ++St.Evictions;
            }
          } else {
            ++St.BypassReads;
          }
        }
        // The entry becomes a hole in place: every size that held the
        // line gains a free slot at its stack position.
        Holes.set(It->second.Ts);
        Lines.erase(It);
        continue;
      }

      // Through-cache access. All queries run against the pre-access
      // stack; mutations follow after the stats loop.
      const uint64_t D = It == Lines.end() ? Never : depthOf(It->second.Ts);
      const uint64_t TotalBefore = All.total();
      uint64_t HoleTs = 0;
      uint64_t PHole = Never; // 0-based depth of the topmost hole.
      if (Holes.total() > 0) {
        HoleTs = Holes.select(Holes.total());
        PHole = depthOf(HoleTs);
      }
      // Sizes up to EvictMax miss with a full window and no hole in it:
      // they evict their own LRU victim, the entry at stack position S.
      const uint64_t EvictMax = std::min({D, PHole, TotalBefore});

      for (size_t K = 0; K != NumSizes; ++K) {
        CacheStats &St = Stats[K];
        const uint64_t S = NumLines[K];
        if (E.IsWrite)
          ++St.Writes;
        else
          ++St.Reads;
        if (D != Never && S > D) {
          if (E.IsWrite)
            ++St.WriteHits;
          else
            ++St.ReadHits;
          continue;
        }
        ++St.Fills;
        if (!E.IsWrite)
          ++St.FillWords; // One-word write-allocate skips the fetch.
        if (S <= EvictMax) {
          const uint64_t VictimTs = All.select(TotalBefore - S + 1);
          ++St.Evictions;
          if (Lines.find(AddrOfTs[VictimTs])->second.DirtyMin <= S) {
            ++St.WriteBacks;
            ++St.WriteBackWords;
          }
        }
      }

      // Stack update.
      const uint64_t NewTs = ++NextTs;
      AddrOfTs[NewTs] = LA;
      if (It != Lines.end()) {
        const uint64_t OldTs = It->second.Ts;
        All.clear(OldTs);
        if (PHole != Never && HoleTs > OldTs) {
          // The topmost hole moves down into the vacated slot: sizes in
          // (PHole, D] missed and consumed their free slot; hitting
          // sizes keep theirs.
          Holes.clear(HoleTs);
          All.clear(HoleTs);
          Holes.set(OldTs);
          All.set(OldTs);
        }
        It->second.Ts = NewTs;
        if (E.IsWrite)
          It->second.DirtyMin = 1;
        else if (It->second.DirtyMin != Never)
          It->second.DirtyMin = std::max(It->second.DirtyMin, D + 1);
      } else {
        // Miss everywhere: the topmost hole (if any) is consumed.
        if (PHole != Never) {
          Holes.clear(HoleTs);
          All.clear(HoleTs);
        }
        Lines.emplace(LA, LineState{NewTs, E.IsWrite ? 1 : Never});
      }
      All.set(NewTs);

      if (LastRef) {
        // The line (now on top, resident in every size) is freed; dirty
        // copies are dropped without write-back.
        const LineState &LS = Lines.find(LA)->second;
        for (size_t K = 0; K != NumSizes; ++K) {
          ++Stats[K].DeadFrees;
          if (LS.DirtyMin <= NumLines[K])
            ++Stats[K].DeadWriteBacksAvoided;
        }
        Holes.set(NewTs);
        Lines.erase(LA);
      }
    }
  }

  std::vector<CacheStats> finish() {
    // End of program: flush the remaining dirty lines of every size.
    for (const auto &[Addr, LS] : Lines) {
      if (LS.DirtyMin == Never)
        continue;
      const uint64_t P = depthOf(LS.Ts);
      for (size_t K = 0; K != NumLines.size(); ++K)
        if (NumLines[K] > P && LS.DirtyMin <= NumLines[K])
          ++Stats[K].FlushWriteBackWords;
    }
    return Stats;
  }
};

} // namespace detail
} // namespace urcm

#endif // URCM_SIM_REPLAYKERNELS_H
