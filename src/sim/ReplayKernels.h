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
/// same per-event code and cannot diverge.
///
/// The two lock-step kernels (LRUTwoWayStream, GenericMultiStream) take
/// an optional shard divisor: a kernel constructed with ShardDiv = N
/// replays a *set shard*, the subsequence of the trace whose events map
/// to cache sets congruent to one residue mod N. Set-associative state
/// is strictly per-set (lookup, victim choice, recency ticks all stay
/// inside one set), so replaying each residue class independently and
/// summing the counters is bit-identical to the sequential replay; the
/// kernel compacts the sets it owns into localSet = globalSet / N so a
/// shard allocates 1/N of the tag state. The stack-distance kernel
/// needs no shard form — it models fully-associative caches (one set),
/// which shard across *capacities* instead: each shard instance sweeps
/// a slice of the size list over the full trace.
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

/// True if \p P can be served by the specialized two-way LRU kernel
/// below.
inline bool lruTwoWayEligible(const SweepPoint &P) {
  return P.Policy == CachePolicy::LRU &&
         P.Config.Write == WritePolicy::WriteBack &&
         P.Config.LineWords == 1 && P.Config.Assoc == 2 &&
         P.Config.NumLines >= 2 &&
         (P.Config.NumLines & (P.Config.NumLines - 1)) == 0;
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

/// Specialized lock-step replay for two-way LRU write-back caches with
/// one-word lines and power-of-two line counts — the paper's preferred
/// data-cache shape and by far the hottest sweep configuration.
/// Counters are bit-identical to CacheModel; the win is the state
/// encoding: each set is a two-entry move-to-front list of tag words
/// (bit 63 = dirty, all-ones = invalid), so the common case — a hit on
/// the most recent way — is one load and one compare, with no tick
/// bookkeeping (for two ways, position *is* recency).
///
/// Invariants: among valid ways of a set, slot 0 is the more recently
/// used; invalid ways can sit in either slot (an access always leaves
/// the touched line in slot 0, and dead-tag/bypass frees invalidate in
/// place). Victim choice matches CacheModelT::victimWay: an invalid
/// way first, else the LRU way (slot 1).
///
/// With \p ShardDiv = N > 1 the instance replays one set shard: callers
/// feed only events whose set index falls in one residue class mod N,
/// and the set is compacted to globalSet / N (the shard's sets,
/// enumerated in order). The unsharded mapping stays division-free; a
/// power-of-two divisor lowers to a shift.
class LRUTwoWayStream {
  static constexpr uint64_t DirtyBit = uint64_t(1) << 63;
  static constexpr uint64_t TagMask = ~DirtyBit;
  static constexpr uint64_t Invalid = ~uint64_t(0);

  enum class ShardMap { None, Shift, Div };

  struct Way2Cache {
    uint64_t SetMask;
    uint64_t ShardDiv;
    uint32_t ShardShift;
    bool Hinted;
    std::vector<uint64_t> Tags;
    CacheStats St;
    /// Per-point attribution table (null: off, the common case).
    RefAttribution *Attr = nullptr;
    /// Installer RefId per way, parallel to Tags; sized on demand by
    /// setAttribution.
    std::vector<uint16_t> InstalledBy;
  };
  std::vector<Way2Cache> Caches;

public:
  explicit LRUTwoWayStream(const std::vector<SweepPoint> &Points,
                           uint32_t ShardDiv = 1) {
    assert(ShardDiv >= 1);
    Caches.reserve(Points.size());
    for (const SweepPoint &P : Points) {
      assert(lruTwoWayEligible(P));
      const uint64_t NumSets = P.Config.NumLines / 2;
      const uint64_t LocalSets = (NumSets + ShardDiv - 1) / ShardDiv;
      uint32_t Shift = 0;
      while ((uint64_t(1) << Shift) < ShardDiv)
        ++Shift;
      Caches.push_back({NumSets - 1, ShardDiv, Shift, !P.IgnoreHints,
                        std::vector<uint64_t>(LocalSets * 2, Invalid),
                        CacheStats(), /*Attr=*/nullptr,
                        /*InstalledBy=*/{}});
    }
  }

  /// Routes attribution for the point at \p PointIdx into \p A (see
  /// RefAttribution; counter sites mirror TwoWayWB1Cache's, so shard
  /// tables merge bit-identically).
  void setAttribution(size_t PointIdx, RefAttribution *A) {
    Way2Cache &C = Caches[PointIdx];
    C.Attr = A;
    if (A && C.InstalledBy.size() != C.Tags.size())
      C.InstalledBy.assign(C.Tags.size(), MemRefInfo::NoRefId);
  }

  void feed(const TraceEvent *Events, size_t Count) {
    // Configuration-major: each cache streams the whole chunk with its
    // tag pointer, set mask, and counters held in registers, and the
    // chunk itself stays hot across passes. Caches are mutually
    // independent, so the interchange cannot change any counter.
    for (Way2Cache &C : Caches) {
      if (C.Attr) {
        if (C.ShardDiv == 1)
          feedOne<ShardMap::None, true>(C, Events, Count);
        else if ((C.ShardDiv & (C.ShardDiv - 1)) == 0)
          feedOne<ShardMap::Shift, true>(C, Events, Count);
        else
          feedOne<ShardMap::Div, true>(C, Events, Count);
      } else if (C.ShardDiv == 1) {
        feedOne<ShardMap::None, false>(C, Events, Count);
      } else if ((C.ShardDiv & (C.ShardDiv - 1)) == 0) {
        feedOne<ShardMap::Shift, false>(C, Events, Count);
      } else {
        feedOne<ShardMap::Div, false>(C, Events, Count);
      }
    }
  }

  std::vector<CacheStats> finish() {
    std::vector<CacheStats> Out;
    Out.reserve(Caches.size());
    for (Way2Cache &C : Caches) {
      for (uint64_t T : C.Tags)
        if (T != Invalid && (T & DirtyBit))
          ++C.St.FlushWriteBackWords;
      Out.push_back(C.St);
    }
    return Out;
  }

private:
  template <ShardMap Map, bool Attrib>
  void feedOne(Way2Cache &C, const TraceEvent *Events, size_t Count) {
    uint64_t *const Tags = C.Tags.data();
    [[maybe_unused]] uint16_t *const IB =
        Attrib ? C.InstalledBy.data() : nullptr;
    [[maybe_unused]] RefAttribution *const Attr = C.Attr;
    const uint64_t SetMask = C.SetMask;
    const uint64_t ShardDiv = C.ShardDiv;
    const uint32_t ShardShift = C.ShardShift;
    const bool Hinted = C.Hinted;
    CacheStats St = C.St;
    for (const TraceEvent *E = Events, *End = Events + Count; E != End;
         ++E) {
      const uint64_t A = E->Addr;
      const bool W = E->IsWrite;
      [[maybe_unused]] const uint16_t Ref = E->RefId;
      uint64_t Set = A & SetMask;
      if constexpr (Map == ShardMap::Shift)
        Set >>= ShardShift;
      else if constexpr (Map == ShardMap::Div)
        Set /= ShardDiv;
      uint64_t *P = Tags + (Set << 1);
      [[maybe_unused]] uint16_t *B = Attrib ? IB + (Set << 1) : nullptr;
      if (__builtin_expect(!(E->Info.Bypass & Hinted), 1)) {
        uint64_t T0 = P[0];
        if (W)
          ++St.Writes;
        else
          ++St.Reads;
        if ((T0 & TagMask) == A) {
          if constexpr (Attrib)
            ++Attr->row(Ref).Hits;
          if (W) {
            ++St.WriteHits;
            P[0] = T0 | DirtyBit;
          } else {
            ++St.ReadHits;
          }
        } else if (uint64_t T1 = P[1]; (T1 & TagMask) == A) {
          if constexpr (Attrib) {
            ++Attr->row(Ref).Hits;
            const uint16_t Tmp = B[0];
            B[0] = B[1];
            B[1] = Tmp;
          }
          if (W) {
            ++St.WriteHits;
            T1 |= DirtyBit;
          } else {
            ++St.ReadHits;
          }
          P[1] = T0;
          P[0] = T1;
        } else {
          // Miss. One-word write-allocate skips the fetch (the store
          // overwrites the whole line).
          if constexpr (Attrib)
            ++Attr->row(Ref).Misses;
          ++St.Fills;
          if (!W)
            ++St.FillWords;
          uint64_t NewTag = W ? A | DirtyBit : A;
          if (T0 == Invalid) {
            P[0] = NewTag;
            if constexpr (Attrib)
              B[0] = Ref;
          } else {
            if (T1 != Invalid) {
              ++St.Evictions;
              if constexpr (Attrib) {
                ++Attr->row(Ref).EvictionsCaused;
                ++Attr->row(B[1]).EvictionsSuffered;
              }
              if (T1 & DirtyBit) {
                ++St.WriteBacks;
                ++St.WriteBackWords;
              }
            }
            P[1] = T0;
            P[0] = NewTag;
            if constexpr (Attrib) {
              B[1] = B[0];
              B[0] = Ref;
            }
          }
        }
        if (E->Info.LastRef & Hinted) {
          // The accessed line sits in slot 0 after every path above.
          ++St.DeadFrees;
          if (P[0] & DirtyBit) {
            ++St.DeadWriteBacksAvoided;
            if constexpr (Attrib)
              ++Attr->row(Ref).DeadWriteBacksSuppressed;
          }
          P[0] = Invalid;
        }
      } else if (W) {
        ++St.BypassWrites;
        if constexpr (Attrib)
          ++Attr->row(Ref).Bypasses;
      } else {
        // Bypass read: a resident line migrates to the register file
        // (dirty lines write back first) and frees its slot.
        if constexpr (Attrib)
          ++Attr->row(Ref).Bypasses;
        uint64_t T0 = P[0], T1 = P[1];
        uint64_t *Slot = (T0 & TagMask) == A   ? &P[0]
                         : (T1 & TagMask) == A ? &P[1]
                                               : nullptr;
        if (Slot) {
          ++St.BypassHitMigrations;
          ++St.DeadFrees;
          if (*Slot & DirtyBit) {
            ++St.WriteBacks;
            ++St.WriteBackWords;
            ++St.Evictions;
            if constexpr (Attrib) {
              ++Attr->row(Ref).EvictionsCaused;
              ++Attr->row(B[Slot - P]).EvictionsSuffered;
            }
          }
          *Slot = Invalid;
        } else {
          ++St.BypassReads;
        }
      }
    }
    C.St = St;
  }
};

/// The general lock-step walk: one policy-generic CacheModel per point,
/// advanced a chunk at a time (a running event index supplies MIN's
/// future-knowledge lookups, so batch callers that feed the whole trace
/// as one chunk see the original indexes).
///
/// \p ShardDiv > 1 builds every model in set-shard mode (see
/// CacheModel); MIN, Random and LivenessBypass points are not
/// shard-eligible (setShardEligible) and must not appear then.
class GenericMultiStream {
  std::vector<SweepPoint> Points;
  std::vector<CacheModel> Replayers;
  std::vector<TraceEvent> Stripped; // Per-chunk scratch (hints cleared).
  bool AnyUnhinted = false;
  uint64_t RunningIndex = 0;

public:
  /// \p FullTrace is required when any point uses CachePolicy::MIN.
  GenericMultiStream(std::vector<SweepPoint> PointsIn,
                     const std::vector<TraceEvent> *FullTrace,
                     uint32_t ShardDiv = 1)
      : Points(std::move(PointsIn)) {
    // MIN points with the same line size and hint view share one
    // next-use index.
    std::map<std::pair<uint32_t, bool>,
             std::shared_ptr<const std::vector<uint64_t>>>
        NextUses;
    Replayers.reserve(Points.size());
    for (const SweepPoint &P : Points) {
      AnyUnhinted |= P.IgnoreHints;
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
    }
  }

  /// Routes attribution for the point at \p PointIdx into \p A. The
  /// stripped-hint scratch copies whole events, so RefIds reach
  /// IgnoreHints replayers too (hinted and stripped compilations number
  /// their references identically; see MachineProgram::RefTable).
  void setAttribution(size_t PointIdx, RefAttribution *A) {
    Replayers[PointIdx].setAttribution(A);
  }

  void feed(const TraceEvent *Events, size_t Count) {
    // Configuration-major: each replayer streams the whole chunk before
    // the next starts, keeping its cache state hot. The replayers are
    // mutually independent, so the counters equal per-point replayTrace
    // calls. IgnoreHints points see the chunk with its hint bits
    // cleared (stripped once per chunk, not per point).
    const uint64_t Base = RunningIndex;
    RunningIndex += Count;
    if (AnyUnhinted) {
      Stripped.assign(Events, Events + Count);
      for (TraceEvent &E : Stripped) {
        E.Info.Bypass = false;
        E.Info.LastRef = false;
      }
    }
    const size_t N = Points.size();
    for (size_t P = 0; P != N; ++P) {
      const TraceEvent *Src =
          Points[P].IgnoreHints && AnyUnhinted ? Stripped.data() : Events;
      // One policy dispatch per (point, chunk), not per event.
      Replayers[P].feed(Src, Count, Base);
    }
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
