//===- urcm/sim/CacheModel.h - The generic cache model ----------*- C++ -*-===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one set-associative cache model: the single definition of the
/// write-back / write-through / bypass / dead-store semantics behind
/// every execution mode — the simulator's live data and instruction
/// caches, sequential replay, the sweep engine's multi-configuration
/// streams, set-sharded parallel replay and warm trace-store serving.
/// The core is a member template over `<Ways, Policy, Attrib>`: each
/// combination compiles to a straight-line step with `if constexpr`
/// pruning every other policy's bookkeeping. `feed()` picks the
/// instantiation once per chunk, a live cache once per run.
///
/// Ways is the compile-time shape (shapeOf): 1, 2, 4 or 8 ways with
/// one-word lines and a power-of-two set count, where the set index is a
/// mask and the way scan unrolls; 0 is the runtime-geometry fallback
/// for every other configuration. A set is a run of tag words (the line
/// address, bit 63 = dirty, all-ones = invalid), so the scan reads
/// nothing else; each policy's per-line state sits in a side array. At
/// a shape, LRU recency is the slot order itself: a hit on the most
/// recent way is one load and one compare.
///
/// The paper's two hint bits:
///
///  * bypass (section 3.2 / 4.3): a bypassed read probes the cache first
///    (UmAm_LOAD); a hit migrates the value to the register and frees the
///    line, a miss reads main memory directly. A bypassed write goes
///    straight to memory (UmAm_STORE) and only refreshes a resident copy.
///  * last-reference (section 3.1): a hit tagged last-reference frees the
///    line; a dirty dead line is dropped without write-back. For line
///    sizes above one word the line is instead demoted to the set's next
///    victim and its write-back kept (the paper's footnote-6 caveat).
///
/// Writes allocate under write-back (a one-word line skips the fetch:
/// the store overwrites it) and go to memory without allocating under
/// write-through.
///
/// The class template's \p Data parameter is a compile-time facet.
/// CacheModel (Data = false) keeps tags and counters only: it is what
/// replay runs, and what the simulator's read-only instruction cache
/// uses. LiveCache (Data = true) also keeps the line words and moves
/// them to and from a MainMemory: fills copy words in, dirty evictions
/// and flush() write them back, so the simulator's paranoid shadow
/// check can catch an unsound hint. Every data operation sits under
/// `if constexpr (Data)`, so the tag-only instantiation compiles to
/// exactly the stats-only replay step.
///
/// tests/cachemodel_test.cpp pins every shape against the fallback on
/// the same geometry, counters, attribution tables and delivered words.
///
/// Policies beyond the live ones (see urcm/sim/CachePolicy.h):
///
///  * MIN — Belady's optimal replacement [Bel66] over the recorded
///    trace's future knowledge (computeNextLineUses).
///  * LivenessBypass — LRU replacement plus a per-RefId dead-on-arrival
///    predictor: a 2-bit saturating counter per static reference,
///    trained up when a line it installed dies (evicted or dead-freed)
///    without a single reuse and down on the first reuse. A reference
///    predicted dead stops allocating — its misses are served straight
///    from memory with compiler-bypass accounting — except that every
///    16th predicted access still allocates, so changed behavior can
///    retrain. This is the hardware-learned analogue of the paper's
///    compiler bypass hints (Faldu's reuse-prediction baselines,
///    PAPERS.md); training reads the whole reference stream, so the
///    policy is replay-only and not set-shardable.
///
//===----------------------------------------------------------------------===//

#ifndef URCM_SIM_CACHEMODEL_H
#define URCM_SIM_CACHEMODEL_H

#include "urcm/sim/Cache.h"
#include "urcm/sim/Simulator.h"
#include "urcm/support/RNG.h"

#include <cassert>
#include <limits>
#include <memory>
#include <type_traits>

namespace urcm {

/// For Belady MIN: Next[i] = index of the next through-cache access to
/// the same cache line after event i (UINT64_MAX if none). Depends only
/// on the trace and the line size, so MIN replays at different
/// geometries with the same line size can share one computation.
std::shared_ptr<const std::vector<uint64_t>>
computeNextLineUses(const std::vector<TraceEvent> &Trace,
                    uint32_t LineWords);

/// One cache configuration, advanced either by trace events (feed, one
/// dispatch per chunk) or by live accesses (read/write, one indirect
/// call per access, or the whole access inlined through readAs/writeAs).
/// \p Data selects the data facet described in the file comment.
template <bool Data> class CacheModelT {
  static constexpr uint64_t Never = std::numeric_limits<uint64_t>::max();
  /// A tag word is the line address, with DirtyBit set while the line
  /// is dirty; Invalid marks an empty slot.
  static constexpr uint64_t DirtyBit = uint64_t(1) << 63;
  static constexpr uint64_t TagMask = ~DirtyBit;
  static constexpr uint64_t Invalid = ~uint64_t(0);
  /// LivenessBypass predictor constants: 2-bit saturating counters, a
  /// reference is predicted dead at PredictorDeadThreshold, and every
  /// PredictorProbePeriod-th predicted-dead access allocates anyway.
  static constexpr uint8_t PredictorDeadThreshold = 2;
  static constexpr uint8_t PredictorMax = 3;
  static constexpr uint64_t PredictorProbePeriod = 16;

  /// What an access advances besides the line state. feed() runs on a
  /// local copy, so the compiler need not reload the counters after
  /// every store to the tag array.
  struct Counters {
    CacheStats Stats;
    uint64_t Tick = 0;  ///< Stamp clock (LRU/FIFO stamps).
    uint64_t Probe = 0; ///< LivenessBypass predicted-dead access count.
  };

  /// The data facet's state: line slot i owns Words[i*LineWords, ...).
  struct WordStore {
    MainMemory *Mem = nullptr;
    std::vector<int64_t> Words;
  };
  struct NoStore {};

  using LiveFn = int64_t (CacheModelT::*)(uint64_t, bool, MemRefInfo,
                                          int64_t);

  /// At a compile-time shape, LRU recency is the order of the set's
  /// slots, most recent first (SNIPPETS.md's LRU_head/LRU_tail idiom):
  /// a hit moves its line to slot 0 and the victim is the last slot.
  /// One-word lines make every free an invalidation, so the order of the
  /// valid lines is the whole LRU state. The fallback keeps stamps,
  /// which multi-word demotion needs.
  template <uint32_t W, CachePolicy P>
  static constexpr bool SlotOrder =
      W != 0 && (P == CachePolicy::LRU || P == CachePolicy::LivenessBypass);

public:
  /// The compile-time shape \p Config runs at: its way count when that
  /// is 1, 2, 4 or 8, its lines are one word and its set count is a
  /// power of two; 0, the runtime-geometry fallback, otherwise.
  static uint32_t shapeOf(const CacheConfig &Config) {
    const uint32_t Assoc = Config.Assoc;
    if (Config.LineWords != 1 ||
        (Assoc != 1 && Assoc != 2 && Assoc != 4 && Assoc != 8))
      return 0;
    const uint32_t Sets = Config.NumLines / Assoc;
    return Sets != 0 && (Sets & (Sets - 1)) == 0 ? Assoc : 0;
  }

  /// The replay constructor (tag-only facet). \p NextUses is required
  /// for CachePolicy::MIN (see computeNextLineUses; it must have been
  /// computed with this config's line size) and ignored otherwise.
  ///
  /// \p ShardDiv > 1 puts the model in set-shard mode: the caller feeds
  /// only the trace subsequence whose events map to cache sets of one
  /// residue class mod ShardDiv, and the model compacts those sets to
  /// globalSet / ShardDiv so it allocates 1/ShardDiv of the line state.
  /// Only cachePolicySetShardEligible() policies keep strictly per-set
  /// replacement state; for them, summing shard counters reproduces the
  /// sequential replay bit for bit.
  CacheModelT(const CacheConfig &Config, CachePolicy Policy,
              std::shared_ptr<const std::vector<uint64_t>> NextUses =
                  nullptr,
              uint32_t ShardDiv = 1)
    requires(!Data)
      : CacheModelT(Config, Policy, std::move(NextUses), ShardDiv,
                    nullptr) {}

  /// The live data cache over \p Mem, replacing by Config.Policy, which
  /// must be cachePolicyLiveEligible().
  CacheModelT(const CacheConfig &Config, MainMemory &Mem)
    requires Data
      : CacheModelT(Config, Config.Policy, nullptr, 1, &Mem) {}

  /// Accumulates per-reference attribution (urcm/sim/RefAttribution.h)
  /// into \p A (not owned; null — the default — disables). Counter
  /// sites are shared by every mode, so shard tables merged with
  /// operator+= reproduce a sequential or live run bit for bit.
  void setAttribution(RefAttribution *A) {
    Attr = A;
    selectLive();
  }

  /// Replays every event as if its bypass and last-reference hints were
  /// clear (SweepPoint::IgnoreHints): the conventional scheme's view of
  /// a unified-scheme trace. Replay only; live accesses keep theirs.
  void setIgnoreHints(bool Ignore) { Hinted = !Ignore; }

  /// Runs every access through the runtime-geometry fallback, whatever
  /// shapeOf() says, so the shape differential test can compare the two
  /// on one geometry. Call before the first access.
  void useFallbackShape() {
    Ways = 0;
    selectLive();
  }

  /// The compile-time shape this model runs at: shapeOf(), unless a
  /// shard divisor that is not a power of two forces the fallback.
  uint32_t shape() const { return Ways; }

  /// Processes \p Count consecutive trace events starting at trace
  /// position \p BaseIndex, with one (shape, policy, attribution)
  /// dispatch for the whole chunk. Tag-only facet only.
  void feed(const TraceEvent *Events, size_t Count, uint64_t BaseIndex);

  /// Live read of word address \p Addr with hint bits \p Info. Returns
  /// the delivered word (always 0 in the tag-only facet).
  URCM_CACHE_INLINE int64_t read(uint64_t Addr, const MemRefInfo &Info) {
    return (this->*Live)(Addr, /*IsWrite=*/false, Info, 0);
  }

  /// Live write of \p Value to word address \p Addr.
  URCM_CACHE_INLINE void write(uint64_t Addr, int64_t Value,
                               const MemRefInfo &Info) {
    (this->*Live)(Addr, /*IsWrite=*/true, Info, Value);
  }

  /// read() with the shape, policy and attribution fixed at compile
  /// time, so the whole access inlines into the caller: \p W must be
  /// shape(), \p P the policy and \p A whether a table is set (checked
  /// by fixes(), once, not per access). The simulator's interpreter
  /// takes this for the paper geometry.
  template <uint32_t W, CachePolicy P, bool A>
  URCM_CACHE_INLINE int64_t readAs(uint64_t Addr, const MemRefInfo &Info) {
    return access<W, P, A>(H, Addr, /*IsWrite=*/false, Info.Bypass,
                           Info.LastRef, Info.RefId, 0, 0);
  }

  /// write() with the shape, policy and attribution fixed (see readAs).
  template <uint32_t W, CachePolicy P, bool A>
  URCM_CACHE_INLINE void writeAs(uint64_t Addr, int64_t Value,
                                 const MemRefInfo &Info) {
    access<W, P, A>(H, Addr, /*IsWrite=*/true, Info.Bypass, Info.LastRef,
                    Info.RefId, 0, Value);
  }

  /// True if readAs/writeAs<W, P, A> may drive this cache.
  template <uint32_t W, CachePolicy P, bool A> bool fixes() const {
    return W == Ways && P == Policy && A == (Attr != nullptr);
  }

  /// Writes every dirty line back and invalidates all lines (end of
  /// program); counted as FlushWriteBackWords, not as steady traffic.
  void flush() {
    for (size_t Slot = 0; Slot != Tags.size(); ++Slot) {
      if (Tags[Slot] != Invalid && (Tags[Slot] & DirtyBit)) {
        H.Stats.FlushWriteBackWords += Config.LineWords;
        writeBackWords(Slot);
      }
      Tags[Slot] = Invalid;
    }
  }

  /// Flushes and returns the final counters. Call exactly once.
  CacheStats finish() {
    flush();
    return H.Stats;
  }

  /// Frees every resident line whose addresses lie entirely within
  /// [\p Lo, \p Hi) — the instruction cache's code-dead hint. A dirty
  /// line is written back first; each freed line counts as a DeadFree.
  void invalidateRange(uint64_t Lo, uint64_t Hi) {
    for (size_t Slot = 0; Slot != Tags.size(); ++Slot) {
      const uint64_t T = Tags[Slot];
      if (T == Invalid)
        continue;
      uint64_t First = (T & TagMask) * Config.LineWords;
      if (First < Lo || First + Config.LineWords > Hi)
        continue;
      if (T & DirtyBit) {
        writeBack(H, Slot);
        ++H.Stats.Evictions;
        if (Attr) {
          ++Attr->row(CurRef).EvictionsCaused;
          ++Attr->row(InstalledBy[Slot]).EvictionsSuffered;
        }
      }
      Tags[Slot] = Invalid;
      ++H.Stats.DeadFrees;
    }
  }

  /// True if the line holding \p Addr is resident (shard mode: only for
  /// addresses of this model's shard).
  bool probe(uint64_t Addr) const {
    const uint64_t LA = lineOf<0>(Addr);
    return findWay<0>(Tags.data() + setOf<0>(LA) * assoc<0>(), LA) >= 0;
  }

  const CacheStats &stats() const { return H.Stats; }

private:
  CacheModelT(const CacheConfig &Config, CachePolicy Policy,
              std::shared_ptr<const std::vector<uint64_t>> NextUses,
              uint32_t ShardDiv, MainMemory *Mem)
      : Geometry(Config),
        WriteThrough(Config.Write == WritePolicy::WriteThrough),
        Config(Config), Policy(Policy),
        Ways((ShardDiv & (ShardDiv - 1)) == 0 ? shapeOf(Config) : 0),
        NextUses(std::move(NextUses)), Rng(Config.Seed), ShardDiv(ShardDiv) {
    while ((uint32_t(1) << ShardShift) < ShardDiv)
      ++ShardShift;
    assert(Config.Assoc > 0 && Config.NumLines % Config.Assoc == 0 &&
           "associativity must divide the line count");
    assert(Config.LineWords > 0 && "line size must be positive");
    assert((Policy != CachePolicy::MIN || this->NextUses) &&
           "MIN needs the next-use index (computeNextLineUses)");
    assert((ShardDiv == 1 || cachePolicySetShardEligible(Policy)) &&
           "only set-local policies can replay set shards");
    assert((Policy != CachePolicy::TreePLRU ||
            (Config.Assoc <= 64 &&
             (Config.Assoc & (Config.Assoc - 1)) == 0)) &&
           "TreePLRU needs a power-of-two associativity of at most 64");
    const size_t Slots =
        ShardDiv == 1
            ? size_t(Config.NumLines)
            : size_t((Config.NumLines / Config.Assoc + ShardDiv - 1) /
                     ShardDiv) *
                  Config.Assoc;
    Tags.assign(Slots, Invalid);
    InstalledBy.assign(Slots, MemRefInfo::NoRefId);
    if (Policy == CachePolicy::LRU || Policy == CachePolicy::FIFO ||
        Policy == CachePolicy::MIN || Policy == CachePolicy::LivenessBypass)
      Stamps.assign(Slots, 0);
    if (Policy == CachePolicy::SRRIP)
      RRPV.assign(Slots, 0);
    if (Policy == CachePolicy::TreePLRU)
      TreeBits.assign(Slots / Config.Assoc, 0);
    if (Policy == CachePolicy::LivenessBypass) {
      Reused.assign(Slots, 0);
      Dead.assign(size_t(1) << 16, 0); // Indexed directly by uint16 RefId.
    }
    if constexpr (Data) {
      assert(cachePolicyLiveEligible(Policy) &&
             "MIN/LivenessBypass are replay-only");
      Store.Mem = Mem;
      Store.Words.assign(Slots * Config.LineWords, 0);
    }
    (void)Mem;
    selectLive();
  }

  // The dispatch ladders (CacheModel.cpp): feed picks the chunk loop,
  // selectLive the live entry point, once per (shape, policy,
  // attribution) choice.
  template <bool A> void feedShape(const TraceEvent *, size_t, uint64_t);
  template <uint32_t W, bool A>
  void feedPolicy(const TraceEvent *, size_t, uint64_t);
  void selectLive();
  template <bool A> LiveFn liveShape() const;
  template <uint32_t W, bool A> LiveFn livePolicy() const;

  template <uint32_t W, CachePolicy P, bool A>
  void feedLoop(const TraceEvent *Events, size_t Count, uint64_t BaseIndex) {
    Counters C = H;
    const bool Hint = Hinted;
    for (size_t I = 0; I != Count; ++I) {
      const TraceEvent &E = Events[I];
      access<W, P, A>(C, E.Addr, E.IsWrite, E.Info.Bypass & Hint,
                      E.Info.LastRef & Hint, E.RefId, BaseIndex + I, 0);
    }
    H = C;
  }

  template <uint32_t W, CachePolicy P, bool A>
  int64_t liveStep(uint64_t Addr, bool IsWrite, MemRefInfo Info,
                   int64_t Value) {
    return access<W, P, A>(H, Addr, IsWrite, Info.Bypass, Info.LastRef,
                           Info.RefId, 0, Value);
  }

  // Geometry at shape W: compile-time constants for a shape, the
  // configuration's values for the fallback (W = 0).
  template <uint32_t W> uint32_t assoc() const {
    return W ? W : Config.Assoc;
  }
  template <uint32_t W> uint32_t lineWords() const {
    return W ? 1 : Config.LineWords;
  }
  template <uint32_t W> uint64_t lineOf(uint64_t Addr) const {
    return W ? Addr : Geometry.lineAddr(Addr);
  }
  /// The index of LA's set within this model's line array: the global
  /// set index, compacted by the shard divisor in shard mode.
  template <uint32_t W> size_t setOf(uint64_t LA) const {
    if constexpr (W != 0 && Data)
      return LA & Geometry.SetMask; // Live caches never shard.
    if constexpr (W != 0)
      return (LA & Geometry.SetMask) >> ShardShift;
    const uint32_t Set = Geometry.setOf(LA);
    return ShardDiv == 1 ? Set : Set / ShardDiv;
  }

  /// The way of the set at \p T holding line \p LA, or -1. The scan
  /// reads tags only.
  template <uint32_t W>
  URCM_CACHE_INLINE int findWay(const uint64_t *T, uint64_t LA) const {
    for (uint32_t Way = 0; Way != assoc<W>(); ++Way)
      if ((T[Way] & TagMask) == LA)
        return static_cast<int>(Way);
    return -1;
  }

  /// The data facet's copy of \p Addr within the line in \p Slot.
  template <uint32_t W> int64_t &wordOf(size_t Slot, uint64_t Addr) {
    if constexpr (W != 0)
      return Store.Words[Slot];
    return Store.Words[Slot * Config.LineWords + Geometry.wordInLine(Addr)];
  }

  /// The unified core. Every policy's variant of the write-back /
  /// write-through / bypass / dead-store semantics is this one
  /// function, at every shape; `if constexpr` compiles each
  /// instantiation down to exactly the policy's own bookkeeping, and
  /// the data facet's word moves. \p Value is the word a write stores;
  /// the return value is the word a read delivers (data facet only).
  template <uint32_t W, CachePolicy P, bool A>
  URCM_CACHE_INLINE int64_t access(Counters &C, uint64_t Addr, bool IsWrite,
                                   bool Bypass, bool LastRef, uint16_t RefId,
                                   uint64_t Index, int64_t Value) {
    if constexpr (A)
      CurRef = RefId;
    if (__builtin_expect(Bypass, 0))
      return bypass<W, P, A>(C, Addr, IsWrite, RefId, Value);

    CacheStats &St = C.Stats;
    const uint64_t LA = lineOf<W>(Addr);
    const size_t Set = setOf<W>(LA);
    uint64_t *const T = Tags.data() + Set * assoc<W>();
    int Way = findWay<W>(T, LA);
    const bool WTWrite = IsWrite && WriteThrough;

    if constexpr (P == CachePolicy::LivenessBypass) {
      if (Way < 0 && !WTWrite && Dead[RefId] >= PredictorDeadThreshold &&
          ++C.Probe % PredictorProbePeriod != 0) {
        // Predicted dead on arrival: serve from memory without
        // allocating, with the same accounting as a compiler bypass
        // hint. The deterministic probe above lets a reference whose
        // behavior changed retrain.
        if (IsWrite)
          ++St.BypassWrites;
        else
          ++St.BypassReads;
        if constexpr (A)
          ++Attr->row(RefId).Bypasses;
        return Value;
      }
    }

    if (WTWrite) {
      // Write-through / no-write-allocate: memory always gets the word;
      // the cache is only updated on a hit. Lines are never dirty.
      ++St.Writes;
      ++St.WriteThroughWords;
      if constexpr (Data)
        Store.Mem->write(Addr, Value);
      if constexpr (A) {
        RefCounters &R = Attr->row(RefId);
        ++(Way >= 0 ? R.Hits : R.Misses);
      }
      if (Way >= 0) {
        ++St.WriteHits;
        Way = touchHit<W, P, A>(C, Set, Way);
        const size_t Slot = Set * assoc<W>() + Way;
        if constexpr (P == CachePolicy::MIN)
          Stamps[Slot] = (*NextUses)[Index];
        if constexpr (Data)
          wordOf<W>(Slot, Addr) = Value;
        if (LastRef)
          freeLine<W, P, A>(C, Set, Way, RefId);
      }
      return Value;
    }

    // The set's lines move before any counter store, so the tag words
    // the scan loaded are still in registers.
    if (__builtin_expect(Way >= 0, 1)) {
      Way = touchHit<W, P, A>(C, Set, Way);
      if (IsWrite)
        ++St.WriteHits;
      else
        ++St.ReadHits;
      if constexpr (A)
        ++Attr->row(RefId).Hits;
    } else {
      if constexpr (A)
        ++Attr->row(RefId).Misses;
      Way = fill<W, P, A>(C, Set, LA, RefId, IsWrite);
    }
    if (IsWrite)
      ++St.Writes;
    else
      ++St.Reads;

    const size_t Slot = Set * assoc<W>() + Way;
    if constexpr (P == CachePolicy::MIN)
      Stamps[Slot] = (*NextUses)[Index];
    if (IsWrite) {
      T[Way] |= DirtyBit;
      if constexpr (Data)
        wordOf<W>(Slot, Addr) = Value;
    } else if constexpr (Data) {
      Value = wordOf<W>(Slot, Addr);
    }
    if (LastRef)
      freeLine<W, P, A>(C, Set, Way, RefId);
    return Value;
  }

  /// A miss: evicts the set's victim, installs line \p LA and fetches
  /// its words. Returns the line's way.
  template <uint32_t W, CachePolicy P, bool A>
  URCM_CACHE_INLINE int fill(Counters &C, size_t Set, uint64_t LA,
                             uint16_t RefId, bool IsWrite) {
    int Way = victimWay<W, P>(Set);
    if (Tags[Set * assoc<W>() + Way] != Invalid) // Write-back before fill.
      evictLine<W, P, A>(C, Set * assoc<W>() + Way, RefId);
    Way = install<W, P, A>(C, Set, Way, LA, RefId);
    // A one-word write-allocate skips the fetch: the store overwrites
    // the whole line.
    ++C.Stats.Fills;
    if (!IsWrite || lineWords<W>() > 1) {
      C.Stats.FillWords += lineWords<W>();
      if constexpr (Data) {
        const size_t Slot = Set * assoc<W>() + Way;
        int64_t *Words = Store.Words.data() + Slot * lineWords<W>();
        const uint64_t First = LA * lineWords<W>();
        for (uint32_t I = 0; I != lineWords<W>(); ++I)
          Words[I] = Store.Mem->read(First + I);
      }
    }
    return Way;
  }

  /// A bypass-hinted access (see access()).
  template <uint32_t W, CachePolicy P, bool A>
  URCM_CACHE_INLINE int64_t bypass(Counters &C, uint64_t Addr, bool IsWrite,
                                   uint16_t RefId, int64_t Value) {
    CacheStats &St = C.Stats;
    const uint64_t LA = lineOf<W>(Addr);
    const size_t Set = setOf<W>(LA);
    uint64_t *const T = Tags.data() + Set * assoc<W>();
    const int Way = findWay<W>(T, LA);
    if constexpr (A)
      ++Attr->row(RefId).Bypasses;
    if (!IsWrite) {
      if (Way >= 0) {
        // Migration: a dirty line is written back first. Dropping it
        // is only sound when a UmAm_STORE precedes the next load of
        // the location, and mixed policies (ReuseAware: cached in one
        // function, bypassed in another) break that guarantee — the
        // paranoid shadow check caught exactly this (DESIGN.md §8).
        const size_t Slot = Set * assoc<W>() + Way;
        if constexpr (Data)
          Value = wordOf<W>(Slot, Addr);
        ++St.BypassHitMigrations;
        if constexpr (P == CachePolicy::LivenessBypass)
          trainLive(Slot); // The migration read is a reuse.
        if (lineWords<W>() == 1) {
          ++St.DeadFrees;
          if (T[Way] & DirtyBit)
            evictLine<W, P, A>(C, Slot, RefId);
        } else {
          evictLine<W, P, A>(C, Slot, RefId);
        }
        T[Way] = Invalid;
      } else {
        ++St.BypassReads;
        if constexpr (Data)
          Value = Store.Mem->read(Addr);
      }
    } else {
      // UmAm_STORE: straight to memory. A stale cached copy should not
      // exist under the compiler contract; if one does, keep it
      // coherent (no dirty bit, no recency change).
      ++St.BypassWrites;
      if constexpr (Data) {
        Store.Mem->write(Addr, Value);
        if (Way >= 0)
          wordOf<W>(Set * assoc<W>() + Way, Addr) = Value;
      }
    }
    return Value;
  }

  /// Slot-order recency: shifts ways [0, \p Way) of the set at \p Base
  /// down by one over every per-line array the instantiation keeps. With
  /// \p KeepFront the line in \p Way moves to slot 0 (a hit); without,
  /// slot 0 is left for an install.
  template <CachePolicy P, bool A, bool KeepFront>
  URCM_CACHE_INLINE void shiftDown(size_t Base, int Way) {
    auto Shift = [Way](auto *Line) {
      auto Front = Line[Way];
      for (int I = Way; I > 0; --I)
        Line[I] = Line[I - 1];
      if constexpr (KeepFront)
        Line[0] = Front;
    };
    Shift(Tags.data() + Base);
    if constexpr (Data)
      Shift(Store.Words.data() + Base);
    if constexpr (A || P == CachePolicy::LivenessBypass)
      Shift(InstalledBy.data() + Base);
    if constexpr (P == CachePolicy::LivenessBypass)
      Shift(Reused.data() + Base);
  }

  /// Recency update on a hit (mechanisms shared through
  /// urcm/sim/CachePolicy.h). Returns the line's way afterwards.
  template <uint32_t W, CachePolicy P, bool A>
  URCM_CACHE_INLINE int touchHit(Counters &C, size_t Set, int Way) {
    const size_t Slot = Set * assoc<W>() + Way;
    if constexpr (P == CachePolicy::LivenessBypass)
      trainLive(Slot);
    if constexpr (SlotOrder<W, P>) {
      if (Way != 0)
        shiftDown<P, A, /*KeepFront=*/true>(Set * assoc<W>(), Way);
      return 0;
    } else if constexpr (P == CachePolicy::LRU ||
                         P == CachePolicy::LivenessBypass) {
      Stamps[Slot] = ++C.Tick;
    } else if constexpr (P == CachePolicy::SRRIP) {
      RRPV[Slot] = 0;
    } else if constexpr (P == CachePolicy::TreePLRU) {
      if (assoc<W>() > 1)
        TreeBits[Set] = detail::treePLRUTouch(TreeBits[Set], assoc<W>(),
                                              static_cast<uint32_t>(Way));
    }
    (void)C;
    return Way;
  }

  /// Installs line \p LA, clean, into the free way \p Way with the
  /// policy's fresh-line state: an LRU/FIFO stamp (or slot 0 under slot
  /// order), SRRIP's long re-reference interval, a TreePLRU path
  /// pointing away from it, a new LivenessBypass reuse generation.
  /// Returns the line's way.
  template <uint32_t W, CachePolicy P, bool A>
  int install(Counters &C, size_t Set, int Way, uint64_t LA,
              uint16_t RefId) {
    if constexpr (SlotOrder<W, P>) {
      if (Way != 0)
        shiftDown<P, A, /*KeepFront=*/false>(Set * assoc<W>(), Way);
      Way = 0;
    }
    const size_t Slot = Set * assoc<W>() + Way;
    Tags[Slot] = LA;
    if constexpr (A || P == CachePolicy::LivenessBypass)
      InstalledBy[Slot] = RefId;
    if constexpr (!SlotOrder<W, P> &&
                  (P == CachePolicy::LRU || P == CachePolicy::FIFO ||
                   P == CachePolicy::LivenessBypass))
      Stamps[Slot] = ++C.Tick;
    if constexpr (P == CachePolicy::SRRIP) {
      RRPV[Slot] = SRRIPInsertRRPV;
    } else if constexpr (P == CachePolicy::TreePLRU) {
      if (assoc<W>() > 1)
        TreeBits[Set] = detail::treePLRUTouch(TreeBits[Set], assoc<W>(),
                                              static_cast<uint32_t>(Way));
    } else if constexpr (P == CachePolicy::LivenessBypass) {
      Reused[Slot] = 0;
    }
    (void)C;
    return Way;
  }

  /// Victim way for the set: an invalid way first (the choice among
  /// invalid ways has no observable effect), else the policy's pick
  /// (urcm/sim/CachePolicy.h mechanisms).
  template <uint32_t W, CachePolicy P> int victimWay(size_t Set) {
    const size_t Base = Set * assoc<W>();
    for (uint32_t Way = 0; Way != assoc<W>(); ++Way)
      if (Tags[Base + Way] == Invalid)
        return static_cast<int>(Way);
    uint32_t Victim;
    if constexpr (SlotOrder<W, P>) {
      Victim = assoc<W>() - 1;
    } else if constexpr (P == CachePolicy::LRU || P == CachePolicy::FIFO ||
                         P == CachePolicy::LivenessBypass) {
      Victim = detail::minStampWay(Stamps.data() + Base, assoc<W>());
    } else if constexpr (P == CachePolicy::Random) {
      Victim = static_cast<uint32_t>(Rng.nextBelow(assoc<W>()));
    } else if constexpr (P == CachePolicy::MIN) {
      Victim = detail::maxStampWay(Stamps.data() + Base, assoc<W>());
    } else if constexpr (P == CachePolicy::TreePLRU) {
      Victim = assoc<W>() == 1
                   ? 0
                   : detail::treePLRUVictimWay(TreeBits[Set], assoc<W>());
    } else {
      static_assert(P == CachePolicy::SRRIP, "unhandled policy");
      Victim = detail::srripVictimWay(RRPV.data() + Base, assoc<W>());
    }
    return static_cast<int>(Victim);
  }

  /// Copies the dirty line in \p Slot to memory (data facet; no-op in
  /// the tag-only one).
  template <uint32_t W = 0> void writeBackWords(size_t Slot) {
    if constexpr (Data) {
      const int64_t *Words = Store.Words.data() + Slot * lineWords<W>();
      const uint64_t First = (Tags[Slot] & TagMask) * lineWords<W>();
      for (uint32_t I = 0; I != lineWords<W>(); ++I)
        Store.Mem->write(First + I, Words[I]);
    }
    (void)Slot;
  }

  /// A steady-state write-back of the dirty line in \p Slot.
  template <uint32_t W = 0> void writeBack(Counters &C, size_t Slot) {
    ++C.Stats.WriteBacks;
    C.Stats.WriteBackWords += lineWords<W>();
    writeBackWords<W>(Slot);
  }

  /// Evicts the valid line in \p Slot, displaced by reference \p ByRef;
  /// the caller invalidates or refills the slot.
  template <uint32_t W, CachePolicy P, bool A>
  URCM_CACHE_INLINE void evictLine(Counters &C, size_t Slot, uint16_t ByRef) {
    if (Tags[Slot] & DirtyBit)
      writeBack<W>(C, Slot);
    ++C.Stats.Evictions;
    if constexpr (A) {
      ++Attr->row(ByRef).EvictionsCaused;
      ++Attr->row(InstalledBy[Slot]).EvictionsSuffered;
    }
    if constexpr (P == CachePolicy::LivenessBypass)
      trainDead(Slot); // Died without reuse => installer learns "dead".
    (void)ByRef;
  }

  /// Reclaims the dead-hinted line in way \p Way (the paper's
  /// free-on-last-reference). \p ByRef is the accessor whose tag freed
  /// the line (attribution).
  template <uint32_t W, CachePolicy P, bool A>
  void freeLine(Counters &C, size_t Set, int Way, uint16_t ByRef) {
    const size_t Slot = Set * assoc<W>() + Way;
    ++C.Stats.DeadFrees;
    if (lineWords<W>() == 1) {
      if (Tags[Slot] & DirtyBit) {
        ++C.Stats.DeadWriteBacksAvoided;
        if constexpr (A)
          ++Attr->row(ByRef).DeadWriteBacksSuppressed;
      }
      if constexpr (P == CachePolicy::LivenessBypass)
        trainDead(Slot); // Install + immediate free is dead-on-arrival.
      Tags[Slot] = Invalid;
      return;
    }
    // Multi-word lines (fallback only): other words in the line may
    // still be live, so the line is only demoted to the set's next
    // victim (paper's alternative), in whatever state the policy uses
    // for that.
    if constexpr (P == CachePolicy::MIN) {
      Stamps[Slot] = Never;
    } else if constexpr (P == CachePolicy::LRU || P == CachePolicy::FIFO ||
                         P == CachePolicy::LivenessBypass) {
      Stamps[Slot] = 0;
    } else if constexpr (P == CachePolicy::SRRIP) {
      RRPV[Slot] = SRRIPMaxRRPV;
    } else if constexpr (P == CachePolicy::TreePLRU) {
      if (assoc<W>() > 1)
        TreeBits[Set] = detail::treePLRUPointAt(TreeBits[Set], assoc<W>(),
                                                static_cast<uint32_t>(Way));
    }
    (void)ByRef;
  }

  /// First reuse of the line's current generation: the installer's
  /// dead counter decays toward "live".
  void trainLive(size_t Slot) {
    if (Reused[Slot])
      return;
    Reused[Slot] = 1;
    uint8_t &Counter = Dead[InstalledBy[Slot]];
    if (Counter > 0)
      --Counter;
  }

  /// The line died (evicted or dead-freed) without any reuse since its
  /// install: the installer's dead counter saturates toward "dead".
  void trainDead(size_t Slot) {
    if (Reused[Slot])
      return;
    uint8_t &Counter = Dead[InstalledBy[Slot]];
    if (Counter < PredictorMax)
      ++Counter;
  }

  // What every access reads comes first, so a live cache's hot state
  // shares few host cache lines.
  /// Per line slot; set s occupies [s * Assoc, (s + 1) * Assoc). The
  /// set scan reads Tags alone; the policy state is in side arrays.
  std::vector<uint64_t> Tags;
  [[no_unique_address]] std::conditional_t<Data, WordStore, NoStore> Store;
  Counters H;
  CacheGeometry Geometry;
  /// log2(ShardDiv) at a shape, which needs a power-of-two divisor.
  uint32_t ShardShift = 0;
  /// Config.Write == WriteThrough, where the hot path can keep it.
  bool WriteThrough;
  /// False under setIgnoreHints: feed() clears every event's hints.
  bool Hinted = true;
  RefAttribution *Attr = nullptr;
  /// The live entry point for the current (shape, policy, attribution);
  /// null for the replay-only policies.
  LiveFn Live = nullptr;

  CacheConfig Config;
  CachePolicy Policy;
  /// The compile-time shape accesses run at (shapeOf, or 0 after
  /// useFallbackShape).
  uint32_t Ways;
  std::shared_ptr<const std::vector<uint64_t>> NextUses;
  SplitMix64 Rng;
  uint32_t ShardDiv;
  uint16_t CurRef = MemRefInfo::NoRefId;
  /// Installer RefId (attribution's EvictionsSuffered and the
  /// LivenessBypass predictor's training target).
  std::vector<uint16_t> InstalledBy;
  /// LRU and LivenessBypass last use (fallback), FIFO insertion, MIN
  /// next use.
  std::vector<uint64_t> Stamps;
  /// SRRIP re-reference prediction values.
  std::vector<uint8_t> RRPV;
  /// LivenessBypass: hit at least once since install.
  std::vector<uint8_t> Reused;
  /// Tree-PLRU node bits, one word per (local) set (TreePLRU only).
  std::vector<uint64_t> TreeBits;
  /// LivenessBypass: per-RefId 2-bit dead-on-arrival counters, indexed
  /// directly by the uint16 RefId (MemRefInfo::NoRefId shares one slot,
  /// mirroring the attribution overflow row).
  std::vector<uint8_t> Dead;
};

/// Tags and counters only: trace replay, and the simulator's read-only
/// instruction cache.
using CacheModel = CacheModelT</*Data=*/false>;
/// Tags, counters and line words over a MainMemory: the simulator's
/// live data cache, and the switch engine's.
using LiveCache = CacheModelT</*Data=*/true>;

/// Replays \p Trace against a cache with geometry \p Config (the
/// Config.Policy field is ignored; \p Policy is used instead). Returns
/// the event counters.
CacheStats replayTrace(const std::vector<TraceEvent> &Trace,
                       const CacheConfig &Config, CachePolicy Policy);

} // namespace urcm

#endif // URCM_SIM_CACHEMODEL_H
