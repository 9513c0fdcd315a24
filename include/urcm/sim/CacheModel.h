//===- urcm/sim/CacheModel.h - The generic cache model ----------*- C++ -*-===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unified, policy-generic, attribution-aware set-associative cache
/// model: the one definition of the write-back / write-through / bypass
/// / dead-store semantics behind every execution mode — the simulator's
/// live data and instruction caches, sequential replay, the sweep
/// engine's multi-configuration streams, set-sharded parallel replay and
/// warm trace-store serving. The core is a member template over
/// `<CachePolicy Policy, bool Attrib>`: each (policy, attribution)
/// combination is compiled as a straight-line step with `if constexpr`
/// pruning every other policy's bookkeeping, and `feed()` dispatches
/// once per chunk, not once per event.
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
/// The class template's \p Data parameter is a compile-time facet, like
/// \p Attrib in TwoWayWB1CacheT. CacheModel (Data = false) keeps tags and
/// counters only: it is what replay runs, and what the simulator's
/// read-only instruction cache uses. LiveCache (Data = true) also keeps
/// the line words and moves them to and from a MainMemory: fills copy
/// words in, dirty evictions and flush() write them back, so the
/// simulator's paranoid shadow check can catch an unsound hint. Every
/// data operation sits under `if constexpr (Data)`, so the tag-only
/// instantiation compiles to exactly the stats-only replay step.
///
/// The specialized TwoWayWB1CacheT / LRUTwoWayStream fast paths keep
/// their own state encoding and are pinned against this model by the
/// differential tests.
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
/// policy dispatch per chunk) or by live accesses (read/write, one
/// dispatch per access). \p Data selects the data facet described in
/// the file comment.
template <bool Data> class CacheModelT {
  static constexpr uint64_t Never = std::numeric_limits<uint64_t>::max();
  /// LivenessBypass predictor constants: 2-bit saturating counters, a
  /// reference is predicted dead at PredictorDeadThreshold, and every
  /// PredictorProbePeriod-th predicted-dead access allocates anyway.
  static constexpr uint8_t PredictorDeadThreshold = 2;
  static constexpr uint8_t PredictorMax = 3;
  static constexpr uint64_t PredictorProbePeriod = 16;

  struct ModelLine {
    bool Valid = false;
    bool Dirty = false;
    /// Hit at least once since install (LivenessBypass training).
    bool Reused = false;
    /// SRRIP re-reference prediction value.
    uint8_t RRPV = 0;
    /// Installer RefId (attribution's EvictionsSuffered and the
    /// LivenessBypass predictor's training target).
    uint16_t InstalledBy = MemRefInfo::NoRefId;
    uint64_t Tag = 0;
    uint64_t LastUsed = 0;
    uint64_t InsertedAt = 0;
    uint64_t NextUse = Never; // For MIN.
  };

  /// The data facet's state: line slot i owns Words[i*LineWords, ...).
  struct WordStore {
    MainMemory *Mem = nullptr;
    std::vector<int64_t> Words;
  };
  struct NoStore {};

public:
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
  void setAttribution(RefAttribution *A) { Attr = A; }

  /// Processes \p Count consecutive trace events starting at trace
  /// position \p BaseIndex, with one (policy, attribution) dispatch for
  /// the whole chunk.
  void feed(const TraceEvent *Events, size_t Count, uint64_t BaseIndex) {
    if (Attr)
      feedImpl<true>(Events, Count, BaseIndex);
    else
      feedImpl<false>(Events, Count, BaseIndex);
  }

  /// Live read of word address \p Addr with hint bits \p Info. Returns
  /// the delivered word (always 0 in the tag-only facet).
  URCM_CACHE_INLINE int64_t read(uint64_t Addr, const MemRefInfo &Info) {
    return live(Addr, /*IsWrite=*/false, Info, 0);
  }

  /// Live write of \p Value to word address \p Addr.
  URCM_CACHE_INLINE void write(uint64_t Addr, int64_t Value,
                               const MemRefInfo &Info) {
    live(Addr, /*IsWrite=*/true, Info, Value);
  }

  /// Writes every dirty line back and invalidates all lines (end of
  /// program); counted as FlushWriteBackWords, not as steady traffic.
  void flush() {
    for (ModelLine &L : Lines) {
      if (L.Valid && L.Dirty) {
        Stats.FlushWriteBackWords += Config.LineWords;
        writeBackWords(L);
      }
      L.Valid = false;
      L.Dirty = false;
    }
  }

  /// Flushes and returns the final counters. Call exactly once.
  CacheStats finish() {
    flush();
    return Stats;
  }

  /// Frees every resident line whose addresses lie entirely within
  /// [\p Lo, \p Hi) — the instruction cache's code-dead hint. A dirty
  /// line is written back first; each freed line counts as a DeadFree.
  void invalidateRange(uint64_t Lo, uint64_t Hi) {
    for (ModelLine &L : Lines) {
      if (!L.Valid)
        continue;
      uint64_t First = L.Tag * Config.LineWords;
      if (First < Lo || First + Config.LineWords > Hi)
        continue;
      if (L.Dirty) {
        writeBack(L);
        ++Stats.Evictions;
        if (Attr) {
          ++Attr->row(CurRef).EvictionsCaused;
          ++Attr->row(L.InstalledBy).EvictionsSuffered;
        }
      }
      L.Valid = false;
      L.Dirty = false;
      ++Stats.DeadFrees;
    }
  }

  /// True if the line holding \p Addr is resident (shard mode: only for
  /// addresses of this model's shard).
  bool probe(uint64_t Addr) const {
    return const_cast<CacheModelT *>(this)->find(Geometry.lineAddr(Addr)) !=
           nullptr;
  }

  const CacheStats &stats() const { return Stats; }

private:
  CacheModelT(const CacheConfig &Config, CachePolicy Policy,
              std::shared_ptr<const std::vector<uint64_t>> NextUses,
              uint32_t ShardDiv, MainMemory *Mem)
      : Config(Config), Geometry(Config), Policy(Policy),
        NextUses(std::move(NextUses)), Rng(Config.Seed),
        ShardDiv(ShardDiv),
        Lines(ShardDiv == 1
                  ? size_t(Config.NumLines)
                  : size_t((Config.NumLines / Config.Assoc + ShardDiv -
                            1) /
                           ShardDiv) *
                        Config.Assoc) {
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
    if (Policy == CachePolicy::TreePLRU)
      TreeBits.assign(Lines.size() / Config.Assoc, 0);
    if (Policy == CachePolicy::LivenessBypass)
      Dead.assign(size_t(1) << 16, 0); // Indexed directly by uint16 RefId.
    if constexpr (Data) {
      assert(cachePolicyLiveEligible(Policy) &&
             "MIN/LivenessBypass are replay-only");
      Store.Mem = Mem;
      Store.Words.assign(Lines.size() * Config.LineWords, 0);
    }
    (void)Mem;
  }

  template <bool A>
  void feedImpl(const TraceEvent *Events, size_t Count,
                uint64_t BaseIndex) {
    switch (Policy) {
    case CachePolicy::LRU:
      return feedLoop<CachePolicy::LRU, A>(Events, Count, BaseIndex);
    case CachePolicy::FIFO:
      return feedLoop<CachePolicy::FIFO, A>(Events, Count, BaseIndex);
    case CachePolicy::Random:
      return feedLoop<CachePolicy::Random, A>(Events, Count, BaseIndex);
    case CachePolicy::MIN:
      return feedLoop<CachePolicy::MIN, A>(Events, Count, BaseIndex);
    case CachePolicy::TreePLRU:
      return feedLoop<CachePolicy::TreePLRU, A>(Events, Count, BaseIndex);
    case CachePolicy::SRRIP:
      return feedLoop<CachePolicy::SRRIP, A>(Events, Count, BaseIndex);
    case CachePolicy::LivenessBypass:
      return feedLoop<CachePolicy::LivenessBypass, A>(Events, Count,
                                                      BaseIndex);
    }
  }

  template <CachePolicy P, bool A>
  void feedLoop(const TraceEvent *Events, size_t Count,
                uint64_t BaseIndex) {
    for (size_t I = 0; I != Count; ++I) {
      const TraceEvent &E = Events[I];
      access<P, A>(E.Addr, E.IsWrite, E.Info.Bypass, E.Info.LastRef,
                   E.RefId, BaseIndex + I, 0);
    }
  }

  /// One live access: a (policy, attribution) dispatch, then the core.
  /// The attribution-free dispatch is forced inline into the caller: a
  /// call per access cost perfbench run-live ~7% more CPU (DESIGN.md
  /// §16). Profiling runs take the out-of-line call.
  URCM_CACHE_INLINE int64_t live(uint64_t Addr, bool IsWrite,
                                 const MemRefInfo &Info, int64_t Value) {
    if (Attr)
      return liveAttributed(Addr, IsWrite, Info, Value);
    return liveImpl<false>(Addr, IsWrite, Info, Value);
  }

  [[gnu::noinline]] int64_t liveAttributed(uint64_t Addr, bool IsWrite,
                                           const MemRefInfo &Info,
                                           int64_t Value) {
    return liveImpl<true>(Addr, IsWrite, Info, Value);
  }

  /// Only the live-eligible policies are compiled here.
  template <bool A>
  URCM_CACHE_INLINE int64_t liveImpl(uint64_t Addr, bool IsWrite,
                                     const MemRefInfo &Info,
                                     int64_t Value) {
#define URCM_LIVE_CASE(Name)                                                 \
  case CachePolicy::Name:                                                    \
    return access<CachePolicy::Name, A>(Addr, IsWrite, Info.Bypass,          \
                                        Info.LastRef, Info.RefId, 0, Value);
    switch (Policy) {
      URCM_LIVE_CASE(LRU)
      URCM_LIVE_CASE(FIFO)
      URCM_LIVE_CASE(Random)
      URCM_LIVE_CASE(TreePLRU)
      URCM_LIVE_CASE(SRRIP)
    case CachePolicy::MIN:
    case CachePolicy::LivenessBypass:
      break;
    }
#undef URCM_LIVE_CASE
    assert(false && "MIN/LivenessBypass are replay-only");
    return 0;
  }

  /// The unified core. Every policy's variant of the write-back /
  /// write-through / bypass / dead-store semantics is this one
  /// function; `if constexpr` compiles each instantiation down to
  /// exactly the policy's own bookkeeping, and the data facet's word
  /// moves. \p Value is the word a write stores; the return value is
  /// the word a read delivers (data facet only).
  template <CachePolicy P, bool A>
  int64_t access(uint64_t Addr, bool IsWrite, bool Bypass, bool LastRef,
                 uint16_t RefId, uint64_t Index, int64_t Value) {
    uint64_t LA = Geometry.lineAddr(Addr);
    if constexpr (A)
      CurRef = RefId;

    if (Bypass) {
      if constexpr (A)
        ++Attr->row(RefId).Bypasses;
      if (!IsWrite) {
        if (ModelLine *L = find(LA)) {
          // Migration: a dirty line is written back first. Dropping it
          // is only sound when a UmAm_STORE precedes the next load of
          // the location, and mixed policies (ReuseAware: cached in one
          // function, bypassed in another) break that guarantee — the
          // paranoid shadow check caught exactly this (DESIGN.md §8).
          if constexpr (Data)
            Value = wordOf(*L, Addr);
          ++Stats.BypassHitMigrations;
          if constexpr (P == CachePolicy::LivenessBypass)
            trainLive(*L); // The migration read is a reuse.
          if (Config.LineWords == 1) {
            ++Stats.DeadFrees;
            if (L->Dirty)
              evictLine<P, A>(*L);
            L->Valid = false;
            L->Dirty = false;
          } else {
            evictLine<P, A>(*L);
          }
        } else {
          ++Stats.BypassReads;
          if constexpr (Data)
            Value = Store.Mem->read(Addr);
        }
      } else {
        // UmAm_STORE: straight to memory. A stale cached copy should not
        // exist under the compiler contract; if one does, keep it
        // coherent (no dirty bit, no recency change).
        ++Stats.BypassWrites;
        if constexpr (Data) {
          Store.Mem->write(Addr, Value);
          if (ModelLine *L = find(LA))
            wordOf(*L, Addr) = Value;
        }
      }
      return Value;
    }

    uint32_t Set = localSetOf(LA);
    ModelLine *Base = &Lines[static_cast<size_t>(Set) * Config.Assoc];
    ModelLine *L = nullptr;
    uint32_t Way = 0;
    for (uint32_t W = 0; W != Config.Assoc; ++W)
      if (Base[W].Valid && Base[W].Tag == LA) {
        L = Base + W;
        Way = W;
        break;
      }

    bool WTWrite = IsWrite && Config.Write == WritePolicy::WriteThrough;

    if constexpr (P == CachePolicy::LivenessBypass) {
      if (!L && !WTWrite && Dead[RefId] >= PredictorDeadThreshold &&
          ++Probe % PredictorProbePeriod != 0) {
        // Predicted dead on arrival: serve from memory without
        // allocating, with the same accounting as a compiler bypass
        // hint. The deterministic probe above lets a reference whose
        // behavior changed retrain.
        if (IsWrite)
          ++Stats.BypassWrites;
        else
          ++Stats.BypassReads;
        if constexpr (A)
          ++Attr->row(RefId).Bypasses;
        return Value;
      }
    }

    if (IsWrite)
      ++Stats.Writes;
    else
      ++Stats.Reads;

    if (WTWrite) {
      // Write-through / no-write-allocate: memory always gets the word;
      // the cache is only updated on a hit. Lines are never dirty.
      ++Stats.WriteThroughWords;
      if constexpr (Data)
        Store.Mem->write(Addr, Value);
      if constexpr (A) {
        RefCounters &R = Attr->row(RefId);
        ++(L ? R.Hits : R.Misses);
      }
      if (L) {
        ++Stats.WriteHits;
        touchHit<P>(*L, Set, Way);
        if constexpr (P == CachePolicy::MIN)
          L->NextUse = (*NextUses)[Index];
        if constexpr (Data)
          wordOf(*L, Addr) = Value;
        if (LastRef)
          freeLine<P, A>(*L, Set, Way, RefId);
      }
      return Value;
    }

    if (L) {
      if (IsWrite)
        ++Stats.WriteHits;
      else
        ++Stats.ReadHits;
      if constexpr (A)
        ++Attr->row(RefId).Hits;
      touchHit<P>(*L, Set, Way);
    } else {
      if constexpr (A)
        ++Attr->row(RefId).Misses;
      Way = victimWay<P>(Base, Set);
      L = Base + Way;
      if (L->Valid)
        evictLine<P, A>(*L); // The victim's write-back precedes the fill.
      L->Valid = true;
      L->Dirty = false;
      if constexpr (P == CachePolicy::LivenessBypass)
        L->InstalledBy = RefId; // The predictor trains without Attr.
      else
        L->InstalledBy = CurRef;
      L->Tag = LA;
      L->InsertedAt = ++Tick;
      L->LastUsed = Tick;
      installTouch<P>(*L, Set, Way);
      // A one-word write-allocate skips the fetch: the store overwrites
      // the whole line.
      bool FetchWords = !IsWrite || Config.LineWords > 1;
      ++Stats.Fills;
      if (FetchWords) {
        Stats.FillWords += Config.LineWords;
        if constexpr (Data) {
          int64_t *Words = lineWords(*L);
          const uint64_t First = LA * Config.LineWords;
          for (uint32_t W = 0; W != Config.LineWords; ++W)
            Words[W] = Store.Mem->read(First + W);
        }
      }
    }

    if constexpr (P == CachePolicy::MIN)
      L->NextUse = (*NextUses)[Index];
    if (IsWrite) {
      L->Dirty = true;
      if constexpr (Data)
        wordOf(*L, Addr) = Value;
    } else if constexpr (Data) {
      Value = wordOf(*L, Addr);
    }
    if (LastRef)
      freeLine<P, A>(*L, Set, Way, RefId);
    return Value;
  }

  /// The index of LA's set within this model's line array: the global
  /// set index, compacted by the shard divisor in shard mode.
  uint32_t localSetOf(uint64_t LA) const {
    uint32_t Set = Geometry.setOf(LA);
    return ShardDiv == 1 ? Set : Set / ShardDiv;
  }

  ModelLine *find(uint64_t LA) {
    uint32_t Set = localSetOf(LA);
    ModelLine *Base = &Lines[static_cast<size_t>(Set) * Config.Assoc];
    for (uint32_t Way = 0; Way != Config.Assoc; ++Way)
      if (Base[Way].Valid && Base[Way].Tag == LA)
        return &Base[Way];
    return nullptr;
  }

  /// The data facet's words of resident line \p L.
  int64_t *lineWords(const ModelLine &L) {
    return Store.Words.data() +
           static_cast<size_t>(&L - Lines.data()) * Config.LineWords;
  }
  /// The data facet's copy of \p Addr within resident line \p L.
  int64_t &wordOf(const ModelLine &L, uint64_t Addr) {
    return lineWords(L)[Geometry.wordInLine(Addr)];
  }

  /// Copies dirty line \p L's words to memory (data facet; no-op in
  /// the tag-only one).
  void writeBackWords(const ModelLine &L) {
    if constexpr (Data) {
      const int64_t *Words = lineWords(L);
      const uint64_t First = L.Tag * Config.LineWords;
      for (uint32_t W = 0; W != Config.LineWords; ++W)
        Store.Mem->write(First + W, Words[W]);
    }
    (void)L;
  }

  /// A steady-state write-back of dirty line \p L.
  void writeBack(const ModelLine &L) {
    ++Stats.WriteBacks;
    Stats.WriteBackWords += Config.LineWords;
    writeBackWords(L);
  }

  /// Recency update on a hit (mechanisms shared through
  /// urcm/sim/CachePolicy.h).
  template <CachePolicy P>
  void touchHit(ModelLine &L, uint32_t Set, uint32_t Way) {
    L.LastUsed = ++Tick;
    if constexpr (P == CachePolicy::SRRIP) {
      L.RRPV = 0;
    } else if constexpr (P == CachePolicy::TreePLRU) {
      if (Config.Assoc > 1)
        TreeBits[Set] =
            detail::treePLRUTouch(TreeBits[Set], Config.Assoc, Way);
    } else if constexpr (P == CachePolicy::LivenessBypass) {
      trainLive(L);
    }
    (void)Set;
    (void)Way;
  }

  /// Policy state for a fresh install (the tick fields are set by the
  /// caller): SRRIP inserts at the long re-reference interval, TreePLRU
  /// points the tree away from the installed way, LivenessBypass starts
  /// a new reuse generation.
  template <CachePolicy P>
  void installTouch(ModelLine &L, uint32_t Set, uint32_t Way) {
    if constexpr (P == CachePolicy::SRRIP) {
      L.RRPV = SRRIPInsertRRPV;
    } else if constexpr (P == CachePolicy::TreePLRU) {
      if (Config.Assoc > 1)
        TreeBits[Set] =
            detail::treePLRUTouch(TreeBits[Set], Config.Assoc, Way);
    } else if constexpr (P == CachePolicy::LivenessBypass) {
      L.Reused = false;
    }
    (void)L;
    (void)Set;
    (void)Way;
  }

  /// Victim way for the set: an invalid way first (the choice among
  /// invalid ways has no observable effect), else the policy's pick
  /// (urcm/sim/CachePolicy.h mechanisms).
  template <CachePolicy P>
  uint32_t victimWay(ModelLine *Base, uint32_t Set) {
    for (uint32_t Way = 0; Way != Config.Assoc; ++Way)
      if (!Base[Way].Valid)
        return Way;
    if constexpr (P == CachePolicy::LRU ||
                  P == CachePolicy::LivenessBypass) {
      return detail::lruVictimWay(Base, Config.Assoc);
    } else if constexpr (P == CachePolicy::FIFO) {
      return detail::fifoVictimWay(Base, Config.Assoc);
    } else if constexpr (P == CachePolicy::Random) {
      return Rng.nextBelow(Config.Assoc);
    } else if constexpr (P == CachePolicy::MIN) {
      // Belady: evict the line whose next use is farthest in the
      // future.
      uint32_t Victim = 0;
      for (uint32_t Way = 1; Way != Config.Assoc; ++Way)
        if (Base[Way].NextUse > Base[Victim].NextUse)
          Victim = Way;
      return Victim;
    } else if constexpr (P == CachePolicy::TreePLRU) {
      return Config.Assoc == 1
                 ? 0
                 : detail::treePLRUVictimWay(TreeBits[Set], Config.Assoc);
    } else {
      static_assert(P == CachePolicy::SRRIP, "unhandled policy");
      return detail::srripVictimWay(Base, Config.Assoc);
    }
  }

  template <CachePolicy P, bool A> void evictLine(ModelLine &L) {
    if (L.Dirty)
      writeBack(L);
    ++Stats.Evictions;
    if constexpr (A) {
      ++Attr->row(CurRef).EvictionsCaused;
      ++Attr->row(L.InstalledBy).EvictionsSuffered;
    }
    if constexpr (P == CachePolicy::LivenessBypass)
      trainDead(L); // Died without reuse => installer learns "dead".
    L.Valid = false;
    L.Dirty = false;
  }

  /// Reclaims a dead-hinted line (the paper's free-on-last-reference).
  /// \p ByRef is the accessor whose tag freed the line (attribution).
  template <CachePolicy P, bool A>
  void freeLine(ModelLine &L, uint32_t Set, uint32_t Way,
                uint16_t ByRef) {
    ++Stats.DeadFrees;
    if (Config.LineWords == 1) {
      if (L.Dirty) {
        ++Stats.DeadWriteBacksAvoided;
        if constexpr (A)
          ++Attr->row(ByRef).DeadWriteBacksSuppressed;
      }
      if constexpr (P == CachePolicy::LivenessBypass)
        trainDead(L); // Install + immediate free is dead-on-arrival.
      L.Valid = false;
      L.Dirty = false;
      return;
    }
    // Multi-word lines: other words in the line may still be live, so
    // the line is only demoted to the set's next victim (paper's
    // alternative), in whatever state the policy uses for that.
    L.LastUsed = 0;
    L.InsertedAt = 0;
    L.NextUse = Never;
    if constexpr (P == CachePolicy::SRRIP) {
      L.RRPV = SRRIPMaxRRPV;
    } else if constexpr (P == CachePolicy::TreePLRU) {
      if (Config.Assoc > 1)
        TreeBits[Set] =
            detail::treePLRUPointAt(TreeBits[Set], Config.Assoc, Way);
    }
    (void)Set;
    (void)Way;
  }

  /// First reuse of the line's current generation: the installer's
  /// dead counter decays toward "live".
  void trainLive(ModelLine &L) {
    if (L.Reused)
      return;
    L.Reused = true;
    uint8_t &C = Dead[L.InstalledBy];
    if (C > 0)
      --C;
  }

  /// The line died (evicted or dead-freed) without any reuse since its
  /// install: the installer's dead counter saturates toward "dead".
  void trainDead(ModelLine &L) {
    if (L.Reused)
      return;
    uint8_t &C = Dead[L.InstalledBy];
    if (C < PredictorMax)
      ++C;
  }

  CacheConfig Config;
  CacheGeometry Geometry;
  CachePolicy Policy;
  std::shared_ptr<const std::vector<uint64_t>> NextUses;
  SplitMix64 Rng;
  uint32_t ShardDiv;
  std::vector<ModelLine> Lines;
  /// Tree-PLRU node bits, one word per (local) set (TreePLRU only).
  std::vector<uint64_t> TreeBits;
  /// LivenessBypass: per-RefId 2-bit dead-on-arrival counters, indexed
  /// directly by the uint16 RefId (MemRefInfo::NoRefId shares one slot,
  /// mirroring the attribution overflow row).
  std::vector<uint8_t> Dead;
  uint64_t Probe = 0; ///< LivenessBypass predicted-dead access count.
  CacheStats Stats;
  RefAttribution *Attr = nullptr;
  uint16_t CurRef = MemRefInfo::NoRefId;
  uint64_t Tick = 0;
  [[no_unique_address]] std::conditional_t<Data, WordStore, NoStore> Store;
};

/// Tags and counters only: trace replay, and the simulator's read-only
/// instruction cache.
using CacheModel = CacheModelT</*Data=*/false>;
/// Tags, counters and line words over a MainMemory: the simulator's
/// generic live data cache (the paper geometry takes TwoWayWB1Cache).
using LiveCache = CacheModelT</*Data=*/true>;

/// Replays \p Trace against a cache with geometry \p Config (the
/// Config.Policy field is ignored; \p Policy is used instead). Returns
/// the event counters.
CacheStats replayTrace(const std::vector<TraceEvent> &Trace,
                       const CacheConfig &Config, CachePolicy Policy);

} // namespace urcm

#endif // URCM_SIM_CACHEMODEL_H
