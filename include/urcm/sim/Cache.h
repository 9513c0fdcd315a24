//===- urcm/sim/Cache.h - Cache vocabulary and fast cache -------*- C++ -*-===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cache vocabulary: write policy, geometry, event counters, index
/// arithmetic, the access-time model and the paranoid main memory. The
/// one cache model, live and replayed, is CacheModelT
/// (urcm/sim/CacheModel.h), which also documents the hint-bit semantics.
///
//===----------------------------------------------------------------------===//

#ifndef URCM_SIM_CACHE_H
#define URCM_SIM_CACHE_H

#include "urcm/ir/IR.h" // MemRefInfo.
#include "urcm/sim/CachePolicy.h"
#include "urcm/sim/RefAttribution.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace urcm {

/// Write policies. The paper's write-back model is the default; a
/// write-through/no-allocate option is provided as an ablation — under
/// write-through the dead bit can still free lines early but has no
/// write-back traffic to save.
enum class WritePolicy { WriteBack, WriteThrough };

const char *writePolicyName(WritePolicy Policy);

/// Cache geometry and policy.
struct CacheConfig {
  /// Total number of lines.
  uint32_t NumLines = 128;
  /// Associativity (lines per set). NumLines % Assoc must be 0.
  uint32_t Assoc = 2;
  /// Words per line; the paper assumes 1.
  uint32_t LineWords = 1;
  /// A live cache accepts every cachePolicyLiveEligible() member (LRU,
  /// FIFO, Random, TreePLRU, SRRIP); MIN and LivenessBypass are
  /// replay-only (urcm/sim/CacheModel.h).
  CachePolicy Policy = CachePolicy::LRU;
  WritePolicy Write = WritePolicy::WriteBack;
  /// Seed for the Random policy.
  uint64_t Seed = 0x5eed;

  friend bool operator==(const CacheConfig &, const CacheConfig &) = default;
};

/// Event counters. "Words" counters measure cache<->memory traffic in
/// machine words; CPU-side counters measure references.
struct CacheStats {
  uint64_t Reads = 0;      ///< Through-cache CPU reads.
  uint64_t Writes = 0;     ///< Through-cache CPU writes.
  uint64_t ReadHits = 0;
  uint64_t WriteHits = 0;
  uint64_t Fills = 0;          ///< Line fills from memory.
  uint64_t FillWords = 0;
  uint64_t WriteBacks = 0;     ///< Dirty evictions written to memory.
  uint64_t WriteBackWords = 0;
  uint64_t Evictions = 0;
  uint64_t DeadFrees = 0;              ///< Lines freed by last-ref tags.
  uint64_t DeadWriteBacksAvoided = 0;  ///< Dirty dead lines dropped.
  uint64_t BypassReads = 0;   ///< Bypassed reads served by memory.
  uint64_t BypassWrites = 0;  ///< Bypassed writes sent to memory.
  uint64_t BypassHitMigrations = 0; ///< UmAm_LOAD hits that freed a line.
  /// Words sent to memory by write-through stores (WriteThrough only).
  uint64_t WriteThroughWords = 0;
  /// Write-backs performed when the program ends (not part of steady
  /// traffic).
  uint64_t FlushWriteBackWords = 0;

  /// Accumulates \p O field by field. Every counter is additive over a
  /// partition of the reference stream, which is what lets set-sharded
  /// replay (urcm/sim/ShardedReplay.h) sum per-shard counters into the
  /// exact sequential totals.
  CacheStats &operator+=(const CacheStats &O) {
    Reads += O.Reads;
    Writes += O.Writes;
    ReadHits += O.ReadHits;
    WriteHits += O.WriteHits;
    Fills += O.Fills;
    FillWords += O.FillWords;
    WriteBacks += O.WriteBacks;
    WriteBackWords += O.WriteBackWords;
    Evictions += O.Evictions;
    DeadFrees += O.DeadFrees;
    DeadWriteBacksAvoided += O.DeadWriteBacksAvoided;
    BypassReads += O.BypassReads;
    BypassWrites += O.BypassWrites;
    BypassHitMigrations += O.BypassHitMigrations;
    WriteThroughWords += O.WriteThroughWords;
    FlushWriteBackWords += O.FlushWriteBackWords;
    return *this;
  }

  uint64_t misses() const { return Reads + Writes - ReadHits - WriteHits; }
  double hitRate() const {
    uint64_t Total = Reads + Writes;
    return Total == 0
               ? 0.0
               : static_cast<double>(ReadHits + WriteHits) / Total;
  }
  /// Traffic the data cache must handle, in words: CPU references that go
  /// through it plus its memory-side fills and write-backs. This is the
  /// quantity Figure 5's reduction is computed over.
  uint64_t cacheTraffic() const {
    return Reads + Writes + FillWords + WriteBackWords;
  }
  /// Memory/bus traffic in words (fills, write-backs, write-throughs
  /// and bypass words).
  uint64_t busTraffic() const {
    return FillWords + WriteBackWords + WriteThroughWords + BypassReads +
           BypassWrites;
  }

  std::string str() const;

  /// Field-wise equality; the sweep-engine tests assert byte-identical
  /// counters between the live cache, the replayer and the stack walk.
  friend bool operator==(const CacheStats &, const CacheStats &) = default;
};

/// Index arithmetic shared by the live cache and the trace replayers:
/// precomputes the set count and strength-reduces the per-access modulo
/// and division to masks/shifts when the geometry is a power of two
/// (always true for the paper configurations). Pure strength reduction —
/// results are identical to the naive `%` / `/` forms.
struct CacheGeometry {
  uint32_t NumSets = 1;
  uint32_t LineWords = 1;
  uint32_t SetMask = 0;   ///< NumSets - 1 when NumSets is a power of two.
  uint32_t LineShift = 0; ///< log2(LineWords) when a power of two.
  bool SetsPow2 = false;
  bool LinePow2 = false;

  CacheGeometry() = default;
  explicit CacheGeometry(const CacheConfig &Config) {
    NumSets = Config.NumLines / Config.Assoc;
    LineWords = Config.LineWords;
    SetsPow2 = NumSets != 0 && (NumSets & (NumSets - 1)) == 0;
    if (SetsPow2)
      SetMask = NumSets - 1;
    LinePow2 = LineWords != 0 && (LineWords & (LineWords - 1)) == 0;
    if (LinePow2)
      while ((1u << LineShift) < LineWords)
        ++LineShift;
  }

  uint64_t lineAddr(uint64_t Addr) const {
    if (LineWords == 1)
      return Addr;
    return LinePow2 ? Addr >> LineShift : Addr / LineWords;
  }
  uint32_t setOf(uint64_t LineAddress) const {
    return static_cast<uint32_t>(SetsPow2 ? LineAddress & SetMask
                                          : LineAddress % NumSets);
  }
  /// Addr % LineWords without the hardware divide on the common
  /// geometries (identical result).
  uint32_t wordInLine(uint64_t Addr) const {
    if (LineWords == 1)
      return 0;
    return static_cast<uint32_t>(LinePow2 ? Addr & (LineWords - 1)
                                          : Addr % LineWords);
  }
};

/// A simple memory-access-time model used to reproduce the paper's
/// section-4.4 claim ("speedups of total memory access time by factors
/// of 2 or more"): a through-cache hit costs CacheHitCycles, every word
/// that crosses the memory bus (fill, write-back, write-through, bypass)
/// costs MemoryCycles.
struct LatencyModel {
  uint32_t CacheHitCycles = 1;
  uint32_t MemoryCycles = 10;
};

/// Total data memory-access time, in cycles, for the traffic in \p Stats.
uint64_t memoryAccessCycles(const CacheStats &Stats,
                            const LatencyModel &Model = LatencyModel());

/// Word-addressed main memory with a paranoid shadow copy: the shadow is
/// updated architecturally on every store, so any divergence between what
/// the cache hierarchy delivers and the shadow indicates an unsound
/// compiler hint.
class MainMemory {
public:
  explicit MainMemory(uint64_t SizeWords)
      : Data(SizeWords, 0), Shadow(SizeWords, 0) {}

  uint64_t size() const { return Data.size(); }

  int64_t read(uint64_t Addr) const { return Data[Addr]; }
  void write(uint64_t Addr, int64_t Value) { Data[Addr] = Value; }

  int64_t shadowRead(uint64_t Addr) const { return Shadow[Addr]; }
  void shadowWrite(uint64_t Addr, int64_t Value) { Shadow[Addr] = Value; }

private:
  std::vector<int64_t> Data;
  std::vector<int64_t> Shadow;
};

#if defined(__GNUC__)
// The simulator's load/store handlers live inside one large dispatch
// function; GCC's function-growth limit refuses to inline the live
// cache's access there (urcm/sim/CacheModel.h), leaving a call on every
// simulated memory access.
#define URCM_CACHE_INLINE __attribute__((always_inline)) inline
#else
#define URCM_CACHE_INLINE inline
#endif

} // namespace urcm

#endif // URCM_SIM_CACHE_H
