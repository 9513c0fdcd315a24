//===- urcm/regalloc/RegAlloc.h - Register allocation -----------*- C++ -*-===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Register allocation over webs. Two classic policies (paper section
/// 2.1.2):
///
///  * Chaitin–Briggs graph coloring with optimistic simplification and
///    spill-everywhere spill code [ChA81] [Cha82];
///  * Freiburghouse usage counts [Fre74]: the most-referenced webs
///    (weighted 10^loop-depth) get registers, the rest live in memory.
///
/// Spill code follows the unified model (paper section 4.2): spill stores
/// are tagged RefClass::Spill (they go to cache — AmSp_STORE), reloads are
/// tagged RefClass::SpillReload (the cached copy dies once reloaded).
/// The final last-reference bit assignment is done later by the unified
/// management pass using memory liveness.
///
/// After allocation every virtual register number is < NumColors and can
/// be used directly as a machine register number by the code generator.
///
//===----------------------------------------------------------------------===//

#ifndef URCM_REGALLOC_REGALLOC_H
#define URCM_REGALLOC_REGALLOC_H

#include "urcm/ir/IR.h"

#include <cstdint>

namespace urcm {

class AnalysisManager;

/// Which allocation algorithm to run.
enum class RegAllocPolicy { ChaitinBriggs, UsageCount };

/// Allocation knobs.
struct RegAllocOptions {
  /// Number of allocatable machine registers (colors).
  uint32_t NumColors = 24;
  RegAllocPolicy Policy = RegAllocPolicy::ChaitinBriggs;
  /// Safety valve for the build-color-spill loop.
  uint32_t MaxIterations = 16;
};

/// Per-function allocation statistics.
struct RegAllocStats {
  uint32_t NumWebs = 0;
  uint32_t NumSpilledWebs = 0;
  uint32_t NumSpillSlots = 0;
  uint32_t NumColorsUsed = 0;
  uint32_t Iterations = 0;
};

/// Allocates registers for \p F in place. Returns statistics. Asserts
/// that allocation converged (it always does: spill temps have minimal
/// live ranges, so the graph eventually colors). Liveness, reaching
/// defs, webs and loop weights come from \p AM; each mutation round
/// invalidates them while preserving block structure (CFG, dominators,
/// loops), which allocation never changes.
RegAllocStats allocateRegisters(IRModule &M, IRFunction &F,
                                const RegAllocOptions &Options,
                                AnalysisManager &AM);

/// Runs allocation over every function in \p M; returns summed stats.
RegAllocStats allocateRegisters(IRModule &M, const RegAllocOptions &Options,
                                AnalysisManager &AM);

} // namespace urcm

#endif // URCM_REGALLOC_REGALLOC_H
