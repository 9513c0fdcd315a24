//===- urcm/transforms/Transforms.h - IR cleanup passes ---------*- C++ -*-===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Classic scalar cleanup passes over URCM IR:
///
///  * copy propagation — the paper's Definition 1 remark in section
///    4.1.1.1 ("explicitly made copies of values can all share a single
///    aliased-object name (i.e., the compiler can perform copy
///    propagation)");
///  * dead code elimination — drops instructions whose results are never
///    used (calls, stores and prints are preserved);
///  * dead store elimination — removes stores to private scalar
///    locations whose value is provably never read (the *software*
///    counterpart of the paper's hardware dead-line dropping; keeping it
///    optional lets the benchmarks compare compiler-side vs cache-side
///    handling of dead values).
///
/// All passes preserve program output; the interpreter-based
/// differential tests enforce this.
///
//===----------------------------------------------------------------------===//

#ifndef URCM_TRANSFORMS_TRANSFORMS_H
#define URCM_TRANSFORMS_TRANSFORMS_H

#include "urcm/ir/IR.h"

#include <cstdint>

namespace urcm {

class AnalysisManager;
class MemoryLiveness;

/// Statistics returned by the cleanup pipeline.
struct TransformStats {
  uint64_t CopiesPropagated = 0;
  uint64_t RedundantComputations = 0;
  uint64_t ForwardedLoads = 0;
  uint64_t DeadInstsRemoved = 0;
  uint64_t DeadStoresRemoved = 0;
};

/// Block-local copy propagation. Returns the number of operand rewrites.
uint64_t propagateCopies(IRFunction &F);

/// Removes side-effect-free instructions whose destinations are unused.
/// Returns the number of instructions removed.
uint64_t eliminateDeadCode(IRFunction &F);

/// Removes stores to tracked private scalar locations that are never
/// read afterwards. Returns the number of stores removed.
uint64_t eliminateDeadStores(IRModule &M, IRFunction &F);

/// Same, against caller-provided memory liveness (typically the
/// AnalysisManager's cached result).
uint64_t eliminateDeadStores(IRModule &M, IRFunction &F,
                             const MemoryLiveness &ML);

/// Pass-pipeline knobs.
struct TransformOptions {
  bool CopyPropagation = true;
  /// Local value numbering + alias-aware load forwarding (see
  /// urcm/transforms/ValueNumbering.h).
  bool ValueNumbering = true;
  bool DeadCodeElimination = true;
  /// Off by default: the paper's point is that the *cache* can drop dead
  /// values; enable to compare compiler-side elimination.
  bool DeadStoreElimination = false;
  /// Iterate until no pass makes progress (bounded).
  uint32_t MaxRounds = 4;
};

/// Runs the enabled passes to a fixed point over the whole module.
/// Alias and memory-liveness facts come from \p AM; every sub-pass that
/// changes a function invalidates its cached results (block structure —
/// CFG, dominators, loops — is preserved: these passes rewrite
/// instructions, never edges).
TransformStats runCleanupPipeline(IRModule &M,
                                  const TransformOptions &Options,
                                  AnalysisManager &AM);

} // namespace urcm

#endif // URCM_TRANSFORMS_TRANSFORMS_H
