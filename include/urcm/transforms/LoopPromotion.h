//===- urcm/transforms/LoopPromotion.h - Scalar loop promotion --*- C++ -*-===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Register promotion of unaliased scalars across loops — the
/// register-side half of the paper's unified model (section 4.2 rule
/// [1]: "when a register will be used for a series of operations, the
/// loading and storing of the value into a register should bypass the
/// cache").
///
/// For every natural loop that contains no calls, each *unambiguous*
/// scalar location (a never-escaping global or frame scalar) referenced
/// inside the loop is promoted: one load in a new preheader, register
/// references inside the loop, and — when the loop stores the location —
/// one store on every exit edge (edges are split to keep the CFG and
/// definite-assignment exact). Alias analysis guarantees no pointer or
/// array reference can observe the location meanwhile, and the absence
/// of calls guarantees no other function can.
///
/// The pass iterates, so values promoted across an inner loop hoist
/// again across call-free outer loops.
///
//===----------------------------------------------------------------------===//

#ifndef URCM_TRANSFORMS_LOOPPROMOTION_H
#define URCM_TRANSFORMS_LOOPPROMOTION_H

#include "urcm/ir/IR.h"

#include <cstdint>

namespace urcm {

class AnalysisManager;

/// Promotion statistics.
struct LoopPromotionStats {
  uint64_t PromotedLocations = 0;
  uint64_t RewrittenRefs = 0;
  uint64_t PreheadersCreated = 0;
  uint64_t ExitStoresInserted = 0;
};

/// Runs scalar loop promotion over \p F until no further promotion is
/// possible (bounded). Loops, CFG and alias facts come from \p AM; each
/// successful round invalidates \p F's cached results (the CFG changed).
LoopPromotionStats promoteLoopScalars(IRModule &M, IRFunction &F,
                                      AnalysisManager &AM);

/// Module-wide form over a shared analysis cache.
LoopPromotionStats promoteLoopScalars(IRModule &M, AnalysisManager &AM);

} // namespace urcm

#endif // URCM_TRANSFORMS_LOOPPROMOTION_H
