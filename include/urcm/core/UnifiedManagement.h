//===- urcm/core/UnifiedManagement.h - The paper's core pass ----*- C++ -*-===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unified registers/cache management pass — the paper's primary
/// contribution (section 4). Running over register-allocated IR, it:
///
///  1. classifies every Load/Store as *unambiguous*, *ambiguous* or
///     *spill* traffic using alias analysis (section 4.1);
///  2. sets the cache-bypass bit: unambiguous references bypass
///     (UmAm_LOAD / UmAm_STORE), ambiguous references and spills go
///     through the cache (Am_LOAD / AmSp_STORE) — section 4.3;
///  3. sets the last-reference (dead) bit from memory liveness so the
///     hardware can free lines and drop dead dirty copies — section 3.1.
///
/// The pass is parameterized so the benchmark harness can run the
/// conventional scheme (no hints), bypass-only, dead-tag-only, or the
/// full unified scheme.
///
//===----------------------------------------------------------------------===//

#ifndef URCM_CORE_UNIFIEDMANAGEMENT_H
#define URCM_CORE_UNIFIEDMANAGEMENT_H

#include "urcm/ir/IR.h"

#include <string>

namespace urcm {

class AnalysisManager;

/// How aggressively unambiguous references bypass the cache.
enum class BypassPolicy {
  /// Bypass every unambiguous reference — the paper's Figure-5 claim
  /// ("70 to 80 percent ... should be bypassed the cache").
  AllUnambiguous,
  /// Section 4.2's refinement: "cache will only be used when it may
  /// improve performance". A location whose loop-weighted reuse exceeds
  /// a threshold stays cache-managed (it would hit nearly always);
  /// cold unambiguous locations bypass. This is the selective-bypass
  /// criterion of [ChD89].
  ReuseAware,
};

/// Which compiler-to-cache hints to emit.
struct UnifiedOptions {
  /// Emit the per-reference cache-bypass bit for unambiguous values.
  bool EnableBypass = true;
  /// Emit the last-reference (dead) bit.
  bool EnableDeadTag = true;
  BypassPolicy Policy = BypassPolicy::AllUnambiguous;
  /// ReuseAware: locations with loop-weighted reference weight at or
  /// above this stay cached.
  double ReuseThreshold = 10.0;

  static UnifiedOptions conventional() { return {false, false}; }
  static UnifiedOptions bypassOnly() { return {true, false}; }
  static UnifiedOptions deadTagOnly() { return {false, true}; }
  static UnifiedOptions unified() { return {true, true}; }
  static UnifiedOptions reuseAware() {
    UnifiedOptions Options = unified();
    Options.Policy = BypassPolicy::ReuseAware;
    return Options;
  }
};

/// Static classification counts over a module (paper section 5's static
/// measurement).
struct ClassificationStats {
  uint64_t UnambiguousRefs = 0;
  uint64_t AmbiguousRefs = 0;
  uint64_t SpillRefs = 0; // Spill + SpillReload.
  uint64_t BypassRefs = 0;
  uint64_t LastRefTags = 0;
  uint64_t DeadStoreTags = 0;

  uint64_t totalRefs() const {
    return UnambiguousRefs + AmbiguousRefs + SpillRefs;
  }
  /// Fraction of data references statically marked unambiguous (the
  /// paper reports 70-80%). Spills count as unambiguous names.
  double unambiguousFraction() const {
    uint64_t Total = totalRefs();
    return Total == 0
               ? 0.0
               : static_cast<double>(UnambiguousRefs + SpillRefs) / Total;
  }

  std::string str() const;
};

/// Runs the unified-management pass over \p M in place: classifies every
/// memory reference and sets the bypass / last-reference bits according
/// to \p Options. Returns the static classification statistics. Alias,
/// memory-liveness, loop and call-frequency facts come from \p AM; the
/// pass itself only writes hint bits no analysis reads, so it preserves
/// every cached result.
ClassificationStats applyUnifiedManagement(IRModule &M,
                                           const UnifiedOptions &Options,
                                           AnalysisManager &AM);

} // namespace urcm

#endif // URCM_CORE_UNIFIEDMANAGEMENT_H
