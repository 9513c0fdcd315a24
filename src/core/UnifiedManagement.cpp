//===- UnifiedManagement.cpp - The paper's core pass --------------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "urcm/core/UnifiedManagement.h"

#include "urcm/analysis/AliasAnalysis.h"
#include "urcm/analysis/CallFrequency.h"
#include "urcm/analysis/Loops.h"
#include "urcm/analysis/MemoryLiveness.h"
#include "urcm/pass/Analyses.h"
#include "urcm/support/StringUtils.h"
#include "urcm/support/Telemetry.h"

#include <unordered_map>

using namespace urcm;

URCM_STAT(NumRefsClassified, "unified.refs",
          "Memory references classified by the unified pass");
URCM_STAT(NumUnambiguous, "unified.unambiguous",
          "References proven unambiguous");
URCM_STAT(NumAmbiguous, "unified.ambiguous",
          "References left ambiguous");
URCM_STAT(NumSpillRefs, "unified.spill-refs",
          "Spill/reload references from the register allocator");
URCM_STAT(NumBypass, "unified.bypass",
          "References marked cache-bypass (UmAm forms)");
URCM_STAT(NumLastRef, "unified.lastref-tags",
          "Loads tagged as the last read of their location");
URCM_STAT(NumDeadStore, "unified.deadstore-tags",
          "Stores tagged dead-on-arrival");

namespace {

/// Builds the -Rurcm-classify record for one classified reference.
/// Only called behind a non-null classifySink().
telemetry::ClassifyRemark
makeRemark(const IRFunction &F, const Instruction &I,
           const MemRefInfo &Info, const UnifiedOptions &Options) {
  telemetry::ClassifyRemark R;
  R.Function = F.name();
  R.Line = I.Loc.Line;
  R.Col = I.Loc.Col;
  R.Bypass = Info.Bypass;
  R.LastRef = Info.LastRef;
  R.AliasSet = Info.AliasSetId;

  // Paper reference forms (section 4.3): bypassing traffic uses the
  // UmAm forms; cached loads are Am_LOAD, cached stores AmSp_STORE.
  if (I.isLoad())
    R.Form = Info.Bypass ? "UmAm_LOAD" : "Am_LOAD";
  else
    R.Form = Info.Bypass ? "UmAm_STORE" : "AmSp_STORE";

  switch (Info.Class) {
  case RefClass::Unambiguous:
    R.Verdict = "unambiguous";
    break;
  case RefClass::Ambiguous:
    R.Verdict = "ambiguous";
    break;
  case RefClass::Spill:
    R.Verdict = "spill";
    break;
  case RefClass::SpillReload:
    R.Verdict = "spill-reload";
    break;
  case RefClass::Unknown:
    R.Verdict = "unknown";
    break;
  }

  if (Info.Bypass)
    R.Reason = "unambiguous";
  else if (Info.Class == RefClass::Ambiguous)
    R.Reason = "ambiguous-alias";
  else if (Info.Class == RefClass::Spill)
    R.Reason = "spill";
  else if (Info.Class == RefClass::SpillReload)
    R.Reason = "spill-reload";
  else if (!Options.EnableBypass)
    R.Reason = "hints-disabled";
  else
    R.Reason = "reuse-hot";

  if (Info.LastRef)
    R.DeadReason = I.isLoad() ? "last-read" : "dead-store";
  return R;
}

} // namespace

namespace {

/// Loop-weighted reference weight per abstract object, used by the
/// ReuseAware bypass policy: hot locations (reused inside loops) stay
/// cached, cold ones bypass. Loop weights come from the caller's cached
/// LoopInfo rather than a private CFG + dominators + loops rebuild.
std::unordered_map<uint32_t, double>
computeReuseWeights(const IRFunction &F, const LoopInfo &LI,
                    const AliasInfo &AA, double FunctionFrequency) {
  std::unordered_map<uint32_t, double> Weight;
  for (const auto &B : F.blocks()) {
    double W = LI.refWeight(B->id()) * FunctionFrequency;
    for (const Instruction &I : B->insts()) {
      if (!I.isMemAccess())
        continue;
      const Operand &Addr = I.addressOperand();
      if (Addr.isGlobal())
        Weight[AA.objectForGlobal(Addr.getId())] += W;
      else if (Addr.isFrame())
        Weight[AA.objectForFrame(Addr.getId())] += W;
    }
  }
  return Weight;
}

} // namespace

std::string ClassificationStats::str() const {
  return formatString(
      "refs: total=%llu unambiguous=%llu ambiguous=%llu spill=%llu "
      "(unambiguous %.1f%%), bypass=%llu lastref=%llu deadstore=%llu",
      static_cast<unsigned long long>(totalRefs()),
      static_cast<unsigned long long>(UnambiguousRefs),
      static_cast<unsigned long long>(AmbiguousRefs),
      static_cast<unsigned long long>(SpillRefs),
      unambiguousFraction() * 100.0,
      static_cast<unsigned long long>(BypassRefs),
      static_cast<unsigned long long>(LastRefTags),
      static_cast<unsigned long long>(DeadStoreTags));
}

ClassificationStats
urcm::applyUnifiedManagement(IRModule &M, const UnifiedOptions &Options,
                             AnalysisManager &AM) {
  ClassificationStats Stats;

  for (const auto &F : M.functions()) {
    const AliasInfo &AA = AM.get<AliasAnalysisInfo>(*F);
    const MemoryLiveness &ML = AM.get<MemoryLivenessAnalysis>(*F);
    std::unordered_map<uint32_t, double> ReuseWeight;
    if (Options.Policy == BypassPolicy::ReuseAware) {
      const CallFrequencyEstimate &Frequencies =
          AM.getModule<CallFrequencyAnalysis>();
      ReuseWeight = computeReuseWeights(*F, AM.get<LoopAnalysis>(*F), AA,
                                        Frequencies.frequency(F->id()));
    }

    auto ShouldBypass = [&](const Instruction &I) {
      if (!Options.EnableBypass)
        return false;
      if (Options.Policy == BypassPolicy::AllUnambiguous)
        return true;
      const Operand &Addr = I.addressOperand();
      uint32_t Obj = Addr.isGlobal()
                         ? AA.objectForGlobal(Addr.getId())
                         : AA.objectForFrame(Addr.getId());
      auto It = ReuseWeight.find(Obj);
      double W = It == ReuseWeight.end() ? 0.0 : It->second;
      return W < Options.ReuseThreshold;
    };

    for (const auto &B : F->blocks()) {
      for (uint32_t Index = 0; Index != B->insts().size(); ++Index) {
        Instruction &I = B->insts()[Index];
        if (!I.isMemAccess())
          continue;

        MemRefInfo &Info = I.MemInfo;

        // 1. Classification. Spill classes were assigned by the register
        //    allocator and are kept; everything else is decided by alias
        //    analysis.
        if (Info.Class != RefClass::Spill &&
            Info.Class != RefClass::SpillReload) {
          Info.Class = AA.isUnambiguous(I) ? RefClass::Unambiguous
                                           : RefClass::Ambiguous;
          Info.AliasSetId = static_cast<int16_t>(AA.aliasSetId(I));
        }

        switch (Info.Class) {
        case RefClass::Unambiguous:
          ++Stats.UnambiguousRefs;
          break;
        case RefClass::Ambiguous:
          ++Stats.AmbiguousRefs;
          break;
        case RefClass::Spill:
        case RefClass::SpillReload:
          ++Stats.SpillRefs;
          break;
        case RefClass::Unknown:
          break;
        }

        // 2. Bypass bit (paper section 4.3):
        //    UmAm_LOAD / UmAm_STORE bypass; Am_LOAD / AmSp_STORE and all
        //    spill traffic go through the cache. Under ReuseAware, hot
        //    unambiguous locations also stay cached (section 4.2: cache
        //    is used only where it may improve performance).
        Info.Bypass =
            Info.Class == RefClass::Unambiguous && ShouldBypass(I);
        if (Info.Bypass)
          ++Stats.BypassRefs;

        // 3. Last-reference bit (paper section 3.1): set on the final
        //    read of a tracked location, and implicitly on every spill
        //    reload whose slot is dead afterwards (section 4.2 rule [3]).
        MemoryLiveness::RefFlags Flags = ML.flags(B->id(), Index);
        Info.LastRef = false;
        if (Options.EnableDeadTag && Flags.Tracked) {
          if (I.isLoad() && Flags.LastRef) {
            Info.LastRef = true;
            ++Stats.LastRefTags;
          } else if (I.isStore() && Flags.DeadStore) {
            // A store never read again: the line is dead on arrival. The
            // hardware may install it as immediately-reclaimable.
            Info.LastRef = true;
            ++Stats.DeadStoreTags;
          }
        }

        if (telemetry::RemarkSink *Sink = telemetry::classifySink())
          Sink->remark(makeRemark(*F, I, Info, Options));
      }
    }
  }

  NumRefsClassified.add(Stats.totalRefs());
  NumUnambiguous.add(Stats.UnambiguousRefs);
  NumAmbiguous.add(Stats.AmbiguousRefs);
  NumSpillRefs.add(Stats.SpillRefs);
  NumBypass.add(Stats.BypassRefs);
  NumLastRef.add(Stats.LastRefTags);
  NumDeadStore.add(Stats.DeadStoreTags);
  return Stats;
}
