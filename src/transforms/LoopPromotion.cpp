//===- LoopPromotion.cpp - Scalar loop promotion -------------------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "urcm/transforms/LoopPromotion.h"

#include "urcm/analysis/AliasAnalysis.h"
#include "urcm/analysis/CFG.h"
#include "urcm/analysis/Loops.h"
#include "urcm/pass/Analyses.h"

#include <algorithm>
#include <map>
#include <set>

using namespace urcm;

namespace {

/// A promotable location: one unescaping scalar object addressed
/// directly.
struct Location {
  bool IsGlobal;
  uint32_t Id;

  bool operator<(const Location &RHS) const {
    return std::tie(IsGlobal, Id) < std::tie(RHS.IsGlobal, RHS.Id);
  }
  Operand asOperand() const {
    return IsGlobal ? Operand::global(Id) : Operand::frame(Id);
  }
};

class Promoter {
public:
  Promoter(IRModule &M, IRFunction &F, AnalysisManager &AM)
      : M(M), F(F), AM(AM) {}

  /// Attempts one promotion round; returns true if anything changed.
  bool runOnce(LoopPromotionStats &Stats) {
    const CFGInfo &CFG = AM.get<CFGAnalysis>(F);
    const LoopInfo &LI = AM.get<LoopAnalysis>(F);
    const AliasInfo &AA = AM.get<AliasAnalysisInfo>(F);

    // Prefer inner loops: process deeper headers first so values hoist
    // level by level.
    std::vector<const LoopInfoEntry *> Loops;
    for (const LoopInfoEntry &L : LI.loops())
      Loops.push_back(&L);
    std::sort(Loops.begin(), Loops.end(),
              [&](const LoopInfoEntry *A, const LoopInfoEntry *B) {
                return LI.depth(A->Header) > LI.depth(B->Header);
              });

    for (const LoopInfoEntry *L : Loops)
      if (promoteLoop(*L, CFG, AA, Stats)) {
        // The CFG changed: every cached result for F is stale.
        AM.invalidate(F, PreservedAnalyses::none());
        return true;
      }
    return false;
  }

private:
  /// Identifies a promotable direct scalar reference.
  bool locationOf(const Instruction &I, const AliasInfo &AA,
                  Location &Out) {
    if (!I.isMemAccess())
      return false;
    const Operand &Addr = I.addressOperand();
    if (Addr.isGlobal() && Addr.getOffset() == 0) {
      uint32_t Obj = AA.objectForGlobal(Addr.getId());
      if (M.globals()[Addr.getId()].SizeWords == 1 &&
          !AA.objectEscapes(Obj)) {
        Out = Location{true, Addr.getId()};
        return true;
      }
    }
    if (Addr.isFrame() && Addr.getOffset() == 0) {
      const IRFrameSlot &Slot = F.frameSlots()[Addr.getId()];
      uint32_t Obj = AA.objectForFrame(Addr.getId());
      if (Slot.SizeWords == 1 && Slot.Kind == FrameSlotKind::LocalVar &&
          !AA.objectEscapes(Obj)) {
        Out = Location{false, Addr.getId()};
        return true;
      }
    }
    return false;
  }

  bool promoteLoop(const LoopInfoEntry &L, const CFGInfo &CFG,
                   const AliasInfo &AA, LoopPromotionStats &Stats) {
    std::set<uint32_t> InLoop(L.Blocks.begin(), L.Blocks.end());

    // Calls forbid promotion: callees may reference globals by name.
    for (uint32_t BlockId : L.Blocks)
      for (const Instruction &I : F.block(BlockId)->insts())
        if (I.isCall())
          return false;

    // Collect candidate locations and whether each is stored.
    std::map<Location, bool> Stored;
    for (uint32_t BlockId : L.Blocks) {
      for (const Instruction &I : F.block(BlockId)->insts()) {
        Location Loc{};
        if (!locationOf(I, AA, Loc))
          continue;
        auto [It, Inserted] = Stored.try_emplace(Loc, false);
        It->second |= I.isStore();
      }
    }
    if (Stored.empty())
      return false;

    // Header entry edges from outside the loop.
    std::vector<uint32_t> OutsidePreds;
    for (uint32_t Pred : CFG.preds(L.Header))
      if (!InLoop.count(Pred))
        OutsidePreds.push_back(Pred);
    if (OutsidePreds.empty())
      return false; // Unreachable or irreducible entry; skip.

    // Exit edges (block in loop -> successor outside).
    std::vector<std::pair<uint32_t, uint32_t>> ExitEdges;
    for (uint32_t BlockId : L.Blocks)
      for (uint32_t Succ : CFG.succs(BlockId))
        if (!InLoop.count(Succ))
          ExitEdges.push_back({BlockId, Succ});

    // Assign a home register per location.
    std::map<Location, Reg> Home;
    for (const auto &[Loc, WasStored] : Stored)
      Home[Loc] = F.newReg();

    // 1. Preheader: load every location, then enter the header.
    BasicBlock *Preheader = F.addBlock("loop.preheader");
    for (const auto &[Loc, Ignored] : Stored) {
      Instruction Load(Opcode::Load, Home[Loc], {Loc.asOperand()});
      Preheader->insts().push_back(std::move(Load));
    }
    Preheader->insts().push_back(Instruction(
        Opcode::Br, NoReg, {Operand::block(Preheader->id())}));
    // Fix the Br target to the header (self-placeholder replaced).
    Preheader->insts().back().Ops[0] = Operand::block(L.Header);
    ++Stats.PreheadersCreated;

    // Redirect outside entries to the preheader.
    for (uint32_t Pred : OutsidePreds)
      redirect(F.block(Pred)->back(), L.Header, Preheader->id());

    // 2. Split exit edges that need store-backs. When none of the
    //    locations was stored, exits need nothing.
    bool AnyStored = false;
    for (const auto &[Loc, WasStored] : Stored)
      AnyStored |= WasStored;
    if (AnyStored) {
      for (const auto &[From, To] : ExitEdges) {
        BasicBlock *ExitStub = F.addBlock("loop.exit");
        for (const auto &[Loc, WasStored] : Stored) {
          if (!WasStored)
            continue;
          Instruction Store(Opcode::Store, NoReg,
                            {Operand::reg(Home[Loc]), Loc.asOperand()});
          ExitStub->insts().push_back(std::move(Store));
          ++Stats.ExitStoresInserted;
        }
        ExitStub->insts().push_back(
            Instruction(Opcode::Br, NoReg, {Operand::block(To)}));
        redirect(F.block(From)->back(), To, ExitStub->id());
      }
    }

    // 3. Rewrite references inside the loop.
    for (uint32_t BlockId : L.Blocks) {
      for (Instruction &I : F.block(BlockId)->insts()) {
        Location Loc{};
        if (!locationOf(I, AA, Loc))
          continue;
        Reg R = Home[Loc];
        if (I.isLoad()) {
          I = Instruction(Opcode::Mov, I.Dst, {Operand::reg(R)}, I.Loc);
        } else {
          I = Instruction(Opcode::Mov, R, {I.Ops[0]}, I.Loc);
        }
        ++Stats.RewrittenRefs;
      }
    }
    Stats.PromotedLocations += Stored.size();
    return true;
  }

  /// Rewrites block operands of terminator \p Term from \p OldTarget to
  /// \p NewTarget.
  static void redirect(Instruction &Term, uint32_t OldTarget,
                       uint32_t NewTarget) {
    for (Operand &O : Term.Ops)
      if (O.isBlock() && O.getId() == OldTarget)
        O = Operand::block(NewTarget);
  }

  IRModule &M;
  IRFunction &F;
  AnalysisManager &AM;
};

} // namespace

LoopPromotionStats urcm::promoteLoopScalars(IRModule &M, IRFunction &F,
                                            AnalysisManager &AM) {
  LoopPromotionStats Stats;
  Promoter P(M, F, AM);
  // Each successful round mutates the CFG; bound the work generously.
  for (unsigned Round = 0; Round != 64; ++Round)
    if (!P.runOnce(Stats))
      break;
  return Stats;
}

LoopPromotionStats urcm::promoteLoopScalars(IRModule &M,
                                            AnalysisManager &AM) {
  LoopPromotionStats Total;
  for (const auto &F : M.functions()) {
    LoopPromotionStats S = promoteLoopScalars(M, *F, AM);
    Total.PromotedLocations += S.PromotedLocations;
    Total.RewrittenRefs += S.RewrittenRefs;
    Total.PreheadersCreated += S.PreheadersCreated;
    Total.ExitStoresInserted += S.ExitStoresInserted;
  }
  return Total;
}
