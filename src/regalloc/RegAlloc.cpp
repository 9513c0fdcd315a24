//===- RegAlloc.cpp - Register allocation over webs --------------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "urcm/regalloc/RegAlloc.h"

#include "urcm/analysis/CFG.h"
#include "urcm/analysis/Liveness.h"
#include "urcm/analysis/Loops.h"
#include "urcm/analysis/ReachingDefs.h"
#include "urcm/analysis/Webs.h"
#include "urcm/pass/Analyses.h"
#include "urcm/support/StringUtils.h"
#include "urcm/support/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <map>

using namespace urcm;

URCM_STAT(NumRAFunctions, "regalloc.functions", "Functions allocated");
URCM_STAT(NumRAWebs, "regalloc.webs", "Webs presented to the allocator");
URCM_STAT(NumRASpilledWebs, "regalloc.spilled-webs", "Webs spilled to memory");
URCM_STAT(NumRASpillSlots, "regalloc.spill-slots", "Spill slots created");
URCM_STAT(NumRAIterations, "regalloc.iterations",
          "Color/spill rounds across all functions");

namespace {

/// Triangular-matrix interference graph with adjacency lists.
class InterferenceGraph {
public:
  explicit InterferenceGraph(uint32_t N)
      : N(N), Bits(static_cast<size_t>(N) * N, false), Adj(N) {}

  void addEdge(uint32_t A, uint32_t B) {
    if (A == B || Bits[index(A, B)])
      return;
    Bits[index(A, B)] = true;
    Bits[index(B, A)] = true;
    Adj[A].push_back(B);
    Adj[B].push_back(A);
  }
  bool interferes(uint32_t A, uint32_t B) const {
    return A != B && Bits[index(A, B)];
  }
  const std::vector<uint32_t> &neighbors(uint32_t A) const { return Adj[A]; }
  uint32_t degree(uint32_t A) const {
    return static_cast<uint32_t>(Adj[A].size());
  }

private:
  size_t index(uint32_t A, uint32_t B) const {
    return static_cast<size_t>(A) * N + B;
  }
  uint32_t N;
  std::vector<bool> Bits;
  std::vector<std::vector<uint32_t>> Adj;
};

class Allocator {
public:
  Allocator(IRModule &M, IRFunction &F, const RegAllocOptions &Options,
            AnalysisManager &AM)
      : M(M), F(F), Options(Options), AM(AM) {}

  RegAllocStats run() {
    assert(Options.NumColors >= 8 &&
           "need at least 8 colors for spill temporaries");
    RegAllocStats Stats;
    IsSpillTemp.assign(F.numRegs(), false);

    for (uint32_t Iter = 0; Iter != Options.MaxIterations; ++Iter) {
      Stats.Iterations = Iter + 1;
      renameWebs();
      Stats.NumWebs = F.numRegs();

      const Liveness &LV = AM.get<LivenessAnalysis>(F);
      const LoopInfo &LI = AM.get<LoopAnalysis>(F);

      InterferenceGraph IG = buildInterference(LV);
      std::vector<double> Cost = computeCosts(LI);
      std::vector<int32_t> Color =
          Options.Policy == RegAllocPolicy::ChaitinBriggs
              ? colorChaitinBriggs(IG, Cost)
              : colorUsageCount(IG, Cost);

      std::vector<uint32_t> Spilled;
      for (uint32_t W = 0; W != Color.size(); ++W)
        if (Color[W] < 0)
          Spilled.push_back(W);

      if (Spilled.empty()) {
        uint32_t Used = rewriteToColors(Color);
        AM.invalidate(F, keepBlockStructure());
        Stats.NumColorsUsed = Used;
        Stats.NumSpillSlots = countSpillSlots();
        return Stats;
      }

      Stats.NumSpilledWebs += static_cast<uint32_t>(Spilled.size());
      insertSpillCode(Spilled);
      AM.invalidate(F, keepBlockStructure());
    }
    assert(false && "register allocation did not converge");
    return Stats;
  }

private:
  //===--------------------------------------------------------------------===
  // Web renaming: after this, virtual register == web id.
  //===--------------------------------------------------------------------===

  /// Allocation renames registers and inserts spill code but never
  /// touches block structure.
  static PreservedAnalyses keepBlockStructure() {
    PreservedAnalyses PA;
    PA.preserve<CFGAnalysis>()
        .preserve<DominatorTreeAnalysis>()
        .preserve<LoopAnalysis>();
    return PA;
  }

  void renameWebs() {
    const ReachingDefs &RD = AM.get<ReachingDefsAnalysis>(F);
    const WebAnalysis &WA = AM.get<WebsAnalysis>(F);
    const auto &Webs = WA.webs();

    // Def-site (block, index) -> def id.
    std::map<std::pair<uint32_t, uint32_t>, uint32_t> DefAt;
    for (uint32_t DefId = 0; DefId != RD.defs().size(); ++DefId) {
      const DefSite &D = RD.defs()[DefId];
      if (!D.isParam())
        DefAt[{D.Block, D.Index}] = DefId;
    }

    // Compute replacement operands before mutating anything.
    std::vector<bool> NewIsSpillTemp(Webs.size(), false);
    for (uint32_t W = 0; W != Webs.size(); ++W)
      for (uint32_t DefId : Webs[W].DefIds) {
        const DefSite &D = RD.defs()[DefId];
        if (!D.isParam() && IsSpillTemp.size() > D.Register &&
            IsSpillTemp[D.Register])
          NewIsSpillTemp[W] = true;
      }

    // Phase 1: resolve every register reference against the *unmutated*
    // function; phase 2: apply. (Resolving in place would corrupt the
    // block-prefix scans reachingDefsAt performs.)
    struct Rewrite {
      std::vector<Operand> Ops;
      Reg Dst;
    };
    std::vector<std::vector<Rewrite>> Rewrites(F.numBlocks());
    for (const auto &B : F.blocks()) {
      auto &BlockRewrites = Rewrites[B->id()];
      BlockRewrites.reserve(B->insts().size());
      for (uint32_t I = 0; I != B->insts().size(); ++I) {
        const Instruction &Inst = B->insts()[I];
        Rewrite RW{Inst.Ops, Inst.Dst};
        for (Operand &O : RW.Ops) {
          if (!O.isReg())
            continue;
          auto Reaching = RD.reachingDefsAt(F, B->id(), I, O.getReg());
          assert(!Reaching.empty() && "use without reaching def");
          O = Operand::reg(WA.webOfDef(Reaching[0]), O.getOffset());
        }
        if (Inst.Dst != NoReg) {
          auto It = DefAt.find({B->id(), I});
          assert(It != DefAt.end() && "unmapped definition site");
          RW.Dst = WA.webOfDef(It->second);
        }
        BlockRewrites.push_back(std::move(RW));
      }
    }
    for (const auto &B : F.blocks())
      for (uint32_t I = 0; I != B->insts().size(); ++I) {
        B->insts()[I].Ops = std::move(Rewrites[B->id()][I].Ops);
        B->insts()[I].Dst = Rewrites[B->id()][I].Dst;
      }

    // Parameter pseudo-defs are ids 0..numParams-1 in ReachingDefs order.
    for (uint32_t P = 0; P != F.numParams(); ++P)
      F.setParamReg(P, WA.webOfDef(P));

    F.setNumRegs(static_cast<uint32_t>(Webs.size()));
    IsSpillTemp = std::move(NewIsSpillTemp);
    AM.invalidate(F, keepBlockStructure());
  }

  //===--------------------------------------------------------------------===
  // Interference
  //===--------------------------------------------------------------------===

  InterferenceGraph buildInterference(const Liveness &LV) {
    InterferenceGraph IG(F.numRegs());

    // Parameters are all defined at entry: they interfere pairwise when
    // live into the entry block.
    std::vector<Reg> EntryLive;
    for (uint32_t P = 0; P != F.numParams(); ++P)
      if (LV.isLiveIn(0, F.paramReg(P)))
        EntryLive.push_back(F.paramReg(P));
    for (size_t A = 0; A < EntryLive.size(); ++A)
      for (size_t B = A + 1; B < EntryLive.size(); ++B)
        IG.addEdge(EntryLive[A], EntryLive[B]);

    for (const auto &Blk : F.blocks()) {
      LV.scanBlockBackward(
          F, Blk->id(), [&](uint32_t Index, const std::vector<bool> &Live) {
            const Instruction &Inst = Blk->insts()[Index];
            if (Inst.Dst == NoReg)
              return;
            // Chaitin's copy rule: a move's source does not interfere
            // with its destination.
            Reg CopySrc = NoReg;
            if (Inst.Op == Opcode::Mov && Inst.Ops[0].isReg())
              CopySrc = Inst.Ops[0].getReg();
            for (uint32_t R = 0; R != Live.size(); ++R)
              if (Live[R] && R != Inst.Dst && R != CopySrc)
                IG.addEdge(Inst.Dst, R);
          });
    }
    return IG;
  }

  /// Spill cost per web: sum of 10^loop-depth over its defs and uses.
  std::vector<double> computeCosts(const LoopInfo &LI) {
    std::vector<double> Cost(F.numRegs(), 0.0);
    std::vector<Reg> Uses;
    for (const auto &B : F.blocks()) {
      double W = LI.refWeight(B->id());
      for (const Instruction &I : B->insts()) {
        if (I.Dst != NoReg)
          Cost[I.Dst] += W;
        Uses.clear();
        I.appendUses(Uses);
        for (Reg R : Uses)
          Cost[R] += W;
      }
    }
    for (uint32_t R = 0; R != F.numRegs(); ++R)
      if (R < IsSpillTemp.size() && IsSpillTemp[R])
        Cost[R] = std::numeric_limits<double>::infinity();
    return Cost;
  }

  //===--------------------------------------------------------------------===
  // Coloring
  //===--------------------------------------------------------------------===

  std::vector<int32_t> colorChaitinBriggs(const InterferenceGraph &IG,
                                          const std::vector<double> &Cost) {
    const uint32_t N = F.numRegs();
    const uint32_t K = Options.NumColors;
    std::vector<uint32_t> Degree(N);
    for (uint32_t R = 0; R != N; ++R)
      Degree[R] = IG.degree(R);

    std::vector<bool> Removed(N, false);
    std::vector<uint32_t> Stack;
    Stack.reserve(N);

    for (uint32_t Placed = 0; Placed != N; ++Placed) {
      // Prefer a trivially colorable node; otherwise pick the cheapest
      // spill candidate (Briggs: push it optimistically).
      uint32_t Chosen = ~0u;
      for (uint32_t R = 0; R != N; ++R)
        if (!Removed[R] && Degree[R] < K) {
          Chosen = R;
          break;
        }
      if (Chosen == ~0u) {
        double Best = std::numeric_limits<double>::infinity();
        for (uint32_t R = 0; R != N; ++R) {
          if (Removed[R])
            continue;
          if (Chosen == ~0u)
            Chosen = R; // Fallback when every candidate is infinite-cost.
          double Metric = Cost[R] / (Degree[R] + 1.0);
          if (Metric < Best) {
            Best = Metric;
            Chosen = R;
          }
        }
      }
      assert(Chosen != ~0u && "no node to place");
      Removed[Chosen] = true;
      Stack.push_back(Chosen);
      for (uint32_t Nb : IG.neighbors(Chosen))
        if (!Removed[Nb] && Degree[Nb] > 0)
          --Degree[Nb];
    }

    // Optimistic select.
    std::vector<int32_t> Color(N, -1);
    for (auto It = Stack.rbegin(), E = Stack.rend(); It != E; ++It) {
      uint32_t R = *It;
      std::vector<bool> Used(K, false);
      for (uint32_t Nb : IG.neighbors(R))
        if (Color[Nb] >= 0)
          Used[Color[Nb]] = true;
      for (uint32_t C = 0; C != K; ++C)
        if (!Used[C]) {
          Color[R] = static_cast<int32_t>(C);
          break;
        }
    }
    return Color;
  }

  /// Freiburghouse/Chow-style priority allocation: highest usage count
  /// first, greedy color, spill what does not fit.
  std::vector<int32_t> colorUsageCount(const InterferenceGraph &IG,
                                       const std::vector<double> &Cost) {
    const uint32_t N = F.numRegs();
    const uint32_t K = Options.NumColors;
    std::vector<uint32_t> Order(N);
    for (uint32_t R = 0; R != N; ++R)
      Order[R] = R;
    std::stable_sort(Order.begin(), Order.end(),
                     [&](uint32_t A, uint32_t B) {
                       return Cost[A] > Cost[B];
                     });
    std::vector<int32_t> Color(N, -1);
    for (uint32_t R : Order) {
      std::vector<bool> Used(K, false);
      for (uint32_t Nb : IG.neighbors(R))
        if (Color[Nb] >= 0)
          Used[Color[Nb]] = true;
      for (uint32_t C = 0; C != K; ++C)
        if (!Used[C]) {
          Color[R] = static_cast<int32_t>(C);
          break;
        }
    }
    return Color;
  }

  //===--------------------------------------------------------------------===
  // Spill code
  //===--------------------------------------------------------------------===

  void insertSpillCode(const std::vector<uint32_t> &Spilled) {
    std::vector<int32_t> SlotOf(F.numRegs(), -1);
    for (uint32_t W : Spilled) {
      IRFrameSlot Slot;
      Slot.Name = formatString("spill.%u", NextSpillName++);
      Slot.SizeWords = 1;
      Slot.Kind = FrameSlotKind::Spill;
      SlotOf[W] = static_cast<int32_t>(F.addFrameSlot(Slot));
    }
    std::vector<bool> SpilledSet(F.numRegs(), false);
    for (uint32_t W : Spilled)
      SpilledSet[W] = true;

    IsSpillTemp.resize(F.numRegs(), false);

    for (const auto &B : F.blocks()) {
      std::vector<Instruction> NewInsts;
      NewInsts.reserve(B->insts().size() * 2);
      for (Instruction Inst : B->insts()) {
        // Reload each distinct spilled register used by Inst.
        std::map<Reg, Reg> TmpOf;
        for (Operand &O : Inst.Ops) {
          if (!O.isReg() || !SpilledSet[O.getReg()])
            continue;
          Reg Old = O.getReg();
          auto [It, Inserted] = TmpOf.try_emplace(Old, NoReg);
          if (Inserted) {
            Reg Tmp = F.newReg();
            IsSpillTemp.resize(F.numRegs(), false);
            IsSpillTemp[Tmp] = true;
            It->second = Tmp;
            Instruction Reload(Opcode::Load, Tmp,
                               {Operand::frame(SlotOf[Old])}, Inst.Loc);
            Reload.MemInfo.Class = RefClass::SpillReload;
            NewInsts.push_back(std::move(Reload));
          }
          O = Operand::reg(It->second, O.getOffset());
        }
        // Rewrite a spilled destination to a temp + store.
        Reg StoreFrom = NoReg;
        int32_t StoreSlot = -1;
        if (Inst.Dst != NoReg && SpilledSet[Inst.Dst]) {
          StoreSlot = SlotOf[Inst.Dst];
          Reg Tmp = F.newReg();
          IsSpillTemp.resize(F.numRegs(), false);
          IsSpillTemp[Tmp] = true;
          Inst.Dst = Tmp;
          StoreFrom = Tmp;
        }
        NewInsts.push_back(std::move(Inst));
        if (StoreFrom != NoReg) {
          Instruction Spill(Opcode::Store, NoReg,
                            {Operand::reg(StoreFrom),
                             Operand::frame(StoreSlot)});
          Spill.MemInfo.Class = RefClass::Spill;
          NewInsts.push_back(std::move(Spill));
        }
      }
      B->insts() = std::move(NewInsts);
    }

    // A spilled parameter web: store the incoming register at entry.
    for (uint32_t P = 0; P != F.numParams(); ++P) {
      Reg PR = F.paramReg(P);
      if (!SpilledSet[PR])
        continue;
      Instruction Spill(Opcode::Store, NoReg,
                        {Operand::reg(PR), Operand::frame(SlotOf[PR])});
      Spill.MemInfo.Class = RefClass::Spill;
      auto &Entry = F.entry()->insts();
      Entry.insert(Entry.begin(), std::move(Spill));
      // The incoming register's only remaining use is that store; it
      // stays a (tiny) web next round.
      IsSpillTemp.resize(F.numRegs(), false);
      IsSpillTemp[PR] = true;
    }
  }

  //===--------------------------------------------------------------------===
  // Final rewrite
  //===--------------------------------------------------------------------===

  uint32_t rewriteToColors(const std::vector<int32_t> &Color) {
    uint32_t MaxColor = 0;
    for (const auto &B : F.blocks()) {
      std::vector<Instruction> NewInsts;
      NewInsts.reserve(B->insts().size());
      for (Instruction Inst : B->insts()) {
        for (Operand &O : Inst.Ops)
          if (O.isReg()) {
            assert(Color[O.getReg()] >= 0 && "uncolored register survived");
            O = Operand::reg(static_cast<Reg>(Color[O.getReg()]),
                             O.getOffset());
            MaxColor = std::max(MaxColor, O.getReg());
          }
        if (Inst.Dst != NoReg) {
          assert(Color[Inst.Dst] >= 0 && "uncolored register survived");
          Inst.Dst = static_cast<Reg>(Color[Inst.Dst]);
          MaxColor = std::max(MaxColor, Inst.Dst);
        }
        // Coalesce now-identity copies.
        if (Inst.Op == Opcode::Mov && Inst.Ops[0].isReg() &&
            Inst.Ops[0].getOffset() == 0 && Inst.Ops[0].getReg() == Inst.Dst)
          continue;
        NewInsts.push_back(std::move(Inst));
      }
      B->insts() = std::move(NewInsts);
    }
    for (uint32_t P = 0; P != F.numParams(); ++P)
      F.setParamReg(P, static_cast<Reg>(Color[F.paramReg(P)]));
    F.setNumRegs(std::max(MaxColor + 1, F.numParams()));
    return MaxColor + 1;
  }

  uint32_t countSpillSlots() const {
    uint32_t Count = 0;
    for (const IRFrameSlot &S : F.frameSlots())
      if (S.Kind == FrameSlotKind::Spill)
        ++Count;
    return Count;
  }

  [[maybe_unused]] IRModule &M;
  IRFunction &F;
  const RegAllocOptions &Options;
  AnalysisManager &AM;
  std::vector<bool> IsSpillTemp;
  uint32_t NextSpillName = 0;
};

} // namespace

RegAllocStats urcm::allocateRegisters(IRModule &M, IRFunction &F,
                                      const RegAllocOptions &Options,
                                      AnalysisManager &AM) {
  Allocator A(M, F, Options, AM);
  return A.run();
}

RegAllocStats urcm::allocateRegisters(IRModule &M,
                                      const RegAllocOptions &Options,
                                      AnalysisManager &AM) {
  RegAllocStats Total;
  for (const auto &F : M.functions()) {
    RegAllocStats S = allocateRegisters(M, *F, Options, AM);
    NumRAFunctions.add();
    NumRAIterations.add(S.Iterations);
    Total.NumWebs += S.NumWebs;
    Total.NumSpilledWebs += S.NumSpilledWebs;
    Total.NumSpillSlots += S.NumSpillSlots;
    Total.NumColorsUsed = std::max(Total.NumColorsUsed, S.NumColorsUsed);
    Total.Iterations = std::max(Total.Iterations, S.Iterations);
  }
  NumRAWebs.add(Total.NumWebs);
  NumRASpilledWebs.add(Total.NumSpilledWebs);
  NumRASpillSlots.add(Total.NumSpillSlots);
  return Total;
}
