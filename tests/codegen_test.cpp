//===- codegen_test.cpp - URCM-RISC lowering tests -----------------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "urcm/codegen/CodeGen.h"

#include "urcm/driver/Driver.h"
#include "urcm/workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace urcm;

namespace {

MachineProgram compileToMachine(const std::string &Source,
                                CompileOptions Options = {}) {
  DiagnosticEngine Diags;
  CompileResult R = compileProgram(Source, Options, Diags);
  EXPECT_TRUE(R.Ok) << Diags.str();
  return std::move(R.Program);
}

/// Structural sanity of a linked program.
void checkProgramInvariants(const MachineProgram &P) {
  ASSERT_FALSE(P.Code.empty());
  for (uint32_t Index = 0; Index != P.Code.size(); ++Index) {
    const MInst &I = P.Code[Index];
    switch (I.Op) {
    case MOpcode::Jmp:
    case MOpcode::Bnz:
    case MOpcode::Call:
      EXPECT_LT(I.Target, P.Code.size()) << "at " << Index;
      break;
    default:
      break;
    }
    if (I.Rd != mreg::None) {
      EXPECT_LT(I.Rd, mreg::NumRegs);
    }
    if (I.Rs1 != mreg::None) {
      EXPECT_LT(I.Rs1, mreg::NumRegs);
    }
    if (I.Rs2 != mreg::None) {
      EXPECT_LT(I.Rs2, mreg::NumRegs);
    }
  }
  // Entry stub: set SP, call main, halt.
  EXPECT_EQ(P.Code[P.EntryIndex].Op, MOpcode::Li);
  EXPECT_EQ(P.Code[P.EntryIndex].Rd, mreg::SP);
  EXPECT_EQ(P.Code[P.EntryIndex + 1].Op, MOpcode::Call);
  EXPECT_EQ(P.Code[P.EntryIndex + 2].Op, MOpcode::Halt);
}

} // namespace

TEST(CodeGen, MinimalProgram) {
  MachineProgram P = compileToMachine("void main() { print(1); }");
  checkProgramInvariants(P);
  ASSERT_EQ(P.Functions.size(), 1u);
  EXPECT_EQ(P.Functions[0].Name, "main");
  EXPECT_TRUE(P.Functions[0].IsLeaf);
}

TEST(CodeGen, GlobalLayoutSequential) {
  MachineProgram P = compileToMachine(
      "int g; int a[10]; int h; void main() { g = 1; h = 2; a[0] = 3; "
      "print(g + h + a[0]); }");
  ASSERT_EQ(P.Globals.size(), 3u);
  EXPECT_EQ(P.Globals[0].Address, 0x1000u);
  EXPECT_EQ(P.Globals[1].Address, 0x1001u);
  EXPECT_EQ(P.Globals[2].Address, 0x100Bu);
}

TEST(CodeGen, NonLeafSavesRA) {
  MachineProgram P = compileToMachine(
      "void f() { }\n"
      "void main() { f(); }");
  const MachineFunction *Main = nullptr;
  for (const auto &F : P.Functions)
    if (F.Name == "main")
      Main = &F;
  ASSERT_NE(Main, nullptr);
  EXPECT_FALSE(Main->IsLeaf);
  // main's code must contain a store of RA and a reload of it.
  bool SavesRA = false, RestoresRA = false;
  for (uint32_t I = Main->EntryIndex;
       I != Main->EntryIndex + Main->CodeSize; ++I) {
    const MInst &Inst = P.Code[I];
    if (Inst.Op == MOpcode::St && Inst.Rs2 == mreg::RA)
      SavesRA = true;
    if (Inst.Op == MOpcode::Ld && Inst.Rd == mreg::RA)
      RestoresRA = true;
  }
  EXPECT_TRUE(SavesRA);
  EXPECT_TRUE(RestoresRA);
}

TEST(CodeGen, SaveRestoreTaggedSpillClass) {
  MachineProgram P = compileToMachine(
      "int add(int a, int b) { return a + b; }\n"
      "void main() { print(add(1, 2)); }");
  unsigned SpillStores = 0, SpillReloads = 0;
  for (const MInst &I : P.Code) {
    if (I.Op == MOpcode::St && I.MemInfo.Class == RefClass::Spill)
      ++SpillStores;
    if (I.Op == MOpcode::Ld && I.MemInfo.Class == RefClass::SpillReload)
      ++SpillReloads;
  }
  EXPECT_GT(SpillStores, 0u);
  EXPECT_GT(SpillReloads, 0u);
}

TEST(CodeGen, ReloadsCarryDeadTagUnderUnifiedScheme) {
  CompileOptions Unified;
  Unified.Scheme = UnifiedOptions::unified();
  MachineProgram P = compileToMachine(
      "int id(int a) { return a; }\n"
      "void main() { print(id(7)); }",
      Unified);
  bool AnyTaggedReload = false;
  for (const MInst &I : P.Code)
    if (I.Op == MOpcode::Ld && I.MemInfo.Class == RefClass::SpillReload)
      AnyTaggedReload |= I.MemInfo.LastRef;
  EXPECT_TRUE(AnyTaggedReload);

  CompileOptions Conventional;
  Conventional.Scheme = UnifiedOptions::conventional();
  MachineProgram P2 = compileToMachine(
      "int id(int a) { return a; }\n"
      "void main() { print(id(7)); }",
      Conventional);
  for (const MInst &I : P2.Code) {
    EXPECT_FALSE(I.MemInfo.LastRef);
    EXPECT_FALSE(I.MemInfo.Bypass);
  }
}

TEST(CodeGen, BypassBitsReachMachineCode) {
  CompileOptions Unified;
  MachineProgram P = compileToMachine(
      "int g; void main() { g = 5; print(g); }", Unified);
  unsigned BypassRefs = 0;
  for (const MInst &I : P.Code)
    if (I.isMemAccess() && I.MemInfo.Bypass)
      ++BypassRefs;
  EXPECT_GE(BypassRefs, 2u) << "store+load of private global must bypass";
}

TEST(CodeGen, WorkloadInvariantsBothModes) {
  for (bool Era : {false, true}) {
    for (const Workload &W : paperWorkloads()) {
      CompileOptions Options;
      Options.IRGen.ScalarLocalsInMemory = Era;
      MachineProgram P = compileToMachine(W.Source, Options);
      checkProgramInvariants(P);
    }
  }
}

TEST(CodeGen, AssemblyPrinterMentionsEverything) {
  MachineProgram P = compileToMachine(
      "int g; void main() { g = 1; print(g); }");
  std::string Asm = P.str();
  EXPECT_NE(Asm.find("main:"), std::string::npos);
  EXPECT_NE(Asm.find("global g"), std::string::npos);
  EXPECT_NE(Asm.find("halt"), std::string::npos);
  EXPECT_NE(Asm.find("bypass"), std::string::npos);
}

TEST(CodeGen, FrameSizeCoversSlots) {
  MachineProgram P = compileToMachine(
      "void main() { int a[16]; a[0] = 1; a[15] = 2; print(a[0] + a[15]); }");
  const MachineFunction *Main = nullptr;
  for (const auto &F : P.Functions)
    if (F.Name == "main")
      Main = &F;
  ASSERT_NE(Main, nullptr);
  EXPECT_GE(Main->FrameSizeWords, 16u);
}
