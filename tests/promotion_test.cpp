//===- promotion_test.cpp - Scalar loop promotion tests ------------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "urcm/transforms/LoopPromotion.h"

#include "urcm/driver/Driver.h"
#include "urcm/ir/Interpreter.h"
#include "urcm/ir/Verifier.h"
#include "urcm/pass/AnalysisManager.h"
#include "urcm/workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace urcm;

namespace {

struct Promoted {
  CompiledModule Module;
  LoopPromotionStats Stats;

  Promoted(const std::string &Source, bool Era = false) {
    DiagnosticEngine Diags;
    IRGenOptions Options;
    Options.ScalarLocalsInMemory = Era;
    Module = compileToIR(Source, Diags, Options);
    EXPECT_TRUE(static_cast<bool>(Module)) << Diags.str();
    if (Module) {
      AnalysisManager AM(*Module.IR);
      Stats = promoteLoopScalars(*Module.IR, AM);
      DiagnosticEngine VerifyDiags;
      EXPECT_TRUE(verifyModule(*Module.IR, VerifyDiags))
          << VerifyDiags.str() << printIR(*Module.IR);
    }
  }
};

/// Counts Load/Store instructions inside a function.
unsigned memOps(const IRFunction &F) {
  unsigned N = 0;
  for (const auto &B : F.blocks())
    for (const Instruction &I : B->insts())
      if (I.isMemAccess())
        ++N;
  return N;
}

const char *HotGlobalLoop = R"mc(
int counter;
void main() {
  int i;
  counter = 0;
  for (i = 0; i < 100; i = i + 1) {
    counter = counter + 2;
  }
  print(counter);
}
)mc";

} // namespace

TEST(LoopPromotion, HoistsHotGlobal) {
  Promoted P(HotGlobalLoop);
  EXPECT_GE(P.Stats.PromotedLocations, 1u);
  EXPECT_GE(P.Stats.PreheadersCreated, 1u);
  EXPECT_GE(P.Stats.ExitStoresInserted, 1u);

  InterpResult R = interpretModule(*P.Module.IR);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int64_t>{200}));

  // Remaining references: the init store, the preheader load, the exit
  // store-back and the print load — nothing inside the loop.
  const IRFunction *Main = P.Module.IR->findFunction("main");
  EXPECT_LE(memOps(*Main), 4u) << printIR(*P.Module.IR);
}

TEST(LoopPromotion, CallsBlockPromotion) {
  Promoted P("int counter;\n"
             "void tick() { counter = counter + 1; }\n"
             "void main() {\n"
             "  int i;\n"
             "  counter = 0;\n"
             "  for (i = 0; i < 10; i = i + 1) { tick(); }\n"
             "  print(counter);\n"
             "}\n");
  // The loop contains a call: the callee reads/writes counter, so no
  // promotion may happen in main's loop.
  EXPECT_EQ(P.Stats.PromotedLocations, 0u);
  InterpResult R = interpretModule(*P.Module.IR);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Output, (std::vector<int64_t>{10}));
}

TEST(LoopPromotion, EscapedScalarNotPromoted) {
  Promoted P("int g;\n"
             "void poke(int *p) { *p = 5; }\n"
             "void main() {\n"
             "  int i;\n"
             "  poke(&g);\n"
             "  for (i = 0; i < 4; i = i + 1) { g = g + 1; }\n"
             "  print(g);\n"
             "}\n");
  EXPECT_EQ(P.Stats.PromotedLocations, 0u);
  InterpResult R = interpretModule(*P.Module.IR);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Output, (std::vector<int64_t>{9}));
}

TEST(LoopPromotion, ArraysNotPromoted) {
  Promoted P("int a[4];\n"
             "void main() {\n"
             "  int i;\n"
             "  for (i = 0; i < 4; i = i + 1) { a[0] = a[0] + 1; }\n"
             "  print(a[0]);\n"
             "}\n");
  EXPECT_EQ(P.Stats.PromotedLocations, 0u);
}

TEST(LoopPromotion, EraModeLocalsPromoted) {
  // In era mode loop counters live in memory; promotion lifts them.
  Promoted P("void main() {\n"
             "  int i;\n"
             "  int s;\n"
             "  s = 0;\n"
             "  for (i = 0; i < 50; i = i + 1) { s = s + i; }\n"
             "  print(s);\n"
             "}\n",
             /*Era=*/true);
  EXPECT_GE(P.Stats.PromotedLocations, 2u) << "i and s should hoist";
  InterpResult R = interpretModule(*P.Module.IR);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Output, (std::vector<int64_t>{1225}));
}

TEST(LoopPromotion, NestedLoopsHoistToOuterLevel) {
  Promoted P("int acc;\n"
             "void main() {\n"
             "  int i;\n"
             "  int j;\n"
             "  acc = 0;\n"
             "  for (i = 0; i < 10; i = i + 1) {\n"
             "    for (j = 0; j < 10; j = j + 1) {\n"
             "      acc = acc + 1;\n"
             "    }\n"
             "  }\n"
             "  print(acc);\n"
             "}\n");
  EXPECT_GE(P.Stats.PromotedLocations, 2u)
      << "inner promotion then outer re-promotion";
  InterpResult R = interpretModule(*P.Module.IR);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Output, (std::vector<int64_t>{100}));
}

TEST(LoopPromotion, EarlyExitLoopsStoreBack) {
  Promoted P("int found;\n"
             "int a[16];\n"
             "void main() {\n"
             "  int i;\n"
             "  for (i = 0; i < 16; i = i + 1) { a[i] = i * 3; }\n"
             "  found = -1;\n"
             "  for (i = 0; i < 16; i = i + 1) {\n"
             "    found = found + 1;\n"
             "    if (a[i] == 21) { break; }\n"
             "  }\n"
             "  print(found);\n"
             "}\n");
  InterpResult R = interpretModule(*P.Module.IR);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int64_t>{7}));
}

TEST(LoopPromotion, WorkloadsPreserveOutput) {
  for (bool Era : {false, true}) {
    for (const Workload &W : paperWorkloads()) {
      DiagnosticEngine Diags;
      IRGenOptions IGO;
      IGO.ScalarLocalsInMemory = Era;
      CompiledModule Reference = compileToIR(W.Source, Diags, IGO);
      ASSERT_TRUE(static_cast<bool>(Reference)) << W.Name;
      InterpResult Want = interpretModule(*Reference.IR);
      ASSERT_TRUE(Want.ok()) << W.Name;

      Promoted P(W.Source, Era);
      InterpResult Got = interpretModule(*P.Module.IR);
      ASSERT_TRUE(Got.ok()) << W.Name << ": " << Got.Error;
      EXPECT_EQ(Got.Output, Want.Output) << W.Name << " era=" << Era;
    }
  }
}

TEST(LoopPromotion, EndToEndThroughDriverAndMachine) {
  const Workload *W = findWorkload("Bubble");
  CompileOptions Options;
  Options.PromoteLoopScalars = true;
  Options.RunCleanup = true;
  SimConfig Sim;
  DiagnosticEngine Diags;
  SimResult R = compileAndRun(W->Source, Options, Sim, Diags);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Output.front(), 1); // Sorted.
  EXPECT_EQ(R.CoherenceViolations, 0u);
}

TEST(LoopPromotion, ReducesMemoryReferences) {
  const Workload *W = findWorkload("Intmm");
  SimConfig Sim;
  DiagnosticEngine D1, D2;
  CompileOptions Plain;
  Plain.IRGen.ScalarLocalsInMemory = true;
  CompileOptions WithPromotion = Plain;
  WithPromotion.PromoteLoopScalars = true;
  SimResult A = compileAndRun(W->Source, Plain, Sim, D1);
  SimResult B = compileAndRun(W->Source, WithPromotion, Sim, D2);
  ASSERT_TRUE(A.ok());
  ASSERT_TRUE(B.ok());
  EXPECT_EQ(A.Output, B.Output);
  EXPECT_LT(B.Refs.total(), A.Refs.total() / 2)
      << "promotion must eliminate the majority of scalar traffic";
}
