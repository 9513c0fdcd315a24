//===- transforms_test.cpp - IR cleanup pass tests -----------------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "urcm/transforms/Transforms.h"

#include "urcm/driver/Driver.h"
#include "urcm/ir/Interpreter.h"
#include "urcm/ir/Verifier.h"
#include "urcm/pass/AnalysisManager.h"
#include "urcm/workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace urcm;

namespace {

CompiledModule lower(const std::string &Source, bool EraMode = false) {
  DiagnosticEngine Diags;
  IRGenOptions Options;
  Options.ScalarLocalsInMemory = EraMode;
  CompiledModule Module = compileToIR(Source, Diags, Options);
  EXPECT_TRUE(static_cast<bool>(Module)) << Diags.str();
  return Module;
}

unsigned countInsts(const IRModule &M) {
  unsigned N = 0;
  for (const auto &F : M.functions())
    for (const auto &B : F->blocks())
      N += static_cast<unsigned>(B->insts().size());
  return N;
}

unsigned countOps(const IRModule &M, Opcode Op) {
  unsigned N = 0;
  for (const auto &F : M.functions())
    for (const auto &B : F->blocks())
      for (const Instruction &I : B->insts())
        if (I.Op == Op)
          ++N;
  return N;
}

} // namespace

TEST(Transforms, CopyPropagationForwardsValues) {
  // y = x; z = y + 1  becomes  z = x + 1 (the Mov then dies under DCE).
  auto Module = lower("void main() {\n"
                      "  int x = 5;\n"
                      "  int y;\n"
                      "  int z;\n"
                      "  y = x;\n"
                      "  z = y + 1;\n"
                      "  print(z);\n"
                      "}\n");
  TransformOptions Options;
  AnalysisManager AM(*Module.IR);
  TransformStats Stats = runCleanupPipeline(*Module.IR, Options, AM);
  EXPECT_GT(Stats.CopiesPropagated, 0u);
  EXPECT_GT(Stats.DeadInstsRemoved, 0u);
  DiagnosticEngine Diags;
  EXPECT_TRUE(verifyModule(*Module.IR, Diags)) << Diags.str();

  InterpResult R = interpretModule(*Module.IR);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int64_t>{6}));
}

TEST(Transforms, DCERemovesUnusedComputation) {
  auto Module = lower("void main() {\n"
                      "  int unused;\n"
                      "  int used = 3;\n"
                      "  unused = used * 100;\n"
                      "  print(used);\n"
                      "}\n");
  unsigned Before = countInsts(*Module.IR);
  TransformOptions Options;
  AnalysisManager AM(*Module.IR);
  runCleanupPipeline(*Module.IR, Options, AM);
  EXPECT_LT(countInsts(*Module.IR), Before);
  InterpResult R = interpretModule(*Module.IR);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Output, (std::vector<int64_t>{3}));
}

TEST(Transforms, DCEKeepsCallsAndStores) {
  auto Module = lower("int g;\n"
                      "int effect() { g = g + 1; return 9; }\n"
                      "void main() {\n"
                      "  int ignored;\n"
                      "  g = 0;\n"
                      "  ignored = effect();\n"
                      "  print(g);\n"
                      "}\n");
  TransformOptions Options;
  AnalysisManager AM(*Module.IR);
  runCleanupPipeline(*Module.IR, Options, AM);
  EXPECT_GE(countOps(*Module.IR, Opcode::Call), 1u);
  InterpResult R = interpretModule(*Module.IR);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Output, (std::vector<int64_t>{1}));
}

TEST(Transforms, DeadStoreEliminationEraMode) {
  // Era mode: x lives in memory; the final store to x is never read.
  auto Module = lower("void main() {\n"
                      "  int x;\n"
                      "  x = 1;\n"
                      "  print(x);\n"
                      "  x = 2;\n"
                      "}\n",
                      /*EraMode=*/true);
  unsigned StoresBefore = countOps(*Module.IR, Opcode::Store);
  TransformOptions Options;
  Options.DeadStoreElimination = true;
  AnalysisManager AM(*Module.IR);
  TransformStats Stats = runCleanupPipeline(*Module.IR, Options, AM);
  EXPECT_GE(Stats.DeadStoresRemoved, 1u);
  EXPECT_LT(countOps(*Module.IR, Opcode::Store), StoresBefore);
  InterpResult R = interpretModule(*Module.IR);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Output, (std::vector<int64_t>{1}));
}

TEST(Transforms, DSEKeepsGlobalFinalStores) {
  auto Module = lower("int g; void main() { g = 7; }");
  TransformOptions Options;
  Options.DeadStoreElimination = true;
  AnalysisManager AM(*Module.IR);
  TransformStats Stats = runCleanupPipeline(*Module.IR, Options, AM);
  EXPECT_EQ(Stats.DeadStoresRemoved, 0u);
  EXPECT_EQ(countOps(*Module.IR, Opcode::Store), 1u);
}

TEST(Transforms, PipelineReachesFixpoint) {
  auto Module = lower("void main() {\n"
                      "  int a = 1; int b; int c; int d;\n"
                      "  b = a; c = b; d = c;\n"
                      "  print(d);\n"
                      "}\n");
  TransformOptions Options;
  AnalysisManager AM(*Module.IR);
  runCleanupPipeline(*Module.IR, Options, AM);
  // A second run must make no further progress.
  TransformStats Again = runCleanupPipeline(*Module.IR, Options, AM);
  EXPECT_EQ(Again.CopiesPropagated, 0u);
  EXPECT_EQ(Again.DeadInstsRemoved, 0u);
}

TEST(Transforms, WorkloadsPreserveOutputUnderCleanup) {
  for (bool Era : {false, true}) {
    for (const Workload &W : paperWorkloads()) {
      auto Reference = lower(W.Source, Era);
      InterpResult Want = interpretModule(*Reference.IR);
      ASSERT_TRUE(Want.ok()) << W.Name;

      auto Cleaned = lower(W.Source, Era);
      TransformOptions Options;
      Options.DeadStoreElimination = true;
      AnalysisManager AM(*Cleaned.IR);
      runCleanupPipeline(*Cleaned.IR, Options, AM);
      DiagnosticEngine Diags;
      ASSERT_TRUE(verifyModule(*Cleaned.IR, Diags))
          << W.Name << ": " << Diags.str();
      InterpResult Got = interpretModule(*Cleaned.IR);
      ASSERT_TRUE(Got.ok()) << W.Name << ": " << Got.Error;
      EXPECT_EQ(Got.Output, Want.Output) << W.Name << " era=" << Era;
    }
  }
}

TEST(Transforms, EndToEndThroughDriver) {
  const Workload *W = findWorkload("Queen");
  CompileOptions Options;
  Options.RunCleanup = true;
  Options.Transforms.DeadStoreElimination = true;
  SimConfig Sim;
  DiagnosticEngine Diags;
  SimResult R = compileAndRun(W->Source, Options, Sim, Diags);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int64_t>{92}));
  EXPECT_EQ(R.CoherenceViolations, 0u);
}

TEST(Transforms, CleanupReducesExecutedInstructions) {
  const Workload *W = findWorkload("Bubble");
  SimConfig Sim;
  DiagnosticEngine D1, D2;
  CompileOptions Plain;
  Plain.IRGen.ScalarLocalsInMemory = true;
  CompileOptions Cleaned = Plain;
  Cleaned.RunCleanup = true;
  SimResult A = compileAndRun(W->Source, Plain, Sim, D1);
  SimResult B = compileAndRun(W->Source, Cleaned, Sim, D2);
  ASSERT_TRUE(A.ok());
  ASSERT_TRUE(B.ok());
  EXPECT_EQ(A.Output, B.Output);
  EXPECT_LE(B.Steps, A.Steps);
}
