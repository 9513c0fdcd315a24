//===- interpreter_test.cpp - IR interpreter + differential tests --------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
// The interpreter is the oracle: pre-allocation IR, post-allocation IR
// and the machine simulation must all produce identical program output.
//
//===----------------------------------------------------------------------===//

#include "urcm/ir/Interpreter.h"

#include "urcm/driver/Driver.h"
#include "urcm/pass/AnalysisManager.h"
#include "urcm/workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace urcm;

namespace {

InterpResult interpretSource(const std::string &Source,
                             bool EraMode = false) {
  DiagnosticEngine Diags;
  IRGenOptions Options;
  Options.ScalarLocalsInMemory = EraMode;
  CompiledModule Module = compileToIR(Source, Diags, Options);
  EXPECT_TRUE(static_cast<bool>(Module)) << Diags.str();
  if (!Module)
    return InterpResult();
  return interpretModule(*Module.IR);
}

} // namespace

TEST(Interpreter, BasicProgram) {
  InterpResult R = interpretSource(
      "void main() { int x = 6; int y = 7; print(x * y); }");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int64_t>{42}));
}

TEST(Interpreter, PointerAndArraySemantics) {
  InterpResult R = interpretSource(
      "int a[4];\n"
      "void main() {\n"
      "  int *p;\n"
      "  a[0] = 10; a[1] = 11; a[2] = 12; a[3] = 13;\n"
      "  p = &a[1];\n"
      "  *p = 99;\n"
      "  print(a[1]); print(p[2]); print(*p + a[0]);\n"
      "}\n");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int64_t>{99, 13, 109}));
}

TEST(Interpreter, RecursionWithFrames) {
  InterpResult R = interpretSource(
      "int fact(int n) {\n"
      "  int local[4];\n"
      "  local[0] = n;\n"
      "  if (n <= 1) { return 1; }\n"
      "  return local[0] * fact(n - 1);\n"
      "}\n"
      "void main() { print(fact(10)); }\n");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int64_t>{3628800}));
}

TEST(Interpreter, DivisionByZeroCaught) {
  InterpResult R =
      interpretSource("void main() { int z = 0; print(4 / z); }");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("division by zero"), std::string::npos);
}

TEST(Interpreter, StepLimit) {
  DiagnosticEngine Diags;
  CompiledModule Module =
      compileToIR("void main() { while (1) { } }", Diags);
  ASSERT_TRUE(static_cast<bool>(Module));
  InterpConfig Config;
  Config.MaxSteps = 100;
  InterpResult R = interpretModule(*Module.IR, Config);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("step limit"), std::string::npos);
}

TEST(Interpreter, WildAddressCaught) {
  InterpResult R = interpretSource(
      "int a[2];\n"
      "void main() { int *p; p = &a[0]; p = p + 90000000; print(*p); }");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("out of range"), std::string::npos);
}

TEST(Interpreter, RunsPostAllocationIRToo) {
  const char *Source = "int g;\n"
                       "int twice(int v) { return v * 2; }\n"
                       "void main() { g = twice(21); print(g); }\n";
  DiagnosticEngine Diags;
  CompiledModule Module = compileToIR(Source, Diags);
  ASSERT_TRUE(static_cast<bool>(Module));

  InterpResult Before = interpretModule(*Module.IR);
  ASSERT_TRUE(Before.ok()) << Before.Error;

  AnalysisManager AM(*Module.IR);
  allocateRegisters(*Module.IR, RegAllocOptions(), AM);
  InterpResult After = interpretModule(*Module.IR);
  ASSERT_TRUE(After.ok()) << After.Error;
  EXPECT_EQ(Before.Output, After.Output);
  EXPECT_EQ(Before.Output, (std::vector<int64_t>{42}));
}

TEST(Interpreter, DifferentialAgainstMachineOnWorkloads) {
  // Oracle check: interpreting the IR (before allocation, after
  // allocation) and simulating the generated machine code must agree on
  // every benchmark, in both compilation modes.
  for (bool Era : {false, true}) {
    for (const Workload &W : paperWorkloads()) {
      DiagnosticEngine Diags;
      IRGenOptions IROptions;
      IROptions.ScalarLocalsInMemory = Era;
      CompiledModule Module = compileToIR(W.Source, Diags, IROptions);
      ASSERT_TRUE(static_cast<bool>(Module)) << W.Name;

      InterpResult PreAlloc = interpretModule(*Module.IR);
      ASSERT_TRUE(PreAlloc.ok()) << W.Name << ": " << PreAlloc.Error;

      AnalysisManager AM(*Module.IR);
      allocateRegisters(*Module.IR, RegAllocOptions(), AM);
      InterpResult PostAlloc = interpretModule(*Module.IR);
      ASSERT_TRUE(PostAlloc.ok()) << W.Name << ": " << PostAlloc.Error;
      EXPECT_EQ(PreAlloc.Output, PostAlloc.Output) << W.Name;

      CompileOptions Options;
      Options.IRGen.ScalarLocalsInMemory = Era;
      SimConfig Sim;
      DiagnosticEngine SimDiags;
      SimResult Machine =
          compileAndRun(W.Source, Options, Sim, SimDiags);
      ASSERT_TRUE(Machine.ok()) << W.Name << ": " << Machine.Error;
      EXPECT_EQ(Machine.Output, PreAlloc.Output) << W.Name;
    }
  }
}

TEST(Interpreter, DifferentialWithSpillPressure) {
  // Force heavy spilling, then check the interpreter and machine agree.
  const Workload *W = findWorkload("Queen");
  DiagnosticEngine Diags;
  CompiledModule Module = compileToIR(W->Source, Diags);
  ASSERT_TRUE(static_cast<bool>(Module));
  RegAllocOptions RA;
  RA.NumColors = 8;
  AnalysisManager AM(*Module.IR);
  allocateRegisters(*Module.IR, RA, AM);
  InterpResult Interp = interpretModule(*Module.IR);
  ASSERT_TRUE(Interp.ok()) << Interp.Error;
  EXPECT_EQ(Interp.Output, (std::vector<int64_t>{92}));
}
