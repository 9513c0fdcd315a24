//===- perfbench/src/Harness.h - Shared benchmark machinery -----*- C++ -*-===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the timed runs and the traced run share: output checks that feed
/// the error rate, process CPU and memory readings, a small JSON writer,
/// and one iteration of each in-process workload (sweep-wide, run-live
/// and the report grid). Every call into the program is wrapped in a
/// span named after the public function it enters.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "Grid.h"

#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Counts attempted operations and failed ones (a wrong output, a failed
/// run, a coherence violation, a store fallback).
class Checks {
public:
  /// Records one attempted operation; a false \p Ok is a failure and
  /// keeps \p What for the report.
  void expect(bool Ok, const std::string &What);
  void merge(const Checks &Other);
  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }
  const std::vector<std::string> &messages() const { return Messages; }

private:
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Messages;
};

/// User plus system CPU seconds of this process, all threads.
double cpuSeconds();
/// Peak resident set of this process so far, in MiB.
double peakRssMb();

/// True if \p Output starts with \p W's hand-written expected values.
bool matchesExpected(const urcm::Workload &W,
                     const std::vector<int64_t> &Output);

/// Compiles inside a "compileProgram" span; a failure is recorded in
/// \p C and leaves Ok false.
urcm::CompileResult compile(const urcm::Workload &W,
                            const urcm::CompileOptions &Options, Checks &C);

/// Minimal JSON object writer for the program's result line.
class Json {
public:
  Json &num(const std::string &Key, double Value);
  Json &list(const std::string &Key, const std::vector<double> &Values);
  Json &strings(const std::string &Key,
                const std::vector<std::string> &Values);
  Json &raw(const std::string &Key, const std::string &Value);
  std::string str() const { return "{" + Body + "}"; }

private:
  void key(const std::string &Key);
  std::string Body;
};
std::string quote(const std::string &S);

//===----------------------------------------------------------------------===//
// sweep-wide: Puzzle compiled once, one SweepEngine experiment per
// iteration over a seeded grid.
//===----------------------------------------------------------------------===//

struct SweepResult {
  urcm::SimResult Base;
  std::vector<urcm::CacheStats> Points;
  double EngineRunS = 0; ///< Wall seconds of SweepEngine::run.
  double EngineCpuS = 0; ///< Process CPU seconds during SweepEngine::run.
};

SweepResult sweepIteration(const urcm::MachineProgram &Puzzle,
                           const std::vector<urcm::SweepPoint> &Points);

/// Checks one sweep iteration: the base run halted cleanly with the
/// expected output and no coherence violation, and every point equals
/// \p First (the first iteration's counters).
void checkSweep(const SweepResult &R, const SweepResult *First, Checks &C);

/// After the timed loop: each point in a seeded sample equals a
/// single-point replayTrace, and the base-geometry replay equals the live
/// Simulator's counters.
void checkSweepReference(const urcm::MachineProgram &Puzzle,
                         const std::vector<urcm::SweepPoint> &Points,
                         const SweepResult &R, uint64_t Seed, Checks &C);

/// \p Trace with every bypass/last-reference hint cleared: the stream a
/// hint-stripped sweep point replays.
std::vector<urcm::TraceEvent>
stripHints(const std::vector<urcm::TraceEvent> &Trace);

//===----------------------------------------------------------------------===//
// run-live: compareSchemes over the live cases on the global pool.
//===----------------------------------------------------------------------===//

struct LiveResult {
  std::vector<urcm::SchemeComparison> Comparisons;
};

/// The compile options compareSchemes starts from (the era compiler).
urcm::CompileOptions liveOptions();

LiveResult liveIteration(const std::vector<LiveCase> &Cases);

/// Each comparison succeeded (equal scheme outputs, no coherence
/// violation), matches its program's expected output, and equals
/// \p First.
void checkLive(const std::vector<LiveCase> &Cases, const LiveResult &R,
               const LiveResult *First, Checks &C);

//===----------------------------------------------------------------------===//
// The report grid, as urcm_report computes it: 24 compiles, then one
// SweepEngine over the 6 Figure-5 experiments and 12 plain runs.
//===----------------------------------------------------------------------===//

struct ReportExperiment {
  std::string Key;
  size_t Program = 0;
  std::shared_ptr<urcm::MachineProgram> Prog;
  std::vector<urcm::SweepPoint> Points;
};

using ReportGrid = std::vector<ReportExperiment>;

/// Compiles the report's 24 programs (parallel over workloads).
ReportGrid compileReportGrid(Checks &C);

struct ReportResult {
  std::vector<urcm::SimResult> Bases;            ///< Traces dropped.
  std::vector<std::vector<urcm::CacheStats>> Points;
  uint64_t SimulatorRuns = 0; ///< Producer invocations (0 when warm).
  uint64_t Steps = 0;         ///< Simulated steps across producers.
  uint64_t StoreDiagnostics = 0;
  double EngineRunS = 0;
  double EngineCpuS = 0;
};

/// Runs \p Only (or every experiment when empty) on one engine, served
/// from \p StoreDir when it is non-empty.
ReportResult runReportGrid(const ReportGrid &G, const std::string &StoreDir,
                           const std::vector<size_t> &Only = {});

/// Every base halted cleanly without coherence violations and matches
/// its program's expected output; results equal \p First; with a warm
/// store, the Simulator never ran and no store diagnostic was printed.
void checkReport(const ReportGrid &G, const ReportResult &R,
                 const ReportResult *First, bool ExpectWarm, Checks &C);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
