//===- BenchCommon.h - Shared benchmark-harness helpers ---------*- C++ -*-===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the experiment binaries in bench/. Each binary
/// regenerates one exhibit of the paper (see DESIGN.md's experiment
/// index) as google-benchmark rows whose counters carry the reproduced
/// numbers; a human-readable recap is printed at exit.
///
/// Simulations are memoized and keyed on the *contents* of the
/// compile/cache/simulator configuration (not caller-chosen strings),
/// so two call sites asking for the same point can never race or
/// duplicate work; the caches are mutex-guarded and safe to use from
/// ThreadPool tasks.
///
/// Sweep-style exhibits (many cache geometries/policies for one
/// compiled program) go through the SweepEngine: the program is
/// simulated once with tracing and every sweep point is replayed from
/// the trace (see urcm/sim/SweepEngine.h). The scheme-pair helpers
/// additionally serve the *conventional* scheme from the unified run's
/// trace with the hint bits stripped — sound because the two
/// compilations share one instruction stream, which schedulePairSweep
/// verifies instruction by instruction at compile time.
///
//===----------------------------------------------------------------------===//

#ifndef URCM_BENCH_BENCHCOMMON_H
#define URCM_BENCH_BENCHCOMMON_H

#include "urcm/driver/Driver.h"
#include "urcm/sim/SweepEngine.h"
#include "urcm/support/ThreadPool.h"
#include "urcm/workloads/Workloads.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <future>
#include <map>
#include <mutex>
#include <string>

namespace urcm {
namespace bench {

/// The paper's simulated data cache: modest 1989-scale geometry with
/// one-word lines (section 1) and LRU replacement.
inline CacheConfig paperCache() {
  CacheConfig C;
  C.NumLines = 128;
  C.Assoc = 2;
  C.LineWords = 1;
  C.Policy = CachePolicy::LRU;
  return C;
}

/// The Figure-5 compilation configuration: era-style code (scalar locals
/// in memory, like the MIPS binaries the paper measured) with the blind
/// all-unambiguous bypass the paper proposes.
inline CompileOptions figure5Compile() {
  CompileOptions Options;
  Options.IRGen.ScalarLocalsInMemory = true;
  Options.Scheme = UnifiedOptions::unified();
  return Options;
}

/// The six benchmark names in the paper's order.
inline const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = [] {
    std::vector<std::string> N;
    for (const Workload &W : paperWorkloads())
      N.push_back(W.Name);
    return N;
  }();
  return Names;
}

/// The process-wide thread pool for experiment-level parallelism.
inline ThreadPool &pool() { return ThreadPool::global(); }

/// The process-wide sweep engine (compile-once/replay-many).
inline SweepEngine &engine() { return SweepEngine::global(); }

//===----------------------------------------------------------------------===//
// Configuration fingerprints (memoization keys).
//===----------------------------------------------------------------------===//

/// Every CacheConfig field, including the Random-policy seed.
inline std::string fingerprint(const CacheConfig &C) {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "c%u.%u.%u.%d.%d.%llu", C.NumLines,
                C.Assoc, C.LineWords, static_cast<int>(C.Policy),
                static_cast<int>(C.Write),
                static_cast<unsigned long long>(C.Seed));
  return Buf;
}

/// Every SimConfig field that can affect the result (the trace reserve
/// hint is a pure allocation hint and is deliberately excluded).
inline std::string fingerprint(const SimConfig &S) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "|s%llu.%d.%d.%d|",
                static_cast<unsigned long long>(S.MaxSteps),
                S.Paranoid ? 1 : 0, S.RecordTrace ? 1 : 0,
                S.ModelICache ? 1 : 0);
  return fingerprint(S.Cache) + Buf + fingerprint(S.ICache);
}

/// Every CompileOptions field.
inline std::string fingerprint(const CompileOptions &O) {
  char Buf[160];
  std::snprintf(
      Buf, sizeof(Buf), "o%d.%d.%d%d%d%d.%u.%d.%u.%d.%u.%d%d.%d.%g.%d.%llu.%llu",
      O.IRGen.ScalarLocalsInMemory ? 1 : 0, O.RunCleanup ? 1 : 0,
      O.Transforms.CopyPropagation ? 1 : 0,
      O.Transforms.ValueNumbering ? 1 : 0,
      O.Transforms.DeadCodeElimination ? 1 : 0,
      O.Transforms.DeadStoreElimination ? 1 : 0, O.Transforms.MaxRounds,
      O.PromoteLoopScalars ? 1 : 0, O.RegAlloc.NumColors,
      static_cast<int>(O.RegAlloc.Policy), O.RegAlloc.MaxIterations,
      O.Scheme.EnableBypass ? 1 : 0, O.Scheme.EnableDeadTag ? 1 : 0,
      static_cast<int>(O.Scheme.Policy), O.Scheme.ReuseThreshold,
      O.VerifyIR ? 1 : 0, static_cast<unsigned long long>(O.GlobalBase),
      static_cast<unsigned long long>(O.StackTop));
  return Buf;
}

//===----------------------------------------------------------------------===//
// Thread-safe memoization.
//===----------------------------------------------------------------------===//

/// Returns the cached value for \p Key, computing it with \p Compute
/// outside the lock if absent. Concurrent callers with the same key
/// block on one computation instead of duplicating it.
template <typename T, typename Fn>
const T &memoized(std::map<std::string, std::shared_future<T>> &Cache,
                  std::mutex &M, const std::string &Key, Fn &&Compute) {
  std::promise<T> Mine;
  std::shared_future<T> F;
  bool Owner = false;
  {
    std::lock_guard<std::mutex> Lock(M);
    auto It = Cache.find(Key);
    if (It == Cache.end()) {
      F = Mine.get_future().share();
      Cache.emplace(Key, F);
      Owner = true;
    } else {
      F = It->second;
    }
  }
  if (Owner)
    Mine.set_value(Compute());
  return F.get();
}

inline const Workload &workloadOrDie(const std::string &Name) {
  const Workload *W = findWorkload(Name);
  if (!W) {
    std::fprintf(stderr, "unknown workload %s\n", Name.c_str());
    std::abort();
  }
  return *W;
}

/// Memoized two-scheme comparison (keyed on configuration contents).
inline const SchemeComparison &comparison(const std::string &WorkloadName,
                                          const CompileOptions &Options,
                                          const CacheConfig &Cache) {
  static std::map<std::string, std::shared_future<SchemeComparison>> Cached;
  static std::mutex M;
  std::string Key =
      WorkloadName + "|" + fingerprint(Options) + "|" + fingerprint(Cache);
  return memoized(Cached, M, Key, [&] {
    SchemeComparison C =
        compareSchemes(workloadOrDie(WorkloadName).Source, Options, Cache);
    if (!C.ok()) {
      std::fprintf(stderr, "%s: %s\n", WorkloadName.c_str(),
                   C.Error.c_str());
      std::abort();
    }
    return C;
  });
}

/// Memoized single-scheme run (keyed on configuration contents).
inline const SimResult &singleRun(const std::string &WorkloadName,
                                  const CompileOptions &Options,
                                  const SimConfig &Sim) {
  static std::map<std::string, std::shared_future<SimResult>> Cached;
  static std::mutex M;
  std::string Key =
      WorkloadName + "|" + fingerprint(Options) + "|" + fingerprint(Sim);
  return memoized(Cached, M, Key, [&] {
    DiagnosticEngine Diags;
    SimResult R = compileAndRun(workloadOrDie(WorkloadName).Source, Options,
                                Sim, Diags);
    if (!R.ok()) {
      std::fprintf(stderr, "%s: %s\n", WorkloadName.c_str(),
                   R.Error.c_str());
      std::abort();
    }
    return R;
  });
}

//===----------------------------------------------------------------------===//
// Scheme-pair sweeps (compile once, serve both schemes from one trace).
//===----------------------------------------------------------------------===//

// The stream-equality precondition for hint-stripped replay lives in
// the codegen library: sameStreamModuloHints (urcm/codegen/MachineIR.h).

inline std::string pairSweepKey(const std::string &Name,
                                const CompileOptions &Options) {
  return "pair|" + Name + "|" + fingerprint(Options);
}

/// Schedules one compile-once experiment on the sweep engine that
/// serves BOTH schemes of (\p Name, \p Options) at every (geometry,
/// policy) point of \p Grid:
///
///  * the program is compiled with hints enabled, verified against the
///    hint-disabled compilation (identical instruction stream modulo
///    hint bits — abort if not, rather than report stats that mean
///    something else), and simulated ONCE with tracing at
///    Grid[BaseIndex]'s geometry;
///  * unified-scheme stats replay the trace as recorded, conventional
///    stats replay it with the hints stripped.
///
/// Run engine().run() after scheduling, then read the points with
/// pairUnifiedStats()/pairConventionalStats()/pairComparison().
inline void schedulePairSweep(const std::string &Name,
                              const CompileOptions &Options,
                              const std::vector<SweepPoint> &Grid,
                              size_t BaseIndex) {
  std::vector<SweepPoint> Points;
  Points.reserve(Grid.size() * 2);
  for (const SweepPoint &P : Grid) {
    SweepPoint Hinted = P;
    Hinted.IgnoreHints = false;
    Points.push_back(Hinted);
  }
  for (const SweepPoint &P : Grid) {
    SweepPoint Stripped = P;
    Stripped.IgnoreHints = true;
    Points.push_back(Stripped);
  }
  SimConfig Base;
  Base.Cache = Grid[BaseIndex].Config;
  engine().schedule(
      pairSweepKey(Name, Options), Name, Base, std::move(Points),
      [Name, Options](const SimConfig &Sim) {
        const Workload &W = workloadOrDie(Name);
        CompileOptions Unified = Options;
        Unified.Scheme.EnableBypass = true;
        Unified.Scheme.EnableDeadTag = true;
        CompileOptions Conventional = Options;
        Conventional.Scheme.EnableBypass = false;
        Conventional.Scheme.EnableDeadTag = false;
        DiagnosticEngine DiagsUni, DiagsConv;
        CompileResult U = compileProgram(W.Source, Unified, DiagsUni);
        CompileResult C = compileProgram(W.Source, Conventional, DiagsConv);
        if (!U.Ok || !C.Ok) {
          std::fprintf(stderr, "%s: compilation failed\n%s%s\n",
                       Name.c_str(), DiagsUni.str().c_str(),
                       DiagsConv.str().c_str());
          std::abort();
        }
        if (!sameStreamModuloHints(U.Program, C.Program)) {
          std::fprintf(stderr,
                       "%s: scheme instruction streams diverge; "
                       "hint-stripped replay would be unsound\n",
                       Name.c_str());
          std::abort();
        }
        Simulator S(Sim);
        SimResult R = S.run(U.Program);
        if (!R.ok()) {
          std::fprintf(stderr, "%s: %s\n", Name.c_str(), R.Error.c_str());
          std::abort();
        }
        if (R.CoherenceViolations != 0) {
          std::fprintf(stderr, "%s: coherence violations detected\n",
                       Name.c_str());
          std::abort();
        }
        return R;
      });
}

/// Unified-scheme counters of grid point \p Index.
inline const CacheStats &pairUnifiedStats(const std::string &Name,
                                          const CompileOptions &Options,
                                          size_t Index) {
  return engine().point(pairSweepKey(Name, Options), Index);
}

/// Conventional-scheme counters of grid point \p Index (\p GridSize is
/// the grid's full size; stripped points follow the hinted ones).
inline const CacheStats &pairConventionalStats(const std::string &Name,
                                               const CompileOptions &Options,
                                               size_t GridSize,
                                               size_t Index) {
  return engine().point(pairSweepKey(Name, Options), GridSize + Index);
}

/// Assembles the SchemeComparison view of grid point \p Index from a
/// pair sweep, mirroring compareSchemes: the per-scheme SimResults are
/// the shared base run with the scheme's replayed cache counters and
/// (for the conventional side) the hint-dependent reference counters
/// zeroed, exactly as a hint-free run of the same stream reports them.
/// StaticStats is not populated (no sweep exhibit consumes it).
inline SchemeComparison pairComparison(const std::string &Name,
                                       const CompileOptions &Options,
                                       size_t GridSize, size_t Index) {
  const SimResult &Base = engine().base(pairSweepKey(Name, Options));
  SchemeComparison C;
  C.Unified = Base;
  C.Unified.Cache = pairUnifiedStats(Name, Options, Index);
  C.Conventional = Base;
  C.Conventional.Cache =
      pairConventionalStats(Name, Options, GridSize, Index);
  C.Conventional.Refs.Bypassed = 0;
  C.Conventional.Refs.LastRefTagged = 0;
  C.Conventional.BypassTransitions = 0;
  return C;
}

//===----------------------------------------------------------------------===//
// Single-scheme sweeps.
//===----------------------------------------------------------------------===//

inline std::string singleSweepKey(const std::string &Name,
                                  const CompileOptions &Options) {
  return "single|" + Name + "|" + fingerprint(Options);
}

/// Schedules a compile-once sweep of (\p Name, \p Options) over \p Grid
/// with the hints as compiled; the traced base run uses
/// Grid[BaseIndex]'s geometry. Read points with singleSweepStats()
/// after engine().run().
inline void scheduleSingleSweep(const std::string &Name,
                                const CompileOptions &Options,
                                std::vector<SweepPoint> Grid,
                                size_t BaseIndex) {
  SimConfig Base;
  Base.Cache = Grid[BaseIndex].Config;
  engine().schedule(singleSweepKey(Name, Options), Name, Base,
                    std::move(Grid), [Name, Options](const SimConfig &Sim) {
                      DiagnosticEngine Diags;
                      SimResult R =
                          compileAndRun(workloadOrDie(Name).Source, Options,
                                        Sim, Diags);
                      if (!R.ok()) {
                        std::fprintf(stderr, "%s: %s\n", Name.c_str(),
                                     R.Error.c_str());
                        std::abort();
                      }
                      return R;
                    });
}

inline const CacheStats &singleSweepStats(const std::string &Name,
                                          const CompileOptions &Options,
                                          size_t Index) {
  return engine().point(singleSweepKey(Name, Options), Index);
}

/// The base run of a single-scheme sweep.
inline const SimResult &singleSweepBase(const std::string &Name,
                                        const CompileOptions &Options) {
  return engine().base(singleSweepKey(Name, Options));
}

} // namespace bench
} // namespace urcm

#endif // URCM_BENCH_BENCHCOMMON_H
