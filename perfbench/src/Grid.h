//===- perfbench/src/Grid.h - Workload inputs -------------------*- C++ -*-===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The inputs of every benchmark workload: the fixed report grid (the
/// paper's Figure-5 set-up as urcm_report runs it) and the seeded,
/// stratified draws of sweep-wide and run-live. A stratified draw holds
/// the same number of points per policy and associativity class for every
/// seed, because replay cost grows with associativity; only sizes, line
/// size, hint mode and the Random seed vary with the seed.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_GRID_H
#define PERFBENCH_GRID_H

#include "urcm/driver/Driver.h"
#include "urcm/sim/SweepEngine.h"
#include "urcm/workloads/Workloads.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// 128-line, 2-way, 1-word LRU: the paper's cache and every report
/// experiment's base geometry.
urcm::CacheConfig paperCache();

/// Every replacement policy, live and replay-only.
const std::vector<urcm::CachePolicy> &allPolicies();

/// urcm_report's Figure-5 experiment points: every report policy at the
/// paper cache, hinted then hint-stripped.
std::vector<urcm::SweepPoint> reportPoints();

/// The four compile configurations urcm_report builds per program.
struct ReportConfig {
  const char *Name;
  urcm::CompileOptions Options;
};
const std::vector<ReportConfig> &reportConfigs();

/// Compile options of the Figure-5 unified program (reportConfigs()[0]).
urcm::CompileOptions fig5Options();

/// sweep-wide: 7 policies x associativity {1,2,4,8}, one point each;
/// 16..1024 lines, 1..8-word lines, hinted or stripped, all drawn from
/// \p Seed.
std::vector<urcm::SweepPoint> sweepGrid(uint64_t Seed);

/// run-live: one geometry per (program, slot). Slot s of program p uses
/// live policy (3p + s) mod 5 and associativity class s ({1,2}, 4, 8), so
/// every seed has the same policy and associativity mix.
struct LiveCase {
  const urcm::Workload *Program;
  urcm::CacheConfig Cache;
};
std::vector<LiveCase> liveCases(uint64_t Seed);

/// The run-live program set: the paper's six plus Quick and Perm.
std::vector<const urcm::Workload *> livePrograms();

/// One-line description of a geometry draw: policy, then associativity x
/// sets x words per line, e.g. "LRU 4x64x2w"; sweep points add "hinted"
/// or "stripped".
std::string describe(const urcm::CacheConfig &C, urcm::CachePolicy P);
std::string describe(const urcm::SweepPoint &P);

} // namespace perfbench

#endif // PERFBENCH_GRID_H
