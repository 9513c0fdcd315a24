//===- quickstart.cpp - Smallest end-to-end URCM example ----------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
// Compiles a small MC program under the conventional and unified schemes,
// runs both on the same simulated data cache, and prints the traffic
// comparison — the paper's headline effect in one page of output.
//
// Build & run:  ./build/examples/quickstart
//
//===----------------------------------------------------------------------===//

#include "urcm/driver/Driver.h"
#include "urcm/workloads/Workloads.h"

#include <cstdio>

using namespace urcm;

static const char *DemoProgram = R"mc(
int data[64];
int total;

int sum(int *v, int n) {
  int i;
  int s = 0;
  for (i = 0; i < n; i = i + 1) {
    s = s + v[i];
  }
  return s;
}

void main() {
  int i;
  for (i = 0; i < 64; i = i + 1) {
    data[i] = i * 3 + 1;
  }
  total = sum(&data[0], 64);
  print(total);
}
)mc";

int main() {
  CompileOptions Options;
  CacheConfig Cache;
  Cache.NumLines = 64;
  Cache.Assoc = 2;
  Cache.LineWords = 1;
  Cache.Policy = CachePolicy::LRU;

  SchemeComparison Cmp = compareSchemes(DemoProgram, Options, Cache);
  if (!Cmp.ok()) {
    std::fprintf(stderr, "error: %s\n", Cmp.Error.c_str());
    return 1;
  }

  std::printf("URCM quickstart: unified registers/cache management\n");
  std::printf("---------------------------------------------------\n");
  std::printf("program output: %lld (expected 6112)\n",
              static_cast<long long>(Cmp.Unified.Output.at(0)));
  std::printf("\nstatic classification: %s\n",
              Cmp.StaticStats.str().c_str());
  std::printf("\n%-16s %14s %14s\n", "", "conventional", "unified");
  std::printf("%-16s %14llu %14llu\n", "data refs",
              static_cast<unsigned long long>(Cmp.Conventional.Refs.total()),
              static_cast<unsigned long long>(Cmp.Unified.Refs.total()));
  std::printf("%-16s %14llu %14llu\n", "cache traffic",
              static_cast<unsigned long long>(
                  Cmp.Conventional.Cache.cacheTraffic()),
              static_cast<unsigned long long>(
                  Cmp.Unified.Cache.cacheTraffic()));
  std::printf("%-16s %14llu %14llu\n", "bus traffic",
              static_cast<unsigned long long>(
                  Cmp.Conventional.Cache.busTraffic()),
              static_cast<unsigned long long>(
                  Cmp.Unified.Cache.busTraffic()));
  std::printf("%-16s %13.2f%% %13.2f%%\n", "cache hit rate",
              Cmp.Conventional.Cache.hitRate() * 100.0,
              Cmp.Unified.Cache.hitRate() * 100.0);
  std::printf("\ncache traffic reduction: %.1f%%\n",
              Cmp.cacheTrafficReductionPercent());
  std::printf("dynamic unambiguous refs: %.1f%%\n",
              Cmp.dynamicUnambiguousPercent());
  return 0;
}
