//===- CacheModel.cpp - Policy-generic cache replay ----------------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "urcm/sim/CacheModel.h"

#include <cctype>
#include <cstring>
#include <limits>
#include <string>
#include <unordered_map>

using namespace urcm;

const char *urcm::cachePolicyName(CachePolicy Policy) {
  switch (Policy) {
  case CachePolicy::LRU:
    return "LRU";
  case CachePolicy::FIFO:
    return "FIFO";
  case CachePolicy::Random:
    return "Random";
  case CachePolicy::MIN:
    return "MIN";
  case CachePolicy::TreePLRU:
    return "TreePLRU";
  case CachePolicy::SRRIP:
    return "SRRIP";
  case CachePolicy::LivenessBypass:
    return "LivenessBypass";
  }
  return "?";
}

bool urcm::parseCachePolicy(const char *Spelling, CachePolicy &Out) {
  std::string Lower;
  for (const char *P = Spelling; *P; ++P)
    Lower.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(*P))));
  struct Entry {
    const char *Name;
    CachePolicy Policy;
  };
  static const Entry Table[] = {
      {"lru", CachePolicy::LRU},
      {"fifo", CachePolicy::FIFO},
      {"random", CachePolicy::Random},
      {"min", CachePolicy::MIN},
      {"plru", CachePolicy::TreePLRU},
      {"treeplru", CachePolicy::TreePLRU},
      {"srrip", CachePolicy::SRRIP},
      {"bypass", CachePolicy::LivenessBypass},
      {"livenessbypass", CachePolicy::LivenessBypass},
  };
  for (const Entry &E : Table)
    if (Lower == E.Name) {
      Out = E.Policy;
      return true;
    }
  return false;
}

namespace {
constexpr uint64_t Never = std::numeric_limits<uint64_t>::max();
} // namespace

std::shared_ptr<const std::vector<uint64_t>>
urcm::computeNextLineUses(const std::vector<TraceEvent> &Trace,
                          uint32_t LineWords) {
  CacheConfig Geo;
  Geo.LineWords = LineWords;
  CacheGeometry G(Geo);
  auto Next = std::make_shared<std::vector<uint64_t>>(Trace.size(), Never);
  std::unordered_map<uint64_t, uint64_t> NextOfLine;
  for (uint64_t Index = Trace.size(); Index-- > 0;) {
    const TraceEvent &E = Trace[Index];
    if (E.Info.Bypass)
      continue;
    uint64_t LA = G.lineAddr(E.Addr);
    auto It = NextOfLine.find(LA);
    (*Next)[Index] = It == NextOfLine.end() ? Never : It->second;
    NextOfLine[LA] = Index;
  }
  return Next;
}

CacheStats urcm::replayTrace(const std::vector<TraceEvent> &Trace,
                             const CacheConfig &Config,
                             CachePolicy Policy) {
  std::shared_ptr<const std::vector<uint64_t>> NextUses;
  if (Policy == CachePolicy::MIN)
    NextUses = computeNextLineUses(Trace, Config.LineWords);
  CacheModel R(Config, Policy, std::move(NextUses));
  R.feed(Trace.data(), Trace.size(), 0);
  return R.finish();
}

//===----------------------------------------------------------------------===//
// Dispatch ladders: every (shape, policy, attribution) instantiation of the
// core is compiled here, once.
//===----------------------------------------------------------------------===//

template <bool Data>
void CacheModelT<Data>::feed(const TraceEvent *Events, size_t Count,
                             uint64_t BaseIndex) {
  if (Attr)
    feedShape<true>(Events, Count, BaseIndex);
  else
    feedShape<false>(Events, Count, BaseIndex);
}

template <bool Data>
template <bool A>
void CacheModelT<Data>::feedShape(const TraceEvent *Events, size_t Count,
                                  uint64_t BaseIndex) {
  switch (Ways) {
  case 1:
    return feedPolicy<1, A>(Events, Count, BaseIndex);
  case 2:
    return feedPolicy<2, A>(Events, Count, BaseIndex);
  case 4:
    return feedPolicy<4, A>(Events, Count, BaseIndex);
  case 8:
    return feedPolicy<8, A>(Events, Count, BaseIndex);
  default:
    return feedPolicy<0, A>(Events, Count, BaseIndex);
  }
}

template <bool Data>
template <uint32_t W, bool A>
void CacheModelT<Data>::feedPolicy(const TraceEvent *Events, size_t Count,
                                   uint64_t BaseIndex) {
  switch (Policy) {
  case CachePolicy::LRU:
    return feedLoop<W, CachePolicy::LRU, A>(Events, Count, BaseIndex);
  case CachePolicy::FIFO:
    return feedLoop<W, CachePolicy::FIFO, A>(Events, Count, BaseIndex);
  case CachePolicy::Random:
    return feedLoop<W, CachePolicy::Random, A>(Events, Count, BaseIndex);
  case CachePolicy::MIN:
    return feedLoop<W, CachePolicy::MIN, A>(Events, Count, BaseIndex);
  case CachePolicy::TreePLRU:
    return feedLoop<W, CachePolicy::TreePLRU, A>(Events, Count, BaseIndex);
  case CachePolicy::SRRIP:
    return feedLoop<W, CachePolicy::SRRIP, A>(Events, Count, BaseIndex);
  case CachePolicy::LivenessBypass:
    return feedLoop<W, CachePolicy::LivenessBypass, A>(Events, Count,
                                                        BaseIndex);
  }
}

template <bool Data> void CacheModelT<Data>::selectLive() {
  Live = Attr ? liveShape<true>() : liveShape<false>();
}

template <bool Data>
template <bool A>
typename CacheModelT<Data>::LiveFn CacheModelT<Data>::liveShape() const {
  switch (Ways) {
  case 1:
    return livePolicy<1, A>();
  case 2:
    return livePolicy<2, A>();
  case 4:
    return livePolicy<4, A>();
  case 8:
    return livePolicy<8, A>();
  default:
    return livePolicy<0, A>();
  }
}

/// Only the live-eligible policies get a live entry point.
template <bool Data>
template <uint32_t W, bool A>
typename CacheModelT<Data>::LiveFn CacheModelT<Data>::livePolicy() const {
  switch (Policy) {
  case CachePolicy::LRU:
    return &CacheModelT::liveStep<W, CachePolicy::LRU, A>;
  case CachePolicy::FIFO:
    return &CacheModelT::liveStep<W, CachePolicy::FIFO, A>;
  case CachePolicy::Random:
    return &CacheModelT::liveStep<W, CachePolicy::Random, A>;
  case CachePolicy::TreePLRU:
    return &CacheModelT::liveStep<W, CachePolicy::TreePLRU, A>;
  case CachePolicy::SRRIP:
    return &CacheModelT::liveStep<W, CachePolicy::SRRIP, A>;
  case CachePolicy::MIN:
  case CachePolicy::LivenessBypass:
    break;
  }
  return nullptr;
}

// Replay feeds the tag-only facet; both facets serve live accesses.
template void CacheModelT<false>::feed(const TraceEvent *, size_t, uint64_t);
template void CacheModelT<false>::selectLive();
template void CacheModelT<true>::selectLive();
