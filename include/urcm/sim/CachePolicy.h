//===- urcm/sim/CachePolicy.h - Unified replacement-policy layer -*- C++ -*-===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single replacement-policy vocabulary shared by every cache model
/// in the tree: the one cache model (urcm/sim/CacheModel.h), live and
/// replayed, and the sweep engine's stack-distance stream.
///
/// The policy families (paper section 3.2 argues dead-line freeing is
/// compatible with any of them):
///
///  * LRU / FIFO / Random — the classical set-local policies.
///  * MIN — Belady's optimal replacement [Bel66]; needs future
///    knowledge, so it exists only in trace replay.
///  * TreePLRU — tree pseudo-LRU over power-of-two associativity, the
///    hardware-practical LRU approximation (one bit per tree node).
///  * SRRIP — static re-reference interval prediction with 2-bit RRPV
///    counters (insert at distant-2, promote to 0 on hit, age until a
///    way reaches 3) — the RRIP baseline a credible bypass evaluation
///    needs (Faldu, PAPERS.md).
///  * LivenessBypass — LRU plus a per-RefId dead-on-arrival predictor
///    that learns, from evictions without reuse, which references
///    should not allocate at all (a Leeway-style software analogue of
///    the paper's compiler bypass hints). Learning is a global table
///    over the trace, so it is replay-only and not set-shardable.
///
/// This header is dependency-free (cstdint only) so the low-level cache
/// headers can include it without cycles; the policy-generic replay
/// kernel lives in urcm/sim/CacheModel.h.
///
//===----------------------------------------------------------------------===//

#ifndef URCM_SIM_CACHEPOLICY_H
#define URCM_SIM_CACHEPOLICY_H

#include <cstdint>

namespace urcm {

/// Every replacement policy in the tree. The numeric values are part of
/// the persistent trace-store hash vocabulary for the *I-cache* config
/// (the data-cache hash deliberately excludes the policy — see
/// urcm/sim/TraceStore.h), so existing entries keep their values.
enum class CachePolicy : uint8_t {
  LRU = 0,
  FIFO = 1,
  Random = 2,
  MIN = 3,
  TreePLRU = 4,
  SRRIP = 5,
  LivenessBypass = 6,
};
static_assert(static_cast<uint8_t>(CachePolicy::LRU) == 0 &&
                  static_cast<uint8_t>(CachePolicy::FIFO) == 1 &&
                  static_cast<uint8_t>(CachePolicy::Random) == 2 &&
                  static_cast<uint8_t>(CachePolicy::MIN) == 3,
              "the trace store hashes these values: extend, never renumber");

/// Stable display name ("LRU", "TreePLRU", ...).
const char *cachePolicyName(CachePolicy Policy);

/// Parses a command-line spelling (lru|fifo|random|min|plru|srrip|
/// bypass, case-insensitive, plus the full names). Returns false and
/// leaves \p Out untouched if \p Spelling matches nothing.
bool parseCachePolicy(const char *Spelling, CachePolicy &Out);

/// True if a live (forward-executing) cache can implement \p Policy:
/// MIN needs future knowledge and LivenessBypass trains on a whole
/// recorded trace, so both are replay-only.
constexpr bool cachePolicyLiveEligible(CachePolicy Policy) {
  return Policy != CachePolicy::MIN && Policy != CachePolicy::LivenessBypass;
}

/// True if \p Policy keeps strictly per-set replacement state, which is
/// what lets set-sharded replay partition the sets and sum the counters
/// (urcm/sim/ShardedReplay.h). Random shares one RNG sequence across
/// sets, MIN indexes the global trace, and LivenessBypass trains one
/// global predictor table — none of them shard.
constexpr bool cachePolicySetShardEligible(CachePolicy Policy) {
  return Policy == CachePolicy::LRU || Policy == CachePolicy::FIFO ||
         Policy == CachePolicy::TreePLRU || Policy == CachePolicy::SRRIP;
}

/// SRRIP's re-reference prediction values (2-bit counters).
enum : uint8_t {
  SRRIPInsertRRPV = 2, ///< Long re-reference interval on install.
  SRRIPMaxRRPV = 3,    ///< Distant: the eviction candidate value.
};

namespace detail {

/// Shared victim-selection mechanisms. Each helper returns a way index
/// in [0, Assoc) and is the generic cache model's (urcm/sim/CacheModel.h)
/// victim choice, live and replayed alike. The model keeps each policy's
/// per-line state in a side array parallel to its tags, and the helpers
/// take one set's slice of it. All helpers assume every way of the set
/// is valid (callers prefer an invalid way first; the choice among
/// invalid ways has no observable effect).

/// LRU (last-use stamps) and FIFO (insertion stamps): the first way with
/// the smallest stamp.
inline uint32_t minStampWay(const uint64_t *Stamps, uint32_t Assoc) {
  uint32_t Victim = 0;
  for (uint32_t Way = 1; Way != Assoc; ++Way)
    if (Stamps[Way] < Stamps[Victim])
      Victim = Way;
  return Victim;
}

/// Belady MIN (next-use stamps): the first way whose next use is
/// farthest in the future.
inline uint32_t maxStampWay(const uint64_t *Stamps, uint32_t Assoc) {
  uint32_t Victim = 0;
  for (uint32_t Way = 1; Way != Assoc; ++Way)
    if (Stamps[Way] > Stamps[Victim])
      Victim = Way;
  return Victim;
}

/// SRRIP: the first way whose RRPV has reached the distant value; if
/// none, age every way by one and rescan. Ages in place. Terminates in
/// at most SRRIPMaxRRPV rounds (each round either finds a victim or
/// raises the set maximum by one), and no RRPV ever exceeds
/// SRRIPMaxRRPV: aging only runs while the set maximum is below it.
inline uint32_t srripVictimWay(uint8_t *RRPV, uint32_t Assoc) {
  for (;;) {
    for (uint32_t Way = 0; Way != Assoc; ++Way)
      if (RRPV[Way] >= SRRIPMaxRRPV)
        return Way;
    for (uint32_t Way = 0; Way != Assoc; ++Way)
      ++RRPV[Way];
  }
}

/// Tree pseudo-LRU state is one uint64 per set holding the node bits of
/// a complete binary tree over Assoc = 2^k ways (Assoc <= 64): node i
/// (1-based heap order, children 2i and 2i+1) owns bit i, and the bit's
/// value names the child subtree holding the next victim (0 = left,
/// 1 = right). An access rewrites the bits on its root-to-leaf path to
/// point *away* from the touched way, so the victim walk can never end
/// at the most recently touched way (the tree invariant the property
/// tests pin).

/// Follows the victim pointers from the root; \p Assoc must be a power
/// of two >= 2.
inline uint32_t treePLRUVictimWay(uint64_t Bits, uint32_t Assoc) {
  uint32_t Node = 1;
  while (Node < Assoc)
    Node = 2 * Node + ((Bits >> Node) & 1);
  return Node - Assoc;
}

/// Returns \p Bits with \p Way's path rewritten to point away from it
/// (the touched way becomes the hardest to evict).
inline uint64_t treePLRUTouch(uint64_t Bits, uint32_t Assoc, uint32_t Way) {
  for (uint32_t Node = Assoc + Way; Node > 1; Node /= 2) {
    uint32_t Parent = Node / 2;
    uint64_t Mask = uint64_t(1) << Parent;
    // Went right (Node odd) => point the victim walk left, and vice
    // versa.
    Bits = (Node & 1) ? (Bits & ~Mask) : (Bits | Mask);
  }
  return Bits;
}

/// Returns \p Bits with \p Way's path rewritten to point *at* it — the
/// dead-line demotion (paper footnote 6): a freed multi-word line
/// becomes the set's next victim.
inline uint64_t treePLRUPointAt(uint64_t Bits, uint32_t Assoc,
                                uint32_t Way) {
  for (uint32_t Node = Assoc + Way; Node > 1; Node /= 2) {
    uint32_t Parent = Node / 2;
    uint64_t Mask = uint64_t(1) << Parent;
    Bits = (Node & 1) ? (Bits | Mask) : (Bits & ~Mask);
  }
  return Bits;
}

} // namespace detail

} // namespace urcm

#endif // URCM_SIM_CACHEPOLICY_H
