//===- race/SummaryCache.h - Inert stand-in for a removed cache -*- C++ -*-===//
//
// Part of the Chimera reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RELAY once consulted a process-wide cache of function summaries.
/// Hashing the module and every callee summary cost more than the
/// per-function dataflow it skipped, so every RELAY run now computes its
/// summaries. This stateless class is kept only for perfbench/, which
/// still clears the cache and reads its hit gauge; both do nothing, and
/// the gauge is never published (a snapshot reads it as 0).
///
//===----------------------------------------------------------------------===//

#ifndef CHIMERA_RACE_SUMMARYCACHE_H
#define CHIMERA_RACE_SUMMARYCACHE_H

#include "support/Metrics.h"

namespace chimera {
namespace race {

class SummaryCache {
public:
  static SummaryCache &global() {
    static SummaryCache Inert;
    return Inert;
  }
  void clear() {}
  void publishTo(const obs::Scope &) const {}
};

} // namespace race
} // namespace chimera

#endif // CHIMERA_RACE_SUMMARYCACHE_H
