//===- bench/BenchUtil.h - Shared benchmark harness helpers -----*- C++ -*-===//
//
// Part of the Chimera reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the bench binaries: the fixed seed, run checking,
/// and fixed-width table rules.
///
//===----------------------------------------------------------------------===//

#ifndef CHIMERA_BENCH_BENCHUTIL_H
#define CHIMERA_BENCH_BENCHUTIL_H

#include "workloads/Workloads.h"

#include <cstdio>
#include <cstdlib>

namespace chimera {
namespace bench {

/// The seed every bench records with (arbitrary but fixed, so bench
/// output is reproducible run-to-run).
inline const uint64_t BenchSeed = 2012;

inline void requireOk(const rt::ExecutionResult &R, const char *What) {
  if (!R.Ok) {
    std::fprintf(stderr, "%s failed: %s\n", What, R.Error.c_str());
    std::exit(1);
  }
}

inline void hrule(unsigned Width) {
  for (unsigned I = 0; I != Width; ++I)
    std::putchar('-');
  std::putchar('\n');
}

} // namespace bench
} // namespace chimera

#endif // CHIMERA_BENCH_BENCHUTIL_H
