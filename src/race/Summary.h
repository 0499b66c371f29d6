//===- race/Summary.h - RELAY-style function summaries ----------*- C++ -*-===//
//
// Part of the Chimera reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RELAY (paper §3.1) computes, bottom-up over the call graph, a summary
/// per function: the function's effect on the caller's lockset and the
/// shared-object accesses it (transitively) performs, each tagged with
/// the *relative* lockset held — locks acquired within the function's
/// own dynamic extent. Plugging a callee summary into a caller adds the
/// caller's current lockset to each access.
///
//===----------------------------------------------------------------------===//

#ifndef CHIMERA_RACE_SUMMARY_H
#define CHIMERA_RACE_SUMMARY_H

#include "race/Lockset.h"

#include "ir/Instruction.h"

#include <cstdint>
#include <vector>

namespace chimera {
namespace race {

/// One (transitive) shared-memory access a function may perform.
struct AccessRecord {
  uint32_t FuncId = 0;     ///< Function containing the instruction.
  ir::InstId Ident = 0;    ///< The Load/Store instruction.
  bool IsWrite = false;
  std::vector<uint32_t> Objects; ///< Abstract object ids, sorted.
  Lockset Held;            ///< Relative must-held lockset at the access.
};

/// Summary of a function's lock behavior and accesses.
struct FunctionSummary {
  /// Locks the function is guaranteed to have acquired (and still hold)
  /// when it returns, beyond its entry lockset.
  Lockset NetAcquired;
  /// Locks the function may release (its caller cannot rely on them
  /// being held across the call).
  Lockset MayReleased;
  /// Own plus lifted-callee accesses, deduplicated per instruction with
  /// locksets intersected over contexts (sound for must-analysis).
  std::vector<AccessRecord> Accesses;

  bool operator==(const FunctionSummary &O) const {
    return NetAcquired == O.NetAcquired && MayReleased == O.MayReleased &&
           accessFingerprint() == O.accessFingerprint();
  }

  /// Cheap structural fingerprint used for fixpoint detection.
  uint64_t accessFingerprint() const;
};

} // namespace race
} // namespace chimera

#endif // CHIMERA_RACE_SUMMARY_H
