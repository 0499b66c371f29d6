//===- race/RelayDetector.h - Sound static race detection -------*- C++ -*-===//
//
// Part of the Chimera reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Our port of RELAY (Voung/Jhala/Lerner; paper §3): a sound,
/// lockset-based static data-race detector. It composes relative-lockset
/// function summaries bottom-up over the call graph, then reports a race
/// for every pair of accesses from concurrently-runnable thread roots
/// that may touch a common escaping object with disjoint locksets and at
/// least one write.
///
/// Faithfully imprecise where RELAY is imprecise:
///  - non-mutex synchronization (barriers, fork/join, condition
///    variables) contributes no happens-before, so phase-separated or
///    init-vs-worker accesses are reported as (false) races — the target
///    of the paper's profiling optimization (§4);
///  - points-to is field-insensitive, so partitioned arrays alias — the
///    target of the symbolic-bounds optimization (§5).
///
//===----------------------------------------------------------------------===//

#ifndef CHIMERA_RACE_RELAYDETECTOR_H
#define CHIMERA_RACE_RELAYDETECTOR_H

#include "analysis/CallGraph.h"
#include "analysis/Escape.h"
#include "analysis/MayHappenInParallel.h"
#include "analysis/PointsTo.h"
#include "race/Summary.h"
#include "support/Metrics.h"

#include <string>
#include <vector>

namespace chimera {

namespace support {
class ThreadPool;
} // namespace support

namespace race {

/// One static racy instruction (half of a race pair).
struct RacyAccess {
  uint32_t FuncId = 0;
  ir::InstId Ident = 0;
  bool IsWrite = false;
};

/// A pair of static memory instructions that may race (paper §2.1).
struct RacePair {
  RacyAccess A;
  RacyAccess B;
  std::vector<uint32_t> Objects; ///< Common object ids, sorted.

  /// Canonical dedup key (unordered pair of instruction identities).
  uint64_t key() const;
};

/// A candidate pair the MHP filter removed, with the ordering proof kind.
struct PrunedRace {
  RacePair Pair;
  analysis::MhpOrdering Reason = analysis::MhpOrdering::MayRace;
};

/// Precision accounting for the MHP filter (ISSUE 3): how many candidate
/// pairs existed before pruning and why each removed pair is ordered.
struct MhpStats {
  analysis::MhpMode Mode = analysis::MhpMode::Off;
  uint64_t PairsBefore = 0;
  uint64_t PrunedForkJoin = 0;
  uint64_t PrunedBarrier = 0;

  uint64_t pruned() const { return PrunedForkJoin + PrunedBarrier; }
  uint64_t pairsAfter() const { return PairsBefore - pruned(); }
};

struct RaceReport {
  std::vector<RacePair> Pairs;
  /// Pairs removed by the MHP filter, sorted by key. A pair appears here
  /// only if *no* root context keeps it racy.
  std::vector<PrunedRace> PrunedPairs;
  MhpStats Mhp;

  /// All distinct racy instructions.
  std::vector<RacyAccess> racyInstructions() const;
  /// All unordered racy-function pairs (paper §2.1 racy-function-pair).
  std::vector<std::pair<uint32_t, uint32_t>> racyFunctionPairs() const;

  std::string str(const ir::Module &M) const;

  /// Publishes the MHP precision counters into \p Scope as gauges
  /// ("pairs_before", "pruned_forkjoin", "pruned_barrier", "pairs_after",
  /// "pruned_listed" = PrunedPairs.size()). A null-registry scope is a
  /// no-op. This is the only read path for MHP stats; the CLI's
  /// --race-stats renders from a registry snapshot.
  void publishTo(const obs::Scope &Scope) const;
};

class RelayDetector {
public:
  /// \p Pool, when given, parallelizes summary composition across
  /// call-independent SCCs (same level of the SCC DAG); results are
  /// bit-identical to the serial order because each task writes only its
  /// own functions' summary slots. Every run computes its summaries;
  /// nothing is cached across detectors. \p Mhp, when given and not Off,
  /// filters candidate race pairs whose accesses are provably ordered;
  /// pruned pairs are kept in RaceReport::PrunedPairs for auditing.
  RelayDetector(const ir::Module &M, const analysis::CallGraph &CG,
                const analysis::PointsTo &PT,
                const analysis::EscapeAnalysis &Escape,
                support::ThreadPool *Pool = nullptr,
                const analysis::MayHappenInParallel *Mhp = nullptr);

  /// Runs the full analysis.
  RaceReport detect();

  /// The per-function summaries (exposed for tests and diagnostics).
  const std::vector<FunctionSummary> &summaries() const { return Summaries; }

private:
  FunctionSummary summarizeFunction(uint32_t FuncId);
  void computeScc(const std::vector<uint32_t> &Scc);
  void computeSummaries();

  const ir::Module &M;
  const analysis::CallGraph &CG;
  const analysis::PointsTo &PT;
  const analysis::EscapeAnalysis &Escape;
  support::ThreadPool *Pool = nullptr;
  const analysis::MayHappenInParallel *Mhp = nullptr;
  std::vector<FunctionSummary> Summaries;
};

} // namespace race
} // namespace chimera

#endif // CHIMERA_RACE_RELAYDETECTOR_H
