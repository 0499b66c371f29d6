//===- core/Options.cpp - Pipeline configuration ---------------------------===//

#include "core/Options.h"

#include "support/ThreadPool.h"

using namespace chimera;
using namespace chimera::core;

unsigned PipelineConfig::effectiveAnalysisJobs() const {
  return AnalysisJobs ? AnalysisJobs
                      : support::ThreadPool::defaultConcurrency();
}

PipelineConfig::ProfileRun PipelineConfig::profileRun(unsigned Run) const {
  const unsigned CoreVariants[ProfileWave] = {ProfileCores, 2, 4, 8};
  return {ProfileSeedBase + Run, CoreVariants[Run % ProfileWave]};
}

support::Error PipelineConfig::validate() const {
  if (NumCores == 0)
    return support::Error::failure("NumCores must be at least 1");
  if (ProfileCores == 0)
    return support::Error::failure("ProfileCores must be at least 1");
  if (ProfileRuns == 0)
    return support::Error::failure("ProfileRuns must be at least 1");
  // An absurd job count is almost certainly a typo'd --jobs; each worker
  // costs a host thread, so refuse rather than oversubscribe wildly.
  if (AnalysisJobs > 512)
    return support::Error::failure(
        "AnalysisJobs must be in [0, 512] (0 = auto), got " +
        std::to_string(AnalysisJobs));
  if (ReplayJobs == 0 || ReplayJobs > 512)
    return support::Error::failure(
        "ReplayJobs must be in [1, 512], got " + std::to_string(ReplayJobs));
  // Below this a segment barely fits its own 32-byte header's worth of
  // records; it is certainly a typo'd --segment-bytes.
  if (SegmentBytes < 512)
    return support::Error::failure(
        "SegmentBytes must be at least 512, got " +
        std::to_string(SegmentBytes));
  if (QuantumMin == 0 || QuantumMin > QuantumMax)
    return support::Error::failure(
        "quantum bounds must satisfy 1 <= QuantumMin <= QuantumMax, got [" +
        std::to_string(QuantumMin) + ", " + std::to_string(QuantumMax) + "]");
  return support::Error::success();
}
