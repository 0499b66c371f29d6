//===- stress/Minimizer.cpp - Delta-debugging shrinker ---------------------===//
//
// Part of the Chimera reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "stress/Stress.h"

using namespace chimera;
using namespace chimera::stress;

namespace {

/// One shrink step: mutate the case toward something simpler, or
/// return false when the case is already at this step's floor (so the
/// candidate would be identical and running it is pointless).
using Step = bool (*)(TrialCase &);

bool shrinkSource(TrialCase &C) {
  auto Smallest = miniSource(miniSourceNames().front());
  if (!Smallest || C.Source == *Smallest)
    return false;
  C.SourceName = miniSourceNames().front();
  C.Source = *Smallest;
  C.Profile.clear();
  C.Config.Name = C.SourceName;
  return true;
}

bool shrinkSeed(TrialCase &C) {
  if (C.Seed == 1)
    return false;
  C.Seed = 1;
  return true;
}

bool shrinkCoresTo1(TrialCase &C) {
  if (C.Config.NumCores == 1)
    return false;
  C.Config.NumCores = 1;
  return true;
}

bool shrinkCoresTo2(TrialCase &C) {
  if (C.Config.NumCores <= 2)
    return false;
  C.Config.NumCores = 2;
  return true;
}

bool shrinkProfile(TrialCase &C) {
  if (C.Config.ProfileRuns == 2 && C.Config.ProfileCores == 2)
    return false;
  C.Config.ProfileRuns = 2;
  C.Config.ProfileCores = 2;
  return true;
}

bool shrinkJobs(TrialCase &C) {
  if (C.Config.AnalysisJobs == 1 && C.Config.UseSummaryCache)
    return false;
  C.Config.AnalysisJobs = 1;
  C.Config.UseSummaryCache = true;
  return true;
}

bool shrinkMhp(TrialCase &C) {
  if (C.Config.Mhp == analysis::MhpMode::Barrier)
    return false;
  C.Config.Mhp = analysis::MhpMode::Barrier;
  return true;
}

bool shrinkLockOrder(TrialCase &C) {
  if (C.Config.LockOrder == analysis::LockOrderMode::Off)
    return false;
  C.Config.LockOrder = analysis::LockOrderMode::Off;
  return true;
}

bool shrinkTimeout(TrialCase &C) {
  if (C.Config.WeakLockTimeout == 500'000'000)
    return false;
  C.Config.WeakLockTimeout = 500'000'000;
  return true;
}

bool shrinkQuantum(TrialCase &C) {
  if (C.Config.QuantumMin == 3000 && C.Config.QuantumMax == 9000)
    return false;
  C.Config.QuantumMin = 3000;
  C.Config.QuantumMax = 9000;
  return true;
}

bool shrinkDispatch(TrialCase &C) {
  if (C.Config.DispatchBatch == 64)
    return false;
  C.Config.DispatchBatch = 64;
  return true;
}

bool shrinkSegments(TrialCase &C) {
  if (C.Config.SegmentBytes == 64 * 1024)
    return false;
  C.Config.SegmentBytes = 64 * 1024;
  return true;
}

bool shrinkCheckpoints(TrialCase &C) {
  if (C.Config.CheckpointEvery == 4096)
    return false;
  C.Config.CheckpointEvery = 4096;
  return true;
}

/// ParallelReplay with one job degenerates to the sequential path;
/// keep two so the oracle still exercises epoch stitching.
unsigned replayJobsFloor(const TrialCase &C) {
  return C.Oracle == OracleKind::ParallelReplay ? 2 : 1;
}

bool shrinkReplayJobs(TrialCase &C) {
  unsigned Floor = replayJobsFloor(C);
  if (C.Config.ReplayJobs <= Floor)
    return false;
  C.Config.ReplayJobs = Floor;
  return true;
}

bool shrinkReplayJobsHalve(TrialCase &C) {
  // Fallback when the floor jump is rejected (the failure needs some
  // parallelism): halve the distance to the floor each round, so the
  // fixpoint loop descends to the smallest job count that still fails.
  unsigned Floor = replayJobsFloor(C);
  if (C.Config.ReplayJobs <= Floor + 1)
    return false;
  C.Config.ReplayJobs = Floor + (C.Config.ReplayJobs - Floor) / 2;
  return true;
}

bool shrinkObs(TrialCase &C) {
  obs::ObsMode Floor = C.Oracle == OracleKind::ObsInert
                           ? obs::ObsMode::Sampled
                           : obs::ObsMode::Off;
  if (C.Config.Observability == Floor ||
      (C.Oracle == OracleKind::ObsInert &&
       C.Config.Observability == obs::ObsMode::Sampled))
    return false;
  C.Config.Observability = Floor;
  return true;
}

bool shrinkAlt(TrialCase &C) {
  if (C.AltDispatchBatch == 1 && C.AltQuantumMin == 1 &&
      C.AltQuantumMax == 1)
    return false;
  C.AltDispatchBatch = 1;
  C.AltQuantumMin = 1;
  C.AltQuantumMax = 1;
  return true;
}

bool shrinkFaultOffset(TrialCase &C) {
  // Halve toward zero; the fixpoint loop turns this into a full
  // logarithmic descent to the smallest offset that still fails.
  if (C.Fault.K == FaultSpec::Kind::None || C.Fault.Offset == 0)
    return false;
  C.Fault.Offset /= 2;
  return true;
}

const Step Steps[] = {
    shrinkSource,    shrinkSeed,        shrinkCoresTo1,  shrinkCoresTo2,
    shrinkProfile,   shrinkJobs,        shrinkMhp,       shrinkLockOrder,
    shrinkTimeout,   shrinkQuantum,     shrinkDispatch,  shrinkSegments,
    shrinkCheckpoints, shrinkReplayJobs, shrinkReplayJobsHalve,
    shrinkObs,       shrinkAlt,         shrinkFaultOffset,
};

} // namespace

TrialCase Minimizer::minimize(TrialCase Case, const Predicate &StillFails,
                              Stats *S) const {
  Stats Local;
  Stats &St = S ? *S : Local;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    ++St.Rounds;
    for (Step Shrink : Steps) {
      TrialCase Candidate = Case;
      if (!Shrink(Candidate))
        continue;
      ++St.Tried;
      if (StillFails(Candidate)) {
        Case = std::move(Candidate);
        ++St.Adopted;
        Changed = true;
      }
    }
  }
  return Case;
}

Minimizer::Predicate
stress::sameFailurePredicate(const TrialResult &Original) {
  std::string Class = failureClass(Original.Failure);
  return [Class](const TrialCase &Candidate) {
    TrialResult R = runTrial(Candidate);
    return !R.Passed && failureClass(R.Failure) == Class;
  };
}
