//===- stress/Stress.h - Schedule-fuzzing & fault-injection -----*- C++ -*-===//
//
// Part of the Chimera reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic stress campaign over the whole pipeline: every seed
/// derives one perturbed configuration (a TrialCase) plus one
/// differential oracle, runs it (runTrial), and any failure is shrunk
/// by a delta-debugging Minimizer to a minimal repro that can be
/// written to disk and replayed bit-identically (`chimera stress
/// --repro <file>`).
///
/// Everything here is a pure function of the base seed: deriveCase uses
/// only support::Rng seeded from (BaseSeed, Index), runTrial consults
/// no wall clock, and the campaign merges results in index order — so a
/// campaign is reproducible across runs, job counts, and machines, and
/// a checked-in repro file keeps failing (or keeps passing, once fixed)
/// forever.
///
/// The oracles are differential: each one runs the same simulated
/// program twice through paths the architecture promises are
/// equivalent (record vs replay, sequential vs parallel replay, warm
/// vs cold artifact cache, observability on vs off, ...) and fails on
/// any byte of disagreement. Fault-injection oracles corrupt the
/// on-disk log / cache image and check the damage contracts instead
/// (longest-valid-prefix recovery, damaged artifacts never surface).
///
//===----------------------------------------------------------------------===//

#ifndef CHIMERA_STRESS_STRESS_H
#define CHIMERA_STRESS_STRESS_H

#include "core/Options.h"
#include "support/Expected.h"
#include "support/Metrics.h"

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace chimera {
namespace stress {

//===----------------------------------------------------------------------===//
// Oracles
//===----------------------------------------------------------------------===//

/// One differential check over a TrialCase. Every oracle is a totality:
/// it either passes or produces a classed failure message; a crash or
/// unexpected error inside the pipeline is itself a failure.
enum class OracleKind {
  /// record(seed) then replay(log): state hash and output identical.
  RecordReplay,
  /// recordStreamed: the on-disk segmented log recovers Complete and
  /// re-encodes byte-identically to the in-memory log; replaying the
  /// recovered log reproduces the recorded state hash.
  StreamedLog,
  /// replayParallel(jobs) is bit-identical to sequential recovery +
  /// replay: state, output, and merged log bytes.
  ParallelReplay,
  /// A plan recomputed cold, a plan hit warm in an ArtifactCache, and a
  /// plan decoded from serialized cache bytes are fingerprint-identical
  /// and drive byte-identical recordings.
  CacheWarmCold,
  /// Observability Off vs Sampled/Full never changes simulated state:
  /// logs, hashes, and output are bit-identical.
  ObsInert,
  /// A corrupted log file either refuses to open, recovers a valid
  /// prefix (never Complete with altered content), and parallel replay
  /// of the damaged log agrees with sequential recovery + replay.
  LogFault,
  /// A corrupted cache image loads partially or errors, but never
  /// surfaces a damaged artifact: a pipeline over the damaged cache is
  /// bit-identical to a cold one.
  CacheFault,
  /// DispatchBatch (and AnalysisJobs) are pure host-speed knobs:
  /// changing them changes no recorded byte — with CheckpointEvery > 0,
  /// no byte of the streamed file either — nor the record makespan, nor
  /// the state, output, or makespan of a native run of the original.
  BatchInvariance,
  /// A log records under one quantum/DispatchBatch and replays under
  /// another: the replay still reproduces the recorded state hash.
  ReplayPerturbed,
};

/// All oracle kinds, in declaration order.
const std::vector<OracleKind> &allOracles();
const char *oracleName(OracleKind Kind);
support::Expected<OracleKind> parseOracle(const std::string &Text);

//===----------------------------------------------------------------------===//
// Trial cases
//===----------------------------------------------------------------------===//

/// Deterministic damage applied to an on-disk image (log or cache
/// bytes) before the recovery path under test reads it back.
struct FaultSpec {
  enum class Kind {
    None,
    FlipBit,  ///< XOR one bit: bit index = Offset mod (8 * size).
    Truncate, ///< Keep the first (Offset mod size) bytes.
  };
  Kind K = Kind::None;
  uint64_t Offset = 0;
};

const char *faultKindName(FaultSpec::Kind Kind);
support::Expected<FaultSpec::Kind> parseFaultKind(const std::string &Text);

/// Applies \p Fault to \p Bytes in place (no-op for Kind::None or an
/// empty image).
void applyFault(std::vector<uint8_t> &Bytes, const FaultSpec &Fault);

/// Everything one trial needs, self-contained: the MiniC sources are
/// stored verbatim so a repro file replays against exactly the program
/// it failed on.
struct TrialCase {
  OracleKind Oracle = OracleKind::RecordReplay;
  /// Execution seed fed to record().
  uint64_t Seed = 1;
  /// Catalog or workload name, for humans and file names.
  std::string SourceName = "racy-counter";
  /// Evaluation MiniC source.
  std::string Source;
  /// Profiling source; empty = same as Source.
  std::string Profile;
  core::PipelineConfig Config;
  /// Damage for the fault-injection oracles (Kind::None otherwise).
  FaultSpec Fault;
  /// Perturbation partners for BatchInvariance / ReplayPerturbed.
  unsigned AltDispatchBatch = 1;
  uint64_t AltQuantumMin = 3000;
  uint64_t AltQuantumMax = 9000;
};

/// The outcome of one trial. Failure messages start with a stable
/// class token ("state-divergence", "log-divergence", "build", ...)
/// followed by ": detail"; the class is what the Minimizer preserves
/// while shrinking.
struct TrialResult {
  bool Passed = false;
  std::string Failure;
  /// State hash of the reference execution (0 when it never ran) —
  /// lets a repro re-run assert bit-identity with the original find.
  uint64_t RecordHash = 0;
};

/// The stable class token of \p Failure (its prefix up to ':').
std::string failureClass(const std::string &Failure);

/// Derives trial \p Index of the campaign with base seed \p BaseSeed:
/// picks an oracle, a source (mini-catalog or an occasional tiny-scale
/// paper workload), and a perturbed configuration, all from one
/// support::Rng. Pure: same (BaseSeed, Index) always yields the same
/// case.
TrialCase deriveCase(uint64_t BaseSeed, uint64_t Index);

/// Runs one trial to completion. Deterministic: the result is a pure
/// function of the case (temp-file names aside, which never feed back
/// into simulated state).
TrialResult runTrial(const TrialCase &Case);

/// Names of the built-in mini sources (deriveCase's catalog).
const std::vector<std::string> &miniSourceNames();
/// MiniC text of a catalog source; fails on an unknown name.
support::Expected<std::string> miniSource(const std::string &Name);

//===----------------------------------------------------------------------===//
// Repro files
//===----------------------------------------------------------------------===//

/// Text round-trip for TrialCase: `formatRepro` emits the v1 repro
/// format (key/value header plus length-prefixed raw source blocks) and
/// `parseRepro` reads it back exactly — parse(format(C)) == C for every
/// field. Unknown keys are an error (a repro must not silently drop a
/// knob it was minimized to need).
std::string formatRepro(const TrialCase &Case);
support::Expected<TrialCase> parseRepro(const std::string &Text);

support::Error writeReproFile(const std::string &Path,
                              const TrialCase &Case);
support::Expected<TrialCase> readReproFile(const std::string &Path);

//===----------------------------------------------------------------------===//
// Minimizer
//===----------------------------------------------------------------------===//

/// Delta-debugging shrinker: repeatedly proposes simpler variants of a
/// failing case (smaller source, default knobs, seed 1, halved fault
/// offset) and keeps each one iff the caller's predicate still fails,
/// until a full round adopts nothing. Deterministic: candidates are
/// proposed in a fixed order, so the same case and predicate always
/// shrink to the same minimum.
class Minimizer {
public:
  /// Returns true when the candidate still exhibits the failure being
  /// chased (typically: runTrial fails with the same failureClass).
  using Predicate = std::function<bool(const TrialCase &)>;

  struct Stats {
    uint64_t Tried = 0;   ///< Candidates evaluated.
    uint64_t Adopted = 0; ///< Candidates that still failed and were kept.
    uint64_t Rounds = 0;  ///< Fixpoint rounds (last round adopts nothing).
  };

  /// Shrinks \p Case under \p StillFails. The input case is assumed to
  /// fail the predicate (it is returned unchanged if nothing simpler
  /// does).
  TrialCase minimize(TrialCase Case, const Predicate &StillFails,
                     Stats *S = nullptr) const;
};

/// The standard shrink predicate: the candidate's runTrial must fail
/// with the same failure class as \p Original.
Minimizer::Predicate sameFailurePredicate(const TrialResult &Original);

//===----------------------------------------------------------------------===//
// Campaign
//===----------------------------------------------------------------------===//

struct CampaignOptions {
  uint64_t Seeds = 500;
  uint64_t BaseSeed = 1;
  /// Worker threads for the trial fan-out; 0 = one per hardware thread.
  /// Results are identical for every value.
  unsigned Jobs = 0;
  /// Shrink every failure with the Minimizer.
  bool Shrink = true;
  /// Directory for minimized repro files; empty = don't write any.
  std::string ReproDir;
  /// Optional registry for stress.* counters; may be null.
  obs::Registry *Metrics = nullptr;
  /// Optional progress callback (Done, Total); called from pool
  /// threads, must be thread-safe. May be null.
  std::function<void(uint64_t, uint64_t)> Progress;
};

struct CampaignFailure {
  uint64_t Index = 0; ///< Trial index within the campaign.
  TrialCase Case;
  TrialResult Result;
  /// Shrunk case + its result; equal to Case/Result when shrinking was
  /// disabled.
  TrialCase Minimized;
  TrialResult MinimizedResult;
  Minimizer::Stats Shrink;
  std::string ReproPath; ///< Empty when no ReproDir was given.
};

struct CampaignReport {
  uint64_t Trials = 0;
  uint64_t Passed = 0;
  uint64_t Failed = 0;
  /// Trials (and failures) per oracle name.
  std::map<std::string, uint64_t> TrialsPerOracle;
  std::map<std::string, uint64_t> FailuresPerOracle;
  std::vector<CampaignFailure> Failures;

  bool allPassed() const { return Failed == 0; }
  /// The whole report as a JSON object (campaign summary, per-oracle
  /// table, one entry per failure with its minimized knobs and repro
  /// path).
  std::string toJson() const;
};

/// Runs trials [0, Seeds) of the campaign: derive, run on a worker
/// pool, merge in index order, then shrink failures sequentially (in
/// index order) and write repro files. Deterministic for a given
/// (BaseSeed, Seeds) regardless of Jobs.
CampaignReport runCampaign(const CampaignOptions &Opts);

} // namespace stress
} // namespace chimera

#endif // CHIMERA_STRESS_STRESS_H
