//===- service/SessionManager.h - Concurrent pipeline sessions --*- C++ -*-===//
//
// Part of the Chimera reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-session analysis service: admits many
/// `core::PipelineRequest`s and runs each as a *session* — build the
/// pipeline, plan (through the shared persistent ArtifactCache when one
/// is attached), record, replay, verify determinism — concurrently on
/// one shared worker pool.
///
/// Contract:
///  - **Bounded admission.** At most `Options::MaxSessions` sessions may
///    be in flight (queued or running); `submit` past the bound returns
///    a typed error instead of queueing unboundedly.
///  - **Failure isolation.** A session that fails compile, validation,
///    audit, record, or replay completes with a typed `SessionResult`
///    error; sibling sessions are untouched. A session body that throws
///    is caught and reported the same way — nothing escapes onto the
///    pool.
///  - **Deadlines and cancellation.** Both are honored at stage
///    boundaries (the simulated machine cannot be preempted mid-run):
///    the session completes early with `Cancelled` or `DeadlineExpired`
///    set and a message naming the boundary.
///  - **Graceful drain.** `shutdown()` (and the destructor) stops
///    admissions, lets every in-flight session finish, and only then
///    joins the workers.
///  - **Determinism.** Sessions share only deterministic, content-keyed
///    state (the ArtifactCache), so the same request yields
///    bit-identical artifacts at any concurrency — `SessionResult`
///    carries the hashes, the plan fingerprint, and the encoded log so
///    callers can check.
///  - **Bounded memory.** A result lives in the manager only until
///    `wait` or `drainAll` collects it, so a manager that serves many
///    sessions does not accumulate their logs.
///
/// With `Options::Metrics` attached, fleet-wide counters land under
/// `service.*` and per-session wall times under
/// `service.session.<Tag>.*`.
///
//===----------------------------------------------------------------------===//

#ifndef CHIMERA_SERVICE_SESSIONMANAGER_H
#define CHIMERA_SERVICE_SESSIONMANAGER_H

#include "core/Pipeline.h"
#include "service/ArtifactCache.h"
#include "support/Expected.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace chimera {
namespace service {

/// Per-session execution knobs (the analysis knobs travel inside the
/// request's PipelineConfig).
struct SessionOptions {
  /// Record seed.
  uint64_t Seed = 42;
  /// Wall-clock budget in milliseconds, measured from submission;
  /// 0 = none. Checked at stage boundaries.
  uint64_t DeadlineMs = 0;
  /// Test hook called on the session's worker at every stage boundary
  /// ("admitted", "built", "planned", "recorded", "replayed") before
  /// the cancel/deadline check — a blocking hook lets tests hold a
  /// session at a boundary deterministically.
  std::function<void(const char *Stage)> StageHook;
};

/// Everything a completed session reports.
struct SessionResult {
  uint64_t Id = 0;
  std::string Tag;
  /// True only for a full record+replay round trip with Deterministic.
  bool Ok = false;
  bool Cancelled = false;
  bool DeadlineExpired = false;
  std::string Error; ///< Set when !Ok.

  uint64_t RecordStateHash = 0;
  uint64_t ReplayStateHash = 0;
  bool Deterministic = false;
  /// instrument::planFingerprint of the session's plan — equal across
  /// sessions of the same request, cached or recomputed.
  uint64_t PlanFingerprint = 0;
  /// replay::encodeLog of the recorded log (deterministic bytes), for
  /// bit-identity comparison against one-shot runs.
  std::vector<uint8_t> LogBytes;
  /// Host wall time from admission to completion, microseconds.
  uint64_t WallUs = 0;
};

class SessionManager {
public:
  struct Options {
    /// Worker threads for the session pool. >= 2 gives genuinely
    /// asynchronous sessions; <= 1 runs each session inline inside
    /// submit() (support::ThreadPool semantics), which is still correct
    /// but serial. 0 = one per hardware thread.
    unsigned Concurrency = 2;
    /// Bound on sessions in flight (queued + running).
    size_t MaxSessions = 64;
    /// Shared persistent artifact cache injected into every request
    /// whose config has none. May be null.
    ArtifactCache *Artifacts = nullptr;
    /// Fleet-wide service.* metrics sink. May be null.
    obs::Registry *Metrics = nullptr;
  };

  explicit SessionManager(Options Opts);
  /// Drains (shutdown()) before joining the pool.
  ~SessionManager();

  SessionManager(const SessionManager &) = delete;
  SessionManager &operator=(const SessionManager &) = delete;

  /// Admits \p Request as a new session. Fails (typed) when the
  /// in-flight bound is reached or the manager is shutting down; a
  /// rejected request runs nothing.
  support::Expected<uint64_t> submit(core::PipelineRequest Request,
                                     SessionOptions SO = SessionOptions());

  /// Requests cancellation of session \p Id. Honored at the session's
  /// next stage boundary. Returns false for unknown, completed or
  /// collected sessions (completion wins the race).
  bool cancel(uint64_t Id);

  /// Blocks until session \p Id completes and returns its result. Each
  /// result is handed out once: collecting it forgets the session, so a
  /// long-lived manager holds only uncollected results. An unknown or
  /// already collected id yields a failed result saying so.
  SessionResult wait(uint64_t Id);

  /// Blocks until every admitted session completes; returns the results
  /// not yet collected by wait(), in admission order, and forgets them.
  std::vector<SessionResult> drainAll();

  /// Stops admitting, waits for every in-flight session. Idempotent.
  void shutdown();

  /// Sessions currently queued or running.
  size_t inFlight() const;

private:
  struct Session {
    uint64_t Id = 0;
    core::PipelineRequest Request;
    SessionOptions Opts;
    std::chrono::steady_clock::time_point Admitted;
    bool CancelRequested = false; ///< Under SessionManager::Mu.
    bool Completed = false;       ///< Under SessionManager::Mu.
    SessionResult Result;         ///< Valid once Completed.
  };

  /// The session body; runs on the pool, never throws.
  void runSession(const std::shared_ptr<Session> &S);
  void complete(const std::shared_ptr<Session> &S, SessionResult R);
  bool shouldStop(const std::shared_ptr<Session> &S, const char *Stage,
                  SessionResult &R) const;
  obs::Scope fleetScope() const { return obs::Scope(Opts.Metrics, "service"); }

  Options Opts;
  mutable std::mutex Mu;
  std::condition_variable Cv; ///< Signaled on session completion.
  uint64_t NextId = 1;
  size_t InFlight = 0;
  bool Draining = false;
  /// Admitted sessions whose result is not collected yet.
  std::map<uint64_t, std::shared_ptr<Session>> Sessions;

  /// Last member: destroyed (joined) first, while Sessions is alive.
  std::unique_ptr<support::ThreadPool> Pool;
};

} // namespace service
} // namespace chimera

#endif // CHIMERA_SERVICE_SESSIONMANAGER_H
