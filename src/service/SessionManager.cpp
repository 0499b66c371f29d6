//===- service/SessionManager.cpp - Concurrent pipeline sessions -----------===//

#include "service/SessionManager.h"

#include "instrument/LockOrderAuditor.h"
#include "replay/LogCodec.h"

using namespace chimera;
using namespace chimera::service;

SessionManager::SessionManager(Options O) : Opts(O) {
  Pool = std::make_unique<support::ThreadPool>(Opts.Concurrency);
}

SessionManager::~SessionManager() { shutdown(); }

support::Expected<uint64_t>
SessionManager::submit(core::PipelineRequest Request, SessionOptions SO) {
  auto S = std::make_shared<Session>();
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Draining)
      return support::Error::failure(
          "session manager is shutting down; request '" + Request.Tag +
          "' rejected");
    if (InFlight >= Opts.MaxSessions) {
      fleetScope().counter("rejected").inc();
      return support::Error::failure(
          "admission bound reached (" + std::to_string(Opts.MaxSessions) +
          " sessions in flight); request '" + Request.Tag + "' rejected");
    }
    S->Id = NextId++;
    ++InFlight;
    Sessions.emplace(S->Id, S);
  }
  // The shared persistent cache rides along unless the caller wired a
  // specific one into the request already.
  if (Opts.Artifacts && !Request.Config.Artifacts)
    Request.Config.Artifacts = Opts.Artifacts;
  S->Request = std::move(Request);
  S->Opts = std::move(SO);
  S->Admitted = std::chrono::steady_clock::now();

  obs::Scope Fleet = fleetScope();
  Fleet.counter("submitted").inc();
  Fleet.gauge("in_flight").set(static_cast<int64_t>(inFlight()));

  // With Concurrency <= 1 the pool runs this inline: the session is
  // complete when submit returns. Still correct — just serial.
  Pool->submit([this, S] { runSession(S); });
  return S->Id;
}

bool SessionManager::cancel(uint64_t Id) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Sessions.find(Id);
  if (It == Sessions.end() || It->second->Completed)
    return false;
  It->second->CancelRequested = true;
  return true;
}

SessionResult SessionManager::wait(uint64_t Id) {
  std::unique_lock<std::mutex> Lock(Mu);
  auto unknown = [Id] {
    SessionResult R;
    R.Id = Id;
    R.Error = "unknown session id " + std::to_string(Id);
    return R;
  };
  auto It = Sessions.find(Id);
  if (It == Sessions.end())
    return unknown();
  std::shared_ptr<Session> S = It->second;
  Cv.wait(Lock, [&] { return S->Completed; });
  // A result is handed out once; erasing it frees its log bytes. A
  // concurrent wait or drainAll that collected it first wins.
  if (Sessions.erase(Id) == 0)
    return unknown();
  return std::move(S->Result);
}

std::vector<SessionResult> SessionManager::drainAll() {
  std::unique_lock<std::mutex> Lock(Mu);
  Cv.wait(Lock, [&] { return InFlight == 0; });
  std::vector<SessionResult> All;
  All.reserve(Sessions.size());
  for (auto &[Id, S] : Sessions) // std::map: admission (id) order.
    All.push_back(std::move(S->Result));
  Sessions.clear();
  return All;
}

void SessionManager::shutdown() {
  {
    std::unique_lock<std::mutex> Lock(Mu);
    Draining = true;
    Cv.wait(Lock, [&] { return InFlight == 0; });
  }
  Pool.reset(); // Joins the (now idle) workers. Idempotent.
}

size_t SessionManager::inFlight() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return InFlight;
}

/// True when the session must stop at this boundary; fills the
/// cancel/deadline fields of \p R.
bool SessionManager::shouldStop(const std::shared_ptr<Session> &S,
                                const char *Stage, SessionResult &R) const {
  if (S->Opts.StageHook)
    S->Opts.StageHook(Stage);
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (S->CancelRequested) {
      R.Cancelled = true;
      R.Error = std::string("session cancelled at stage '") + Stage + "'";
      return true;
    }
  }
  if (S->Opts.DeadlineMs) {
    auto Elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - S->Admitted)
                       .count();
    if (static_cast<uint64_t>(Elapsed) >= S->Opts.DeadlineMs) {
      R.DeadlineExpired = true;
      R.Error = "session deadline (" + std::to_string(S->Opts.DeadlineMs) +
                " ms) expired at stage '" + Stage + "'";
      return true;
    }
  }
  return false;
}

void SessionManager::complete(const std::shared_ptr<Session> &S,
                              SessionResult R) {
  R.Id = S->Id;
  R.WallUs = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - S->Admitted)
          .count());

  obs::Scope Fleet = fleetScope();
  Fleet.counter(R.Ok          ? "completed"
                : R.Cancelled ? "cancelled"
                : R.DeadlineExpired
                    ? "deadline_expired"
                    : "failed")
      .inc();
  Fleet.histogram("session_wall_us").record(R.WallUs);
  if (!R.Tag.empty())
    Fleet.sub("session").sub(R.Tag).counter("wall_us").add(R.WallUs);

  {
    std::lock_guard<std::mutex> Lock(Mu);
    S->Result = std::move(R);
    S->Completed = true;
    --InFlight;
    Fleet.gauge("in_flight").set(static_cast<int64_t>(InFlight));
  }
  Cv.notify_all();
}

void SessionManager::runSession(const std::shared_ptr<Session> &S) {
  SessionResult R;
  R.Tag = S->Request.Tag;
  try {
    if (shouldStop(S, "admitted", R))
      return complete(S, std::move(R));

    auto Built = core::ChimeraPipeline::create(std::move(S->Request));
    if (!Built) {
      R.Error = Built.error().message();
      return complete(S, std::move(R));
    }
    std::unique_ptr<core::ChimeraPipeline> P = Built.take();
    if (shouldStop(S, "built", R))
      return complete(S, std::move(R));

    // Forces the analysis chain (RELAY -> profile -> plan -> certify),
    // or one artifact-cache lookup on a warm hit.
    R.PlanFingerprint = instrument::planFingerprint(P->plan());
    if (const support::Error &E = P->profileError()) {
      R.Error = E.message();
      return complete(S, std::move(R));
    }
    if (shouldStop(S, "planned", R))
      return complete(S, std::move(R));

    rt::ExecutionResult Rec = P->record(S->Opts.Seed);
    if (!Rec.Ok) {
      R.Error = "record failed: " + Rec.Error;
      return complete(S, std::move(R));
    }
    R.RecordStateHash = Rec.StateHash;
    if (shouldStop(S, "recorded", R))
      return complete(S, std::move(R));

    rt::ExecutionResult Rep = P->replay(Rec.Log);
    if (!Rep.Ok) {
      R.Error = "replay failed: " + Rep.Error;
      return complete(S, std::move(R));
    }
    R.ReplayStateHash = Rep.StateHash;
    R.Deterministic = Rep.StateHash == Rec.StateHash;
    R.LogBytes = replay::encodeLog(Rec.Log);
    if (shouldStop(S, "replayed", R))
      return complete(S, std::move(R));

    if (!R.Deterministic) {
      R.Error = "replay diverged from record (state hash mismatch)";
      return complete(S, std::move(R));
    }
    R.Ok = true;
    complete(S, std::move(R));
  } catch (const std::exception &E) {
    // Isolation backstop: a throwing session must not take the pool (or
    // its sibling sessions) down with it.
    R.Ok = false;
    R.Error = std::string("session threw: ") + E.what();
    complete(S, std::move(R));
  } catch (...) {
    R.Ok = false;
    R.Error = "session threw a non-standard exception";
    complete(S, std::move(R));
  }
}
