//===- stress/Repro.cpp - Minimal-repro file round-trip --------------------===//
//
// Part of the Chimera reproduction. MIT license.
//
// The v1 repro format is a key/value header followed by length-prefixed
// raw source blocks, so arbitrary MiniC text (newlines included) rides
// along byte-exactly:
//
//   # chimera stress repro v1
//   oracle: parallel-replay
//   seed: 7
//   ...
//   source: 412
//   <exactly 412 bytes of MiniC>
//   profile: 0
//
// parseRepro(formatRepro(C)) == C for every field; unknown keys are an
// error, because a repro that silently drops a knob it was minimized to
// need no longer reproduces anything.
//
//===----------------------------------------------------------------------===//

#include "stress/Stress.h"

#include <fstream>
#include <map>
#include <sstream>

using namespace chimera;
using namespace chimera::stress;

namespace {

const char *Magic = "# chimera stress repro v1";

void emit(std::string &Out, const std::string &Key,
          const std::string &Value) {
  Out += Key;
  Out += ": ";
  Out += Value;
  Out += '\n';
}

void emit(std::string &Out, const std::string &Key, uint64_t Value) {
  emit(Out, Key, std::to_string(Value));
}

support::Expected<uint64_t> parseU64(const std::string &Key,
                                     const std::string &Value) {
  if (Value.empty() ||
      Value.find_first_not_of("0123456789") != std::string::npos)
    return support::Error::failure("repro: bad integer for '" + Key +
                                   "': '" + Value + "'");
  return std::stoull(Value);
}

} // namespace

std::string stress::formatRepro(const TrialCase &Case) {
  const core::PipelineConfig &Cfg = Case.Config;
  std::string Out;
  Out += Magic;
  Out += '\n';
  emit(Out, "oracle", oracleName(Case.Oracle));
  emit(Out, "seed", Case.Seed);
  emit(Out, "source-name", Case.SourceName);
  emit(Out, "cores", Cfg.NumCores);
  emit(Out, "profile-runs", Cfg.ProfileRuns);
  emit(Out, "profile-cores", Cfg.ProfileCores);
  emit(Out, "profile-seed-base", Cfg.ProfileSeedBase);
  emit(Out, "analysis-jobs", Cfg.AnalysisJobs);
  emit(Out, "summary-cache", uint64_t(Cfg.UseSummaryCache));
  emit(Out, "mhp", analysis::mhpModeName(Cfg.Mhp));
  emit(Out, "lock-order", analysis::lockOrderModeName(Cfg.LockOrder));
  emit(Out, "weak-lock-timeout", Cfg.WeakLockTimeout);
  emit(Out, "quantum-min", Cfg.QuantumMin);
  emit(Out, "quantum-max", Cfg.QuantumMax);
  emit(Out, "dispatch-batch", Cfg.DispatchBatch);
  emit(Out, "segment-bytes", Cfg.SegmentBytes);
  emit(Out, "checkpoint-every", Cfg.CheckpointEvery);
  emit(Out, "replay-jobs", Cfg.ReplayJobs);
  emit(Out, "obs", obs::obsModeName(Cfg.Observability));
  emit(Out, "alt-dispatch-batch", Case.AltDispatchBatch);
  emit(Out, "alt-quantum-min", Case.AltQuantumMin);
  emit(Out, "alt-quantum-max", Case.AltQuantumMax);
  emit(Out, "fault", faultKindName(Case.Fault.K));
  emit(Out, "fault-offset", Case.Fault.Offset);
  emit(Out, "source", Case.Source.size());
  Out += Case.Source;
  Out += '\n';
  emit(Out, "profile", Case.Profile.size());
  Out += Case.Profile;
  Out += '\n';
  return Out;
}

support::Expected<TrialCase> stress::parseRepro(const std::string &Text) {
  TrialCase Case;
  size_t Pos = 0;
  auto nextLine = [&]() -> support::Expected<std::string> {
    if (Pos >= Text.size())
      return support::Error::failure("repro: unexpected end of file");
    size_t Nl = Text.find('\n', Pos);
    if (Nl == std::string::npos)
      return support::Error::failure("repro: missing final newline");
    std::string Line = Text.substr(Pos, Nl - Pos);
    Pos = Nl + 1;
    return Line;
  };
  auto takeBlock = [&](size_t Len,
                       std::string &Into) -> support::Error {
    if (Pos + Len + 1 > Text.size())
      return support::Error::failure("repro: source block truncated");
    Into = Text.substr(Pos, Len);
    Pos += Len;
    if (Text[Pos] != '\n')
      return support::Error::failure(
          "repro: source block not newline-terminated");
    ++Pos;
    return support::Error::success();
  };

  auto First = nextLine();
  if (!First)
    return First.error();
  if (*First != Magic)
    return support::Error::failure("repro: bad magic line '" + *First + "'");

  bool SawSource = false, SawProfile = false;
  while (Pos < Text.size()) {
    auto Line = nextLine();
    if (!Line)
      return Line.error();
    if (Line->empty())
      continue;
    size_t Colon = Line->find(": ");
    std::string Key, Value;
    if (Colon == std::string::npos) {
      // "key:" with an empty value ("source-name: " trims to this).
      if (Line->back() == ':')
        Key = Line->substr(0, Line->size() - 1);
      else
        return support::Error::failure("repro: malformed line '" + *Line +
                                       "'");
    } else {
      Key = Line->substr(0, Colon);
      Value = Line->substr(Colon + 2);
    }

    auto U64 = [&]() { return parseU64(Key, Value); };
    if (Key == "oracle") {
      auto K = parseOracle(Value);
      if (!K)
        return K.error();
      Case.Oracle = *K;
    } else if (Key == "seed") {
      auto V = U64();
      if (!V)
        return V.error();
      Case.Seed = *V;
    } else if (Key == "source-name") {
      Case.SourceName = Value;
    } else if (Key == "cores") {
      auto V = U64();
      if (!V)
        return V.error();
      Case.Config.NumCores = unsigned(*V);
    } else if (Key == "profile-runs") {
      auto V = U64();
      if (!V)
        return V.error();
      Case.Config.ProfileRuns = unsigned(*V);
    } else if (Key == "profile-cores") {
      auto V = U64();
      if (!V)
        return V.error();
      Case.Config.ProfileCores = unsigned(*V);
    } else if (Key == "profile-seed-base") {
      auto V = U64();
      if (!V)
        return V.error();
      Case.Config.ProfileSeedBase = *V;
    } else if (Key == "analysis-jobs") {
      auto V = U64();
      if (!V)
        return V.error();
      Case.Config.AnalysisJobs = unsigned(*V);
    } else if (Key == "summary-cache") {
      auto V = U64();
      if (!V)
        return V.error();
      Case.Config.UseSummaryCache = *V != 0;
    } else if (Key == "mhp") {
      auto M = analysis::parseMhpMode(Value);
      if (!M)
        return M.error();
      Case.Config.Mhp = *M;
    } else if (Key == "lock-order") {
      auto M = analysis::parseLockOrderMode(Value);
      if (!M)
        return M.error();
      Case.Config.LockOrder = *M;
    } else if (Key == "weak-lock-timeout") {
      auto V = U64();
      if (!V)
        return V.error();
      Case.Config.WeakLockTimeout = *V;
    } else if (Key == "quantum-min") {
      auto V = U64();
      if (!V)
        return V.error();
      Case.Config.QuantumMin = *V;
    } else if (Key == "quantum-max") {
      auto V = U64();
      if (!V)
        return V.error();
      Case.Config.QuantumMax = *V;
    } else if (Key == "dispatch-batch") {
      auto V = U64();
      if (!V)
        return V.error();
      Case.Config.DispatchBatch = unsigned(*V);
    } else if (Key == "segment-bytes") {
      auto V = U64();
      if (!V)
        return V.error();
      Case.Config.SegmentBytes = *V;
    } else if (Key == "checkpoint-every") {
      auto V = U64();
      if (!V)
        return V.error();
      Case.Config.CheckpointEvery = *V;
    } else if (Key == "replay-jobs") {
      auto V = U64();
      if (!V)
        return V.error();
      Case.Config.ReplayJobs = unsigned(*V);
    } else if (Key == "obs") {
      auto M = obs::parseObsMode(Value);
      if (!M)
        return M.error();
      Case.Config.Observability = *M;
    } else if (Key == "alt-dispatch-batch") {
      auto V = U64();
      if (!V)
        return V.error();
      Case.AltDispatchBatch = unsigned(*V);
    } else if (Key == "alt-quantum-min") {
      auto V = U64();
      if (!V)
        return V.error();
      Case.AltQuantumMin = *V;
    } else if (Key == "alt-quantum-max") {
      auto V = U64();
      if (!V)
        return V.error();
      Case.AltQuantumMax = *V;
    } else if (Key == "fault") {
      auto K = parseFaultKind(Value);
      if (!K)
        return K.error();
      Case.Fault.K = *K;
    } else if (Key == "fault-offset") {
      auto V = U64();
      if (!V)
        return V.error();
      Case.Fault.Offset = *V;
    } else if (Key == "source") {
      auto V = U64();
      if (!V)
        return V.error();
      if (auto Err = takeBlock(size_t(*V), Case.Source); Err)
        return Err;
      SawSource = true;
    } else if (Key == "profile") {
      auto V = U64();
      if (!V)
        return V.error();
      if (auto Err = takeBlock(size_t(*V), Case.Profile); Err)
        return Err;
      SawProfile = true;
    } else {
      return support::Error::failure("repro: unknown key '" + Key + "'");
    }
  }

  if (!SawSource)
    return support::Error::failure("repro: missing source block");
  if (!SawProfile)
    return support::Error::failure("repro: missing profile block");
  Case.Config.Name = Case.SourceName;
  return Case;
}

support::Error stress::writeReproFile(const std::string &Path,
                                      const TrialCase &Case) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  if (!Out.good())
    return support::Error::failure("cannot open repro file " + Path);
  std::string Text = formatRepro(Case);
  Out.write(Text.data(), std::streamsize(Text.size()));
  Out.close();
  if (!Out.good())
    return support::Error::failure("short write to repro file " + Path);
  return support::Error::success();
}

support::Expected<TrialCase> stress::readReproFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In.good())
    return support::Error::failure("cannot read repro file " + Path);
  std::string Text{std::istreambuf_iterator<char>(In),
                   std::istreambuf_iterator<char>()};
  return parseRepro(Text);
}
