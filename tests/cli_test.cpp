//===- tests/cli_test.cpp - Declarative CLI option table tests -------------===//
//
// Pins the property that motivated the table: --help is generated from
// the same data the parser interprets, so every registered option (and
// its --flag=VALUE spelling) appears in the help text, and the parser
// accepts exactly the declared forms.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "core/Cli.h"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

using namespace chimera;
using namespace chimera::core;

namespace {

/// Runs parseCliOptions over \p Args as if they were argv[Start..].
support::Error parse(std::vector<std::string> Args, CliOptions &Opts,
                     const std::string &Command = "record") {
  std::vector<char *> Argv;
  Argv.push_back(const_cast<char *>("chimera"));
  for (std::string &A : Args)
    Argv.push_back(A.data());
  return parseCliOptions(static_cast<int>(Argv.size()), Argv.data(), 1,
                         Command, Opts);
}

} // namespace

TEST(CliHelp, EveryRegisteredOptionAppears) {
  const std::string Help = usageText();
  for (const OptionSpec &Spec : optionTable())
    EXPECT_NE(Help.find(Spec.Flag), std::string::npos) << Spec.Flag;
}

TEST(CliHelp, ValueTakingOptionsShowEqualsForm) {
  const std::string Help = usageText();
  for (const OptionSpec &Spec : optionTable()) {
    if (!Spec.ArgName)
      continue;
    // "--flag=ARG" for required values, "--flag[=ARG]" for optional.
    std::string Form = std::string(Spec.Flag) +
                       (Spec.ValueOptional ? "[=" : "=") + Spec.ArgName;
    EXPECT_NE(Help.find(Form), std::string::npos) << Form;
  }
}

TEST(CliHelp, EveryOptionHasHelpText) {
  for (const OptionSpec &Spec : optionTable()) {
    ASSERT_NE(Spec.Help, nullptr) << Spec.Flag;
    EXPECT_GT(std::string(Spec.Help).size(), 10u) << Spec.Flag;
  }
}

TEST(CliParse, EqualsAndSpaceFormsAgree) {
  CliOptions A, B;
  EXPECT_FALSE(bool(parse({"--seed=123", "--cores=2"}, A)));
  EXPECT_FALSE(bool(parse({"--seed", "123", "--cores", "2"}, B)));
  EXPECT_EQ(A.Seed, 123u);
  EXPECT_EQ(B.Seed, 123u);
  EXPECT_EQ(A.Cores, 2u);
  EXPECT_EQ(B.Cores, 2u);
}

TEST(CliParse, UnknownFlagIsAnError) {
  CliOptions O;
  support::Error E = parse({"--frobnicate"}, O);
  ASSERT_TRUE(bool(E));
  EXPECT_NE(E.message().find("--frobnicate"), std::string::npos);
}

TEST(CliParse, MissingValueIsAnError) {
  CliOptions O;
  support::Error E = parse({"--seed"}, O);
  ASSERT_TRUE(bool(E));
  EXPECT_NE(E.message().find("--seed"), std::string::npos);
}

TEST(CliParse, ValueOnFlagWithoutOneIsAnError) {
  CliOptions O;
  support::Error E = parse({"--race-stats=yes"}, O);
  ASSERT_TRUE(bool(E));
  EXPECT_NE(E.message().find("takes no value"), std::string::npos);
}

TEST(CliParse, BadNumbersAreRejected) {
  CliOptions O;
  EXPECT_TRUE(bool(parse({"--seed=banana"}, O)));
  EXPECT_TRUE(bool(parse({"--cores=0"}, O)));
  EXPECT_TRUE(bool(parse({"--cores=99999999999999999999"}, O)));
}

TEST(CliParse, ReplayTakesOnePositionalLog) {
  CliOptions O;
  EXPECT_FALSE(bool(parse({"run.clog", "--seed=4"}, O, "replay")));
  EXPECT_EQ(O.LogPath, "run.clog");
  EXPECT_EQ(O.Seed, 4u);
  // Other commands reject positionals.
  CliOptions O2;
  EXPECT_TRUE(bool(parse({"run.clog"}, O2, "record")));
}

TEST(CliParse, MetricsDefaultsToJson) {
  CliOptions O;
  EXPECT_FALSE(bool(parse({"--metrics"}, O)));
  EXPECT_EQ(O.Metrics, MetricsFormat::Json);
}

TEST(CliParse, MetricsTableAndBadValues) {
  CliOptions O;
  EXPECT_FALSE(bool(parse({"--metrics=table"}, O)));
  EXPECT_EQ(O.Metrics, MetricsFormat::Table);
  CliOptions O2;
  EXPECT_TRUE(bool(parse({"--metrics=xml"}, O2)));
}

TEST(CliParse, OptionalValueNeverConsumesNextArg) {
  // `--metrics run.clog` must treat run.clog as a positional (here:
  // replay's log), not as the metrics format.
  CliOptions O;
  EXPECT_FALSE(bool(parse({"--metrics", "run.clog"}, O, "replay")));
  EXPECT_EQ(O.Metrics, MetricsFormat::Json);
  EXPECT_EQ(O.LogPath, "run.clog");
}

TEST(CliParse, ObsModeSpellings) {
  for (auto [Text, Mode] :
       {std::pair<const char *, obs::ObsMode>{"off", obs::ObsMode::Off},
        {"sampled", obs::ObsMode::Sampled},
        {"full", obs::ObsMode::Full}}) {
    CliOptions O;
    EXPECT_FALSE(bool(parse({std::string("--obs=") + Text}, O)));
    EXPECT_EQ(O.Obs, Mode) << Text;
    EXPECT_TRUE(O.ObsExplicit);
  }
  CliOptions Bad;
  EXPECT_TRUE(bool(parse({"--obs=loud"}, Bad)));
}

TEST(CliObsMode, MetricsAndTraceImplyFull) {
  CliOptions O;
  EXPECT_EQ(O.effectiveObsMode(), obs::ObsMode::Off);
  EXPECT_FALSE(bool(parse({"--metrics"}, O)));
  EXPECT_EQ(O.effectiveObsMode(), obs::ObsMode::Full);

  CliOptions T;
  EXPECT_FALSE(bool(parse({"--trace-out=t.json"}, T)));
  EXPECT_EQ(T.effectiveObsMode(), obs::ObsMode::Full);
  EXPECT_EQ(T.TraceOutPath, "t.json");
}

TEST(CliObsMode, ExplicitObsWinsOverImplication) {
  CliOptions O;
  EXPECT_FALSE(bool(parse({"--metrics", "--obs=sampled"}, O)));
  EXPECT_EQ(O.effectiveObsMode(), obs::ObsMode::Sampled);

  CliOptions Off;
  EXPECT_FALSE(bool(parse({"--metrics", "--obs=off"}, Off)));
  EXPECT_EQ(Off.effectiveObsMode(), obs::ObsMode::Off);
}

TEST(CliParse, BatchTakesManyPositionalsAndServiceFlags) {
  CliOptions O;
  EXPECT_FALSE(bool(parse({"b.mc", "--sessions=3", "c.mc", "--repeat=2",
                           "--cache=x.cart", "--deadline-ms=50"},
                          O, "batch")));
  EXPECT_EQ(O.Inputs, (std::vector<std::string>{"b.mc", "c.mc"}));
  EXPECT_EQ(O.Sessions, 3u);
  EXPECT_EQ(O.Repeat, 2u);
  EXPECT_EQ(O.CachePath, "x.cart");
  EXPECT_EQ(O.DeadlineMs, 50u);
  // Zero sessions/repeat are rejected; other commands still reject
  // extra positionals.
  CliOptions Bad;
  EXPECT_TRUE(bool(parse({"--sessions=0"}, Bad, "batch")));
  EXPECT_TRUE(bool(parse({"--repeat=0"}, Bad, "batch")));
  CliOptions NotBatch;
  EXPECT_TRUE(bool(parse({"b.mc"}, NotBatch, "record")));
}

TEST(CliHelp, DocumentsBatchAndExitCodes) {
  const std::string Help = usageText();
  EXPECT_NE(Help.find("batch"), std::string::npos);
  EXPECT_NE(Help.find("exit codes"), std::string::npos);
  EXPECT_NE(Help.find("usage error"), std::string::npos);
}

TEST(CliParse, PlannerAblationsAndHelpFlag) {
  CliOptions O;
  EXPECT_FALSE(bool(parse({"--naive", "--help"}, O)));
  EXPECT_FALSE(O.Planner.UseFunctionLocks);
  EXPECT_TRUE(O.Help);
}

// `chimera plan` on a program whose profile runs fault exits 1 with the
// profile stage's typed error; it neither builds a plan from the faulting
// runs nor, in a build with assertions, aborts.
TEST(CliRun, PlanReportsAFailedProfileRun) {
  namespace fs = std::filesystem;
  const fs::path Dir = fs::temp_directory_path() /
                       ("chimera_cli_test_" + std::to_string(::getpid()));
  fs::create_directories(Dir);
  const fs::path Program = Dir / "faulting.mc";
  const fs::path Err = Dir / "stderr.txt";
  std::ofstream(Program) << test::apacheWithInvalidStore();
  const std::string Command = std::string(CHIMERA_CLI_PATH) + " plan " +
                              Program.string() + " 2> " + Err.string();
  const int Status = std::system(Command.c_str());
  ASSERT_TRUE(WIFEXITED(Status)) << "status " << Status;
  EXPECT_EQ(WEXITSTATUS(Status), 1);
  std::ifstream In(Err);
  const std::string Message((std::istreambuf_iterator<char>(In)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(Message.rfind("profile run 0 (seed 90001, 8 cores) failed: "
                          "invalid store address in main",
                          0),
            0u)
      << Message;
  fs::remove_all(Dir);
}
