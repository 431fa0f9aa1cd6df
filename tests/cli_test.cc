#include <gtest/gtest.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "aseq/aseq_engine.h"
#include "ckpt/snapshot.h"
#include "cli/cli.h"
#include "cli/flags.h"
#include "exec/execution_policy.h"
#include "fault/fault.h"
#include "query/analyzer.h"
#include "stream/trace_io.h"

namespace aseq {
namespace {

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult RunTool(std::vector<std::string> args) {
  std::ostringstream out, err;
  int code = RunCli(args, out, err);
  return {code, out.str(), err.str()};
}

// --------------------------------------------------------------------------
// FlagSet
// --------------------------------------------------------------------------

TEST(FlagSetTest, ParsesPositionalAndFlags) {
  auto fs = FlagSet::Parse({"run", "--query", "PATTERN SEQ(A)", "--quiet",
                            "--seed=7"});
  ASSERT_TRUE(fs.ok());
  ASSERT_EQ(fs->positional().size(), 1u);
  EXPECT_EQ(fs->positional()[0], "run");
  EXPECT_EQ(fs->GetString("query"), "PATTERN SEQ(A)");
  EXPECT_EQ(fs->GetString("quiet"), "true");
  EXPECT_EQ(*fs->GetInt("seed", 0), 7);
  EXPECT_EQ(*fs->GetInt("missing", 42), 42);
}

TEST(FlagSetTest, BadIntegerIsError) {
  auto fs = FlagSet::Parse({"run", "--seed", "abc"});
  ASSERT_TRUE(fs.ok());
  EXPECT_FALSE(fs->GetInt("seed", 0).ok());
}

TEST(FlagSetTest, OutOfRangeIntegerIsError) {
  // strtoll saturates on overflow; the flag must not silently become
  // INT64_MAX/MIN.
  auto fs = FlagSet::Parse({"run", "--seed", "99999999999999999999",
                            "--gap", "-99999999999999999999", "--ok",
                            "9223372036854775807"});
  ASSERT_TRUE(fs.ok());
  auto seed = fs->GetInt("seed", 0);
  ASSERT_FALSE(seed.ok());
  EXPECT_EQ(seed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(seed.status().message().find("out of the 64-bit integer range"),
            std::string::npos)
      << seed.status().message();
  EXPECT_FALSE(fs->GetInt("gap", 0).ok());
  EXPECT_EQ(*fs->GetInt("ok", 0), INT64_MAX);
}

TEST(FlagSetTest, PositionalAfterFlagsRejected) {
  EXPECT_FALSE(FlagSet::Parse({"run", "--seed", "7", "oops"}).ok());
  // A lone token after a bare flag is consumed as that flag's value.
  auto fs = FlagSet::Parse({"run", "--quiet", "oops"});
  ASSERT_TRUE(fs.ok());
  EXPECT_EQ(fs->GetString("quiet"), "oops");
}

TEST(FlagSetTest, GivenListsEveryFlag) {
  // The CLI's unknown-flag check walks given(), so a typo must show up.
  auto fs = FlagSet::Parse({"run", "--sede", "7", "--quiet"});
  ASSERT_TRUE(fs.ok());
  const std::map<std::string, std::string> expected = {{"quiet", "true"},
                                                       {"sede", "7"}};
  EXPECT_EQ(fs->given(), expected);
}

// --------------------------------------------------------------------------
// Commands
// --------------------------------------------------------------------------

TEST(CliTest, NoCommandPrintsUsage) {
  CliResult r = RunTool({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

// Golden lists: the flags each command accepts. A flag table edit that
// adds a flag to a command or drops one must update them deliberately.
const std::map<std::string, std::vector<std::string>>& AcceptedFlags() {
  static const auto* accepted =
      new std::map<std::string, std::vector<std::string>>{
          {"run",
           {"query", "trace", "stock", "clicks", "engine", "slack", "seed",
            "gap", "limit", "quiet", "emit-on-change", "batch-size", "shards",
            "checkpoint-every", "checkpoint-dir", "restore-from", "supervise",
            "watchdog-timeout-ms", "recovery-every", "max-restarts",
            "overload-policy", "overload-watermark", "fault-spec",
            "fault-seed", "pin-threads", "metrics-out", "metrics-every-ms",
            "trace-out", "stats-json"}},
          {"explain", {"query"}},
          {"generate", {"stock", "clicks", "out", "seed", "gap"}},
          {"compare",
           {"query", "trace", "stock", "clicks", "seed", "gap", "batch-size"}},
          {"workload",
           {"queries", "trace", "stock", "clicks", "strategy", "seed", "gap",
            "batch-size", "shards", "checkpoint-every", "checkpoint-dir",
            "restore-from", "supervise", "watchdog-timeout-ms",
            "recovery-every", "max-restarts", "overload-policy",
            "overload-watermark", "fault-spec", "fault-seed", "pin-threads",
            "metrics-out", "metrics-every-ms", "trace-out", "stats-json"}},
      };
  return *accepted;
}

TEST(CliTest, EachCommandAcceptsItsFlagSet) {
  std::set<std::string> all;
  for (const auto& [command, flags] : AcceptedFlags()) {
    all.insert(flags.begin(), flags.end());
  }
  ASSERT_EQ(all.size(), 32u);
  for (const auto& [command, flags] : AcceptedFlags()) {
    const std::set<std::string> accepted(flags.begin(), flags.end());
    for (const std::string& flag : all) {
      // --zzz is unknown to every command. Unknown flags are reported in
      // name order, so the probed flag is named only when it is unknown
      // too; either way nothing runs.
      CliResult r = RunTool({command, "--" + flag, "1", "--zzz"});
      EXPECT_EQ(r.code, 2) << command << " --" << flag << ": " << r.err;
      const std::string named =
          accepted.count(flag) != 0 ? "--zzz" : "--" + flag;
      EXPECT_EQ(r.err, "InvalidArgument: unknown flag " + named + "\n")
          << command << " --" << flag;
      EXPECT_TRUE(r.out.empty()) << command << " --" << flag;
    }
  }
  // The usage text has one "  --name ..." line per flag.
  std::set<std::string> documented;
  std::istringstream usage(RunTool({}).err);
  for (std::string line; std::getline(usage, line);) {
    if (line.rfind("  --", 0) == 0) {
      documented.insert(line.substr(4, line.find(' ', 4) - 4));
    }
  }
  EXPECT_EQ(documented, all);
}

TEST(CliTest, VersionCommand) {
  CliResult r = RunTool({"version"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("aseq 1.0.0"), std::string::npos);
  EXPECT_NE(r.out.find("SIGMOD 2014"), std::string::npos);
}

TEST(CliTest, UnknownCommand) {
  CliResult r = RunTool({"frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(CliTest, RunOnStockStream) {
  CliResult r = RunTool({"run", "--query",
                     "PATTERN SEQ(DELL, IPIX) AGG COUNT WITHIN 1s", "--stock",
                     "2000", "--quiet"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("A-Seq(SEM)"), std::string::npos);
  EXPECT_NE(r.out.find("events:        2000"), std::string::npos);
}

TEST(CliTest, RunWithStackEngine) {
  CliResult r = RunTool({"run", "--query",
                     "PATTERN SEQ(DELL, IPIX) AGG COUNT WITHIN 1s", "--stock",
                     "1000", "--engine", "stack", "--quiet"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("StackBased"), std::string::npos);
}

TEST(CliTest, RunWithSlackWrapsEngine) {
  CliResult r = RunTool({"run", "--query",
                     "PATTERN SEQ(DELL, IPIX) AGG COUNT WITHIN 1s", "--stock",
                     "1000", "--slack", "50", "--quiet"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("+KSlack"), std::string::npos);
}

TEST(CliTest, RunRequiresExactlyOneSource) {
  CliResult r = RunTool({"run", "--query", "PATTERN SEQ(A, B)"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("exactly one source"), std::string::npos);
  CliResult r2 = RunTool({"run", "--query", "PATTERN SEQ(A, B)", "--stock",
                      "10", "--clicks", "10"});
  EXPECT_EQ(r2.code, 1);
}

TEST(CliTest, RunRejectsBadQuery) {
  CliResult r = RunTool({"run", "--query", "SEQ(A, B)", "--stock", "10"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("ParseError"), std::string::npos);
}

TEST(CliTest, RunRejectsUnknownFlag) {
  CliResult r = RunTool({"run", "--query", "PATTERN SEQ(A, B)", "--stonk", "10"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--stonk"), std::string::npos);
}

TEST(CliTest, ExplainDescribesQuery) {
  CliResult r = RunTool(
      {"explain", "--query",
       "PATTERN SEQ(A, !X, B) WHERE A.id = X.id = B.id AGG COUNT WITHIN 5s"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("negation: !X resets the length-1 prefix"),
            std::string::npos);
  EXPECT_NE(r.out.find("equivalence on attribute 'id'"), std::string::npos);
  EXPECT_NE(r.out.find("A-Seq(HPC)"), std::string::npos);
}

TEST(CliTest, ExplainFlagsJoinQueries) {
  CliResult r = RunTool({"explain", "--query",
                     "PATTERN SEQ(A, B) WHERE A.x < B.x WITHIN 1s"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("StackBased (join predicates)"), std::string::npos);
}

/// The text after `engine:` on its line of a command's stdout.
std::string EngineLine(const std::string& out) {
  const size_t at = out.find("engine:");
  if (at == std::string::npos) return "";
  const size_t begin = out.find_first_not_of(' ', at + 7);
  return out.substr(begin, out.find('\n', begin) - begin);
}

TEST(CliTest, ExplainNamesTheEngineRunUses) {
  for (const char* query :
       {"PATTERN SEQ(DELL, IPIX) AGG COUNT",
        "PATTERN SEQ(DELL, IPIX) AGG COUNT WITHIN 1s",
        "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 1s"}) {
    CliResult explain = RunTool({"explain", "--query", query});
    ASSERT_EQ(explain.code, 0) << explain.err;
    CliResult run =
        RunTool({"run", "--query", query, "--stock", "500", "--quiet"});
    ASSERT_EQ(run.code, 0) << run.err;
    EXPECT_NE(EngineLine(run.out), "") << run.out;
    EXPECT_EQ(EngineLine(explain.out), EngineLine(run.out)) << query;
  }
}

TEST(CliTest, ExplainTellsJoinQueriesToRunOnTheStackEngine) {
  const char* query =
      "PATTERN SEQ(DELL, IPIX) WHERE DELL.price > IPIX.price AGG COUNT "
      "WITHIN 1s";
  CliResult explain = RunTool({"explain", "--query", query});
  ASSERT_EQ(explain.code, 0) << explain.err;
  EXPECT_EQ(EngineLine(explain.out),
            "StackBased (join predicates); run with --engine stack");
  // The default engine refuses the query; the suggested one runs it.
  EXPECT_EQ(RunTool({"run", "--query", query, "--stock", "500"}).code, 1);
  CliResult stack = RunTool(
      {"run", "--query", query, "--stock", "500", "--engine", "stack",
       "--quiet"});
  ASSERT_EQ(stack.code, 0) << stack.err;
  EXPECT_EQ(EngineLine(stack.out), "StackBased");
}

TEST(CliTest, GenerateThenRunTrace) {
  std::string path = ::testing::TempDir() + "/aseq_cli_trace.csv";
  CliResult gen = RunTool({"generate", "--clicks", "500", "--out", path});
  EXPECT_EQ(gen.code, 0) << gen.err;
  EXPECT_NE(gen.out.find("wrote 500 events"), std::string::npos);

  CliResult run = RunTool({"run", "--query",
                       "PATTERN SEQ(ViewKindle, BuyKindle) AGG COUNT "
                       "WITHIN 10s",
                       "--trace", path, "--quiet"});
  EXPECT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("events:        500"), std::string::npos);
}

TEST(CliTest, GenerateRequiresOut) {
  CliResult r = RunTool({"generate", "--clicks", "10"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--out"), std::string::npos);
}

TEST(CliTest, CompareAgreesAndReportsSpeedup) {
  CliResult r = RunTool({"compare", "--query",
                     "PATTERN SEQ(DELL, IPIX, AMAT) AGG COUNT WITHIN 500",
                     "--stock", "2000"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("result mismatches: 0"), std::string::npos);
  EXPECT_NE(r.out.find("speedup:"), std::string::npos);
}

TEST(CliTest, RunEmitOnChangeWrapsEngine) {
  CliResult r = RunTool({"run", "--query",
                         "PATTERN SEQ(DELL, IPIX) AGG COUNT WITHIN 1s",
                         "--stock", "1000", "--emit-on-change", "--quiet"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("+OnChange"), std::string::npos);
}

TEST(CliTest, WorkloadRunsAllStrategies) {
  std::string path = ::testing::TempDir() + "/aseq_cli_queries.txt";
  {
    std::ofstream f(path);
    f << "# a small prefix-sharing workload\n";
    f << "PATTERN SEQ(DELL, IPIX, AMAT) AGG COUNT WITHIN 1s\n";
    f << "PATTERN SEQ(DELL, IPIX, QQQ) AGG COUNT WITHIN 1s\n";
  }
  // Only per-query engines run compiled admission, so the admission: row
  // is printed exactly when no query runs in a shared part; the hybrid
  // puts both queries (same START) into one PreTree.
  for (const char* strategy : {"nonshare", "sase", "pretree", "cc", "hybrid"}) {
    CliResult r = RunTool({"workload", "--queries", path, "--stock", "1500",
                           "--strategy", strategy});
    EXPECT_EQ(r.code, 0) << strategy << ": " << r.err;
    EXPECT_NE(r.out.find("queries:       2"), std::string::npos) << strategy;
    EXPECT_NE(r.out.find("Q1:"), std::string::npos) << strategy;
    const bool per_query = std::string(strategy) == "nonshare" ||
                           std::string(strategy) == "sase";
    EXPECT_EQ(r.out.find("\nadmission:") != std::string::npos, per_query)
        << strategy;
  }
  // A hybrid that shares nothing (the windows differ) keeps the row.
  std::string unshared = ::testing::TempDir() + "/aseq_cli_unshared.txt";
  {
    std::ofstream f(unshared);
    f << "PATTERN SEQ(DELL, IPIX, AMAT) AGG COUNT WITHIN 1s\n";
    f << "PATTERN SEQ(DELL, IPIX, QQQ) AGG COUNT WITHIN 2s\n";
  }
  CliResult r = RunTool({"workload", "--queries", unshared, "--stock", "1500",
                         "--strategy", "hybrid"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("Q2 -> A-Seq(SEM)"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("\nadmission:"), std::string::npos) << r.out;
}

TEST(CliTest, WorkloadRejectsBadInputs) {
  CliResult no_file = RunTool({"workload", "--stock", "10"});
  EXPECT_EQ(no_file.code, 1);
  CliResult missing = RunTool(
      {"workload", "--queries", "/nonexistent/q.txt", "--stock", "10"});
  EXPECT_EQ(missing.code, 1);
  std::string path = ::testing::TempDir() + "/aseq_cli_badqueries.txt";
  {
    std::ofstream f(path);
    f << "NOT A QUERY\n";
  }
  CliResult bad = RunTool({"workload", "--queries", path, "--stock", "10"});
  EXPECT_EQ(bad.code, 1);
  EXPECT_NE(bad.err.find(":1:"), std::string::npos);  // line number reported
}

TEST(CliTest, CompareJoinQueryFallsBackToBaseline) {
  CliResult r = RunTool({"compare", "--query",
                     "PATTERN SEQ(DELL, IPIX) WHERE DELL.price < IPIX.price "
                     "AGG COUNT WITHIN 500",
                     "--stock", "1000"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.err.find("Unsupported"), std::string::npos);
  EXPECT_NE(r.out.find("StackBased"), std::string::npos);
}

// --------------------------------------------------------------------------
// Stats block ordering (golden) and observability flags
// --------------------------------------------------------------------------

// The `label:` prefixes of the stats block, in output order. Values vary
// with timing, labels must not: docs/internals.md §17 documents this order
// and downstream scrapers key on it.
std::vector<std::string> StatsLabels(const std::string& out) {
  std::vector<std::string> labels;
  std::istringstream in(out);
  std::string line;
  while (std::getline(in, line)) {
    const size_t colon = line.find(':');
    // Stats lines are exactly "<label>:<padding><value>" at top level;
    // skip output rows ("t=...") and indented per-query lines.
    if (colon == std::string::npos || line.empty() || line[0] == ' ' ||
        line.compare(0, 2, "t=") == 0) {
      continue;
    }
    labels.push_back(line.substr(0, colon));
  }
  return labels;
}

TEST(CliTest, StatsBlockGoldenOrderSerial) {
  CliResult r = RunTool({"run", "--query",
                         "PATTERN SEQ(DELL, IPIX) AGG COUNT WITHIN 1s",
                         "--stock", "2000", "--quiet"});
  ASSERT_EQ(r.code, 0) << r.err;
  const std::vector<std::string> expected = {
      "engine", "query", "events", "batch size", "results", "ms/slide",
      "peak objects", "admission"};
  EXPECT_EQ(StatsLabels(r.out), expected) << r.out;
}

TEST(CliTest, StatsBlockGoldenOrderShardedSupervised) {
  // Every conditional stats line at once: sharded + supervised +
  // checkpointing + overload policy + armed faults.
  std::string ckpt_dir = ::testing::TempDir() + "/aseq_cli_golden_ck";
  CliResult r = RunTool(
      {"run", "--query",
       "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 800ms",
       "--stock", "4000", "--shards", "2", "--batch-size", "64",
       "--supervise", "--checkpoint-every", "1024", "--checkpoint-dir",
       ckpt_dir, "--overload-policy", "shed", "--fault-spec",
       "worker.op@0:200:crash", "--quiet"});
  ASSERT_EQ(r.code, 0) << r.err;
  const std::vector<std::string> expected = {
      "engine",      "query",     "events",   "batch size", "shards",
      "results",     "ms/slide",  "peak objects", "admission",
      "utilization", "dataplane", "supervisor",   "overload",
      "faults",      "checkpoints"};
  EXPECT_EQ(StatsLabels(r.out), expected) << r.out;
  // The utilization line carries the min/max busy + imbalance readout.
  EXPECT_NE(r.out.find("shard busy "), std::string::npos);
  EXPECT_NE(r.out.find("imbalance "), std::string::npos);
}

TEST(CliTest, FaultSpecIsDisarmedOnEveryExitPath) {
  // The injector is process-global: a command that armed it must disarm it
  // whether the run finished or a later flag was rejected, or every later
  // command in the process would run with faults (and a "faults" line).
  fault::Injector::Global().Disarm();
  CliResult done = RunTool(
      {"run", "--query",
       "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 800ms",
       "--stock", "2000", "--shards", "2", "--supervise", "--fault-spec",
       "worker.op@0:100:crash", "--quiet"});
  ASSERT_EQ(done.code, 0) << done.err;
  EXPECT_NE(done.out.find("faults:"), std::string::npos) << done.out;
  EXPECT_FALSE(fault::Injector::Global().armed()) << "after a finished run";

  CliResult rejected = RunTool(
      {"run", "--query", "PATTERN SEQ(DELL, IPIX)", "--stock", "10",
       "--fault-spec", "worker.op@0:100:crash", "--metrics-out",
       ::testing::TempDir() + "/aseq_cli_disarm.jsonl", "--metrics-every-ms",
       "0"});
  EXPECT_EQ(rejected.code, 1);
  EXPECT_NE(rejected.err.find("--metrics-every-ms"), std::string::npos)
      << rejected.err;
  EXPECT_FALSE(fault::Injector::Global().armed()) << "after a flag error";

  CliResult clean = RunTool({"run", "--query",
                             "PATTERN SEQ(DELL, IPIX) AGG COUNT WITHIN 1s",
                             "--stock", "500", "--quiet"});
  ASSERT_EQ(clean.code, 0) << clean.err;
  EXPECT_EQ(clean.out.find("faults:"), std::string::npos) << clean.out;
}

TEST(CliTest, StatsBlockGoldenOrderWorkload) {
  std::string path = ::testing::TempDir() + "/aseq_cli_golden_queries.txt";
  {
    std::ofstream f(path);
    f << "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 1s\n";
    f << "PATTERN SEQ(DELL, AMAT) GROUP BY traderId AGG COUNT WITHIN 1s\n";
  }
  CliResult r = RunTool({"workload", "--queries", path, "--stock", "2000",
                         "--shards", "2", "--batch-size", "64"});
  ASSERT_EQ(r.code, 0) << r.err;
  const std::vector<std::string> expected = {
      "strategy", "queries", "events", "batch size", "shards", "ms/slide",
      "peak objects", "admission", "utilization", "dataplane"};
  EXPECT_EQ(StatsLabels(r.out), expected) << r.out;
  // PreTree and Chop-Connect keep no admission counters, so they print no
  // admission line (the cc plan line comes first).
  for (const char* strategy : {"pretree", "cc"}) {
    CliResult shared = RunTool({"workload", "--queries", path, "--stock",
                                "2000", "--strategy", strategy});
    ASSERT_EQ(shared.code, 0) << strategy << ": " << shared.err;
    std::vector<std::string> labels = {"strategy", "queries", "events",
                                       "batch size", "ms/slide",
                                       "peak objects"};
    if (std::string(strategy) == "cc") labels.insert(labels.begin(), "plan");
    EXPECT_EQ(StatsLabels(shared.out), labels) << shared.out;
  }
}

TEST(CliTest, MetricsAndTraceFlagsProduceFiles) {
  std::string metrics = ::testing::TempDir() + "/aseq_cli_metrics.jsonl";
  std::string trace = ::testing::TempDir() + "/aseq_cli_trace.json";
  std::string stats = ::testing::TempDir() + "/aseq_cli_stats.json";
  CliResult r = RunTool(
      {"run", "--query",
       "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 800ms",
       "--stock", "3000", "--shards", "2", "--batch-size", "64", "--quiet",
       "--metrics-out", metrics, "--metrics-every-ms", "10", "--trace-out",
       trace, "--stats-json", stats});
  ASSERT_EQ(r.code, 0) << r.err;
  std::ifstream mf(metrics);
  std::string first_line;
  ASSERT_TRUE(std::getline(mf, first_line));
  EXPECT_NE(first_line.find("\"type\":\"header\""), std::string::npos);
  EXPECT_NE(first_line.find("\"shards\":2"), std::string::npos);
  std::stringstream tbuf;
  tbuf << std::ifstream(trace).rdbuf();
  EXPECT_EQ(tbuf.str().front(), '[');
  EXPECT_NE(tbuf.str().find("\"name\":\"batch\""), std::string::npos);
  std::stringstream sbuf;
  sbuf << std::ifstream(stats).rdbuf();
  EXPECT_NE(sbuf.str().find("\"utilization\""), std::string::npos);
  EXPECT_NE(sbuf.str().find("\"events_processed\":3000"), std::string::npos);
}

TEST(CliTest, ObservabilityFlagValidation) {
  // --metrics-every-ms without a destination is a configuration error.
  CliResult orphan = RunTool({"run", "--query", "PATTERN SEQ(DELL, IPIX)",
                              "--stock", "10", "--quiet",
                              "--metrics-every-ms", "50"});
  EXPECT_EQ(orphan.code, 1);
  EXPECT_NE(orphan.err.find("--metrics-out"), std::string::npos);
  CliResult zero = RunTool({"run", "--query", "PATTERN SEQ(DELL, IPIX)",
                            "--stock", "10", "--quiet", "--metrics-out",
                            "/tmp/x.jsonl", "--metrics-every-ms", "0"});
  EXPECT_EQ(zero.code, 1);
  CliResult bad_dir = RunTool({"run", "--query", "PATTERN SEQ(DELL, IPIX)",
                               "--stock", "10", "--quiet", "--trace-out",
                               "/nonexistent-dir/t.json"});
  EXPECT_EQ(bad_dir.code, 1);
  EXPECT_NE(bad_dir.err.find("--trace-out"), std::string::npos);
}

// --------------------------------------------------------------------------
// --limit validation
// --------------------------------------------------------------------------

TEST(CliTest, BadLimitIsRejectedUpFront) {
  for (const char* bad : {"abc", "-5", "99999999999999999999"}) {
    CliResult r = RunTool({"run", "--query",
                           "PATTERN SEQ(DELL, IPIX) AGG COUNT WITHIN 1s",
                           "--stock", "500", "--limit", bad});
    EXPECT_EQ(r.code, 1) << bad;
    EXPECT_NE(r.err.find("InvalidArgument"), std::string::npos)
        << bad << ": " << r.err;
    EXPECT_NE(r.err.find("--limit"), std::string::npos) << bad << ": " << r.err;
    EXPECT_EQ(r.out.find("t="), std::string::npos) << bad;
  }
  CliResult zero = RunTool({"run", "--query",
                            "PATTERN SEQ(DELL, IPIX) AGG COUNT WITHIN 1s",
                            "--stock", "500", "--limit", "0"});
  EXPECT_EQ(zero.code, 0) << zero.err;
  EXPECT_EQ(zero.out.find("t="), std::string::npos);
}

TEST(CliTest, EngineFlagsAreRejectedBeforeTheSourceOpens) {
  // A missing trace would fail with IoError once opened: the flag error
  // must come first.
  const std::string missing = "/nonexistent/aseq_trace.csv";
  const std::string queries = ::testing::TempDir() + "/aseq_cli_early.txt";
  {
    std::ofstream f(queries);
    f << "PATTERN SEQ(DELL, IPIX) AGG COUNT WITHIN 1s\n";
  }
  const std::string q = "PATTERN SEQ(DELL, IPIX) AGG COUNT WITHIN 1s";
  struct Case {
    std::vector<std::string> args;
    std::string flag;
  };
  const std::vector<Case> cases = {
      {{"run", "--query", q, "--trace", missing, "--engine", "bogus"},
       "--engine"},
      {{"run", "--query", q, "--trace", missing, "--slack", "-5"}, "--slack"},
      {{"workload", "--queries", queries, "--trace", missing, "--strategy",
        "bogus"},
       "--strategy"},
      {{"compare", "--query", q, "--trace", missing, "--batch-size", "0"},
       "--batch-size"},
      // Out of range, and sizes that would abort in an allocation.
      {{"run", "--query", q, "--trace", missing, "--shards", "65"},
       "--shards"},
      {{"run", "--query", q, "--trace", missing, "--batch-size",
        "1000000000000"},
       "--batch-size"},
      {{"workload", "--queries", queries, "--trace", missing,
        "--batch-size", "2000000"},
       "--batch-size"},
      {{"generate", "--stock", "1000000000000", "--out", missing}, "--stock"},
      {{"compare", "--query", q, "--clicks", "1000000000000"}, "--clicks"},
      // Gaps this large would overflow the generated timestamps.
      {{"generate", "--stock", "5", "--gap", "9223372036854775807", "--out",
        missing},
       "--gap"},
      {{"run", "--query", q, "--trace", missing, "--overload-watermark", "0"},
       "--overload-watermark"},
      // A bool takes true/false/1/0 or no value; anything else is an error.
      {{"run", "--query", q, "--trace", missing, "--quiet", "maybe"},
       "--quiet"},
      {{"run", "--query", q, "--trace", missing, "--supervise=yes"},
       "--supervise"},
      // A set flag needs the flag it requires.
      {{"run", "--query", q, "--trace", missing, "--supervise"},
       "--shards"},
      {{"workload", "--queries", queries, "--trace", missing,
        "--checkpoint-dir", "ckpts"},
       "--checkpoint-every"},
  };
  for (const Case& c : cases) {
    CliResult r = RunTool(c.args);
    EXPECT_EQ(r.code, 1) << c.flag << ": " << r.err;
    EXPECT_EQ(r.err.rfind("InvalidArgument: ", 0), 0u) << c.flag << ": "
                                                       << r.err;
    EXPECT_NE(r.err.find(c.flag), std::string::npos) << r.err;
    EXPECT_EQ(r.err.find("IoError"), std::string::npos) << r.err;
    EXPECT_TRUE(r.out.empty()) << c.flag << ": " << r.out;
  }
}

// --------------------------------------------------------------------------
// Streaming ingest: run/workload read --trace chunk by chunk
// --------------------------------------------------------------------------

constexpr const char* kGroupedQuery =
    "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 800ms";

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::vector<std::string> ResultLines(const std::string& out) {
  std::vector<std::string> lines;
  std::istringstream in(out);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("t=", 0) == 0) lines.push_back(line);
  }
  return lines;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// A generated stock trace of `n` events (over 1 MiB from ~25k events, so
/// it spans several read chunks).
std::string StockTrace(const std::string& name, int n) {
  const std::string path = ::testing::TempDir() + "/" + name;
  CliResult gen = RunTool({"generate", "--stock", std::to_string(n), "--out",
                           path, "--seed", "7"});
  EXPECT_EQ(gen.code, 0) << gen.err;
  return path;
}

TEST(CliStreamingTest, MalformedLateLineAbortsWithLineNumber) {
  const std::string path = StockTrace("aseq_cli_late_error.csv", 30000);
  ASSERT_GT(std::filesystem::file_size(path), size_t{1} << 20);
  {
    std::ofstream f(path, std::ios::app);
    f << "DELL,not-a-time,price=1\n";
  }
  const std::string dir = FreshDir("aseq_cli_late_error_ckpt");
  for (const char* shards : {"1", "2"}) {
    CliResult r = RunTool({"run", "--query", kGroupedQuery, "--trace", path,
                           "--limit", "1000000", "--shards", shards,
                           "--checkpoint-every", "4096", "--checkpoint-dir",
                           dir});
    EXPECT_EQ(r.code, 1) << shards;
    EXPECT_EQ(r.err,
              "ParseError: trace line 30001: bad timestamp 'not-a-time'\n")
        << shards;
    EXPECT_TRUE(ResultLines(r.out).empty()) << shards;
  }
  // The batches before the bad line ran, and their periodic snapshots stay
  // on disk.
  EXPECT_TRUE(
      std::filesystem::exists(dir + "/ckpt-00000000000000028672.aseqckpt"));
  std::ofstream(::testing::TempDir() + "/aseq_cli_wl_q.txt")
      << kGroupedQuery << "\n";
  CliResult wl = RunTool({"workload", "--queries",
                          ::testing::TempDir() + "/aseq_cli_wl_q.txt",
                          "--trace", path, "--strategy", "cc"});
  EXPECT_EQ(wl.code, 1);
  EXPECT_NE(wl.err.find("trace line 30001: bad timestamp"), std::string::npos)
      << wl.err;
  EXPECT_EQ(wl.out.find("results, last="), std::string::npos);
}

TEST(CliStreamingTest, RestorePastTraceEndIsRejected) {
  const std::string long_trace = StockTrace("aseq_cli_restore_long.csv", 3000);
  const std::string dir = FreshDir("aseq_cli_restore_past_end");
  CliResult full = RunTool({"run", "--query", kGroupedQuery, "--trace",
                            long_trace, "--quiet", "--checkpoint-every",
                            "2048", "--checkpoint-dir", dir});
  ASSERT_EQ(full.code, 0) << full.err;
  const std::string snap = dir + "/ckpt-00000000000000002048.aseqckpt";
  ASSERT_TRUE(std::filesystem::exists(snap));
  const std::string short_trace = StockTrace("aseq_cli_restore_short.csv",
                                             1000);
  CliResult r = RunTool({"run", "--query", kGroupedQuery, "--trace",
                         short_trace, "--restore-from", snap});
  EXPECT_EQ(r.code, 1);
  EXPECT_EQ(r.err, "InvalidArgument: snapshot '" + snap +
                       "' was taken at stream offset 2048 but this source "
                       "has only 1000 events\n");
  EXPECT_TRUE(ResultLines(r.out).empty());
}

TEST(CliStreamingTest, SnapshotMismatchNamesWhatDiffers) {
  const std::string trace = StockTrace("aseq_cli_mismatch.csv", 3000);
  const std::string queries = ::testing::TempDir() + "/aseq_cli_mismatch.txt";
  std::ofstream(queries) << kGroupedQuery << "\n";
  const std::string sharded_dir = FreshDir("aseq_cli_mismatch_sharded");
  const std::string serial_dir = FreshDir("aseq_cli_mismatch_serial");
  for (const auto& [shards, dir] :
       {std::pair{"2", sharded_dir}, std::pair{"1", serial_dir}}) {
    CliResult r = RunTool({"run", "--query", kGroupedQuery, "--trace", trace,
                           "--quiet", "--shards", shards, "--checkpoint-every",
                           "1024", "--checkpoint-dir", dir});
    ASSERT_EQ(r.code, 0) << shards << ": " << r.err;
  }
  const std::string file = "/ckpt-00000000000000002048.aseqckpt";
  const std::string sharded = sharded_dir + file;
  const std::string serial = serial_dir + file;
  auto expect_refused = [&](std::vector<std::string> args,
                            const std::string& snap, const std::string& want) {
    args.insert(args.end(), {"--trace", trace, "--restore-from", snap});
    CliResult r = RunTool(args);
    EXPECT_EQ(r.code, 1) << args[0];
    EXPECT_EQ(r.err, "InvalidArgument: snapshot '" + snap + "' " + want + "\n");
    EXPECT_TRUE(ResultLines(r.out).empty());
  };
  // Sharded into serial: the note names the shard count to rerun with.
  expect_refused({"run", "--query", kGroupedQuery}, sharded,
                 "was taken by engine 'Sharded[A-Seq(HPC)]' but is being "
                 "restored into 'A-Seq(HPC)' (a sharded snapshot of 2 "
                 "shard(s) cannot seed a serial run; rerun with --shards 2)");
  // ... and into another serial engine, where --shards alone cannot help.
  expect_refused({"workload", "--queries", queries, "--strategy", "nonshare"},
                 sharded,
                 "was taken by engine 'Sharded[A-Seq(HPC)]' but is being "
                 "restored into 'NonShare(A-Seq)' (a sharded snapshot of 2 "
                 "shard(s) cannot seed a serial run)");
  // Sharded into another sharded engine: only the engines differ.
  expect_refused({"workload", "--queries", queries, "--strategy", "nonshare",
                  "--shards", "2"},
                 sharded,
                 "was taken by engine 'Sharded[A-Seq(HPC)]' but is being "
                 "restored into 'Sharded[NonShare(A-Seq)]'");
  // Serial into sharded.
  expect_refused({"run", "--query", kGroupedQuery, "--shards", "2"}, serial,
                 "was taken by engine 'A-Seq(HPC)' but is being restored into "
                 "'Sharded[A-Seq(HPC)]' (a non-sharded snapshot cannot seed a "
                 "sharded run)");
}

/// How a snapshot refusal names a run's one query: its count and hash.
std::string OneQueryHash(const std::string& text) {
  Schema schema;
  Analyzer analyzer(&schema);
  auto query = analyzer.AnalyzeText(text);
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(
                    ckpt::QueryHash(query->query().ToString())));
  return std::string("1 query [") + hex + "]";
}

TEST(CliStreamingTest, SnapshotOfOtherQueriesIsRefused) {
  // The engine and its state shape match in each case; only the query
  // differs, which the snapshot's recorded hashes reveal before any state
  // is read.
  const std::string trace = StockTrace("aseq_cli_other_query.csv", 3000);
  const char* const kOthers[] = {
      "PATTERN SEQ(IPIX, DELL) GROUP BY traderId AGG COUNT WITHIN 800ms",
      "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 2s",
      "PATTERN SEQ(DELL, IPIX, AMAT) GROUP BY traderId AGG COUNT WITHIN "
      "800ms",
  };
  for (const char* shards : {"1", "2"}) {
    const std::string dir =
        FreshDir(std::string("aseq_cli_other_query_") + shards);
    CliResult full = RunTool({"run", "--query", kGroupedQuery, "--trace",
                              trace, "--limit", "1000000", "--shards", shards,
                              "--checkpoint-every", "1024", "--checkpoint-dir",
                              dir});
    ASSERT_EQ(full.code, 0) << shards << ": " << full.err;
    const std::string snap = dir + "/ckpt-00000000000000002048.aseqckpt";
    for (const char* other : kOthers) {
      CliResult r = RunTool({"run", "--query", other, "--trace", trace,
                             "--shards", shards, "--restore-from", snap});
      EXPECT_EQ(r.code, 1) << shards << " " << other;
      EXPECT_EQ(r.err, "InvalidArgument: snapshot '" + snap +
                           "' was taken for " + OneQueryHash(kGroupedQuery) +
                           " but is being restored into a run of " +
                           OneQueryHash(other) +
                           " (query hashes differ: another query or "
                           "workload)\n");
      EXPECT_TRUE(ResultLines(r.out).empty()) << shards << " " << other;
    }
    // The same query resumes, bit-exact.
    CliResult resumed = RunTool({"run", "--query", kGroupedQuery, "--trace",
                                 trace, "--limit", "1000000", "--shards",
                                 shards, "--restore-from", snap});
    ASSERT_EQ(resumed.code, 0) << shards << ": " << resumed.err;
    const std::vector<std::string> all = ResultLines(full.out);
    const std::vector<std::string> tail = ResultLines(resumed.out);
    ASSERT_FALSE(tail.empty()) << shards;
    EXPECT_TRUE(std::equal(tail.begin(), tail.end(),
                           all.end() - static_cast<ptrdiff_t>(tail.size())))
        << shards;
  }
}

TEST(CliStreamingTest, ResumedRunIsSuffixOfUninterruptedRun) {
  const std::string trace = StockTrace("aseq_cli_resume.csv", 6000);
  for (const char* shards : {"1", "2"}) {
    const std::string dir =
        FreshDir(std::string("aseq_cli_resume_ckpt_") + shards);
    CliResult full = RunTool({"run", "--query", kGroupedQuery, "--trace",
                              trace, "--limit", "1000000", "--shards", shards,
                              "--checkpoint-every", "1024", "--checkpoint-dir",
                              dir});
    ASSERT_EQ(full.code, 0) << shards << ": " << full.err;
    const std::string snap = dir + "/ckpt-00000000000000003072.aseqckpt";
    ASSERT_TRUE(std::filesystem::exists(snap)) << shards;
    CliResult resumed = RunTool({"run", "--query", kGroupedQuery, "--trace",
                                 trace, "--limit", "1000000", "--shards",
                                 shards, "--restore-from", snap});
    ASSERT_EQ(resumed.code, 0) << shards << ": " << resumed.err;
    EXPECT_NE(resumed.out.find("at offset 3072; replaying 2928 remaining "
                               "events"),
              std::string::npos)
        << resumed.out;
    const std::vector<std::string> all = ResultLines(full.out);
    const std::vector<std::string> tail = ResultLines(resumed.out);
    ASSERT_FALSE(tail.empty()) << shards;
    ASSERT_LT(tail.size(), all.size()) << shards;
    EXPECT_TRUE(std::equal(tail.begin(), tail.end(),
                           all.end() - static_cast<ptrdiff_t>(tail.size())))
        << shards;
  }
}

/// The `  Qi: N results, last=V` lines of a workload run.
std::vector<std::pair<long, std::string>> QueryCounts(const std::string& out) {
  std::vector<std::pair<long, std::string>> counts;
  std::istringstream in(out);
  for (std::string line; std::getline(in, line);) {
    const size_t at = line.find(" results, last=");
    if (line.rfind("  Q", 0) != 0 || at == std::string::npos) continue;
    const size_t colon = line.find(": ");
    counts.emplace_back(std::stol(line.substr(colon + 2, at - colon - 2)),
                        line.substr(at));
  }
  return counts;
}

TEST(CliStreamingTest, ResumedWorkloadIsSuffixOfUninterruptedRun) {
  const std::string trace = StockTrace("aseq_cli_wl_resume.csv", 6000);
  const std::string queries = ::testing::TempDir() + "/aseq_cli_wl_resume.txt";
  {
    std::ofstream f(queries);
    f << "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 800ms\n"
      << "PATTERN SEQ(DELL, IPIX, AMAT) GROUP BY traderId AGG COUNT "
         "WITHIN 800ms\n";
  }
  const std::string dir = FreshDir("aseq_cli_wl_resume_ckpt");
  CliResult full = RunTool({"workload", "--queries", queries, "--trace", trace,
                            "--strategy", "cc", "--checkpoint-every", "1024",
                            "--checkpoint-dir", dir});
  ASSERT_EQ(full.code, 0) << full.err;
  const std::string snap = dir + "/ckpt-00000000000000003072.aseqckpt";
  ASSERT_TRUE(std::filesystem::exists(snap));
  CliResult resumed = RunTool({"workload", "--queries", queries, "--trace",
                               trace, "--strategy", "cc", "--restore-from",
                               snap});
  ASSERT_EQ(resumed.code, 0) << resumed.err;
  // The trace's first 3072 event lines (the generator writes no comments)
  // yield exactly the outputs the snapshot already covered.
  const std::string head_path = ::testing::TempDir() + "/aseq_cli_wl_head.csv";
  {
    std::istringstream in(ReadFile(trace));
    std::ofstream head(head_path);
    std::string line;
    for (int i = 0; i < 3072 && std::getline(in, line); ++i) {
      head << line << "\n";
    }
  }
  CliResult prefix = RunTool({"workload", "--queries", queries, "--trace",
                              head_path, "--strategy", "cc"});
  ASSERT_EQ(prefix.code, 0) << prefix.err;
  const auto all = QueryCounts(full.out);
  const auto tail = QueryCounts(resumed.out);
  const auto head = QueryCounts(prefix.out);
  ASSERT_EQ(all.size(), 2u);
  ASSERT_EQ(tail.size(), 2u);
  ASSERT_EQ(head.size(), 2u);
  for (size_t q = 0; q < all.size(); ++q) {
    EXPECT_GT(tail[q].first, 0) << "Q" << q + 1;
    EXPECT_EQ(head[q].first + tail[q].first, all[q].first) << "Q" << q + 1;
    EXPECT_EQ(tail[q].second, all[q].second) << "Q" << q + 1;
  }
}

// --------------------------------------------------------------------------
// Parallel ingest: a serial --trace run parses on parser threads; its
// results, snapshots and stats match an inline parse
// --------------------------------------------------------------------------

/// Creates a FIFO at `path` (replacing any file there).
void MakeFifo(const std::string& path) {
  std::filesystem::remove(path);
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0) << path;
}

/// Writes `content` into the FIFO at `path` from a thread, calling
/// `halfway` (if set) after the first `split` bytes. The reader may close
/// early: writes then fail (SIGPIPE is ignored) and the thread ends.
std::thread FeedFifo(const std::string& path, std::string content,
                     size_t split = 0, void (*halfway)() = nullptr) {
  std::signal(SIGPIPE, SIG_IGN);
  return std::thread([path, content = std::move(content), split, halfway] {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return;
    std::fwrite(content.data(), 1, split, f);
    std::fflush(f);
    if (halfway != nullptr) halfway();
    std::fwrite(content.data() + split, 1, content.size() - split, f);
    std::fclose(f);
  });
}

/// Joins a FeedFifo writer once the run is over. A run that failed before
/// opening the FIFO leaves the writer blocked in its open; opening and
/// closing the read end releases it (its writes then fail).
void JoinWriter(const std::string& path, std::thread* writer) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_NONBLOCK);
  if (fd >= 0) ::close(fd);
  writer->join();
  std::filesystem::remove(path);
}

TEST(CliIngestTest, FifoTraceGivesTheFileResults) {
  const std::string trace = StockTrace("aseq_cli_fifo.csv", 20000);
  CliResult file = RunTool({"run", "--query", kGroupedQuery, "--trace", trace,
                            "--limit", "1000000"});
  ASSERT_EQ(file.code, 0) << file.err;
  const std::string fifo = ::testing::TempDir() + "/aseq_cli_trace.fifo";
  MakeFifo(fifo);
  std::thread writer = FeedFifo(fifo, ReadFile(trace));
  CliResult piped = RunTool({"run", "--query", kGroupedQuery, "--trace", fifo,
                             "--limit", "1000000"});
  JoinWriter(fifo, &writer);
  ASSERT_EQ(piped.code, 0) << piped.err;
  EXPECT_FALSE(ResultLines(file.out).empty());
  EXPECT_EQ(ResultLines(piped.out), ResultLines(file.out));
}

/// The snapshot files in `dir`: name -> bytes.
std::map<std::string, std::string> Snapshots(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files[entry.path().filename().string()] = ReadFile(entry.path().string());
  }
  return files;
}

TEST(CliIngestTest, CheckpointsMatchAnInlineParse) {
  // 20k events span eight 128 KiB chunks.
  const std::string trace = StockTrace("aseq_cli_ckpt_parallel.csv", 20000);
  ASSERT_GT(std::filesystem::file_size(trace), 4 * kTraceChunkBytes);
  const std::string cli_dir = FreshDir("aseq_cli_ckpt_parallel");
  CliResult full = RunTool({"run", "--query", kGroupedQuery, "--trace", trace,
                            "--limit", "1000000", "--checkpoint-every", "1024",
                            "--checkpoint-dir", cli_dir});
  ASSERT_EQ(full.code, 0) << full.err;
  // The same run through the library with the trace parsed inline, set up
  // as `aseq run` sets it up: the query compiled before the source opens.
  const std::string inline_dir = FreshDir("aseq_cli_ckpt_inline");
  {
    Schema schema;
    Analyzer analyzer(&schema);
    auto query = analyzer.AnalyzeText(kGroupedQuery);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    RunOptions options;
    options.checkpoint_every = 1024;
    options.checkpoint_dir = inline_dir;
    options.collect_outputs = false;
    auto policy = exec::MakePolicy(
        *query, [&] { return CreateAseqEngine(*query); }, options);
    ASSERT_TRUE(policy.ok()) << policy.status().ToString();
    auto source = TraceFileSource::Open(trace, &schema, 0);
    ASSERT_TRUE(source.ok());
    RunResult result = (*policy)->Run(source->get());
    ASSERT_TRUE((*source)->status().ok());
    ASSERT_TRUE(result.checkpoint_status.ok());
    EXPECT_EQ(result.events, 20000u);
  }
  const auto parallel = Snapshots(cli_dir);
  const auto inline_parse = Snapshots(inline_dir);
  ASSERT_EQ(parallel.size(), 19u);  // offsets 1024 .. 19456
  ASSERT_EQ(parallel.size(), inline_parse.size());
  for (auto a = parallel.begin(), b = inline_parse.begin();
       a != parallel.end(); ++a, ++b) {
    EXPECT_EQ(a->first, b->first);
    EXPECT_TRUE(a->second == b->second) << a->first << " differs";
  }
  // A resumed run (parsing in parallel too) ends the same way.
  const std::string snap = cli_dir + "/ckpt-00000000000000010240.aseqckpt";
  ASSERT_TRUE(parallel.count("ckpt-00000000000000010240.aseqckpt"));
  CliResult resumed = RunTool({"run", "--query", kGroupedQuery, "--trace",
                               trace, "--limit", "1000000", "--restore-from",
                               snap});
  ASSERT_EQ(resumed.code, 0) << resumed.err;
  const std::vector<std::string> all = ResultLines(full.out);
  const std::vector<std::string> tail = ResultLines(resumed.out);
  ASSERT_FALSE(tail.empty());
  ASSERT_LT(tail.size(), all.size());
  EXPECT_TRUE(std::equal(tail.begin(), tail.end(),
                         all.end() - static_cast<ptrdiff_t>(tail.size())));
}

TEST(CliIngestTest, StopRequestWithParsersAheadExitsCleanly) {
  const std::string trace = StockTrace("aseq_cli_stop.csv", 20000);
  CliResult full = RunTool({"run", "--query", kGroupedQuery, "--trace", trace,
                            "--limit", "1000000"});
  ASSERT_EQ(full.code, 0) << full.err;
  // Half the trace goes into a FIFO, then the stop request, then the rest:
  // the run cannot reach the end before it sees the request, and its
  // parsers have read ahead by then.
  const std::string content = ReadFile(trace);
  const size_t split = content.find('\n', content.size() / 2) + 1;
  const std::string fifo = ::testing::TempDir() + "/aseq_cli_stop.fifo";
  MakeFifo(fifo);
  const std::string dir = FreshDir("aseq_cli_stop_ckpt");
  std::thread writer = FeedFifo(fifo, content, split, [] {
    CliStopFlag().store(true, std::memory_order_relaxed);
  });
  CliResult stopped = RunTool({"run", "--query", kGroupedQuery, "--trace",
                               fifo, "--limit", "1000000", "--checkpoint-every",
                               "1000000", "--checkpoint-dir", dir});
  JoinWriter(fifo, &writer);
  CliStopFlag().store(false, std::memory_order_relaxed);
  ASSERT_EQ(stopped.code, 0) << stopped.err;
  EXPECT_NE(stopped.out.find("interrupted: stop signal received"),
            std::string::npos)
      << stopped.out;
  // What ran is a prefix of the full run, and the final snapshot is on
  // disk at the offset where it stopped.
  const std::vector<std::string> all = ResultLines(full.out);
  const std::vector<std::string> head = ResultLines(stopped.out);
  ASSERT_LT(head.size(), all.size());
  EXPECT_TRUE(std::equal(head.begin(), head.end(), all.begin()));
  EXPECT_EQ(Snapshots(dir).size(), 1u);
}

/// The `offset` argument of every `checkpoint` instant in a --trace-out
/// file, in file order.
std::vector<uint64_t> CheckpointInstantOffsets(const std::string& trace) {
  const std::string doc = ReadFile(trace);
  const std::string name = "\"name\":\"checkpoint\",";
  const std::string arg = "\"offset\":";
  std::vector<uint64_t> offsets;
  for (size_t at = doc.find(name); at != std::string::npos;
       at = doc.find(name, at + 1)) {
    const size_t value = doc.find(arg, at);
    EXPECT_NE(value, std::string::npos) << doc.substr(at, 120);
    if (value == std::string::npos) break;
    offsets.push_back(std::stoull(doc.substr(value + arg.size())));
  }
  return offsets;
}

TEST(CliTelemetryTest, CheckpointInstantsMatchSnapshotFiles) {
  // One trace instant per snapshot the run wrote, at the snapshot's offset,
  // serial or sharded, and the metrics file is written alongside.
  const std::string trace = StockTrace("aseq_cli_ckpt_instants.csv", 6000);
  for (const char* shards : {"1", "2"}) {
    const std::string context = std::string("--shards ") + shards;
    const std::string dir =
        FreshDir(std::string("aseq_cli_ckpt_instants_") + shards);
    const std::string trace_out =
        ::testing::TempDir() + "/aseq_cli_ckpt_instants.json";
    const std::string metrics =
        ::testing::TempDir() + "/aseq_cli_ckpt_instants.jsonl";
    CliResult r = RunTool({"run", "--query", kGroupedQuery, "--trace", trace,
                           "--quiet", "--shards", shards, "--checkpoint-every",
                           "1024", "--checkpoint-dir", dir, "--trace-out",
                           trace_out, "--metrics-out", metrics});
    ASSERT_EQ(r.code, 0) << context << ": " << r.err;
    const size_t at = r.out.find("checkpoints:   ");
    ASSERT_NE(at, std::string::npos) << r.out;
    const uint64_t written = std::stoull(r.out.substr(at + 15));
    EXPECT_EQ(written, 5u) << context;  // offsets 1024 .. 5120
    std::vector<uint64_t> file_offsets;
    for (const auto& [file, bytes] : Snapshots(dir)) {
      file_offsets.push_back(std::stoull(file.substr(5)));  // "ckpt-"
    }
    EXPECT_EQ(file_offsets.size(), written) << context;
    EXPECT_EQ(CheckpointInstantOffsets(trace_out), file_offsets) << context;
    EXPECT_NE(ReadFile(metrics).find("\"type\":\"header\""), std::string::npos)
        << context;
  }
}

/// The value of `"key":` in the JSON text `doc` (a number, as text).
std::string JsonField(const std::string& doc, const std::string& key) {
  const size_t at = doc.find("\"" + key + "\":");
  if (at == std::string::npos) return "";
  const size_t begin = at + key.size() + 3;
  return doc.substr(begin, doc.find_first_of(",}", begin) - begin);
}

TEST(CliIngestTest, StatsJsonReportsTheIngestLayer) {
  const std::string trace = StockTrace("aseq_cli_ingest_stats.csv", 20000);
  const std::string bytes =
      std::to_string(std::filesystem::file_size(trace));
  const std::string stats = ::testing::TempDir() + "/aseq_cli_ingest.json";
  for (const char* shards : {"1", "2"}) {
    CliResult r = RunTool({"run", "--query", kGroupedQuery, "--trace", trace,
                           "--quiet", "--shards", shards, "--stats-json",
                           stats});
    ASSERT_EQ(r.code, 0) << r.err;
    const std::string doc = ReadFile(stats);
    ASSERT_NE(doc.find("\"ingest\":{"), std::string::npos) << doc;
    // The plan's thread count: the spare cores, serial or sharded.
    EXPECT_EQ(JsonField(doc, "parse_threads"),
              std::to_string(
                  TraceParseThreads(std::thread::hardware_concurrency())))
        << shards;
    // Chunks of up to 128 KiB, each cut at its last line end (stock lines
    // are under 64 bytes).
    const size_t chunks = std::stoul(JsonField(doc, "chunks"));
    EXPECT_GE(chunks, std::stoul(bytes) / kTraceChunkBytes + 1) << shards;
    EXPECT_LE(chunks, std::stoul(bytes) / (kTraceChunkBytes - 64) + 1)
        << shards;
    EXPECT_EQ(JsonField(doc, "bytes"), bytes) << shards;
    EXPECT_GT(std::stod(JsonField(doc, "parse_busy_s")), 0.0) << shards;
    EXPECT_GE(std::stod(JsonField(doc, "consumer_wait_s")), 0.0) << shards;
    EXPECT_GE(std::stoul(JsonField(doc, "remapped_chunks")), 1u) << shards;
    // Every line carries price, volume and traderId; the query reads only
    // traderId, and only on its own types.
    const uint64_t parsed = std::stoull(JsonField(doc, "values_parsed"));
    const uint64_t skipped = std::stoull(JsonField(doc, "values_skipped"));
    EXPECT_EQ(parsed + skipped, 3u * 20000) << shards;
    EXPECT_GT(parsed, 0u) << shards;
    EXPECT_GT(skipped, 2 * parsed) << shards;
    EXPECT_NE(doc.find("\"events_processed\":20000"), std::string::npos);
  }
  // A generated stream has no trace to ingest: the object is all zeros.
  CliResult gen = RunTool({"run", "--query", kGroupedQuery, "--stock", "500",
                           "--quiet", "--stats-json", stats});
  ASSERT_EQ(gen.code, 0) << gen.err;
  EXPECT_EQ(JsonField(ReadFile(stats), "chunks"), "0");
}

/// The number before " injected" on the stats block's faults line.
std::string FaultsLine(const std::string& out) {
  const size_t at = out.find("faults:");
  if (at == std::string::npos) return "";
  const size_t begin = out.find_first_not_of(' ', at + 7);
  return out.substr(begin, out.find(' ', begin) - begin);
}

TEST(CliStatsTest, FaultCountIsOneSourceSerialAndSharded) {
  // The text line and --stats-json read the same counter: the faults the
  // executor saw fire during its run, serial or sharded.
  const std::string stats = ::testing::TempDir() + "/aseq_cli_faults.json";
  const std::vector<std::vector<std::string>> runs = {
      {"--batch-size", "64", "--fault-spec", "admit.batch:3:slow"},
      {"--shards", "2", "--supervise", "--fault-spec",
       "worker.op@0:100:crash"}};
  for (const auto& extra : runs) {
    std::vector<std::string> args = {"run",     "--query",      kGroupedQuery,
                                     "--stock", "2000",         "--quiet",
                                     "--stats-json", stats};
    args.insert(args.end(), extra.begin(), extra.end());
    CliResult r = RunTool(args);
    ASSERT_EQ(r.code, 0) << r.err;
    const std::string fired = FaultsLine(r.out);
    EXPECT_NE(fired, "") << r.out;
    EXPECT_NE(fired, "0") << r.out;
    EXPECT_EQ(JsonField(ReadFile(stats), "fault_injected"), fired) << r.out;
  }
}

TEST(CliStatsTest, OneQueryNonShareWorkloadMatchesRun) {
  // A composite of one A-Seq part reports that part's table, admission and
  // work counters: the same numbers `run` reports for the query.
  const std::string trace = StockTrace("aseq_cli_nonshare.csv", 20000);
  const std::string queries = ::testing::TempDir() + "/aseq_cli_one.txt";
  std::ofstream(queries) << kGroupedQuery << "\n";
  const std::string run_json = ::testing::TempDir() + "/aseq_cli_run.json";
  const std::string wl_json = ::testing::TempDir() + "/aseq_cli_wl.json";
  CliResult run = RunTool({"run", "--query", kGroupedQuery, "--trace", trace,
                           "--quiet", "--stats-json", run_json});
  ASSERT_EQ(run.code, 0) << run.err;
  CliResult wl = RunTool({"workload", "--queries", queries, "--trace", trace,
                          "--strategy", "nonshare", "--stats-json", wl_json});
  ASSERT_EQ(wl.code, 0) << wl.err;
  const std::string a = ReadFile(run_json);
  const std::string b = ReadFile(wl_json);
  for (const char* key :
       {"ht_probes", "ht_probe_steps", "ht_slots", "ht_entries",
        "adm_admitted", "adm_rejected_local", "adm_missing_attr",
        "adm_generic_cmps", "work_units"}) {
    EXPECT_EQ(JsonField(a, key), JsonField(b, key)) << key;
  }
  EXPECT_NE(JsonField(a, "ht_probes"), "0") << a;
  EXPECT_NE(JsonField(a, "ht_slots"), "0") << a;
}

}  // namespace
}  // namespace aseq
