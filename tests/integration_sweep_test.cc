// Integration-scale agreement sweeps: A-Seq vs the stack-based baseline on
// thousand-event synthetic streams, parameterized over pattern shapes and
// window sizes. The brute-force oracle cannot reach this scale; the two
// independently implemented engines must still agree on every delivered
// result.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>

#include "aseq/aseq_engine.h"
#include "baseline/stack_engine.h"
#include "engine/runtime.h"
#include "query/analyzer.h"
#include "stream/stock_stream.h"
#include "tests/test_util.h"

namespace aseq {
namespace {

using testing_util::RunPerEvent;

struct SweepCase {
  std::string label;
  std::string query;  // window appended by the test
};

class AgreementSweepTest
    : public ::testing::TestWithParam<std::tuple<SweepCase, int>> {};

TEST_P(AgreementSweepTest, ASeqMatchesStackBaseline) {
  const SweepCase& sc = std::get<0>(GetParam());
  const int window_ms = std::get<1>(GetParam());

  Schema schema;
  StockStreamOptions options;
  options.seed = 1234;
  options.num_events = 1500;
  options.max_gap_ms = 8;
  options.num_traders = 6;
  std::vector<Event> events = GenerateStockStream(options, &schema);
  AssignSeqNums(&events);

  Analyzer analyzer(&schema);
  std::string text =
      sc.query + " WITHIN " + std::to_string(window_ms) + "ms";
  auto compiled = analyzer.AnalyzeText(text);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  auto aseq = CreateAseqEngine(*compiled);
  ASSERT_TRUE(aseq.ok()) << aseq.status().ToString();
  StackEngine stack(*compiled);

  RunResult a = RunPerEvent(events, aseq->get());
  RunResult s = RunPerEvent(events, &stack);
  ASSERT_EQ(a.outputs.size(), s.outputs.size()) << text;
  size_t nonzero = 0;
  for (size_t i = 0; i < a.outputs.size(); ++i) {
    const Value& av = a.outputs[i].value;
    const Value& sv = s.outputs[i].value;
    bool same = av.Equals(sv);
    if (!same && av.is_numeric() && sv.is_numeric()) {
      double x = av.ToDouble(), y = sv.ToDouble();
      double scale = std::max({1.0, std::fabs(x), std::fabs(y)});
      same = std::fabs(x - y) <= 1e-9 * scale;
    }
    ASSERT_TRUE(same) << text << " output#" << i << ": " << av.ToString()
                      << " vs " << sv.ToString();
    if (!av.is_null() && !(av.type() == ValueType::kInt64 && av.AsInt64() == 0)) {
      ++nonzero;
    }
  }
  // Guard against vacuous agreement: wide-enough windows must match.
  if (window_ms >= 400) {
    EXPECT_GT(nonzero, 0u) << text << " produced only empty results";
  }
}

std::vector<SweepCase> SweepCases() {
  return {
      {"len2", "PATTERN SEQ(DELL, IPIX) AGG COUNT"},
      {"len3", "PATTERN SEQ(DELL, IPIX, AMAT) AGG COUNT"},
      {"len4", "PATTERN SEQ(DELL, IPIX, AMAT, QQQ) AGG COUNT"},
      {"neg", "PATTERN SEQ(DELL, IPIX, !QQQ, AMAT) AGG COUNT"},
      {"neg_first_gap", "PATTERN SEQ(DELL, !QQQ, AMAT) AGG COUNT"},
      {"sum", "PATTERN SEQ(DELL, IPIX, AMAT) AGG SUM(IPIX.volume)"},
      {"avg", "PATTERN SEQ(DELL, IPIX) AGG AVG(DELL.volume)"},
      {"min", "PATTERN SEQ(DELL, IPIX, AMAT) AGG MIN(AMAT.price)"},
      {"max", "PATTERN SEQ(DELL, IPIX) AGG MAX(IPIX.price)"},
      {"equiv",
       "PATTERN SEQ(DELL, IPIX) WHERE DELL.traderId = IPIX.traderId "
       "AGG COUNT"},
      {"group",
       "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT"},
      {"local", "PATTERN SEQ(DELL, IPIX) WHERE DELL.volume > 5000 AGG COUNT"},
      {"neg_local",
       "PATTERN SEQ(DELL, !QQQ, AMAT) WHERE QQQ.volume > 5000 AGG COUNT"},
      {"equiv_neg",
       "PATTERN SEQ(DELL, !QQQ, AMAT) WHERE DELL.traderId = QQQ.traderId = "
       "AMAT.traderId AGG COUNT"},
  };
}

std::string SweepName(
    const ::testing::TestParamInfo<std::tuple<SweepCase, int>>& info) {
  return std::get<0>(info.param).label + "_w" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(Sweep, AgreementSweepTest,
                         ::testing::Combine(::testing::ValuesIn(SweepCases()),
                                            ::testing::Values(50, 200, 400,
                                                              800)),
                         SweepName);

}  // namespace
}  // namespace aseq
