#include <gtest/gtest.h>

#include <cmath>

#include "baseline/cost_model.h"
#include "baseline/stack_engine.h"
#include "bench/bench_util.h"
#include "engine/runtime.h"
#include "query/analyzer.h"
#include "tests/test_util.h"

namespace aseq {
namespace {

using testing_util::RunPerEvent;

TEST(CostModelTest, UniformReducesToPowerLaw) {
  // With N instances per type and selectivity s, Eq. 3's dominant term is
  // N * (N*s)^(n-1).
  for (size_t n : {2u, 3u, 4u, 5u}) {
    double cost = StackCostModel::Uniform(n, 10.0, 0.5).Cost();
    double dominant = 10.0 * std::pow(10.0 * 0.5, n - 1);
    EXPECT_GE(cost, dominant);
    EXPECT_LE(cost, 2.5 * dominant);  // geometric series of lower terms
  }
}

TEST(CostModelTest, GrowthFactorPerAddedPosition) {
  // Each added pattern position multiplies the dominant cost by N*s.
  double c3 = StackCostModel::Uniform(3, 20.0).Cost();
  double c4 = StackCostModel::Uniform(4, 20.0).Cost();
  EXPECT_NEAR(c4 / c3, 20.0 * 0.5, 2.0);
}

TEST(CostModelTest, NonUniformCounts) {
  StackCostModel m;
  m.type_counts = {100, 1, 100};
  m.time_selectivities = {0.5, 0.5};
  // 100 + 1*(100*0.5) + 100*(100*0.5*1*0.5) = 100 + 50 + 2500.
  EXPECT_DOUBLE_EQ(m.Cost(), 2650.0);
}

TEST(CostModelTest, ASeqCostLinearAndLengthFree) {
  EXPECT_DOUBLE_EQ(StackCostModel::ASeqCost(1000, 20), 20000.0);
  // No pattern-length parameter exists — by construction.
}

TEST(CostModelTest, PredictsMeasuredGrowthWithinBand) {
  // Empirical sanity: the measured stack work_units growth when extending
  // the pattern from 3 to 4 types matches Eq. 3's N*s factor within a
  // generous band (the model is asymptotic; constants differ).
  auto stream = bench::MakeStockStream(3000, 8);
  // |E_i| per 1000ms window: ~ (1000ms / 4ms avg gap) / 10 types.
  const double instances = 1000.0 / 4.0 / 10.0;
  double measured[2];
  for (size_t l : {3u, 4u}) {
    Schema schema = stream->schema;
    Analyzer analyzer(&schema);
    auto cq = analyzer.Analyze(bench::MakeTickerQuery(l, 1000));
    StackEngine engine(*cq);
    RunPerEvent(stream->events, &engine);
    measured[l - 3] = static_cast<double>(engine.stats().work_units);
  }
  double measured_factor = measured[1] / measured[0];
  double model_factor = StackCostModel::Uniform(4, instances).Cost() /
                        StackCostModel::Uniform(3, instances).Cost();
  EXPECT_GT(measured_factor, model_factor / 4);
  EXPECT_LT(measured_factor, model_factor * 4);
}

}  // namespace
}  // namespace aseq
