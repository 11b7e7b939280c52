// The benchmark's own tests: seeded inputs, the percentile tail rule, and
// agreement between the metric catalog and BENCHMARK.json.

#include "perfbench/src/catalog.hpp"
#include "perfbench/src/stats.hpp"
#include "perfbench/src/workloads.hpp"
#include "src/obs/json.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>

namespace perfbench {
namespace {

using compso::comm::FaultEvent;
using compso::obs::JsonValue;

bool same_event(const FaultEvent& a, const FaultEvent& b) {
  return a.iteration == b.iteration && a.rank == b.rank && a.kind == b.kind &&
         a.slowdown_s == b.slowdown_s && a.duration == b.duration &&
         a.chunk == b.chunk;
}

bool same_plan(const compso::comm::FaultPlan& a, const compso::comm::FaultPlan& b) {
  if (a.events().size() != b.events().size()) return false;
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    if (!same_event(a.events()[i], b.events()[i])) return false;
  }
  return true;
}

TEST(Workloads, SameSeedGivesSameInputs) {
  for (const auto& w : workloads()) {
    const auto a = make_inputs(w, 7, 3);
    const auto b = make_inputs(w, 7, 3);
    EXPECT_EQ(a.config.base.seed, b.config.base.seed) << w.name;
    EXPECT_EQ(a.config.base.hidden, b.config.base.hidden) << w.name;
    EXPECT_EQ(a.config.base.noise, b.config.base.noise) << w.name;
    EXPECT_EQ(a.fault_seed, b.fault_seed) << w.name;
    EXPECT_TRUE(same_plan(a.plan, b.plan)) << w.name;
  }
}

TEST(Workloads, DifferentSeedsGiveDifferentInputs) {
  for (const auto& w : workloads()) {
    const auto a = make_inputs(w, 1, 3);
    const auto b = make_inputs(w, 2, 3);
    EXPECT_NE(a.config.base.seed, b.config.base.seed) << w.name;
    if (!a.plan.empty()) {
      EXPECT_NE(a.fault_seed, b.fault_seed) << w.name;
      EXPECT_FALSE(same_plan(a.plan, b.plan)) << w.name;
    }
  }
}

TEST(Workloads, EngineThreadsChangeOnlyThePoolSize) {
  for (const auto& w : workloads()) {
    const auto pool = make_inputs(w, 5, 3);
    const auto serial = make_inputs(w, 5, 0);
    EXPECT_EQ(pool.config.engine_threads, 3U);
    EXPECT_EQ(serial.config.engine_threads, 0U);
    EXPECT_EQ(pool.config.base.seed, serial.config.base.seed);
    EXPECT_TRUE(same_plan(pool.plan, serial.plan));
  }
}

TEST(Workloads, FaultedPlanCoversEveryFaultKindAndSparesWarmup) {
  const auto* w = find_workload("kfac_faulted");
  ASSERT_NE(w, nullptr);
  const auto in = make_inputs(*w, 11, 3);
  std::set<compso::comm::FaultKind> kinds;
  for (const auto& e : in.plan.events()) {
    kinds.insert(e.kind);
    EXPECT_GT(e.iteration, 0U);
    EXPECT_LT(e.rank, in.config.base.world);
  }
  using K = compso::comm::FaultKind;
  for (K k : {K::kCorruptPayload, K::kDropEntry, K::kTruncateEntry, K::kStraggler,
              K::kCrash, K::kRecover}) {
    EXPECT_TRUE(kinds.count(k) == 1) << compso::comm::to_string(k);
  }
  EXPECT_TRUE(in.config.recovery.enabled);
  EXPECT_GT(in.config.kfac.chunk_bytes, 0U);
}

TEST(Workloads, QualityWindowSatisfiesTheTailRule) {
  for (const auto& w : workloads()) {
    EXPECT_GE(w.quality_steps, min_samples_for(0.9)) << w.name;
    EXPECT_GE(w.prefix_steps, 2U) << w.name;
    EXPECT_LE(w.prefix_steps, w.quality_steps) << w.name;
  }
}

TEST(Stats, PercentileTailRule) {
  EXPECT_EQ(min_samples_for(0.9), 100U);
  EXPECT_EQ(min_samples_for(0.5), 20U);
  EXPECT_EQ(samples_beyond(100, 0.9), 10U);
  EXPECT_LT(samples_beyond(99, 0.9), kTailSamples);
  EXPECT_EQ(samples_beyond(0, 0.9), 0U);
  for (std::size_t n = 1; n < 400; ++n) {
    EXPECT_EQ(samples_beyond(n, 0.9) >= kTailSamples, n >= min_samples_for(0.9)) << n;
  }
}

TEST(Stats, NearestRankPercentileIsASample) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(percentile(v, 0.9), 90.0);
  EXPECT_EQ(percentile(v, 0.5), 50.0);
  EXPECT_EQ(percentile(v, 1.0), 100.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 6.0}), 3.0);
}

JsonValue load_spec() {
  std::ifstream in(PERFBENCH_SPEC);
  std::stringstream text;
  text << in.rdbuf();
  auto doc = compso::obs::parse_json(text.str());
  if (!doc) ADD_FAILURE() << "cannot parse " << PERFBENCH_SPEC;
  return doc.value_or(JsonValue{});
}

template <std::size_t N>
void expect_catalog_matches(const JsonValue* list, const std::array<MetricSpec, N>& catalog) {
  ASSERT_NE(list, nullptr);
  ASSERT_TRUE(list->is(JsonValue::Kind::kArray));
  ASSERT_EQ(list->array.size(), N);
  for (std::size_t i = 0; i < N; ++i) {
    const auto* name = list->array[i].find("name");
    const auto* unit = list->array[i].find("unit");
    ASSERT_NE(name, nullptr);
    ASSERT_NE(unit, nullptr);
    EXPECT_EQ(name->string, catalog[i].name);
    EXPECT_EQ(unit->string, catalog[i].unit) << name->string;
  }
}

TEST(Spec, WorkloadsMatchBenchmarkJson) {
  const auto spec = load_spec();
  const auto* list = spec.find("workloads");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->array.size(), workloads().size());
  for (std::size_t i = 0; i < workloads().size(); ++i) {
    const auto* name = list->array[i].find("name");
    ASSERT_NE(name, nullptr);
    EXPECT_EQ(name->string, workloads()[i].name);
    EXPECT_NE(find_workload(name->string), nullptr);
  }
}

TEST(Spec, MetricsMatchBenchmarkJson) {
  const auto spec = load_spec();
  expect_catalog_matches(spec.find("end_to_end"), kEndToEnd);
  expect_catalog_matches(spec.find("per_layer"), kPerLayer);
}

}  // namespace
}  // namespace perfbench
