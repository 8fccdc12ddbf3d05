#include "baselines/adapters.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "eval/metrics.h"
#include "gen/car_domain.h"

namespace kgsearch {
namespace {

class AdaptersTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto result = MakeCarDomainDataset(150, 117);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    dataset_ = std::move(result).ValueOrDie().release();
    context_ = MethodContext{dataset_->graph.get(), dataset_->space.get(),
                             &dataset_->library};
    gold_ = dataset_->GoldIds(kCarProducedIntent, kCarGermanyAnchor);
    std::sort(gold_.begin(), gold_.end());
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  static GeneratedDataset* dataset_;
  static MethodContext context_;
  static std::vector<NodeId> gold_;
};

GeneratedDataset* AdaptersTest::dataset_ = nullptr;
MethodContext AdaptersTest::context_;
std::vector<NodeId> AdaptersTest::gold_;

TEST_F(AdaptersTest, SgqMethodBeatsExactBaselinesOnF1) {
  SgqMethod sgq(context_, EngineOptions{});
  auto result = sgq.QueryTopK(MakeQ117Variant(4), 0, gold_.size());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  Prf prf = ComputePrf(result.ValueOrDie(), gold_);
  EXPECT_GT(prf.f1, 0.6);
  EXPECT_EQ(sgq.name(), "SGQ");
}

TEST_F(AdaptersTest, SgqHandlesAllVariants) {
  SgqMethod sgq(context_, EngineOptions{});
  for (int v = 1; v <= 4; ++v) {
    auto result = sgq.QueryTopK(MakeQ117Variant(v), 0, 30);
    ASSERT_TRUE(result.ok()) << "variant " << v;
    EXPECT_FALSE(result.ValueOrDie().empty()) << "variant " << v;
  }
}

TEST_F(AdaptersTest, TbqMethodApproachesSgqWithGenerousBound) {
  SgqMethod sgq(context_, EngineOptions{});
  EngineOptions toptions;
  toptions.time_bound = TimeBound{.micros = 5'000'000};  // generous
  SgqMethod tbq(context_, toptions, "TBQ-test");
  EXPECT_EQ(tbq.name(), "TBQ-test");

  auto a = sgq.QueryTopK(MakeQ117Variant(4), 0, 40);
  auto b = tbq.QueryTopK(MakeQ117Variant(4), 0, 40);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_GT(Jaccard(a.ValueOrDie(), b.ValueOrDie()), 0.8);
}

TEST_F(AdaptersTest, TbqTimeBoundIsAdjustable) {
  EngineOptions toptions;
  toptions.time_bound = TimeBound{.micros = 1'000'000};
  SgqMethod tbq(context_, toptions, "TBQ-0.9");
  tbq.mutable_options()->time_bound->micros = 500;
  auto result = tbq.QueryTopK(MakeQ117Variant(4), 0, 40);
  ASSERT_TRUE(result.ok());  // may be partial but must not error
}

}  // namespace
}  // namespace kgsearch
