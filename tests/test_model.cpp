#include <gtest/gtest.h>

#include <cmath>

#include "model/dataset.h"
#include "model/grad_gen.h"
#include "model/mlp.h"
#include "model/model_state.h"
#include "model/zoo.h"
#include "tensor/ops.h"

namespace lowdiff {
namespace {

// --- model zoo -------------------------------------------------------------

struct ZooCase {
  const char* name;
  std::size_t params;
};

// Without a printer gtest dumps the struct's bytes, pointer included, into the
// test's listed name, and ASLR makes that name differ on every run.
void PrintTo(const ZooCase& c, std::ostream* os) {
  *os << c.name << " (" << c.params << " params)";
}

class ZooParamCount : public ::testing::TestWithParam<ZooCase> {};

TEST_P(ZooParamCount, MatchesPaperTable2b) {
  const auto spec = zoo::by_name(GetParam().name);
  EXPECT_EQ(spec.param_count(), GetParam().params);
  EXPECT_EQ(spec.full_checkpoint_bytes(), 3 * 4 * GetParam().params);
  EXPECT_GT(spec.layer_count(), 10u);  // real structure, not one blob
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ZooParamCount,
    ::testing::Values(ZooCase{"ResNet-50", 25'600'000},
                      ZooCase{"ResNet-101", 44'500'000},
                      ZooCase{"VGG-16", 138'800'000},
                      ZooCase{"VGG-19", 143'700'000},
                      ZooCase{"BERT-B", 110'000'000},
                      ZooCase{"BERT-L", 334'000'000},
                      ZooCase{"GPT2-S", 117'000'000},
                      ZooCase{"GPT2-L", 762'000'000}),
    [](const auto& info) {
      std::string n = info.param.name;
      for (auto& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

TEST(Zoo, UnknownNameThrows) { EXPECT_THROW(zoo::by_name("AlexNet"), Error); }

TEST(Zoo, AllReturnsEight) { EXPECT_EQ(zoo::all().size(), 8u); }

TEST(ModelSpec, LayerOffsetsArePrefixSums) {
  const auto spec = zoo::resnet50();
  const auto offsets = spec.layer_offsets();
  ASSERT_EQ(offsets.size(), spec.layer_count() + 1);
  EXPECT_EQ(offsets.front(), 0u);
  EXPECT_EQ(offsets.back(), spec.param_count());
  for (std::size_t i = 0; i < spec.layer_count(); ++i) {
    EXPECT_EQ(offsets[i + 1] - offsets[i], spec.layers[i].size());
  }
}

TEST(ModelSpec, ScaledShrinksParams) {
  const auto spec = zoo::gpt2_small();
  const auto small = spec.scaled(1.0 / 64.0);
  EXPECT_LT(small.param_count(), spec.param_count() / 16);
  EXPECT_EQ(small.layer_count(), spec.layer_count());
}

TEST(ModelSpec, ScaledRejectsNonPositive) {
  EXPECT_THROW(zoo::resnet50().scaled(0.0), Error);
}

TEST(ModelSpec, PartitionPreservesLayersAndParams) {
  // VGG-16's classifier.0 weight alone is ~74% of the parameters, so
  // stage balance is impossible there — only conservation is checked.
  const auto spec = zoo::vgg16();
  const auto stages = spec.partition(4);
  ASSERT_EQ(stages.size(), 4u);
  std::size_t total_layers = 0, total_params = 0;
  for (const auto& s : stages) {
    total_layers += s.layer_count();
    total_params += s.param_count();
    EXPECT_GT(s.layer_count(), 0u);
  }
  EXPECT_EQ(total_layers, spec.layer_count());
  EXPECT_EQ(total_params, spec.param_count());
}

TEST(ModelSpec, PartitionBalancesUniformModels) {
  // ResNet-101 has no dominant layer: stages should be roughly balanced.
  const auto spec = zoo::resnet101();
  const auto stages = spec.partition(4);
  for (const auto& s : stages) {
    EXPECT_LT(s.param_count(), spec.param_count() / 2);
    EXPECT_GT(s.param_count(), spec.param_count() / 20);
  }
}

TEST(ModelSpec, PartitionEdgeCases) {
  const auto spec = zoo::resnet50();
  EXPECT_EQ(spec.partition(1).size(), 1u);
  EXPECT_THROW(spec.partition(0), Error);
  EXPECT_THROW(spec.partition(spec.layer_count() + 1), Error);
}

// --- model state -----------------------------------------------------------

ModelSpec tiny_spec() {
  ModelSpec spec;
  spec.name = "tiny";
  spec.layers = {{"a", {4, 3}}, {"b", {4}}, {"c", {2, 4}}};
  return spec;
}

TEST(ModelState, LayerViewsPartitionParams) {
  ModelState state(tiny_spec());
  EXPECT_EQ(state.param_count(), 12u + 4u + 8u);
  EXPECT_EQ(state.layer_params(0).size(), 12u);
  EXPECT_EQ(state.layer_params(1).size(), 4u);
  EXPECT_EQ(state.layer_offset(2), 16u);
  EXPECT_THROW(state.layer_params(3), Error);
}

TEST(ModelState, InitRandomDeterministicAcrossInstances) {
  ModelState a(tiny_spec()), b(tiny_spec());
  a.init_random(99);
  b.init_random(99);
  EXPECT_TRUE(a.bit_equal(b));
  b.init_random(100);
  EXPECT_FALSE(a.bit_equal(b));
}

TEST(ModelState, BiasesInitializedToZero) {
  ModelState state(tiny_spec());
  state.init_random(1);
  for (float v : state.layer_params(1)) EXPECT_EQ(v, 0.0f);  // 1-D layer
  // 2-D layer gets nonzero weights.
  EXPECT_GT(ops::max_abs(state.layer_params(0)), 0.0f);
}

TEST(ModelState, CloneIsDeepAndTracksStep) {
  ModelState a(tiny_spec());
  a.init_random(3);
  a.set_step(17);
  ModelState b = a.clone();
  EXPECT_TRUE(a.bit_equal(b));
  b.params()[0] += 1.0f;
  EXPECT_FALSE(a.bit_equal(b));
  b.params()[0] -= 1.0f;
  b.set_step(18);
  EXPECT_FALSE(a.bit_equal(b));  // step participates in equality
}

// --- synthetic gradients ----------------------------------------------------

TEST(GradGen, DeterministicPerIterationWorkerLayer) {
  const auto spec = tiny_spec();
  SyntheticGradientGenerator gen(spec, 7);
  Tensor g1(spec.param_count()), g2(spec.param_count());
  gen.generate(5, 2, g1);
  gen.generate(5, 2, g2);
  EXPECT_TRUE(ops::bit_equal(g1.cspan(), g2.cspan()));
  gen.generate(6, 2, g2);
  EXPECT_FALSE(ops::bit_equal(g1.cspan(), g2.cspan()));
  gen.generate(5, 3, g2);
  EXPECT_FALSE(ops::bit_equal(g1.cspan(), g2.cspan()));
}

TEST(GradGen, LayerSlicesComposeToFullGradient) {
  const auto spec = tiny_spec();
  SyntheticGradientGenerator gen(spec, 7);
  Tensor full(spec.param_count());
  gen.generate(3, 0, full);
  const auto offsets = spec.layer_offsets();
  Tensor assembled(spec.param_count());
  for (std::size_t l = 0; l < spec.layer_count(); ++l) {
    gen.generate_layer(3, 0, l,
                       assembled.span().subspan(offsets[l],
                                                offsets[l + 1] - offsets[l]));
  }
  EXPECT_TRUE(ops::bit_equal(full.cspan(), assembled.cspan()));
}

TEST(GradGen, RejectsBadSizes) {
  const auto spec = tiny_spec();
  SyntheticGradientGenerator gen(spec, 7);
  Tensor wrong(spec.param_count() + 1);
  EXPECT_THROW(gen.generate(0, 0, wrong), Error);
}

// --- dataset ----------------------------------------------------------------

TEST(Dataset, DeterministicBatches) {
  SyntheticDataset ds(8, 3, 11);
  std::vector<float> x1, x2;
  std::vector<std::uint32_t> y1, y2;
  ds.batch(42, 16, x1, y1);
  ds.batch(42, 16, x2, y2);
  EXPECT_EQ(x1, x2);
  EXPECT_EQ(y1, y2);
  ds.batch(43, 16, x2, y2);
  EXPECT_NE(x1, x2);
}

TEST(Dataset, LabelsInRange) {
  SyntheticDataset ds(4, 5, 2);
  std::vector<float> x;
  std::vector<std::uint32_t> y;
  ds.batch(0, 512, x, y);
  EXPECT_EQ(x.size(), 512u * 4u);
  for (auto label : y) EXPECT_LT(label, 5u);
}

// --- MLP --------------------------------------------------------------------

TEST(Mlp, GradientMatchesFiniteDifferences) {
  MlpConfig cfg;
  cfg.input_dim = 5;
  cfg.hidden = {7};
  cfg.num_classes = 3;
  MlpNet net(cfg);
  ModelState state(net.spec());
  state.init_random(21);
  // Nonzero biases so their gradients are exercised too.
  for (std::size_t i = 0; i < state.param_count(); ++i) {
    if (state.params()[i] == 0.0f) {
      state.params()[i] = 0.01f * static_cast<float>(static_cast<int>(i % 7) - 3);
    }
  }

  SyntheticDataset ds(5, 3, 77);
  std::vector<float> x;
  std::vector<std::uint32_t> y;
  ds.batch(0, 8, x, y);

  Tensor grad(net.spec().param_count());
  net.loss_and_gradient(state, x, y, grad);

  // Central differences on a sample of coordinates.
  const double eps = 1e-3;
  for (std::size_t i = 0; i < state.param_count(); i += 5) {
    ModelState plus = state.clone();
    ModelState minus = state.clone();
    plus.params()[i] += static_cast<float>(eps);
    minus.params()[i] -= static_cast<float>(eps);
    const double numeric =
        (net.forward(plus, x, y) - net.forward(minus, x, y)) / (2 * eps);
    EXPECT_NEAR(grad[i], numeric, 5e-3)
        << "coordinate " << i << " analytic " << grad[i] << " numeric " << numeric;
  }
}

TEST(Mlp, GradientIsDeterministic) {
  MlpConfig cfg;
  MlpNet net(cfg);
  ModelState state(net.spec());
  state.init_random(5);
  SyntheticDataset ds(cfg.input_dim, cfg.num_classes, 5);
  std::vector<float> x;
  std::vector<std::uint32_t> y;
  ds.batch(1, 16, x, y);
  Tensor g1(net.spec().param_count()), g2(net.spec().param_count());
  const double l1 = net.loss_and_gradient(state, x, y, g1);
  const double l2 = net.loss_and_gradient(state, x, y, g2);
  EXPECT_EQ(l1, l2);
  EXPECT_TRUE(ops::bit_equal(g1.cspan(), g2.cspan()));
}

TEST(Mlp, GradientDescentReducesLoss) {
  MlpConfig cfg;
  cfg.input_dim = 6;
  cfg.hidden = {16};
  cfg.num_classes = 3;
  MlpNet net(cfg);
  ModelState state(net.spec());
  state.init_random(8);
  SyntheticDataset ds(6, 3, 8, 0.3f);
  std::vector<float> x;
  std::vector<std::uint32_t> y;
  ds.batch(0, 64, x, y);

  Tensor grad(net.spec().param_count());
  const double initial = net.forward(state, x, y);
  for (int step = 0; step < 60; ++step) {
    grad.zero();
    net.loss_and_gradient(state, x, y, grad);
    ops::axpy(-0.5f, grad.cspan(), state.params().span());
  }
  const double final_loss = net.forward(state, x, y);
  EXPECT_LT(final_loss, initial * 0.5);
  EXPECT_GT(net.accuracy(state, x, y), 0.7);
}

TEST(Mlp, RejectsBadInputs) {
  MlpNet net(MlpConfig{});
  ModelState state(net.spec());
  std::vector<float> ragged(MlpConfig{}.input_dim + 1, 0.0f);
  std::vector<std::uint32_t> labels(1, 0);
  EXPECT_THROW(net.forward(state, ragged, labels), Error);
}

}  // namespace
}  // namespace lowdiff

namespace lowdiff {
namespace {

TEST(Mlp, NoHiddenLayersIsLogisticRegression) {
  MlpConfig cfg;
  cfg.input_dim = 6;
  cfg.hidden = {};
  cfg.num_classes = 3;
  MlpNet net(cfg);
  EXPECT_EQ(net.spec().layer_count(), 2u);  // one weight + one bias
  ModelState state(net.spec());
  state.init_random(5);
  SyntheticDataset ds(6, 3, 5, 0.3f);
  std::vector<float> x;
  std::vector<std::uint32_t> y;
  ds.batch(0, 64, x, y);
  Tensor grad(net.spec().param_count());
  const double initial = net.forward(state, x, y);
  for (int i = 0; i < 80; ++i) {
    grad.zero();
    net.loss_and_gradient(state, x, y, grad);
    ops::axpy(-0.5f, grad.cspan(), state.params().span());
  }
  EXPECT_LT(net.forward(state, x, y), initial * 0.6);
}

}  // namespace
}  // namespace lowdiff
