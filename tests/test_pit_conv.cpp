// PITConv1d (Eq. 5): masked convolution semantics, gradients, freezing,
// effective-parameter accounting.
#include "core/pit_conv1d.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/mask.hpp"
#include "models/restcn.hpp"
#include "nn/conv1d.hpp"
#include "tensor/error.hpp"
#include "tensor/gradcheck.hpp"
#include "tensor/ops.hpp"

namespace pit::core {
namespace {

TEST(MaskedConv, AllOnesMaskEqualsPlainConv) {
  RandomEngine rng(311);
  Tensor x = Tensor::randn(Shape{2, 3, 12}, rng);
  Tensor w = Tensor::randn(Shape{4, 3, 5}, rng);
  Tensor b = Tensor::randn(Shape{4}, rng);
  Tensor mask = Tensor::ones(Shape{5});
  Tensor got = masked_causal_conv1d(x, w, b, mask, 1);
  Tensor want = nn::causal_conv1d(x, w, b, 1, 1);
  ASSERT_EQ(got.shape(), want.shape());
  for (index_t i = 0; i < got.numel(); ++i) {
    EXPECT_NEAR(got.data()[i], want.data()[i], 1e-5);
  }
}

TEST(MaskedConv, DilationMaskEqualsDilatedConv) {
  // Masking an rf_max=9 filter with the d=4 pattern must equal a plain
  // dilated conv (d=4, k=3) built from the surviving taps 0, 4, 8.
  RandomEngine rng(313);
  Tensor x = Tensor::randn(Shape{1, 2, 20}, rng);
  Tensor w = Tensor::randn(Shape{2, 2, 9}, rng);
  Tensor mask = Tensor::from_vector(mask_for_dilation(4, 9), Shape{9});
  Tensor got = masked_causal_conv1d(x, w, Tensor(), mask, 1);

  Tensor w_dil = Tensor::zeros(Shape{2, 2, 3});
  for (index_t p = 0; p < 4; ++p) {
    for (index_t j = 0; j < 3; ++j) {
      w_dil.data()[p * 3 + j] = w.data()[p * 9 + j * 4];
    }
  }
  Tensor want = nn::causal_conv1d(x, w_dil, Tensor(), 4, 1);
  ASSERT_EQ(got.shape(), want.shape());
  for (index_t i = 0; i < got.numel(); ++i) {
    EXPECT_NEAR(got.data()[i], want.data()[i], 1e-5);
  }
}

TEST(MaskedConv, GradcheckAllInputsIncludingMask) {
  RandomEngine rng(317);
  Tensor x = Tensor::uniform(Shape{1, 2, 8}, -1.0F, 1.0F, rng);
  Tensor w = Tensor::uniform(Shape{2, 2, 5}, -1.0F, 1.0F, rng);
  Tensor b = Tensor::uniform(Shape{2}, -0.5F, 0.5F, rng);
  Tensor m = Tensor::uniform(Shape{5}, 0.3F, 1.0F, rng);
  x.set_requires_grad(true);
  w.set_requires_grad(true);
  b.set_requires_grad(true);
  m.set_requires_grad(true);
  const auto result = gradcheck(
      [](const std::vector<Tensor>& in) {
        return masked_causal_conv1d(in[0], in[1], in[2], in[3], 1);
      },
      {x, w, b, m});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(MaskedConv, GradcheckWithStride) {
  RandomEngine rng(331);
  Tensor x = Tensor::uniform(Shape{1, 1, 9}, -1.0F, 1.0F, rng);
  Tensor w = Tensor::uniform(Shape{2, 1, 3}, -1.0F, 1.0F, rng);
  Tensor m = Tensor::uniform(Shape{3}, 0.4F, 1.0F, rng);
  x.set_requires_grad(true);
  w.set_requires_grad(true);
  m.set_requires_grad(true);
  const auto result = gradcheck(
      [](const std::vector<Tensor>& in) {
        return masked_causal_conv1d(in[0], in[1], Tensor(), in[2], 2);
      },
      {x, w, m});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(MaskedConv, Validation) {
  Tensor x = Tensor::zeros(Shape{1, 2, 8});
  Tensor w = Tensor::zeros(Shape{2, 2, 5});
  EXPECT_THROW(masked_causal_conv1d(x, w, Tensor(), Tensor::ones(Shape{4}), 1),
               Error);  // mask/tap mismatch
  EXPECT_THROW(masked_causal_conv1d(x, w, Tensor(), Tensor(), 1), Error);
}

TEST(PitConv, StartsAtDilationOneFullParams) {
  RandomEngine rng(337);
  PITConv1d layer(3, 4, 9, {}, rng);
  EXPECT_EQ(layer.current_dilation(), 1);
  EXPECT_EQ(layer.current_alive_taps(), 9);
  EXPECT_EQ(layer.effective_params(), 3 * 4 * 9 + 4);
  EXPECT_EQ(layer.rf_max(), 9);
}

TEST(PitConv, InitialForwardEqualsDenseConv) {
  RandomEngine rng(347);
  PITConv1d layer(2, 2, 5, {}, rng);
  Tensor x = Tensor::randn(Shape{1, 2, 10}, rng);
  Tensor got = layer.forward(x);
  Tensor want = nn::causal_conv1d(x, layer.weight(), layer.bias(), 1, 1);
  for (index_t i = 0; i < got.numel(); ++i) {
    EXPECT_NEAR(got.data()[i], want.data()[i], 1e-5);
  }
}

TEST(PitConv, GammaAssignmentChangesMaskAndParams) {
  RandomEngine rng(349);
  PITConv1d layer(2, 3, 9, {}, rng);
  layer.gamma().set_dilation(4);
  EXPECT_EQ(layer.current_dilation(), 4);
  EXPECT_EQ(layer.current_alive_taps(), 3);
  EXPECT_EQ(layer.effective_params(), 2 * 3 * 3 + 3);
}

TEST(PitConv, ForwardAtDilationMatchesMaskedWeights) {
  RandomEngine rng(353);
  PITConv1d layer(1, 1, 9, {.stride = 1, .bias = false}, rng);
  layer.gamma().set_dilation(2);
  Tensor x = Tensor::randn(Shape{1, 1, 16}, rng);
  Tensor got = layer.forward(x);
  Tensor masked_w = layer.weight().clone();
  const auto mask = mask_for_dilation(2, 9);
  for (index_t i = 0; i < 9; ++i) {
    masked_w.data()[i] *= mask[static_cast<std::size_t>(i)];
  }
  Tensor want = nn::causal_conv1d(x, masked_w, Tensor(), 1, 1);
  for (index_t i = 0; i < got.numel(); ++i) {
    EXPECT_NEAR(got.data()[i], want.data()[i], 1e-5);
  }
}

TEST(PitConv, GammaReceivesGradients) {
  RandomEngine rng(359);
  PITConv1d layer(1, 1, 9, {}, rng);
  Tensor x = Tensor::randn(Shape{1, 1, 12}, rng);
  sum(layer.forward(x)).backward();
  // Through mask + STE, the gamma gradient is generally non-zero.
  const Tensor gamma_grad = layer.gamma().values().grad();
  float norm = 0.0F;
  for (const float g : gamma_grad.span()) {
    norm += std::abs(g);
  }
  EXPECT_GT(norm, 0.0F);
}

TEST(PitConv, FreezeStopsGammaGradAndKeepsOutput) {
  RandomEngine rng(367);
  PITConv1d layer(2, 2, 9, {}, rng);
  layer.gamma().set_dilation(2);
  Tensor x = Tensor::randn(Shape{1, 2, 10}, rng);
  Tensor before = layer.forward(x);
  layer.freeze_gamma();
  Tensor after = layer.forward(x);
  for (index_t i = 0; i < before.numel(); ++i) {
    EXPECT_NEAR(before.data()[i], after.data()[i], 1e-6);
  }
  layer.zero_grad();
  sum(layer.forward(x)).backward();
  const Tensor gamma_grad = layer.gamma().values().grad();
  for (const float g : gamma_grad.span()) {
    EXPECT_FLOAT_EQ(g, 0.0F);
  }
  // Weights still learn after freezing.
  const Tensor weight_grad = layer.weight().grad();
  float wnorm = 0.0F;
  for (const float g : weight_grad.span()) {
    wnorm += std::abs(g);
  }
  EXPECT_GT(wnorm, 0.0F);
}

/// Output, dx and dW of sum(conv(x) * r) for a frozen-path or masked-path
/// conv over fresh leaves (x, w, b) copied from the given values.
struct ConvGrads {
  std::vector<float> y, dx, dw;
};

std::vector<float> values(const Tensor& t) {
  return std::vector<float>(t.data(), t.data() + t.numel());
}

template <typename Conv>
ConvGrads conv_grads(const Tensor& x0, const Tensor& w0, const Tensor& b0,
                     const Tensor& r, Conv conv) {
  Tensor x = x0.clone();
  Tensor w = w0.clone();
  Tensor b = b0.clone();
  x.set_requires_grad(true);
  w.set_requires_grad(true);
  b.set_requires_grad(true);
  Tensor y = conv(x, w, b);
  sum(mul(y, r)).backward();
  return {values(y), values(x.grad()), values(w.grad())};
}

void expect_rel_close(const std::vector<float>& want,
                      const std::vector<float>& got, const char* what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_NEAR(want[i], got[i], 1e-5F * std::max(1.0F, std::abs(want[i])))
        << what << " diverges at flat index " << i;
  }
}

TEST(PitConv, FrozenLayerRunsAsDilatedConvAndMatchesMaskedPath) {
  // Large enough (n16, t48) that every dilation runs the blocked kernels.
  for (const index_t d : {1, 2, 4}) {
    SCOPED_TRACE(d);
    RandomEngine rng(401 + static_cast<std::uint64_t>(d));
    PITConv1d layer(3, 5, 9, {}, rng);
    layer.gamma().set_dilation(d);
    layer.freeze_gamma();
    Tensor x = Tensor::randn(Shape{16, 3, 48}, rng);
    Tensor r = Tensor::randn(Shape{16, 5, 48}, rng);
    const ConvGrads frozen =
        conv_grads(x, layer.weight(), layer.bias(), r,
                   [&](const Tensor& xx, const Tensor& w, const Tensor& b) {
                     return dilated_causal_conv1d(xx, w, b, d,
                                                  (9 - 1) / d + 1, 1);
                   });
    const Tensor mask = Tensor::from_vector(mask_for_dilation(d, 9), Shape{9});
    const ConvGrads masked =
        conv_grads(x, layer.weight(), layer.bias(), r,
                   [&](const Tensor& xx, const Tensor& w, const Tensor& b) {
                     return masked_causal_conv1d(xx, w, b, mask, 1);
                   });
    expect_rel_close(masked.y, frozen.y, "output");
    expect_rel_close(masked.dx, frozen.dx, "dx");
    expect_rel_close(masked.dw, frozen.dw, "dW");
    for (std::size_t i = 0; i < frozen.dw.size(); ++i) {
      if (static_cast<index_t>(i % 9) % d != 0) {
        ASSERT_EQ(frozen.dw[i], 0.0F) << "pruned tap got a gradient at " << i;
      }
    }
    // The layer's own frozen forward is that same dilated conv.
    expect_rel_close(frozen.y, values(layer.forward(x)), "layer forward");
  }
}

TEST(PitConv, SingleTapMaskRunsAsPointwiseConv) {
  const std::vector<float> m = {1.0F, 0.0F, 0.0F, 0.0F, 0.0F};
  RandomEngine rng(409);
  Tensor x = Tensor::randn(Shape{4, 2, 20}, rng);
  Tensor w = Tensor::randn(Shape{3, 2, 5}, rng);
  Tensor b = Tensor::randn(Shape{3}, rng);
  Tensor r = Tensor::randn(Shape{4, 3, 20}, rng);
  const Tensor mask = Tensor::from_vector(m, Shape{5});
  const ConvGrads frozen = conv_grads(
      x, w, b, r, [&](const Tensor& xx, const Tensor& ww, const Tensor& bb) {
        return dilated_causal_conv1d(xx, ww, bb, 1, 1, 1);
      });
  const ConvGrads masked = conv_grads(
      x, w, b, r, [&](const Tensor& xx, const Tensor& ww, const Tensor& bb) {
        return masked_causal_conv1d(xx, ww, bb, mask, 1);
      });
  expect_rel_close(masked.y, frozen.y, "output");
  expect_rel_close(masked.dx, frozen.dx, "dx");
  expect_rel_close(masked.dw, frozen.dw, "dW");
  for (std::size_t i = 0; i < frozen.dw.size(); ++i) {
    if (i % 5 != 0) {
      ASSERT_EQ(frozen.dw[i], 0.0F) << "pruned tap got a gradient at " << i;
    }
  }
}

TEST(PitConv, StridePropagates) {
  RandomEngine rng(373);
  PITConv1d layer(1, 1, 5, {.stride = 2, .bias = true}, rng);
  Tensor x = Tensor::randn(Shape{1, 1, 9}, rng);
  EXPECT_EQ(layer.forward(x).shape(), Shape({1, 1, 5}));
}

TEST(PitConv, KnobFreeRfOneWorks) {
  RandomEngine rng(379);
  PITConv1d layer(2, 3, 1, {}, rng);
  EXPECT_EQ(layer.gamma().num_trainable(), 0);
  Tensor x = Tensor::randn(Shape{1, 2, 6}, rng);
  EXPECT_EQ(layer.forward(x).shape(), Shape({1, 3, 6}));
}

TEST(PitConvFactory, BuildsSeedsAndRecordsLayers) {
  RandomEngine rng(383);
  std::vector<PITConv1d*> layers;
  auto factory = pit_conv_factory(rng, layers);
  models::TemporalConvSpec spec{3, 5, 5, 8, 1};  // rf = 33
  auto conv = factory(spec);
  ASSERT_EQ(layers.size(), 1u);
  EXPECT_EQ(layers[0]->rf_max(), 33);
  EXPECT_EQ(layers[0]->current_dilation(), 1);
  EXPECT_EQ(layers[0]->in_channels(), 3);
  EXPECT_EQ(layers[0]->out_channels(), 5);
}

TEST(PitConvFactory, WholeResTcnSeedIsSearchable) {
  RandomEngine rng(389);
  models::ResTcnConfig cfg;
  cfg.input_channels = 6;
  cfg.output_channels = 6;
  cfg.hidden_channels = 8;
  std::vector<PITConv1d*> layers;
  models::ResTCN model(cfg, pit_conv_factory(rng, layers), rng);
  EXPECT_EQ(layers.size(), 8u);
  EXPECT_EQ(collect_pit_layers(model.temporal_convs()).size(), 8u);
  // Per-layer max dilations must match Table I's "PIT ResTCN small" row.
  const index_t expected_max[] = {4, 4, 8, 8, 16, 16, 32, 32};
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(max_dilation(layers[i]->rf_max()), expected_max[i]) << i;
  }
  Tensor x = Tensor::randn(Shape{1, 6, 16}, rng);
  EXPECT_EQ(model.forward(x).shape(), Shape({1, 6, 16}));
}

}  // namespace
}  // namespace pit::core
