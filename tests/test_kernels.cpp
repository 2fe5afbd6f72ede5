// Kernel engine: blocked backend parity against the scalar reference
// across adversarial shapes, dispatch heuristics, and gradchecks through
// the dispatched path.
#include "nn/kernels/kernels.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "core/pit_conv1d.hpp"
#include "nn/conv1d.hpp"
#include "tensor/error.hpp"
#include "tensor/gradcheck.hpp"
#include "tensor/tensor.hpp"

namespace pit::nn::kernels {
namespace {

/// Restores the engine's global override on scope exit.
struct BackendGuard {
  Backend saved = default_backend();
  ~BackendGuard() { set_default_backend(saved); }
};

struct KernelCase {
  index_t n, c_in, c_out, k, t_in, dilation, stride;
  bool with_bias;
  int masked_taps;  // leading taps whose weights are zeroed (pruned)
};

std::ostream& operator<<(std::ostream& os, const KernelCase& c) {
  return os << "n" << c.n << "_ci" << c.c_in << "_co" << c.c_out << "_k"
            << c.k << "_t" << c.t_in << "_d" << c.dilation << "_s"
            << c.stride << (c.with_bias ? "_bias" : "") << "_m"
            << c.masked_taps;
}

ConvDims make_dims(const KernelCase& c) {
  ConvDims d{};
  d.n = c.n;
  d.c_in = c.c_in;
  d.c_out = c.c_out;
  d.k = c.k;
  d.t_in = c.t_in;
  d.dilation = c.dilation;
  d.stride = c.stride;
  d.t_out = causal_conv1d_output_steps(c.t_in, c.stride);
  return d;
}

std::vector<float> random_buffer(index_t numel, RandomEngine& rng) {
  Tensor t = Tensor::randn(Shape{numel}, rng);
  return std::vector<float>(t.data(), t.data() + numel);
}

/// Asserts blocked == scalar within 1e-5, relative to the magnitude each
/// output element actually accumulated (`mag`, the same kernel run on
/// absolute inputs). Long float32 reductions legitimately differ between
/// backends by ~sqrt(terms) * eps * magnitude, so a bound relative to the
/// result value alone would flag well-conditioned kernels on cancelling
/// data.
void expect_close(const std::vector<float>& want,
                  const std::vector<float>& got,
                  const std::vector<float>& mag, const char* what) {
  ASSERT_EQ(want.size(), got.size());
  ASSERT_EQ(want.size(), mag.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const float tol = 1e-5F * std::max(1.0F, mag[i]);
    ASSERT_NEAR(want[i], got[i], tol) << what << " diverges at flat index "
                                      << i;
  }
}

std::vector<float> abs_of(const std::vector<float>& v) {
  std::vector<float> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    out[i] = std::abs(v[i]);
  }
  return out;
}

class BlockedMatchesScalar : public ::testing::TestWithParam<KernelCase> {};

TEST_P(BlockedMatchesScalar, ForwardAndBothBackwards) {
  const KernelCase c = GetParam();
  const ConvDims d = make_dims(c);
  RandomEngine rng(77);

  std::vector<float> x = random_buffer(d.n * d.c_in * d.t_in, rng);
  std::vector<float> w = random_buffer(d.c_out * d.c_in * d.k, rng);
  std::vector<float> bias = random_buffer(d.c_out, rng);
  std::vector<float> dy = random_buffer(d.n * d.c_out * d.t_out, rng);
  // Pruned taps: PIT masks broadcast a zero across every channel pair.
  for (int i = 0; i < c.masked_taps && i < c.k; ++i) {
    for (index_t p = 0; p < d.c_out * d.c_in; ++p) {
      w[static_cast<std::size_t>(p * d.k + i)] = 0.0F;
    }
  }
  const float* bp = c.with_bias ? bias.data() : nullptr;
  const std::vector<float> xa = abs_of(x);
  const std::vector<float> wa = abs_of(w);
  const std::vector<float> ba = abs_of(bias);
  const std::vector<float> dya = abs_of(dy);
  const float* bpa = c.with_bias ? ba.data() : nullptr;

  std::vector<float> y_ref(static_cast<std::size_t>(d.n * d.c_out * d.t_out),
                           0.0F);
  std::vector<float> y_blk(y_ref.size(), 0.0F);
  std::vector<float> y_mag(y_ref.size(), 0.0F);
  scalar::conv_forward(x.data(), w.data(), bp, y_ref.data(), d);
  blocked::conv_forward(x.data(), w.data(), bp, y_blk.data(), d);
  scalar::conv_forward(xa.data(), wa.data(), bpa, y_mag.data(), d);
  expect_close(y_ref, y_blk, y_mag, "forward");

  std::vector<float> dx_ref(x.size(), 0.0F);
  std::vector<float> dx_blk(x.size(), 0.0F);
  std::vector<float> dx_mag(x.size(), 0.0F);
  scalar::conv_backward_input(dy.data(), w.data(), dx_ref.data(), d);
  blocked::conv_backward_input(dy.data(), w.data(), dx_blk.data(), d);
  scalar::conv_backward_input(dya.data(), wa.data(), dx_mag.data(), d);
  expect_close(dx_ref, dx_blk, dx_mag, "backward_input");

  std::vector<float> dw_ref(w.size(), 0.0F);
  std::vector<float> dw_blk(w.size(), 0.0F);
  std::vector<float> dw_mag(w.size(), 0.0F);
  scalar::conv_backward_weight(dy.data(), x.data(), dw_ref.data(), d);
  blocked::conv_backward_weight(dy.data(), x.data(), dw_blk.data(), d);
  scalar::conv_backward_weight(dya.data(), xa.data(), dw_mag.data(), d);
  expect_close(dw_ref, dw_blk, dw_mag, "backward_weight");
}

INSTANTIATE_TEST_SUITE_P(
    AdversarialShapes, BlockedMatchesScalar,
    ::testing::Values(
        // basic small shape, channels not a multiple of the 4-wide tile
        KernelCase{2, 3, 5, 3, 11, 1, 1, true, 0},
        // single everything
        KernelCase{1, 1, 1, 1, 1, 1, 1, false, 0},
        // t_out == 1 with a wide kernel reaching fully into the padding
        KernelCase{2, 2, 3, 7, 1, 2, 1, true, 0},
        // k == 1 pointwise
        KernelCase{3, 4, 4, 1, 19, 1, 1, false, 0},
        // stride > 1 (strided scatter path in backward_input)
        KernelCase{2, 3, 6, 5, 33, 1, 2, true, 0},
        KernelCase{1, 5, 3, 4, 26, 1, 3, false, 0},
        // dilation > 1, receptive field larger than t_in
        KernelCase{2, 4, 4, 9, 31, 4, 1, true, 0},
        KernelCase{1, 2, 7, 5, 16, 8, 1, false, 0},
        // dilation and stride combined
        KernelCase{2, 3, 5, 5, 40, 3, 2, true, 0},
        // zero-masked taps (pruned search state)
        KernelCase{2, 4, 4, 9, 31, 2, 1, true, 4},
        KernelCase{2, 3, 8, 17, 64, 1, 1, false, 12},
        // time extent crossing the 32-wide tile boundary unevenly
        KernelCase{2, 3, 5, 5, 67, 2, 1, true, 0},
        // big-ish batched shape (exercises the OpenMP grid)
        KernelCase{16, 8, 12, 9, 128, 2, 1, true, 0},
        // t_out shorter than one 16-float SIMD word, dilated and strided
        KernelCase{3, 5, 6, 4, 7, 2, 1, true, 0},
        KernelCase{2, 3, 5, 3, 11, 1, 2, false, 0},
        // The seven seed convs of the scaled TEMPONet search (n32, t 64 /
        // 32 / 16, k 5 / 9 / 17), plus pruned-tap variants of each size.
        KernelCase{32, 4, 8, 5, 64, 1, 1, true, 0},
        KernelCase{32, 8, 8, 5, 64, 1, 1, true, 0},
        KernelCase{32, 8, 16, 5, 64, 1, 1, true, 0},
        KernelCase{32, 8, 16, 5, 64, 1, 1, true, 2},
        KernelCase{32, 16, 16, 9, 32, 1, 1, true, 0},
        KernelCase{32, 16, 16, 9, 32, 1, 1, true, 5},
        KernelCase{32, 16, 32, 17, 16, 1, 1, true, 0},
        KernelCase{32, 32, 32, 17, 16, 1, 1, true, 0},
        KernelCase{32, 32, 32, 17, 16, 1, 1, true, 9},
        // the compact dilated conv a frozen search layer runs (k_eff 3, d 8)
        KernelCase{32, 32, 32, 3, 16, 8, 1, true, 0}),
    [](const ::testing::TestParamInfo<KernelCase>& info) {
      std::ostringstream os;
      os << info.param;
      return os.str();
    });

TEST(KernelDispatch, HeuristicPicksScalarForTinyProblems) {
  BackendGuard guard;
  set_default_backend(Backend::kAuto);
  KernelCase tiny{1, 1, 1, 3, 8, 1, 1, false, 0};
  EXPECT_EQ(resolve_backend(Backend::kAuto, make_dims(tiny)),
            Backend::kScalar);
}

TEST(KernelDispatch, HeuristicPicksBlockedForBatchedProblems) {
  BackendGuard guard;
  set_default_backend(Backend::kAuto);
  KernelCase big{16, 32, 32, 9, 256, 1, 1, false, 0};
  EXPECT_EQ(resolve_backend(Backend::kAuto, make_dims(big)),
            Backend::kBlocked);
}

TEST(KernelDispatch, ExplicitRequestAndGlobalOverrideWin) {
  BackendGuard guard;
  KernelCase tiny{1, 1, 1, 3, 8, 1, 1, false, 0};
  const ConvDims d = make_dims(tiny);
  EXPECT_EQ(resolve_backend(Backend::kBlocked, d), Backend::kBlocked);
  EXPECT_EQ(resolve_backend(Backend::kScalar, d), Backend::kScalar);
  set_default_backend(Backend::kBlocked);
  EXPECT_EQ(resolve_backend(Backend::kAuto, d), Backend::kBlocked);
  set_default_backend(Backend::kAuto);
  EXPECT_EQ(resolve_backend(Backend::kAuto, d), Backend::kScalar);
}

TEST(KernelDispatch, BackendNamesAreStable) {
  EXPECT_STREQ(backend_name(Backend::kAuto), "auto");
  EXPECT_STREQ(backend_name(Backend::kScalar), "scalar");
  EXPECT_STREQ(backend_name(Backend::kBlocked), "blocked");
}

TEST(KernelDispatch, DispatchedConvMatchesForcedScalarThroughAutograd) {
  // End-to-end through causal_conv1d: a shape big enough that kAuto picks
  // the blocked engine must match the scalar-forced result exactly at the
  // op level (same accumulation order per output element).
  BackendGuard guard;
  RandomEngine rng(5);
  Tensor x = Tensor::randn(Shape{16, 8, 64}, rng);
  Tensor w = Tensor::randn(Shape{12, 8, 9}, rng);
  Tensor b = Tensor::randn(Shape{12}, rng);

  set_default_backend(Backend::kScalar);
  Tensor y_ref = causal_conv1d(x, w, b, 2, 1);
  set_default_backend(Backend::kBlocked);
  Tensor y_blk = causal_conv1d(x, w, b, 2, 1);
  ASSERT_EQ(y_ref.shape(), y_blk.shape());
  for (index_t i = 0; i < y_ref.numel(); ++i) {
    EXPECT_NEAR(y_ref.data()[i], y_blk.data()[i],
                1e-5F * std::max(1.0F, std::abs(y_ref.data()[i])));
  }
}

TEST(KernelGradcheck, BlockedConvForwardBackward) {
  BackendGuard guard;
  set_default_backend(Backend::kBlocked);
  RandomEngine rng(11);
  Tensor x = Tensor::randn(Shape{2, 3, 12}, rng);
  Tensor w = Tensor::randn(Shape{5, 3, 4}, rng);
  Tensor b = Tensor::randn(Shape{5}, rng);
  x.set_requires_grad(true);
  w.set_requires_grad(true);
  b.set_requires_grad(true);
  const auto result = gradcheck(
      [](const std::vector<Tensor>& in) {
        return causal_conv1d(in[0], in[1], in[2], 2, 1);
      },
      {x, w, b});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(KernelGradcheck, BlockedStridedConv) {
  BackendGuard guard;
  set_default_backend(Backend::kBlocked);
  RandomEngine rng(13);
  Tensor x = Tensor::randn(Shape{2, 2, 15}, rng);
  Tensor w = Tensor::randn(Shape{3, 2, 3}, rng);
  x.set_requires_grad(true);
  w.set_requires_grad(true);
  const auto result = gradcheck(
      [](const std::vector<Tensor>& in) {
        return causal_conv1d(in[0], in[1], Tensor(), 1, 2);
      },
      {x, w});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(KernelGradcheck, BlockedMaskedPitConv) {
  // The PIT masked convolution (W ⊙ M with the mask chain rule) through
  // the blocked engine.
  BackendGuard guard;
  set_default_backend(Backend::kBlocked);
  RandomEngine rng(17);
  Tensor x = Tensor::randn(Shape{2, 3, 10}, rng);
  Tensor w = Tensor::randn(Shape{4, 3, 5}, rng);
  Tensor m = Tensor::uniform(Shape{5}, 0.25F, 1.0F, rng);
  x.set_requires_grad(true);
  w.set_requires_grad(true);
  m.set_requires_grad(true);
  const auto result = gradcheck(
      [](const std::vector<Tensor>& in) {
        return core::masked_causal_conv1d(in[0], in[1], Tensor(), in[2], 1);
      },
      {x, w, m});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(PackedForward, MatchesScalarReferenceDenseAndPadded) {
  RandomEngine rng(911);
  struct Case {
    index_t n, c_in, c_out, k, t, dilation;
    bool with_bias, relu;
  };
  const Case cases[] = {
      {2, 3, 5, 3, 40, 2, true, false}, {1, 4, 4, 9, 33, 1, true, true},
      {3, 2, 7, 3, 64, 8, false, true}, {2, 6, 12, 5, 20, 4, true, true},
      {1, 1, 1, 1, 7, 1, true, false},
  };
  for (const Case& c : cases) {
    ConvDims d{};
    d.n = c.n;
    d.c_in = c.c_in;
    d.c_out = c.c_out;
    d.k = c.k;
    d.t_in = c.t;
    d.t_out = c.t;
    d.dilation = c.dilation;
    d.stride = 1;
    Tensor x = Tensor::randn(Shape{c.n, c.c_in, c.t}, rng);
    Tensor w = Tensor::randn(Shape{c.c_out, c.c_in, c.k}, rng);
    Tensor b = Tensor::randn(Shape{c.c_out}, rng);
    const float* bias = c.with_bias ? b.data() : nullptr;

    // Scalar reference (+ bias via the kernel, ReLU applied after).
    std::vector<float> expected(
        static_cast<std::size_t>(c.n * c.c_out * c.t), 0.0F);
    scalar::conv_forward(x.data(), w.data(), bias, expected.data(), d);
    if (c.relu) {
      for (float& v : expected) {
        v = v > 0.0F ? v : 0.0F;
      }
    }

    std::vector<float> wp(static_cast<std::size_t>(packed_weight_floats(d)));
    pack_conv_weight(w.data(), d, wp.data());

    // Dense rows: edge tiles take the clamped path.
    std::vector<float> y_dense(expected.size(), -1.0F);
    conv_forward_packed(x.data(), wp.data(), bias, y_dense.data(), d, c.t,
                        c.t, /*x_padded=*/false, c.relu);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_NEAR(expected[i], y_dense[i], 1e-4F) << "dense i=" << i;
    }

    // Padded rows: every tile takes the register path; the lead is the
    // materialized causal padding, the slack absorbs tail over-reads.
    const index_t lead = (c.k - 1) * c.dilation;
    const index_t stride = lead + c.t + kPackTimeTile;
    std::vector<float> xp(static_cast<std::size_t>(c.n * c.c_in * stride),
                          0.0F);
    for (index_t r = 0; r < c.n * c.c_in; ++r) {
      std::copy(x.data() + r * c.t, x.data() + (r + 1) * c.t,
                xp.data() + r * stride + lead);
    }
    std::vector<float> y_pad(expected.size(), -1.0F);
    conv_forward_packed(xp.data() + lead, wp.data(), bias, y_pad.data(), d,
                        stride, c.t, /*x_padded=*/true, c.relu);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_NEAR(expected[i], y_pad[i], 1e-4F) << "padded i=" << i;
    }
  }
}

TEST(LinearForward, MatchesNaiveDotProducts) {
  RandomEngine rng(919);
  const index_t n = 3;
  const index_t f = 70;  // exercises the vector body and the scalar tail
  const index_t o = 5;
  Tensor x = Tensor::randn(Shape{n, f}, rng);
  Tensor w = Tensor::randn(Shape{o, f}, rng);
  Tensor b = Tensor::randn(Shape{o}, rng);
  std::vector<float> y(static_cast<std::size_t>(n * o), -1.0F);
  linear_forward(x.data(), w.data(), b.data(), y.data(), n, f, o,
                 /*relu=*/true);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < o; ++j) {
      float acc = b.data()[j];
      for (index_t p = 0; p < f; ++p) {
        acc += x.data()[i * f + p] * w.data()[j * f + p];
      }
      acc = acc > 0.0F ? acc : 0.0F;
      EXPECT_NEAR(acc, y[static_cast<std::size_t>(i * o + j)], 1e-4F);
    }
  }
}

TEST(Dispatch, ParseBackendNameAcceptsDocumentedValues) {
  EXPECT_EQ(parse_backend_name("auto"), Backend::kAuto);
  EXPECT_EQ(parse_backend_name("scalar"), Backend::kScalar);
  EXPECT_EQ(parse_backend_name("blocked"), Backend::kBlocked);
}

TEST(Dispatch, ParseBackendNameThrowsOnTypo) {
  // A PIT_CONV_BACKEND typo must fail loudly, not silently fall through
  // to the size heuristic the user thought they had overridden.
  EXPECT_THROW(parse_backend_name("block"), Error);
  EXPECT_THROW(parse_backend_name("BLOCKED"), Error);
  EXPECT_THROW(parse_backend_name(""), Error);
}

}  // namespace
}  // namespace pit::nn::kernels
