// int8 quantization primitives of the compiled runtime: the affine u8
// activation encoding, its range calibration (RangeObserver), and the
// kMinScale clamps that keep degenerate calibration ranges usable.
#include "quant/quantize.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "quant/observer.hpp"
#include "tensor/error.hpp"
#include "tensor/tensor.hpp"

namespace pit::quant {
namespace {

QuantParams observed_params(std::span<const float> values) {
  RangeObserver obs;
  obs.observe(values);
  return obs.affine_u8_params();
}

void expect_usable(const QuantParams& p) {
  EXPECT_GE(p.scale, kMinScale);
  EXPECT_TRUE(std::isfinite(p.scale));
  EXPECT_TRUE(std::isfinite(1.0F / p.scale));
  EXPECT_GE(p.zero_point, 0);
  EXPECT_LE(p.zero_point, 255);
}

TEST(QuantParams, AffineCalibrationHandlesAsymmetricRange) {
  const std::vector<float> values = {0.0F, 1.0F, 4.0F};  // after ReLU
  const QuantParams p = observed_params(values);
  EXPECT_EQ(p.zero_point, 0);  // an all-positive range puts zero at q = 0
  EXPECT_NEAR(p.scale, 4.0F / 255.0F, 1e-6F);
  EXPECT_NEAR(p.dequantize(quantize_u8(0.0F, p)), 0.0F, p.scale / 2);
  EXPECT_NEAR(p.dequantize(quantize_u8(4.0F, p)), 4.0F, p.scale / 2);
  EXPECT_NEAR(p.dequantize(quantize_u8(2.3F, p)), 2.3F, p.scale / 2);
}

TEST(QuantParams, ConstantTensorDoesNotDivideByZero) {
  const std::vector<float> zeros = {0.0F, 0.0F};
  QuantParams p;
  EXPECT_NO_THROW(p = observed_params(zeros));
  // An all-zero range has no width at all: identity scale, zero at q = 0.
  EXPECT_FLOAT_EQ(p.scale, 1.0F);
  EXPECT_EQ(p.zero_point, 0);
  EXPECT_EQ(quantize_u8(0.0F, p), 0);
}

TEST(QuantParams, DegenerateRangesClampToMinimumScale) {
  // Regression: a denormal-width range used to produce a denormal scale
  // whose reciprocal overflowed the zero point. Checked both where the
  // lowering calls it (RangeObserver) and on the raw range helper.
  const std::vector<float> denormal = {1e-42F, 2e-42F};
  expect_usable(observed_params(denormal));
  expect_usable(affine_u8_from_range(1e-42F, 2e-42F));
  expect_usable(affine_u8_from_range(-2e-42F, -1e-42F));

  // Empty: an observer that saw only empty batches has no range to
  // calibrate and says so, instead of inventing one; the empty range
  // itself maps to the identity scale.
  RangeObserver empty;
  empty.observe(std::span<const float>{});
  EXPECT_FALSE(empty.seen());
  EXPECT_THROW(empty.affine_u8_params(), Error);
  const QuantParams none = affine_u8_from_range(0.0F, 0.0F);
  EXPECT_FLOAT_EQ(none.scale, 1.0F);
  EXPECT_EQ(none.zero_point, 0);

  // All-constant (non-zero) data stays usable and round-trips within half
  // a step: the range widens to include zero.
  const std::vector<float> constant = {2.5F, 2.5F, 2.5F};
  const QuantParams c = observed_params(constant);
  expect_usable(c);
  EXPECT_NEAR(c.dequantize(quantize_u8(2.5F, c)), 2.5F, c.scale / 2 + 1e-6F);
  const std::vector<float> negative = {-3.0F, -3.0F};
  const QuantParams n = observed_params(negative);
  expect_usable(n);
  EXPECT_EQ(n.zero_point, 255);  // zero sits at the top of the range
  EXPECT_NEAR(n.dequantize(quantize_u8(-3.0F, n)), -3.0F,
              n.scale / 2 + 1e-6F);

  EXPECT_THROW(affine_u8_from_range(1.0F, -1.0F), Error);  // lo > hi
}

TEST(QuantParams, AffineU8CoversRangeAndClampsDegenerates) {
  const QuantParams p = affine_u8_from_range(-1.0F, 3.0F);
  EXPECT_GE(p.zero_point, 0);
  EXPECT_LE(p.zero_point, 255);
  EXPECT_NEAR(p.scale, 4.0F / 255.0F, 1e-6F);
  // Zero is exactly representable: q = zero_point.
  EXPECT_EQ(quantize_u8(0.0F, p), p.zero_point);
  EXPECT_EQ(quantize_u8(-100.0F, p), 0);    // clamps below the range
  EXPECT_EQ(quantize_u8(100.0F, p), 255);   // clamps above the range
  EXPECT_NEAR(p.dequantize(quantize_u8(2.3F, p)), 2.3F, p.scale / 2);

  const QuantParams tiny = affine_u8_from_range(0.0F, 1e-40F);
  EXPECT_GE(tiny.scale, kMinScale);
  EXPECT_TRUE(std::isfinite(tiny.scale));
}

TEST(QuantRoundTrip, ErrorBoundedByHalfScale) {
  RandomEngine rng(601);
  Tensor t = Tensor::randn(Shape{1000}, rng);
  const QuantParams p = observed_params(t.span());
  for (const float v : t.span()) {
    EXPECT_NEAR(p.dequantize(quantize_u8(v, p)), v, p.scale / 2 + 1e-6F);
  }
}

TEST(Int8ModelBytes, AccountsForBiasWidth) {
  EXPECT_EQ(int8_model_bytes(1000, 0), 1000);
  EXPECT_EQ(int8_model_bytes(1000, 100), 900 + 400);
  EXPECT_THROW(int8_model_bytes(10, 20), Error);
}

}  // namespace
}  // namespace pit::quant
