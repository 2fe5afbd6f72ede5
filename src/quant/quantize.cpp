#include "quant/quantize.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/error.hpp"

namespace pit::quant {

QuantParams affine_u8_from_range(float lo, float hi) {
  // Widens the range to include zero and clamps degenerate (all-constant
  // / denormal-width) ranges to kMinScale — a zero/denormal scale's
  // reciprocal would overflow the zero point.
  PIT_CHECK(lo <= hi, "affine_u8_from_range: lo " << lo << " > hi " << hi);
  lo = std::min(lo, 0.0F);  // representable zero, as inference libs require
  hi = std::max(hi, 0.0F);
  QuantParams params;
  const float range = hi - lo;
  params.scale = range > 0.0F ? std::max(range / 255.0F, kMinScale) : 1.0F;
  params.zero_point =
      static_cast<std::int32_t>(std::round(-lo / params.scale));
  params.zero_point = std::clamp(params.zero_point, 0, 255);
  return params;
}

std::uint8_t quantize_u8(float v, const QuantParams& params) {
  // Same arithmetic as the runtime kernels' stores (multiply by the
  // reciprocal, lrintf round-to-nearest-even) so this helper predicts the
  // staged bytes, ties included.
  const long q =
      std::lrintf(v * (1.0F / params.scale)) + params.zero_point;
  return static_cast<std::uint8_t>(std::clamp(q, 0L, 255L));
}

index_t int8_model_bytes(index_t params, index_t int32_bias_params) {
  PIT_CHECK(params >= int32_bias_params,
            "int8_model_bytes: more biases than parameters");
  return (params - int32_bias_params) + 4 * int32_bias_params;
}

}  // namespace pit::quant
