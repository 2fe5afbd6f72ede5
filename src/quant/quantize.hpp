// int8 quantization primitives of the compiled runtime's int8 program (the
// paper deploys int8 models through GreenWaves' NN-Tool; the quantized
// CompiledPlan built by runtime::quantize_plan() is our stand-in for that
// flow).
//
// That program has one scheme: per-output-channel symmetric s8 weights
// (packed by the lowering, runtime/quant_lowering.cpp) and per-tensor
// affine u8 activations whose ranges a quant::RangeObserver records during
// calibration. This header holds the activation encoding both sides share —
// the affine parameters, their range calibration, and the u8 quantizer —
// plus the int8 model-size accounting the GAP8 model reports.
#pragma once

#include <cstdint>

#include "tensor/shape.hpp"

namespace pit::quant {

/// Smallest representable calibration scale. A degenerate observed range
/// (all-constant input, denormal spread, or an empty tensor) must never
/// produce a zero, denormal, or infinite scale — 1/scale is used in every
/// quantize step, so the scale is clamped here instead of trusting the
/// data.
inline constexpr float kMinScale = 1e-8F;

struct QuantParams {
  float scale = 1.0F;
  std::int32_t zero_point = 0;

  float dequantize(std::int32_t q) const {
    return scale * static_cast<float>(q - zero_point);
  }
};

/// Affine *uint8* parameters from an explicit [lo, hi] range (e.g. a range
/// accumulated by a RangeObserver over many calibration batches): real
/// value = scale * (q - zero_point) with q in [0, 255] and zero_point in
/// [0, 255]. This is the activation encoding of the quantized compiled
/// runtime (unsigned activations feed the u8 x s8 dot-product kernels).
/// The range is widened to include zero; an empty (lo == hi == 0) range
/// yields the identity scale 1, and a tiny but non-zero one is clamped to
/// kMinScale.
QuantParams affine_u8_from_range(float lo, float hi);

/// Quantizes to the u8 encoding of affine_u8_from_range: round-to-nearest
/// of v/scale + zero_point, clamped to [0, 255].
std::uint8_t quantize_u8(float v, const QuantParams& params);

/// int8 model size in bytes: one byte per parameter (biases are kept at
/// int32 by deployment flows; `int32_bias_params` counts those).
index_t int8_model_bytes(index_t params, index_t int32_bias_params = 0);

}  // namespace pit::quant
