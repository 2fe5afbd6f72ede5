// Activation-range observer for post-training calibration.
//
// The quantized compiled runtime (runtime/quantize_plan.hpp) runs the fp32
// plan over a calibration set and feeds every intermediate activation
// tensor through one RangeObserver per value. The observer keeps the
// exact observed [min, max]; after the sweep it yields the affine u8
// parameters that value will be stored with. Min/max is deterministic —
// the same calibration stream always produces bit-identical parameters —
// and, unlike a clipping policy, leaves no calibrated value outside the
// range the analytic error bound assumes.
#pragma once

#include <cstdint>
#include <span>

#include "quant/quantize.hpp"

namespace pit::quant {

/// Accumulates the value range of one activation tensor across
/// calibration batches. observe() may be called any number of times;
/// order of values within a call does not affect the result.
class RangeObserver {
 public:
  void observe(std::span<const float> values);

  /// True once observe() has seen at least one value.
  bool seen() const { return count_ > 0; }
  std::uint64_t count() const { return count_; }
  float min() const { return min_; }
  float max() const { return max_; }

  /// Affine u8 parameters over [min(), max()] (the runtime's activation
  /// encoding). Degenerate ranges are clamped by affine_u8_from_range.
  /// Requires seen().
  QuantParams affine_u8_params() const;

 private:
  std::uint64_t count_ = 0;
  float min_ = 0.0F;
  float max_ = 0.0F;
};

}  // namespace pit::quant
