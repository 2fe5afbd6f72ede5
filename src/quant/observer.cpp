#include "quant/observer.hpp"

#include <algorithm>

#include "tensor/error.hpp"

namespace pit::quant {

void RangeObserver::observe(std::span<const float> values) {
  if (values.empty()) {
    return;
  }
  float lo = values[0];
  float hi = values[0];
  for (const float v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (count_ == 0) {
    min_ = lo;
    max_ = hi;
  } else {
    min_ = std::min(min_, lo);
    max_ = std::max(max_, hi);
  }
  count_ += values.size();
}

QuantParams RangeObserver::affine_u8_params() const {
  PIT_CHECK(seen(), "RangeObserver: no values observed");
  return affine_u8_from_range(min_, max_);
}

}  // namespace pit::quant
