// Differentiable construction of the time-slice mask M (paper Eq. 3-4).
//
// The binary gammas are combined into Gamma products
// (Gamma_i = gamma_0 * ... * gamma_{L-1-i}, Eq. 3), which are scattered
// into a length-rf_max mask: tap t is governed by Gamma_{g(t)} where
// g(t) = min(v2(t), L-1) and v2 is the 2-adic valuation (tap 0 and the
// largest power-of-two tap are always alive). Eq. 4 expresses the same
// construction with tensor operations through two constant 0/1 matrices:
//
//   M = prod_columns{ [(gamma · 1_{1xL}) ⊙ T + (1_{LxL} − T)] · K }
//
// where T is an upper-triangular matrix with inverted columns and K
// one-hot-selects which Gamma product each tap uses.
#pragma once

#include <vector>

#include "tensor/tensor.hpp"

namespace pit::core {

/// T matrix of Eq. 4: (L x L), T[r][c] = 1 iff r <= L-1-c. Column c of
/// (gamma replicated, masked by T, 1 elsewhere) multiplies out to Gamma_c.
Tensor t_matrix(index_t levels);

/// K matrix of Eq. 4: (L x rf_max), K[c][t] = 1 iff tap t is governed by
/// Gamma_c, i.e. c = min(v2(t), L-1) with v2(0) := L-1.
Tensor k_matrix(index_t levels, index_t rf_max);

/// Differentiable Eq. 4 mask from *binarized* gammas (shape (L-1); pass an
/// undefined tensor when the layer has no knobs). Returns shape (rf_max);
/// gradients flow to the gamma tensor through the product chain.
Tensor build_mask(const Tensor& gamma_bin, index_t rf_max);

/// Non-differentiable reference of the same construction straight from
/// Eq. 3 (used by property tests and the mask walkthrough example).
std::vector<float> reference_mask(const std::vector<int>& gamma_bits,
                                  index_t rf_max);

/// Mask with taps at multiples of `d` alive (what a regular dilated conv
/// of dilation d uses).
std::vector<float> mask_for_dilation(index_t d, index_t rf_max);

}  // namespace pit::core
