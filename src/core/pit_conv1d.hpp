// The PIT temporal convolution (paper Eq. 5).
//
// Starts from a maximally-sized undilated filter (rf_max taps) and
// multiplies each time slice with the differentiable mask M built from the
// layer's gamma knobs. Gradients reach the gammas through the mask-product
// chain and the straight-through-estimated binarization, so dilation is
// learned jointly with the weights.
#pragma once

#include <memory>
#include <vector>

#include "core/gamma.hpp"
#include "models/tcn_common.hpp"
#include "nn/module.hpp"
#include "tensor/random.hpp"

namespace pit::core {

/// Functional masked causal convolution: conv(x, W ⊙ M) with the mask
/// broadcast over output/input channels. Differentiable in x, W, bias and
/// M (dL/dM_i aggregates W ⊙ dWeff over channels, feeding the gamma graph).
Tensor masked_causal_conv1d(const Tensor& x, const Tensor& weight,
                            const Tensor& bias, const Tensor& mask,
                            index_t stride);

/// conv(x, W ⊙ M) for the constant mask M of a frozen layer (alive taps
/// 0, d, ..., (taps - 1) * d), run as the dilated conv M encodes: W's
/// alive taps are gathered into a compact (Cout, Cin, taps) weight, so
/// forward and both backward passes do rf_max / taps times fewer MACs
/// than masked_causal_conv1d. dW is scattered back into W's rf_max
/// layout: pruned taps get exactly zero.
Tensor dilated_causal_conv1d(const Tensor& x, const Tensor& weight,
                             const Tensor& bias, index_t dilation,
                             index_t taps, index_t stride);

struct PitConv1dOptions {
  index_t stride = 1;
  bool bias = true;
  /// Heaviside threshold for gamma binarization (paper Eq. 2, delta).
  float binarize_threshold = 0.5F;
};

/// Searchable causal temporal convolution with rf_max taps and learned
/// power-of-two dilation.
class PITConv1d : public nn::Module {
 public:
  PITConv1d(index_t in_channels, index_t out_channels, index_t rf_max,
            const PitConv1dOptions& options, RandomEngine& rng);

  Tensor forward(const Tensor& input) override;

  index_t in_channels() const { return in_channels_; }
  index_t out_channels() const { return out_channels_; }
  index_t rf_max() const { return rf_max_; }
  index_t stride() const { return options_.stride; }
  float binarize_threshold() const { return options_.binarize_threshold; }

  GammaParameters& gamma() { return gamma_; }
  const GammaParameters& gamma() const { return gamma_; }
  Tensor weight() const { return weight_; }
  Tensor bias() const { return bias_; }

  /// Dilation currently encoded by the binarized gammas.
  index_t current_dilation() const;
  /// Taps alive at the current dilation.
  index_t current_alive_taps() const;
  /// Weights + bias that survive at the current dilation (the model-size
  /// cost the paper's Eq. 6 proxies).
  index_t effective_params() const;

  /// Binarizes and freezes the gammas (end of the pruning phase); the mask
  /// becomes a constant, forward passes stop building the gamma graph and
  /// run the layer as its dilated conv (dilated_causal_conv1d).
  void freeze_gamma();

 private:
  index_t in_channels_;
  index_t out_channels_;
  index_t rf_max_;
  PitConv1dOptions options_;
  Tensor weight_;  // (Cout, Cin, rf_max)
  Tensor bias_;
  GammaParameters gamma_;
};

/// ConvFactory adapter: builds PITConv1d seeds (kernel = receptive field,
/// dilation = 1) from hand-tuned specs and records the created layers in
/// `out_layers` (non-owning, in creation order) for the trainer/regularizer.
models::ConvFactory pit_conv_factory(RandomEngine& rng,
                                     std::vector<PITConv1d*>& out_layers,
                                     PitConv1dOptions options = {});

/// The PITConv1d layers among a model's temporal convs, in order.
std::vector<PITConv1d*> collect_pit_layers(
    const std::vector<nn::Module*>& temporal_convs);

}  // namespace pit::core
