#include "nn/optim.hpp"

#include <cmath>

#include "tensor/error.hpp"

namespace pit::nn {

Optimizer::Optimizer(std::vector<Tensor> params) : params_(std::move(params)) {
  for (const Tensor& p : params_) {
    PIT_CHECK(p.defined(), "Optimizer: undefined parameter");
  }
}

void Optimizer::zero_grad() {
  for (Tensor& p : params_) {
    p.zero_grad();
  }
}

SGD::SGD(std::vector<Tensor> params, double lr, double momentum,
         double weight_decay)
    : Optimizer(std::move(params)),
      momentum_(momentum),
      weight_decay_(weight_decay) {
  lr_ = lr;
  velocity_.resize(params_.size());
}

void SGD::step() {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Tensor& p = params_[i];
    auto pv = p.span();
    const float* g = p.grad_data();
    if (momentum_ != 0.0) {
      auto& vel = velocity_[i];
      if (vel.empty()) {
        vel.assign(pv.size(), 0.0F);
      }
      for (std::size_t j = 0; j < pv.size(); ++j) {
        const float grad =
            g[j] + static_cast<float>(weight_decay_) * pv[j];
        vel[j] = static_cast<float>(momentum_) * vel[j] + grad;
        pv[j] -= static_cast<float>(lr_) * vel[j];
      }
    } else {
      for (std::size_t j = 0; j < pv.size(); ++j) {
        const float grad =
            g[j] + static_cast<float>(weight_decay_) * pv[j];
        pv[j] -= static_cast<float>(lr_) * grad;
      }
    }
  }
}

Adam::Adam(std::vector<Tensor> params, double lr, double beta1, double beta2,
           double eps, double weight_decay)
    : Optimizer(std::move(params)),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  lr_ = lr;
  m_.resize(params_.size());
  v_.resize(params_.size());
}

void Adam::step() {
  ++step_count_;
  // One fp32 pass per parameter with the bias corrections hoisted:
  //   p -= (lr / bc1) * m / (sqrt(v) / sqrt(bc2) + eps) + lr * wd * p,
  // which is lr * m_hat / (sqrt(v_hat) + eps) rearranged (the form
  // PyTorch uses), plus the decoupled (AdamW) decay.
  const double bc1 = 1.0 - std::pow(beta1_, step_count_);
  const double bc2 = 1.0 - std::pow(beta2_, step_count_);
  const auto b1 = static_cast<float>(beta1_);
  const auto b2 = static_cast<float>(beta2_);
  const auto one_minus_b1 = static_cast<float>(1.0 - beta1_);
  const auto one_minus_b2 = static_cast<float>(1.0 - beta2_);
  const auto step_size = static_cast<float>(lr_ / bc1);
  const auto inv_sqrt_bc2 = static_cast<float>(1.0 / std::sqrt(bc2));
  const auto eps = static_cast<float>(eps_);
  const auto decay = static_cast<float>(lr_ * weight_decay_);
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto pv = params_[i].span();
    auto& m = m_[i];
    auto& v = v_[i];
    if (m.empty()) {
      m.assign(pv.size(), 0.0F);
      v.assign(pv.size(), 0.0F);
    }
    float* p = pv.data();
    const float* g = params_[i].grad_data();
    float* mp = m.data();
    float* vp = v.data();
    const std::size_t count = pv.size();
    for (std::size_t j = 0; j < count; ++j) {
      const float grad = g[j];
      mp[j] = b1 * mp[j] + one_minus_b1 * grad;
      vp[j] = b2 * vp[j] + one_minus_b2 * grad * grad;
      p[j] -= step_size * mp[j] / (std::sqrt(vp[j]) * inv_sqrt_bc2 + eps) +
              decay * p[j];
    }
  }
}

}  // namespace pit::nn
