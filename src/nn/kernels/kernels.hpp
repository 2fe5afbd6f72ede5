// Dispatching kernel engine for causal dilated convolution.
//
// Two backends implement the same contract:
//   - scalar:  the original single-threaded triple-loop, kept as the
//              bit-exact reference every other backend is tested against.
//   - blocked: register-resident vector tiles, parallelised with OpenMP:
//              forward over the batch x c_out-block grid, backward-input
//              over the batch x c_in-block grid, backward-weight over
//              c_in, so every thread owns its output slice and no
//              reduction race exists.
//
// All kernels *accumulate* into their outputs, so callers zero-fill.
// In forward and backward-input, both backends skip zero-weight taps:
// scalar per weight, blocked per tap that is zero across every channel
// pair (what a PIT mask makes of a pruned tap), so pruning pays off
// during the search too. Backward-weight computes every tap: the mask
// gradient of the prune phase reads dW at pruned taps. Once a layer's mask is frozen it runs as the compact
// dilated conv instead (core::dilated_causal_conv1d), so pruned taps cost
// nothing in any pass.
//
// The free functions at the top level resolve Backend::kAuto per call:
// an explicit override (set_default_backend or the PIT_CONV_BACKEND
// environment variable, values "scalar" / "blocked" / "auto") wins,
// otherwise a problem-size heuristic picks the blocked engine once the
// multiply-accumulate count is large enough to amortise tiling overhead.
#pragma once

#include <cstdint>

#include "tensor/shape.hpp"

namespace pit::nn::kernels {

struct ConvDims {
  index_t n;      // batch
  index_t c_in;   // input channels
  index_t c_out;  // output channels
  index_t k;      // filter taps
  index_t t_in;   // input time steps
  index_t t_out;  // output time steps
  index_t dilation;
  index_t stride;
};

enum class Backend {
  kAuto = 0,     // resolve per problem size (or global/env override)
  kScalar = 1,   // reference triple-loop
  kBlocked = 2,  // tiled + OpenMP
};

/// Human-readable backend name ("auto", "scalar", "blocked").
const char* backend_name(Backend b);

/// Parses a backend name as accepted by the PIT_CONV_BACKEND environment
/// variable ("auto" / "scalar" / "blocked"). Anything else throws
/// pit::Error naming the accepted values — a typo must not silently fall
/// back to the heuristic.
Backend parse_backend_name(const char* value);

/// Global override applied when a call requests Backend::kAuto.
/// Passing Backend::kAuto restores the size heuristic. Thread-unsafe by
/// design: meant for test/bench setup, not concurrent reconfiguration.
void set_default_backend(Backend b);
Backend default_backend();

/// Multiply-accumulate count of the problem (n * c_out * c_in * k * t_out).
index_t conv_macs(const ConvDims& d);

/// The backend a Backend::kAuto request resolves to for this problem.
Backend resolve_backend(Backend requested, const ConvDims& d);

// ---- Dispatched entry points -------------------------------------------

/// y[n,co,t] += sum_{ci,i} w[co,ci,i] * x[n,ci,t*stride - i*dilation]
/// (implicit zero left-padding). `bias` may be null.
void conv_forward(const float* x, const float* w, const float* bias, float* y,
                  const ConvDims& d, Backend backend = Backend::kAuto);

/// dx[n,ci,s] += sum_{co,i} w[co,ci,i] * dy[n,co,t], s = t*stride - i*dil.
void conv_backward_input(const float* dy, const float* w, float* dx,
                         const ConvDims& d, Backend backend = Backend::kAuto);

/// dw[co,ci,i] += sum_{n,t} dy[n,co,t] * x[n,ci,t*stride - i*dilation].
void conv_backward_weight(const float* dy, const float* x, float* dw,
                          const ConvDims& d, Backend backend = Backend::kAuto);

/// db[co] += sum_{n,t} dy[n,co,t]. Memory-bound; no blocked variant.
void conv_backward_bias(const float* dy, float* db, const ConvDims& d);

// ---- Inference entry points (frozen runtime) ---------------------------
//
// The no-tape runtime (src/runtime) wants every pass it can get fused
// into the conv itself: these kernels OVERWRITE y (no zero-fill needed),
// add the bias during the store, and optionally clamp with ReLU. Weights
// must be pre-packed with pack_conv_weight into
//   wp[(ci * k + i) * co_round + co],   co_round = round_up(c_out, kPackCo)
// so the kPackCo output rows of a register tile read one contiguous,
// zero-padded group per tap. Multi-versioned per ISA level like the
// blocked backend. Stride must be 1 (the TCN hot path; strided convs take
// the training kernels instead).

/// Output rows per packed weight group / register tile.
inline constexpr index_t kPackCo = 4;

/// Time steps per register tile — also the write-slack (in floats) a
/// padded row must carry after its data so ragged tails can over-read.
inline constexpr index_t kPackTimeTile = 32;

/// Floats pack_conv_weight needs for dims `d`.
index_t packed_weight_floats(const ConvDims& d);

/// Packs (c_out, c_in, k) row-major weights into the inference layout.
void pack_conv_weight(const float* w, const ConvDims& d, float* out);

/// y[n,co,t] = [relu] (bias[co] + sum_{ci,i} wp[...] * x[n,ci,t - i*dil]).
/// `bias` may be null; stride must be 1.
///
/// `x`/`y` point at the logical t = 0 of channel row 0; consecutive
/// channel rows are x_stride / y_stride floats apart (sample stride is
/// c * row stride). With x_padded, the caller guarantees each x row is
/// embedded in a buffer with >= (k-1)*dilation zeroed floats before it
/// and >= kPackTimeTile readable floats after it — then every tile runs
/// the register-resident fast path with no per-tap bounds work. Without
/// it (dense rows, x_stride == t_in) tiles touching the implicit left
/// padding fall back to clamped spans.
void conv_forward_packed(const float* x, const float* wp, const float* bias,
                         float* y, const ConvDims& d, index_t x_stride,
                         index_t y_stride, bool x_padded, bool relu);

/// y = [relu] (x W^T + b) over (n, f) x (o, f) -> (n, o); `bias` may be
/// null. Overwrites y. Multi-versioned like the conv kernels.
void linear_forward(const float* x, const float* w, const float* bias,
                    float* y, index_t n, index_t f, index_t o, bool relu);

// ---- int8 inference entry points (quantized compiled runtime) ----------
//
// The quantized runtime (runtime/quantize_plan.hpp) stores activations as
// *unsigned* 8-bit affine values in a channel-group-interleaved layout:
// channels are packed in groups of kQuantCiGroup, and each group-row holds
// 4 interleaved bytes per time step — so the 4 bytes at one step form
// exactly the contiguous u8 quad a VNNI dot-product instruction (or its
// portable emulation) consumes. Weights are signed 8-bit, quantized
// per-output-channel symmetric, packed so a register tile reads one
// contiguous kQuantCo x kQuantCiGroup block per (channel-group, tap):
//
//   wp[((ci_group * k + tap) * co_round + co) * 4 + ci_lane]
//
// with co_round = round_up(c_out, kQuantCo). Accumulation is int32; the
// store requantizes with a per-channel float multiplier/bias (bias, input
// zero-point correction, and output zero point pre-folded by the plan
// compiler), clamps (ReLU folds into the lower clamp), and writes either
// u8 group rows or — for the plan output — dequantized float rows.
// Multi-versioned per ISA level like the fp32 tiles, plus an AVX512-VNNI
// variant (vpdpbusd) selected at runtime where the CPU supports it.

/// Output channels per i8 register tile / packed-weight group.
inline constexpr index_t kQuantCo = 16;
/// Interleaved input channels per activation quad (the dot-product word).
inline constexpr index_t kQuantCiGroup = 4;
/// Output time steps per i8 register tile.
inline constexpr index_t kQuantTimeTile = 8;

/// Channel-group rows of a C4-interleaved activation with `channels` rows.
inline constexpr index_t quant_groups(index_t channels) {
  return (channels + kQuantCiGroup - 1) / kQuantCiGroup;
}

/// Bytes pack_conv_weight_i8 needs for dims `d` (c_in, c_out, k).
index_t packed_weight_bytes_i8(const ConvDims& d);

/// Packs (c_out, c_in, k) row-major int8 weights into the i8 inference
/// layout above; padding lanes (c_in % 4, c_out up to co_round) are zero.
void pack_conv_weight_i8(const std::int8_t* w, const ConvDims& d,
                         std::int8_t* out);

/// Quantized causal conv, stride 1. `x` points at the logical t = 0 of
/// channel-group row 0; group rows are 4 * x_stride bytes apart (x_stride
/// in time steps) and each must be preceded by >= (k-1)*dilation steps of
/// zero-point bytes (the materialized causal padding — there is no
/// unpadded fallback). Per output element: acc = sum u8(x) * s8(w) over
/// c_in * k (int32), then v = m[co] * acc + b[co] and either
///   y_q[co-group row, t] = clamp(round(v), out_lo, 255)   (y_f == null)
///   y_f[co * y_stride + t] = relu ? max(v, 0) : v         (y_f != null)
/// u8 output rows are y_stride steps (4 * y_stride bytes) apart; float
/// rows y_stride floats apart. Padding output lanes get m = 0 so their
/// stores are deterministic. `out_lo` is the lower u8 clamp (the output
/// zero point when ReLU is fused, else 0).
void conv_forward_packed_i8(const std::uint8_t* x, const std::int8_t* wp,
                            const float* m, const float* b, std::uint8_t* y_q,
                            float* y_f, const ConvDims& d, index_t x_stride,
                            index_t y_stride, bool relu, int out_lo);

/// Quantized fully-connected layer over flat u8 features: per sample, `f4`
/// contiguous feature bytes (a multiple of 4; the flattened C4 block) dot
/// s8 weights packed with pack_conv_weight_i8 (c_in = f4, k = 1). Output:
/// u8 (round_up(o, 4) bytes per sample) or float (o floats), same
/// requantize semantics as conv_forward_packed_i8.
void linear_forward_i8(const std::uint8_t* x, const std::int8_t* wp,
                       const float* m, const float* b, std::uint8_t* y_q,
                       float* y_f, index_t n, index_t f4, index_t o,
                       bool relu, int out_lo);

/// Quantizes a dense float (n, channels, steps) batch into u8
/// channel-group rows (the input staging of a quantized plan):
///   q = clamp(round(x * inv_scale) + zp, 0, 255)
/// Each group row carries `lead` steps of zp bytes before the data (the
/// materialized causal padding) and is `stride` steps long in total;
/// padding channel lanes are filled with zp.
void quantize_interleave_i8(const float* in, std::uint8_t* out, index_t n,
                            index_t channels, index_t steps, index_t lead,
                            index_t stride, float inv_scale, int zp);

/// Elementwise requantized residual add over u8 group rows:
///   y[i] = clamp(round(a_mul * a[i] + b_mul * b[i] + c_add), out_lo, 255)
/// for the 4 * steps data bytes of each of `rows` rows (strides in time
/// steps, as in conv_forward_packed_i8). ReLU folds into out_lo.
void add_forward_i8(const std::uint8_t* a, const std::uint8_t* b,
                    std::uint8_t* y, index_t rows, index_t steps,
                    index_t a_stride, index_t b_stride, index_t y_stride,
                    float a_mul, float b_mul, float c_add, int out_lo);

/// Single-timestep quantized causal conv over a dilated u8 ring-buffer
/// history (the streaming counterpart of conv_forward_packed_i8). The
/// ring holds quant_groups(c_in) group-major channel rows of `span` =
/// (k-1)*dilation+1 interleaved quad slots:
///   ring[(group * span + slot) * 4 + lane]
/// with the current input already written at slot `pos` and slot
/// (pos - tap*dilation) mod span holding the input from tap*dilation
/// steps back — slots the stream has not reached yet must hold the input
/// value's zero-point byte (the causal padding). Weights, requantize
/// constants, `relu`, and `out_lo` are exactly those of the batched
/// kernel; the output is one step: either quant_groups(c_out) u8 quads
/// (`y_q`) or c_out floats (`y_f`), matching the batched kernel's store
/// for the same accumulators bit for bit.
void conv_step_i8(const std::uint8_t* ring, const std::int8_t* wp,
                  const float* m, const float* b, std::uint8_t* y_q,
                  float* y_f, index_t c_in, index_t c_out, index_t k,
                  index_t dilation, index_t span, index_t pos, bool relu,
                  int out_lo);

/// Name of the i8 kernel variant the running CPU resolved to
/// ("vnni", "v4", "v3", or "base") — for bench/summary reporting.
const char* quant_kernel_variant();

// ---- Backends (exposed for parity tests and benches) -------------------

namespace scalar {
void conv_forward(const float* x, const float* w, const float* bias, float* y,
                  const ConvDims& d);
void conv_backward_input(const float* dy, const float* w, float* dx,
                         const ConvDims& d);
void conv_backward_weight(const float* dy, const float* x, float* dw,
                          const ConvDims& d);
void conv_backward_bias(const float* dy, float* db, const ConvDims& d);
}  // namespace scalar

namespace blocked {
void conv_forward(const float* x, const float* w, const float* bias, float* y,
                  const ConvDims& d);
void conv_backward_input(const float* dy, const float* w, float* dx,
                         const ConvDims& d);
void conv_backward_weight(const float* dy, const float* x, float* dw,
                          const ConvDims& d);
void conv_forward_packed(const float* x, const float* wp, const float* bias,
                         float* y, const ConvDims& d, index_t x_stride,
                         index_t y_stride, bool x_padded, bool relu);
void linear_forward(const float* x, const float* w, const float* bias,
                    float* y, index_t n, index_t f, index_t o, bool relu);
}  // namespace blocked

}  // namespace pit::nn::kernels
