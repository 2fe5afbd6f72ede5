// Frozen inference runtime for searched PIT networks.
//
// The paper's pitch is that the searched mask/gamma structure collapses
// into a plain dilated TCN that cheap inference engines run fast; this is
// that engine. A CompiledPlan executes a network as a flat op list over one
// pre-planned activation arena:
//
//   compile — the layer sequence is described through NetBuilder,
//   fold    — eval-mode BatchNorm is folded into the preceding conv
//             (w' = w * g/sigma, b' = (b - mu) * g/sigma + beta) and ReLU
//             is fused into the producing op,
//   plan    — every activation gets a liveness-planned offset in a single
//             arena (see arena.hpp): zero per-forward allocation in steady
//             state (the arena grows only when the batch size does).
//             Activations feeding a stride-1 conv are planned in a PADDED
//             row layout — (k-1)*dilation zeroed floats before each
//             channel row and a register tile of slack after it — so the
//             packed conv kernel never does per-tap bounds work,
//   execute — straight through nn::kernels (packed inference kernels /
//             blocked backend, OpenMP over the batch grid) with no
//             autograd tape and no Tensor temporaries; the only tensor
//             built is the returned output.
//
// Arena offsets are planned per batch *sample* and scaled by N at run
// time, so one plan serves every batch size.
//
// THREAD-SAFETY CONTRACT
//
// A CompiledPlan is immutable once NetBuilder::compile() returns: forward()
// and step() are const and touch no plan state besides reads. All mutable
// execution state — the activation arena and the streaming ring buffers —
// lives in an ExecutionContext that the caller passes in. Any number of
// threads may call forward()/step() on ONE shared plan concurrently as long
// as each thread uses its OWN context; a single context must never be used
// from two threads at once. The serving layer (src/serve) builds on exactly
// this split: one shared plan, one context per worker thread. A
// single-threaded caller does the same with one plan and one context.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <memory_resource>
#include <string>
#include <vector>

#include "nn/batchnorm.hpp"
#include "nn/conv1d.hpp"
#include "nn/kernels/registry.hpp"
#include "quant/quantize.hpp"
#include "runtime/shared_block.hpp"
#include "tensor/tensor.hpp"

namespace pit::runtime {

namespace analysis {
class PlanVerifier;  // runtime/verify.cpp: static plan verification pass
}
class PlanMutator;  // tests: seeds plan corruptions the verifier must catch

/// Inference-only snapshot of a causal dilated conv: packed weights and
/// resolved geometry, detached from any Module.
struct FrozenConv {
  index_t c_in = 0;
  index_t c_out = 0;
  index_t k = 0;
  index_t dilation = 1;
  index_t stride = 1;
  std::vector<float> weight;  // (c_out, c_in, k) row-major
  std::vector<float> bias;    // (c_out); empty when the conv has none
};

/// Snapshot of a trained nn::Conv1d.
FrozenConv freeze_conv(const nn::Conv1d& conv);

/// Folds an eval-mode batch-norm into the conv that feeds it:
///   BN(conv(x)) = (g/sigma) * conv(x) + (beta - mu * g/sigma)
/// becomes the same conv with per-output-channel scaled weights and a
/// shifted bias (materialized if the conv had none).
void fold_batchnorm(FrozenConv& conv, const nn::BatchNorm1d& bn);

/// Handle to one activation inside a plan under construction.
using ValueId = int;

namespace detail {

enum class OpKind { kConv, kLinear, kAvgPool, kAdd };

/// Kernels resolved for one fp32 op at plan-build time (the registry is
/// consulted exactly once, in NetBuilder::compile()); the executors call
/// these pointers directly — no per-call backend resolution. `meta` /
/// `step_meta` describe what was bound for describe() output. Ops the
/// executors run inline (avg-pool, the fp32 add) carry only a meta.
struct OpBinding {
  nn::kernels::ConvPackedF32Fn conv = nullptr;      // packed stride-1 conv
  nn::kernels::ConvTrainF32Fn conv_train = nullptr; // strided conv
  nn::kernels::LinearF32Fn linear = nullptr;
  nn::kernels::ConvStepF32Fn step = nullptr;        // streaming single step
  const nn::kernels::KernelMeta* meta = nullptr;
  const nn::kernels::KernelMeta* step_meta = nullptr;
};

struct Op {
  OpKind kind = OpKind::kConv;
  ValueId in0 = -1;
  ValueId in1 = -1;  // second addend of kAdd
  ValueId out = -1;
  bool relu = false;    // activation fused into this op's output write
  bool packed = false;  // conv weights in the inference-packed layout
  index_t c_in = 0, c_out = 0;     // conv/linear geometry (linear: features)
  index_t k = 0;                   // conv taps / pool kernel
  index_t dilation = 1, stride = 1;
  index_t t_in = 0, t_out = 0;
  index_t w_blk = -1, b_blk = -1;  // handles into the plan's param blocks
  OpBinding bind;                  // kernels resolved at plan-build time
};

struct Value {
  index_t channels = 0;
  index_t steps = 0;
  ValueId alias_of = -1;  // shares storage with an earlier value (flatten)
  index_t numel() const { return channels * steps; }
};

/// Per-op int8 lowering (parallel to the op list when the plan is
/// quantized): the op's packed s8 weight block handle, offsets into the
/// plan's float requantize-constant pool, plus the scalar requantize terms
/// of the weight-less ops. Bias, input zero-point correction, and output zero
/// point are all pre-folded into these constants — the kernels only ever
/// compute m * acc + b.
/// Kernels resolved for one quantized op at lowering time (the registry
/// is consulted exactly once, in QuantizedCompiler::quantize()).
struct QuantBinding {
  nn::kernels::ConvPackedI8Fn conv = nullptr;  // conv AND linear (k=1 form)
  nn::kernels::ConvStepI8Fn step = nullptr;    // streaming single step
  nn::kernels::AddI8Fn add = nullptr;
  const nn::kernels::KernelMeta* meta = nullptr;
  const nn::kernels::KernelMeta* step_meta = nullptr;
};

struct QuantOp {
  index_t w_blk = -1;      // s8 weight block handle (conv / linear)
  index_t m_off = -1;      // floats into qconsts_: co_round multipliers
  index_t b_off = -1;      // floats into qconsts_: co_round biases
  float a_mul = 0.0F;      // add / pool: input scalings and offset
  float b_mul = 0.0F;
  float c_add = 0.0F;
  bool out_float = false;  // dequantized store (this op feeds the output)
  int out_lo = 0;          // lower u8 store clamp (ReLU folds in here)
  QuantBinding bind;       // kernels resolved at lowering time
};

}  // namespace detail

class CompiledPlan;

/// Per-thread execution state for a CompiledPlan: the batched activation
/// arena (dtype-aware — a float arena for fp32 plans and a byte arena for
/// quantized plans, each grown only by the plan kind that uses it) plus,
/// for streaming step() execution, the per-conv dilated input history
/// rings and per-value single-step vectors. A context is cheap to
/// construct (buffers grow lazily on first use), is bound to whichever plan
/// last ran it, and must only ever be driven by one thread at a time. It
/// must not outlive the plan it is bound to. One context may serve fp32
/// and quantized plans interchangeably (the arenas are independent).
///
/// ALLOCATION SEAM. Every buffer is a std::pmr vector: a context built
/// with a memory_resource routes all growth and release through it. This
/// is how serve::SessionManager backs a million session contexts with its
/// per-shard caching SessionAllocator instead of a million raw mallocs; a
/// default-constructed context keeps the global new/delete resource, so
/// nothing changes for single-context callers. The resource must outlive
/// the context.
class ExecutionContext {
 public:
  ExecutionContext() = default;
  explicit ExecutionContext(std::pmr::memory_resource* mr)
      : arena_(mr),
        qarena_(mr),
        stream_ring_(mr),
        stream_vals_(mr),
        qstream_ring_(mr),
        qstream_vals_(mr) {}

  /// Forgets the streaming history: the next step() starts a fresh
  /// sequence at t = 0 (implicit causal zero-padding again). The batch
  /// arena is untouched — it carries no state between forwards.
  void reset_stream() {
    stream_plan_ = nullptr;
    stream_t_ = 0;
  }

  /// Time steps consumed since the last reset (streaming mode).
  std::uint64_t stream_position() const { return stream_t_; }

  /// Idle compaction: releases the batched-forward scratch (the fp32 and
  /// u8 arenas — forward() carries no state between calls, so nothing is
  /// lost) back to the memory resource while KEEPING the streaming state:
  /// ring buffers, per-value step vectors, position, and plan binding all
  /// survive, so a compacted streaming session resumes its sequence
  /// untouched. The next forward() simply regrows the arena.
  void compact() {
    release(arena_);
    release(qarena_);
  }

  /// Releases every buffer — batch arenas AND streaming state — and
  /// forgets the stream binding (the next step() starts a fresh
  /// sequence). This is the full teardown a pooled-but-cold session slot
  /// uses to hand its bytes back to the allocator cache.
  void release_buffers() {
    compact();
    release(stream_ring_);
    release(stream_vals_);
    release(qstream_ring_);
    release(qstream_vals_);
    reset_stream();
  }

  /// Bytes currently held by the batched-forward arenas (what compact()
  /// frees). Capacity, not size — this is the malloc footprint.
  std::size_t batch_arena_bytes() const {
    return arena_.capacity() * sizeof(float) + qarena_.capacity();
  }
  /// Bytes currently held by the streaming rings and step vectors (what
  /// survives compact()).
  std::size_t stream_bytes() const {
    return (stream_ring_.capacity() + stream_vals_.capacity()) *
               sizeof(float) +
           qstream_ring_.capacity() + qstream_vals_.capacity();
  }

 private:
  friend class CompiledPlan;

  template <typename V>
  static void release(V& v) {
    // swap-with-empty rather than shrink_to_fit: the standard makes
    // shrink_to_fit a non-binding request, the swap is a guaranteed
    // deallocation (same resource, so the pmr swap is well-formed).
    V(v.get_allocator()).swap(v);
  }

  std::pmr::vector<float> arena_;     // grown to plan arena floats * max N
  std::pmr::vector<std::uint8_t> qarena_;  // byte arena of quantized plans
  const CompiledPlan* stream_plan_ = nullptr;  // rings sized for this plan
  std::pmr::vector<float> stream_ring_;  // per-conv dilated input history
  std::pmr::vector<float> stream_vals_;  // one C-vector per live value
  // Streaming state of quantized plans: the same ring/value split, held
  // as u8 bytes in the channel-group-interleaved layout (rings initialize
  // to each conv input's zero-point byte — the causal padding).
  std::pmr::vector<std::uint8_t> qstream_ring_;
  std::pmr::vector<std::uint8_t> qstream_vals_;
  std::uint64_t stream_t_ = 0;
};

/// An immutable, executable inference plan. Built by NetBuilder::compile().
/// Safe to share across threads — see the thread-safety contract above.
class CompiledPlan {
 public:
  /// Executes the plan on an (N, C, T) batch (or (N, C) when the declared
  /// input has one step). Grad mode is ignored — no tape is ever built —
  /// and nothing is allocated per forward except the returned tensor
  /// (plus a one-time growth of the context's arena when N exceeds all
  /// batches that context has served).
  Tensor forward(const Tensor& input, ExecutionContext& ctx) const;

  /// True when the network can run one time step at a time: every op is a
  /// stride-1 causal conv or an elementwise add, so t_out == t_in
  /// throughout and each conv only ever needs its past (k-1)*dilation
  /// inputs — which the context keeps in per-conv ring buffers.
  bool streamable() const { return streamable_; }

  /// Streaming single-step execution: consumes one time-step vector
  /// (input_channels() floats) and produces one output vector
  /// (output_channels() floats). After T steps from a reset context the
  /// outputs match columns 0..T-1 of forward() on the same sequence —
  /// bit-exactly for quantized plans, whose step runs the int8 program
  /// over u8 ring-buffer history. Requires streamable(); the context's
  /// history before the first step is the implicit causal padding (zeros
  /// for fp32 plans, zero-point bytes for quantized ones).
  void step(const float* input, float* output, ExecutionContext& ctx) const;
  /// Tensor convenience overload: input rank-1 (C,), returns (C_out,).
  Tensor step(const Tensor& input, ExecutionContext& ctx) const;

  index_t input_channels() const;
  index_t input_steps() const;
  index_t output_channels() const;
  index_t output_steps() const;

  // ---- Quantized lowering (see runtime/quantize_plan.hpp) ---------------

  /// True when this plan executes the int8 program: u8 affine activations
  /// in a byte arena, s8 per-channel weights, int32 accumulation, fused
  /// requantize on store. Built by runtime::quantize_plan(); forward()
  /// and step() dispatch automatically, so serving layers need no
  /// changes — a quantized plan of a streamable network streams int8
  /// (u8 ring-buffer history, single-step i8 kernels).
  bool quantized() const { return quantized_; }
  /// Analytic worst-case |quantized - fp32 plan| output bound, valid for
  /// inputs inside the calibrated input range. Requires quantized().
  /// It compounds layer by layer, so at deployed depth it is vacuous:
  /// 1.26e7 on the 7-conv paper-width TEMPONet backbone. There the checks
  /// of the measured error against quant_error_estimate() are the real
  /// guard against a broken lowering.
  double quant_error_bound() const;
  /// Probabilistic (RMS-model) estimate of the same output error — the
  /// realistic magnitude, orders tighter than the worst-case bound.
  double quant_error_estimate() const;
  /// Packed s8 weight bytes of the quantized program (0 when fp32-only).
  index_t quant_weight_bytes() const {
    return static_cast<index_t>(qweights_.total_elems());
  }
  /// Byte-arena bytes per batch sample (0 when fp32-only).
  index_t quant_arena_bytes_per_sample() const { return q_arena_bytes_; }
  /// Calibrated affine u8 parameters per value storage root (empty when
  /// fp32-only; aliases report their root's entry). Bit-identical across
  /// quantize_plan() runs over the same calibration stream.
  const std::vector<quant::QuantParams>& activation_quant_params() const {
    return qvalue_;
  }

  /// Public geometry of one executed op, for benches that cross-check the
  /// plan against analytical hardware models (hw::gap8).
  struct OpInfo {
    detail::OpKind kind = detail::OpKind::kConv;
    index_t c_in = 0, c_out = 0, k = 1, dilation = 1, stride = 1;
    index_t t_in = 1, t_out = 1;
    bool relu = false;
    /// Multiply-accumulates per batch sample (0 for kAdd).
    index_t macs() const;
  };
  std::vector<OpInfo> op_infos() const;
  /// Activation arena floats needed per batch sample (liveness-planned;
  /// compare with the sum of all activation sizes to see the reuse).
  index_t arena_floats_per_sample() const { return arena_per_sample_; }
  /// Sum of all planned activation buffer sizes (padding included) per
  /// sample, had nothing been reused.
  index_t activation_floats_per_sample() const;
  /// Packed parameter count (post-folding; BN has disappeared into convs).
  index_t param_floats() const {
    return static_cast<index_t>(params_.total_elems());
  }
  std::size_t num_ops() const { return ops_.size(); }
  /// Visits every shared weight block (fp32 params and s8 qweights) with
  /// (storage pointer, bytes) — the registry's dedup accounting walks this
  /// to count bytes resident once across plans that share blocks.
  void visit_weight_blocks(
      const std::function<void(const void*, std::size_t)>& fn) const {
    for (index_t i = 0; i < params_.count(); ++i) {
      fn(params_.data(i), params_.block(i)->size() * sizeof(float));
    }
    for (index_t i = 0; i < qweights_.count(); ++i) {
      fn(qweights_.data(i), qweights_.block(i)->size());
    }
  }
  /// Order-sensitive content hash over all packed fp32 param blocks — the
  /// architecture fingerprint component derived from the exported weights.
  std::uint64_t param_content_hash() const {
    std::uint64_t h = params_.content_hash();
    if (qweights_.count() > 0) {
      // An int8 lowering shares its source's fp32 blocks verbatim — the
      // s8 table is what distinguishes the two plans' content.
      const std::uint64_t q = qweights_.content_hash();
      h = hash_bytes(&q, sizeof(q), h);
    }
    return h;
  }
  /// Human-readable plan dump: ops, fusions, arena offsets, totals.
  std::string summary() const;
  /// summary() plus the kernel binding of every op — registry key, ISA
  /// level, and specialized-vs-generic — so benches and bug reports can
  /// attribute performance to the exact kernel that ran. Quantized plans
  /// report the i8 bindings (plus the input staging kernel); streamable
  /// plans also show each conv's streaming-step binding.
  std::string describe() const;

 private:
  friend class NetBuilder;
  friend class QuantizedCompiler;  // quantize_plan.cpp: builds/compares
  friend class analysis::PlanVerifier;  // read-only verification pass
  friend class PlanMutator;             // test-only plan corruption
  CompiledPlan() = default;

  void bind_stream(ExecutionContext& ctx) const;
  // Quantized streaming internals (quantize_plan.cpp): alias-resolved
  // storage root in the quantized program (the input maps to its u8
  // staging value), zero-point ring initialization, and the int8 step
  // executor.
  std::size_t quant_root(ValueId v) const;
  void bind_stream_quantized(ExecutionContext& ctx) const;
  void step_quantized(const float* input, float* output,
                      ExecutionContext& ctx) const;

  /// Observation hook for calibration and per-layer diagnostics: invoked
  /// once for the network input and once after each op, with the value id
  /// and its (dense-view) float data — `data` points at (row 0, t = 0),
  /// rows are n * channels, each `steps` long and `stride` floats apart.
  /// The quantized executor dequantizes into a scratch row before calling.
  using ValueHook =
      std::function<void(ValueId, const float* data, index_t rows,
                         index_t steps, index_t stride)>;
  Tensor forward_fp32(const Tensor& input, ExecutionContext& ctx,
                      const ValueHook* hook) const;
  Tensor forward_quantized(const Tensor& input, ExecutionContext& ctx,
                           const ValueHook* hook) const;

  std::vector<detail::Op> ops_;
  std::vector<detail::Value> values_;
  std::vector<ValueId> root_;       // alias-resolved storage id per value
  std::vector<index_t> offsets_;    // per-sample arena offset per root
  std::vector<index_t> lead_;       // zeroed pad floats before each row
  std::vector<index_t> slack_;      // readable floats after each row
  std::vector<index_t> stride_;     // row stride = lead + steps + slack
  BlockTable<float> params_;        // shared packed weight/bias blocks
  ValueId input_ = -1;
  ValueId output_ = -1;
  ValueId input_stage_ = -1;        // padded copy of the input, if needed
  index_t arena_per_sample_ = 0;
  // Streaming layout (valid when streamable_): one history ring per conv
  // op of (k-1)*dilation+1 slots per input channel, one single-step
  // C-vector per storage root.
  bool streamable_ = false;
  std::vector<index_t> ring_off_;   // per op; -1 for non-conv ops
  index_t ring_floats_ = 0;
  std::vector<index_t> val_off_;    // per value root; -1 for aliases
  index_t val_floats_ = 0;
  // Quantized program (valid when quantized_): per-op lowering plus the
  // byte-arena layout — u8 activations in channel-group-interleaved rows,
  // q_lead_ zero-point-filled steps of causal padding per conv input row.
  // Built by QuantizedCompiler; the fp32 section above stays intact for
  // reference runs and per-layer comparisons.
  bool quantized_ = false;
  std::vector<detail::QuantOp> qops_;      // parallel to ops_
  BlockTable<std::int8_t> qweights_;       // shared packed s8 weight blocks
  std::vector<float> qconsts_;             // requantize m / b vectors
  std::vector<quant::QuantParams> qvalue_;  // per value root
  std::vector<index_t> q_lead_;            // steps, per value root
  std::vector<index_t> q_stride_;          // steps, per value root
  std::vector<index_t> q_off_;             // arena bytes/sample, per root
  ValueId q_stage_ = -1;                   // u8 staging copy of the input
  index_t q_arena_bytes_ = 0;
  // Input staging kernel of the quantized program, bound at lowering time.
  nn::kernels::StageI8Fn qstage_fn_ = nullptr;
  const nn::kernels::KernelMeta* qstage_meta_ = nullptr;
  // Quantized streaming layout (valid when streamable_ && quantized_):
  // one u8 history ring per conv op — quant_groups(c_in) group rows of
  // (k-1)*dilation+1 interleaved quad slots — and one single-step u8 quad
  // vector per value root. All offsets/sizes in bytes.
  std::vector<index_t> q_ring_off_;        // per op; -1 for non-conv ops
  index_t q_ring_bytes_ = 0;
  std::vector<index_t> q_val_off_;         // per value root; -1 otherwise
  index_t q_val_bytes_ = 0;
  double q_error_bound_ = 0.0;
  double q_error_estimate_ = 0.0;
  std::vector<double> q_value_bound_;      // per value root
};

/// Records a network as a sequence of fused inference ops, then plans and
/// packages it. Single use: compile() consumes the builder.
class NetBuilder {
 public:
  /// Declares the network input: `channels` x `steps` per sample. Must be
  /// called exactly once, first.
  ValueId input(index_t channels, index_t steps);
  /// y = conv(x) [+ fused ReLU]. Weights/bias are copied into the plan.
  ValueId conv(ValueId x, const FrozenConv& c, bool fuse_relu);
  /// y = x W^T + b [+ fused ReLU] on a flat (steps == 1) value.
  ValueId linear(ValueId x, const Tensor& weight, const Tensor& bias,
                 bool fuse_relu);
  ValueId avg_pool(ValueId x, index_t kernel, index_t stride);
  /// Elementwise y = a + b [+ fused ReLU] (the residual join).
  ValueId add(ValueId a, ValueId b, bool fuse_relu);
  /// (C, T) -> (C*T, 1). Pure aliasing: row-major layout makes the
  /// flattened view the same bytes, so this costs nothing at run time.
  ValueId flatten(ValueId x);

  /// Plans the arena (liveness over the recorded ops) and returns the
  /// executable plan whose result is `output`. When `pool` is given, every
  /// packed weight/bias block is interned through it, so plans sharing a
  /// pool share physical storage for bytewise-identical layers.
  CompiledPlan compile(ValueId output, WeightPool* pool = nullptr) &&;

 private:
  ValueId new_value(index_t channels, index_t steps, ValueId alias_of = -1);
  const detail::Value& value(ValueId v) const;
  index_t push_params(const float* data, index_t count);

  std::vector<detail::Op> ops_;
  std::vector<detail::Value> values_;
  BlockTable<float> params_;
  ValueId input_ = -1;
};

}  // namespace pit::runtime
