// int8 lowering of compiled plans: calibrate -> lower -> execute.
//
// The paper's deployed artifact is an int8 TCN (PIT-searched networks are
// quantized and shipped to GAP8 through NN-Tool, Table III); this module
// is the executable counterpart of that flow for the compiled runtime.
// quantize_plan() takes a frozen fp32 CompiledPlan and:
//
//   calibrate — runs the fp32 plan over a calibration loader, feeding
//               every intermediate activation through one min/max
//               quant::RangeObserver per value, over at most
//               kMaxCalibrationBatches batches,
//   lower     — quantizes each op: per-output-channel symmetric s8
//               weights (recovered from the already-BN-folded fp32
//               params), per-tensor affine u8 activations, and one float
//               multiplier/bias pair per output channel into which the
//               bias, the input zero-point correction, and the output
//               zero point are folded — the int8 kernels only compute
//               clamp(round(m * acc + b)); ReLU folds into the clamp,
//   plan      — every activation gets a byte-arena offset from the same
//               liveness planner as the fp32 arena (rows are
//               channel-group-interleaved u8 with materialized zero-point
//               causal padding),
//   execute   — CompiledPlan::forward() dispatches to the int8 program
//               automatically; ops feeding the plan output dequantize in
//               their store, so callers keep float tensors end to end.
//
// The returned plan is a superset of the input plan: the fp32 program is
// retained for reference runs (compare_quantized_layers) and all public
// geometry queries keep working. Execution obeys the same thread-safety
// contract — immutable plan, per-thread ExecutionContext (whose byte
// arena backs the quantized program) — so serve::InferenceServer serves a
// quantized plan unchanged. Streamable plans keep streaming after the
// lowering: step() runs the int8 program over per-conv u8 ring-buffer
// history (zero-point-filled leads as causal padding) and matches the
// batched int8 forward's columns bit-exactly.
//
// Error accounting: the lowering propagates two per-value figures —
//   - a worst-case bound (interval arithmetic over rounding and weight
//     quantization), guaranteed for inputs
//     inside the calibrated range but exponentially loose in depth, and
//   - an RMS estimate (independent-rounding model), the realistic error
//     magnitude.
// Both are exposed on the plan; the parity tests assert the hard bound
// and use a few-sigma multiple of the estimate as the tightness check.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "data/dataloader.hpp"
#include "runtime/compile_models.hpp"
#include "runtime/compiled_net.hpp"

namespace pit::runtime {

/// Calibration batches consumed from the loader (clamped to its size).
inline constexpr index_t kMaxCalibrationBatches = 32;

struct QuantizeOptions {
  /// Optional shared intern pool for the packed s8 weight blocks (weight
  /// quantization depends only on the fp32 weights, so identical layers
  /// dedup across plan versions). Must outlive the returned plan's use of
  /// newly-interned blocks' siblings; nullptr keeps blocks private.
  WeightPool* pool = nullptr;
};

/// Lowers a compiled fp32 plan to the int8 program, calibrating
/// activation ranges over `calib` (whose example inputs must match the
/// plan's (C, T) input). Deterministic: the same plan and calibration
/// stream produce bit-identical scales and outputs. Throws for plans with
/// strided convs (the TCN models compiled here have none).
std::shared_ptr<const CompiledPlan> quantize_plan(
    const CompiledPlan& plan, const data::DataLoader& calib,
    const QuantizeOptions& options = {});

/// compile_plan() + quantize_plan() in one step: the paper's
/// search -> freeze -> int8 deployment arc for either reference model.
std::shared_ptr<const CompiledPlan> compile_quantized(
    const models::TempoNet& model, const data::DataLoader& calib,
    const QuantizeOptions& options = {});
std::shared_ptr<const CompiledPlan> compile_quantized(
    const models::ResTCN& model, index_t input_steps,
    const data::DataLoader& calib, const QuantizeOptions& options = {});

/// Per-op accuracy of the int8 program against the fp32 program of the
/// same plan, on one input batch: runs both and compares every
/// intermediate activation (dequantized) against the float reference.
struct QuantLayerDelta {
  std::size_t op = 0;         // op index in plan order
  std::string desc;           // "conv 4->32 k3 d2" style
  double max_abs_err = 0.0;
  double mean_abs_err = 0.0;
  double bound = 0.0;         // worst-case bound for this value
};
std::vector<QuantLayerDelta> compare_quantized_layers(
    const CompiledPlan& quantized, const Tensor& input);

}  // namespace pit::runtime
