// int8 quantized compiled runtime: calibrate -> lower -> execute parity
// against the fp32 compiled plan, within the analytic quantization error
// bound, plus calibration determinism and serving integration.
#include "runtime/quantize_plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "data/dataloader.hpp"
#include "data/dataset.hpp"
#include "models/restcn.hpp"
#include "models/temponet.hpp"
#include "quant/observer.hpp"
#include "serve/inference_server.hpp"
#include "server_requests.hpp"
#include "tensor/error.hpp"

namespace pit::runtime {
namespace {

float max_abs_diff(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.shape(), b.shape());
  float worst = 0.0F;
  for (index_t i = 0; i < a.numel(); ++i) {
    worst = std::max(worst, std::abs(a.data()[i] - b.data()[i]));
  }
  return worst;
}

/// Calibration loader over `count` random (channels, steps) examples. The
/// parity tests evaluate on the same tensors they calibrate with, so the
/// observed ranges cover the evaluation data exactly and the analytic
/// error bound applies unconditionally.
data::TensorDataset random_dataset(index_t count, index_t channels,
                                   index_t steps, RandomEngine& rng) {
  std::vector<Tensor> inputs;
  std::vector<Tensor> targets;
  for (index_t i = 0; i < count; ++i) {
    inputs.push_back(Tensor::randn(Shape{channels, steps}, rng));
    targets.push_back(Tensor::zeros(Shape{1}));
  }
  return data::TensorDataset(std::move(inputs), std::move(targets));
}

Tensor stack_all(const data::DataLoader& loader) {
  std::vector<Tensor> batches;
  std::vector<Tensor> rows;
  for (index_t b = 0; b < loader.num_batches(); ++b) {
    Tensor inputs = loader.batch(b).inputs;
    for (index_t i = 0; i < inputs.dim(0); ++i) {
      Tensor row = Tensor::empty(Shape{inputs.dim(1), inputs.dim(2)});
      std::copy(inputs.data() + i * row.numel(),
                inputs.data() + (i + 1) * row.numel(), row.data());
      rows.push_back(row);
    }
  }
  return data::stack_examples(rows);
}

/// Asserts quantized-vs-fp32 parity on one input batch: the hard analytic
/// bound must hold, and the error must stay within a few sigma of the RMS
/// model (the tightness check — a vacuous bound alone would hide a broken
/// lowering).
void expect_parity(const CompiledPlan& fp32, const CompiledPlan& quantized,
                   const Tensor& x) {
  ExecutionContext fctx;
  ExecutionContext qctx;
  const Tensor want = fp32.forward(x, fctx);
  const Tensor got = quantized.forward(x, qctx);
  const float err = max_abs_diff(got, want);
  const double bound = quantized.quant_error_bound();
  EXPECT_LE(err, bound * 1.02 + 1e-3)
      << "int8 output violates the analytic worst-case bound";
  const double estimate = quantized.quant_error_estimate();
  EXPECT_LE(err, 10.0 * estimate + 1e-3)
      << "int8 output error far above the RMS model (bound " << bound
      << ", estimate " << estimate << ")";
}

// ---- Single-op adversarial shapes ---------------------------------------

struct ConvCase {
  index_t c_in, c_out, k, dilation, steps;
};

TEST(QuantizedConvPlan, ParityAcrossAdversarialShapes) {
  // Ragged channel quads (c % 4), ragged co tiles (c_out % 16), long
  // dilated leads, k = 1 pointwise, and steps below one time tile.
  const std::vector<ConvCase> cases = {
      {3, 5, 1, 1, 7},   {4, 16, 3, 2, 32},  {6, 17, 5, 3, 31},
      {1, 1, 7, 4, 40},  {13, 8, 3, 8, 64},  {5, 20, 2, 1, 5},
  };
  RandomEngine rng(701);
  for (const ConvCase& c : cases) {
    nn::Conv1d conv(c.c_in, c.c_out, c.k,
                    {.dilation = c.dilation, .stride = 1, .bias = true},
                    rng);
    NetBuilder b;
    ValueId x = b.input(c.c_in, c.steps);
    // ReLU on one of the two convs so both store epilogues are covered.
    ValueId h = b.conv(x, freeze_conv(conv), /*fuse_relu=*/true);
    nn::Conv1d conv2(c.c_out, c.c_out, 1, {.dilation = 1, .stride = 1,
                                           .bias = false},
                     rng);
    ValueId y = b.conv(h, freeze_conv(conv2), /*fuse_relu=*/false);
    const auto plan =
        std::make_shared<const CompiledPlan>(std::move(b).compile(y));

    data::TensorDataset dataset = random_dataset(12, c.c_in, c.steps, rng);
    data::DataLoader loader(dataset, 4, /*shuffle=*/false);
    const auto qplan = quantize_plan(*plan, loader);
    EXPECT_TRUE(qplan->quantized());
    EXPECT_TRUE(qplan->streamable());  // stride-1 convs: streams as int8
    // Evaluate strictly inside the calibrated range (slices of the calib
    // rows), across batch sizes including 1 (per-sample arena scaling).
    const Tensor all = stack_all(loader);
    expect_parity(*plan, *qplan, all);
    for (const index_t n : {index_t{1}, index_t{3}}) {
      Tensor in = Tensor::empty(Shape{n, c.c_in, c.steps});
      std::copy(all.data(), all.data() + in.numel(), in.data());
      expect_parity(*plan, *qplan, in);
    }
  }
}

// ---- Whole-model parity ---------------------------------------------------

models::TempoNetConfig small_temponet_config() {
  models::TempoNetConfig cfg;
  cfg.input_length = 64;
  cfg.channel_scale = 0.25;
  return cfg;
}

TEST(QuantizedTempoNet, OutputWithinAnalyticBoundAcrossBatchSizes) {
  RandomEngine rng(709);
  const auto cfg = small_temponet_config();
  models::TempoNet model(
      cfg, models::dilated_conv_factory(rng, {2, 2, 1, 4, 4, 8, 8}), rng);
  model.train();
  model.forward(Tensor::randn(Shape{8, 4, 64}, rng));
  model.eval();

  const auto plan = compile_plan(model);
  data::TensorDataset dataset = random_dataset(24, 4, 64, rng);
  data::DataLoader loader(dataset, 8, /*shuffle=*/false);
  const auto qplan = compile_quantized(model, loader);

  const Tensor all = stack_all(loader);
  expect_parity(*plan, *qplan, all);
  // Odd batch sizes exercise the per-sample arena scaling.
  ExecutionContext ctx;
  for (const index_t n : {index_t{1}, index_t{5}, index_t{17}}) {
    Tensor x = Tensor::empty(Shape{n, 4, 64});
    std::copy(all.data(), all.data() + x.numel(), x.data());
    expect_parity(*plan, *qplan, x);
    (void)ctx;
  }
}

TEST(QuantizedResTcn, ParityWithOddChannelsAndSteps) {
  RandomEngine rng(719);
  models::ResTcnConfig cfg;
  cfg.input_channels = 6;
  cfg.output_channels = 5;   // ragged co tile in the head
  cfg.hidden_channels = 10;  // ragged channel quads everywhere
  models::ResTCN model(
      cfg, models::dilated_conv_factory(rng, {1, 2, 4, 8, 16, 2, 1, 32}),
      rng);
  model.eval();
  const index_t steps = 31;  // below one time tile after the lead
  const auto plan = compile_plan(model, steps);
  data::TensorDataset dataset = random_dataset(16, 6, steps, rng);
  data::DataLoader loader(dataset, 4, /*shuffle=*/false);
  const auto qplan = compile_quantized(model, steps, loader);
  expect_parity(*plan, *qplan, stack_all(loader));
}

TEST(QuantizedPlan, PerLayerDeltasStayWithinPerValueBounds) {
  RandomEngine rng(727);
  const auto cfg = small_temponet_config();
  models::TempoNet model(
      cfg, models::dilated_conv_factory(rng, {2, 2, 1, 4, 4, 8, 8}), rng);
  model.train();
  model.forward(Tensor::randn(Shape{8, 4, 64}, rng));
  model.eval();
  data::TensorDataset dataset = random_dataset(16, 4, 64, rng);
  data::DataLoader loader(dataset, 8, /*shuffle=*/false);
  const auto qplan = compile_quantized(model, loader);

  const auto deltas = compare_quantized_layers(*qplan, stack_all(loader));
  ASSERT_EQ(deltas.size(), qplan->num_ops());
  for (const auto& d : deltas) {
    EXPECT_GT(d.bound, 0.0) << d.desc;
    EXPECT_LE(d.max_abs_err, d.bound * 1.02 + 1e-3)
        << "op #" << d.op << " (" << d.desc << ")";
    EXPECT_LE(d.mean_abs_err, d.max_abs_err);
  }
}

// ---- Determinism -----------------------------------------------------------

TEST(QuantizedPlan, CalibrationIsBitIdenticalAcrossRuns) {
  RandomEngine rng(733);
  const auto cfg = small_temponet_config();
  models::TempoNet model(
      cfg, models::dilated_conv_factory(rng, {2, 2, 1, 4, 4, 8, 8}), rng);
  model.train();
  model.forward(Tensor::randn(Shape{8, 4, 64}, rng));
  model.eval();
  data::TensorDataset dataset = random_dataset(16, 4, 64, rng);
  data::DataLoader loader(dataset, 8, /*shuffle=*/false);

  const auto a = compile_quantized(model, loader);
  const auto b = compile_quantized(model, loader);
  const auto& pa = a->activation_quant_params();
  const auto& pb = b->activation_quant_params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].scale, pb[i].scale) << "value " << i;  // bit-identical
    EXPECT_EQ(pa[i].zero_point, pb[i].zero_point) << "value " << i;
  }

  Tensor x = stack_all(loader);
  ExecutionContext ca;
  ExecutionContext cb;
  const Tensor ya = a->forward(x, ca);
  const Tensor yb = b->forward(x, cb);
  ASSERT_EQ(ya.numel(), yb.numel());
  EXPECT_EQ(std::memcmp(ya.data(), yb.data(),
                        static_cast<std::size_t>(ya.numel()) * sizeof(float)),
            0);
}

TEST(QuantizedPlan, RepeatedForwardIsBitwiseStable) {
  RandomEngine rng(739);
  models::ResTcnConfig cfg;
  cfg.input_channels = 6;
  cfg.output_channels = 6;
  cfg.hidden_channels = 8;
  models::ResTCN model(
      cfg, models::dilated_conv_factory(rng, {1, 1, 2, 2, 4, 4, 8, 8}), rng);
  model.eval();
  const auto plan = compile_plan(model, 16);
  data::TensorDataset dataset = random_dataset(8, 6, 16, rng);
  data::DataLoader loader(dataset, 4, /*shuffle=*/false);
  const auto qplan = quantize_plan(*plan, loader);
  ExecutionContext ctx;
  Tensor x = stack_all(loader);
  Tensor a = qplan->forward(x, ctx);
  Tensor b = qplan->forward(x, ctx);  // byte-arena reuse leaves no residue
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<std::size_t>(a.numel()) * sizeof(float)),
            0);
}

// ---- Integration with the serving layer -----------------------------------

TEST(QuantizedPlan, InferenceServerServesQuantizedPlanUnchanged) {
  RandomEngine rng(743);
  const auto cfg = small_temponet_config();
  models::TempoNet model(
      cfg, models::dilated_conv_factory(rng, {2, 2, 1, 4, 4, 8, 8}), rng);
  model.train();
  model.forward(Tensor::randn(Shape{8, 4, 64}, rng));
  model.eval();
  data::TensorDataset dataset = random_dataset(16, 4, 64, rng);
  data::DataLoader loader(dataset, 8, /*shuffle=*/false);
  const auto qplan = compile_quantized(model, loader);

  ExecutionContext ctx;
  const Tensor all = stack_all(loader);
  const Tensor want = qplan->forward(all, ctx);

  serve::ServerOptions options;
  options.threads = 2;
  options.max_batch = 4;
  serve::InferenceServer server(qplan, options);
  std::vector<std::future<Tensor>> futures;
  for (index_t i = 0; i < all.dim(0); ++i) {
    Tensor sample = Tensor::empty(Shape{4, 64});
    std::copy(all.data() + i * sample.numel(),
              all.data() + (i + 1) * sample.numel(), sample.data());
    futures.push_back(test::submit_future(server, sample));
  }
  for (index_t i = 0; i < all.dim(0); ++i) {
    const Tensor got = futures[static_cast<std::size_t>(i)].get();
    for (index_t j = 0; j < got.numel(); ++j) {
      EXPECT_FLOAT_EQ(got.data()[j], want.data()[i * got.numel() + j]);
    }
  }
  server.shutdown();
}

TEST(QuantizedPlan, StreamabilitySurvivesLoweringAndGeometryQueriesWork) {
  RandomEngine rng(751);
  models::ResTcnConfig cfg;
  cfg.input_channels = 4;
  cfg.output_channels = 4;
  cfg.hidden_channels = 8;
  models::ResTCN model(
      cfg, models::dilated_conv_factory(rng, {1, 1, 2, 2, 4, 4, 8, 8}), rng);
  model.eval();
  const auto plan = compile_plan(model, 16);
  ASSERT_TRUE(plan->streamable());
  data::TensorDataset dataset = random_dataset(8, 4, 16, rng);
  data::DataLoader loader(dataset, 4, /*shuffle=*/false);
  const auto qplan = quantize_plan(*plan, loader);
  EXPECT_TRUE(qplan->streamable());  // the int8 program streams too
  ExecutionContext ctx;
  const Tensor out = qplan->step(Tensor::zeros(Shape{4}), ctx);
  EXPECT_EQ(out.rank(), 1);
  EXPECT_EQ(out.dim(0), 4);
  EXPECT_EQ(ctx.stream_position(), 1u);
  EXPECT_EQ(qplan->input_channels(), plan->input_channels());
  EXPECT_EQ(qplan->output_steps(), plan->output_steps());
  EXPECT_EQ(qplan->num_ops(), plan->num_ops());
  EXPECT_GT(qplan->quant_weight_bytes(), 0);
  EXPECT_GT(qplan->quant_arena_bytes_per_sample(), 0);
  // The int8 arena is (at least) 4x denser than the fp32 float arena.
  EXPECT_LE(qplan->quant_arena_bytes_per_sample(),
            plan->arena_floats_per_sample() * 4);
  const std::string text = qplan->summary();
  EXPECT_NE(text.find("int8 program"), std::string::npos);
}

// ---- Quantized streaming ---------------------------------------------------

/// Steps the quantized plan through the (1, C, T) sequence `x` and asserts
/// every step equals the matching column of the batched int8 forward —
/// bit-exactly: integer accumulation is order-free and the step kernels
/// share the batched kernels' requantize arithmetic.
void expect_stream_bit_exact(const CompiledPlan& qplan, const Tensor& x) {
  ASSERT_TRUE(qplan.streamable());
  const index_t c = qplan.input_channels();
  const index_t co = qplan.output_channels();
  const index_t steps = x.dim(2);
  ExecutionContext bctx;
  const Tensor full = qplan.forward(x, bctx);
  ExecutionContext sctx;
  std::vector<float> in(static_cast<std::size_t>(c));
  std::vector<float> out(static_cast<std::size_t>(co));
  for (index_t t = 0; t < steps; ++t) {
    for (index_t ch = 0; ch < c; ++ch) {
      in[static_cast<std::size_t>(ch)] = x.data()[ch * steps + t];
    }
    qplan.step(in.data(), out.data(), sctx);
    for (index_t ch = 0; ch < co; ++ch) {
      ASSERT_EQ(out[static_cast<std::size_t>(ch)],
                full.data()[ch * steps + t])
          << "channel " << ch << " at step " << t << " of " << steps;
    }
  }
  EXPECT_EQ(sctx.stream_position(), static_cast<std::uint64_t>(steps));
}

TEST(QuantizedStreaming, StepsMatchBatchedForwardBitExactAcrossShapes) {
  // Odd channels / ragged quads and co tiles, k*d spans up to (and past)
  // the sequence length, k = 1 pointwise, multi-wrap rings.
  const std::vector<ConvCase> cases = {
      {3, 5, 1, 1, 7},   {4, 16, 3, 2, 32},  {6, 17, 5, 3, 31},
      {1, 1, 7, 4, 40},  {13, 8, 3, 8, 64},  {5, 20, 2, 1, 5},
      {5, 7, 5, 9, 20},  {8, 32, 9, 4, 96},
  };
  RandomEngine rng(787);
  for (const ConvCase& c : cases) {
    nn::Conv1d conv(c.c_in, c.c_out, c.k,
                    {.dilation = c.dilation, .stride = 1, .bias = true},
                    rng);
    NetBuilder b;
    ValueId x = b.input(c.c_in, c.steps);
    ValueId h = b.conv(x, freeze_conv(conv), /*fuse_relu=*/true);
    nn::Conv1d conv2(c.c_out, c.c_out, 1, {.dilation = 1, .stride = 1,
                                           .bias = false},
                     rng);
    ValueId y = b.conv(h, freeze_conv(conv2), /*fuse_relu=*/false);
    const auto plan =
        std::make_shared<const CompiledPlan>(std::move(b).compile(y));
    ASSERT_TRUE(plan->streamable());

    data::TensorDataset dataset = random_dataset(12, c.c_in, c.steps, rng);
    data::DataLoader loader(dataset, 4, /*shuffle=*/false);
    const auto qplan = quantize_plan(*plan, loader);
    ASSERT_TRUE(qplan->streamable());
    Tensor in = Tensor::empty(Shape{1, c.c_in, c.steps});
    const Tensor all = stack_all(loader);
    std::copy(all.data(), all.data() + in.numel(), in.data());
    expect_stream_bit_exact(*qplan, in);
  }
}

TEST(QuantizedStreaming, ResTcnWithResidualAddsStreamsBitExact) {
  RandomEngine rng(797);
  models::ResTcnConfig cfg;
  cfg.input_channels = 6;
  cfg.output_channels = 5;   // ragged co tile in the head
  cfg.hidden_channels = 10;  // ragged channel quads everywhere
  models::ResTCN model(
      cfg, models::dilated_conv_factory(rng, {1, 2, 4, 8, 16, 2, 1, 32}),
      rng);
  model.eval();
  const index_t steps = 72;  // several ring wraps at every dilation
  const auto plan = compile_plan(model, steps);
  data::TensorDataset dataset = random_dataset(8, 6, steps, rng);
  data::DataLoader loader(dataset, 4, /*shuffle=*/false);
  const auto qplan = compile_quantized(model, steps, loader);
  Tensor in = Tensor::empty(Shape{1, 6, steps});
  const Tensor all = stack_all(loader);
  std::copy(all.data(), all.data() + in.numel(), in.data());
  expect_stream_bit_exact(*qplan, in);
  // And the streamed output still tracks the fp32 plan within the bound.
  ExecutionContext fctx;
  ExecutionContext qctx;
  const Tensor want = plan->forward(in, fctx);
  const Tensor got = qplan->forward(in, qctx);
  EXPECT_LE(max_abs_diff(got, want),
            qplan->quant_error_bound() * 1.02 + 1e-3);
}

TEST(QuantizedStreaming, ResetRestoresZeroPointPadding) {
  RandomEngine rng(809);
  models::ResTcnConfig cfg;
  cfg.input_channels = 4;
  cfg.output_channels = 4;
  cfg.hidden_channels = 8;
  models::ResTCN model(
      cfg, models::dilated_conv_factory(rng, {1, 1, 2, 2, 4, 4, 8, 8}), rng);
  model.eval();
  const auto plan = compile_plan(model, 16);
  data::TensorDataset dataset = random_dataset(8, 4, 16, rng);
  data::DataLoader loader(dataset, 4, /*shuffle=*/false);
  const auto qplan = quantize_plan(*plan, loader);
  ExecutionContext ctx;
  Tensor in = Tensor::randn(Shape{4}, rng);
  const Tensor first = qplan->step(in, ctx);
  qplan->step(Tensor::randn(Shape{4}, rng), ctx);  // pollute the history
  ctx.reset_stream();
  EXPECT_EQ(ctx.stream_position(), 0u);
  const Tensor again = qplan->step(in, ctx);
  EXPECT_EQ(max_abs_diff(first, again), 0.0F)
      << "reset must restore the zero-point causal padding bit-exactly";
}

TEST(QuantizedStreaming, OneContextAlternatesBetweenDtypes) {
  // A context that streamed the fp32 plan rebinds cleanly to the int8
  // plan of the same network (and back) — the state is per-plan.
  RandomEngine rng(811);
  models::ResTcnConfig cfg;
  cfg.input_channels = 4;
  cfg.output_channels = 4;
  cfg.hidden_channels = 8;
  models::ResTCN model(
      cfg, models::dilated_conv_factory(rng, {1, 1, 2, 2, 4, 4, 8, 8}), rng);
  model.eval();
  const auto plan = compile_plan(model, 16);
  data::TensorDataset dataset = random_dataset(8, 4, 16, rng);
  data::DataLoader loader(dataset, 4, /*shuffle=*/false);
  const auto qplan = quantize_plan(*plan, loader);
  ExecutionContext ctx;
  Tensor in = Tensor::randn(Shape{4}, rng);
  const Tensor f0 = plan->step(in, ctx);     // fp32 binding
  ctx.reset_stream();
  const Tensor q0 = qplan->step(in, ctx);    // rebind to int8
  ctx.reset_stream();
  const Tensor f1 = plan->step(in, ctx);     // and back
  EXPECT_EQ(max_abs_diff(f0, f1), 0.0F);
  EXPECT_LE(max_abs_diff(q0, f0),
            static_cast<float>(qplan->quant_error_bound()) * 1.02F + 1e-3F);
}

TEST(QuantizedPlan, OpInfosMatchThePlanGeometry) {
  RandomEngine rng(757);
  const auto cfg = small_temponet_config();
  models::TempoNet model(
      cfg, models::dilated_conv_factory(rng, {2, 2, 1, 4, 4, 8, 8}), rng);
  model.eval();
  const auto plan = compile_plan(model);
  const auto infos = plan->op_infos();
  ASSERT_EQ(infos.size(), plan->num_ops());
  index_t convs = 0;
  index_t linears = 0;
  for (const auto& info : infos) {
    if (info.kind == detail::OpKind::kConv) {
      ++convs;
      EXPECT_EQ(info.macs(),
                info.t_out * info.c_out * info.c_in * info.k);
    }
    if (info.kind == detail::OpKind::kLinear) {
      ++linears;
      EXPECT_EQ(info.macs(), info.c_in * info.c_out);
    }
  }
  EXPECT_EQ(convs, 7);
  EXPECT_EQ(linears, 2);
}

// ---- Observers -------------------------------------------------------------

TEST(RangeObserver, MinMaxTracksAcrossBatches) {
  quant::RangeObserver obs;
  const std::vector<float> a = {-1.0F, 0.5F};
  const std::vector<float> b = {3.0F, -0.25F};
  obs.observe(a);
  obs.observe(b);
  EXPECT_FLOAT_EQ(obs.min(), -1.0F);
  EXPECT_FLOAT_EQ(obs.max(), 3.0F);
  const quant::QuantParams p = obs.affine_u8_params();
  EXPECT_GE(p.zero_point, 0);
  EXPECT_LE(p.zero_point, 255);
  EXPECT_NEAR(p.scale, 4.0F / 255.0F, 1e-6);
}

}  // namespace
}  // namespace pit::runtime
