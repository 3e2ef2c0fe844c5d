// Standalone layer probes for the traced run: each public entry point is
// timed on its own, on the served networks and at the shapes the CNN's
// protection plan uses. Every repetition runs inside a harness Span named
// after the metric it feeds, so the exported trace carries the same
// timings next to the library's own spans.
#include <algorithm>
#include <cmath>
#include <functional>
#include <iostream>
#include <numeric>
#include <set>
#include <string>

#include "bench.h"
#include "linalg/solve.h"
#include "memory/fault_injector.h"
#include "milr/config.h"
#include "milr/plan.h"
#include "milr/protector.h"
#include "support/parallel.h"
#include "support/prng.h"

namespace servebench {
namespace {

using milr::core::SolveMode;

// Runs `fn` inside a Span named `metric` until both `min_reps` repetitions
// and `budget_s` seconds are used (or `max_reps` is reached); returns the
// median repetition in milliseconds, and the mean in `mean_ms` if given.
double TimeMs(const std::string& metric, const std::function<void()>& fn,
              std::size_t min_reps = 5, double budget_s = 0.25,
              std::size_t max_reps = 200, double* mean_ms = nullptr) {
  const char* name = Intern(metric);
  std::vector<double> ms;
  const double began = NowSeconds();
  while (ms.size() < max_reps &&
         (ms.size() < min_reps || NowSeconds() - began < budget_s)) {
    const double t0 = NowSeconds();
    {
      Span span(name, ms.size());
      fn();
    }
    ms.push_back((NowSeconds() - t0) * 1e3);
  }
  if (mean_ms != nullptr) {
    *mean_ms = std::accumulate(ms.begin(), ms.end(), 0.0) /
               static_cast<double>(ms.size());
  }
  return Median(ms);
}

Tensor Stack(const std::vector<Tensor>& inputs, std::size_t batch,
             const milr::Shape& shape) {
  std::vector<std::size_t> dims{batch};
  for (std::size_t a = 0; a < shape.rank(); ++a) dims.push_back(shape[a]);
  Tensor out{milr::Shape(dims)};
  const std::size_t stride = shape.NumElements();
  for (std::size_t s = 0; s < batch; ++s) {
    std::copy_n(inputs[s % inputs.size()].data(), stride,
                out.data() + s * stride);
  }
  return out;
}

// FLOPs of one sample through a conv or dense layer (0 for other kinds).
double LayerFlops(const nn::Model& model, std::size_t i) {
  const nn::Layer& layer = model.layer(i);
  if (layer.kind() == nn::LayerKind::kDense) {
    const auto& d = static_cast<const nn::DenseLayer&>(layer);
    return 2.0 * static_cast<double>(d.in_features() * d.out_features());
  }
  if (layer.kind() == nn::LayerKind::kConv2D) {
    const auto& c = static_cast<const nn::Conv2DLayer&>(layer);
    const double g = static_cast<double>(c.OutputExtent(model.ShapeAt(i)[0]));
    return 2.0 * g * g * static_cast<double>(c.PatchLength()) *
           static_cast<double>(c.out_channels());
  }
  return 0.0;
}

std::string LayerName(const nn::Model& model, std::size_t i) {
  return "L" + std::to_string(i) + "_" +
         nn::LayerKindName(model.layer(i).kind());
}

// PredictBatch per tier at batch 1 and 8 on one network; the serving tier
// at batch 8 also yields the per-layer profile (Model::profiler()) and the
// self time of PredictBatch: its mean time minus its layers' mean time.
void ProbePredict(Net net, nn::KernelConfig serving_tier, const Seeds& seeds,
                  MetricSet& out, std::map<std::string, double>& times) {
  nn::Model model = BuildNet(net, seeds.net);
  const std::vector<Tensor> inputs = MakeInputs(model, 8, seeds.inputs + 1);
  for (const auto tier : {nn::KernelConfig::kExact, nn::KernelConfig::kFast,
                          nn::KernelConfig::kInt8}) {
    model.set_kernel_config(tier);  // autotune and packing: not timed
    for (const std::size_t batch : {1, 8}) {
      const Tensor stacked = Stack(inputs, batch, model.input_shape());
      model.PredictBatch(Tensor(stacked));  // warm caches
      const auto before = model.profiler().ReadAll();
      const std::string name = std::string("nn.predict_ms.") + NetName(net) +
                               "." + nn::KernelConfigName(tier) + ".b" +
                               std::to_string(batch);
      double mean_ms = 0.0;
      const double ms = TimeMs(
          name, [&] { model.PredictBatch(Tensor(stacked)); }, 5, 0.25, 200,
          &mean_ms);
      out.Add(name, ms, "ms");
      times[name] = ms;
      if (tier != serving_tier || batch != 8) continue;
      const auto after = model.profiler().ReadAll();
      double layers_ms = 0.0;
      for (std::size_t i = 0; i < model.LayerCount(); ++i) {
        const double calls =
            static_cast<double>(after[i].calls - before[i].calls);
        if (calls == 0.0) continue;
        const double ns =
            static_cast<double>(after[i].nanos - before[i].nanos) / calls;
        layers_ms += ns * 1e-6;
        const double flops = LayerFlops(model, i) * 8.0;
        if (flops == 0.0) continue;
        const std::string layer = std::string(NetName(net)) + "." +
                                  LayerName(model, i);
        out.Add("nn.layer_ms." + layer, ns * 1e-6, "ms");
        out.Add("nn.layer_gflops." + layer, flops / ns, "GFLOP/s");
      }
      out.Add(std::string("nn.predict_self_ms.") + NetName(net) + "." +
                  nn::KernelConfigName(tier) + ".b8",
              std::max(0.0, mean_ms - layers_ms), "ms");
    }
  }
}

// The solver shapes a whole-layer repair of the CNN reaches, from its
// protection plan: least-squares systems A (rows x cols) with `rhs` right-hand
// sides per conv layer, and the square LU sizes behind them (an
// underdetermined least-squares solve factors A*A^T, rows x rows).
struct LstsqShape {
  std::size_t layer, rows, cols, rhs;
};
struct SolveShapes {
  std::set<std::size_t> lu;
  std::vector<LstsqShape> lstsq;
};

SolveShapes ShapesFromPlan(const nn::Model& model,
                           const milr::core::ProtectionPlan& plan) {
  SolveShapes shapes;
  for (std::size_t i = 0; i < model.LayerCount(); ++i) {
    if (model.layer(i).kind() != nn::LayerKind::kConv2D) continue;
    const auto& c = static_cast<const nn::Conv2DLayer&>(model.layer(i));
    const std::size_t gg = plan.layers[i].conv_g * plan.layers[i].conv_g;
    const std::size_t unknowns = c.PatchLength();
    switch (plan.layers[i].solve) {
      case SolveMode::kConvFull:  // every filter at once
        shapes.lstsq.push_back({i, gg, unknowns, c.out_channels()});
        if (gg == unknowns) shapes.lu.insert(gg);
        break;
      case SolveMode::kConvPartial:  // one filter, every weight suspect
        shapes.lstsq.push_back({i, gg, unknowns, 1});
        if (gg <= unknowns) shapes.lu.insert(gg);
        break;
      default:
        break;
    }
  }
  return shapes;
}

milr::Matrix RandomMatrix(std::size_t rows, std::size_t cols,
                          milr::Prng& prng) {
  milr::Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) m.at(r, c) = prng.NextDouble() - 0.5;
  }
  return m;
}

// Detect, GoldenInputOf and a single-layer Recover per parameterized layer,
// on a quiesced CNN with its own protector; then the linalg solvers at the
// plan's shapes.
void ProbeMilrAndLinalg(const Seeds& seeds, MetricSet& out,
                        std::vector<std::string>& errors) {
  nn::Model model = BuildNet(Net::kCnn, seeds.net);
  milr::core::MilrProtector protector(model, milr::core::ExtendedMilrConfig());
  const auto golden = model.SnapshotParams();

  out.Add("milr.detect_ms",
          TimeMs("milr.detect_ms", [&] { protector.Detect(); }), "ms");

  std::vector<std::size_t> param_layers;
  for (std::size_t i = 0; i < model.LayerCount(); ++i) {
    if (!model.layer(i).Params().empty()) param_layers.push_back(i);
  }
  double golden_ms = 0.0;
  for (const std::size_t i : param_layers) {
    golden_ms += TimeMs("milr.golden_input_ms",
                        [&] { protector.GoldenInputOf(i); }, 1, 0.0, 1);
  }
  out.Add("milr.golden_input_ms",
          golden_ms / static_cast<double>(param_layers.size()), "ms");

  milr::Prng prng(seeds.faults + 1);
  std::size_t residual = 0;
  for (const std::size_t i : param_layers) {
    milr::memory::CorruptWholeLayer(model, i, prng);
    milr::core::DetectionReport report;
    report.flagged_layers = {i};
    const std::string name = "milr.recover_ms." + LayerName(model, i);
    out.Add(name, TimeMs(name, [&] { protector.Recover(report); }, 1, 0.0, 1),
            "ms");
    if (protector.Detect().any()) ++residual;
    model.RestoreParams(golden);
    if (protector.Detect().any()) {
      errors.push_back("probe: Detect flags the CNN after a golden reset");
    }
  }
  out.Add("milr.residual_layers", static_cast<double>(residual), "count");

  const SolveShapes shapes = ShapesFromPlan(model, protector.plan());
  for (const std::size_t n : shapes.lu) {
    const milr::Matrix a = RandomMatrix(n, n, prng);
    const std::string name = "linalg.lu_ms.n" + std::to_string(n);
    const double ms = TimeMs(name, [&] {
      if (!milr::LuFactorization::Compute(a).ok()) {
        errors.push_back("probe: LU of a random matrix failed");
      }
    }, 3, 0.2, 50);
    const double flops = 2.0 / 3.0 * std::pow(static_cast<double>(n), 3);
    out.Add("linalg.lu_gflops.n" + std::to_string(n), flops / (ms * 1e6),
            "GFLOP/s");
  }
  for (const LstsqShape& shape : shapes.lstsq) {
    const milr::Matrix a = RandomMatrix(shape.rows, shape.cols, prng);
    const milr::Matrix b = RandomMatrix(shape.rows, shape.rhs, prng);
    const std::string name = "linalg.lstsq_ms." + LayerName(model, shape.layer);
    out.Add(name, TimeMs(name, [&] {
      if (!milr::SolveLeastSquares(a, b).ok()) {
        errors.push_back("probe: least squares of a random system failed");
      }
    }, 3, 0.2, 50), "ms");
  }
}

}  // namespace

void RunLayerProbes(const RunConfig& config, MetricSet& out,
                    std::vector<std::string>& errors) {
  const Seeds seeds(config.seed);
  milr::obs::Tracer::Get().EnableProfiling();
  std::map<std::string, double> times;
  ProbePredict(Net::kCnn, nn::KernelConfig::kFast, seeds, out, times);
  ProbePredict(Net::kMlp, nn::KernelConfig::kInt8, seeds, out, times);
  out.Add("quant.int8_over_fast.b8",
          times["nn.predict_ms.mlp.fast.b8"] /
              times["nn.predict_ms.mlp.int8.b8"],
          "ratio");
  ProbeMilrAndLinalg(seeds, out, errors);
  out.Add("support.parallel_for_us",
          TimeMs("support.parallel_for_us", [] {
            milr::ParallelFor(0, milr::ParallelWorkerCount(),
                              [](std::size_t) {});
          }, 50, 0.1, 1000) * 1e3,
          "us");
}

}  // namespace servebench
