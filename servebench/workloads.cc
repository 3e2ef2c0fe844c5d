// The serving workloads: set-up, load generation, the repair drill and the
// end-to-end metrics. See README.md for why each workload exists.
#include <algorithm>
#include <chrono>
#include <deque>
#include <functional>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>

#include "bench.h"
#include "memory/fault_injector.h"
#include "nn/kernel_registry.h"
#include "runtime/engine.h"
#include "support/parallel.h"
#include "support/prng.h"

namespace servebench {
namespace {

using milr::runtime::EngineConfig;
using milr::runtime::InferenceEngine;
using milr::runtime::MetricsSnapshot;

constexpr std::size_t kSetupRepeats = 3;
constexpr double kWarmupSeconds = 1.0;
// The measured window is split into segments. Throughput and latency are
// medians over segments, so a hiccup of the machine moves one segment, not
// the result; traced runs alternate untraced and traced segments.
constexpr std::size_t kSegments = 10;
// Quiesced repair drill: scrub cycles per event. A repair that does not
// hold is repaired again on the next cycle, and again after that; the loop
// counts up to its first repeat, so a residual layer's repair time does not
// grow with the number of cycles it is left to loop.
constexpr std::size_t kDrillScrubCycles = 2;

struct WorkloadSpec {
  Net net = Net::kCnn;
  nn::KernelConfig tier = nn::KernelConfig::kFast;
  std::size_t in_flight = 0;  // closed loop: requests kept in flight
  std::size_t pool = 128;     // distinct request inputs
  // Repair-drill events per layer after the window. The layer's repair time
  // is the fastest of them: the drill measures what a repair costs on an
  // idle engine, and the fastest repeat is the one the rest of the machine
  // disturbed least.
  std::size_t drill_repeats = 5;
};

WorkloadSpec SpecFor(const std::string& name) {
  WorkloadSpec spec;
  if (name == "cnn_serve") {
    spec.in_flight = 24;
  } else if (name == "mlp_int8_serve") {
    spec.net = Net::kMlp;
    spec.tier = nn::KernelConfig::kInt8;
    spec.in_flight = 64;
    spec.pool = 512;
    spec.drill_repeats = 8;  // ~50 ms repairs: cheap to repeat
  } else {
    throw std::invalid_argument("unknown workload " + name);
  }
  return spec;
}

// One set-up: model + started engine. The engine is declared last so it is
// destroyed (stopped) before the model it points at.
struct Served {
  std::unique_ptr<nn::Model> model;
  std::unique_ptr<InferenceEngine> engine;
};

Served SetUp(const WorkloadSpec& spec, const RunConfig& config,
             std::uint64_t net_seed, const Tensor& first_input,
             double* seconds) {
  const double t0 = NowSeconds();
  Served s;
  s.model = std::make_unique<nn::Model>(BuildNet(spec.net, net_seed));
  // Every set-up pays the kernel autotune, not only the first one.
  nn::KernelRegistry::Get().Reset();
  EngineConfig cfg;
  cfg.worker_threads = config.workers;
  cfg.max_batch = 8;
  cfg.scrubber_enabled = true;
  cfg.scrub_period = std::chrono::milliseconds(50);
  cfg.kernel = spec.tier;
  s.engine = std::make_unique<InferenceEngine>(*s.model, cfg);
  s.engine->Start();
  s.engine->Predict(first_input);
  *seconds = NowSeconds() - t0;
  return s;
}

std::vector<std::size_t> ReferenceTop1(Net net, std::uint64_t net_seed,
                                       const std::vector<Tensor>& inputs) {
  nn::Model reference = BuildNet(net, net_seed);  // exact tier by default
  std::vector<std::size_t> top1;
  for (std::size_t i = 0; i < inputs.size(); i += 8) {
    const std::size_t end = std::min(inputs.size(), i + 8);
    const std::vector<Tensor> chunk(inputs.begin() + i, inputs.begin() + end);
    for (const auto& out : reference.PredictBatch(chunk)) {
      top1.push_back(ArgMax(out));
    }
  }
  return top1;
}

// What the generator saw. Latencies are kept per segment of the measured
// window; everything else covers every request.
struct LoadStats {
  std::vector<std::vector<double>> latency_ms;  // per segment
  std::vector<double> late_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t checked = 0;
  std::uint64_t agree = 0;
  double idle_seconds = 0.0;  // generator blocked on a future
  double run_seconds = 0.0;   // generator lifetime
};

// Measured window [start, end) split into equal segments; `on_boundary(k)`
// runs on the generator thread when segment k begins.
struct Window {
  double start = 0.0;
  double end = 0.0;
  std::size_t segments = 1;
  std::function<void(std::size_t)> on_boundary;

  double SegmentStart(std::size_t k) const {
    return start + (end - start) * static_cast<double>(k) /
                       static_cast<double>(segments);
  }
  // Segment of time t, or -1 outside the window.
  int SegmentOf(double t) const {
    if (t < start || t >= end) return -1;
    return std::min<int>(static_cast<int>(segments) - 1,
                         static_cast<int>((t - start) / (end - start) *
                                          static_cast<double>(segments)));
  }
};

struct Pending {
  std::future<Tensor> future;
  std::size_t input = 0;
  double submitted = 0.0;
  std::uint64_t id = 0;
};

class Generator {
 public:
  Generator(InferenceEngine& engine, const std::vector<Tensor>& inputs,
            const std::vector<std::size_t>& reference, Window window)
      : engine_(engine),
        inputs_(inputs),
        reference_(reference),
        window_(std::move(window)) {
    stats_.latency_ms.resize(window_.segments);
  }

  // Closed loop from the calling thread: `in_flight` requests outstanding,
  // each completion immediately replaced until the window ends.
  void RunClosed(std::size_t in_flight) {
    const double began = NowSeconds();
    std::deque<Pending> pending;
    for (std::size_t i = 0; i < in_flight; ++i) pending.push_back(Submit());
    while (!pending.empty()) {
      Pending p = std::move(pending.front());
      pending.pop_front();
      const double done = Collect(p);
      CrossBoundaries(done);
      if (done < window_.end) {
        pending.push_back(Submit());
        stats_.late_ms.push_back((NowSeconds() - done) * 1e3);
      }
    }
    stats_.run_seconds = NowSeconds() - began;
  }

  const LoadStats& stats() const { return stats_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  Pending Submit() {
    Pending p;
    p.input = next_id_ % inputs_.size();
    p.id = next_id_++;
    p.submitted = NowSeconds();
    {
      Span span("submit", p.id);
      p.future = engine_.Submit(Tensor(inputs_[p.input]));
    }
    ++stats_.attempted;
    return p;
  }

  // Waits for one request, checks its output; returns the completion time.
  double Collect(Pending& p) {
    Tensor out;
    bool threw = false;
    const double w0 = NowSeconds();
    {
      Span span("wait", p.id);
      try {
        out = p.future.get();
      } catch (const std::exception& e) {
        threw = true;
        Fail(std::string("request threw: ") + e.what());
      }
    }
    const double done = NowSeconds();
    stats_.idle_seconds += done - w0;
    if (threw) return done;
    ++stats_.checked;
    if (out.shape() != engine_.model().output_shape()) {
      Fail("malformed output shape");
      return done;
    }
    if (!AllFinite(out)) {
      Fail("non-finite output");
    } else if (ArgMax(out) == reference_[p.input]) {
      ++stats_.agree;
    }
    // Completions inside the window, of requests submitted inside it.
    const int segment = window_.SegmentOf(done);
    if (segment >= 0 && p.submitted >= window_.start) {
      stats_.latency_ms[segment].push_back((done - p.submitted) * 1e3);
    }
    return done;
  }

  void Fail(const std::string& what) {
    ++stats_.failed;
    if (errors_.size() < 4) errors_.push_back(what);
  }

  void CrossBoundaries(double now) {
    while (next_boundary_ < window_.segments &&
           now >= window_.SegmentStart(next_boundary_)) {
      if (window_.on_boundary) window_.on_boundary(next_boundary_);
      ++next_boundary_;
    }
  }

  InferenceEngine& engine_;
  const std::vector<Tensor>& inputs_;
  const std::vector<std::size_t>& reference_;
  Window window_;
  LoadStats stats_;
  std::vector<std::string> errors_;
  std::uint64_t next_id_ = 0;
  std::size_t next_boundary_ = 0;
};

// What the protection layer did about one fault event.
struct EventOutcome {
  double repair_seconds = 0.0;  // every quarantine the event caused
  std::uint64_t quarantines = 0;
  bool verified = false;  // end-of-event Detect clean
};

// Seeded drill schedule: `repeats` rounds, each corrupting every
// parameterized layer whole once (paper experiment 3), in a seeded order.
// Returns the layer of each event.
std::vector<std::size_t> FaultSchedule(const nn::Model& model,
                                       std::uint64_t seed,
                                       std::size_t repeats) {
  std::vector<std::size_t> param_layers;
  for (std::size_t i = 0; i < model.LayerCount(); ++i) {
    if (!model.layer(i).Params().empty()) param_layers.push_back(i);
  }
  milr::Prng prng(seed);
  std::vector<std::size_t> events;
  for (std::size_t r = 0; r < repeats; ++r) {
    std::vector<std::size_t> layers = param_layers;
    for (std::size_t i = layers.size(); i > 1; --i) {
      std::swap(layers[i - 1], layers[prng.NextBelow(i)]);
    }
    events.insert(events.end(), layers.begin(), layers.end());
  }
  return events;
}

// Quiesced repair drill: on the stopped engine, each event corrupts one
// layer whole through InjectFault and is repaired by synchronous scrub
// cycles. Its end: Detect (is the repair verified?), restore the golden
// parameters, Detect again (must be clean), in one exclusive section.
std::vector<EventOutcome> RunDrill(InferenceEngine& engine,
                                   const std::vector<std::size_t>& events,
                                   const std::vector<std::vector<float>>& golden,
                                   std::uint64_t seed,
                                   std::vector<std::string>& errors) {
  milr::Prng prng(seed);
  std::vector<EventOutcome> outcomes;
  for (std::size_t k = 0; k < events.size(); ++k) {
    const MetricsSnapshot before = engine.Snapshot();
    {
      Span span("inject", k);
      engine.InjectFault([&](nn::Model& m) {
        return milr::memory::CorruptWholeLayer(m, events[k], prng);
      });
    }
    for (std::size_t c = 0; c < kDrillScrubCycles; ++c) {
      Span span("scrub_now", k);
      if (engine.ScrubNow().flagged_layers == 0) break;
    }
    EventOutcome o;
    bool dirty_after_reset = false;
    {
      Span span("verify_reset", k);
      engine.WithModelExclusive([&](nn::Model& m) {
        o.verified = !engine.protector().Detect().any();
        m.RestoreParams(golden);
        dirty_after_reset = engine.protector().Detect().any();
      });
    }
    if (dirty_after_reset) {
      errors.push_back("Detect flags the model after a golden reset (event " +
                       std::to_string(k) + ")");
    }
    const MetricsSnapshot after = engine.Snapshot();
    o.repair_seconds = after.downtime_seconds - before.downtime_seconds;
    o.quarantines = after.detections - before.detections;
    outcomes.push_back(o);
    std::cerr << "  event " << k << ": whole layer " << events[k]
              << " quarantines=" << o.quarantines
              << " repair_ms=" << o.repair_seconds * 1e3
              << (o.verified ? " verified" : " residual") << "\n";
  }
  return outcomes;
}

double HistQuantileDelta(const milr::obs::HistogramSnapshot& before,
                         const milr::obs::HistogramSnapshot& after, double q) {
  milr::obs::HistogramSnapshot delta = after;
  for (std::size_t i = 0; i < before.buckets.size() && i < delta.buckets.size();
       ++i) {
    delta.buckets[i] -= before.buckets[i];
  }
  delta.count -= before.count;
  delta.sum_nanos -= before.sum_nanos;
  return delta.QuantileMillis(q);
}

}  // namespace

WorkloadResult RunWorkload(const RunConfig& config) {
  const WorkloadSpec spec = SpecFor(config.workload);
  const Seeds seeds(config.seed);
  WorkloadResult result;
  std::cerr << "servebench: " << config.workload << " seed=" << config.seed
            << " seconds=" << config.seconds << " trace=" << config.trace
            << " nproc=" << config.nproc << " workers=" << config.workers
            << "\n";

  // Inputs and the exact-tier reference answers: harness work, outside the
  // set-up time.
  const nn::Model shape_only = BuildNet(spec.net, seeds.net);
  const std::vector<Tensor> inputs =
      MakeInputs(shape_only, spec.pool, seeds.inputs);
  const std::vector<std::size_t> reference =
      ReferenceTop1(spec.net, seeds.net, inputs);

  // Set-up, repeated; the last one serves.
  std::vector<double> setup_seconds;
  Served served;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    served.engine.reset();  // stop the previous engine before its model goes
    double s = 0.0;
    served = SetUp(spec, config, seeds.net, inputs[0], &s);
    setup_seconds.push_back(s);
  }
  InferenceEngine& engine = *served.engine;
  const std::vector<std::vector<float>> golden =
      served.model->SnapshotParams();
  const std::vector<std::size_t> events =
      FaultSchedule(*served.model, seeds.faults, spec.drill_repeats);

  // The measured window. A traced run alternates untraced (even) and traced
  // (odd) segments. Each Enable starts a fresh recording, so the exported
  // trace holds the last traced segment, the drill and the probes; the
  // harness's own span figures are summed as the spans close (Span), over
  // every traced segment.
  Window window;
  window.start = NowSeconds() + kWarmupSeconds;
  window.end = window.start + config.seconds;
  window.segments = kSegments;
  double traced_begin = 0.0;
  MetricsSnapshot at_start;
  window.on_boundary = [&](std::size_t k) {
    if (k == 0) at_start = engine.Snapshot();
    if (!config.trace) return;
    if (k % 2 == 1) {
      milr::obs::Tracer::Get().Enable(kTraceRingEvents);
      traced_begin = NowSeconds();
    } else if (k > 0) {
      milr::obs::Tracer::Get().Disable();
    }
  };

  Generator generator(engine, inputs, reference, window);
  generator.RunClosed(spec.in_flight);
  const MetricsSnapshot at_end = engine.Snapshot();
  if (config.trace) {
    milr::obs::Tracer::Get().EmitSpan(
        "traced_window", "bench",
        static_cast<std::uint64_t>(traced_begin * 1e9),
        static_cast<std::uint64_t>((NowSeconds() - traced_begin) * 1e9), 0, 0,
        0);
  }
  engine.Stop();
  std::vector<std::string> errors;
  const std::vector<EventOutcome> outcomes =
      RunDrill(engine, events, golden, seeds.faults ^ 0x5eedULL, errors);
  for (const auto& e : generator.errors()) errors.push_back(e);
  result.errors = errors;

  // ------------------------------------------------------ end-to-end
  // Throughput and latency are medians over the window's segments; the
  // tail stops at p90, past which it follows the machine.
  const LoadStats& load = generator.stats();
  const double segment_s = (window.end - window.start) /
                           static_cast<double>(window.segments);
  std::size_t completed = 0;
  std::vector<double> segment_rps, segment_p50, segment_p90;
  for (const auto& seg : load.latency_ms) {
    completed += seg.size();
    segment_rps.push_back(static_cast<double>(seg.size()) / segment_s);
    segment_p50.push_back(Percentile(seg, 0.50));
    segment_p90.push_back(Percentile(seg, 0.90));
  }
  if (completed == 0) result.errors.push_back("no request completed");
  MetricSet& e2e = result.end_to_end;
  e2e.Add("throughput_rps", Median(segment_rps), "req/s");
  e2e.Add("latency_p50_ms", Median(segment_p50), "ms");
  e2e.Add("latency_p90_ms", Median(segment_p90), "ms");
  e2e.Add("top1_agreement",
          load.checked ? static_cast<double>(load.agree) /
                             static_cast<double>(load.checked)
                       : 0.0,
          "ratio");
  // One repair time per layer: the fastest of its drill events.
  std::map<std::size_t, std::vector<double>> by_layer;
  std::uint64_t quarantines = 0;
  std::size_t verified = 0;
  for (std::size_t k = 0; k < outcomes.size(); ++k) {
    by_layer[events[k]].push_back(outcomes[k].repair_seconds * 1e3);
    quarantines += outcomes[k].quarantines;
    verified += outcomes[k].verified ? 1 : 0;
    if (outcomes[k].quarantines == 0) {
      result.errors.push_back("fault event " + std::to_string(k) +
                              " never caused a quarantine");
    }
  }
  double repair_ms_sum = 0.0;
  for (const auto& [index, times] : by_layer) {
    repair_ms_sum += *std::min_element(times.begin(), times.end());
  }
  e2e.Add("repair_ms_mean",
          repair_ms_sum /
              static_cast<double>(std::max<std::size_t>(1, by_layer.size())),
          "ms");
  e2e.Add("repair_verified_ratio",
          static_cast<double>(verified) /
              static_cast<double>(std::max<std::size_t>(1, outcomes.size())),
          "ratio");
  e2e.Add("setup_s", Median(setup_seconds), "s");
  result.attempted = load.attempted;
  result.failed = load.failed;

  // ------------------------------------------- per-layer, from the run
  MetricSet& layer = result.per_layer;
  const double batches = static_cast<double>(at_end.batches_served -
                                             at_start.batches_served);
  const auto batch_total = [](const MetricsSnapshot& s, double per_batch) {
    return per_batch * static_cast<double>(s.batches_served);
  };
  layer.Add("runtime.queue_wait_ms_p50",
            HistQuantileDelta(at_start.queue_wait_hist, at_end.queue_wait_hist,
                              0.50),
            "ms");
  layer.Add("runtime.queue_wait_ms_p90",
            HistQuantileDelta(at_start.queue_wait_hist, at_end.queue_wait_hist,
                              0.90),
            "ms");
  layer.Add("runtime.batch_size_mean",
            (batch_total(at_end, at_end.batch_size_mean) -
             batch_total(at_start, at_start.batch_size_mean)) /
                std::max(1.0, batches),
            "count");
  layer.Add("runtime.batch_service_ms_mean",
            (batch_total(at_end, at_end.batch_service_mean_ms) -
             batch_total(at_start, at_start.batch_service_mean_ms)) /
                std::max(1.0, batches),
            "ms");
  layer.Add("runtime.workers",
            static_cast<double>(engine.effective_worker_threads()), "count");
  layer.Add("support.parallel_workers",
            static_cast<double>(milr::ParallelWorkerCount()), "count");
  layer.Add("milr.quarantines_per_fault",
            static_cast<double>(quarantines) /
                static_cast<double>(std::max<std::size_t>(1, outcomes.size())),
            "ratio");
  layer.Add("loadgen.late_ms_p99", Percentile(load.late_ms, 0.99), "ms");
  layer.Add("loadgen.busy_share",
            1.0 - load.idle_seconds / std::max(1e-9, load.run_seconds),
            "ratio");
  // Threads that compete for the CPUs while serving: engine workers, the
  // scrubber, and the one generator thread.
  layer.Add("loadgen.threads",
            static_cast<double>(engine.effective_worker_threads() + 2),
            "count");
  layer.Add("loadgen.nproc", static_cast<double>(config.nproc), "count");
  if (config.trace) {
    // Throughput lost in the traced (odd) segments.
    std::vector<double> untraced, traced;
    for (std::size_t k = 0; k < window.segments; ++k) {
      (k % 2 ? traced : untraced).push_back(segment_rps[k]);
    }
    const double u = Median(untraced);
    layer.Add("trace.overhead_pct",
              u > 0.0 ? (1.0 - Median(traced) / u) * 100.0 : 0.0, "%");
  }
  std::cerr << "servebench: attempted=" << load.attempted
            << " completed_in_window=" << completed
            << " events=" << outcomes.size() << " verified=" << verified
            << " quarantines=" << quarantines << "\n";
  return result;
}

}  // namespace servebench
