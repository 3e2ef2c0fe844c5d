// InferenceEngine: MILR as an always-on, self-healing serving layer.
//
// Since the multi-model refactor this is a thin single-model facade over
// ServingHost: one ModelRuntime (model + shared_mutex + MilrProtector +
// bounded queue + Metrics) on a private WorkerPool, with the host's
// background Scrubber doing online detect/quarantine/recover. The moving
// parts and the locking discipline are documented in model_runtime.h,
// worker_pool.h and serving_host.h; the request path:
//
//   clients ──Submit──▶ BoundedQueue ──▶ worker pool ──PredictBatch──▶ futures
//                          (micro-batch: drain ≤ max_batch) │ shared lock
//                    Scrubber (detect concurrently; quarantine + MILR
//                    recovery on a flagged layer)      │ exclusive lock
//                    FaultDrive / InjectFault (attacks)│ exclusive lock
//
// Inference and the cheap detection phase share the model; recovery and
// fault injection quarantine it. Downtime is therefore *exactly* the time
// spent holding the exclusive lock for repair — the quantity eq. 6 models
// and Metrics measures.
//
// Lifecycle: construct -> [Submit/TrySubmit]* -> Start -> serve -> Stop,
// repeatable. Requests may be queued before Start() and are served once it
// runs. Stop() closes admission (Submit throws std::runtime_error,
// TrySubmit returns nullopt), drains every admitted request, and joins the
// service threads; it is idempotent and also runs in the destructor.
// Start() after Stop() is a clean restart: admission reopens and the same
// worker/scrubber configuration respawns. Metrics counters accumulate
// across restarts, but the uptime epoch restamps at every Start(), so
// rate-derived quantities (throughput, availability) reset.
// Co-hosting several models on one shared pool is ServingHost's job —
// new code should prefer it; this facade keeps the one-model API stable.
//
// Configuration: EngineConfig is ServingHostConfig and ModelRuntimeConfig
// composed by inheritance, so each knob is declared and documented once,
// where it takes effect, and the constructor hands each base slice to its
// owner.
#pragma once

#include <chrono>
#include <functional>
#include <future>
#include <optional>

#include "memory/fault_injector.h"
#include "milr/config.h"
#include "milr/protector.h"
#include "nn/model.h"
#include "runtime/serving_host.h"
#include "tensor/tensor.h"

namespace milr::runtime {

/// The single-model configuration is the host's knobs plus the model's,
/// composed rather than mirrored: every field of ServingHostConfig (pool
/// size, scrubber, incident traces) and of ModelRuntimeConfig (queue,
/// batching, kernel tier, SLO, protection preset) is set directly on an
/// EngineConfig, and the engine hands the matching slice to each.
struct EngineConfig : ServingHostConfig, ModelRuntimeConfig {};

class InferenceEngine {
 public:
  /// `model` must be in its golden state (initialization records the
  /// protection data) and must outlive the engine. The engine does not own
  /// the model, mirroring MilrProtector.
  explicit InferenceEngine(nn::Model& model, EngineConfig config = {});

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Spawns the worker pool (and the scrubber when enabled). Requests may
  /// be queued before Start(), but nothing is served until it runs. Also
  /// restarts a stopped engine (see the lifecycle note above).
  void Start() { host_.Start(); }

  /// Stops admission, drains every queued request, and joins all service
  /// threads. Idempotent; also run by the destructor. See ServingHost::Stop
  /// for the load-bearing shutdown order (scrubber -> queue -> workers).
  void Stop() { host_.Stop(); }

  bool running() const { return host_.running(); }

  /// Enqueues a request; blocks for backpressure while the queue is full.
  /// Throws std::runtime_error if the engine has been stopped.
  std::future<Tensor> Submit(Tensor input) {
    return runtime_->Submit(std::move(input));
  }

  /// Load-shedding admission: nullopt (and a rejection metric) when full.
  std::optional<std::future<Tensor>> TrySubmit(Tensor input) {
    return runtime_->TrySubmit(std::move(input));
  }

  /// Synchronous convenience: Submit and wait.
  Tensor Predict(const Tensor& input) { return runtime_->Predict(input); }

  /// Runs one synchronous scrub cycle (see ModelRuntime::ScrubCycle).
  ScrubReport ScrubNow() { return runtime_->ScrubCycle(); }

  /// Fault-drive hook: runs `attack` against the live parameter memory
  /// under quarantine (data-race-free with the worker pool) and records it.
  memory::InjectionReport InjectFault(
      const std::function<memory::InjectionReport(nn::Model&)>& attack) {
    return runtime_->InjectFault(attack);
  }

  /// Maintenance hook: exclusive access to the model without counting an
  /// injection (golden-restore between benchmark phases, etc.).
  void WithModelExclusive(const std::function<void(nn::Model&)>& fn) {
    runtime_->WithModelExclusive(fn);
  }

  MetricsSnapshot Snapshot() const { return runtime_->Snapshot(); }
  Metrics& metrics() { return runtime_->metrics(); }
  /// The host-wide incident journal (fault/detect/quarantine/recovery
  /// records; see obs/incident.h).
  obs::IncidentJournal& incident_journal() {
    return host_.incident_journal();
  }
  std::string IncidentJournalJson() const {
    return host_.IncidentJournalJson();
  }
  const nn::Model& model() const { return runtime_->model(); }
  core::MilrProtector& protector() { return runtime_->protector(); }
  const EngineConfig& config() const { return config_; }

  /// Worker-pool size actually used: config worker_threads clamped to >= 1.
  /// Resolved once (construction) and used both to spawn the pool and to
  /// decide nested-parallelism pinning, so the two can never disagree.
  std::size_t effective_worker_threads() const {
    return host_.worker_threads();
  }

  /// True when each worker pins its nested ParallelFor serial because the
  /// pool alone covers the cores (see WorkerPool::WorkerLoop).
  bool pins_nested_parallelism() const {
    return host_.pins_nested_parallelism();
  }

  /// The underlying single-model runtime — the ServingHost handle — for
  /// callers migrating to the multi-model API.
  ServingHost::ModelHandle runtime() { return runtime_; }

 private:
  EngineConfig config_;
  ServingHost host_;
  ServingHost::ModelHandle runtime_;
};

}  // namespace milr::runtime
