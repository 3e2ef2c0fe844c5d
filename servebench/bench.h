// Serve-and-repair benchmark: shared declarations.
//
// The harness drives the library only through its public API
// (InferenceEngine, Model::PredictBatch, MilrProtector, memory::* injectors,
// linalg solvers) and reports two metric sets, printed by main.cc as one
// JSON object:
//  * end-to-end metrics, measured with tracing off (workloads.cc);
//  * per-layer metrics, from a separate traced run: the workload again plus
//    standalone probes of each layer's public entry points (probes.cc).
// Every timed call the harness makes is wrapped in a Span, emitted through
// obs::Tracer::EmitSpan next to the spans the library records itself. Each
// Span also adds its duration and self time to per-name totals as it closes
// (SpanTotalsByName), so those figures do not depend on what the trace
// rings still hold.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "nn/model.h"
#include "obs/trace.h"
#include "tensor/tensor.h"

namespace servebench {

using milr::Tensor;
namespace nn = milr::nn;

/// Ordered name -> (value, unit) sink; one per metric set.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// `{"name": {"value": v, "unit": "u"}, ...}`
  std::string ToJson() const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Everything one invocation decides from the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string trace_out;       // Chrome trace file written by traced runs
  std::size_t nproc = 1;       // CPUs this process may run on
  std::size_t workers = 1;     // engine worker threads (nproc - 1, >= 1)
};

/// Seeds derived from the one --seed argument, one stream per purpose.
struct Seeds {
  std::uint64_t net = 0;     // He-init of every network
  std::uint64_t inputs = 0;  // request and probe inputs
  std::uint64_t faults = 0;  // fault schedule and injector draws
  explicit Seeds(std::uint64_t seed);
};

/// The two served networks: the paper's CIFAR-10 small CNN (Table II) and
/// the dense MLP 256-320-320-320-256-10, both He-initialised from `seed`.
enum class Net { kCnn, kMlp };
const char* NetName(Net net);
nn::Model BuildNet(Net net, std::uint64_t seed);

/// `count` inputs shaped like the network's input, uniform in [-1, 1).
std::vector<Tensor> MakeInputs(const nn::Model& model, std::size_t count,
                               std::uint64_t seed);

std::size_t ArgMax(const Tensor& t);
bool AllFinite(const Tensor& t);

/// Trace ring size per thread while a traced run records.
inline constexpr std::size_t kTraceRingEvents = std::size_t{1} << 15;

/// Span names must outlive the trace export; Intern keeps one copy of each.
const char* Intern(const std::string& name);

/// `s` as a quoted JSON string.
std::string JsonString(const std::string& s);

/// RAII harness span on the current thread, recorded only while tracing is
/// on. `id` groups spans of one request (the request id) or one probe
/// repetition. Self time is the duration minus what the harness spans
/// nested in it cover.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t id = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::uint64_t id_;
  std::uint64_t begin_;
  std::uint64_t children_ns_ = 0;
  Span* parent_ = nullptr;
  bool armed_;
};

/// Totals of every harness span closed so far, per span name.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
std::map<std::string, SpanTotals> SpanTotalsByName();

double NowSeconds();
double Median(std::vector<double> v);
/// Nearest-rank percentile, q in [0, 1].
double Percentile(std::vector<double> v, double q);

/// Result of one workload run; the outcome of every correctness check is
/// in `errors` (non-empty fails the command).
struct WorkloadResult {
  MetricSet end_to_end;
  MetricSet per_layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
};

WorkloadResult RunWorkload(const RunConfig& config);

/// Standalone layer probes for the traced run (probes.cc).
void RunLayerProbes(const RunConfig& config, MetricSet& out,
                    std::vector<std::string>& errors);

}  // namespace servebench
