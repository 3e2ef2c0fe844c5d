// servebench: one workload of the serve-and-repair benchmark per call.
//
//   servebench --workload <cnn_serve|mlp_int8_serve>
//              --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Prints progress on stderr and, as the last stdout line, one JSON object
// with the raw results (see README.md); run.py turns it into the
// benchmark's result line. Exits 1 when a correctness check fails, 2 on a
// usage error.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <iostream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>

#include "apps/networks.h"
#include "bench.h"
#include "nn/init.h"
#include "support/parallel.h"
#include "support/prng.h"

namespace servebench {

void MetricSet::Add(const std::string& name, double value,
                    const std::string& unit) {
  values_[name] = {value, unit};
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

std::string MetricSet::ToJson() const {
  std::string out = "{";
  for (const auto& [name, entry] : values_) {
    if (out.size() > 1) out += ", ";
    out += JsonString(name) + ": {\"value\": " + JsonNumber(entry.first) +
           ", \"unit\": " + JsonString(entry.second) + "}";
  }
  return out + "}";
}

Seeds::Seeds(std::uint64_t seed) {
  milr::SplitMix64 mix(seed);
  net = mix.Next();
  inputs = mix.Next();
  faults = mix.Next();
}

const char* NetName(Net net) { return net == Net::kCnn ? "cnn" : "mlp"; }

nn::Model BuildNet(Net net, std::uint64_t seed) {
  if (net == Net::kCnn) {
    nn::Model model = milr::apps::BuildCifarSmallNetwork();
    nn::InitHeUniform(model, seed);
    return model;
  }
  nn::Model model(milr::Shape{256});
  model.AddDense(320).AddBias().AddReLU();
  model.AddDense(320).AddBias().AddReLU();
  model.AddDense(320).AddBias().AddReLU();
  model.AddDense(256).AddBias().AddReLU();
  model.AddDense(10).AddBias();
  nn::InitHeUniform(model, seed);
  return model;
}

std::vector<Tensor> MakeInputs(const nn::Model& model, std::size_t count,
                               std::uint64_t seed) {
  milr::Prng prng(seed);
  std::vector<Tensor> inputs;
  inputs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Tensor t(model.input_shape());
    for (std::size_t j = 0; j < t.size(); ++j) t[j] = prng.NextFloat(-1, 1);
    inputs.push_back(std::move(t));
  }
  return inputs;
}

std::size_t ArgMax(const Tensor& t) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < t.size(); ++i) {
    if (t[i] > t[best]) best = i;
  }
  return best;
}

bool AllFinite(const Tensor& t) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!std::isfinite(t[i])) return false;
  }
  return true;
}

const char* Intern(const std::string& name) {
  static std::mutex mutex;
  static std::deque<std::string> names;  // stable addresses
  std::lock_guard<std::mutex> lock(mutex);
  for (const auto& n : names) {
    if (n == name) return n.c_str();
  }
  names.push_back(name);
  return names.back().c_str();
}

namespace {

thread_local Span* t_open_span = nullptr;  // innermost armed Span

std::mutex& TotalsMutex() {
  static std::mutex mutex;
  return mutex;
}

std::map<const char*, SpanTotals>& Totals() {
  static std::map<const char*, SpanTotals> totals;
  return totals;
}

}  // namespace

Span::Span(const char* name, std::uint64_t id)
    : name_(name), id_(id), armed_(milr::obs::TracingEnabled()) {
  begin_ = armed_ ? milr::obs::TraceNowNanos() : 0;
  if (armed_) {
    parent_ = t_open_span;
    t_open_span = this;
  }
}

Span::~Span() {
  if (!armed_) return;
  const std::uint64_t duration = milr::obs::TraceNowNanos() - begin_;
  t_open_span = parent_;
  if (parent_ != nullptr) parent_->children_ns_ += duration;
  milr::obs::Tracer::Get().EmitSpan(name_, "bench", begin_, duration, id_, 0,
                                    milr::obs::CurrentTrack());
  std::lock_guard<std::mutex> lock(TotalsMutex());
  SpanTotals& totals = Totals()[name_];
  ++totals.count;
  totals.total_ms += static_cast<double>(duration) * 1e-6;
  totals.self_ms +=
      static_cast<double>(duration - std::min(duration, children_ns_)) * 1e-6;
}

std::map<std::string, SpanTotals> SpanTotalsByName() {
  std::lock_guard<std::mutex> lock(TotalsMutex());
  std::map<std::string, SpanTotals> out;
  for (const auto& [name, totals] : Totals()) {
    SpanTotals& entry = out[name];
    entry.count += totals.count;
    entry.total_ms += totals.total_ms;
    entry.self_ms += totals.self_ms;
  }
  return out;
}

double NowSeconds() {
  return static_cast<double>(milr::obs::TraceNowNanos()) * 1e-9;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t index = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + index, v.end());
  return v[index];
}

}  // namespace servebench

namespace {

int Usage(const std::string& why) {
  std::cerr << "servebench: " << why
            << "\nusage: servebench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n";
  return 2;
}

std::size_t CpusAvailable() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace servebench;
  RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        config.workload = value;
      } else if (key == "--seed") {
        config.seed = std::stoull(value);
      } else if (key == "--seconds") {
        config.seconds = std::stod(value);
      } else if (key == "--trace") {
        config.trace = value == "1";
      } else if (key == "--trace-out") {
        config.trace_out = value;
      } else {
        return Usage("unknown option " + key);
      }
    } catch (const std::exception&) {
      return Usage("bad value for " + key);
    }
  }
  if (argc % 2 != 1) return Usage("options come in pairs");
  if (config.workload.empty()) return Usage("--workload is required");
  if (!(config.seconds > 0.0)) return Usage("--seconds must be positive");

  // Thread budget: engine workers + the one generator thread fill the
  // CPUs, and MILR_THREADS = workers makes the engine pin every worker's
  // nested ParallelFor serial. Must precede the first ParallelWorkerCount.
  config.nproc = CpusAvailable();
  config.workers = std::max<std::size_t>(1, config.nproc - 1);
  setenv("MILR_THREADS", std::to_string(config.workers).c_str(), 1);

  WorkloadResult result;
  try {
    result = RunWorkload(config);
    if (config.trace) RunLayerProbes(config, result.per_layer, result.errors);
  } catch (const std::exception& e) {
    std::cerr << "servebench: " << e.what() << "\n";
    return 1;
  }
  if (config.trace) {
    milr::obs::Tracer& tracer = milr::obs::Tracer::Get();
    tracer.Disable();
    // Harness spans, over every traced segment, the drill and the probes.
    const auto spans = SpanTotalsByName();
    const auto self_mean_ms = [&](const std::string& name) {
      const auto it = spans.find(name);
      return it == spans.end() || it->second.count == 0
                 ? 0.0
                 : it->second.self_ms / static_cast<double>(it->second.count);
    };
    result.per_layer.Add("runtime.submit_us_mean", self_mean_ms("submit") * 1e3,
                         "us");
    result.per_layer.Add("memory.inject_ms", self_mean_ms("inject"), "ms");
    std::uint64_t span_count = 0;
    for (const auto& [name, totals] : spans) span_count += totals.count;
    result.per_layer.Add("trace.spans", static_cast<double>(span_count),
                         "count");
    // The last recording: what the exported trace holds and lost to ring
    // wrap.
    const auto stats = tracer.GetStats();
    result.per_layer.Add("trace.dropped_events",
                         static_cast<double>(stats.dropped), "count");
    result.per_layer.Add("trace.recorded_events",
                         static_cast<double>(stats.recorded), "count");
    if (!config.trace_out.empty() && !tracer.WriteChromeTrace(config.trace_out)) {
      result.errors.push_back("could not write " + config.trace_out);
    }
  }

  std::ostringstream out;
  out << "{\"workload\": " << JsonString(config.workload) << ", \"seed\": "
      << config.seed << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ", \"errors\": [";
  for (std::size_t i = 0; i < result.errors.size(); ++i) {
    out << (i ? ", " : "") << JsonString(result.errors[i]);
  }
  out << "], \"end_to_end\": " << result.end_to_end.ToJson()
      << ", \"per_layer\": " << result.per_layer.ToJson() << "}";
  std::cout << out.str() << std::endl;
  for (const auto& e : result.errors) std::cerr << "CHECK FAILED: " << e << "\n";
  return result.errors.empty() ? 0 : 1;
}
