// Telemetry overhead bench: the registry's promise is "lock-cheap on the
// hot path", so measure exactly that.
//
// Covers the operations instruments hit per event (counter increment,
// histogram observe, scoped timer), the operations they should hit only
// at registration time (labeled series lookup — with and without the
// recommended cached-reference pattern), and the scrape itself
// (Prometheus render over a realistically sized registry).

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "telemetry/exposition.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/timer.hpp"

using namespace crowdweb;

namespace {

void BM_CounterIncrement(benchmark::State& state) {
  telemetry::Registry registry;
  telemetry::Counter& counter = registry.counter("bench_events_total", "Bench.");
  for (auto _ : state) counter.increment();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterIncrement)->Threads(1)->Threads(4)->Threads(8);

void BM_HistogramObserve(benchmark::State& state) {
  telemetry::Registry registry;
  telemetry::Histogram& histogram = registry.histogram(
      "bench_seconds", "Bench.", telemetry::default_latency_buckets());
  double value = 0.0;
  for (auto _ : state) {
    histogram.observe(value);
    value += 0.0001;
    if (value > 2.5) value = 0.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramObserve)->Threads(1)->Threads(4)->Threads(8);

void BM_ScopedTimer(benchmark::State& state) {
  telemetry::Registry registry;
  telemetry::Histogram& histogram = registry.histogram(
      "bench_seconds", "Bench.", telemetry::default_latency_buckets());
  for (auto _ : state) {
    telemetry::ScopedTimer timer(histogram);
    benchmark::DoNotOptimize(timer);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScopedTimer);

/// The anti-pattern: resolving the label set on every event. Kept as a
/// baseline so the cached-reference speedup below stays visible.
void BM_LabeledLookupPerEvent(benchmark::State& state) {
  telemetry::Registry registry;
  telemetry::CounterFamily& family =
      registry.counter_family("bench_requests_total", "Bench.", {"method", "route"});
  const std::vector<std::string> labels{"GET", "/api/crowd/:window"};
  for (auto _ : state) family.with_labels(labels).increment();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LabeledLookupPerEvent)->Threads(1)->Threads(4);

/// The recommended pattern: resolve once, cache the reference.
void BM_LabeledCachedReference(benchmark::State& state) {
  static telemetry::Registry registry;
  telemetry::Counter& counter =
      registry.counter_family("bench_requests_total", "Bench.", {"method", "route"})
          .with_labels({"GET", "/api/crowd/:window"});
  for (auto _ : state) counter.increment();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LabeledCachedReference)->Threads(1)->Threads(4);

/// A registry shaped like the live service: the http, ingest, and
/// platform families with a few dozen series and populated histograms.
telemetry::Registry& service_shaped_registry() {
  static telemetry::Registry registry;
  static const bool populated = [] {
    telemetry::Registry& r = registry;
    telemetry::CounterFamily& requests =
        r.counter_family("crowdweb_http_requests_total", "Requests.", {"method", "route"});
    telemetry::HistogramFamily& latency = r.histogram_family(
        "crowdweb_http_request_duration_seconds", "Latency.", {"route"},
        telemetry::default_latency_buckets());
    for (int route = 0; route < 20; ++route) {
      const std::string pattern = "/api/route" + std::to_string(route) + "/:id";
      requests.with_labels({"GET", pattern}).increment(1000);
      telemetry::Histogram& h = latency.with_labels({pattern});
      for (int i = 0; i < 100; ++i) h.observe(0.001 * i);
    }
    for (const char* name :
         {"crowdweb_ingest_submitted_total", "crowdweb_ingest_accepted_total",
          "crowdweb_ingest_rejected_total", "crowdweb_ingest_invalid_total"})
      r.counter(name, "Bench.").increment(12345);
    telemetry::HistogramFamily& stages = r.histogram_family(
        "crowdweb_ingest_rebuild_stage_duration_seconds", "Stages.", {"stage"},
        telemetry::default_duration_buckets());
    for (const char* stage : {"merge", "mine", "crowd"})
      for (int i = 0; i < 50; ++i) stages.with_labels({stage}).observe(0.01 * i);
    return true;
  }();
  (void)populated;
  return registry;
}

void BM_RenderPrometheus(benchmark::State& state) {
  telemetry::Registry& registry = service_shaped_registry();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string text = telemetry::render_prometheus(registry);
    bytes = text.size();
    benchmark::DoNotOptimize(text);
  }
  state.counters["exposition_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_RenderPrometheus);

void BM_RenderJson(benchmark::State& state) {
  telemetry::Registry& registry = service_shaped_registry();
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::string mirror;
    telemetry::render_json(registry, mirror);
    bytes = mirror.size();
    benchmark::DoNotOptimize(mirror);
  }
  state.counters["mirror_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_RenderJson);

}  // namespace

BENCHMARK_MAIN();
