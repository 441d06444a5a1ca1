// Miner ablation: PrefixSpan vs GSP vs the naive DFS miner.
//
// The paper adopts (a modified) PrefixSpan; this bench shows why, on the
// workload the platform actually runs: per-user day-sequence databases.
// All four miners produce identical output (enforced by the test suite);
// here we compare cost as the database grows and as support drops. GSP,
// SPADE and naive are the test-only references in tests/reference/.

#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "mining/prefixspan.hpp"
#include "mining/seqdb.hpp"
#include "reference/gsp.hpp"
#include "reference/naive.hpp"
#include "reference/spade.hpp"
#include "util/rng.hpp"

using namespace crowdweb;

namespace {

/// Synthetic day-sequence DB shaped like a real user's: short sequences
/// drawn from a small alphabet with a routine backbone plus noise.
mining::SequenceDb routine_db(std::size_t days, std::uint64_t seed) {
  Rng rng(seed);
  mining::SequenceDb db;
  db.reserve(days);
  for (std::size_t d = 0; d < days; ++d) {
    std::vector<mining::Item> day;
    if (rng.bernoulli(0.6)) day.push_back(0);  // coffee (eatery)
    if (rng.bernoulli(0.8)) day.push_back(1);  // work
    if (rng.bernoulli(0.7)) day.push_back(0);  // lunch (eatery)
    if (rng.bernoulli(0.4)) day.push_back(static_cast<mining::Item>(rng.uniform_int(2, 5)));
    if (rng.bernoulli(0.7)) day.push_back(6);  // home
    if (day.empty()) day.push_back(static_cast<mining::Item>(rng.uniform_int(0, 6)));
    db.push_back(std::move(day));
  }
  return db;
}

template <typename Miner>
void run_miner(benchmark::State& state, Miner miner) {
  const auto days = static_cast<std::size_t>(state.range(0));
  const double support = static_cast<double>(state.range(1)) / 100.0;
  const mining::SequenceDb db = routine_db(days, 17);
  mining::MiningOptions options;
  options.min_support = support;
  std::size_t patterns = 0;
  for (auto _ : state) {
    auto result = miner(db, options);
    patterns = result.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["patterns"] = static_cast<double>(patterns);
}

void BM_PrefixSpan(benchmark::State& state) {
  run_miner(state, [](const mining::SequenceDb& db, const mining::MiningOptions& options) {
    return mining::prefixspan(db, options);
  });
}
void BM_Gsp(benchmark::State& state) {
  run_miner(state, [](const mining::SequenceDb& db, const mining::MiningOptions& options) {
    return mining::gsp(db, options);
  });
}
void BM_Naive(benchmark::State& state) {
  run_miner(state, [](const mining::SequenceDb& db, const mining::MiningOptions& options) {
    return mining::naive_miner(db, options);
  });
}
void BM_Spade(benchmark::State& state) {
  run_miner(state, [](const mining::SequenceDb& db, const mining::MiningOptions& options) {
    return mining::spade(db, options);
  });
}

void miner_args(benchmark::internal::Benchmark* bench) {
  for (const std::int64_t days : {64, 256, 1024}) {
    for (const std::int64_t support : {25, 50}) bench->Args({days, support});
  }
}

BENCHMARK(BM_PrefixSpan)->Apply(miner_args)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Gsp)->Apply(miner_args)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Naive)->Apply(miner_args)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Spade)->Apply(miner_args)->Unit(benchmark::kMicrosecond);

/// The real workload: mining every active user of the experiment corpus.
template <typename Miner>
void run_corpus(benchmark::State& state, Miner miner) {
  const data::Dataset& active = bench::experiment_dataset();
  const auto sequences =
      mining::build_all_sequences(active, data::Taxonomy::foursquare());
  mining::MiningOptions options;
  options.min_support = 0.25;
  // Re-nest outside the timed loop: the ablation miners take SequenceDb.
  std::vector<mining::SequenceDb> dbs;
  dbs.reserve(sequences.size());
  for (const mining::UserSequences& user : sequences) {
    mining::SequenceDb db;
    db.reserve(user.day_count());
    for (std::size_t d = 0; d < user.day_count(); ++d) {
      const auto day = user.day(d);
      db.emplace_back(day.begin(), day.end());
    }
    dbs.push_back(std::move(db));
  }
  for (auto _ : state) {
    std::size_t total = 0;
    for (const mining::SequenceDb& db : dbs) total += miner(db, options).size();
    benchmark::DoNotOptimize(total);
    state.counters["patterns"] = static_cast<double>(total);
  }
}

void BM_Corpus_PrefixSpan(benchmark::State& state) {
  run_corpus(state, [](const mining::SequenceDb& db, const mining::MiningOptions& options) {
    return mining::prefixspan(db, options);
  });
}
void BM_Corpus_Gsp(benchmark::State& state) {
  run_corpus(state, [](const mining::SequenceDb& db, const mining::MiningOptions& options) {
    return mining::gsp(db, options);
  });
}
void BM_Corpus_Spade(benchmark::State& state) {
  run_corpus(state, [](const mining::SequenceDb& db, const mining::MiningOptions& options) {
    return mining::spade(db, options);
  });
}
BENCHMARK(BM_Corpus_PrefixSpan)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Corpus_Gsp)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Corpus_Spade)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
