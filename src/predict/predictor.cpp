#include "predict/predictor.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "mining/prefixspan.hpp"

namespace crowdweb::predict {

namespace {

/// Sorts by score descending (ties by label for determinism) and
/// deduplicates labels keeping the best score.
std::vector<Prediction> finalize(std::map<mining::Item, double> scores) {
  std::vector<Prediction> out;
  out.reserve(scores.size());
  for (const auto& [label, score] : scores) out.push_back({label, score});
  std::sort(out.begin(), out.end(), [](const Prediction& a, const Prediction& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.label < b.label;
  });
  return out;
}

// ------------------------------------------------------------- Frequency

class FrequencyPredictor final : public Predictor {
 public:
  void train(const mining::UserSequences& history) override {
    // Day boundaries don't matter for plain frequency: walk the flat
    // item column.
    for (const mining::Item item : history.items) counts_[item] += 1.0;
  }

  std::vector<Prediction> predict(const Query&) const override {
    return finalize(counts_);
  }

  std::string name() const override { return "frequency"; }

 private:
  std::map<mining::Item, double> counts_;
};

// -------------------------------------------------------------- TimeSlot

class TimeSlotPredictor final : public Predictor {
 public:
  explicit TimeSlotPredictor(int slot_minutes)
      : slot_minutes_(std::clamp(slot_minutes, 1, 24 * 60)) {}

  void train(const mining::UserSequences& history) override {
    // items/item_minutes are parallel flat columns; slots don't care
    // about day boundaries.
    for (std::size_t i = 0; i < history.items.size(); ++i) {
      const mining::Item item = history.items[i];
      const int slot = history.item_minutes[i] / slot_minutes_;
      slot_counts_[slot][item] += 1.0;
      global_[item] += 1.0;
    }
  }

  std::vector<Prediction> predict(const Query& query) const override {
    const int slot = std::clamp(query.minute, 0, 24 * 60 - 1) / slot_minutes_;
    // Blend: the current slot dominates, global breaks ties and covers
    // unseen slots.
    std::map<mining::Item, double> scores;
    for (const auto& [label, count] : global_) scores[label] = 0.001 * count;
    if (const auto it = slot_counts_.find(slot); it != slot_counts_.end()) {
      for (const auto& [label, count] : it->second) scores[label] += count;
    }
    return finalize(std::move(scores));
  }

  std::string name() const override { return "time-slot"; }

 private:
  int slot_minutes_;
  std::map<int, std::map<mining::Item, double>> slot_counts_;
  std::map<mining::Item, double> global_;
};

// ---------------------------------------------------------------- Markov

class MarkovPredictor final : public Predictor {
 public:
  explicit MarkovPredictor(int order) : order_(std::clamp(order, 1, 4)) {}

  void train(const mining::UserSequences& history) override {
    for (std::size_t d = 0; d < history.day_count(); ++d) {
      const auto day = history.day(d);
      for (std::size_t i = 0; i < day.size(); ++i) {
        global_[day[i]] += 1.0;
        // Context of every length 1..order ending just before position i.
        for (int k = 1; k <= order_ && static_cast<std::size_t>(k) <= i; ++k) {
          const std::vector<mining::Item> context(day.begin() + (i - k), day.begin() + i);
          transitions_[context][day[i]] += 1.0;
        }
      }
    }
  }

  std::vector<Prediction> predict(const Query& query) const override {
    // Longest matching context wins; shorter contexts and the global
    // frequency contribute with geometrically decaying weight.
    std::map<mining::Item, double> scores;
    double weight = 1.0;
    for (int k = std::min<int>(order_, static_cast<int>(query.today.size())); k >= 1; --k) {
      const std::vector<mining::Item> context(query.today.end() - k, query.today.end());
      if (const auto it = transitions_.find(context); it != transitions_.end()) {
        double total = 0.0;
        for (const auto& [label, count] : it->second) total += count;
        for (const auto& [label, count] : it->second)
          scores[label] += weight * count / total;
      }
      weight *= 0.25;
    }
    double total = 0.0;
    for (const auto& [label, count] : global_) total += count;
    if (total > 0.0) {
      for (const auto& [label, count] : global_) scores[label] += 0.01 * count / total;
    }
    return finalize(std::move(scores));
  }

  std::string name() const override {
    return "markov-" + std::to_string(order_);
  }

 private:
  int order_;
  std::map<std::vector<mining::Item>, std::map<mining::Item, double>> transitions_;
  std::map<mining::Item, double> global_;
};

// --------------------------------------------------------------- Pattern

class PatternPredictor final : public Predictor {
 public:
  explicit PatternPredictor(PatternPredictorOptions options)
      : options_(options), fallback_(make_time_slot_predictor()) {}

  void train(const mining::UserSequences& history) override {
    fallback_->train(history);
    mining::MiningOptions mining_options;
    mining_options.min_support = options_.min_support;
    const auto mined = mining::prefixspan(history.columns(), mining_options);
    patterns_.reserve(mined.size());
    for (const mining::Pattern& pattern : mined)
      patterns_.push_back(patterns::annotate_pattern(pattern, history.shapes));
  }

  std::vector<Prediction> predict(const Query& query) const override {
    std::map<mining::Item, double> scores;
    for (const patterns::MobilityPattern& pattern : patterns_) {
      // Longest prefix of the pattern that today's visits already embed.
      std::size_t matched = 0;
      for (const mining::Item item : query.today) {
        if (matched < pattern.elements.size() && item == pattern.elements[matched].label)
          ++matched;
      }
      if (matched >= pattern.elements.size()) continue;  // pattern exhausted
      const patterns::TimedElement& next = pattern.elements[matched];
      // The predicted element must lie ahead of "now" (with slack for the
      // annotation's own spread).
      const double ahead = next.mean_minute - query.minute;
      if (ahead < -next.stddev_minute - 30.0) continue;
      // Score: support, scaled down the further in the future it is and
      // boosted by how much of the pattern today's visits confirm.
      const double time_factor =
          ahead <= options_.time_tolerance_minutes
              ? 1.0
              : options_.time_tolerance_minutes / std::max(1.0, ahead);
      const double prefix_bonus = 1.0 + static_cast<double>(matched);
      scores[next.label] += pattern.support * time_factor * prefix_bonus;
    }
    if (scores.empty()) return fallback_->predict(query);

    // Blend in a tiny fallback signal so equal-score pattern ties break
    // toward the time-appropriate label.
    const auto fallback = fallback_->predict(query);
    double norm = 0.0;
    for (const Prediction& p : fallback) norm = std::max(norm, p.score);
    if (norm > 0.0) {
      for (const Prediction& p : fallback) scores[p.label] += 1e-3 * p.score / norm;
    }
    return finalize(std::move(scores));
  }

  std::string name() const override { return "pattern"; }

 private:
  PatternPredictorOptions options_;
  std::vector<patterns::MobilityPattern> patterns_;
  std::unique_ptr<Predictor> fallback_;
};

// -------------------------------------------------------------- Ensemble

class EnsemblePredictor final : public Predictor {
 public:
  EnsemblePredictor() {
    members_.push_back({make_time_slot_predictor(), 1.0});
    members_.push_back({make_pattern_predictor(), 0.8});
    members_.push_back({make_markov_predictor(2), 0.5});
  }

  void train(const mining::UserSequences& history) override {
    for (auto& [member, weight] : members_) member->train(history);
  }

  std::vector<Prediction> predict(const Query& query) const override {
    // Reciprocal-rank fusion: robust to the members' different score
    // scales.
    std::map<mining::Item, double> scores;
    for (const auto& [member, weight] : members_) {
      const auto ranked = member->predict(query);
      for (std::size_t rank = 0; rank < ranked.size(); ++rank)
        scores[ranked[rank].label] += weight / static_cast<double>(rank + 1);
    }
    return finalize(std::move(scores));
  }

  std::string name() const override { return "ensemble"; }

 private:
  std::vector<std::pair<std::unique_ptr<Predictor>, double>> members_;
};

}  // namespace

std::unique_ptr<Predictor> make_frequency_predictor() {
  return std::make_unique<FrequencyPredictor>();
}

std::unique_ptr<Predictor> make_time_slot_predictor(int slot_minutes) {
  return std::make_unique<TimeSlotPredictor>(slot_minutes);
}

std::unique_ptr<Predictor> make_markov_predictor(int order) {
  return std::make_unique<MarkovPredictor>(order);
}

std::unique_ptr<Predictor> make_pattern_predictor(PatternPredictorOptions options) {
  return std::make_unique<PatternPredictor>(options);
}

std::unique_ptr<Predictor> make_ensemble_predictor() {
  return std::make_unique<EnsemblePredictor>();
}

}  // namespace crowdweb::predict
