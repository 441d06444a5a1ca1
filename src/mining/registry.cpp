#include "mining/registry.hpp"

#include <array>
#include <string>

#include "mining/bide.hpp"
#include "mining/prefixspan.hpp"

namespace crowdweb::mining {

namespace {

class PrefixSpanMiner final : public IMiningAlgorithm {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "prefixspan"; }
  [[nodiscard]] bool closed_output() const noexcept override { return false; }
  [[nodiscard]] MiningResult mine(const SequenceColumns& db,
                                  const MiningOptions& options) const override {
    MiningResult result;
    result.patterns = prefixspan(db, options, &result.stats);
    return result;
  }
};

class BideMiner final : public IMiningAlgorithm {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "bide"; }
  [[nodiscard]] bool closed_output() const noexcept override { return true; }
  [[nodiscard]] MiningResult mine(const SequenceColumns& db,
                                  const MiningOptions& options) const override {
    MiningResult result;
    result.patterns = bide(db, options, &result.stats);
    return result;
  }
};

const std::array<const IMiningAlgorithm*, 2>& all_miners() {
  static const PrefixSpanMiner prefixspan_miner;
  static const BideMiner bide_miner;
  static const std::array<const IMiningAlgorithm*, 2> miners = {&prefixspan_miner,
                                                                &bide_miner};
  return miners;
}

}  // namespace

const IMiningAlgorithm* find_miner(std::string_view name) noexcept {
  for (const IMiningAlgorithm* miner : all_miners()) {
    if (miner->name() == name) return miner;
  }
  return nullptr;
}

Result<const IMiningAlgorithm*> resolve_miner(std::string_view name) {
  if (const IMiningAlgorithm* miner = find_miner(name); miner != nullptr) return miner;
  std::string known;
  for (const IMiningAlgorithm* miner : all_miners()) {
    if (!known.empty()) known += ", ";
    known += miner->name();
  }
  return invalid_argument("unknown mining algorithm '" + std::string(name) +
                          "' (registered: " + known + ")");
}

std::vector<std::string_view> miner_names() {
  std::vector<std::string_view> names;
  names.reserve(all_miners().size());
  for (const IMiningAlgorithm* miner : all_miners()) names.push_back(miner->name());
  return names;
}

const IMiningAlgorithm& miner_for(std::string_view name) noexcept {
  const IMiningAlgorithm* miner = find_miner(name);
  return miner != nullptr ? *miner : *all_miners().front();
}

}  // namespace crowdweb::mining
