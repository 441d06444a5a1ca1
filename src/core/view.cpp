#include "core/view.hpp"

#include <utility>

namespace crowdweb::core {

const patterns::UserMobility* PinnedView::find_user(
    data::UserId user, const data::Dataset** home) const noexcept {
  for (const ingest::SnapshotPtr& pin : pins) {
    if (pin == nullptr) continue;
    if (const patterns::UserMobility* entry = pin->mobility.find(user)) {
      *home = &pin->dataset;
      return entry;
    }
  }
  return nullptr;
}

void PinnedView::for_each_user(
    const std::function<void(const patterns::UserMobility&)>& fn) const {
  std::vector<patterns::MobilityTable::const_iterator> cursor;
  std::vector<patterns::MobilityTable::const_iterator> end;
  for (const ingest::SnapshotPtr& pin : pins) {
    if (pin == nullptr) continue;
    cursor.push_back(pin->mobility.begin());
    end.push_back(pin->mobility.end());
  }
  while (true) {
    std::size_t pick = cursor.size();
    for (std::size_t i = 0; i < cursor.size(); ++i) {
      if (cursor[i] == end[i]) continue;
      if (pick == cursor.size() || cursor[i]->user < cursor[pick]->user) pick = i;
    }
    if (pick == cursor.size()) return;
    fn(*cursor[pick]++);
  }
}

patterns::MobilityStats PinnedView::mobility_stats() const {
  patterns::MobilityStats stats;
  for (const ingest::SnapshotPtr& pin : pins)
    if (pin != nullptr) stats.merge(pin->mobility.stats());
  return stats;
}

ViewPtr view_of(const Platform& platform, std::vector<ingest::SnapshotPtr> pins,
                std::uint64_t cache_epoch) {
  auto view = std::make_shared<PinnedView>();
  view->platform = &platform;
  view->cache_epoch = cache_epoch;
  std::vector<const crowd::CrowdModel*> crowds;
  for (std::size_t id = 0; id < pins.size(); ++id) {
    const ingest::PlatformSnapshot* pin = pins[id].get();
    view->epochs.push_back(pin != nullptr ? pin->epoch : 0);
    if (pin == nullptr) {
      view->missing.push_back(id);
      continue;
    }
    crowds.push_back(&pin->crowd);
    if (view->dataset == nullptr) {
      view->dataset = &pin->dataset;
      view->grid = &pin->grid;
    }
    view->live_checkins += pin->live_checkins;
    view->checkins += pin->dataset.checkin_count();
    view->user_count += pin->dataset.user_count();
  }
  view->pins = std::move(pins);
  view->degraded = !view->missing.empty();
  view->epoch_tag = epoch_tag_of(view->epochs);
  if (crowds.size() == 1) {
    view->crowd = crowds.front();
  } else if (crowds.size() > 1) {
    // Grid/options disagreement is a construction bug (the router pins
    // both); degrade to the first live shard rather than 500.
    auto merged = crowd::CrowdModel::merge(crowds);
    if (merged) {
      view->merged_crowd = std::make_shared<const crowd::CrowdModel>(std::move(*merged));
      view->crowd = view->merged_crowd.get();
    } else {
      view->crowd = crowds.front();
    }
  }
  return view;
}

std::string epoch_tag_of(std::span<const std::uint64_t> epochs) {
  std::string tag;
  for (std::size_t i = 0; i < epochs.size(); ++i) {
    if (i > 0) tag.push_back('.');
    tag += std::to_string(epochs[i]);
  }
  return tag;
}

}  // namespace crowdweb::core
