#include "core/view.hpp"

#include <algorithm>
#include <utility>

namespace crowdweb::core {

const patterns::UserMobility* PinnedView::find_user(
    data::UserId user, const data::Dataset** home) const noexcept {
  for (const MobilityPart& part : users) {
    std::size_t lo = 0;
    std::size_t hi = part.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (part[mid].user < user) lo = mid + 1;
      else hi = mid;
    }
    if (lo < part.size() && part[lo].user == user) {
      *home = part.dataset;
      return &part[lo];
    }
  }
  return nullptr;
}

void PinnedView::for_each_user(
    const std::function<void(const patterns::UserMobility&)>& fn) const {
  std::vector<std::size_t> cursor(users.size(), 0);
  bool emitted = false;
  data::UserId last_user = 0;
  while (true) {
    std::size_t pick = users.size();
    for (std::size_t i = 0; i < users.size(); ++i) {
      while (emitted && cursor[i] < users[i].size() && users[i][cursor[i]].user <= last_user)
        ++cursor[i];  // duplicate of an already-emitted user
      if (cursor[i] >= users[i].size()) continue;
      if (pick == users.size() || users[i][cursor[i]].user < users[pick][cursor[pick]].user)
        pick = i;
    }
    if (pick == users.size()) return;
    const patterns::UserMobility& entry = users[pick][cursor[pick]++];
    last_user = entry.user;
    emitted = true;
    fn(entry);
  }
}

patterns::MobilityStats PinnedView::mobility_stats() const {
  patterns::MobilityStats stats;
  for (const MobilityPart& part : users) {
    if (part.table != nullptr) {
      stats.merge(part.table->stats());
    } else {
      for (const patterns::UserMobility& entry : part.batch) stats.add(entry);
    }
  }
  return stats;
}

ViewPtr batch_view(const Platform& platform) {
  auto view = std::make_shared<PinnedView>();
  view->platform = &platform;
  view->epochs = {0};
  view->epoch_tag = epoch_tag_of(view->epochs);
  view->crowd = &platform.crowd_model();
  view->dataset = &platform.experiment_dataset();
  view->grid = &platform.grid();
  view->users.push_back({view->dataset, nullptr, platform.mobility()});
  view->checkins = view->dataset->checkin_count();
  view->user_count = view->dataset->user_count();
  return view;
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
    view->users.push_back({&pin->dataset, &pin->mobility, {}});
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
