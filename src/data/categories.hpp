// Venue category taxonomy.
//
// CrowdWeb's key idea is *location abstraction*: a venue is mined not by
// its identity ("Thai Pothong") but by its label ("Eatery"), so a user who
// eats Thai food at a different restaurant every day still exhibits the
// pattern Eatery@12:00. This module models a two-level taxonomy in the
// style of the Foursquare category tree used by the paper's dataset: nine
// root categories and a set of leaf venue types under each.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/status.hpp"

namespace crowdweb::data {

using CategoryId = std::uint16_t;

/// Sentinel for "no parent" (root categories).
inline constexpr CategoryId kNoCategory = 0xFFFF;

struct Category {
  CategoryId id = kNoCategory;
  std::string name;
  CategoryId parent = kNoCategory;  ///< kNoCategory for roots

  [[nodiscard]] bool is_root() const noexcept { return parent == kNoCategory; }
};

/// An immutable two-level category tree with by-id and by-name lookup.
class Taxonomy {
 public:
  /// The default CrowdWeb taxonomy mirroring the Foursquare NYC category
  /// tree: roots {Arts & Entertainment, College & University, Eatery,
  /// Nightlife, Outdoors & Recreation, Professional, Residence, Shops,
  /// Travel & Transport} plus leaf venue types under each.
  static const Taxonomy& foursquare();

  /// Builds a custom taxonomy; `parent` of each entry must be either
  /// kNoCategory or the index of an earlier root entry.
  static Result<Taxonomy> create(std::vector<Category> categories);

  [[nodiscard]] std::size_t size() const noexcept { return categories_.size(); }
  [[nodiscard]] const Category& category(CategoryId id) const;
  [[nodiscard]] std::optional<CategoryId> find(std::string_view name) const noexcept;

  /// Root ancestor of `id` (identity for roots).
  [[nodiscard]] CategoryId root_of(CategoryId id) const;

  /// All root categories, in insertion order.
  [[nodiscard]] const std::vector<CategoryId>& roots() const noexcept { return roots_; }

  /// Leaf categories under a root, in insertion order.
  [[nodiscard]] std::span<const CategoryId> children(CategoryId root) const;

  [[nodiscard]] const std::string& name(CategoryId id) const { return category(id).name; }

 private:
  /// Hashes std::string keys and std::string_view probes alike.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view name) const noexcept {
      return std::hash<std::string_view>{}(name);
    }
  };

  Taxonomy() = default;

  std::vector<Category> categories_;
  std::vector<CategoryId> roots_;
  std::vector<std::vector<CategoryId>> children_;  // indexed by root position
  std::vector<std::size_t> root_position_;         // category id -> index into roots_
  // name -> lowest id carrying it; owns its keys, so copies stay valid
  std::unordered_map<std::string, CategoryId, NameHash, std::equal_to<>> by_name_;
};

}  // namespace crowdweb::data
