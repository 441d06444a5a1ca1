#include "data/categories.hpp"

#include <cassert>
#include <unordered_map>

#include "util/format.hpp"

namespace crowdweb::data {

namespace {

struct RootSpec {
  std::string_view name;
  std::initializer_list<std::string_view> leaves;
};

// Mirrors the top of the Foursquare category tree as the paper uses it
// ('Eatery', 'Shops', ... appear verbatim in the paper's examples).
const RootSpec kFoursquareRoots[] = {
    {"Arts & Entertainment",
     {"Movie Theater", "Museum", "Music Venue", "Stadium", "Art Gallery", "Theater",
      "Casino", "Comedy Club"}},
    {"College & University",
     {"University", "College Classroom", "Library", "Student Center", "College Gym",
      "Fraternity House"}},
    {"Eatery",
     {"Thai Restaurant", "Pizza Place", "Coffee Shop", "Burger Joint", "Chinese Restaurant",
      "Deli", "Bakery", "Mexican Restaurant", "Sushi Restaurant", "Diner",
      "Italian Restaurant", "Fast Food Restaurant", "Sandwich Place", "Ice Cream Shop"}},
    {"Nightlife Spot",
     {"Bar", "Nightclub", "Pub", "Lounge", "Speakeasy", "Karaoke Bar"}},
    {"Outdoors & Recreation",
     {"Park", "Playground", "Gym", "Trail", "Beach", "Plaza", "Sports Field",
      "Scenic Lookout"}},
    {"Professional & Other Places",
     {"Office", "Coworking Space", "Medical Center", "Conference Room", "Factory",
      "Government Building", "School"}},
    {"Residence",
     {"Home (private)", "Apartment Building", "Housing Development", "Residential Building"}},
    {"Shop & Service",
     {"Grocery Store", "Clothing Store", "Electronics Store", "Bookstore", "Pharmacy",
      "Salon / Barbershop", "Bank", "Convenience Store", "Department Store",
      "Hardware Store", "Laundry Service"}},
    {"Travel & Transport",
     {"Subway Station", "Bus Station", "Train Station", "Airport", "Hotel", "Ferry",
      "Taxi Stand", "Bike Share Station"}},
};

}  // namespace

Result<Taxonomy> Taxonomy::create(std::vector<Category> categories) {
  if (categories.size() >= kNoCategory)
    return invalid_argument("too many categories");
  Taxonomy tax;
  tax.categories_ = std::move(categories);
  tax.root_position_.assign(tax.categories_.size(), 0);
  for (std::size_t i = 0; i < tax.categories_.size(); ++i) {
    Category& cat = tax.categories_[i];
    if (cat.id != static_cast<CategoryId>(i))
      return invalid_argument(
          crowdweb::format("category id {} at position {}", cat.id, i));
    if (cat.name.empty()) return invalid_argument("empty category name");
    if (cat.is_root()) {
      tax.root_position_[i] = tax.roots_.size();
      tax.roots_.push_back(cat.id);
      tax.children_.emplace_back();
    } else {
      if (cat.parent >= i)
        return invalid_argument(
            crowdweb::format("category '{}' references a later parent", cat.name));
      const Category& parent = tax.categories_[cat.parent];
      if (!parent.is_root())
        return invalid_argument(
            crowdweb::format("category '{}' nests deeper than two levels", cat.name));
      tax.children_[tax.root_position_[cat.parent]].push_back(cat.id);
    }
    tax.by_name_.emplace(cat.name, cat.id);  // a repeated name keeps its first id
  }
  return tax;
}

const Taxonomy& Taxonomy::foursquare() {
  static const Taxonomy instance = [] {
    std::vector<Category> cats;
    for (const RootSpec& root : kFoursquareRoots) {
      const auto root_id = static_cast<CategoryId>(cats.size());
      cats.push_back({root_id, std::string(root.name), kNoCategory});
      for (const std::string_view leaf : root.leaves)
        cats.push_back({static_cast<CategoryId>(cats.size()), std::string(leaf), root_id});
    }
    auto result = create(std::move(cats));
    assert(result.is_ok());
    return std::move(result).value();
  }();
  return instance;
}

const Category& Taxonomy::category(CategoryId id) const {
  assert(id < categories_.size() && "category id out of range");
  return categories_[id];
}

std::optional<CategoryId> Taxonomy::find(std::string_view name) const noexcept {
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) return std::nullopt;
  return it->second;
}

CategoryId Taxonomy::root_of(CategoryId id) const {
  const Category& cat = category(id);
  return cat.is_root() ? cat.id : cat.parent;
}

std::span<const CategoryId> Taxonomy::children(CategoryId root) const {
  const Category& cat = category(root);
  assert(cat.is_root() && "children() requires a root category");
  (void)cat;
  return children_[root_position_[root]];
}

}  // namespace crowdweb::data
