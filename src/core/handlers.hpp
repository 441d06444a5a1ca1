// Read handlers of the CrowdWeb API (core/api.cpp registers them).
//
// Every handler here is a pure function of one PinnedView (core/view.hpp)
// plus request parameters, so it renders byte-identical bodies whether
// the view is the batch build, one live epoch, or a merge of several
// shard epochs. That is what makes the N-shard equivalence guarantee a
// property of the merge, not of duplicated rendering code.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "core/view.hpp"
#include "http/message.hpp"
#include "http/router.hpp"

namespace crowdweb::core::handlers {

/// Parses an integer path parameter, returning nullopt on junk.
[[nodiscard]] std::optional<std::int64_t> int_param(const http::PathParams& params,
                                                    std::string_view name);

/// 400 naming the offending value and the valid window range.
[[nodiscard]] http::Response bad_window(const http::PathParams& params,
                                        std::string_view name, int window_count);

[[nodiscard]] bool valid_window(const PinnedView& view, std::int64_t window);

/// Every read route's handler: a pure function of one pinned view and
/// the request. core/api.cpp pins the view and stamps its epoch.
using ViewHandler = http::Response (*)(const PinnedView& view, const http::Request& request,
                                       const http::PathParams& params);

http::Response crowd_handler(const PinnedView&, const http::Request&, const http::PathParams&);
http::Response crowd_map_handler(const PinnedView&, const http::Request&,
                                 const http::PathParams&);
http::Response crowd_geojson_handler(const PinnedView&, const http::Request&,
                                     const http::PathParams&);
http::Response groups_handler(const PinnedView&, const http::Request&,
                              const http::PathParams&);
http::Response flow_handler(const PinnedView&, const http::Request&, const http::PathParams&);
http::Response flow_map_handler(const PinnedView&, const http::Request&,
                                const http::PathParams&);
/// ?seconds=S scales playback speed.
http::Response animation_handler(const PinnedView&, const http::Request&,
                                 const http::PathParams&);
http::Response rhythm_handler(const PinnedView&, const http::Request&,
                              const http::PathParams&);
http::Response communities_handler(const PinnedView&, const http::Request&,
                                   const http::PathParams&);
http::Response users_handler(const PinnedView&, const http::Request&, const http::PathParams&);
http::Response user_patterns_handler(const PinnedView&, const http::Request&,
                                     const http::PathParams&);
http::Response user_graph_handler(const PinnedView&, const http::Request&,
                                  const http::PathParams&);
http::Response user_timeline_handler(const PinnedView&, const http::Request&,
                                     const http::PathParams&);
/// Next-place prediction: trains the pattern predictor on the user's
/// history per request (a user's history is tiny) and ranks their
/// likely next place at ?minute=M.
http::Response predict_handler(const PinnedView&, const http::Request&,
                               const http::PathParams&);
/// The booth feature: mines an uploaded check-in history (CSV body) and
/// returns its time-annotated patterns. Nothing is mutated.
http::Response analyze_handler(const PinnedView&, const http::Request&,
                               const http::PathParams&);

/// The embedded single-page viewer served at GET /.
[[nodiscard]] std::string_view viewer_html() noexcept;

}  // namespace crowdweb::core::handlers
