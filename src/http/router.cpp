#include "http/router.hpp"

#include <algorithm>
#include <cctype>
#include <exception>

#include "util/format.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace crowdweb::http {

std::vector<std::string> Router::split_path(std::string_view path) {
  std::vector<std::string> segments;
  for (const std::string_view part : split(path, '/')) {
    if (!part.empty()) segments.emplace_back(part);
  }
  return segments;
}

void Router::add(std::string_view method, std::string_view pattern, Handler handler,
                 RouteOptions options) {
  Route route;
  for (const char c : method)
    route.method += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  route.segments = split_path(pattern);
  // Normalized spelling ("/a/:b" regardless of how it was written), the
  // stable label value for per-route metrics.
  route.pattern.assign(1, '/');
  route.pattern += join(route.segments, "/");
  route.handler = std::move(handler);
  route.options = options;
  routes_.push_back(std::move(route));
}

bool Router::match(const Route& route, const std::vector<std::string>& segments,
                   PathParams& params) {
  if (route.segments.size() != segments.size()) return false;
  PathParams captured;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const std::string& pattern = route.segments[i];
    if (!pattern.empty() && pattern[0] == ':') {
      captured[pattern.substr(1)] = segments[i];
    } else if (pattern != segments[i]) {
      return false;
    }
  }
  params = std::move(captured);
  return true;
}

Response Router::dispatch(const Request& request, std::string* matched_pattern) const {
  const std::vector<std::string> segments = split_path(request.path);
  if (matched_pattern != nullptr) matched_pattern->clear();
  bool path_exists = false;
  std::vector<std::string> allowed;  // methods registered for this path, in order
  for (const Route& route : routes_) {
    PathParams params;
    if (!match(route, segments, params)) continue;
    if (!path_exists && matched_pattern != nullptr) *matched_pattern = route.pattern;
    path_exists = true;
    if (std::find(allowed.begin(), allowed.end(), route.method) == allowed.end()) {
      allowed.push_back(route.method);
      // GET handlers also serve HEAD (the server strips the body).
      if (route.method == "GET") allowed.emplace_back("HEAD");
    }
    const bool method_matches =
        route.method == request.method ||
        (request.method == "HEAD" && route.method == "GET");
    if (!method_matches) continue;
    if (matched_pattern != nullptr) *matched_pattern = route.pattern;
    try {
      return route.handler(request, params);
    } catch (const std::exception& e) {
      log_error("handler for {} {} threw: {}", request.method, request.path, e.what());
      return Response::text(500, "internal server error\n");
    }
  }
  if (path_exists) {
    const std::string allow = join(allowed, ", ");
    Response response = Response::text(
        405, crowdweb::format("method {} not allowed for this path; allowed: {}\n",
                              request.method, allow));
    response.headers["Allow"] = allow;
    return response;
  }
  return Response::not_found_404();
}

bool Router::cacheable(const Request& request, std::string* matched_pattern) const {
  if (request.method != "GET" && request.method != "HEAD") return false;
  const std::vector<std::string> segments = split_path(request.path);
  for (const Route& route : routes_) {
    if (route.method != "GET") continue;
    PathParams params;
    if (!match(route, segments, params)) continue;
    if (matched_pattern != nullptr && route.options.cacheable)
      *matched_pattern = route.pattern;
    return route.options.cacheable;
  }
  return false;
}

}  // namespace crowdweb::http
