// Small string utilities shared across the CrowdWeb modules.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "util/status.hpp"

namespace crowdweb {

/// Splits on `delim`; adjacent delimiters yield empty fields.
/// split("a,,b", ',') -> {"a", "", "b"}; split("", ',') -> {""}.
[[nodiscard]] std::vector<std::string_view> split(std::string_view text, char delim);

/// Removes leading and trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view text) noexcept;

/// Joins `parts` with `sep`.
[[nodiscard]] std::string join(const std::vector<std::string>& parts, std::string_view sep);
[[nodiscard]] std::string join(const std::vector<std::string_view>& parts, std::string_view sep);

/// ASCII lower-casing.
[[nodiscard]] std::string to_lower(std::string_view text);

[[nodiscard]] bool starts_with(std::string_view text, std::string_view prefix) noexcept;
[[nodiscard]] bool ends_with(std::string_view text, std::string_view suffix) noexcept;

/// Strict integer/double parsing of the full string (after trimming).
/// parse_double refuses non-finite results ("nan", "inf").
[[nodiscard]] Result<std::int64_t> parse_int(std::string_view text);
[[nodiscard]] Result<double> parse_double(std::string_view text);

/// Percent-decodes a URL component ("%20" -> ' ', '+' -> ' ').
[[nodiscard]] Result<std::string> url_decode(std::string_view text);
/// Percent-encodes everything outside [A-Za-z0-9-._~].
[[nodiscard]] std::string url_encode(std::string_view text);

}  // namespace crowdweb
