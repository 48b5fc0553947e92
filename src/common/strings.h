// Small string helpers shared across modules (no locale dependence).

#ifndef PB_COMMON_STRINGS_H_
#define PB_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace pb {

/// Removes leading and trailing ASCII whitespace.
std::string_view StripAsciiWhitespace(std::string_view s);

/// ASCII lower-case copy.
std::string AsciiToLower(std::string_view s);

/// ASCII upper-case copy.
std::string AsciiToUpper(std::string_view s);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Splits on a single character; keeps empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins with a separator.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Formats a double compactly: integral values without trailing ".0",
/// otherwise up to `precision` significant digits.
std::string FormatDouble(double v, int precision = 10);

/// SQL LIKE matching with '%' (any run) and '_' (any single char).
bool LikeMatch(std::string_view text, std::string_view pattern);

}  // namespace pb

#endif  // PB_COMMON_STRINGS_H_
