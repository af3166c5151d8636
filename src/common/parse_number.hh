/**
 * @file
 * Strict number parsing for every text decoder (CLI flags, sweep
 * specs, chaos schedules, layout plans): the whole token must be the
 * number -- no whitespace, '+', trailing bytes, or '-' on an unsigned
 * type -- and it must fit the destination type. strtoull accepts
 * "-1" as 2^64-1 and "12abc" as 12, and a cast afterwards truncates
 * 4294967297 to 1: each is how a typo used to become another run.
 */

#ifndef TMI_COMMON_PARSE_NUMBER_HH
#define TMI_COMMON_PARSE_NUMBER_HH

#include <charconv>
#include <cmath>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>

namespace tmi
{

/** Parse all of @p text as a @p T; false (@p out untouched) on
 *  garbage, overflow or a non-finite floating-point value. */
template <typename T>
bool
parseNumber(std::string_view text, T &out)
{
    T value{};
    auto [stop, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc() || stop != text.data() + text.size() ||
        text.empty())
        return false;
    if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(value))
            return false;
    }
    out = value;
    return true;
}

/** parseNumber, or false with @p err = "'TEXT' is not an integer in
 *  [MIN, MAX]" (or "a finite number"). */
template <typename T>
bool
parseNumber(std::string_view text, T &out, std::string &err)
{
    if (parseNumber(text, out))
        return true;
    err = "'" + std::string(text) + "' is not ";
    if constexpr (std::is_floating_point_v<T>) {
        err += "a finite number";
    } else {
        err += "an integer in [" +
               std::to_string(std::numeric_limits<T>::min()) + ", " +
               std::to_string(std::numeric_limits<T>::max()) + "]";
    }
    return false;
}

} // namespace tmi

#endif // TMI_COMMON_PARSE_NUMBER_HH
