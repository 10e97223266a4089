#include "base/strings.hh"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdlib>

namespace wcrt {

std::vector<std::string>
split(std::string_view text, char delim)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (true) {
        size_t pos = text.find(delim, start);
        if (pos == std::string_view::npos) {
            out.emplace_back(text.substr(start));
            return out;
        }
        out.emplace_back(text.substr(start, pos - start));
        start = pos + 1;
    }
}

std::vector<std::string>
splitWhitespace(std::string_view text)
{
    std::vector<std::string> out;
    size_t i = 0;
    while (i < text.size()) {
        while (i < text.size() &&
               std::isspace(static_cast<unsigned char>(text[i])))
            ++i;
        size_t start = i;
        while (i < text.size() &&
               !std::isspace(static_cast<unsigned char>(text[i])))
            ++i;
        if (i > start)
            out.emplace_back(text.substr(start, i - start));
    }
    return out;
}

bool
startsWith(std::string_view text, std::string_view prefix)
{
    return text.size() >= prefix.size() &&
           text.substr(0, prefix.size()) == prefix;
}

uint64_t
fnv1a(std::string_view text)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (char ch : text) {
        h ^= static_cast<unsigned char>(ch);
        h *= 0x100000001b3ull;
    }
    return h;
}

bool
parseDecimalCount(const std::string &text, uint64_t min, uint64_t max,
                  uint64_t &out)
{
    // Unsigned from_chars takes no sign and no leading space.
    uint64_t v = 0;
    const char *last = text.data() + text.size();
    auto [end, ec] = std::from_chars(text.data(), last, v);
    if (ec != std::errc() || end != last || v < min || v > max)
        return false;
    out = v;
    return true;
}

bool
parsePositiveDecimal(const std::string &text, double &out)
{
    // Digits and dots only, all of them consumed by strtod (so at most
    // one dot).
    if (text.empty() ||
        text.find_first_not_of("0123456789.") != std::string::npos)
        return false;
    char *end = nullptr;
    errno = 0;
    double v = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size() || errno == ERANGE || v <= 0.0)
        return false;
    out = v;
    return true;
}

} // namespace wcrt
