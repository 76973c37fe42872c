/**
 * @file
 * Strict single-pass scanning and formatting for the one-line text
 * formats: workload_io (wl1), mapping_io (v1) and
 * Workload::signature().
 *
 * Parsing walks std::string_view cursors and reads each number from a
 * whole cell: no leading space or '+', no bytes after the number, no
 * hex floats, no empty cells. Formatting appends to one std::string,
 * integers with std::to_chars and densities as %g. Nothing here
 * allocates except the output string's own growth.
 */
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <system_error>

namespace mse::text {

/**
 * Cursor over the sep-separated cells of a view. Every cell is visited
 * once, empty ones included: "" is one empty cell and "a;" is the two
 * cells "a" and "", so a grammar that refuses empty cells also refuses
 * a trailing separator.
 */
class Cells
{
  public:
    Cells(std::string_view text, char sep) : rest_(text), sep_(sep) {}

    /** Store the next cell in `cell`; false once every cell was read. */
    bool
    next(std::string_view &cell)
    {
        if (done_)
            return false;
        const size_t at = rest_.find(sep_);
        if (at == std::string_view::npos) {
            cell = rest_;
            done_ = true;
        } else {
            cell = rest_.substr(0, at);
            rest_.remove_prefix(at + 1);
        }
        return true;
    }

    /** True once every cell has been read. */
    bool done() const { return done_; }

  private:
    std::string_view rest_;
    char sep_;
    bool done_ = false;
};

/** If `s` starts with `prefix`, drop it from `s` and return true. */
inline bool
consume(std::string_view &s, std::string_view prefix)
{
    if (s.substr(0, prefix.size()) != prefix)
        return false;
    s.remove_prefix(prefix.size());
    return true;
}

/**
 * `cell` as one whole decimal integer: false on an empty cell, a sign
 * other than a leading '-', any byte after the digits, or a value that
 * does not fit T.
 */
template <typename T>
bool
parseInt(std::string_view cell, T &out)
{
    const char *last = cell.data() + cell.size();
    const auto res = std::from_chars(cell.data(), last, out);
    return res.ec == std::errc() && res.ptr == last;
}

/**
 * `cell` as one whole decimal double, fixed or exponent form ("0.5",
 * "1e-05"); false as parseInt is, and on any byte but digits, '.',
 * 'e'/'E' and signs, so no hex floats, "nan" or "inf". Out-of-range
 * values read as inf or 0 (callers range-check). Cells are at most 31
 * bytes; %g writes at most 12. (std::strtod on a stack copy rather
 * than std::from_chars: the JSON parser already maps strtod, while
 * from_chars for doubles maps about 64 KiB more of libstdc++ into
 * every process.)
 */
inline bool
parseDouble(std::string_view cell, double &out)
{
    char buf[32];
    if (cell.empty() || cell.size() >= sizeof(buf) || cell[0] == '+')
        return false;
    for (const char c : cell) {
        if (!((c >= '0' && c <= '9') || c == '.' || c == 'e' ||
              c == 'E' || c == '-' || c == '+')) {
            return false;
        }
    }
    std::memcpy(buf, cell.data(), cell.size());
    buf[cell.size()] = '\0';
    char *end = nullptr;
    out = std::strtod(buf, &end);
    return end == buf + cell.size();
}

/** Append v in decimal. */
template <typename T>
void
appendInt(std::string &out, T v)
{
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

/**
 * Append v as printf("%g") writes it: 6 significant digits, exponent
 * form below 1e-4 ("1e-05"). That is byte for byte what
 * `std::ostream << double` writes under the default precision. (The
 * process never leaves the "C" numeric locale. std::to_chars with a
 * precision would give the same bytes, but it maps libstdc++'s Ryu
 * tables into every process, about 0.2 MiB of resident memory.)
 */
inline void
appendG(std::string &out, double v)
{
    char buf[32];
    const int n = std::snprintf(buf, sizeof(buf), "%g", v);
    out.append(buf, static_cast<size_t>(n));
}

} // namespace mse::text
