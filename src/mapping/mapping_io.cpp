#include "mapping/mapping_io.hpp"

#include <charconv>
#include <cstring>
#include <sstream>

#include "common/permutation.hpp"

namespace mse {

std::string
serializeMapping(const Mapping &m)
{
    std::ostringstream os;
    os << "v1;L=" << m.numLevels() << ";D=" << m.numDims();
    for (int l = 0; l < m.numLevels(); ++l) {
        const auto &lvl = m.level(l);
        os << ";lvl t";
        for (int d = 0; d < m.numDims(); ++d)
            os << (d ? "," : "") << lvl.temporal[d];
        os << " s";
        for (int d = 0; d < m.numDims(); ++d)
            os << (d ? "," : "") << lvl.spatial[d];
        os << " o";
        for (int d = 0; d < m.numDims(); ++d)
            os << (d ? "," : "") << lvl.order[d];
        if (!lvl.keep.empty()) {
            os << " k";
            for (size_t t = 0; t < lvl.keep.size(); ++t)
                os << (t ? "," : "") << static_cast<int>(lvl.keep[t]);
        }
    }
    return os.str();
}

namespace {

/** Parse a comma-separated int64 list; false on malformed input. */
bool
parseList(const std::string &body, std::vector<int64_t> &out)
{
    out.clear();
    std::istringstream is(body);
    std::string cell;
    while (std::getline(is, cell, ',')) {
        try {
            size_t pos = 0;
            const int64_t v = std::stoll(cell, &pos);
            if (pos != cell.size())
                return false;
            out.push_back(v);
        } catch (...) {
            return false;
        }
    }
    return !out.empty();
}

/**
 * Parse one "L=<n>" / "D=<n>" header field into out. Values outside
 * [1, max] are refused before anything is allocated for them: max is
 * the level or dimension cap, so no legal mapping is larger, and a
 * hostile line must not make the decoder allocate L*D words.
 */
bool
parseShape(const std::string &token, const char *prefix, int max, int &out)
{
    if (token.rfind(prefix, 0) != 0)
        return false;
    const char *first = token.data() + std::strlen(prefix);
    const char *last = token.data() + token.size();
    const auto res = std::from_chars(first, last, out);
    return res.ec == std::errc() && res.ptr == last && out >= 1 &&
        out <= max;
}

} // namespace

std::optional<Mapping>
parseMapping(const std::string &text)
{
    std::istringstream is(text);
    std::string token;
    if (!std::getline(is, token, ';') || token != "v1")
        return std::nullopt;

    int num_levels = -1, num_dims = -1;
    if (!std::getline(is, token, ';') ||
        !parseShape(token, "L=", ArchConfig::kMaxLevels, num_levels)) {
        return std::nullopt;
    }
    if (!std::getline(is, token, ';') ||
        !parseShape(token, "D=", Workload::kMaxDims, num_dims)) {
        return std::nullopt;
    }

    Mapping m(num_levels, num_dims);
    int level = 0;
    while (std::getline(is, token, ';')) {
        if (token.rfind("lvl ", 0) != 0 || level >= num_levels)
            return std::nullopt;
        std::istringstream fields(token.substr(4));
        std::string field;
        bool saw_t = false, saw_s = false, saw_o = false;
        while (fields >> field) {
            if (field.size() < 2)
                return std::nullopt;
            std::vector<int64_t> values;
            if (!parseList(field.substr(1), values))
                return std::nullopt;
            switch (field[0]) {
              case 't':
                if (static_cast<int>(values.size()) != num_dims)
                    return std::nullopt;
                m.level(level).temporal = values;
                saw_t = true;
                break;
              case 's':
                if (static_cast<int>(values.size()) != num_dims)
                    return std::nullopt;
                m.level(level).spatial = values;
                saw_s = true;
                break;
              case 'o':
                if (static_cast<int>(values.size()) != num_dims ||
                    !isPermutation(values)) {
                    return std::nullopt;
                }
                m.level(level).order = values;
                saw_o = true;
                break;
              case 'k': {
                if (values.size() >
                    static_cast<size_t>(Mapping::kMaxKeepTensors)) {
                    return std::nullopt;
                }
                std::vector<uint8_t> keep;
                for (int64_t v : values) {
                    if (v != 0 && v != 1)
                        return std::nullopt;
                    keep.push_back(static_cast<uint8_t>(v));
                }
                m.setKeepMask(level, keep);
                break;
              }
              default:
                return std::nullopt;
            }
        }
        if (!saw_t || !saw_s || !saw_o)
            return std::nullopt;
        for (int d = 0; d < num_dims; ++d) {
            if (m.level(level).temporal[d] < 1 ||
                m.level(level).spatial[d] < 1) {
                return std::nullopt;
            }
        }
        ++level;
    }
    if (level != num_levels)
        return std::nullopt;
    return m;
}

} // namespace mse
