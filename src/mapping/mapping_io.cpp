#include "mapping/mapping_io.hpp"

#include "workload/text_codec.hpp"

namespace mse {

namespace {

/** Append one row as comma-joined decimals. */
void
appendRow(std::string &out, MappingRow<const int64_t> row)
{
    for (size_t d = 0; d < row.size(); ++d) {
        if (d)
            out += ',';
        text::appendInt(out, row[d]);
    }
}

} // namespace

std::string
serializeMapping(const Mapping &m)
{
    std::string out;
    out.reserve(32 + static_cast<size_t>(m.numLevels()) *
                         (16 + 9 * static_cast<size_t>(m.numDims())));
    out += "v1;L=";
    text::appendInt(out, m.numLevels());
    out += ";D=";
    text::appendInt(out, m.numDims());
    for (int l = 0; l < m.numLevels(); ++l) {
        const auto lvl = m.level(l);
        out += ";lvl t";
        appendRow(out, lvl.temporal);
        out += " s";
        appendRow(out, lvl.spatial);
        out += " o";
        appendRow(out, lvl.order);
        if (!lvl.keep.empty()) {
            out += " k";
            for (size_t t = 0; t < lvl.keep.size(); ++t) {
                if (t)
                    out += ',';
                out += static_cast<char>('0' + lvl.keep[t]);
            }
        }
    }
    return out;
}

namespace {

/**
 * Parse one "L=<n>" / "D=<n>" header cell into out. Values outside
 * [1, max] are refused before anything is allocated for them: max is
 * the level or dimension cap, so no legal mapping is larger, and a
 * hostile line must not make the decoder allocate L*D words.
 */
bool
parseShape(std::string_view cell, std::string_view prefix, int max,
           int &out)
{
    return text::consume(cell, prefix) && text::parseInt(cell, out) &&
        out >= 1 && out <= max;
}

/** A comma-separated list of exactly row.size() integers, into row. */
bool
parseRow(std::string_view body, MappingRow<int64_t> row)
{
    text::Cells cells(body, ',');
    std::string_view cell;
    size_t i = 0;
    while (cells.next(cell)) {
        if (i == row.size() || !text::parseInt(cell, row[i]))
            return false;
        ++i;
    }
    return i == row.size();
}

/**
 * One level body, "t<row> s<row> o<row>" and an optional " k<mask>",
 * in that order, into level l of m: factors >= 1, the order a
 * permutation of the dims, the keep mask 1..kMaxKeepTensors 0/1 bits.
 */
bool
parseLevel(std::string_view body, Mapping &m, int l)
{
    const LevelMapping lvl = m.level(l);
    text::Cells fields(body, ' ');
    std::string_view f;
    if (!fields.next(f) || !text::consume(f, "t") ||
        !parseRow(f, lvl.temporal) || !fields.next(f) ||
        !text::consume(f, "s") || !parseRow(f, lvl.spatial) ||
        !fields.next(f) || !text::consume(f, "o") ||
        !parseRow(f, lvl.order)) {
        return false;
    }
    const int dims = m.numDims();
    uint64_t seen = 0; // dims <= Workload::kMaxDims < 64
    for (int d = 0; d < dims; ++d) {
        const int64_t o = lvl.order[d];
        if (lvl.temporal[d] < 1 || lvl.spatial[d] < 1 || o < 0 ||
            o >= dims || ((seen >> o) & 1u)) {
            return false;
        }
        seen |= uint64_t{1} << o;
    }
    if (fields.done())
        return true;
    if (!fields.next(f) || !text::consume(f, "k") || !fields.done())
        return false;
    text::Cells bits(f, ',');
    std::string_view cell;
    size_t length = 0;
    uint64_t mask = 0;
    while (bits.next(cell)) {
        int bit = 0;
        if (length == static_cast<size_t>(Mapping::kMaxKeepTensors) ||
            !text::parseInt(cell, bit) || (bit != 0 && bit != 1)) {
            return false;
        }
        mask |= static_cast<uint64_t>(bit) << length;
        ++length;
    }
    m.setKeepBits(l, length, mask);
    return true;
}

} // namespace

std::optional<Mapping>
parseMapping(std::string_view text)
{
    text::Cells sections(text, ';');
    std::string_view cell;
    int num_levels = 0, num_dims = 0;
    if (!sections.next(cell) || cell != "v1" || !sections.next(cell) ||
        !parseShape(cell, "L=", ArchConfig::kMaxLevels, num_levels) ||
        !sections.next(cell) ||
        !parseShape(cell, "D=", Workload::kMaxDims, num_dims)) {
        return std::nullopt;
    }
    Mapping m(num_levels, num_dims);
    for (int l = 0; l < num_levels; ++l) {
        if (!sections.next(cell) || !text::consume(cell, "lvl ") ||
            !parseLevel(cell, m, l)) {
            return std::nullopt;
        }
    }
    if (!sections.done())
        return std::nullopt;
    return m;
}

} // namespace mse
