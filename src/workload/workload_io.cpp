#include "workload/workload_io.hpp"

#include <algorithm>

#include "workload/text_codec.hpp"

namespace mse {

std::string
serializeWorkload(const Workload &wl)
{
    std::string out;
    out.reserve(192);
    out += "wl1;";
    out += wl.name();
    out += ";dims ";
    for (int d = 0; d < wl.numDims(); ++d) {
        if (d)
            out += ',';
        out += wl.dimNames()[d];
        out += '=';
        text::appendInt(out, wl.bound(d));
    }
    for (const auto &t : wl.tensors()) {
        out += ";tensor ";
        out += t.name;
        out += t.kind == TensorKind::Output ? ":out:" : ":in:";
        text::appendG(out, t.density);
        out += ':';
        for (size_t r = 0; r < t.projection.size(); ++r) {
            if (r)
                out += '|';
            for (size_t i = 0; i < t.projection[r].size(); ++i) {
                if (i)
                    out += '+';
                text::appendInt(out, t.projection[r][i].coeff);
                out += '*';
                text::appendInt(out, t.projection[r][i].dim);
            }
        }
    }
    return out;
}

namespace {

/**
 * Capacity to reserve for the sep-separated cells of s: their count,
 * so a record's vectors are allocated once, but at most kMaxDims + 3,
 * so a hostile line cannot make the decoder reserve far more than it
 * sent.
 */
size_t
reserveFor(std::string_view s, char sep)
{
    const auto cells = static_cast<size_t>(std::count(s.begin(), s.end(),
                                                      sep)) + 1;
    return std::min<size_t>(cells, Workload::kMaxDims + 3);
}

/** One rank: '+'-joined coeff*dim terms, each dim below num_dims. */
bool
parseRank(std::string_view rank, int num_dims, CompositeDim &out)
{
    text::Cells terms(rank, '+');
    std::string_view term;
    while (terms.next(term)) {
        const size_t star = term.find('*');
        DimTerm t;
        if (star == std::string_view::npos ||
            !text::parseInt(term.substr(0, star), t.coeff) ||
            !text::parseInt(term.substr(star + 1), t.dim) || t.dim < 0 ||
            t.dim >= num_dims) {
            return false;
        }
        out.push_back(t);
    }
    return true;
}

/** One tensor body: name:kind:density:rank|rank|... */
bool
parseTensor(std::string_view body, int num_dims, TensorSpec &spec)
{
    text::Cells fields(body, ':');
    std::string_view name, kind, density, ranks;
    if (!fields.next(name) || !fields.next(kind) ||
        !fields.next(density) || !fields.next(ranks) || !fields.done()) {
        return false;
    }
    spec.name = std::string(name);
    if (kind == "out")
        spec.kind = TensorKind::Output;
    else if (kind == "in")
        spec.kind = TensorKind::Input;
    else
        return false;
    // Written so that NaN fails too.
    if (!text::parseDouble(density, spec.density) ||
        !(spec.density > 0.0 && spec.density <= 1.0)) {
        return false;
    }
    spec.projection.reserve(reserveFor(ranks, '|'));
    text::Cells rank_cells(ranks, '|');
    std::string_view rank;
    while (rank_cells.next(rank)) {
        if (!parseRank(rank, num_dims, spec.projection.emplace_back()))
            return false;
    }
    return true;
}

} // namespace

std::optional<Workload>
parseWorkload(std::string_view text)
{
    text::Cells sections(text, ';');
    std::string_view cell, name;
    if (!sections.next(cell) || cell != "wl1" || !sections.next(name) ||
        !sections.next(cell) || !text::consume(cell, "dims ")) {
        return std::nullopt;
    }

    std::vector<std::string> dim_names;
    std::vector<int64_t> bounds;
    dim_names.reserve(reserveFor(cell, ','));
    bounds.reserve(reserveFor(cell, ','));
    text::Cells dims(cell, ',');
    std::string_view dim;
    while (dims.next(dim)) {
        const size_t eq = dim.find('=');
        int64_t bound = 0;
        if (eq == std::string_view::npos ||
            !text::parseInt(dim.substr(eq + 1), bound) || bound < 1 ||
            bounds.size() == static_cast<size_t>(Workload::kMaxDims)) {
            return std::nullopt;
        }
        dim_names.emplace_back(dim.substr(0, eq));
        bounds.push_back(bound);
    }

    std::vector<TensorSpec> tensors;
    tensors.reserve(reserveFor(text, ';') - 3);
    while (sections.next(cell)) {
        if (!text::consume(cell, "tensor ") ||
            !parseTensor(cell, static_cast<int>(bounds.size()),
                         tensors.emplace_back())) {
            return std::nullopt;
        }
    }

    try {
        return Workload(std::string(name), std::move(dim_names),
                        std::move(bounds), std::move(tensors));
    } catch (...) {
        return std::nullopt;
    }
}

} // namespace mse
