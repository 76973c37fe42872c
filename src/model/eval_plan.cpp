#include "model/eval_plan.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace mse {

namespace {

/** Restore `out` to a default-constructed CostResult, keeping vector
 *  capacity so recycled results stay allocation-free. */
void
resetResult(CostResult &out)
{
    out.valid = false;
    out.error = MappingError::Ok;
    out.latency_cycles = 0.0;
    out.energy_uj = 0.0;
    out.edp = 0.0;
    out.compute_cycles = 0.0;
    out.utilization = 0.0;
    out.macs = 0.0;
    out.level_energy_uj.clear();
    out.level_cycles.clear();
}

/**
 * Tile footprint of tensor t at level l from the cumulative-factor
 * table; mirrors tileFootprint's term order. Extents use wrap-defined
 * unsigned arithmetic (identical values on every legal mapping, where
 * they fit comfortably).
 */
double
footprintFromCum(const EvalPlan &p, const uint64_t *cum_l, int t)
{
    double prod = 1.0;
    for (int r = p.tensor_rank_begin[t]; r < p.tensor_rank_begin[t + 1];
         ++r) {
        uint64_t extent = 1;
        for (int k = p.rank_begin[r]; k < p.rank_begin[r + 1]; ++k) {
            const EvalPlan::RankTerm &term = p.terms[k];
            extent += static_cast<uint64_t>(term.coeff) *
                (cum_l[term.dim] - 1);
        }
        prod *= static_cast<double>(static_cast<int64_t>(extent));
    }
    return prod;
}

/**
 * Fused legality check; mirrors validateMapping's check order (and
 * therefore its error precedence) exactly. On the way it fills the
 * scratch cumulative-factor table, spatial products, and the kept-slot
 * footprints that access counting reuses — this fusion is where much
 * of the planned path's speedup over the scalar path comes from, since
 * the scalar path recomputes every footprint from cumulativeFactor
 * once during validation and again during access counting.
 */
MappingError
validatePlanned(const EvalPlan &p, const Mapping &m, EvalScratch &s)
{
    const int L = p.L, D = p.D, T = p.T;
    if (m.numLevels() != L)
        return MappingError::BadShape;
    for (int l = 0; l < L; ++l) {
        const LevelMapping &lvl = m.level(l);
        if (static_cast<int>(lvl.temporal.size()) != D ||
            static_cast<int>(lvl.spatial.size()) != D ||
            static_cast<int>(lvl.order.size()) != D) {
            return MappingError::BadShape;
        }
        // Dense views for every later pass (validation and the tail
        // both re-read these arrays several times; one pointer load
        // here replaces a vector deref per touch).
        s.tf_ptr[l] = lvl.temporal.data();
        s.sf_ptr[l] = lvl.spatial.data();
        s.ord_ptr[l] = lvl.order.data();
        // Permutation check via a bitmask (D <= 32): out-of-range
        // indices (including negatives, via the unsigned cast) and
        // duplicates both fail exactly as the seen-array original did.
        uint32_t seen = 0;
        for (const int v : lvl.order) {
            if (static_cast<unsigned>(v) >= static_cast<unsigned>(D) ||
                ((seen >> static_cast<unsigned>(v)) & 1u)) {
                return MappingError::BadOrder;
            }
            seen |= 1u << static_cast<unsigned>(v);
        }
        const int64_t *tf = lvl.temporal.data();
        const int64_t *sf = lvl.spatial.data();
        bool pos = true;
        for (int d = 0; d < D; ++d)
            pos &= (tf[d] >= 1) & (sf[d] >= 1);
        if (!pos)
            return MappingError::BadFactorProduct;
        if (!lvl.keep.empty() &&
            static_cast<int>(lvl.keep.size()) != T) {
            return MappingError::BadShape;
        }
    }
    for (int t = 0; t < T; ++t) {
        if (!m.keeps(L - 1, t))
            return MappingError::BadShape;
    }
    // Cumulative factor table + per-dimension factor-product check.
    // Products use wrap-defined unsigned arithmetic; on (pathological)
    // overflow the wrapped value still fails the bound check. Built
    // level-major off the dense views (unsigned multiplication is
    // associative and commutative mod 2^64, so the level-major
    // recurrence produces the same bits as the dim-major original).
    for (int l = 0; l < L; ++l) {
        const int64_t *tf = s.tf_ptr[l];
        const int64_t *sf = s.sf_ptr[l];
        const uint64_t *prev =
            l > 0 ? &s.cum[static_cast<size_t>(l - 1) * D] : nullptr;
        uint64_t *cur = &s.cum[static_cast<size_t>(l) * D];
        for (int d = 0; d < D; ++d) {
            const uint64_t f = static_cast<uint64_t>(tf[d]) *
                static_cast<uint64_t>(sf[d]);
            cur[d] = (prev ? prev[d] : uint64_t{1}) * f;
        }
    }
    for (int d = 0; d < D; ++d) {
        if (s.cum[static_cast<size_t>(L - 1) * D + d] !=
            static_cast<uint64_t>(p.bounds[d])) {
            return MappingError::BadFactorProduct;
        }
    }
    for (int l = 0; l < L; ++l) {
        const int64_t *sf = s.sf_ptr[l];
        uint64_t sp = 1;
        for (int d = 0; d < D; ++d)
            sp *= static_cast<uint64_t>(sf[d]);
        s.ssp[l] = sp;
        if (static_cast<int64_t>(sp) > p.fanout[l])
            return MappingError::FanoutExceeded;
    }
    // Footprints of every kept (tensor, level) slot: the capacity check
    // below and the access-count chain both read them (the chain via
    // the residency mask cached here).
    for (int t = 0; t < T; ++t) {
        for (int l = 0; l < L; ++l) {
            const bool kept = m.keeps(l, t);
            s.kept[static_cast<size_t>(t) * L + l] = kept ? 1 : 0;
            if (kept) {
                s.fp[static_cast<size_t>(t) * L + l] = l == L - 1
                    ? p.fp_full[t]
                    : footprintFromCum(
                          p, &s.cum[static_cast<size_t>(l) * D], t);
            }
        }
    }
    for (int l = 0; l < L; ++l) {
        if (p.cap_words[l] <= 0)
            continue; // unbounded (DRAM)
        double resident = 0.0;
        for (int t = 0; t < T; ++t) {
            if (s.kept[static_cast<size_t>(t) * L + l]) {
                resident +=
                    s.fp[static_cast<size_t>(t) * L + l] * p.density[t];
            }
        }
        if (resident > p.cap_f[l])
            return MappingError::CapacityExceeded;
    }
    return MappingError::Ok;
}

/** Per-level caches shared by access counting and the fold; mirrors the
 *  sp_prod/ai recurrences of computeAccessCounts / fold. */
void
computeLevelCaches(const EvalPlan &p, EvalScratch &s)
{
    const int L = p.L;
    s.active_alus = 1.0;
    for (int l = 0; l < L; ++l) {
        s.active_alus *=
            static_cast<double>(static_cast<int64_t>(s.ssp[l]));
    }
    for (int l = 0; l < L; ++l) {
        s.sp_prod[l] =
            static_cast<double>(static_cast<int64_t>(s.ssp[l]));
    }
    s.ai[L] = 1.0;
    for (int l = L - 1; l >= 0; --l)
        s.ai[l] = s.ai[l + 1] * (l + 1 < L ? s.sp_prod[l + 1] : 1.0);
}

/**
 * Per-tensor truncated-iteration and relevant-spatial products of every
 * (tensor, level) slot, computed in one shared walk over each level's
 * dense factor views (set up by validation or the SoA scatter).
 *
 * Bit-identity: for a fixed (t, l) the multiplication sequence is the
 * same ascending-j (resp. ascending-d) sequence the per-tensor
 * original used — sharing the walk only interleaves *different*
 * tensors' independent products. Unit factors are skipped: multiplying
 * by exactly 1.0 is an identity on every finite double, and most tile
 * factors in a realistic mapping are 1.
 */
void
computeTensorCaches(const EvalPlan &p, EvalScratch &s)
{
    const int L = p.L, D = p.D, T = p.T;
    for (int l = 0; l < L; ++l) {
        const int *ord = s.ord_ptr[l];
        const int64_t *tf = s.tf_ptr[l];
        const int64_t *sf = s.sf_ptr[l];

        // Innermost relevant iterating loop per tensor (mirror of
        // truncatedIterations' backward scan). The transposed relevance
        // mask lets the scan retire tensors as it finds them and stop
        // as soon as every tensor has its truncation point.
        int max_ia = -1;
        for (int t = 0; t < T; ++t)
            s.ia[t] = -1;
        uint32_t remaining = p.all_tensors;
        for (int j = D - 1; j >= 0 && remaining; --j) {
            const int d = ord[j];
            if (tf[d] > 1) {
                uint32_t hit = p.dim_tensors[d] & remaining;
                if (hit) {
                    if (max_ia < 0)
                        max_ia = j;
                    remaining &= ~hit;
                    do {
                        const int t = std::countr_zero(hit);
                        hit &= hit - 1;
                        s.ia[t] = j;
                    } while (hit);
                }
            }
        }
        // Prefix products over the non-unit iterating factors: each
        // tensor's truncated product is the prefix ending at the last
        // non-unit loop at or inside its truncation point, and the
        // prefix array is built by the same left-to-right multiply
        // sequence the per-tensor products used — same bits.
        int nn = 0;
        double pp = 1.0;
        for (int j = 0; j <= max_ia; ++j) {
            const int64_t f = tf[ord[j]];
            if (f == 1)
                continue;
            pp *= static_cast<double>(f);
            s.nf_j[nn] = j;
            s.nf_pp[nn] = pp;
            ++nn;
        }
        for (int t = 0; t < T; ++t) {
            double v = 1.0;
            const int iat = s.ia[t];
            for (int n = nn; n-- > 0;) {
                if (s.nf_j[n] <= iat) {
                    v = s.nf_pp[n];
                    break;
                }
            }
            s.trunc[static_cast<size_t>(t) * L + l] = v;
        }

        for (int t = 0; t < T; ++t)
            s.relsp[static_cast<size_t>(t) * L + l] = 1.0;
        for (int d = 0; d < D; ++d) {
            const int64_t f = sf[d];
            if (f == 1)
                continue;
            const double fd = static_cast<double>(f);
            uint32_t ts = p.dim_tensors[d];
            while (ts) {
                const int t = std::countr_zero(ts);
                ts &= ts - 1;
                s.relsp[static_cast<size_t>(t) * L + l] *= fd;
            }
        }
    }
}

/**
 * Access rows of one tensor, accumulated into s.rows (which must hold
 * zeros for this tensor's slots). Mirrors the per-tensor body of
 * computeAccessCounts operation for operation, reading the shared
 * per-tensor caches of computeTensorCaches.
 */
void
computeTensorRows(const EvalPlan &p, EvalScratch &s, int t)
{
    const int L = p.L, T = p.T;
    const double *trunc = &s.trunc[static_cast<size_t>(t) * L];
    const double *relsp = &s.relsp[static_cast<size_t>(t) * L];
    const uint8_t *kept = &s.kept[static_cast<size_t>(t) * L];

    s.tcnt[L] = 1.0;
    for (int l = L - 1; l >= 0; --l)
        s.tcnt[l] = s.tcnt[l + 1] * trunc[l];

    s.chain.clear();
    s.chain.push_back(-1);
    for (int l = 0; l < L; ++l) {
        if (kept[l])
            s.chain.push_back(l);
    }

    const auto footprint_at = [&](int l) {
        return l < 0 ? 1.0 : s.fp[static_cast<size_t>(t) * L + l];
    };
    const auto link_words = [&](int c, int pa) {
        double rel_prod = 1.0;
        for (int l = c + 1; l <= pa; ++l)
            rel_prod *= relsp[l];
        return s.tcnt[c + 1] * footprint_at(c) * rel_prod * s.ai[pa];
    };

    if (t != p.out) {
        for (size_t i = 0; i + 1 < s.chain.size(); ++i) {
            const int c = s.chain[i], pa = s.chain[i + 1];
            s.rows[static_cast<size_t>(pa) * T + t].reads +=
                link_words(c, pa);
            if (c >= 0) {
                s.rows[static_cast<size_t>(c) * T + t].writes +=
                    s.tcnt[c + 1] * footprint_at(c) * s.ai[c];
            }
        }
    } else {
        const double vol_out = p.out_volume;
        for (size_t i = 0; i + 1 < s.chain.size(); ++i) {
            const int c = s.chain[i], pa = s.chain[i + 1];
            const double w = link_words(c, pa);
            s.rows[static_cast<size_t>(pa) * T + t].writes += w;
            s.rows[static_cast<size_t>(pa) * T + t].reads +=
                std::max(0.0, w - vol_out);
            if (c >= 0)
                s.rows[static_cast<size_t>(c) * T + t].reads += w;
        }
    }
}

/** Fold s.rows into `out`; mirrors CostModel::fold. */
void
foldRows(const EvalPlan &p, EvalScratch &s, CostResult &out)
{
    const int L = p.L, T = p.T;
    out.valid = true;
    out.error = MappingError::Ok;
    out.macs = p.macs;
    out.compute_cycles = p.macs / std::max(s.active_alus, 1.0);
    out.utilization = s.active_alus / p.total_units;

    out.level_energy_uj.assign(static_cast<size_t>(L), 0.0);
    out.level_cycles.assign(static_cast<size_t>(L), 0.0);

    double energy_pj = p.macs * p.mac_energy_pj;
    double bound_cycles = out.compute_cycles;
    for (int l = 0; l < L; ++l) {
        double reads = 0.0, writes = 0.0;
        for (int t = 0; t < T; ++t) {
            reads += s.rows[static_cast<size_t>(l) * T + t].reads;
            writes += s.rows[static_cast<size_t>(l) * T + t].writes;
        }
        // Memoized nocHops: same (topology, spatial product) in, same
        // double out, so reusing the last value per level is exact.
        double hops;
        if (s.hops_key[l] == s.ssp[l] &&
            s.hops_noc[l] == static_cast<int8_t>(p.noc[l])) {
            hops = s.hops_val[l];
        } else {
            hops = nocHops(p.noc[l], static_cast<int64_t>(s.ssp[l]));
            s.hops_key[l] = s.ssp[l];
            s.hops_noc[l] = static_cast<int8_t>(p.noc[l]);
            s.hops_val[l] = hops;
        }
        const double lvl_pj = reads * p.read_e[l] +
            writes * p.write_e[l] + reads * hops * p.hop_e[l];
        out.level_energy_uj[l] = lvl_pj * 1e-6;
        energy_pj += lvl_pj;

        const double per_instance =
            (reads + writes) / std::max(s.ai[l], 1.0);
        out.level_cycles[l] = per_instance / p.bw[l];
        bound_cycles = std::max(bound_cycles, out.level_cycles[l]);
    }

    out.energy_uj = energy_pj * 1e-6;
    out.latency_cycles = bound_cycles;
    out.edp = out.energy_uj * out.latency_cycles;
}

} // namespace

namespace detail {

void
ensureScratch(const EvalPlan &plan, EvalScratch &s)
{
    const size_t L = static_cast<size_t>(plan.L);
    const size_t D = static_cast<size_t>(plan.D);
    const size_t T = static_cast<size_t>(plan.T);
    if (s.cum.size() < L * D)
        s.cum.resize(L * D);
    if (s.ssp.size() < L)
        s.ssp.resize(L);
    if (s.fp.size() < T * L)
        s.fp.resize(T * L);
    if (s.sp_prod.size() < L)
        s.sp_prod.resize(L);
    if (s.ai.size() < L + 1)
        s.ai.resize(L + 1);
    if (s.tcnt.size() < L + 1)
        s.tcnt.resize(L + 1);
    if (s.tf_ptr.size() < L) {
        s.tf_ptr.resize(L);
        s.sf_ptr.resize(L);
        s.ord_ptr.resize(L);
    }
    if (s.kept.size() < T * L)
        s.kept.resize(T * L);
    if (s.ia.size() < T)
        s.ia.resize(T);
    if (s.nf_j.size() < D) {
        s.nf_j.resize(D);
        s.nf_pp.resize(D);
    }
    if (s.trunc.size() < T * L)
        s.trunc.resize(T * L);
    if (s.relsp.size() < T * L)
        s.relsp.resize(T * L);
    if (s.hops_key.size() < L) {
        s.hops_key.resize(L, 0);
        // -1 never matches a real topology, so fresh slots always
        // compute on first use regardless of the key contents.
        s.hops_noc.resize(L, int8_t{-1});
        s.hops_val.resize(L, 0.0);
    }
    s.chain.reserve(L + 1);
}

void
setErrorResult(CostResult &out, MappingError err)
{
    resetResult(out);
    out.valid = false;
    out.error = err;
    out.latency_cycles = std::numeric_limits<double>::infinity();
    out.energy_uj = std::numeric_limits<double>::infinity();
    out.edp = std::numeric_limits<double>::infinity();
}

void
finishPlanned(const EvalPlan &plan, const Mapping &m, EvalScratch &s,
              CostResult &out)
{
    (void)m; // shape already captured in the scratch's dense views
    resetResult(out);
    computeLevelCaches(plan, s);
    computeTensorCaches(plan, s);
    s.rows.assign(static_cast<size_t>(plan.L) * plan.T,
                  TensorLevelAccess{});
    for (int t = 0; t < plan.T; ++t)
        computeTensorRows(plan, s, t);
    foldRows(plan, s, out);
}

} // namespace detail

EvalPlan
EvalPlan::build(const Workload &wl, const ArchConfig &arch)
{
    if (arch.numLevels() > 32)
        throw std::invalid_argument("eval plan: more than 32 levels");
    if (wl.numTensors() > 32)
        throw std::invalid_argument("eval plan: more than 32 tensors");
    EvalPlan p;
    p.L = arch.numLevels();
    p.D = wl.numDims();
    p.T = wl.numTensors();
    p.out = wl.outputTensor();
    p.macs = wl.totalMacs();
    p.out_volume = wl.tensorVolume(p.out);
    p.total_units = static_cast<double>(arch.totalComputeUnits());
    p.mac_energy_pj = arch.mac_energy_pj;
    p.bounds = wl.bounds();

    p.relevance.resize(static_cast<size_t>(p.T));
    p.density.resize(static_cast<size_t>(p.T));
    p.tensor_rank_begin.resize(static_cast<size_t>(p.T) + 1);
    p.rank_begin.push_back(0);
    for (int t = 0; t < p.T; ++t) {
        p.relevance[t] = wl.relevanceMask(t);
        p.density[t] = wl.tensor(t).density;
        p.tensor_rank_begin[t] =
            static_cast<int>(p.rank_begin.size()) - 1;
        for (const auto &rank : wl.tensor(t).projection) {
            for (const auto &term : rank)
                p.terms.push_back({term.dim, term.coeff});
            p.rank_begin.push_back(static_cast<int>(p.terms.size()));
        }
    }
    p.tensor_rank_begin[p.T] = static_cast<int>(p.rank_begin.size()) - 1;

    p.dim_tensors.assign(static_cast<size_t>(p.D), 0u);
    for (int t = 0; t < p.T; ++t) {
        p.all_tensors |= 1u << static_cast<unsigned>(t);
        for (int d = 0; d < p.D; ++d) {
            if ((p.relevance[t] >> static_cast<unsigned>(d)) & 1u)
                p.dim_tensors[d] |= 1u << static_cast<unsigned>(t);
        }
    }

    // Whole-tensor footprints via the same routine the hot path uses on
    // a cum row equal to the bounds, so the cached values are the same
    // bits validation would have produced.
    {
        std::vector<uint64_t> full(static_cast<size_t>(p.D));
        for (int d = 0; d < p.D; ++d)
            full[d] = static_cast<uint64_t>(p.bounds[d]);
        p.fp_full.resize(static_cast<size_t>(p.T));
        for (int t = 0; t < p.T; ++t)
            p.fp_full[t] = footprintFromCum(p, full.data(), t);
    }

    p.fanout.resize(static_cast<size_t>(p.L));
    p.cap_words.resize(static_cast<size_t>(p.L));
    p.cap_f.resize(static_cast<size_t>(p.L));
    p.read_e.resize(static_cast<size_t>(p.L));
    p.write_e.resize(static_cast<size_t>(p.L));
    p.hop_e.resize(static_cast<size_t>(p.L));
    p.bw.resize(static_cast<size_t>(p.L));
    p.noc.resize(static_cast<size_t>(p.L));
    for (int l = 0; l < p.L; ++l) {
        const BufferLevel &lvl = arch.levels[l];
        p.fanout[l] = lvl.fanout;
        p.cap_words[l] = lvl.capacity_words;
        p.cap_f[l] = static_cast<double>(lvl.capacity_words);
        p.read_e[l] = lvl.read_energy_pj;
        p.write_e[l] = lvl.write_energy_pj;
        p.hop_e[l] = lvl.noc_hop_energy_pj;
        p.bw[l] = lvl.bandwidth_words_per_cycle;
        p.noc[l] = lvl.noc;
    }
    return p;
}

void
evaluatePlanned(const EvalPlan &plan, const Mapping &m, EvalScratch &s,
                CostResult &out)
{
    detail::ensureScratch(plan, s);
    const MappingError err = validatePlanned(plan, m, s);
    if (err != MappingError::Ok) {
        detail::setErrorResult(out, err);
        return;
    }
    detail::finishPlanned(plan, m, s, out);
}

} // namespace mse
