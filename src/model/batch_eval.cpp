#include "model/batch_eval.hpp"

#include <algorithm>

#include "common/thread_pool.hpp"

namespace mse {

namespace {

/**
 * SoA tile width. Bounds the candidate-contiguous arrays to a few tens
 * of kilobytes (L1/L2 resident) while leaving the inner loops long
 * enough to vectorize.
 */
constexpr size_t kSoaTile = 64;

/** Candidate-contiguous working arrays for one SoA tile. */
struct SoaScratch
{
    std::vector<uint64_t> tf;  ///< [(L*D)*k] temporal factors.
    std::vector<uint64_t> sf;  ///< [(L*D)*k] spatial factors.
    std::vector<uint64_t> cum; ///< [(L*D)*k] cumulative products.
    std::vector<uint64_t> ssp; ///< [L*k] per-level spatial products.
    std::vector<uint64_t> ext; ///< [k] rank-extent accumulator.
    std::vector<double> fp;    ///< [(T*L)*k] tile footprints.
    std::vector<MappingError> err; ///< [k]
    EvalScratch es; ///< per-candidate scratch for the shared tail.
};

/**
 * Evaluate one tile of k candidates: batch[j] into out[j].
 *
 * Stage order mirrors validateMapping's check order, and every stage
 * only assigns err[j] while it is still Ok, so each candidate reports
 * the same MappingError the scalar validator would. Within a stage the
 * loops run over candidates; per candidate the arithmetic sequence is
 * unchanged, and the valid tail funnels through detail::finishPlanned,
 * so every CostResult is bit-identical to the scalar path.
 */
void
soaTile(const EvalPlan &p, const Mapping *batch, size_t k,
        CostResult *out, SoaScratch &s)
{
    const int L = p.L, D = p.D, T = p.T;
    const size_t LD = static_cast<size_t>(L) * D;

    if (s.tf.size() < LD * k) {
        s.tf.resize(LD * k);
        s.sf.resize(LD * k);
        s.cum.resize(LD * k);
    }
    if (s.ssp.size() < static_cast<size_t>(L) * k)
        s.ssp.resize(static_cast<size_t>(L) * k);
    if (s.ext.size() < k)
        s.ext.resize(k);
    if (s.fp.size() < static_cast<size_t>(T) * L * k)
        s.fp.resize(static_cast<size_t>(T) * L * k);
    if (s.err.size() < k)
        s.err.resize(k);
    detail::ensureScratch(p, s.es);

    // Candidates arrive as freshly heap-built Mappings whose per-level
    // arrays are scattered small allocations; a linear walk stalls on
    // ~10 dependent cache misses per candidate. Issuing the leaf-array
    // prefetches for the whole tile up front overlaps those misses
    // across candidates before Stage A starts consuming them.
    for (size_t j = 0; j < k; ++j) {
        const Mapping &m = batch[j];
        const int nl = m.numLevels();
        for (int l = 0; l < nl; ++l) {
            const LevelMapping &lvl = m.level(l);
            __builtin_prefetch(lvl.temporal.data());
            __builtin_prefetch(lvl.spatial.data());
            __builtin_prefetch(lvl.order.data());
            if (!lvl.keep.empty())
                __builtin_prefetch(lvl.keep.data());
        }
    }

    // Stage A — structural checks, per candidate (branchy by nature):
    // shape, loop-order permutation, factors >= 1, keep-mask size, and
    // DRAM keeping every tensor.
    for (size_t j = 0; j < k; ++j) {
        s.err[j] = MappingError::Ok;
        const Mapping &m = batch[j];
        if (m.numLevels() != L) {
            s.err[j] = MappingError::BadShape;
            continue;
        }
        for (int l = 0; l < L && s.err[j] == MappingError::Ok; ++l) {
            const LevelMapping &lvl = m.level(l);
            if (static_cast<int>(lvl.temporal.size()) != D ||
                static_cast<int>(lvl.spatial.size()) != D ||
                static_cast<int>(lvl.order.size()) != D) {
                s.err[j] = MappingError::BadShape;
                break;
            }
            uint32_t seen = 0;
            for (const int v : lvl.order) {
                if (static_cast<unsigned>(v) >=
                        static_cast<unsigned>(D) ||
                    ((seen >> static_cast<unsigned>(v)) & 1u)) {
                    s.err[j] = MappingError::BadOrder;
                    break;
                }
                seen |= 1u << static_cast<unsigned>(v);
            }
            if (s.err[j] != MappingError::Ok)
                break;
            for (int d = 0; d < D; ++d) {
                if (lvl.temporal[d] < 1 || lvl.spatial[d] < 1) {
                    s.err[j] = MappingError::BadFactorProduct;
                    break;
                }
            }
            if (s.err[j] != MappingError::Ok)
                break;
            if (!lvl.keep.empty() &&
                static_cast<int>(lvl.keep.size()) != T) {
                s.err[j] = MappingError::BadShape;
                break;
            }
        }
        if (s.err[j] != MappingError::Ok)
            continue;
        for (int t = 0; t < T; ++t) {
            if (!m.keeps(L - 1, t)) {
                s.err[j] = MappingError::BadShape;
                break;
            }
        }
    }

    // Stage B — gather factors candidate-contiguous. Dead lanes get 1s
    // so the branchless compute loops below stay on defined values.
    std::fill(s.tf.begin(), s.tf.begin() + LD * k, uint64_t{1});
    std::fill(s.sf.begin(), s.sf.begin() + LD * k, uint64_t{1});
    for (size_t j = 0; j < k; ++j) {
        if (s.err[j] != MappingError::Ok)
            continue;
        const Mapping &m = batch[j];
        for (int l = 0; l < L; ++l) {
            const LevelMapping &lvl = m.level(l);
            for (int d = 0; d < D; ++d) {
                const size_t base = (static_cast<size_t>(l) * D + d) * k;
                s.tf[base + j] = static_cast<uint64_t>(lvl.temporal[d]);
                s.sf[base + j] = static_cast<uint64_t>(lvl.spatial[d]);
            }
        }
    }

    // Cumulative factor products (wrap-defined u64, same bits as the
    // scalar path) and the per-dimension factor-product check.
    for (int d = 0; d < D; ++d) {
        for (int l = 0; l < L; ++l) {
            const size_t base = (static_cast<size_t>(l) * D + d) * k;
            if (l == 0) {
                for (size_t j = 0; j < k; ++j)
                    s.cum[base + j] = s.tf[base + j] * s.sf[base + j];
            } else {
                const size_t prev =
                    (static_cast<size_t>(l - 1) * D + d) * k;
                for (size_t j = 0; j < k; ++j) {
                    s.cum[base + j] = s.cum[prev + j] * s.tf[base + j] *
                        s.sf[base + j];
                }
            }
        }
    }
    for (int d = 0; d < D; ++d) {
        const size_t base = (static_cast<size_t>(L - 1) * D + d) * k;
        const uint64_t bound = static_cast<uint64_t>(p.bounds[d]);
        for (size_t j = 0; j < k; ++j) {
            if (s.err[j] == MappingError::Ok && s.cum[base + j] != bound)
                s.err[j] = MappingError::BadFactorProduct;
        }
    }

    // Stage C — per-level spatial products and the fanout check.
    std::fill(s.ssp.begin(), s.ssp.begin() + static_cast<size_t>(L) * k,
              uint64_t{1});
    for (int l = 0; l < L; ++l) {
        const size_t sbase = static_cast<size_t>(l) * k;
        for (int d = 0; d < D; ++d) {
            const size_t base = (static_cast<size_t>(l) * D + d) * k;
            for (size_t j = 0; j < k; ++j)
                s.ssp[sbase + j] *= s.sf[base + j];
        }
    }
    for (int l = 0; l < L; ++l) {
        const size_t sbase = static_cast<size_t>(l) * k;
        for (size_t j = 0; j < k; ++j) {
            if (s.err[j] == MappingError::Ok &&
                static_cast<int64_t>(s.ssp[sbase + j]) > p.fanout[l]) {
                s.err[j] = MappingError::FanoutExceeded;
            }
        }
    }

    // Stage D — tile footprints of every (tensor, level) slot across
    // candidates. The scalar path computes only kept slots; computing
    // all of them is uniform (vectorizable) work, and per candidate
    // each slot's rank/term arithmetic order is exactly
    // footprintFromCum's, so kept slots carry identical bits.
    std::fill(s.fp.begin(),
              s.fp.begin() + static_cast<size_t>(T) * L * k, 1.0);
    for (int t = 0; t < T; ++t) {
        for (int l = 0; l < L; ++l) {
            const size_t slot = (static_cast<size_t>(t) * L + l) * k;
            if (l == L - 1) {
                // Every lane whose footprint is ever read has passed
                // the factor-product check, so its outermost cum row
                // equals the bounds and its footprint is the plan's
                // precomputed whole-tensor value (same bits).
                for (size_t j = 0; j < k; ++j)
                    s.fp[slot + j] = p.fp_full[t];
                continue;
            }
            for (int r = p.tensor_rank_begin[t];
                 r < p.tensor_rank_begin[t + 1]; ++r) {
                for (size_t j = 0; j < k; ++j)
                    s.ext[j] = 1;
                for (int q = p.rank_begin[r]; q < p.rank_begin[r + 1];
                     ++q) {
                    const EvalPlan::RankTerm &term = p.terms[q];
                    const size_t base =
                        (static_cast<size_t>(l) * D + term.dim) * k;
                    const uint64_t coeff =
                        static_cast<uint64_t>(term.coeff);
                    for (size_t j = 0; j < k; ++j)
                        s.ext[j] += coeff * (s.cum[base + j] - 1);
                }
                for (size_t j = 0; j < k; ++j) {
                    s.fp[slot + j] *= static_cast<double>(
                        static_cast<int64_t>(s.ext[j]));
                }
            }
        }
    }

    // Stage E — capacity check (keep masks vary per candidate, so this
    // stays scalar; the adds run in the scalar path's tensor order).
    for (int l = 0; l < L; ++l) {
        if (p.cap_words[l] <= 0)
            continue; // unbounded (DRAM)
        for (size_t j = 0; j < k; ++j) {
            if (s.err[j] != MappingError::Ok)
                continue;
            const Mapping &m = batch[j];
            double resident = 0.0;
            for (int t = 0; t < T; ++t) {
                if (m.keeps(l, t)) {
                    resident +=
                        s.fp[(static_cast<size_t>(t) * L + l) * k + j] *
                        p.density[t];
                }
            }
            if (resident > p.cap_f[l])
                s.err[j] = MappingError::CapacityExceeded;
        }
    }

    // Stage F — scatter each live candidate's state into the scalar
    // scratch and run the shared tail (identical code, identical bits).
    for (size_t j = 0; j < k; ++j) {
        CostResult &o = out[j];
        if (s.err[j] != MappingError::Ok) {
            detail::setErrorResult(o, s.err[j]);
            continue;
        }
        // (The cum table is not scattered: nothing after validation
        // reads it — footprints, the only consumer, are already here.)
        for (int l = 0; l < L; ++l)
            s.es.ssp[l] = s.ssp[static_cast<size_t>(l) * k + j];
        for (size_t tl = 0; tl < static_cast<size_t>(T) * L; ++tl)
            s.es.fp[tl] = s.fp[tl * k + j];
        const Mapping &m = batch[j];
        for (int l = 0; l < L; ++l) {
            const LevelMapping &lvl = m.level(l);
            s.es.tf_ptr[l] = lvl.temporal.data();
            s.es.sf_ptr[l] = lvl.spatial.data();
            s.es.ord_ptr[l] = lvl.order.data();
        }
        for (int t = 0; t < T; ++t) {
            for (int l = 0; l < L; ++l) {
                s.es.kept[static_cast<size_t>(t) * L + l] =
                    m.keeps(l, t) ? 1 : 0;
            }
        }
        detail::finishPlanned(p, m, s.es, o);
    }
}

/** Run batch[0..k) through soaTile in kSoaTile-sized pieces. */
void
soaEvaluate(const EvalPlan &p, const Mapping *batch, size_t k,
            CostResult *out, SoaScratch &s)
{
    for (size_t off = 0; off < k; off += kSoaTile)
        soaTile(p, batch + off, std::min(kSoaTile, k - off), out + off, s);
}

/** Per-thread kernel scratch (pool workers persist across batches). */
SoaScratch &
soaTls()
{
    static thread_local SoaScratch tls;
    return tls;
}

} // namespace

void
evaluateBatchSoA(const EvalPlan &plan, std::span<const Mapping> batch,
                 std::span<CostResult> out)
{
    const size_t n = std::min(batch.size(), out.size());
    soaEvaluate(plan, batch.data(), n, out.data(), soaTls());
}

void
BatchCostEvaluator::evaluateBatch(const Mapping *batch, const EvalHint *,
                                  size_t n, CostResult *out)
{
    if (n == 0)
        return;
    // One contiguous chunk per pool lane; chunks write disjoint ranges.
    const auto body = [&](size_t begin, size_t end) {
        soaEvaluate(plan_, batch + begin, end - begin, out + begin,
                    soaTls());
        if (post_) {
            for (size_t i = begin; i < end; ++i)
                post_(batch[i], out[i]);
        }
    };
    ThreadPool &pool = ThreadPool::global();
    const size_t lanes = std::max<size_t>(pool.threads(), 1);
    const size_t chunk = (n + lanes - 1) / lanes;
    const size_t nchunks = (n + chunk - 1) / chunk;
    if (nchunks > 1) {
        pool.parallelFor(nchunks, [&](size_t c) {
            body(c * chunk, std::min(n, (c + 1) * chunk));
        });
    } else {
        body(0, n);
    }
}

CostResult
BatchCostEvaluator::evaluateOne(const Mapping &m)
{
    CostResult res;
    evaluatePlanned(plan_, m, soaTls().es, res);
    if (post_)
        post_(m, res);
    return res;
}

} // namespace mse
