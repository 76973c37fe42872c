#include "model/sparse_pass.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace mse {

namespace {

/** std::log2 of an integer factor; small factors read the plan's
 *  table of the same values. */
double
log2Factor(const SparsePlan &sp, int64_t f)
{
    return static_cast<uint64_t>(f) < sp.log2_table.size()
        ? sp.log2_table[static_cast<size_t>(f)]
        : std::log2(static_cast<double>(f));
}

/**
 * reductionInnerness over the scratch's dense views; mirrors its loop
 * and operation order exactly. Each non-unit temporal factor's log2 is
 * taken once and reused by the two walks that read it (same value,
 * same bits); unit factors contribute nothing and are skipped.
 */
double
plannedInnerness(const EvalPlan &p, const SparsePlan &sp,
                 const EvalScratch &s)
{
    const int L = p.L, D = p.D;
    const uint32_t out_rel = p.relevance[p.out];
    const auto relevant = [&](int64_t d) {
        return ((out_rel >> static_cast<unsigned>(d)) & 1u) != 0;
    };
    double tlog[Workload::kMaxDims];
    double red_weight = 0.0, red_score = 0.0;
    for (int l = 0; l < L; ++l) {
        const int64_t *tf = s.tf_ptr[l];
        const int64_t *sf = s.sf_ptr[l];
        const int64_t *ord = s.ord_ptr[l];
        for (int d = 0; d < D; ++d) {
            if (sf[d] > 1 && !relevant(d)) {
                const double w = log2Factor(sp, sf[d]);
                red_weight += w;
                red_score += w;
            }
        }
        double nonred_total = 0.0;
        for (int d = 0; d < D; ++d) {
            if (tf[d] > 1) {
                tlog[d] = log2Factor(sp, tf[d]);
                if (relevant(d))
                    nonred_total += tlog[d];
            }
        }
        double nonred_outside = 0.0;
        for (int j = 0; j < D; ++j) {
            const int64_t d = ord[j];
            if (tf[d] <= 1)
                continue;
            const double w = tlog[d];
            if (relevant(d)) {
                nonred_outside += w;
            } else {
                const double frac = nonred_total > 0.0
                    ? nonred_outside / nonred_total : 0.5;
                red_weight += w;
                red_score += w * frac;
            }
        }
    }
    if (red_weight <= 0.0)
        return 0.5;
    return red_score / red_weight;
}

/** Reduction iterations accumulated below each level (the sparse
 *  model's running reduction_below, recorded on entry to level l). */
void
reductionBelow(const EvalPlan &p, const SparsePlan &sp, EvalScratch &s)
{
    double below = 1.0;
    for (int l = 0; l < p.L; ++l) {
        s.red_below[l] = below;
        const int64_t *tf = s.tf_ptr[l];
        const int64_t *sf = s.sf_ptr[l];
        for (const int d : sp.reduction_dims)
            below *= static_cast<double>(tf[d] * sf[d]);
    }
}

/**
 * One sparse post-pass over `rows` (modified in place) into `out`:
 * compression, spill, merge overhead, SAF compute terms, fold. Mirrors
 * SparseCostModel::evaluate after computeAccessCounts, operation for
 * operation.
 */
void
runPass(const EvalPlan &p, const SparsePlan &sp, size_t k,
        EvalScratch &s, TensorLevelAccess *rows, double innerness,
        CostResult &out)
{
    const SparsePlan::Pass &ps = sp.passes[k];
    const int L = p.L, T = p.T, out_t = p.out;
    const SparseAcceleratorFeatures &saf = sp.saf;
    const double meta = sp.meta;
    // Nonzero probability of one product: the effectual MAC fraction,
    // and the seed of every partial-output density.
    const double eff_frac = ps.dw * ps.da;

    // Traffic compression: inputs scale by their density, the output
    // stream per level by the partial density accumulated below it.
    const double q0 = 1.0 - eff_frac;
    for (int l = 0; l < L; ++l) {
        // Same (base, exponent) in, same bits out: consecutive
        // candidates of a population mostly share a level's reduction
        // count, so a one-entry memo per (pass, level) skips the pow.
        const double e = std::max(s.red_below[l], 1.0);
        const size_t slot = k * static_cast<size_t>(L) + l;
        if (s.pow_base[slot] != q0 || s.pow_exp[slot] != e) {
            s.pow_base[slot] = q0;
            s.pow_exp[slot] = e;
            s.pow_val[slot] = std::pow(q0, e);
        }
        const double p_partial = std::min(1.0, 1.0 - s.pow_val[slot]);
        TensorLevelAccess *row = rows + static_cast<size_t>(l) * T;
        for (int t = 0; t < T; ++t) {
            if (!sp.compressed[t])
                continue;
            TensorLevelAccess &a = row[t];
            if (t == out_t) {
                const double fin = std::min(a.writes, p.out_volume);
                const double part = a.writes - fin;
                a.writes = std::min(
                    a.writes, (part * p_partial + fin * ps.d_final) * meta);
                a.reads *= std::min(p_partial * meta, 1.0);
            } else {
                a.reads *= ps.scale[t];
                a.writes *= ps.scale[t];
            }
        }
    }

    // Spill: a level whose compressed resident set exceeds its
    // capacity re-fetches from its parent resident/capacity times. The
    // footprints are the kept slots validation filled in before its
    // capacity check.
    for (int l = 0; l < L - 1; ++l) {
        if (p.cap_words[l] <= 0)
            continue;
        double resident = 0.0;
        for (int t = 0; t < T; ++t) {
            if (s.kept[static_cast<size_t>(t) * L + l]) {
                resident +=
                    s.fp[static_cast<size_t>(t) * L + l] * ps.density[t];
            }
        }
        const double ratio = resident / p.cap_f[l];
        if (ratio <= 1.0)
            continue;
        TensorLevelAccess *row = rows + static_cast<size_t>(l) * T;
        for (int t = 0; t < T; ++t) {
            row[t].reads *= ratio;
            row[t].writes *= ratio;
            row[T + t].reads *= ratio;
            row[T + t].writes *= ratio;
        }
    }

    const double eff_macs = p.macs * eff_frac;

    // Outer-product partial outputs are merged at L1.
    const double merge_words = (1.0 - innerness) * saf.merge_gamma *
        eff_macs;
    rows[out_t].writes += merge_words;
    rows[out_t].reads += merge_words;

    const double alus = std::max(s.active_alus, 1.0);
    double compute_cycles;
    double compute_energy_pj;
    if (saf.skipping) {
        const double imbalance = 1.0 + saf.imbalance_alpha *
            (1.0 - eff_frac);
        compute_cycles = eff_macs * imbalance / alus;
        compute_energy_pj = eff_macs * p.mac_energy_pj;
    } else {
        compute_cycles = p.macs / alus;
        compute_energy_pj = eff_macs * p.mac_energy_pj;
        if (saf.gating) {
            compute_energy_pj += (p.macs - eff_macs) *
                saf.gated_mac_fraction * p.mac_energy_pj;
        } else {
            compute_energy_pj = p.macs * p.mac_energy_pj;
        }
    }
    // Coordinate intersection scans (inner-product side).
    const double scans = innerness * saf.intersect_beta * p.macs *
        (ps.dw + ps.da);
    compute_cycles += scans / alus;
    compute_energy_pj += scans * 0.1; // comparator energy per scan, pJ

    detail::foldRows(p, s, rows, eff_macs, compute_cycles,
                     compute_energy_pj, out);
}

} // namespace

SparsePlan::SparsePlan(const Workload &wl,
                       const SparseAcceleratorFeatures &features)
    : saf(features), reduction_dims(wl.reductionDims()),
      meta(1.0 + features.metadata_overhead)
{
    log2_table.resize(kLog2Table);
    for (size_t f = 0; f < kLog2Table; ++f)
        log2_table[f] = std::log2(static_cast<double>(f));
    compressed.resize(static_cast<size_t>(wl.numTensors()));
    for (int t = 0; t < wl.numTensors(); ++t) {
        compressed[t] = wl.tensor(t).name == "Weights"
            ? saf.compress_weights
            : saf.compress_activations;
    }
}

void
SparsePlan::addPass(const Workload &wl, double weight)
{
    Pass ps;
    ps.density.resize(static_cast<size_t>(wl.numTensors()));
    ps.scale.resize(static_cast<size_t>(wl.numTensors()));
    for (int t = 0; t < wl.numTensors(); ++t) {
        ps.density[t] = wl.tensor(t).density;
        ps.scale[t] = std::min(ps.density[t] * meta, 1.0);
    }
    ps.dw = wl.density("Weights");
    ps.da = wl.density("Inputs");
    ps.d_final = wl.density("Outputs");
    ps.weight = weight;
    passes.push_back(std::move(ps));
}

namespace detail {

void
finishSparse(const EvalPlan &plan, const SparsePlan &sparse, EvalScratch &s,
             CostResult &out)
{
    const size_t slots = sparse.passes.size() * static_cast<size_t>(plan.L);
    if (s.pow_base.size() < slots) {
        // NaN keys never match, so fresh memo slots always compute.
        const double nan = std::numeric_limits<double>::quiet_NaN();
        s.pow_base.resize(slots, nan);
        s.pow_exp.resize(slots, nan);
        s.pow_val.resize(slots, 0.0);
    }
    resetResult(out);
    computeRows(plan, s);
    reductionBelow(plan, sparse, s);
    const double innerness = plannedInnerness(plan, sparse, s);
    if (!sparse.combine) {
        runPass(plan, sparse, 0, s, s.rows.data(), innerness, out);
        return;
    }
    // Rows do not depend on density: each pass works on a fresh copy.
    out.valid = true;
    const size_t n = static_cast<size_t>(plan.L) * plan.T;
    for (size_t k = 0; k < sparse.passes.size(); ++k) {
        std::copy_n(s.rows.begin(), n, s.pass_rows.begin());
        runPass(plan, sparse, k, s, s.pass_rows.data(), innerness,
                s.pass_out);
        const double w = sparse.passes[k].weight;
        out.edp += s.pass_out.edp * w;
        out.energy_uj += s.pass_out.energy_uj * w;
        out.latency_cycles += s.pass_out.latency_cycles * w;
    }
}

} // namespace detail

void
evaluatePlannedSparse(const EvalPlan &plan, const SparsePlan &sparse,
                      const Mapping &m, EvalScratch &s, CostResult &out)
{
    detail::ensureScratch(plan, s);
    // Capacity overflow is a spill, not a rejection; validation has
    // filled every kept-slot footprint by the time it reports one.
    const MappingError err = detail::validatePlanned(plan, m, s);
    if (err != MappingError::Ok && err != MappingError::CapacityExceeded) {
        detail::setErrorResult(out, err);
        return;
    }
    detail::finishSparse(plan, sparse, s, out);
}

} // namespace mse
