/**
 * @file
 * Ablation studies for the design choices called out in DESIGN.md:
 *
 *  A. Bypass exploration — Gamma with and without the per-level tensor
 *     bypass axis (does the extra axis pay off?).
 *  B. Crossover legality — fraction of offspring that remain
 *     factor-legal under Gamma's per-axis column crossover vs a
 *     standard one-point genome crossover (why Gamma avoids the repair
 *     tax).
 *  C. Warm-start tile scaling — seed quality of the gcd re-scaling vs
 *     naively copying the old mapping vs random init.
 *  D. Sparsity-aware weighting — the paper's 1/density weights vs
 *     uniform weights in the multi-density score.
 */
#include "bench_util.hpp"
#include "common/stats.hpp"
#include "core/sparsity_aware.hpp"
#include "core/warm_start.hpp"
#include "mappers/gamma.hpp"
#include "workload/model_zoo.hpp"

using namespace mse;

namespace {

void
ablationBypass(size_t samples)
{
    std::printf("\n[A] Bypass axis (geomean best EDP over 3 seeds)\n");
    std::printf("%-24s %13s %13s\n", "workload", "with-bypass",
                "no-bypass");
    for (const Workload &wl : {resnetConv4(), bertKqv()}) {
        const ArchConfig arch = accelB();
        MapSpace space(wl, arch);
        EvalFn eval = [&](const Mapping &m) {
            return CostModel::evaluate(wl, arch, m);
        };
        auto geomeanEdp = [&](bool bypass) {
            double log_sum = 0;
            for (uint64_t s = 0; s < 3; ++s) {
                GammaConfig cfg;
                cfg.enable_bypass = bypass;
                GammaMapper gamma(cfg);
                SearchBudget budget;
                budget.max_samples = samples;
                Rng rng(41 + s);
                log_sum += std::log10(
                    gamma.search(space, eval, budget, rng)
                        .best_cost.edp) / 3.0;
            }
            return std::pow(10.0, log_sum);
        };
        std::printf("%-24s %13.3e %13.3e\n", wl.name().c_str(),
                    geomeanEdp(true), geomeanEdp(false));
    }
}

void
ablationCrossoverLegality()
{
    std::printf("\n[B] Offspring factor-legality by crossover style "
                "(10000 children each)\n");
    const Workload wl = resnetConv4();
    const ArchConfig arch = accelB();
    MapSpace space(wl, arch);
    Rng rng(7);

    size_t gamma_legal = 0, onepoint_legal = 0;
    const int n = 10000;
    const int L = arch.numLevels();
    for (int i = 0; i < n; ++i) {
        const Mapping a = space.randomMapping(rng);
        const Mapping b = space.randomMapping(rng);
        // Gamma: whole factor columns.
        Mapping ga = GammaMapper::crossover(a, b, rng);
        bool ok = true;
        for (int d = 0; d < wl.numDims(); ++d)
            ok = ok && ga.totalFactor(d) == wl.bound(d);
        gamma_legal += ok;
        // Standard: one-point cut across the flattened factor slots.
        Mapping op = a;
        const size_t genes = static_cast<size_t>(wl.numDims()) * 2 * L;
        const size_t cut = rng.index(genes);
        for (size_t g = cut; g < genes; ++g) {
            const int d = static_cast<int>(g / (2 * L));
            const int slot = static_cast<int>(g % (2 * L));
            const int l = slot / 2;
            if (slot % 2 == 0)
                op.level(l).temporal[d] = b.level(l).temporal[d];
            else
                op.level(l).spatial[d] = b.level(l).spatial[d];
        }
        ok = true;
        for (int d = 0; d < wl.numDims(); ++d)
            ok = ok && op.totalFactor(d) == wl.bound(d);
        onepoint_legal += ok;
    }
    std::printf("  gamma column crossover: %5.1f%% legal (by "
                "construction: 100%%)\n",
                100.0 * static_cast<double>(gamma_legal) / n);
    std::printf("  one-point crossover:    %5.1f%% legal\n",
                100.0 * static_cast<double>(onepoint_legal) / n);
}

void
ablationWarmStartScaling(size_t samples)
{
    std::printf("\n[C] Warm-start seed construction (init EDP on "
                "ResNet conv4 from a conv3 optimum, lower is better)\n");
    const ArchConfig arch = accelB();
    const Workload src = resnetConv3();
    const Workload dst = resnetConv4();
    MapSpace src_space(src, arch), dst_space(dst, arch);
    EvalFn src_eval = [&](const Mapping &m) {
        return CostModel::evaluate(src, arch, m);
    };
    EvalFn dst_eval = [&](const Mapping &m) {
        return CostModel::evaluate(dst, arch, m);
    };
    GammaMapper gamma;
    SearchBudget budget;
    budget.max_samples = samples;
    Rng rng(11);
    const SearchResult opt =
        gamma.search(src_space, src_eval, budget, rng);

    // gcd re-scaling (the library's warm start).
    const Mapping scaled =
        dst_space.scaleFrom(opt.best_mapping, src, rng);
    // Order-only variant: inherit orders but rebuild tiles trivially.
    Mapping naive(arch.numLevels(), dst.numDims());
    for (int l = 0; l < naive.numLevels(); ++l) {
        naive.level(l).order = opt.best_mapping.level(l).order;
        naive.level(l).keep = opt.best_mapping.level(l).keep;
    }
    for (int d = 0; d < dst.numDims(); ++d) {
        // Blow away the factor column and put everything at DRAM while
        // keeping orders: "inherit order only".
        for (int l = 0; l < naive.numLevels(); ++l) {
            naive.level(l).temporal[d] = 1;
            naive.level(l).spatial[d] = 1;
        }
        naive.level(naive.numLevels() - 1).temporal[d] = dst.bound(d);
    }
    dst_space.repair(naive);

    const double random_edp =
        dst_eval(dst_space.randomMapping(rng)).edp;
    std::printf("  gcd-scaled seed:        %13.3e\n",
                dst_eval(scaled).edp);
    std::printf("  order-only seed:        %13.3e\n",
                dst_eval(naive).edp);
    std::printf("  random init:            %13.3e\n", random_edp);
}

void
ablationSparsityWeights(size_t samples)
{
    std::printf("\n[D] Sparsity-aware score weighting: robustness of "
                "the one fixed mapping relative to per-density tailored "
                "searches (geomean over the 1.0-0.05 sweep; higher is "
                "better)\n");
    const ArchConfig arch = accelB();
    const SparseCostModel model;
    const Workload wl = resnetConv3();
    MapSpace space(wl, arch);

    auto robustness = [&](const std::vector<double> &weights) {
        // Custom-weighted multi-density evaluator.
        const std::vector<double> densities = {1.0, 0.8, 0.5, 0.2, 0.1};
        std::vector<Workload> wls;
        for (double d : densities) {
            Workload w = wl;
            applyDensities(w, 1.0, d);
            wls.push_back(std::move(w));
        }
        EvalFn eval = [&, wls, weights](const Mapping &m) {
            CostResult combined;
            combined.valid = true;
            for (size_t i = 0; i < wls.size(); ++i) {
                const CostResult c = model.evaluate(wls[i], arch, m);
                if (!c.valid)
                    return c;
                combined.edp += c.edp * weights[i];
                combined.energy_uj += c.energy_uj * weights[i];
                combined.latency_cycles += c.latency_cycles * weights[i];
            }
            return combined;
        };
        Mapping best;
        double best_score = std::numeric_limits<double>::infinity();
        for (uint64_t s = 0; s < 3; ++s) {
            GammaConfig cfg;
            cfg.multi_objective = false;
            GammaMapper gamma(cfg);
            SearchBudget budget;
            budget.max_samples = samples;
            Rng rng(61 + s);
            const SearchResult r = gamma.search(space, eval, budget, rng);
            if (r.best_cost.edp < best_score) {
                best_score = r.best_cost.edp;
                best = r.best_mapping;
            }
        }
        // Robustness across the full test sweep vs a per-density search.
        std::vector<double> fracs;
        for (double d :
             {1.0, 0.8, 0.6, 0.4, 0.2, 0.1, 0.05}) {
            const EvalFn at = makeStaticDensityEvaluator(space, model, d);
            GammaConfig cfg;
            cfg.multi_objective = false;
            GammaMapper gamma(cfg);
            SearchBudget budget;
            budget.max_samples = samples;
            Rng rng(71);
            const double tailored =
                gamma.search(space, at, budget, rng).best_cost.edp;
            fracs.push_back(tailored / at(best).edp);
        }
        return geomean(fracs);
    };

    const double inv_density =
        robustness({1.0, 1.25, 2.0, 5.0, 10.0}); // 1/d (paper)
    const double uniform = robustness({1, 1, 1, 1, 1});
    std::printf("  1/density weights (paper): %5.1f%%\n",
                100.0 * inv_density);
    std::printf("  uniform weights:           %5.1f%%\n",
                100.0 * uniform);
}

} // namespace

int
main()
{
    bench::banner("Ablations — design choices",
                  "bypass axis, crossover legality, warm-start scaling, "
                  "sparsity-aware weighting");
    const size_t samples = bench::envSize("MSE_BENCH_SAMPLES", 2500);
    ablationBypass(samples);
    ablationCrossoverLegality();
    ablationWarmStartScaling(samples);
    ablationSparsityWeights(samples);
    return 0;
}
