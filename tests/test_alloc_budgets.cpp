/**
 * @file
 * Exact heap-allocation budgets for the search hot path.
 *
 * This binary replaces the global operator new with one that counts
 * allocations made by the calling thread, then holds each hot-path
 * operation to a budget. Allocation counts do not drift with host load
 * the way timings do, so a regression here is a real one. A budget may
 * only go down: raising one needs a reason in CHANGES.md.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <span>

#include "common/math_util.hpp"
#include "common/pareto.hpp"
#include "mappers/gamma.hpp"
#include "mapping/map_space.hpp"
#include "model/batch_eval.hpp"
#include "model/eval_plan.hpp"
#include "service/mapping_store.hpp"
#include "sparse/sparse_model.hpp"
#include "workload/model_zoo.hpp"

namespace {

/** Allocations made by this thread so far. */
thread_local size_t t_allocs = 0;

} // namespace

void *
operator new(std::size_t n)
{
    ++t_allocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace mse {
namespace {

/** Allocations made by fn() on this thread. */
template <typename Fn>
size_t
allocationsOf(Fn &&fn)
{
    const size_t before = t_allocs;
    fn();
    return t_allocs - before;
}

TEST(AllocCounter, SeesEveryAllocation)
{
    // Guards the budgets below against a counter that silently reads 0.
    EXPECT_EQ(allocationsOf([] {
                  std::vector<int> v(8);
                  EXPECT_EQ(v.size(), 8u);
              }),
              1u);
}

/** The Fig. 3 layer on Accel-B, with a pool of random mappings. */
class AllocBudget : public ::testing::Test
{
  protected:
    AllocBudget() : space_(resnetConv4(), accelB())
    {
        for (int i = 0; i < 128; ++i)
            pool_.push_back(space_.randomMapping(rng_));
    }

    MapSpace space_;
    Rng rng_{7};
    std::vector<Mapping> pool_;
};

TEST_F(AllocBudget, MappingCopyAtMostOne)
{
    for (const Mapping &m : pool_) {
        const size_t n = allocationsOf([&] {
            const Mapping copy = m;
            EXPECT_EQ(copy.numLevels(), m.numLevels());
        });
        EXPECT_LE(n, 1u);
    }
}

TEST_F(AllocBudget, GammaChildAtMostOne)
{
    // One child: crossover (which copies a parent), every mutation,
    // and repair — the whole per-offspring path of Gamma's loop.
    for (size_t i = 0; i + 1 < pool_.size(); ++i) {
        const size_t n = allocationsOf([&] {
            Mapping child =
                GammaMapper::crossover(pool_[i], pool_[i + 1], rng_);
            GammaMapper::mutateTile(space_, child, rng_);
            GammaMapper::mutateOrder(child, rng_);
            GammaMapper::mutateParallel(space_, child, rng_);
            GammaMapper::mutateBypass(space_, child, rng_);
            space_.repair(child);
        });
        EXPECT_LE(n, 1u) << "child " << i;
    }
}

TEST_F(AllocBudget, RandomMappingAtMostOne)
{
    // The draws walk flat divisor tables and the repair keeps its
    // cumulative factors on the stack: only the Mapping's buffer.
    for (int i = 0; i < 128; ++i) {
        const size_t n = allocationsOf([&] {
            const Mapping m = space_.randomMapping(rng_);
            EXPECT_EQ(m.numLevels(), space_.numLevels());
        });
        EXPECT_LE(n, 1u) << "draw " << i;
    }
}

TEST_F(AllocBudget, ScaleFromAtMostOne)
{
    // A warm-start re-scale: conv3 mappings onto conv4's map space.
    const Workload source = resnetConv3();
    MapSpace source_space(source, accelB());
    for (int i = 0; i < 128; ++i) {
        const Mapping seed = source_space.randomMapping(rng_);
        const size_t n = allocationsOf([&] {
            const Mapping m = space_.scaleFrom(seed, source, rng_);
            EXPECT_EQ(m.numLevels(), space_.numLevels());
        });
        EXPECT_LE(n, 1u) << "seed " << i;
    }
}

TEST_F(AllocBudget, SteadyStatePlannedEvaluationAllocatesNothing)
{
    const EvalPlan plan =
        EvalPlan::build(space_.workload(), space_.arch());
    EvalScratch scratch;
    CostResult out;
    for (const Mapping &m : pool_) // grow scratch and result once
        evaluatePlanned(plan, m, scratch, out);
    for (const Mapping &m : pool_) {
        EXPECT_EQ(allocationsOf([&] {
                      evaluatePlanned(plan, m, scratch, out);
                  }),
                  0u);
    }
}

TEST_F(AllocBudget, SteadyStateSoaBatchAllocatesNothing)
{
    const EvalPlan plan =
        EvalPlan::build(space_.workload(), space_.arch());
    std::vector<CostResult> out(pool_.size());
    evaluateBatchSoA(plan, pool_, out); // grow the kernel scratch once
    EXPECT_EQ(allocationsOf([&] { evaluateBatchSoA(plan, pool_, out); }),
              0u);
}

TEST_F(AllocBudget, SteadyStateSparsePassesAllocateNothing)
{
    // One raw pass (the engine's sparse search) and a combined
    // five-density sweep (the sparsity-aware scorer), scalar and SoA.
    const Workload &wl = space_.workload();
    const EvalPlan plan = EvalPlan::build(wl, space_.arch());
    SparsePlan single(wl, SparseAcceleratorFeatures{});
    single.addPass(wl);
    SparsePlan sweep(wl, SparseAcceleratorFeatures{});
    sweep.combine = true;
    for (const double d : {1.0, 0.8, 0.5, 0.2, 0.1}) {
        Workload annotated = wl;
        applyDensities(annotated, 1.0, d);
        sweep.addPass(annotated, 1.0 / d);
    }
    for (const SparsePlan *sparse : {&single, &sweep}) {
        EvalScratch scratch;
        CostResult out;
        for (const Mapping &m : pool_)
            evaluatePlannedSparse(plan, *sparse, m, scratch, out);
        for (const Mapping &m : pool_) {
            EXPECT_EQ(allocationsOf([&] {
                          evaluatePlannedSparse(plan, *sparse, m, scratch,
                                                out);
                      }),
                      0u);
        }
        std::vector<CostResult> batch(pool_.size());
        evaluateBatchSoA(plan, pool_, batch, sparse);
        EXPECT_EQ(allocationsOf([&] {
                      evaluateBatchSoA(plan, pool_, batch, sparse);
                  }),
                  0u);
    }
}

TEST_F(AllocBudget, StoreRecordDecodeAtMost31)
{
    // One store line of a 3-tensor GEMM (BERT KQV on Accel-B) with a
    // drawn mapping, decoded the way load() decodes every record: the
    // JSON tree (most of the count), the two text decoders and the
    // entry.
    const Workload wl = bertKqv();
    const ArchConfig arch = accelB();
    MapSpace space(wl, arch);
    Rng rng(5);
    StoreEntry e;
    e.workload = wl;
    e.arch_sig = fnv1a64Hex(arch.signature());
    e.mapping = space.randomMapping(rng);
    e.score = 2.5e9;
    e.energy_uj = 100.0;
    e.latency_cycles = 2.5e7;
    e.samples = 600;
    const std::string line = MappingStore::encodeEntry(e);
    std::optional<StoreEntry> back;
    const size_t n =
        allocationsOf([&] { back = MappingStore::decodeEntry(line); });
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(MappingStore::encodeEntry(*back), line);
    EXPECT_LE(n, 31u);
}

TEST(AllocBudgetPareto, RanksOfAGammaPopulationAtMostTwo)
{
    Rng rng(3);
    std::vector<ObjectivePoint> pts(24);
    for (auto &p : pts)
        p = {rng.uniformReal(1.0, 9.0), rng.uniformReal(1.0, 9.0)};
    std::vector<int> ranks;
    EXPECT_LE(allocationsOf([&] { ranks = paretoRanks(pts); }), 2u);
    EXPECT_EQ(ranks.size(), pts.size());
}

} // namespace
} // namespace mse
