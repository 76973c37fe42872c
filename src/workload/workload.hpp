/**
 * @file
 * Loop-nest workload representation (Sec. 2.1 of the paper).
 *
 * A workload is a perfectly nested loop computation over a set of named
 * dimensions (e.g. CONV2D's B,K,C,Y,X,R,S or GEMM's B,M,K,N) together
 * with the tensors it reads and writes. Each tensor declares a
 * *projection*: for every rank of the tensor, an affine combination of
 * workload dimensions (sliding-window ranks such as a CONV input's
 * Y+R-1 extent use two terms). The projection determines which loop
 * dimensions carry reuse for the tensor, which is what the cost model and
 * the mappers' pruning heuristics key on.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mse {

/** One affine term of a tensor-rank projection: coeff * dim. */
struct DimTerm
{
    int dim = 0;     ///< Index into Workload::bounds.
    int coeff = 1;   ///< Stride coefficient (1 for all workloads here).
};

/** A tensor rank indexed by the sum of one or more dimension terms. */
using CompositeDim = std::vector<DimTerm>;

/** Role of a tensor in the computation. */
enum class TensorKind
{
    Input,   ///< Read-only operand (weights, input activations).
    Output,  ///< Read-modify-write accumulation target.
};

/** Declaration of one tensor touched by the workload. */
struct TensorSpec
{
    std::string name;
    TensorKind kind = TensorKind::Input;
    std::vector<CompositeDim> projection;
    /**
     * Fraction of non-zero values in (0, 1]. 1.0 models a dense tensor;
     * smaller values model compressed-sparse tensors (Sec. 4.5).
     */
    double density = 1.0;
};

/**
 * A single DNN layer/operator expressed as a loop nest.
 *
 * Workloads are value types: the model zoo hands out copies that callers
 * may re-annotate (e.g. overriding tensor densities per experiment).
 */
class Workload
{
  public:
    /**
     * Most loop dimensions a workload may have: relevance is a per-tensor
     * uint32_t bitmask.
     */
    static constexpr int kMaxDims = 32;

    Workload() = default;
    Workload(std::string name, std::vector<std::string> dim_names,
             std::vector<int64_t> bounds, std::vector<TensorSpec> tensors);

    const std::string &name() const { return name_; }
    void setName(std::string n) { name_ = std::move(n); }

    int numDims() const { return static_cast<int>(bounds_.size()); }
    int numTensors() const { return static_cast<int>(tensors_.size()); }

    const std::vector<std::string> &dimNames() const { return dim_names_; }
    const std::vector<int64_t> &bounds() const { return bounds_; }
    int64_t bound(int dim) const { return bounds_[dim]; }

    const std::vector<TensorSpec> &tensors() const { return tensors_; }
    const TensorSpec &tensor(int t) const { return tensors_[t]; }

    /** Index of the (unique) output tensor. */
    int outputTensor() const { return output_tensor_; }

    /** True iff dimension dim appears in tensor t's projection. */
    bool
    isRelevant(int t, int dim) const
    {
        return (relevance_[t] >> static_cast<unsigned>(dim)) & 1u;
    }

    /**
     * Relevance of all dimensions to tensor t as a bitmask: bit d set
     * iff dimension d appears in t's projection. Hot-path form of
     * isRelevant (the cost model tests one register against a shifted
     * bit instead of chasing a nested vector). Workloads are capped at
     * 32 dimensions so the mask always fits.
     */
    uint32_t relevanceMask(int t) const { return relevance_[t]; }

    /**
     * Dimensions not relevant to the output tensor: iterating them
     * accumulates partial sums (CONV2D: C, R, S; GEMM: K).
     */
    const std::vector<int> &reductionDims() const { return reduction_dims_; }

    /** Total multiply-accumulate count: the product of all bounds. */
    double totalMacs() const;

    /** Dense element count of tensor t (full problem footprint). */
    double tensorVolume(int t) const;

    /** Set the density annotation of the tensor named tensor_name. */
    void setDensity(const std::string &tensor_name, double density);

    /** Density of the tensor named tensor_name (1.0 if absent). */
    double density(const std::string &tensor_name) const;

    /** Lookup a dimension index by name; -1 if absent. */
    int dimIndex(const std::string &dim_name) const;

    /** Human-readable one-line summary, e.g. "conv3 (16,128,128,...)". */
    std::string toString() const;

    /**
     * Canonical structural signature: dimension names and bounds plus
     * every tensor's kind, projection, and density — everything the
     * cost model reads, and nothing it ignores (the layer *name* is
     * deliberately excluded). Two workloads with equal signatures span
     * identical map spaces and evaluate identically under every
     * (arch, mapping) pair, which is what lets a full-model sweep
     * search each unique layer shape once and reuse the result for
     * its duplicates.
     */
    std::string signature() const;

  private:
    void buildCaches();

    std::string name_;
    std::vector<std::string> dim_names_;
    std::vector<int64_t> bounds_;
    std::vector<TensorSpec> tensors_;
    int output_tensor_ = -1;
    /** Per-tensor dimension-relevance bitmasks (see relevanceMask). */
    std::vector<uint32_t> relevance_;
    std::vector<int> reduction_dims_;
};

/**
 * CONV2D as a 7-dim loop nest (B,K,C,Y,X,R,S), stride 1, with tensors
 * Weights[K,C,R,S], Inputs[B,C,Y+R-1,X+S-1], Outputs[B,K,Y,X].
 */
Workload makeConv2d(const std::string &name, int64_t b, int64_t k, int64_t c,
                    int64_t y, int64_t x, int64_t r, int64_t s);

/**
 * Depthwise CONV2D over dims (B,C,Y,X,R,S): Weights[C,R,S],
 * Inputs[B,C,Y+R-1,X+S-1], Outputs[B,C,Y,X].
 */
Workload makeDepthwiseConv2d(const std::string &name, int64_t b, int64_t c,
                             int64_t y, int64_t x, int64_t r, int64_t s);

/**
 * Batched GEMM C[B,M,N] += A[B,M,K] * W[K,N] over dims (B,M,K,N);
 * matches the paper's (B,M,K,N) BERT workloads.
 */
Workload makeGemm(const std::string &name, int64_t b, int64_t m, int64_t k,
                  int64_t n);

/**
 * Workload similarity as used by warm-start (Sec. 5.1): the edit distance
 * is the number of dimensions whose bounds differ. Workloads with
 * different dimensionality (e.g. CONV vs GEMM) are maximally distant.
 */
int editDistance(const Workload &a, const Workload &b);

} // namespace mse
