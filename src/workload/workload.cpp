#include "workload/workload.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace mse {

Workload::Workload(std::string name, std::vector<std::string> dim_names,
                   std::vector<int64_t> bounds,
                   std::vector<TensorSpec> tensors)
    : name_(std::move(name)), dim_names_(std::move(dim_names)),
      bounds_(std::move(bounds)), tensors_(std::move(tensors))
{
    if (dim_names_.size() != bounds_.size())
        throw std::invalid_argument("workload: dim name/bound mismatch");
    for (int64_t b : bounds_) {
        if (b < 1)
            throw std::invalid_argument("workload: bounds must be >= 1");
    }
    if (bounds_.size() > static_cast<size_t>(kMaxDims)) {
        // Every real DNN operator here has <= 7 loop dimensions.
        throw std::invalid_argument("workload: more than 32 dimensions");
    }
    buildCaches();
}

void
Workload::buildCaches()
{
    relevance_.assign(tensors_.size(), 0u);
    output_tensor_ = -1;
    for (size_t t = 0; t < tensors_.size(); ++t) {
        for (const auto &rank : tensors_[t].projection) {
            for (const auto &term : rank) {
                if (term.dim < 0 || term.dim >= numDims())
                    throw std::invalid_argument(
                        "workload: projection references bad dim");
                relevance_[t] |= 1u << static_cast<unsigned>(term.dim);
            }
        }
        if (tensors_[t].kind == TensorKind::Output) {
            if (output_tensor_ != -1)
                throw std::invalid_argument(
                    "workload: multiple output tensors");
            output_tensor_ = static_cast<int>(t);
        }
    }
    if (output_tensor_ == -1)
        throw std::invalid_argument("workload: no output tensor");

    reduction_dims_.clear();
    for (int d = 0; d < numDims(); ++d) {
        if (!isRelevant(output_tensor_, d))
            reduction_dims_.push_back(d);
    }
}

double
Workload::totalMacs() const
{
    double p = 1.0;
    for (int64_t b : bounds_)
        p *= static_cast<double>(b);
    return p;
}

double
Workload::tensorVolume(int t) const
{
    double p = 1.0;
    for (const auto &rank : tensors_[t].projection) {
        int64_t extent = 1;
        for (const auto &term : rank)
            extent += term.coeff * (bounds_[term.dim] - 1);
        p *= static_cast<double>(extent);
    }
    return p;
}

void
Workload::setDensity(const std::string &tensor_name, double density)
{
    for (auto &t : tensors_) {
        if (t.name == tensor_name) {
            t.density = density;
            return;
        }
    }
    throw std::invalid_argument("workload: unknown tensor " + tensor_name);
}

double
Workload::density(const std::string &tensor_name) const
{
    for (const auto &t : tensors_) {
        if (t.name == tensor_name)
            return t.density;
    }
    return 1.0;
}

int
Workload::dimIndex(const std::string &dim_name) const
{
    for (int d = 0; d < numDims(); ++d) {
        if (dim_names_[d] == dim_name)
            return d;
    }
    return -1;
}

std::string
Workload::toString() const
{
    std::ostringstream os;
    os << name_ << " (";
    for (int d = 0; d < numDims(); ++d) {
        if (d)
            os << ",";
        os << dim_names_[d] << "=" << bounds_[d];
    }
    os << ")";
    return os.str();
}

std::string
Workload::signature() const
{
    std::ostringstream os;
    for (int d = 0; d < numDims(); ++d)
        os << dim_names_[d] << "=" << bounds_[d] << ";";
    for (const auto &t : tensors_) {
        os << "|" << t.name
           << (t.kind == TensorKind::Output ? ":out" : ":in") << ":d="
           << t.density << ":";
        for (const auto &rank : t.projection) {
            for (const auto &term : rank)
                os << term.coeff << "*" << term.dim << "+";
            os << ",";
        }
    }
    return os.str();
}

Workload
makeConv2d(const std::string &name, int64_t b, int64_t k, int64_t c,
           int64_t y, int64_t x, int64_t r, int64_t s)
{
    // Dim indices: B=0, K=1, C=2, Y=3, X=4, R=5, S=6.
    std::vector<std::string> dims = {"B", "K", "C", "Y", "X", "R", "S"};
    std::vector<int64_t> bounds = {b, k, c, y, x, r, s};
    TensorSpec weights{"Weights", TensorKind::Input,
                       {{{1, 1}}, {{2, 1}}, {{5, 1}}, {{6, 1}}}, 1.0};
    TensorSpec inputs{"Inputs", TensorKind::Input,
                      {{{0, 1}}, {{2, 1}},
                       {{3, 1}, {5, 1}},   // Y + R - 1 sliding window
                       {{4, 1}, {6, 1}}},  // X + S - 1 sliding window
                      1.0};
    TensorSpec outputs{"Outputs", TensorKind::Output,
                       {{{0, 1}}, {{1, 1}}, {{3, 1}}, {{4, 1}}}, 1.0};
    return Workload(name, dims, bounds, {weights, inputs, outputs});
}

Workload
makeDepthwiseConv2d(const std::string &name, int64_t b, int64_t c, int64_t y,
                    int64_t x, int64_t r, int64_t s)
{
    // Dim indices: B=0, C=1, Y=2, X=3, R=4, S=5.
    std::vector<std::string> dims = {"B", "C", "Y", "X", "R", "S"};
    std::vector<int64_t> bounds = {b, c, y, x, r, s};
    TensorSpec weights{"Weights", TensorKind::Input,
                       {{{1, 1}}, {{4, 1}}, {{5, 1}}}, 1.0};
    TensorSpec inputs{"Inputs", TensorKind::Input,
                      {{{0, 1}}, {{1, 1}},
                       {{2, 1}, {4, 1}},
                       {{3, 1}, {5, 1}}},
                      1.0};
    TensorSpec outputs{"Outputs", TensorKind::Output,
                       {{{0, 1}}, {{1, 1}}, {{2, 1}}, {{3, 1}}}, 1.0};
    return Workload(name, dims, bounds, {weights, inputs, outputs});
}

Workload
makeGemm(const std::string &name, int64_t b, int64_t m, int64_t k, int64_t n)
{
    // Dim indices: B=0, M=1, K=2, N=3.
    std::vector<std::string> dims = {"B", "M", "K", "N"};
    std::vector<int64_t> bounds = {b, m, k, n};
    TensorSpec a{"Inputs", TensorKind::Input,
                 {{{0, 1}}, {{1, 1}}, {{2, 1}}}, 1.0};
    TensorSpec w{"Weights", TensorKind::Input, {{{2, 1}}, {{3, 1}}}, 1.0};
    TensorSpec out{"Outputs", TensorKind::Output,
                   {{{0, 1}}, {{1, 1}}, {{3, 1}}}, 1.0};
    return Workload(name, dims, bounds, {a, w, out});
}

int
editDistance(const Workload &a, const Workload &b)
{
    if (a.numDims() != b.numDims())
        return std::max(a.numDims(), b.numDims()) + 1;
    int dist = 0;
    for (int d = 0; d < a.numDims(); ++d) {
        if (a.bound(d) != b.bound(d))
            ++dist;
    }
    return dist;
}

} // namespace mse
