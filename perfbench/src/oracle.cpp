#include "oracle.hpp"

#include "common/json.hpp"
#include "mapping/mapping_io.hpp"
#include "model/cost_model.hpp"
#include "sparse/sparse_model.hpp"
#include "util.hpp"

namespace perfbench {

mse::CostResult
scalarCost(const mse::SearchRequest &r, const mse::Mapping &m)
{
    return r.sparse ? mse::SparseCostModel().evaluate(r.workload, r.arch, m)
                    : mse::CostModel::evaluate(r.workload, r.arch, m);
}

size_t
verifyReplies(const Plan &plan, const std::vector<Outcome> &outcomes,
              std::map<size_t, Answer> &out, std::vector<std::string> &errors)
{
    size_t bad = 0;
    const auto fail = [&](size_t index, const std::string &why) {
        ++bad;
        if (errors.size() < 20)
            errors.push_back("request " + std::to_string(index) + ": " +
                             why);
    };
    for (const Outcome &o : outcomes) {
        const Request &req = plan.requests[o.index];
        if (!o.ok)
            continue;
        std::string err;
        const auto doc = mse::parseJson(o.reply, &err);
        if (!doc || !doc->isObject()) {
            fail(o.index, "unparseable reply: " + err);
            continue;
        }
        Answer a;
        a.score = doc->getDouble("score", -1.0);
        a.mapping = doc->getString("mapping", "");
        a.store = doc->getString("store", "");
        a.samples_to_incumbent =
            doc->getDouble("samples_to_incumbent", -1.0);
        a.wall_ms = doc->getDouble("wall_ms", 0.0);
        if (const mse::JsonValue *ec = doc->find("eval_cache")) {
            a.cache_hits = ec->getDouble("hits", 0.0);
            a.cache_misses = ec->getDouble("misses", 0.0);
        }

        const mse::SearchRequest s = searchOf(req.line);
        const auto mapping = mse::parseMapping(a.mapping);
        if (!mapping) {
            fail(o.index, "returned mapping does not parse");
            continue;
        }
        const mse::CostResult c = scalarCost(s, *mapping);
        if (!c.valid) {
            fail(o.index, "returned mapping is illegal");
            continue;
        }
        if (exact(c.edp) != exact(a.score)) {
            fail(o.index, "score " + exact(a.score) +
                              " but the oracle says " + exact(c.edp));
            continue;
        }
        out[o.index] = std::move(a);
    }
    return bad;
}

std::string
roundDigest(const Plan &plan, const std::map<size_t, Answer> &answers)
{
    Digest d;
    for (size_t i = 0; i < plan.requests.size(); ++i) {
        const auto it = answers.find(i);
        if (it == answers.end())
            return "";
        d.add(plan.requests[i].line);
        d.add(exact(it->second.score));
        d.add(it->second.mapping);
    }
    return d.hex();
}

} // namespace perfbench
