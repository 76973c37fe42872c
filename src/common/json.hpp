/**
 * @file
 * Minimal JSON layer: an ordered document value, an escaping writer, and
 * a strict recursive-descent parser.
 *
 * The repo grows a serving path in this PR — requests and replies travel
 * as line-delimited JSON over TCP, the mapping store persists JSON
 * records, and every BENCH_*.json already hand-rolled its own emission.
 * This file is the single audited implementation all of them share.
 *
 * Design constraints:
 *  - *Deterministic output.* Object members keep insertion order, so a
 *    document dumps byte-identically run to run (no hash-map ordering).
 *  - *Exact numbers.* Numbers are stored as doubles and written with
 *    the shortest representation that round-trips (integral values in
 *    [-2^53, 2^53] print without a decimal point), so cost traces keep
 *    their full precision through a serialize/parse cycle.
 *  - *Hostile input.* parseJson is the daemon's first line of defense:
 *    it enforces a nesting-depth limit, rejects trailing garbage, and
 *    reports the byte offset of the first error. It never throws.
 */
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mse {

/** One JSON document node (null, bool, number, string, array, object). */
class JsonValue
{
  public:
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    JsonValue() = default;
    JsonValue(bool b) : type_(Type::Bool), bool_(b) {}
    JsonValue(double v) : type_(Type::Number), num_(v) {}
    JsonValue(int v) : type_(Type::Number), num_(v) {}
    JsonValue(int64_t v)
        : type_(Type::Number), num_(static_cast<double>(v))
    {}
    JsonValue(uint64_t v)
        : type_(Type::Number), num_(static_cast<double>(v))
    {}
    JsonValue(const char *s) : type_(Type::String), str_(s) {}
    JsonValue(std::string s) : type_(Type::String), str_(std::move(s)) {}

    /** An empty array / object (distinct from default-constructed null). */
    static JsonValue array();
    static JsonValue object();

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    /** Typed reads with a fallback for wrong-typed / absent values. */
    bool asBool(bool def = false) const
    {
        return isBool() ? bool_ : def;
    }
    double asDouble(double def = 0.0) const
    {
        return isNumber() ? num_ : def;
    }
    /** The number truncated toward zero, saturated to int64's range. */
    int64_t asInt(int64_t def = 0) const
    {
        // Converting an out-of-range double is undefined behavior, and
        // hostile input may carry 1e300: saturate instead.
        constexpr double kTwo63 = 9223372036854775808.0;
        if (!isNumber() || std::isnan(num_))
            return def;
        if (num_ >= kTwo63)
            return std::numeric_limits<int64_t>::max();
        if (num_ <= -kTwo63)
            return std::numeric_limits<int64_t>::min();
        return static_cast<int64_t>(num_);
    }
    const std::string &asString() const { return str_; }
    std::string asString(const std::string &def) const
    {
        return isString() ? str_ : def;
    }

    /** Array elements / object members (empty for other types). */
    const std::vector<JsonValue> &items() const { return items_; }
    const std::vector<std::pair<std::string, JsonValue>> &members() const
    {
        return members_;
    }
    size_t size() const
    {
        return isObject() ? members_.size() : items_.size();
    }

    /** Append to an array (converts a null value into an array). */
    void push(JsonValue v);

    /**
     * Member access for building objects: returns the value for `key`,
     * inserting a null member if absent (converts null into an object).
     */
    JsonValue &operator[](const std::string &key);

    /** Lookup without insertion; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    /** find() that tolerates a null `this` (chained optional lookups). */
    double getDouble(const std::string &key, double def) const;
    int64_t getInt(const std::string &key, int64_t def) const;
    bool getBool(const std::string &key, bool def) const;
    std::string getString(const std::string &key,
                          const std::string &def) const;

    /**
     * Serialize. indent < 0 emits the compact one-line form (the wire
     * and store format); indent >= 0 pretty-prints with that many
     * spaces per level.
     */
    std::string dump(int indent = -1) const;

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Type type_ = Type::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<JsonValue> items_;
    std::vector<std::pair<std::string, JsonValue>> members_;
};

/** Append `s` JSON-escaped (no surrounding quotes) onto `out`. */
void jsonEscape(const std::string &s, std::string &out);

/** Convenience form returning the escaped string. */
std::string jsonEscaped(const std::string &s);

/**
 * Parse one JSON document. Returns nullopt on malformed input and, when
 * `error` is non-null, stores a one-line description including the byte
 * offset. Rejects trailing non-whitespace and nesting deeper than 64
 * levels.
 */
std::optional<JsonValue> parseJson(std::string_view text,
                                   std::string *error = nullptr);

/**
 * Write `doc` to `path` (pretty-printed, trailing newline). Returns
 * false on I/O failure. The one call every BENCH_*.json goes through.
 */
bool writeJsonFile(const std::string &path, const JsonValue &doc);

} // namespace mse
