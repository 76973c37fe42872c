#include "common/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace mse {

JsonValue
JsonValue::array()
{
    JsonValue v;
    v.type_ = Type::Array;
    return v;
}

JsonValue
JsonValue::object()
{
    JsonValue v;
    v.type_ = Type::Object;
    return v;
}

void
JsonValue::push(JsonValue v)
{
    if (type_ == Type::Null)
        type_ = Type::Array;
    items_.push_back(std::move(v));
}

JsonValue &
JsonValue::operator[](const std::string &key)
{
    if (type_ == Type::Null)
        type_ = Type::Object;
    for (auto &kv : members_) {
        if (kv.first == key)
            return kv.second;
    }
    members_.emplace_back(key, JsonValue());
    return members_.back().second;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (type_ != Type::Object)
        return nullptr;
    for (const auto &kv : members_) {
        if (kv.first == key)
            return &kv.second;
    }
    return nullptr;
}

double
JsonValue::getDouble(const std::string &key, double def) const
{
    const JsonValue *v = find(key);
    return v ? v->asDouble(def) : def;
}

int64_t
JsonValue::getInt(const std::string &key, int64_t def) const
{
    const JsonValue *v = find(key);
    return v ? v->asInt(def) : def;
}

bool
JsonValue::getBool(const std::string &key, bool def) const
{
    const JsonValue *v = find(key);
    return v ? v->asBool(def) : def;
}

std::string
JsonValue::getString(const std::string &key, const std::string &def) const
{
    const JsonValue *v = find(key);
    return v ? v->asString(def) : def;
}

void
jsonEscape(const std::string &s, std::string &out)
{
    for (const char c : s) {
        const unsigned char u = static_cast<unsigned char>(c);
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (u < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", u);
                out += buf;
            } else {
                out += c; // UTF-8 bytes pass through unmodified.
            }
        }
    }
}

std::string
jsonEscaped(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    jsonEscape(s, out);
    return out;
}

namespace {

/** Shortest decimal form of v that parses back to exactly v. */
void
formatNumber(double v, std::string &out)
{
    if (!std::isfinite(v)) {
        // JSON has no Inf/NaN literals; null is the conventional stand-in.
        out += "null";
        return;
    }
    constexpr double kExactInt = 9007199254740992.0; // 2^53
    if (v == std::floor(v) && std::fabs(v) <= kExactInt) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
        out += buf;
        return;
    }
    char buf[40];
    for (const int prec : {15, 16, 17}) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    out += buf;
}

void
newlineIndent(std::string &out, int indent, int depth)
{
    out += '\n';
    out.append(static_cast<size_t>(indent) * static_cast<size_t>(depth),
               ' ');
}

} // namespace

void
JsonValue::dumpTo(std::string &out, int indent, int depth) const
{
    const bool pretty = indent >= 0;
    switch (type_) {
      case Type::Null:
        out += "null";
        break;
      case Type::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Type::Number:
        formatNumber(num_, out);
        break;
      case Type::String:
        out += '"';
        jsonEscape(str_, out);
        out += '"';
        break;
      case Type::Array:
        out += '[';
        for (size_t i = 0; i < items_.size(); ++i) {
            if (i > 0)
                out += ',';
            if (pretty)
                newlineIndent(out, indent, depth + 1);
            items_[i].dumpTo(out, indent, depth + 1);
        }
        if (pretty && !items_.empty())
            newlineIndent(out, indent, depth);
        out += ']';
        break;
      case Type::Object:
        out += '{';
        for (size_t i = 0; i < members_.size(); ++i) {
            if (i > 0)
                out += ',';
            if (pretty)
                newlineIndent(out, indent, depth + 1);
            out += '"';
            jsonEscape(members_[i].first, out);
            out += pretty ? "\": " : "\":";
            members_[i].second.dumpTo(out, indent, depth + 1);
        }
        if (pretty && !members_.empty())
            newlineIndent(out, indent, depth);
        out += '}';
        break;
    }
}

std::string
JsonValue::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

namespace {

/** Recursive-descent parser over a raw byte range. */
class Parser
{
  public:
    Parser(std::string_view text, std::string *error)
        : s_(text), error_(error)
    {}

    std::optional<JsonValue> parse()
    {
        JsonValue v;
        skipWs();
        if (!parseValue(v, 0))
            return std::nullopt;
        skipWs();
        if (pos_ != s_.size())
            return fail("trailing characters after document");
        return v;
    }

  private:
    static constexpr int kMaxDepth = 64;

    std::optional<JsonValue> fail(const char *msg)
    {
        if (error_ && error_->empty()) {
            char buf[96];
            std::snprintf(buf, sizeof(buf), "%s (at byte %zu)", msg,
                          pos_);
            *error_ = buf;
        }
        return std::nullopt;
    }

    void skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                s_[pos_] == '\r'))
            ++pos_;
    }

    bool literal(const char *word)
    {
        const size_t n = std::strlen(word);
        if (s_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool parseValue(JsonValue &out, int depth)
    {
        if (depth > kMaxDepth) {
            fail("nesting too deep");
            return false;
        }
        if (pos_ >= s_.size()) {
            fail("unexpected end of input");
            return false;
        }
        switch (s_[pos_]) {
          case 'n':
            if (!literal("null")) {
                fail("invalid literal");
                return false;
            }
            out = JsonValue();
            return true;
          case 't':
            if (!literal("true")) {
                fail("invalid literal");
                return false;
            }
            out = JsonValue(true);
            return true;
          case 'f':
            if (!literal("false")) {
                fail("invalid literal");
                return false;
            }
            out = JsonValue(false);
            return true;
          case '"': {
            std::string str;
            if (!parseString(str))
                return false;
            out = JsonValue(std::move(str));
            return true;
          }
          case '[': return parseArray(out, depth);
          case '{': return parseObject(out, depth);
          default: return parseNumber(out);
        }
    }

    bool parseNumber(JsonValue &out)
    {
        const size_t start = pos_;
        if (pos_ < s_.size() && s_[pos_] == '-')
            ++pos_;
        const size_t digits = pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        if (pos_ == digits) {
            fail("invalid value");
            return false;
        }
        const std::string tok(s_.substr(start, pos_ - start));
        char *end = nullptr;
        const double v = std::strtod(tok.c_str(), &end);
        if (end != tok.c_str() + tok.size() || !std::isfinite(v)) {
            fail("invalid number");
            return false;
        }
        out = JsonValue(v);
        return true;
    }

    /** Append the UTF-8 encoding of one code point. */
    static void appendUtf8(std::string &out, uint32_t cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        }
    }

    bool parseHex4(uint32_t &out)
    {
        if (pos_ + 4 > s_.size()) {
            fail("truncated \\u escape");
            return false;
        }
        out = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = s_[pos_++];
            out <<= 4;
            if (c >= '0' && c <= '9')
                out |= static_cast<uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                out |= static_cast<uint32_t>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                out |= static_cast<uint32_t>(c - 'A' + 10);
            else {
                fail("invalid \\u escape");
                return false;
            }
        }
        return true;
    }

    bool parseString(std::string &out)
    {
        ++pos_; // opening quote
        out.clear();
        while (true) {
            if (pos_ >= s_.size()) {
                fail("unterminated string");
                return false;
            }
            const char c = s_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20) {
                fail("raw control character in string");
                return false;
            }
            if (c != '\\') {
                out += c;
                ++pos_;
                continue;
            }
            ++pos_;
            if (pos_ >= s_.size()) {
                fail("unterminated escape");
                return false;
            }
            const char e = s_[pos_++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                uint32_t cp = 0;
                if (!parseHex4(cp))
                    return false;
                if (cp >= 0xD800 && cp <= 0xDBFF) {
                    // High surrogate: require the low half.
                    if (pos_ + 2 > s_.size() || s_[pos_] != '\\' ||
                        s_[pos_ + 1] != 'u') {
                        fail("unpaired surrogate");
                        return false;
                    }
                    pos_ += 2;
                    uint32_t lo = 0;
                    if (!parseHex4(lo))
                        return false;
                    if (lo < 0xDC00 || lo > 0xDFFF) {
                        fail("invalid low surrogate");
                        return false;
                    }
                    cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
                    fail("unpaired surrogate");
                    return false;
                }
                appendUtf8(out, cp);
                break;
              }
              default:
                fail("invalid escape character");
                return false;
            }
        }
    }

    bool parseArray(JsonValue &out, int depth)
    {
        ++pos_; // '['
        out = JsonValue::array();
        skipWs();
        if (pos_ < s_.size() && s_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            JsonValue item;
            skipWs();
            if (!parseValue(item, depth + 1))
                return false;
            out.push(std::move(item));
            skipWs();
            if (pos_ >= s_.size()) {
                fail("unterminated array");
                return false;
            }
            if (s_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (s_[pos_] == ']') {
                ++pos_;
                return true;
            }
            fail("expected ',' or ']'");
            return false;
        }
    }

    bool parseObject(JsonValue &out, int depth)
    {
        ++pos_; // '{'
        out = JsonValue::object();
        skipWs();
        if (pos_ < s_.size() && s_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (pos_ >= s_.size() || s_[pos_] != '"') {
                fail("expected object key");
                return false;
            }
            std::string key;
            if (!parseString(key))
                return false;
            skipWs();
            if (pos_ >= s_.size() || s_[pos_] != ':') {
                fail("expected ':'");
                return false;
            }
            ++pos_;
            skipWs();
            JsonValue value;
            if (!parseValue(value, depth + 1))
                return false;
            // Duplicate keys: last one wins (operator[] finds the first
            // occurrence, so overwrite in place).
            out[key] = std::move(value);
            skipWs();
            if (pos_ >= s_.size()) {
                fail("unterminated object");
                return false;
            }
            if (s_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (s_[pos_] == '}') {
                ++pos_;
                return true;
            }
            fail("expected ',' or '}'");
            return false;
        }
    }

    std::string_view s_;
    size_t pos_ = 0;
    std::string *error_;
};

} // namespace

std::optional<JsonValue>
parseJson(std::string_view text, std::string *error)
{
    if (error)
        error->clear();
    Parser p(text, error);
    return p.parse();
}

bool
writeJsonFile(const std::string &path, const JsonValue &doc)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::string text = doc.dump(2);
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
        std::fputc('\n', f) != EOF;
    return std::fclose(f) == 0 && ok;
}

} // namespace mse
