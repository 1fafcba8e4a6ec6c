#include "json_parse.h"

#include <cstdio>

namespace sim {

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &member : members)
        if (member.first == key)
            return &member.second;
    return nullptr;
}

bool
JsonValue::asU64(std::uint64_t *out) const
{
    if (kind != Kind::Number || text.empty())
        return false;
    std::uint64_t v = 0;
    for (char c : text) {
        if (c < '0' || c > '9')
            return false; // sign, fraction, or exponent: not a u64
        const auto digit = static_cast<std::uint64_t>(c - '0');
        if (v > (UINT64_MAX - digit) / 10)
            return false; // overflow
        v = v * 10 + digit;
    }
    *out = v;
    return true;
}

namespace {

/** Recursive-descent state over the input buffer. */
class Parser
{
  public:
    Parser(const std::string &text, std::string *error)
        : text_(text), error_(error)
    {
    }

    bool
    run(JsonValue *out)
    {
        skipWs();
        if (!parseValue(out, 0))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing content after root value");
        return true;
    }

  private:
    // Deep enough for any report this repo writes; bounds recursion so
    // adversarial input cannot blow the host stack.
    static constexpr int kMaxDepth = 96;

    bool
    fail(const std::string &what)
    {
        if (error_ && error_->empty()) {
            *error_ = "json parse error at byte "
                      + std::to_string(pos_) + ": " + what;
        }
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    bool
    literal(const char *word, std::size_t len)
    {
        if (text_.compare(pos_, len, word) != 0)
            return fail(std::string("expected '") + word + "'");
        pos_ += len;
        return true;
    }

    bool
    parseValue(JsonValue *out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        switch (text_[pos_]) {
          case '{':
            return parseObject(out, depth);
          case '[':
            return parseArray(out, depth);
          case '"':
            out->kind = JsonValue::Kind::String;
            return parseString(&out->text);
          case 't':
            out->kind = JsonValue::Kind::Bool;
            out->boolean = true;
            return literal("true", 4);
          case 'f':
            out->kind = JsonValue::Kind::Bool;
            out->boolean = false;
            return literal("false", 5);
          case 'n':
            out->kind = JsonValue::Kind::Null;
            return literal("null", 4);
          default:
            return parseNumber(out);
        }
    }

    bool
    parseObject(JsonValue *out, int depth)
    {
        out->kind = JsonValue::Kind::Object;
        ++pos_; // '{'
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected object key string");
            std::string key;
            if (!parseString(&key))
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return fail("expected ':' after object key");
            ++pos_;
            skipWs();
            JsonValue value;
            if (!parseValue(&value, depth + 1))
                return false;
            out->members.emplace_back(std::move(key),
                                      std::move(value));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}' in object");
        }
    }

    bool
    parseArray(JsonValue *out, int depth)
    {
        out->kind = JsonValue::Kind::Array;
        ++pos_; // '['
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            JsonValue value;
            if (!parseValue(&value, depth + 1))
                return false;
            out->items.push_back(std::move(value));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']' in array");
        }
    }

    bool
    hexQuad(std::uint32_t *out)
    {
        if (pos_ + 4 > text_.size())
            return fail("truncated \\u escape");
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text_[pos_ + static_cast<std::size_t>(i)];
            v <<= 4;
            if (c >= '0' && c <= '9')
                v |= static_cast<std::uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                v |= static_cast<std::uint32_t>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                v |= static_cast<std::uint32_t>(c - 'A' + 10);
            else
                return fail("bad hex digit in \\u escape");
        }
        pos_ += 4;
        *out = v;
        return true;
    }

    static void
    appendUtf8(std::string *out, std::uint32_t cp)
    {
        if (cp < 0x80) {
            out->push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else if (cp < 0x10000) {
            out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out->push_back(
                static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else {
            out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
            out->push_back(
                static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
            out->push_back(
                static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        }
    }

    bool
    parseString(std::string *out)
    {
        ++pos_; // opening '"'
        out->clear();
        while (pos_ < text_.size()) {
            const unsigned char c =
                static_cast<unsigned char>(text_[pos_]);
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c < 0x20)
                return fail("unescaped control character in string");
            if (c != '\\') {
                out->push_back(static_cast<char>(c));
                ++pos_;
                continue;
            }
            ++pos_; // '\\'
            if (pos_ >= text_.size())
                return fail("truncated escape sequence");
            const char esc = text_[pos_++];
            switch (esc) {
              case '"':
                out->push_back('"');
                break;
              case '\\':
                out->push_back('\\');
                break;
              case '/':
                out->push_back('/');
                break;
              case 'b':
                out->push_back('\b');
                break;
              case 'f':
                out->push_back('\f');
                break;
              case 'n':
                out->push_back('\n');
                break;
              case 'r':
                out->push_back('\r');
                break;
              case 't':
                out->push_back('\t');
                break;
              case 'u': {
                std::uint32_t cp = 0;
                if (!hexQuad(&cp))
                    return false;
                if (cp >= 0xD800 && cp <= 0xDBFF) {
                    // High surrogate: require a low-surrogate pair.
                    if (pos_ + 2 > text_.size()
                        || text_[pos_] != '\\'
                        || text_[pos_ + 1] != 'u')
                        return fail("lone high surrogate");
                    pos_ += 2;
                    std::uint32_t lo = 0;
                    if (!hexQuad(&lo))
                        return false;
                    if (lo < 0xDC00 || lo > 0xDFFF)
                        return fail("bad low surrogate");
                    cp = 0x10000 + ((cp - 0xD800) << 10)
                         + (lo - 0xDC00);
                } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
                    return fail("lone low surrogate");
                }
                appendUtf8(out, cp);
                break;
              }
              default:
                return fail("unknown escape sequence");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(JsonValue *out)
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        const std::size_t int_start = pos_;
        while (pos_ < text_.size() && text_[pos_] >= '0'
               && text_[pos_] <= '9')
            ++pos_;
        if (pos_ == int_start)
            return fail("invalid value");
        if (text_[int_start] == '0' && pos_ - int_start > 1)
            return fail("leading zero in number");
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            const std::size_t frac_start = pos_;
            while (pos_ < text_.size() && text_[pos_] >= '0'
                   && text_[pos_] <= '9')
                ++pos_;
            if (pos_ == frac_start)
                return fail("missing digits after decimal point");
        }
        if (pos_ < text_.size()
            && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size()
                && (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            const std::size_t exp_start = pos_;
            while (pos_ < text_.size() && text_[pos_] >= '0'
                   && text_[pos_] <= '9')
                ++pos_;
            if (pos_ == exp_start)
                return fail("missing digits in exponent");
        }
        out->kind = JsonValue::Kind::Number;
        out->text = text_.substr(start, pos_ - start);
        return true;
    }

    const std::string &text_;
    std::string *error_;
    std::size_t pos_ = 0;
};

} // namespace

bool
parseJson(const std::string &text, JsonValue *out, std::string *error)
{
    if (error)
        error->clear();
    *out = JsonValue{};
    Parser parser(text, error);
    return parser.run(out);
}

} // namespace sim
