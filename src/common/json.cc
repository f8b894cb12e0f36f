#include "common/json.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/log.hh"

namespace sac::json {

namespace {

/** True when @p v's mantissa field is all zero (a power of two, or
 *  zero): the one case whose round-trip interval is asymmetric. */
bool
zeroMantissa(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    return (bits & ((std::uint64_t{1} << 52) - 1)) == 0;
}

} // namespace

void
appendEscaped(std::string &out, std::string_view s)
{
    static const char hex[] = "0123456789abcdef";
    out += '"';
    // Plain runs go out in one append; only the escaped bytes are
    // written one at a time.
    std::size_t plain = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20)
            continue;
        out.append(s.data() + plain, i - plain);
        plain = i + 1;
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            out += "\\u00";
            out += hex[(c >> 4) & 0xf];
            out += hex[c & 0xf];
        }
    }
    out.append(s.data() + plain, s.size() - plain);
    out += '"';
}

std::string
escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    appendEscaped(out, s);
    return out;
}

void
appendNumber(std::string &out, double v)
{
    // The fewest significant digits in 15..17 that round-trip: most
    // doubles that occur in practice (2.3, 0.25, ...) are exact at 15
    // or 16, and print so (2.3, not 2.2999999999999998); only the
    // rest need all max_digits10 == 17. The shortest round-trip form
    // has d digits, so no precision below d round-trips, and every
    // precision from d up does — except possibly at a power of two,
    // whose lower neighbour is half as far as its upper one; there
    // the candidate is re-read to check it. to_chars at a precision
    // prints exactly what printf("%.*g") does.
    char buf[64];
    if (!std::isfinite(v)) {
        std::snprintf(buf, sizeof buf, "%.17g", v); // "inf", "-nan", ...
        out += buf;
        return;
    }
    char *const end = buf + sizeof buf;
    char *last = std::to_chars(buf, end, v,
                                     std::chars_format::scientific).ptr;
    int digits = 0;
    for (const char *p = buf; p != last && *p != 'e'; ++p)
        digits += *p >= '0' && *p <= '9';
    const int maxPrec = std::numeric_limits<double>::max_digits10;
    for (int prec = std::max(15, digits);; ++prec) {
        last = std::to_chars(buf, end, v, std::chars_format::general, prec)
                   .ptr;
        if (prec >= maxPrec || !zeroMantissa(v))
            break;
        double back = 0.0;
        std::from_chars(buf, last, back);
        if (back == v)
            break;
    }
    out.append(buf, last);
}

void
appendDigits17(std::string &out, double v)
{
    char buf[64];
    if (!std::isfinite(v)) {
        std::snprintf(buf, sizeof buf, "%.17g", v);
        out += buf;
        return;
    }
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v,
                                  std::chars_format::general, 17)
                        .ptr);
}

void
appendNumber(std::string &out, std::uint64_t v)
{
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

std::string
number(double v)
{
    std::string out;
    appendNumber(out, v);
    return out;
}

std::string
number(std::uint64_t v)
{
    std::string out;
    appendNumber(out, v);
    return out;
}

const Value &
Value::at(const std::string &key) const
{
    const auto it = object.find(key);
    if (it == object.end())
        fatal("JSON: missing key '", key, "'");
    return it->second;
}

std::uint64_t
Value::asU64() const
{
    require(Type::Number, "number");
    if (!text.empty() && text[0] == '-')
        fatal("JSON: expected a non-negative integer, got '", text, "'");
    return std::strtoull(text.c_str(), nullptr, 10);
}

double
Value::asDouble() const
{
    require(Type::Number, "number");
    return std::strtod(text.c_str(), nullptr);
}

const std::string &
Value::asString() const
{
    require(Type::String, "string");
    return text;
}

void
Value::require(Type t, const char *what) const
{
    if (type != t)
        fatal("JSON: expected a ", what);
}

namespace {

class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Value parse()
    {
        const Value v = value();
        skipWs();
        if (pos != text_.size())
            fail("trailing content");
        return v;
    }

  private:
    [[noreturn]] void fail(const std::string &why) const
    {
        // Report the position as line:column — far easier to act on
        // than a byte offset when the document is pretty-printed or
        // a JSONL checkpoint line.
        std::size_t line = 1;
        std::size_t col = 1;
        for (std::size_t i = 0; i < pos && i < text_.size(); ++i) {
            if (text_[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        invalid(log_detail::concat("line ", line, ", column ", col),
                "JSON: ", why);
    }

    /** RAII nesting guard: containers beyond maxDepth fail cleanly. */
    struct DepthGuard
    {
        explicit DepthGuard(Parser &p) : parser(p)
        {
            if (++parser.depth > maxDepth)
                parser.fail("nesting deeper than the supported " +
                            std::to_string(maxDepth) + " levels");
        }
        ~DepthGuard() { --parser.depth; }
        Parser &parser;
    };

    void skipWs()
    {
        while (pos < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos])))
            ++pos;
    }

    char peek()
    {
        skipWs();
        if (pos >= text_.size())
            fail("unexpected end of input");
        return text_[pos];
    }

    void expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos;
    }

    Value value()
    {
        switch (peek()) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': case 'f': return boolean();
          case 'n': return null();
          default: return number();
        }
    }

    Value object()
    {
        const DepthGuard guard(*this);
        expect('{');
        Value v;
        v.type = Value::Type::Object;
        if (peek() == '}') {
            ++pos;
            return v;
        }
        for (;;) {
            const Value key = string();
            expect(':');
            v.object.emplace(key.text, value());
            if (peek() == ',') {
                ++pos;
                continue;
            }
            expect('}');
            return v;
        }
    }

    Value array()
    {
        const DepthGuard guard(*this);
        expect('[');
        Value v;
        v.type = Value::Type::Array;
        if (peek() == ']') {
            ++pos;
            return v;
        }
        for (;;) {
            v.array.push_back(value());
            if (peek() == ',') {
                ++pos;
                continue;
            }
            expect(']');
            return v;
        }
    }

    Value string()
    {
        expect('"');
        Value v;
        v.type = Value::Type::String;
        while (pos < text_.size()) {
            const char c = text_[pos++];
            if (c == '"')
                return v;
            if (c != '\\') {
                if (static_cast<unsigned char>(c) < 0x20) {
                    --pos;
                    fail("unescaped control character in string");
                }
                v.text += c;
                continue;
            }
            if (pos >= text_.size())
                fail("dangling escape");
            const char e = text_[pos++];
            switch (e) {
              case '"': v.text += '"'; break;
              case '\\': v.text += '\\'; break;
              case '/': v.text += '/'; break;
              case 'n': v.text += '\n'; break;
              case 't': v.text += '\t'; break;
              case 'r': v.text += '\r'; break;
              case 'b': v.text += '\b'; break;
              case 'f': v.text += '\f'; break;
              case 'u': {
                if (pos + 4 > text_.size())
                    fail("truncated \\u escape");
                for (std::size_t i = 0; i < 4; ++i) {
                    if (!std::isxdigit(static_cast<unsigned char>(
                            text_[pos + i])))
                        fail("non-hex digit in \\u escape");
                }
                const unsigned code = static_cast<unsigned>(std::strtoul(
                    text_.substr(pos, 4).c_str(), nullptr, 16));
                pos += 4;
                // We only ever emit \u00XX control characters; wider
                // code points degrade to '?' rather than mis-decoding.
                v.text += code < 0x80 ? static_cast<char>(code) : '?';
                break;
              }
              default: fail("unknown escape");
            }
        }
        fail("unterminated string");
    }

    Value number()
    {
        skipWs();
        Value v;
        v.type = Value::Type::Number;
        const std::size_t start = pos;
        while (pos < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos])) ||
                text_[pos] == '-' || text_[pos] == '+' ||
                text_[pos] == '.' || text_[pos] == 'e' ||
                text_[pos] == 'E'))
            ++pos;
        if (pos == start)
            fail("expected a value");
        v.text = text_.substr(start, pos - start);

        // The scan above is permissive (it grabs any digit-ish run),
        // so validate the token against the JSON number grammar:
        //   -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
        const auto malformed = [&]() {
            pos = start;
            fail("malformed number '" + v.text + "'");
        };
        std::size_t i = 0;
        const auto digit_run = [&]() {
            std::size_t n = 0;
            while (i < v.text.size() &&
                   std::isdigit(static_cast<unsigned char>(v.text[i]))) {
                ++i;
                ++n;
            }
            return n;
        };
        if (i < v.text.size() && v.text[i] == '-')
            ++i;
        if (i < v.text.size() && v.text[i] == '0')
            ++i;
        else if (digit_run() == 0)
            malformed();
        if (i < v.text.size() && v.text[i] == '.') {
            ++i;
            if (digit_run() == 0)
                malformed();
        }
        if (i < v.text.size() && (v.text[i] == 'e' || v.text[i] == 'E')) {
            ++i;
            if (i < v.text.size() &&
                (v.text[i] == '+' || v.text[i] == '-'))
                ++i;
            if (digit_run() == 0)
                malformed();
        }
        if (i != v.text.size())
            malformed();
        return v;
    }

    Value boolean()
    {
        Value v;
        v.type = Value::Type::Bool;
        if (text_.compare(pos, 4, "true") == 0) {
            v.boolean = true;
            pos += 4;
        } else if (text_.compare(pos, 5, "false") == 0) {
            pos += 5;
        } else {
            fail("expected a boolean");
        }
        return v;
    }

    Value null()
    {
        if (text_.compare(pos, 4, "null") != 0)
            fail("expected null");
        pos += 4;
        return Value{};
    }

    const std::string &text_;
    std::size_t pos = 0;
    int depth = 0;
};

} // namespace

Value
parse(const std::string &text)
{
    return Parser(text).parse();
}

} // namespace sac::json
