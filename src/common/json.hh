/**
 * @file
 * Minimal JSON reading and writing, shared by every serializer in the
 * tree (sim/result_io, telemetry/export) and by tests that validate
 * emitted documents.
 *
 * Writing is string assembly through Builder/escape/number — numbers
 * are emitted losslessly (integers verbatim, doubles at max_digits10)
 * so a write/read round trip reproduces every counter bit-for-bit.
 * Reading is a small recursive-descent parser producing a Value tree;
 * numbers keep their raw spelling so the caller chooses integer or
 * double conversion without loss.
 *
 * The parser is hardened against hostile input: nesting depth is
 * capped at maxDepth (deeply nested documents fail cleanly instead of
 * overflowing the stack) and every rejection throws ValidationError
 * (a FatalError) whose context pinpoints the line and column of the
 * offending byte. No input, however malformed or truncated, crashes
 * the process or invokes undefined behaviour — the malformed-corpus
 * regression test and the ASan/UBSan CI job enforce this.
 */

#ifndef SAC_COMMON_JSON_HH
#define SAC_COMMON_JSON_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace sac::json {

// --- writing ----------------------------------------------------------

/** Quotes and escapes @p s as a JSON string literal. */
std::string escape(std::string_view s);

/** Appends escape(@p s) to @p out without a temporary. */
void appendEscaped(std::string &out, std::string_view s);

/**
 * Appends @p v at the fewest significant digits in 15..17 that
 * round-trip (lossless, yet 2.3 stays "2.3"): the bytes of the
 * "%.*g" loop this replaced, at a fraction of its cost.
 */
void appendNumber(std::string &out, double v);

/** Appends @p v exactly as "%.17g" prints it (every double's bits). */
void appendDigits17(std::string &out, double v);

/** Appends @p v verbatim. */
void appendNumber(std::string &out, std::uint64_t v);

/** Formats @p v as appendNumber does. */
std::string number(double v);

/** Formats @p v verbatim. */
std::string number(std::uint64_t v);

/** Streams an object/array one field at a time with the commas. */
class Builder
{
  public:
    explicit Builder(char open) { text += open; }

    Builder &field(std::string_view key, const std::string &value)
    {
        sep();
        appendEscaped(text, key);
        text += ':';
        text += value;
        return *this;
    }

    Builder &item(const std::string &value)
    {
        sep();
        text += value;
        return *this;
    }

    std::string close(char c)
    {
        text += c;
        return std::move(text);
    }

  private:
    void sep()
    {
        if (!first)
            text += ',';
        first = false;
    }

    std::string text;
    bool first = true;
};

// --- reading ----------------------------------------------------------

/** Parsed JSON value tree. */
struct Value
{
    enum class Type { Null, Bool, Number, String, Array, Object };
    Type type = Type::Null;
    bool boolean = false;
    std::string text; // raw token for Number, decoded for String
    std::vector<Value> array;
    std::map<std::string, Value> object;

    bool has(const std::string &key) const
    {
        return object.find(key) != object.end();
    }
    /** Member access; throws FatalError when @p key is absent. */
    const Value &at(const std::string &key) const;

    std::uint64_t asU64() const;
    double asDouble() const;
    const std::string &asString() const;

    /** Throws FatalError unless this value has type @p t. */
    void require(Type t, const char *what) const;
};

/**
 * Maximum container nesting the parser accepts. Every document this
 * tree emits is a handful of levels deep; the cap exists purely so
 * hostile input ("[[[[…") cannot overflow the parser's call stack.
 */
constexpr int maxDepth = 96;

/**
 * Parses one complete JSON document; throws ValidationError (a
 * FatalError) with line/column context on errors.
 */
Value parse(const std::string &text);

} // namespace sac::json

#endif // SAC_COMMON_JSON_HH
