/**
 * @file
 * Minimal JSON document model: enough to write the structured results
 * file and read it back, with deterministic formatting so two runs of
 * the same experiment produce byte-identical output.
 *
 * Deliberate properties (see docs/results_schema.md):
 *  - object keys keep insertion order (no hashing, no sorting), so
 *    the emitted text is stable across runs and platforms;
 *  - integers are kept exact (uint64), doubles print with
 *    max_digits10 so a round-trip is loss-free;
 *  - the parser is strict recursive descent over the JSON grammar —
 *    no extensions, no comments.
 *
 * This is not a general-purpose JSON library; it exists because the
 * container must build with no third-party deps beyond the toolchain.
 */

#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lvpsim
{
namespace sim
{

class JsonValue
{
  public:
    enum class Kind { Null, Bool, Int, Double, String, Array, Object };

    JsonValue() : kind_(Kind::Null) {}
    JsonValue(bool b) : kind_(Kind::Bool), boolVal(b) {}
    JsonValue(std::uint64_t v) : kind_(Kind::Int), intVal(v) {}
    JsonValue(double v) : kind_(Kind::Double), dblVal(v) {}
    JsonValue(std::string s)
        : kind_(Kind::String), strVal(std::move(s))
    {}
    JsonValue(const char *s) : kind_(Kind::String), strVal(s) {}

    static JsonValue array() { return ofKind(Kind::Array); }
    static JsonValue object() { return ofKind(Kind::Object); }

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isNumber() const
    {
        return kind_ == Kind::Int || kind_ == Kind::Double;
    }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool asBool() const { return boolVal; }
    /** The number as a count; 0 when getU64() would fail. */
    std::uint64_t asU64() const
    {
        std::uint64_t v = 0;
        return getU64(v) ? v : 0;
    }
    /** True, with `out` set, when this is a non-negative integral
     *  number that fits a uint64. Negative, fractional, too large and
     *  non-number values give false: readers of count fields reject
     *  them instead of converting them. */
    bool getU64(std::uint64_t &out) const;
    double asDouble() const
    {
        return kind_ == Kind::Double ? dblVal : double(intVal);
    }
    const std::string &asString() const { return strVal; }

    /// Array access.
    const std::vector<JsonValue> &items() const { return arr; }
    JsonValue &push(JsonValue v);

    /// Object access (insertion-ordered).
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const
    {
        return obj;
    }
    JsonValue &set(std::string key, JsonValue v);
    /** Member lookup; nullptr when absent (or not an object). */
    const JsonValue *find(std::string_view key) const;

    /** Serialize. indent < 0 → compact single line. */
    void dump(std::ostream &os, int indent = 2) const;
    std::string dump(int indent = 2) const;

  private:
    static JsonValue
    ofKind(Kind k)
    {
        JsonValue v;
        v.kind_ = k;
        return v;
    }
    void dumpImpl(std::ostream &os, int indent, int depth) const;

    Kind kind_;
    bool boolVal = false;
    std::uint64_t intVal = 0;
    double dblVal = 0.0;
    std::string strVal;
    std::vector<JsonValue> arr;
    std::vector<std::pair<std::string, JsonValue>> obj;
};

/**
 * Parse a complete JSON document. On failure returns Null and, when
 * `err` is non-null, stores a message with the byte offset.
 */
JsonValue parseJson(std::string_view text, std::string *err = nullptr);

} // namespace sim
} // namespace lvpsim

