#include "sim/json.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

namespace lvpsim
{
namespace sim
{

JsonValue &
JsonValue::push(JsonValue v)
{
    arr.push_back(std::move(v));
    return arr.back();
}

JsonValue &
JsonValue::set(std::string key, JsonValue v)
{
    for (auto &kv : obj)
        if (kv.first == key) {
            kv.second = std::move(v);
            return kv.second;
        }
    obj.emplace_back(std::move(key), std::move(v));
    return obj.back().second;
}

bool
JsonValue::getU64(std::uint64_t &out) const
{
    // 2^64 is exact as a double; NaN fails the range test.
    const bool fits =
        kind_ == Kind::Int ||
        (kind_ == Kind::Double && dblVal >= 0.0 && dblVal < 0x1p64 &&
         std::trunc(dblVal) == dblVal);
    if (fits)
        out = kind_ == Kind::Int ? intVal : std::uint64_t(dblVal);
    return fits;
}

const JsonValue *
JsonValue::find(std::string_view key) const
{
    for (const auto &kv : obj)
        if (kv.first == key)
            return &kv.second;
    return nullptr;
}

namespace
{

void
dumpString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\r': os << "\\r"; break;
          case '\t': os << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

void
dumpDouble(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        os << "null"; // JSON has no inf/nan
        return;
    }
    // Shortest exact representation: print with max_digits10, which
    // round-trips, and is deterministic across runs.
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.*g",
                  std::numeric_limits<double>::max_digits10, v);
    os << buf;
    // Keep a trailing marker so 5 and 5.0 re-parse as Double when
    // written as Double (field-kind stability for round-trips).
    std::string_view sv(buf);
    if (sv.find('.') == sv.npos && sv.find('e') == sv.npos &&
        sv.find("inf") == sv.npos && sv.find("nan") == sv.npos)
        os << ".0";
}

} // anonymous namespace

void
JsonValue::dumpImpl(std::ostream &os, int indent, int depth) const
{
    const std::string pad =
        indent < 0 ? "" : std::string(std::size_t(indent) * (depth + 1), ' ');
    const std::string padEnd =
        indent < 0 ? "" : std::string(std::size_t(indent) * depth, ' ');
    const char *nl = indent < 0 ? "" : "\n";

    switch (kind_) {
      case Kind::Null: os << "null"; break;
      case Kind::Bool: os << (boolVal ? "true" : "false"); break;
      case Kind::Int: os << intVal; break;
      case Kind::Double: dumpDouble(os, dblVal); break;
      case Kind::String: dumpString(os, strVal); break;
      case Kind::Array:
        if (arr.empty()) {
            os << "[]";
            break;
        }
        os << '[' << nl;
        for (std::size_t i = 0; i < arr.size(); ++i) {
            os << pad;
            arr[i].dumpImpl(os, indent, depth + 1);
            os << (i + 1 < arr.size() ? "," : "") << nl;
        }
        os << padEnd << ']';
        break;
      case Kind::Object:
        if (obj.empty()) {
            os << "{}";
            break;
        }
        os << '{' << nl;
        for (std::size_t i = 0; i < obj.size(); ++i) {
            os << pad;
            dumpString(os, obj[i].first);
            os << (indent < 0 ? ":" : ": ");
            obj[i].second.dumpImpl(os, indent, depth + 1);
            os << (i + 1 < obj.size() ? "," : "") << nl;
        }
        os << padEnd << '}';
        break;
    }
}

void
JsonValue::dump(std::ostream &os, int indent) const
{
    dumpImpl(os, indent, 0);
}

std::string
JsonValue::dump(int indent) const
{
    std::ostringstream ss;
    dump(ss, indent);
    return ss.str();
}

namespace
{

class Parser
{
  public:
    Parser(std::string_view text, std::string *err)
        : text(text), err(err)
    {}

    JsonValue
    parse()
    {
        skipWs();
        JsonValue v = parseValue();
        if (failed)
            return JsonValue();
        skipWs();
        if (pos != text.size()) {
            fail("trailing characters after document");
            return JsonValue();
        }
        return v;
    }

    bool ok() const { return !failed; }

  private:
    void
    fail(const std::string &msg)
    {
        if (!failed && err)
            *err = msg + " at byte " + std::to_string(pos);
        failed = true;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    bool
    consume(char c)
    {
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    literal(std::string_view word)
    {
        if (text.substr(pos, word.size()) == word) {
            pos += word.size();
            return true;
        }
        return false;
    }

    JsonValue
    parseValue()
    {
        if (pos >= text.size()) {
            fail("unexpected end of input");
            return JsonValue();
        }
        const char c = text[pos];
        if (c == '{')
            return parseObject();
        if (c == '[')
            return parseArray();
        if (c == '"')
            return JsonValue(parseString());
        if (c == 't') {
            if (literal("true"))
                return JsonValue(true);
            fail("bad literal");
            return JsonValue();
        }
        if (c == 'f') {
            if (literal("false"))
                return JsonValue(false);
            fail("bad literal");
            return JsonValue();
        }
        if (c == 'n') {
            if (literal("null"))
                return JsonValue();
            fail("bad literal");
            return JsonValue();
        }
        return parseNumber();
    }

    std::string
    parseString()
    {
        std::string out;
        if (!consume('"')) {
            fail("expected string");
            return out;
        }
        while (pos < text.size() && text[pos] != '"') {
            char c = text[pos++];
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= text.size()) {
                fail("bad escape");
                return out;
            }
            const char e = text[pos++];
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
                if (pos + 4 > text.size()) {
                    fail("bad \\u escape");
                    return out;
                }
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text[pos++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= unsigned(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= unsigned(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= unsigned(h - 'A' + 10);
                    else {
                        fail("bad \\u escape");
                        return out;
                    }
                }
                // Results files only ever contain ASCII; encode the
                // BMP code point as UTF-8 without surrogate handling.
                if (cp < 0x80) {
                    out += char(cp);
                } else if (cp < 0x800) {
                    out += char(0xC0 | (cp >> 6));
                    out += char(0x80 | (cp & 0x3F));
                } else {
                    out += char(0xE0 | (cp >> 12));
                    out += char(0x80 | ((cp >> 6) & 0x3F));
                    out += char(0x80 | (cp & 0x3F));
                }
                break;
              }
              default:
                fail("bad escape");
                return out;
            }
        }
        if (!consume('"'))
            fail("unterminated string");
        return out;
    }

    JsonValue
    parseNumber()
    {
        const std::size_t start = pos;
        if (pos < text.size() && (text[pos] == '-' || text[pos] == '+'))
            ++pos;
        bool isInt = true;
        while (pos < text.size()) {
            const char c = text[pos];
            if (std::isdigit(static_cast<unsigned char>(c))) {
                ++pos;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '-' ||
                       c == '+') {
                isInt = false;
                ++pos;
            } else {
                break;
            }
        }
        const std::string_view tok = text.substr(start, pos - start);
        if (tok.empty() || tok == "-") {
            fail("expected value");
            return JsonValue();
        }
        if (isInt && tok[0] != '-') {
            std::uint64_t v = 0;
            auto [p, ec] =
                std::from_chars(tok.data(), tok.data() + tok.size(), v);
            if (ec == std::errc() && p == tok.data() + tok.size())
                return JsonValue(v);
        }
        double d = 0.0;
        auto [p, ec] =
            std::from_chars(tok.data(), tok.data() + tok.size(), d);
        if (ec != std::errc() || p != tok.data() + tok.size()) {
            fail("bad number");
            return JsonValue();
        }
        return JsonValue(d);
    }

    JsonValue
    parseArray()
    {
        JsonValue out = JsonValue::array();
        consume('[');
        skipWs();
        if (consume(']'))
            return out;
        for (;;) {
            skipWs();
            out.push(parseValue());
            if (failed)
                return out;
            skipWs();
            if (consume(']'))
                return out;
            if (!consume(',')) {
                fail("expected ',' or ']'");
                return out;
            }
        }
    }

    JsonValue
    parseObject()
    {
        JsonValue out = JsonValue::object();
        consume('{');
        skipWs();
        if (consume('}'))
            return out;
        for (;;) {
            skipWs();
            std::string key = parseString();
            if (failed)
                return out;
            skipWs();
            if (!consume(':')) {
                fail("expected ':'");
                return out;
            }
            skipWs();
            out.set(std::move(key), parseValue());
            if (failed)
                return out;
            skipWs();
            if (consume('}'))
                return out;
            if (!consume(',')) {
                fail("expected ',' or '}'");
                return out;
            }
        }
    }

    std::string_view text;
    std::string *err;
    std::size_t pos = 0;
    bool failed = false;
};

} // anonymous namespace

JsonValue
parseJson(std::string_view text, std::string *err)
{
    Parser p(text, err);
    JsonValue v = p.parse();
    if (!p.ok())
        return JsonValue();
    return v;
}

} // namespace sim
} // namespace lvpsim
