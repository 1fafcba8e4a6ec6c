/**
 * @file
 * Dependency-free JSON reader, the dual of json.h's JsonWriter.
 *
 * bench/scaling reads a run's stats dump (dumpStatsJson) with it, and
 * bench/e2e reads its golden digests, BENCHMARK.json and each cell's
 * stats dump. Two choices keep what it reads exactly what JsonWriter
 * wrote:
 *
 *  - numbers keep their raw source lexeme (no double round trip), so
 *    a 64-bit counter reads back exactly through asU64();
 *  - object members preserve document order (vector of pairs, not a
 *    map), duplicates included.
 *
 * String values are decoded (escapes resolved); jsonEscape() of the
 * decoded string gives back the bytes JsonWriter wrote, since both
 * sides use the same canonical escape set.
 *
 * The parser is strict RFC 8259: no comments, no trailing commas, no
 * trailing garbage after the root value. parseJson() never throws --
 * failures come back as false plus a position-stamped error message.
 */

#ifndef BFGTS_SIM_JSON_PARSE_H
#define BFGTS_SIM_JSON_PARSE_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace sim {

/** One parsed JSON value; a tree of these represents the document. */
struct JsonValue {
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    /** Kind::Bool payload. */
    bool boolean = false;
    /**
     * Kind::String: the decoded string (escapes resolved).
     * Kind::Number: the raw source lexeme, e.g. "1e+20" or "0.25".
     */
    std::string text;
    /** Kind::Array elements in document order. */
    std::vector<JsonValue> items;
    /** Kind::Object members in document order (duplicates kept). */
    std::vector<std::pair<std::string, JsonValue>> members;

    /** First member named @p key, or nullptr (objects only). */
    const JsonValue *find(const std::string &key) const;

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /**
     * The number lexeme as an unsigned integer. Returns false (and
     * leaves @p out untouched) unless this is a Number whose lexeme is
     * a plain non-negative decimal integer that fits in 64 bits.
     */
    bool asU64(std::uint64_t *out) const;
};

/**
 * Parse @p text as one JSON document into @p out.
 *
 * On failure returns false and, when @p error is non-null, stores a
 * byte-offset-stamped message. @p out is left in an unspecified but
 * valid state on failure.
 */
bool parseJson(const std::string &text, JsonValue *out,
               std::string *error);

} // namespace sim

#endif // BFGTS_SIM_JSON_PARSE_H
