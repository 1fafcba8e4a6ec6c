/**
 * @file
 * Dependency-free JSON writer for machine-readable output.
 *
 * JsonWriter emits syntactically valid, deterministically formatted
 * JSON to an ostream:
 *  - strings are escaped per RFC 8259 (quotes, backslashes, control
 *    characters as \uXXXX; everything else passes through byte-wise,
 *    so UTF-8 payloads survive);
 *  - doubles use the shortest round-trip representation
 *    (std::to_chars), which is bit-deterministic for equal inputs and
 *    locale-independent; non-finite values become null (JSON has no
 *    NaN/Inf);
 *  - keys appear exactly in call order, so callers that emit keys in
 *    a fixed order get byte-identical documents for equal data.
 *
 * The writer tracks the open object/array stack and inserts commas
 * and indentation; misuse (value without a key inside an object,
 * unbalanced end*) panics.
 */

#ifndef BFGTS_SIM_JSON_H
#define BFGTS_SIM_JSON_H

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace sim {

/** Escape @p s as a JSON string literal, including the quotes. */
std::string jsonEscape(const std::string &s);

/** Shortest round-trip decimal form of @p v ("null" if not finite). */
std::string jsonNumber(double v);

/**
 * Build identifier baked in at configure time (`git describe`), for
 * stamping machine-readable output. "unknown" outside a git checkout.
 */
const char *buildGitDescribe();

/**
 * True when buildGitDescribe() carries the `-dirty` suffix, i.e. the
 * binary was configured from a tree with uncommitted changes. Cache
 * keys that embed the describe string cannot distinguish successive
 * dirty states, so callers warn before reusing cached results.
 */
bool buildGitDirty();

/** Streaming JSON writer; see file comment. */
class JsonWriter
{
  public:
    /**
     * @param os      Destination stream.
     * @param indent  Spaces per nesting level; 0 = compact one-line
     *                output (used for JSONL records).
     */
    explicit JsonWriter(std::ostream &os, int indent = 2);

    // ---- structure ---------------------------------------------------
    /** Open the root object or an array-element object. */
    void beginObject();
    /** Open an object-valued member @p key. */
    void beginObject(const std::string &key);
    void endObject();

    /** Open the root array or an array-element array. */
    void beginArray();
    /** Open an array-valued member @p key. */
    void beginArray(const std::string &key);
    void endArray();

    // ---- values ------------------------------------------------------
    void value(const std::string &v);
    void value(const char *v);
    void value(double v);
    void value(std::uint64_t v);
    void value(std::int64_t v);
    void value(int v);
    void value(bool v);
    void valueNull();

    // ---- key/value members -------------------------------------------
    void kv(const std::string &key, const std::string &v);
    void kv(const std::string &key, const char *v);
    void kv(const std::string &key, double v);
    void kv(const std::string &key, std::uint64_t v);
    void kv(const std::string &key, std::int64_t v);
    void kv(const std::string &key, int v);
    void kv(const std::string &key, bool v);

    /** Emit the member key; the next value() becomes its value. */
    void key(const std::string &k);

    /** True once the root value is complete (all scopes closed). */
    bool done() const;

  private:
    enum class Scope { Object, Array };

    struct Level {
        Scope scope;
        bool hasItems = false;
    };

    /** Comma/newline/indent before an item; panics on misuse. */
    void preItem(bool is_key);
    void newlineIndent();
    void raw(const std::string &text);

    std::ostream &os_;
    int indent_;
    std::vector<Level> stack_;
    bool keyPending_ = false;
    bool rootDone_ = false;
};

} // namespace sim

#endif // BFGTS_SIM_JSON_H
