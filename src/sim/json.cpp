#include "json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <string_view>

#include "sim/logging.h"

namespace sim {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out.push_back('"');
    for (unsigned char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out.push_back(static_cast<char>(c));
            }
        }
    }
    out.push_back('"');
    return out;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    const auto result =
        std::to_chars(buf, buf + sizeof(buf), v);
    sim_assert(result.ec == std::errc());
    // to_chars may emit "1e+20"-style exponents, which JSON accepts.
    return std::string(buf, result.ptr);
}

const char *
buildGitDescribe()
{
#ifdef BFGTS_GIT_DESCRIBE
    return BFGTS_GIT_DESCRIBE;
#else
    return "unknown";
#endif
}

bool
buildGitDirty()
{
    return std::string_view(buildGitDescribe()).find("-dirty")
           != std::string_view::npos;
}

JsonWriter::JsonWriter(std::ostream &os, int indent)
    : os_(os), indent_(indent)
{
}

bool
JsonWriter::done() const
{
    return rootDone_;
}

void
JsonWriter::newlineIndent()
{
    if (indent_ <= 0)
        return;
    os_ << '\n';
    for (std::size_t i = 0; i < stack_.size(); ++i)
        for (int s = 0; s < indent_; ++s)
            os_ << ' ';
}

void
JsonWriter::raw(const std::string &text)
{
    os_ << text;
}

void
JsonWriter::preItem(bool is_key)
{
    sim_assert(!rootDone_, "JsonWriter: root value already complete");
    if (stack_.empty()) {
        sim_assert(!keyPending_);
        return; // root value
    }
    Level &top = stack_.back();
    if (keyPending_) {
        // A value following its key: no comma, key already emitted.
        sim_assert(!is_key,
                   "JsonWriter: key() while a key is pending");
        keyPending_ = false;
        return;
    }
    if (top.scope == Scope::Object)
        sim_assert(is_key,
                   "JsonWriter: object members need key() or kv()");
    if (top.hasItems)
        os_ << ',';
    top.hasItems = true;
    newlineIndent();
}

void
JsonWriter::key(const std::string &k)
{
    sim_assert(!stack_.empty()
                   && stack_.back().scope == Scope::Object,
               "JsonWriter: key() outside an object");
    preItem(true);
    raw(jsonEscape(k));
    os_ << (indent_ > 0 ? ": " : ":");
    keyPending_ = true;
}

void
JsonWriter::beginObject()
{
    preItem(false);
    os_ << '{';
    stack_.push_back({Scope::Object});
}

void
JsonWriter::beginObject(const std::string &k)
{
    key(k);
    beginObject();
}

void
JsonWriter::endObject()
{
    sim_assert(!stack_.empty()
                   && stack_.back().scope == Scope::Object
                   && !keyPending_,
               "JsonWriter: unbalanced endObject()");
    const bool had_items = stack_.back().hasItems;
    stack_.pop_back();
    if (had_items)
        newlineIndent();
    os_ << '}';
    if (stack_.empty()) {
        rootDone_ = true;
        if (indent_ > 0)
            os_ << '\n';
    }
}

void
JsonWriter::beginArray()
{
    preItem(false);
    os_ << '[';
    stack_.push_back({Scope::Array});
}

void
JsonWriter::beginArray(const std::string &k)
{
    key(k);
    beginArray();
}

void
JsonWriter::endArray()
{
    sim_assert(!stack_.empty()
                   && stack_.back().scope == Scope::Array
                   && !keyPending_,
               "JsonWriter: unbalanced endArray()");
    const bool had_items = stack_.back().hasItems;
    stack_.pop_back();
    if (had_items)
        newlineIndent();
    os_ << ']';
    if (stack_.empty()) {
        rootDone_ = true;
        if (indent_ > 0)
            os_ << '\n';
    }
}

void
JsonWriter::value(const std::string &v)
{
    preItem(false);
    raw(jsonEscape(v));
}

void
JsonWriter::value(const char *v)
{
    value(std::string(v));
}

void
JsonWriter::value(double v)
{
    preItem(false);
    raw(jsonNumber(v));
}

void
JsonWriter::value(std::uint64_t v)
{
    preItem(false);
    os_ << v;
}

void
JsonWriter::value(std::int64_t v)
{
    preItem(false);
    os_ << v;
}

void
JsonWriter::value(int v)
{
    value(static_cast<std::int64_t>(v));
}

void
JsonWriter::value(bool v)
{
    preItem(false);
    os_ << (v ? "true" : "false");
}

void
JsonWriter::valueNull()
{
    preItem(false);
    os_ << "null";
}

void
JsonWriter::kv(const std::string &k, const std::string &v)
{
    key(k);
    value(v);
}

void
JsonWriter::kv(const std::string &k, const char *v)
{
    key(k);
    value(v);
}

void
JsonWriter::kv(const std::string &k, double v)
{
    key(k);
    value(v);
}

void
JsonWriter::kv(const std::string &k, std::uint64_t v)
{
    key(k);
    value(v);
}

void
JsonWriter::kv(const std::string &k, std::int64_t v)
{
    key(k);
    value(v);
}

void
JsonWriter::kv(const std::string &k, int v)
{
    key(k);
    value(v);
}

void
JsonWriter::kv(const std::string &k, bool v)
{
    key(k);
    value(v);
}

} // namespace sim
