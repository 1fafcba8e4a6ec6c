#include "stats.h"

#include <cstdio>
#include <iomanip>

#include "sim/json.h"
#include "sim/logging.h"

namespace sim {

double
Histogram::bucketLo(int i) const
{
    sim_assert(i >= 0 && i < numBuckets());
    if (scale_ == Scale::Linear) {
        const double width =
            (hi_ - lo_) / static_cast<double>(numBuckets());
        return lo_ + width * static_cast<double>(i);
    }
    return i == 0 ? 0.0 : std::ldexp(1.0, i - 1);
}

double
Histogram::bucketHi(int i) const
{
    sim_assert(i >= 0 && i < numBuckets());
    if (scale_ == Scale::Linear) {
        // Out-of-range samples clamp into the edge buckets, but the
        // nominal edges stay [lo, hi): only log2's last bucket is
        // genuinely unbounded.
        const double width =
            (hi_ - lo_) / static_cast<double>(numBuckets());
        return i == numBuckets() - 1
                   ? hi_
                   : lo_ + width * static_cast<double>(i + 1);
    }
    if (i == numBuckets() - 1)
        return std::numeric_limits<double>::infinity();
    return std::ldexp(1.0, i);
}

int
Histogram::bucketOf(double v) const
{
    const int last = numBuckets() - 1;
    if (scale_ == Scale::Linear) {
        if (v < lo_)
            return 0;
        const double width =
            (hi_ - lo_) / static_cast<double>(numBuckets());
        const double idx = (v - lo_) / width;
        if (idx >= static_cast<double>(last))
            return last;
        return static_cast<int>(idx);
    }
    if (v < 1.0)
        return 0;
    // ilogb(v) == floor(log2(v)) exactly for finite positive v.
    const int idx = 1 + std::ilogb(v);
    return std::min(idx, last);
}

void
Histogram::writeJson(JsonWriter &jw) const
{
    jw.kv("count", count());
    jw.kv("mean", mean());
    jw.kv("scale", scale_ == Scale::Log2 ? "log2" : "linear");
    jw.beginArray("buckets");
    for (int i = 0; i < numBuckets(); ++i) {
        if (bucketCount(i) == 0)
            continue;
        jw.beginObject();
        jw.kv("lo", bucketLo(i));
        // +inf is not valid JSON; the overflow bucket's upper edge is
        // emitted as null by jsonNumber.
        jw.kv("hi", bucketHi(i));
        jw.kv("n", bucketCount(i));
        jw.endObject();
    }
    jw.endArray();
}

void
StatGroup::dump(std::ostream &os) const
{
    for (const auto &[stat_name, c] : counters_) {
        os << name_ << '.' << stat_name << ' ' << c->value() << '\n';
    }
    for (const auto &[stat_name, a] : accumulators_) {
        os << name_ << '.' << stat_name << ".count " << a->count()
           << '\n';
        os << name_ << '.' << stat_name << ".mean "
           << fmtDouble(a->mean(), 4) << '\n';
        os << name_ << '.' << stat_name << ".stddev "
           << fmtDouble(a->stddev(), 4) << '\n';
    }
    for (const auto &[stat_name, h] : histograms_) {
        os << name_ << '.' << stat_name << ".count " << h->count()
           << '\n';
        os << name_ << '.' << stat_name << ".mean "
           << fmtDouble(h->mean(), 4) << '\n';
        for (int i = 0; i < h->numBuckets(); ++i) {
            if (h->bucketCount(i) == 0)
                continue;
            os << name_ << '.' << stat_name << ".bucket["
               << jsonNumber(h->bucketLo(i)) << ','
               << jsonNumber(h->bucketHi(i)) << ") "
               << h->bucketCount(i) << '\n';
        }
    }
    for (const auto &[stat_name, v] : scalars_) {
        os << name_ << '.' << stat_name << ' ' << jsonNumber(v)
           << '\n';
    }
}

void
StatGroup::dumpJson(JsonWriter &jw) const
{
    jw.beginObject(name_);
    for (const auto &[stat_name, c] : counters_)
        jw.kv(stat_name, c->value());
    for (const auto &[stat_name, a] : accumulators_) {
        jw.beginObject(stat_name);
        jw.kv("count", a->count());
        jw.kv("sum", a->sum());
        jw.kv("min", a->min());
        jw.kv("max", a->max());
        jw.kv("mean", a->mean());
        jw.kv("stddev", a->stddev());
        jw.endObject();
    }
    for (const auto &[stat_name, h] : histograms_) {
        jw.beginObject(stat_name);
        h->writeJson(jw);
        jw.endObject();
    }
    for (const auto &[stat_name, v] : scalars_)
        jw.kv(stat_name, v);
    jw.endObject();
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    sim_assert(cells.size() == headers_.size());
    rows_.push_back(std::move(cells));
}

void
TextTable::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t i = 0; i < headers_.size(); ++i)
        widths[i] = headers_[i].size();
    for (const auto &row : rows_)
        for (std::size_t i = 0; i < row.size(); ++i)
            widths[i] = std::max(widths[i], row[i].size());

    auto print_row = [&](const std::vector<std::string> &row) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            os << (i == 0 ? "" : "  ");
            // Left-align the row label, right-align data columns.
            if (i == 0)
                os << std::left;
            else
                os << std::right;
            os << std::setw(static_cast<int>(widths[i])) << row[i];
        }
        os << '\n';
    };

    print_row(headers_);
    std::size_t total = 0;
    for (std::size_t i = 0; i < widths.size(); ++i)
        total += widths[i] + (i == 0 ? 0 : 2);
    os << std::string(total, '-') << '\n';
    for (const auto &row : rows_)
        print_row(row);
}

std::string
fmtDouble(double v, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
    return buf;
}

std::string
fmtPercent(double ratio, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f%%", digits, ratio * 100.0);
    return buf;
}

} // namespace sim
