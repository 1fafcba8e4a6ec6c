/**
 * @file
 * Lightweight statistics framework.
 *
 * Models a small slice of gem5's stats package: named statistics are
 * registered into a StatGroup and can be dumped as a formatted table
 * or as JSON (docs/observability.md documents both formats). Four
 * kinds cover everything the simulator needs:
 *  - Counter: monotonically increasing event count.
 *  - Accumulator: running sum/min/max/mean/stddev of samples
 *    (Welford's online algorithm, stable for large means).
 *  - Histogram: log2- or linear-bucketed sample distribution.
 *  - Scalar: a derived value computed by the caller at dump time.
 */

#ifndef BFGTS_SIM_STATS_H
#define BFGTS_SIM_STATS_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

namespace sim {

class JsonWriter;

/** A named, monotonically increasing event counter. */
class Counter
{
  public:
    Counter() = default;

    /** Increment by @p n (default 1). */
    void inc(std::uint64_t n = 1) { value_ += n; }

    /** Current value. */
    std::uint64_t value() const { return value_; }

    /** Reset to zero. */
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Running sample statistics: count, sum, min, max, mean, stddev.
 *
 * Variance uses Welford's online algorithm rather than the naive
 * sum-of-squares form: cycle samples routinely have means around 1e9
 * with single-digit spread, where (sumSq - sum^2/n) cancels
 * catastrophically in doubles and reports 0 (or garbage) stddev.
 */
class Accumulator
{
  public:
    Accumulator() = default;

    /** Record one sample. */
    void
    sample(double x)
    {
        ++count_;
        sum_ += x;
        const double delta = x - mean_;
        mean_ += delta / static_cast<double>(count_);
        m2_ += delta * (x - mean_);
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

    /** Sample mean (0 if empty). */
    double mean() const { return count_ ? mean_ : 0.0; }

    /** Population standard deviation (0 if fewer than 2 samples). */
    double
    stddev() const
    {
        if (count_ < 2)
            return 0.0;
        const double var = m2_ / static_cast<double>(count_);
        return var > 0.0 ? std::sqrt(var) : 0.0;
    }

    /** Reset to empty. */
    void
    reset()
    {
        count_ = 0;
        sum_ = mean_ = m2_ = 0.0;
        min_ = std::numeric_limits<double>::infinity();
        max_ = -std::numeric_limits<double>::infinity();
    }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Bucketed sample distribution.
 *
 * Two bucketing schemes:
 *  - Log2 (cycle counts, footprints): bucket 0 holds samples < 1,
 *    bucket i holds [2^(i-1), 2^i), and the last bucket absorbs
 *    everything at or above its lower edge.
 *  - Linear (similarities, rates): @p numBuckets equal-width buckets
 *    spanning [lo, hi); samples below lo land in bucket 0, samples at
 *    or above hi in the last bucket.
 *
 * Bucket edges are fixed at construction, so two histograms built
 * from the same config and fed the same samples are bit-identical.
 */
class Histogram
{
  public:
    enum class Scale { Log2, Linear };

    /** Default: log2 buckets covering [0, 2^32) plus overflow. */
    Histogram() : Histogram(Scale::Log2, 0.0, 0.0, 34) {}

    /** Log2 histogram with @p num_buckets buckets (>= 2). */
    static Histogram
    makeLog2(int num_buckets = 34)
    {
        return Histogram(Scale::Log2, 0.0, 0.0, num_buckets);
    }

    /** Linear histogram over [lo, hi) with @p num_buckets buckets. */
    static Histogram
    makeLinear(double lo, double hi, int num_buckets)
    {
        return Histogram(Scale::Linear, lo, hi, num_buckets);
    }

    /** Record @p n occurrences of value @p v. */
    void
    sample(double v, std::uint64_t n = 1)
    {
        count_ += n;
        sum_ += v * static_cast<double>(n);
        counts_[static_cast<std::size_t>(bucketOf(v))] += n;
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }

    /** Sample mean (0 if empty). */
    double
    mean() const
    {
        return count_ ? sum_ / static_cast<double>(count_) : 0.0;
    }

    int numBuckets() const { return static_cast<int>(counts_.size()); }

    std::uint64_t
    bucketCount(int i) const
    {
        return counts_[static_cast<std::size_t>(i)];
    }

    /** Inclusive lower edge of bucket @p i. */
    double bucketLo(int i) const;

    /** Exclusive upper edge of bucket @p i (+inf for the last). */
    double bucketHi(int i) const;

    /** Bucket index a value of @p v falls into. */
    int bucketOf(double v) const;

    /**
     * Write the histogram's members -- count, mean, scale and the
     * non-empty buckets -- into the JSON object open in @p jw.
     */
    void writeJson(JsonWriter &jw) const;

    /** Reset to empty (bucket geometry is retained). */
    void
    reset()
    {
        count_ = 0;
        sum_ = 0.0;
        std::fill(counts_.begin(), counts_.end(), 0);
    }

  private:
    Histogram(Scale scale, double lo, double hi, int num_buckets)
        : scale_(scale), lo_(lo), hi_(hi),
          counts_(static_cast<std::size_t>(std::max(2, num_buckets)),
                  0)
    {
    }

    Scale scale_;
    double lo_;
    double hi_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
};

/**
 * A named collection of statistics for dumping.
 *
 * Values are captured at registration via pointers; dump() reads the
 * live values, so a group can be dumped repeatedly during a run.
 * Scalars are the exception: they are derived values captured by
 * value when registered (groups are typically rebuilt per dump).
 *
 * Both output formats emit stats in registration order (counters,
 * then accumulators, histograms, scalars), so equal data always
 * produces byte-identical dumps.
 */
class StatGroup
{
  public:
    /** @param name Prefix printed before every stat in this group. */
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    /** Register a counter under @p stat_name. */
    void
    addCounter(const std::string &stat_name, const Counter *c)
    {
        counters_.push_back({stat_name, c});
    }

    /** Register an accumulator under @p stat_name. */
    void
    addAccumulator(const std::string &stat_name, const Accumulator *a)
    {
        accumulators_.push_back({stat_name, a});
    }

    /** Register a histogram under @p stat_name. */
    void
    addHistogram(const std::string &stat_name, const Histogram *h)
    {
        histograms_.push_back({stat_name, h});
    }

    /** Register a derived value, captured now, under @p stat_name. */
    void
    addScalar(const std::string &stat_name, double value)
    {
        scalars_.push_back({stat_name, value});
    }

    /** Write all registered stats to @p os as "group.stat value". */
    void dump(std::ostream &os) const;

    /** Emit this group as one `"name": {...}` member of @p jw. */
    void dumpJson(JsonWriter &jw) const;

    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::vector<std::pair<std::string, const Counter *>> counters_;
    std::vector<std::pair<std::string, const Accumulator *>>
        accumulators_;
    std::vector<std::pair<std::string, const Histogram *>>
        histograms_;
    std::vector<std::pair<std::string, double>> scalars_;
};

/**
 * Fixed-width text table writer used by benches to print paper-style
 * tables (rows = benchmarks, columns = contention managers, etc.).
 */
class TextTable
{
  public:
    /** @param headers Column headers; first column is the row label. */
    explicit TextTable(std::vector<std::string> headers)
        : headers_(std::move(headers))
    {
    }

    /** Append one row; must have the same arity as the headers. */
    void addRow(std::vector<std::string> cells);

    /** Render the table with aligned columns. */
    void print(std::ostream &os) const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with @p digits decimal places. */
std::string fmtDouble(double v, int digits = 2);

/** Format a ratio as a percentage string, e.g. "73.5%". */
std::string fmtPercent(double ratio, int digits = 1);

} // namespace sim

#endif // BFGTS_SIM_STATS_H
