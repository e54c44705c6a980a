/**
 * @file
 * Lightweight statistics registry in the spirit of gem5's stats package.
 *
 * Model components register named scalars/counters, log-bucketed
 * histograms and derived formulas in a StatGroup; benches and tests
 * read them back, dump them as text, or serialize them to a versioned
 * JSON document (see dumpJson).  Groups nest: child("bank0") creates a
 * sub-group rendered as a nested JSON object and a dotted prefix in the
 * text dump.  No global state: each simulated system owns its own root
 * group.
 *
 * A group is also the one declaration of its live values: the metrics
 * sampler (telemetry/metrics.hh) watches groups and reads every stat
 * and formula of them as a time series (see forEachValue).
 */

#ifndef PRIME_COMMON_STATS_HH
#define PRIME_COMMON_STATS_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/mutex.hh"
#include "common/thread_annotations.hh"
#include "common/telemetry/histogram.hh"

namespace prime {

/** How a live value's samples relate over time. */
enum class MetricKind
{
    Gauge,    ///< instantaneous value (queue depth, worker state)
    Counter,  ///< monotonically accumulating total (items, bytes)
};

/**
 * A named accumulating statistic (count + sum, enough for mean).
 *
 * Concurrency: a Stat has at most one writer at a time (gem5-style --
 * concurrent updaters use per-worker shards merged post-join), but the
 * metrics sampler thread may *read* any stat of a watched group
 * mid-run.  Every field access therefore goes through a relaxed
 * std::atomic_ref: the writer's read-modify-write stays a plain
 * load+store pair (exact, since it is the only writer) compiled to the
 * same movs as before, while the sampler's loads are race-free
 * torn-value-free snapshots.  Relaxed
 * ordering is sufficient -- a sampled value needs no happens-before
 * with other stats, only freedom from data races.
 */
class Stat
{
  public:
    Stat() = default;

    /** Add one sample. */
    void
    sample(double value)
    {
        rstore(sum_, rload(sum_) + value);
        rstore(count_, rload(count_) + 1);
        const std::uint64_t samples = rload(samples_) + 1;
        rstore(samples_, samples);
        if (samples == 1) {
            rstore(min_, value);
            rstore(max_, value);
        } else {
            if (value < rload(min_))
                rstore(min_, value);
            if (value > rload(max_))
                rstore(max_, value);
        }
    }

    /** Add to the running total without counting a sample (counter use). */
    void
    add(double value)
    {
        rstore(sum_, rload(sum_) + value);
    }

    /** Increment a pure event counter. */
    void
    increment(std::uint64_t n = 1)
    {
        rstore(count_, rload(count_) + n);
    }

    /** Reset to empty. */
    void
    reset()
    {
        rstore(sum_, 0.0);
        rstore(count_, std::uint64_t{0});
        rstore(samples_, std::uint64_t{0});
        rstore(min_, 0.0);
        rstore(max_, 0.0);
    }

    double sum() const { return rload(sum_); }
    std::uint64_t count() const { return rload(count_); }
    double
    mean() const
    {
        const std::uint64_t count = rload(count_);
        return count ? rload(sum_) / count : 0.0;
    }

    /**
     * Whether min()/max() are meaningful: only sample() records
     * extrema, so an add-/increment-only stat has none (the dump
     * renders '-', the JSON serializer null).
     */
    bool hasSamples() const { return rload(samples_) > 0; }
    double min() const { return rload(min_); }
    double max() const { return rload(max_); }

  private:
    // atomic_ref disallows const referents, but these helpers only ever
    // load through the const path, so the const_cast is benign.
    template <typename T>
    static T
    rload(const T &field)
    {
        return std::atomic_ref<T>(const_cast<T &>(field))
            .load(std::memory_order_relaxed);
    }

    template <typename T>
    static void
    rstore(T &field, T value)
    {
        std::atomic_ref<T>(field).store(value,
                                        std::memory_order_relaxed);
    }

    double sum_ = 0.0;
    std::uint64_t count_ = 0;
    std::uint64_t samples_ = 0;  ///< sample() calls (extrema validity)
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * A namespace of stats addressed by dotted names
 * ("bank0.ff.mvm_passes").  Lookup creates on demand so components can
 * stay decoupled from whoever reads the numbers.  Besides plain Stats a
 * group holds histograms (latency distributions with quantiles),
 * formulas (values derived at read time, e.g. a hit rate), and child
 * groups.  Non-copyable: children are owned and formulas may capture
 * pointers to sibling stats (std::map nodes are address-stable).
 *
 * Concurrency: one mutex per group guards its maps, so creating an
 * entry (a get() of a new name, child(), formula() replacing a
 * closure) is safe while the metrics sampler walks the group on
 * another thread.  Writes through a returned Stat& take no lock (the
 * Stat contract above).  Readers that evaluate formulas -- dump(),
 * dumpJson(), evalFormula(), forEachValue() -- hold the group mutex
 * while the closure runs, so a formula must be safe to call from any
 * thread and must not call back into its own group; it may take a leaf
 * lock (lock order: registry -> group -> memory shard).
 */
class StatGroup
{
  public:
    /** Version stamp of the JSON serialization format. */
    static constexpr int kJsonVersion = 1;

    StatGroup() = default;
    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /** Get or create a stat by name. */
    Stat &get(const std::string &name);

    /** Look up an existing stat; nullptr if absent. */
    const Stat *find(const std::string &name) const;

    /** Get or create a histogram by name. */
    telemetry::Histogram &histogram(const std::string &name);

    /** Look up an existing histogram; nullptr if absent. */
    const telemetry::Histogram *findHistogram(const std::string &name) const;

    /**
     * Register (or replace) a derived stat evaluated at read time; the
     * sampler exports it as a series of @p kind.  The callable must
     * stay valid for the group's lifetime and be callable from any
     * thread (see the class contract); capture pointers to stats of
     * this group, atomics or leaf-locked state.
     */
    void formula(const std::string &name, std::function<double()> fn,
                 MetricKind kind = MetricKind::Gauge);

    /** Evaluate a formula into @p out; false if absent. */
    bool evalFormula(const std::string &name, double &out) const;

    /** Get or create a child group. */
    StatGroup &child(const std::string &name);

    /** Look up an existing child group; nullptr if absent. */
    const StatGroup *findChild(const std::string &name) const;

    /** All scalar-stat names in sorted order. */
    std::vector<std::string> names() const;

    /** Reset every stat and histogram, recursing into children. */
    void resetAll();

    /**
     * Human-readable dump: one stat per line grouped by dotted prefix,
     * integral values printed without a fraction, '-' for the extrema
     * of sample-less stats; histograms with count/mean/p50/p95/p99;
     * formulas evaluated; children with a dotted prefix.
     */
    void dump(std::ostream &os) const;

    /**
     * Versioned JSON document: {"version":1,"stats":{...}}.  Scalars
     * serialize count/sum/mean and min/max (null without samples);
     * histograms add p50/p95/p99; formulas their value; child groups
     * nest as objects.
     */
    void dumpJson(std::ostream &os) const;

    /** The group's JSON object alone (no version envelope). */
    void dumpJsonObject(std::ostream &os) const;

    /** What forEachValue hands its visitor per value. */
    using ValueVisitor =
        std::function<void(const std::string &name, MetricKind kind,
                           double value)>;

    /**
     * The metrics sampler's walk: visit every Stat as a Counter --
     * its count(), or its sum() while the count is 0 (an add()-only
     * stat) -- and every formula with its declared kind, children
     * dotted-prefixed as in dump().  Histograms are not visited.  Each
     * group's mutex is held while its entries are visited.
     */
    void forEachValue(const ValueVisitor &visit) const;

  private:
    struct Formula
    {
        std::function<double()> fn;
        MetricKind kind = MetricKind::Gauge;
    };

    void dumpPrefixed(std::ostream &os, const std::string &prefix) const;
    void forEachValuePrefixed(const std::string &prefix,
                              const ValueVisitor &visit) const;

    /** Guards the maps (not the values: see the class contract). */
    mutable Mutex mutex_;
    std::map<std::string, Stat> stats_ PRIME_GUARDED_BY(mutex_);
    std::map<std::string, telemetry::Histogram> histograms_
        PRIME_GUARDED_BY(mutex_);
    std::map<std::string, Formula> formulas_ PRIME_GUARDED_BY(mutex_);
    std::map<std::string, std::unique_ptr<StatGroup>> children_
        PRIME_GUARDED_BY(mutex_);
};

/**
 * Serialize several independent groups into one versioned document:
 * {"version":1,"stats":{"<name>":{...},...}}.  Used where a system is
 * built from parts owning their own groups (PrimeSystem + MainMemory).
 */
void writeStatsDocument(
    std::ostream &os,
    const std::vector<std::pair<std::string, const StatGroup *>> &groups);

} // namespace prime

#endif // PRIME_COMMON_STATS_HH
