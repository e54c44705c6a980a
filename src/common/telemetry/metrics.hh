/**
 * @file
 * Time-series metrics: a registry that watches StatGroups and a
 * background sampler thread that periodically snapshots every value of
 * every watched group into an in-memory ring of timestamped snapshots.
 *
 * Where the stats package (common/stats.hh) accumulates totals and the
 * trace session records individual spans, the metrics registry answers
 * "what did this look like *while* it ran": queue depths, worker
 * states, per-bank memory backlog, counter rates -- the continuous
 * utilization signals a serving scheduler or a bottleneck report needs.
 * The StatGroup entry is the one declaration of a live value: a tick
 * reads each Stat as a counter and each formula as a series of its
 * declared kind (StatGroup::forEachValue).  Snapshots export as JSONL
 * time-series (one JSON object per line, for tools/metrics_report.py)
 * and as Prometheus-style text exposition.
 *
 * Threading contract:
 *  - A tick holds the registry mutex, then each watched group's mutex
 *    while it walks that group, and formulas may take a leaf lock (the
 *    MainMemory occupancy formulas need none: they read relaxed
 *    atomics): the lock order is registry -> group -> leaf.  Formulas are
 *    therefore sampler-safe by the StatGroup contract: atomics,
 *    relaxed Stat snapshots or a leaf lock, never a call back into the
 *    registry or their own group (prime_lint rule `sampler-lock` flags
 *    mutex acquisition inside formula closures).
 *  - unwatch() takes the registry mutex, so its return guarantees no
 *    in-flight or future tick touches the group: the group (and what
 *    its formulas capture) may then be destroyed.  The guarded members
 *    are machine-checked: PRIME_GUARDED_BY(mutex_) under the clang-tsa
 *    preset, not just this prose.
 *  - enable()/disable() are atomic; a disabled registry refuses to
 *    sample.  Nothing on a simulator hot path touches the registry at
 *    all -- sampling cost lives on the sampler thread.
 *
 * Naming convention: dotted lowercase group.metric names, the stats
 * convention (tools/prime_lint.py enforces it).  The Prometheus
 * exposition sanitizes dots to underscores and prefixes "prime_".
 */

#ifndef PRIME_COMMON_TELEMETRY_METRICS_HH
#define PRIME_COMMON_TELEMETRY_METRICS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.hh"
#include "common/stats.hh"
#include "common/thread_annotations.hh"

namespace prime::telemetry {

/** Registry of watched StatGroups + snapshot ring + sampler thread. */
class MetricsRegistry
{
  public:
    /** One sampled value inside a snapshot. */
    struct Value
    {
        std::string name;
        MetricKind kind = MetricKind::Gauge;
        double value = 0.0;
    };

    /** One timestamped tick over every group watched at the time. */
    struct Snapshot
    {
        std::int64_t tsNs = 0;  ///< ns since the registry epoch
        std::vector<Value> values;
    };

    /** Per-metric aggregate over the recorded snapshots. */
    struct SeriesSummary
    {
        std::string name;
        MetricKind kind = MetricKind::Gauge;
        std::size_t samples = 0;
        double min = 0.0;
        double max = 0.0;
        double mean = 0.0;
        double last = 0.0;
    };

    /** A registry buffering up to @p snapshot_capacity snapshots
     *  (oldest dropped first; see droppedSnapshots). */
    explicit MetricsRegistry(std::size_t snapshot_capacity = 4096);
    ~MetricsRegistry();

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** Start accepting samples (timestamps count from enable time). */
    void enable();
    /** Stop accepting samples (snapshots are kept for export). */
    void disable();
    bool enabled() const
    {
        return enabled_.load(std::memory_order_acquire);
    }

    /**
     * Sample every value of @p group (and its children) from the next
     * tick on; watching a watched group again is a no-op.  The group
     * must outlive the watch: unwatch it before destroying it, unless
     * no tick runs again (the sampler stopped and sampleOnce unused).
     */
    void watch(const StatGroup &group);

    /**
     * Stop sampling @p group.  On return no sampler tick (running or
     * future) touches it again, so it may be destroyed.
     */
    void unwatch(const StatGroup &group);

    /**
     * Spawn the sampler thread: one snapshot immediately, then one
     * every @p interval_ms until stopSampler().  No-op when already
     * running; a disabled registry spawns nothing.
     */
    void startSampler(int interval_ms);

    /**
     * Join the sampler thread and take one final snapshot (so a run's
     * end state is always recorded).  No-op when not running.
     */
    void stopSampler();

    bool samplerRunning() const;

    /** Take one snapshot now; false when disabled. */
    bool sampleOnce();

    std::size_t snapshotCount() const;
    /** Snapshots evicted because the ring was full. */
    std::uint64_t droppedSnapshots() const;

    /** Drop recorded snapshots (watched groups stay watched). */
    void clear();

    /**
     * JSONL time-series: one {"ts_ns":N,"metrics":{...}} object per
     * line, snapshots in recording order.
     */
    void writeJsonl(std::ostream &os) const;

    /**
     * Prometheus-style text exposition of the latest snapshot:
     * "# TYPE prime_<name> gauge|counter" + "prime_<name> <value>"
     * per metric, dots sanitized to underscores.
     */
    void writePrometheus(std::ostream &os) const;

    /** Per-metric aggregates over all snapshots, sorted by name. */
    std::vector<SeriesSummary> summarize() const;

    /** "mem.bank0.reads" -> "prime_mem_bank0_reads". */
    static std::string prometheusName(const std::string &name);

  private:
    void samplerLoop(int interval_ms);

    std::atomic<bool> enabled_{false};
    std::chrono::steady_clock::time_point epoch_;

    /** Guards watched_, snapshots_ and dropped_ (see class contract). */
    mutable Mutex mutex_;
    std::vector<const StatGroup *> watched_ PRIME_GUARDED_BY(mutex_);
    std::deque<Snapshot> snapshots_ PRIME_GUARDED_BY(mutex_);
    std::size_t capacity_;
    std::uint64_t dropped_ PRIME_GUARDED_BY(mutex_) = 0;

    /** Sampler thread lifecycle (separate from the sampling mutex so
     *  stopSampler never blocks behind a tick). */
    Mutex samplerMutex_;
    CondVar samplerCv_;
    bool stopRequested_ PRIME_GUARDED_BY(samplerMutex_) = false;
    std::thread sampler_;
};

} // namespace prime::telemetry

#endif // PRIME_COMMON_TELEMETRY_METRICS_HH
