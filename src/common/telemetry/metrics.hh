/**
 * @file
 * Time-series metrics: a registry of named gauge/counter probes and a
 * background sampler thread that periodically snapshots every
 * registered probe into an in-memory ring of timestamped snapshots.
 *
 * Where the stats package (common/stats.hh) accumulates totals and the
 * trace session records individual spans, the metrics registry answers
 * "what did this look like *while* it ran": queue depths, worker
 * states, per-bank memory backlog, counter rates -- the continuous
 * utilization signals a serving scheduler or a bottleneck report needs.
 * Snapshots export as JSONL time-series (one JSON object per line, for
 * tools/metrics_report.py) and as Prometheus-style text exposition.
 *
 * Threading contract:
 *  - Probes are std::function<double()> callables sampled by the
 *    sampler thread (or by sampleOnce() callers).  The registrant
 *    guarantees the probe is safe to call from another thread at any
 *    time between probe() and unregister(): read atomics (e.g.
 *    SpscRing::approxSize, relaxed Stat snapshots), or take a
 *    short-lived lock (the per-bank MainMemory probes).  A probe must
 *    never call back into its registry.
 *  - One mutex guards the probe table and the snapshot ring; a tick
 *    holds it across all probe calls, so unregister() returning
 *    guarantees no in-flight tick still runs the removed probe (the
 *    pipeline executor relies on this to unregister its ring-depth
 *    gauges before the rings are destroyed).  The guarded members are
 *    machine-checked: PRIME_GUARDED_BY(mutex_) under the clang-tsa
 *    preset, not just this prose.  Because a tick holds mutex_ across
 *    probe calls, a probe that locks any non-leaf mutex risks deadlock
 *    -- prime_lint rule `sampler-lock` flags mutex acquisition inside
 *    probe closures (the per-bank MainMemory probes carry reasoned
 *    suppressions: shard locks are leaf locks).
 *  - enable()/disable() are atomic; a disabled registry refuses to
 *    sample and costs registration sites exactly one load+branch (the
 *    PRIME_SPAN discipline).  Nothing on a simulator hot path touches
 *    the registry at all -- sampling cost lives on the sampler thread.
 *
 * Naming convention: dotted lowercase group.metric names, exactly like
 * stats (tools/prime_lint.py enforces both).  The Prometheus exposition
 * sanitizes dots to underscores and prefixes "prime_".
 */

#ifndef PRIME_COMMON_TELEMETRY_METRICS_HH
#define PRIME_COMMON_TELEMETRY_METRICS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.hh"
#include "common/thread_annotations.hh"

namespace prime::telemetry {

/** How a metric's samples relate over time. */
enum class MetricKind
{
    Gauge,    ///< instantaneous value (queue depth, worker state)
    Counter,  ///< monotonically accumulating total (items, bytes)
};

/** Registry of named probes + snapshot ring + sampler thread. */
class MetricsRegistry
{
  public:
    /** A probe: returns the metric's current value, thread-safely. */
    using Probe = std::function<double()>;

    /** One sampled value inside a snapshot. */
    struct Value
    {
        std::string name;
        MetricKind kind = MetricKind::Gauge;
        double value = 0.0;
    };

    /** One timestamped tick over every probe registered at the time. */
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

    /** Register (or replace) a probe under @p name. */
    void probe(const std::string &name, MetricKind kind, Probe fn);
    /** Register an instantaneous-value probe. */
    void gauge(const std::string &name, Probe fn);
    /** Register an accumulating-total probe. */
    void counter(const std::string &name, Probe fn);

    /**
     * Remove a probe.  On return no sampler tick (running or future)
     * will call it again, so whatever it captured may be destroyed.
     */
    void unregister(const std::string &name);

    std::size_t sourceCount() const;

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

    /** Drop recorded snapshots (probes stay registered). */
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
    struct Source
    {
        MetricKind kind = MetricKind::Gauge;
        Probe fn;
    };

    void samplerLoop(int interval_ms);

    std::atomic<bool> enabled_{false};
    std::chrono::steady_clock::time_point epoch_;

    /** Guards sources_, snapshots_ and dropped_ (see class contract). */
    mutable Mutex mutex_;
    std::vector<std::pair<std::string, Source>> sources_
        PRIME_GUARDED_BY(mutex_);
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

/**
 * The process-wide registry instrumentation sites check (the pipeline
 * executor registers its live ring-depth/stage-state gauges here).
 * Never null: defaults to an inert, permanently disabled registry until
 * setGlobalMetrics installs a real one.
 */
MetricsRegistry *globalMetrics();

/** Install (or, with nullptr, uninstall) the process-wide registry. */
void setGlobalMetrics(MetricsRegistry *registry);

} // namespace prime::telemetry

#endif // PRIME_COMMON_TELEMETRY_METRICS_HH
