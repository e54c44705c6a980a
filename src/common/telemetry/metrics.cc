#include "common/telemetry/metrics.hh"

#include <algorithm>
#include <map>
#include <utility>

#include "common/telemetry/json.hh"

namespace prime::telemetry {

MetricsRegistry::MetricsRegistry(std::size_t snapshot_capacity)
    : epoch_(std::chrono::steady_clock::now()),
      capacity_(std::max<std::size_t>(1, snapshot_capacity))
{
}

MetricsRegistry::~MetricsRegistry()
{
    stopSampler();
}

void
MetricsRegistry::enable()
{
    epoch_ = std::chrono::steady_clock::now();
    // Release pairs with the acquire in enabled(): a sampler seeing
    // "enabled" also sees the epoch written just before it.
    enabled_.store(true, std::memory_order_release);
}

void
MetricsRegistry::disable()
{
    enabled_.store(false, std::memory_order_release);
}

void
MetricsRegistry::watch(const StatGroup &group)
{
    MutexLock lock(mutex_);
    if (std::find(watched_.begin(), watched_.end(), &group) ==
        watched_.end())
        watched_.push_back(&group);
}

void
MetricsRegistry::unwatch(const StatGroup &group)
{
    // Taking the sampling mutex serializes against an in-flight tick:
    // once we hold it, no tick is mid-walk, and the group can never be
    // visited again.
    MutexLock lock(mutex_);
    std::erase(watched_, &group);
}

bool
MetricsRegistry::sampleOnce()
{
    if (!enabled())
        return false;
    const std::int64_t ts =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count();
    MutexLock lock(mutex_);
    Snapshot snap;
    snap.tsNs = ts;
    if (!snapshots_.empty())
        snap.values.reserve(snapshots_.back().values.size());
    for (const StatGroup *group : watched_)
        group->forEachValue(
            [&snap](const std::string &name, MetricKind kind,
                    double value) {
                snap.values.push_back(Value{name, kind, value});
            });
    if (snapshots_.size() == capacity_) {
        snapshots_.pop_front();
        ++dropped_;
    }
    snapshots_.push_back(std::move(snap));
    return true;
}

void
MetricsRegistry::samplerLoop(int interval_ms)
{
    const auto interval = std::chrono::milliseconds(
        std::max(1, interval_ms));
    for (;;) {
        sampleOnce();
        // Deadline loop instead of wait_for-with-predicate: the
        // stopRequested_ reads stay in this locked scope where the
        // analysis can see the capability (see common/mutex.hh).
        const auto deadline = std::chrono::steady_clock::now() + interval;
        UniqueLock lock(samplerMutex_);
        while (!stopRequested_) {
            if (samplerCv_.waitUntil(lock, deadline) ==
                std::cv_status::timeout)
                break;
        }
        if (stopRequested_)
            return;
    }
}

void
MetricsRegistry::startSampler(int interval_ms)
{
    if (!enabled() || sampler_.joinable())
        return;
    {
        MutexLock lock(samplerMutex_);
        stopRequested_ = false;
    }
    sampler_ = std::thread(
        [this, interval_ms] { samplerLoop(interval_ms); });
}

void
MetricsRegistry::stopSampler()
{
    if (!sampler_.joinable())
        return;
    {
        MutexLock lock(samplerMutex_);
        stopRequested_ = true;
    }
    samplerCv_.notify_all();
    sampler_.join();
    sampler_ = std::thread();
    // Final tick: a run's end state is always the last snapshot.
    sampleOnce();
}

bool
MetricsRegistry::samplerRunning() const
{
    return sampler_.joinable();
}

std::size_t
MetricsRegistry::snapshotCount() const
{
    MutexLock lock(mutex_);
    return snapshots_.size();
}

std::uint64_t
MetricsRegistry::droppedSnapshots() const
{
    MutexLock lock(mutex_);
    return dropped_;
}

void
MetricsRegistry::clear()
{
    MutexLock lock(mutex_);
    snapshots_.clear();
    dropped_ = 0;
}

void
MetricsRegistry::writeJsonl(std::ostream &os) const
{
    MutexLock lock(mutex_);
    for (const Snapshot &snap : snapshots_) {
        os << "{\"ts_ns\":" << snap.tsNs << ",\"metrics\":{";
        bool first = true;
        for (const Value &v : snap.values) {
            if (!first)
                os << ",";
            first = false;
            jsonString(os, v.name);
            os << ":";
            jsonNumber(os, v.value);
        }
        os << "}}\n";
    }
}

std::string
MetricsRegistry::prometheusName(const std::string &name)
{
    std::string out = "prime_";
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == ':';
        out.push_back(ok ? c : '_');
    }
    return out;
}

void
MetricsRegistry::writePrometheus(std::ostream &os) const
{
    MutexLock lock(mutex_);
    if (snapshots_.empty())
        return;
    const Snapshot &last = snapshots_.back();
    for (const Value &v : last.values) {
        const std::string name = prometheusName(v.name);
        os << "# TYPE " << name << " "
           << (v.kind == MetricKind::Counter ? "counter" : "gauge")
           << "\n"
           << name << " ";
        jsonNumber(os, v.value);  // integral values print bare
        os << "\n";
    }
}

std::vector<MetricsRegistry::SeriesSummary>
MetricsRegistry::summarize() const
{
    MutexLock lock(mutex_);
    std::map<std::string, SeriesSummary> by_name;
    for (const Snapshot &snap : snapshots_) {
        for (const Value &v : snap.values) {
            SeriesSummary &s = by_name[v.name];
            if (s.samples == 0) {
                s.name = v.name;
                s.kind = v.kind;
                s.min = s.max = v.value;
            } else {
                s.min = std::min(s.min, v.value);
                s.max = std::max(s.max, v.value);
            }
            // mean accumulates the sum until read-out below.
            s.mean += v.value;
            s.last = v.value;
            ++s.samples;
        }
    }
    std::vector<SeriesSummary> out;
    out.reserve(by_name.size());
    for (auto &[name, s] : by_name) {
        s.mean = s.samples ? s.mean / static_cast<double>(s.samples)
                           : 0.0;
        out.push_back(std::move(s));
    }
    return out;
}

} // namespace prime::telemetry
