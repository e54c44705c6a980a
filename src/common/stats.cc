#include "common/stats.hh"

#include <cmath>
#include <cstdio>
#include <iomanip>

#include "common/telemetry/json.hh"

namespace prime {

namespace {

/** Integral values print without a fraction; others with %.6g. */
std::string
formatValue(double v)
{
    char buf[32];
    if (std::isfinite(v) && v == std::nearbyint(v) &&
        std::fabs(v) < 9.007199254740992e15) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
    } else {
        std::snprintf(buf, sizeof(buf), "%.6g", v);
    }
    return buf;
}

/** First dotted component of a stat name ("" when undotted). */
std::string
dottedPrefix(const std::string &name)
{
    const std::size_t dot = name.find('.');
    return dot == std::string::npos ? std::string() : name.substr(0, dot);
}

} // namespace

Stat &
StatGroup::get(const std::string &name)
{
    MutexLock lock(mutex_);
    return stats_[name];
}

const Stat *
StatGroup::find(const std::string &name) const
{
    MutexLock lock(mutex_);
    auto it = stats_.find(name);
    return it == stats_.end() ? nullptr : &it->second;
}

telemetry::Histogram &
StatGroup::histogram(const std::string &name)
{
    MutexLock lock(mutex_);
    return histograms_[name];
}

const telemetry::Histogram *
StatGroup::findHistogram(const std::string &name) const
{
    MutexLock lock(mutex_);
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
}

void
StatGroup::formula(const std::string &name, std::function<double()> fn,
                   MetricKind kind)
{
    MutexLock lock(mutex_);
    formulas_[name] = Formula{std::move(fn), kind};
}

bool
StatGroup::evalFormula(const std::string &name, double &out) const
{
    MutexLock lock(mutex_);
    auto it = formulas_.find(name);
    if (it == formulas_.end())
        return false;
    out = it->second.fn();
    return true;
}

StatGroup &
StatGroup::child(const std::string &name)
{
    MutexLock lock(mutex_);
    auto it = children_.find(name);
    if (it == children_.end())
        it = children_.emplace(name, std::make_unique<StatGroup>()).first;
    return *it->second;
}

const StatGroup *
StatGroup::findChild(const std::string &name) const
{
    MutexLock lock(mutex_);
    auto it = children_.find(name);
    return it == children_.end() ? nullptr : it->second.get();
}

std::vector<std::string>
StatGroup::names() const
{
    MutexLock lock(mutex_);
    std::vector<std::string> out;
    out.reserve(stats_.size());
    for (const auto &kv : stats_)
        out.push_back(kv.first);
    return out;
}

void
StatGroup::resetAll()
{
    MutexLock lock(mutex_);
    for (auto &kv : stats_)
        kv.second.reset();
    for (auto &kv : histograms_)
        kv.second.reset();
    for (auto &kv : children_)
        kv.second->resetAll();
}

void
StatGroup::dumpPrefixed(std::ostream &os, const std::string &prefix) const
{
    MutexLock lock(mutex_);
    // Group scalar lines by their first dotted component: a blank line
    // between groups keeps a long dump scannable.
    std::string last_group;
    bool any = false;
    for (const auto &kv : stats_) {
        const std::string group = dottedPrefix(kv.first);
        if (any && group != last_group)
            os << '\n';
        last_group = group;
        any = true;
        const Stat &s = kv.second;
        os << std::left << std::setw(44) << (prefix + kv.first)
           << " count=" << std::setw(12) << s.count()
           << " sum=" << std::setw(14) << formatValue(s.sum())
           << " mean=" << std::setw(12) << formatValue(s.mean())
           << " min=" << std::setw(12)
           << (s.hasSamples() ? formatValue(s.min()) : "-")
           << " max="
           << (s.hasSamples() ? formatValue(s.max()) : "-") << '\n';
    }
    for (const auto &kv : histograms_) {
        const telemetry::Histogram &h = kv.second;
        os << std::left << std::setw(44) << (prefix + kv.first)
           << " count=" << std::setw(12) << h.count()
           << " mean=" << std::setw(12) << formatValue(h.mean())
           << " p50=" << std::setw(12) << formatValue(h.quantile(0.50))
           << " p95=" << std::setw(12) << formatValue(h.quantile(0.95))
           << " p99=" << std::setw(12) << formatValue(h.quantile(0.99))
           << " min=" << std::setw(12) << formatValue(h.min())
           << " max=" << formatValue(h.max()) << '\n';
    }
    for (const auto &kv : formulas_) {
        os << std::left << std::setw(44) << (prefix + kv.first)
           << " value=" << formatValue(kv.second.fn()) << '\n';
    }
    for (const auto &kv : children_)
        kv.second->dumpPrefixed(os, prefix + kv.first + ".");
}

void
StatGroup::dump(std::ostream &os) const
{
    dumpPrefixed(os, "");
}

void
StatGroup::dumpJsonObject(std::ostream &os) const
{
    using telemetry::jsonNumber;
    using telemetry::jsonString;
    MutexLock lock(mutex_);
    os << '{';
    bool first = true;
    auto key = [&](const std::string &name) {
        if (!first)
            os << ',';
        first = false;
        jsonString(os, name);
        os << ':';
    };
    for (const auto &kv : stats_) {
        const Stat &s = kv.second;
        key(kv.first);
        // The headline number: mean of the samples when there are any,
        // otherwise the raw sum -- an add()-only scalar (e.g. a bench's
        // pipeline.speedup) stores its value in sum with count 0, and
        // rendering mean:0 for it misreads as "the speedup is zero".
        // mean mirrors value so the two never disagree.
        const double value = s.count() ? s.mean() : s.sum();
        os << "{\"type\":\"scalar\",\"value\":";
        jsonNumber(os, value);
        os << ",\"count\":" << s.count() << ",\"sum\":";
        jsonNumber(os, s.sum());
        os << ",\"mean\":";
        jsonNumber(os, value);
        os << ",\"min\":";
        if (s.hasSamples())
            jsonNumber(os, s.min());
        else
            os << "null";
        os << ",\"max\":";
        if (s.hasSamples())
            jsonNumber(os, s.max());
        else
            os << "null";
        os << '}';
    }
    for (const auto &kv : histograms_) {
        const telemetry::Histogram &h = kv.second;
        key(kv.first);
        os << "{\"type\":\"histogram\",\"count\":" << h.count()
           << ",\"sum\":";
        jsonNumber(os, h.sum());
        os << ",\"mean\":";
        jsonNumber(os, h.mean());
        os << ",\"min\":";
        jsonNumber(os, h.min());
        os << ",\"max\":";
        jsonNumber(os, h.max());
        os << ",\"p50\":";
        jsonNumber(os, h.quantile(0.50));
        os << ",\"p95\":";
        jsonNumber(os, h.quantile(0.95));
        os << ",\"p99\":";
        jsonNumber(os, h.quantile(0.99));
        os << '}';
    }
    for (const auto &kv : formulas_) {
        key(kv.first);
        os << "{\"type\":\"formula\",\"value\":";
        jsonNumber(os, kv.second.fn());
        os << '}';
    }
    for (const auto &kv : children_) {
        key(kv.first);
        kv.second->dumpJsonObject(os);
    }
    os << '}';
}

void
StatGroup::forEachValuePrefixed(const std::string &prefix,
                                const ValueVisitor &visit) const
{
    MutexLock lock(mutex_);
    for (const auto &[name, s] : stats_) {
        const std::uint64_t count = s.count();
        visit(prefix + name, MetricKind::Counter,
              count ? static_cast<double>(count) : s.sum());
    }
    for (const auto &[name, f] : formulas_)
        visit(prefix + name, f.kind, f.fn());
    for (const auto &[name, group] : children_)
        group->forEachValuePrefixed(prefix + name + ".", visit);
}

void
StatGroup::forEachValue(const ValueVisitor &visit) const
{
    forEachValuePrefixed("", visit);
}

void
StatGroup::dumpJson(std::ostream &os) const
{
    os << "{\"version\":" << kJsonVersion << ",\"stats\":";
    dumpJsonObject(os);
    os << "}\n";
}

void
writeStatsDocument(
    std::ostream &os,
    const std::vector<std::pair<std::string, const StatGroup *>> &groups)
{
    os << "{\"version\":" << StatGroup::kJsonVersion << ",\"stats\":{";
    bool first = true;
    for (const auto &[name, group] : groups) {
        if (!first)
            os << ',';
        first = false;
        telemetry::jsonString(os, name);
        os << ':';
        group->dumpJsonObject(os);
    }
    os << "}}\n";
}

} // namespace prime
