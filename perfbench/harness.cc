#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <atomic>
#include <cmath>
#include <fstream>
#include <functional>
#include <thread>

#include "common/telemetry/trace_session.hh"
#include "nn/dataset.hh"
#include "serve/serving_engine.hh"

namespace perfbench {

using namespace prime;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t index = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(values.size())));
    return values[index - 1];
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}

// ------------------------------------------------------------ model --

Model
mlBenchModel(const std::string &name, std::uint64_t seed)
{
    Model m{nn::mlBenchByName(name), nvmodel::defaultTechParams(), {}};
    Rng rng(seed);
    m.net = nn::buildNetwork(m.topology, rng);
    return m;
}

Model
pipelineModel(std::uint64_t seed)
{
    Model m{nn::parseTopology("mlp-pipeline", "64-256-256-256-256", 1, 8,
                              8),
            nvmodel::defaultTechParams(), {}};
    // One FF mat per bank: each weighted layer becomes its own bank
    // stage, so the plan has four pipeline stages.
    m.tech.geometry.ffSubarraysPerBank = 1;
    m.tech.geometry.matsPerSubarray = 1;
    Rng rng(seed);
    m.net = nn::buildNetwork(m.topology, rng);
    return m;
}

namespace {

/** Centre-crop 28x28 to 24x24, then 3x3 mean-pool to 8x8. */
nn::Tensor
downsample8(const nn::Tensor &img)
{
    nn::Tensor out({1, 8, 8});
    for (int y = 0; y < 8; ++y)
        for (int x = 0; x < 8; ++x) {
            double sum = 0.0;
            for (int dy = 0; dy < 3; ++dy)
                for (int dx = 0; dx < 3; ++dx)
                    sum += img.at3(0, 2 + 3 * y + dy, 2 + 3 * x + dx);
            out.at3(0, y, x) = sum / 9.0;
        }
    return out;
}

} // namespace

Inputs
makeInputs(std::uint64_t seed, int count, int calib, int side)
{
    nn::SyntheticMnistOptions options;
    options.seed = seed;
    nn::SyntheticMnist dataset(options);
    std::vector<nn::Sample> samples = dataset.generate(count + calib);
    Inputs in;
    for (int i = 0; i < count + calib; ++i) {
        nn::Sample s = std::move(samples[static_cast<std::size_t>(i)]);
        if (side == 8)
            s.input = downsample8(s.input);
        if (i < count)
            in.images.push_back(std::move(s.input));
        else
            in.calibration.push_back(std::move(s));
    }
    return in;
}

int
argmax(const nn::Tensor &t)
{
    std::size_t best = 0;
    for (std::size_t i = 1; i < t.size(); ++i)
        if (t[i] > t[best])
            best = i;
    return static_cast<int>(best);
}

bool
sameBits(const nn::Tensor &a, const nn::Tensor &b)
{
    return a.shape() == b.shape() &&
           std::equal(a.flat().begin(), a.flat().end(), b.flat().begin(),
                      [](double x, double y) {
                          return std::memcmp(&x, &y, sizeof x) == 0;
                      });
}

std::vector<int>
floatArgmax(nn::Network &net, const std::vector<nn::Tensor> &images)
{
    std::vector<int> top;
    top.reserve(images.size());
    for (const nn::Tensor &img : images)
        top.push_back(argmax(net.forward(img)));
    return top;
}

// ------------------------------------------------------------ set-up --

namespace {

double
msSince(Clock::time_point t0)
{
    return 1e3 * secondsSince(t0);
}

} // namespace

SetupTimes
timedReprogram(core::PrimeSystem &system, Model &model,
               const std::vector<nn::Sample> &calibration, Rng *variation)
{
    SetupTimes t;
    {
        BenchSpan span("bench.programWeight");
        const Clock::time_point t0 = Clock::now();
        system.programWeight(model.net, variation);
        t.programMs = msSince(t0);
    }
    {
        BenchSpan span("bench.configDatapath");
        const Clock::time_point t0 = Clock::now();
        system.configDatapath();
        t.configMs = msSince(t0);
    }
    {
        BenchSpan span("bench.calibrate");
        const Clock::time_point t0 = Clock::now();
        system.calibrate(calibration);
        t.calibrateMs = msSince(t0);
    }
    return t;
}

SetupTimes
timedSetup(core::PrimeSystem &system, Model &model,
           const std::vector<nn::Sample> &calibration, Rng *variation)
{
    double map_ms = 0.0;
    {
        BenchSpan span("bench.mapTopology");
        const Clock::time_point t0 = Clock::now();
        system.mapTopology(model.topology);
        map_ms = msSince(t0);
    }
    SetupTimes t = timedReprogram(system, model, calibration, variation);
    t.mapMs = map_ms;
    return t;
}

Prepared
prepare(Model &model, const std::vector<nn::Sample> &calibration,
        std::uint64_t variation_seed)
{
    // At least three set-ups, more while they add up to under a second,
    // so cheap and expensive set-ups alike are sampled enough.
    Prepared p;
    double total_s = 0.0;
    while (p.times.size() < 3 || (total_s < 1.0 && p.times.size() < 25)) {
        p.system = std::make_unique<core::PrimeSystem>(model.tech);
        Rng variation(variation_seed);
        p.times.push_back(timedSetup(*p.system, model, calibration,
                                     variation_seed ? &variation
                                                    : nullptr));
        total_s += p.times.back().totalS();
    }
    return p;
}

// ------------------------------------------------------ stats views --

Counters
snapshot(core::PrimeSystem &system)
{
    Counters c;
    StatGroup &root = system.stats();
    auto count = [](const StatGroup *g, const char *name) {
        const Stat *s = g ? g->find(name) : nullptr;
        return s ? static_cast<double>(s->count()) : 0.0;
    };
    auto sum = [](const StatGroup *g, const std::string &name) {
        const Stat *s = g ? g->find(name) : nullptr;
        return s ? s->sum() : 0.0;
    };
    // Tiles count into their stage's group, commands and mat MVMs into
    // their bank's group; group 0 of both is the root.
    const std::size_t stages = system.stages().size();
    for (std::size_t s = 0; s < std::max<std::size_t>(stages, 1); ++s)
        c.tiledMvms += count(
            s == 0 ? &root : root.findChild("stage" + std::to_string(s)),
            "run.tiled_mvms");
    for (int b = 0; b < system.bankCount(); ++b) {
        const StatGroup *g =
            b == 0 ? &root : root.findChild("bank" + std::to_string(b));
        c.commands += count(g, "controller.commands");
        c.matMvms += count(g, "controller.mat_mvms");
    }
    const StatGroup *attr = root.findChild("pipeline.attribution");
    for (std::size_t s = 0; s < stages; ++s) {
        const std::string stage = "stage" + std::to_string(s);
        c.busyNs += sum(attr, stage + ".busy_ns");
        c.stallNs += sum(attr, stage + ".stall_upstream_ns") +
                     sum(attr, stage + ".stall_downstream_ns");
        c.wallNs += sum(attr, stage + ".wall_ns");
    }
    memory::MainMemory &mem = system.mainMemory();
    StatGroup &ms = mem.stats();
    c.bursts = count(&ms, "mem.reads") + count(&ms, "mem.writes");
    c.rowHits = count(&ms, "mem.row_hits");
    c.rowMisses = count(&ms, "mem.row_misses");
    c.primeProgressNs = mem.primeProgressNs();
    return c;
}

Counters
operator-(const Counters &a, const Counters &b)
{
    Counters d;
    d.tiledMvms = a.tiledMvms - b.tiledMvms;
    d.commands = a.commands - b.commands;
    d.matMvms = a.matMvms - b.matMvms;
    d.bursts = a.bursts - b.bursts;
    d.rowHits = a.rowHits - b.rowHits;
    d.rowMisses = a.rowMisses - b.rowMisses;
    d.primeProgressNs = a.primeProgressNs - b.primeProgressNs;
    d.busyNs = a.busyNs - b.busyNs;
    d.stallNs = a.stallNs - b.stallNs;
    d.wallNs = a.wallNs - b.wallNs;
    return d;
}

Counters
operator+(const Counters &a, const Counters &b)
{
    Counters s = a;
    s.tiledMvms += b.tiledMvms;
    s.commands += b.commands;
    s.matMvms += b.matMvms;
    s.bursts += b.bursts;
    s.rowHits += b.rowHits;
    s.rowMisses += b.rowMisses;
    s.primeProgressNs += b.primeProgressNs;
    s.busyNs += b.busyNs;
    s.stallNs += b.stallNs;
    s.wallNs += b.wallNs;
    return s;
}

// ------------------------------------------------------------ spans --

namespace {

/** Open benchmark spans of the calling thread, innermost last. */
thread_local std::vector<std::int64_t> tls_open_spans;

} // namespace

SpanLog &
spans()
{
    static SpanLog log;
    return log;
}

void
SpanLog::enable()
{
    enabled_ = true;
}

void
SpanLog::disable()
{
    enabled_ = false;
}

std::int64_t
SpanLog::now() const
{
    return telemetry::globalTrace()->now();
}

std::int64_t
SpanLog::begin(const char *name)
{
    Span span;
    span.name = name;
    span.startNs = now();
    span.parent = tls_open_spans.empty() ? kNone : tls_open_spans.back();
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t key =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    span.thread = threads_.emplace(key, static_cast<int>(threads_.size()))
                      .first->second;
    const std::int64_t index = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(std::move(span));
    tls_open_spans.push_back(index);
    return index;
}

void
SpanLog::end(std::int64_t index)
{
    const std::int64_t t = now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].endNs = t;
    if (!tls_open_spans.empty() && tls_open_spans.back() == index)
        tls_open_spans.pop_back();
}

void
SpanLog::add(const char *name, std::int64_t start_ns, std::int64_t end_ns,
             std::int64_t request)
{
    Span span;
    span.name = name;
    span.startNs = start_ns;
    span.endNs = end_ns;
    span.request = request;
    span.thread = -1;  // crosses threads: submit -> completion callback
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

void
SpanLog::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream os(path);
    os << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
           << "\",\"start_ns\":" << s.startNs << ",\"end_ns\":" << s.endNs
           << ",\"parent\":" << s.parent << ",\"request\":" << s.request
           << ",\"thread\":" << s.thread << "}";
    }
    os << "\n]\n";
}

// ---------------------------------------------------------- serving --

OpenLoopResult
openLoop(core::PrimeSystem &system, const Pool &pool, double qps,
         double seconds, std::uint64_t seed, std::uint64_t backlog_cap)
{
    const std::size_t n = static_cast<std::size_t>(
        std::max(1.0, std::round(qps * seconds)));
    // The Poisson schedule is fixed before the first request is sent.
    std::vector<double> due_ns(n);
    Rng rng(seed);
    double t = 0.0;
    for (double &d : due_ns) {
        t += -std::log(1.0 - rng.uniform()) / qps;
        d = 1e9 * t;
    }

    struct Record
    {
        double submitNs = -1.0;
        double doneNs = -1.0;
        double queueMs = 0.0;
        double execMs = 0.0;
        double batch = 0.0;
        bool mismatch = false;
    };
    std::vector<Record> records(n);
    const std::size_t pool_size = pool.images->size();

    OpenLoopResult r;
    serve::ServingEngine engine(system, serve::ServingOptions{});
    engine.start();
    const Clock::time_point t0 = Clock::now();
    auto now_ns = [t0] {
        return std::chrono::duration<double, std::nano>(Clock::now() - t0)
            .count();
    };
    std::size_t i = 0;
    for (; i < n; ++i) {
        for (;;) {
            const double ahead = due_ns[i] - now_ns();
            if (ahead <= 0.0)
                break;
            if (ahead > 150e3)
                std::this_thread::sleep_for(
                    std::chrono::nanoseconds(
                        static_cast<std::int64_t>(ahead - 100e3)));
            else
                std::this_thread::yield();
        }
        const std::uint64_t backlog = engine.accepted() - engine.completed();
        r.backlogMax = std::max(r.backlogMax, backlog);
        if (backlog > backlog_cap) {
            r.cappedOut = true;
            break;
        }
        const std::size_t k = i % pool_size;
        Record &rec = records[i];
        const std::int64_t span_start =
            spans().enabled() ? spans().now() : 0;
        rec.submitNs = now_ns();
        const auto id = engine.trySubmit(
            (*pool.images)[k],
            [&rec, &pool, k, span_start, now_ns](serve::Response &&resp) {
                rec.doneNs = now_ns();
                rec.mismatch = !sameBits(resp.output, (*pool.refs)[k]);
                rec.queueMs = resp.queueWaitNs / 1e6;
                rec.execMs = (resp.e2eNs - resp.queueWaitNs) / 1e6;
                rec.batch = static_cast<double>(resp.batchSize);
                if (spans().enabled())
                    spans().add("bench.request", span_start, spans().now(),
                                static_cast<std::int64_t>(resp.id));
            });
        if (!id)
            ++r.shed;
    }
    engine.stop();

    r.offered = i;
    r.completed = engine.completed();
    for (std::size_t j = 0; j < i; ++j) {
        const Record &rec = records[j];
        r.lagMs.push_back((rec.submitNs - due_ns[j]) / 1e6);
        if (rec.doneNs < 0.0)
            continue;  // shed: no callback
        const double latency = (rec.doneNs - due_ns[j]) / 1e6;
        r.latencyMs.push_back(latency);
        r.queueWaitMs.push_back(rec.queueMs);
        r.execMs.push_back(rec.execMs);
        r.batchSizes.push_back(rec.batch);
        r.mismatches += rec.mismatch ? 1 : 0;
        r.overLimit += latency > kLatencyLimitMs ? 1 : 0;
    }
    return r;
}

ClosedLoopResult
closedLoop(core::PrimeSystem &system, const Pool &pool, int outstanding,
           double seconds)
{
    std::atomic<std::uint64_t> done{0};
    std::atomic<std::uint64_t> mismatches{0};
    const std::size_t pool_size = pool.images->size();
    const std::uint64_t target = static_cast<std::uint64_t>(outstanding);

    ClosedLoopResult r;
    serve::ServingEngine engine(system, serve::ServingOptions{});
    engine.start();
    // After a ramp, the completion count is sampled every 1/50 of the
    // run; the rate is the best over stretches of five samples starting
    // at every sample
    // (see bestWindows in workloads.cc: interference on the host only
    // ever slows a stretch).
    const double ramp_s = 0.1 * seconds;
    const double tick_s = 0.02 * seconds;
    constexpr std::size_t kTicksPerWindow = 5;
    const Clock::time_point t0 = Clock::now();
    double next_tick = ramp_s;
    std::vector<std::pair<double, std::uint64_t>> ticks;
    std::uint64_t submitted = 0;
    for (;;) {
        const double elapsed = secondsSince(t0);
        if (elapsed >= next_tick) {
            ticks.emplace_back(elapsed, done.load());
            next_tick = elapsed + tick_s;
        }
        if (elapsed >= seconds)
            break;
        const std::uint64_t completed = done.load();
        if (submitted - completed >= target) {
            done.wait(completed);  // until the next completion
            continue;
        }
        const std::size_t k = submitted % pool_size;
        const std::int64_t span_start =
            spans().enabled() ? spans().now() : 0;
        const auto id = engine.trySubmit(
            (*pool.images)[k], [&done, &mismatches, &pool, k,
                                span_start](serve::Response &&resp) {
                if (!sameBits(resp.output, (*pool.refs)[k]))
                    mismatches.fetch_add(1);
                if (spans().enabled())
                    spans().add("bench.request", span_start, spans().now(),
                                static_cast<std::int64_t>(resp.id));
                done.fetch_add(1);
                done.notify_one();
            });
        if (id)
            ++submitted;
        else
            ++r.shed;
    }
    engine.stop();
    r.mismatches = mismatches.load();
    r.completionsPerS = static_cast<double>(done.load()) / seconds;
    if (ticks.size() > kTicksPerWindow) {
        r.completionsPerS = 0.0;
        for (std::size_t i = 0; i + kTicksPerWindow < ticks.size(); ++i) {
            const auto &[t_a, n_a] = ticks[i];
            const auto &[t_b, n_b] = ticks[i + kTicksPerWindow];
            r.completionsPerS = std::max(
                r.completionsPerS,
                static_cast<double>(n_b - n_a) / (t_b - t_a));
        }
    }
    return r;
}

double
sloSearch(core::PrimeSystem &system, const Pool &pool, double lo_qps,
          double hi_qps, double probe_seconds, int steps, std::uint64_t seed)
{
    auto meets = [&](double qps, int step) {
        const OpenLoopResult r =
            openLoop(system, pool, qps, probe_seconds, seed + step,
                     static_cast<std::uint64_t>(qps * 0.05) + 64);
        return r.shed == 0 && !r.cappedOut && r.mismatches == 0 &&
               !r.latencyMs.empty() &&
               percentile(r.latencyMs, 0.99) <= kLatencyLimitMs;
    };
    int step = 0;
    // The lower end must itself pass; back off until it does.
    while (step < steps && !meets(lo_qps, step++)) {
        hi_qps = lo_qps;
        lo_qps /= 2.0;
    }
    for (; step < steps; ++step) {
        const double mid = std::sqrt(lo_qps * hi_qps);
        if (meets(mid, step))
            lo_qps = mid;
        else
            hi_qps = mid;
    }
    return lo_qps;
}

// ------------------------------------------------------------- misc --

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

} // namespace perfbench
