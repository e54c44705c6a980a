/**
 * @file
 * Telemetry subsystem tests: histogram buckets and quantiles, the
 * extended stats registry (min/max validity, formulas, child groups,
 * versioned JSON), the log-level parser, and the trace session
 * (nesting, monotonic timestamps, threaded lane integrity).
 *
 * JSON outputs are checked with a minimal in-test parser so the tests
 * fail on malformed documents, not just on missing substrings.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/telemetry/histogram.hh"
#include "common/telemetry/metrics.hh"
#include "common/telemetry/trace_session.hh"
#include "common/thread_pool.hh"

namespace prime {
namespace {

// ------------------------------------------------------------------
// Minimal JSON parser (objects, arrays, strings, numbers, literals).

struct Json
{
    enum Kind { Null, Bool, Number, String, Array, Object };
    Kind kind = Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<Json> items;
    std::map<std::string, Json> members;

    const Json &operator[](const std::string &key) const
    {
        static const Json missing;
        auto it = members.find(key);
        return it == members.end() ? missing : it->second;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    Json parse()
    {
        Json v = value();
        skipWs();
        EXPECT_EQ(pos_, text_.size()) << "trailing JSON garbage";
        return v;
    }

    bool failed() const { return failed_; }

  private:
    void fail(const std::string &why)
    {
        failed_ = true;
        ADD_FAILURE() << "JSON parse error at " << pos_ << ": " << why;
    }

    void skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool eat(char c)
    {
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    Json value()
    {
        skipWs();
        if (failed_ || pos_ >= text_.size()) {
            fail("unexpected end");
            return {};
        }
        const char c = text_[pos_];
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"') {
            Json v;
            v.kind = Json::String;
            v.str = string();
            return v;
        }
        if (text_.compare(pos_, 4, "null") == 0) {
            pos_ += 4;
            return {};
        }
        if (text_.compare(pos_, 4, "true") == 0) {
            pos_ += 4;
            Json v;
            v.kind = Json::Bool;
            v.boolean = true;
            return v;
        }
        if (text_.compare(pos_, 5, "false") == 0) {
            pos_ += 5;
            Json v;
            v.kind = Json::Bool;
            return v;
        }
        return number();
    }

    Json object()
    {
        Json v;
        v.kind = Json::Object;
        eat('{');
        if (eat('}'))
            return v;
        do {
            skipWs();
            std::string key = string();
            if (!eat(':')) {
                fail("expected ':'");
                return v;
            }
            v.members[key] = value();
        } while (!failed_ && eat(','));
        if (!eat('}'))
            fail("expected '}'");
        return v;
    }

    Json array()
    {
        Json v;
        v.kind = Json::Array;
        eat('[');
        if (eat(']'))
            return v;
        do {
            v.items.push_back(value());
        } while (!failed_ && eat(','));
        if (!eat(']'))
            fail("expected ']'");
        return v;
    }

    std::string string()
    {
        if (pos_ >= text_.size() || text_[pos_] != '"') {
            fail("expected string");
            return {};
        }
        ++pos_;
        std::string out;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c == '\\' && pos_ < text_.size()) {
                const char esc = text_[pos_++];
                switch (esc) {
                  case 'n': out.push_back('\n'); break;
                  case 't': out.push_back('\t'); break;
                  case 'u':
                    pos_ += 4;  // tests never check unicode escapes
                    out.push_back('?');
                    break;
                  default: out.push_back(esc);
                }
            } else {
                out.push_back(c);
            }
        }
        if (pos_ >= text_.size()) {
            fail("unterminated string");
            return out;
        }
        ++pos_;  // closing quote
        return out;
    }

    Json number()
    {
        const char *start = text_.c_str() + pos_;
        char *end = nullptr;
        const double d = std::strtod(start, &end);
        if (end == start) {
            fail("expected number");
            return {};
        }
        pos_ += static_cast<std::size_t>(end - start);
        Json v;
        v.kind = Json::Number;
        v.number = d;
        return v;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
    bool failed_ = false;
};

Json
parseJson(const std::string &text)
{
    JsonParser p(text);
    return p.parse();
}

// ------------------------------------------------------------------
// Histogram

TEST(Histogram, CountsSumsAndExactExtrema)
{
    telemetry::Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.quantile(0.5), 0.0);
    h.sample(3.0);
    h.sample(12.0);
    h.sample(7.0);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.sum(), 22.0);
    EXPECT_DOUBLE_EQ(h.min(), 3.0);
    EXPECT_DOUBLE_EQ(h.max(), 12.0);
    EXPECT_NEAR(h.mean(), 22.0 / 3.0, 1e-12);
}

TEST(Histogram, BucketBoundsContainTheirValues)
{
    for (double v : {1e-6, 0.5, 1.0, 1.5, 3.0, 64.0, 1000.0, 3.7e9}) {
        const int idx = telemetry::Histogram::bucketIndex(v);
        EXPECT_GT(idx, 0) << v;
        EXPECT_LT(idx, telemetry::Histogram::kBucketCount) << v;
        EXPECT_GE(v, telemetry::Histogram::bucketLowerBound(idx)) << v;
        EXPECT_LT(v, telemetry::Histogram::bucketUpperBound(idx)) << v;
    }
    // Non-positive values land in the underflow bucket.
    EXPECT_EQ(telemetry::Histogram::bucketIndex(0.0), 0);
    EXPECT_EQ(telemetry::Histogram::bucketIndex(-4.0), 0);
}

/** The frexp form of Histogram::bucketIndex, for finite values. */
int
frexpBucketIndex(double value)
{
    using telemetry::Histogram;
    if (!(value > 0.0))
        return 0;
    int exp = 0;
    const double frac = std::frexp(value, &exp);  // [0.5, 1)
    if (exp < Histogram::kMinExp)
        return 0;
    if (exp >= Histogram::kMaxExp)
        return Histogram::kBucketCount - 1;
    const int sub = std::clamp(
        static_cast<int>((frac - 0.5) * 2.0 * Histogram::kSubBuckets), 0,
        Histogram::kSubBuckets - 1);
    return 1 + (exp - Histogram::kMinExp) * Histogram::kSubBuckets + sub;
}

TEST(Histogram, BucketIndexMatchesFrexpOnRandomFiniteDoubles)
{
    // Half the draws are raw bit patterns (every exponent, denormals
    // included); half keep the exponent near the bucketed range, where
    // the mantissa bits pick the sub-bucket.
    Rng rng(0xb0c4e7);
    int checked = 0;
    while (checked < 1000000) {
        std::uint64_t bits = rng.engine()();
        if (checked % 2 == 1) {
            const std::int64_t exp = rng.uniformInt(
                telemetry::Histogram::kMinExp - 4 + 1022,
                telemetry::Histogram::kMaxExp + 4 + 1022);
            bits = (bits & ~(std::uint64_t{0x7ff} << 52)) |
                   (static_cast<std::uint64_t>(exp) << 52);
        }
        const double v = std::bit_cast<double>(bits);
        if (!std::isfinite(v))
            continue;
        ASSERT_EQ(telemetry::Histogram::bucketIndex(v), frexpBucketIndex(v))
            << std::hexfloat << v;
        ++checked;
    }
}

TEST(Histogram, BucketIndexEdgeCases)
{
    using telemetry::Histogram;
    const int top = Histogram::kBucketCount - 1;
    const double min_normal = std::numeric_limits<double>::min();
    const double denormal = min_normal / 4.0;
    // Bucket 0: zero, negatives, denormals, NaN and everything below
    // 2^(kMinExp-1); that value opens bucket 1.
    EXPECT_EQ(Histogram::bucketIndex(0.0), 0);
    EXPECT_EQ(Histogram::bucketIndex(-0.0), 0);
    EXPECT_EQ(Histogram::bucketIndex(denormal), 0);
    EXPECT_EQ(Histogram::bucketIndex(
                  std::numeric_limits<double>::quiet_NaN()),
              0);
    EXPECT_EQ(Histogram::bucketIndex(
                  std::ldexp(1.0, Histogram::kMinExp - 2)),
              0);
    EXPECT_EQ(Histogram::bucketIndex(
                  std::ldexp(1.0, Histogram::kMinExp - 1)),
              1);
    EXPECT_EQ(Histogram::bucketIndex(std::ldexp(1.0, Histogram::kMinExp)),
              1 + Histogram::kSubBuckets);
    // The last exponent band starts at 2^(kMaxExp-2) and its top
    // sub-bucket is the array's last; 2^(kMaxExp-1) and everything
    // above, +inf included, clamp there (2^(kMaxExp-1) once indexed
    // one past the end).
    EXPECT_EQ(Histogram::bucketIndex(
                  std::ldexp(1.0, Histogram::kMaxExp - 2)),
              top - (Histogram::kSubBuckets - 1));
    EXPECT_EQ(Histogram::bucketIndex(
                  std::ldexp(1.0, Histogram::kMaxExp - 1)),
              top);
    EXPECT_EQ(Histogram::bucketIndex(std::ldexp(1.0, Histogram::kMaxExp)),
              top);
    EXPECT_EQ(Histogram::bucketIndex(
                  std::ldexp(1.0, Histogram::kMaxExp + 1)),
              top);
    EXPECT_EQ(Histogram::bucketIndex(std::numeric_limits<double>::max()),
              top);
    EXPECT_EQ(Histogram::bucketIndex(
                  std::numeric_limits<double>::infinity()),
              top);
    for (double v : {0.0, -0.0, denormal,
                     std::ldexp(1.0, Histogram::kMinExp - 1),
                     std::ldexp(1.0, Histogram::kMinExp),
                     std::ldexp(1.0, Histogram::kMaxExp - 1),
                     std::ldexp(1.0, Histogram::kMaxExp),
                     std::ldexp(1.0, Histogram::kMaxExp + 1),
                     std::numeric_limits<double>::max()})
        EXPECT_EQ(Histogram::bucketIndex(v), frexpBucketIndex(v)) << v;
    // A sample at the top lands inside the bucket array.
    Histogram h;
    h.sample(std::numeric_limits<double>::infinity());
    h.sample(std::ldexp(1.0, Histogram::kMaxExp - 1));
    EXPECT_EQ(h.buckets()[static_cast<std::size_t>(top)], 2u);
}

TEST(Histogram, BucketIndexMonotonic)
{
    int last = 0;
    for (double v = 0.001; v < 1e7; v *= 1.07) {
        const int idx = telemetry::Histogram::bucketIndex(v);
        EXPECT_GE(idx, last) << v;
        last = idx;
    }
}

TEST(Histogram, QuantilesOfUniformSamples)
{
    telemetry::Histogram h;
    for (int i = 1; i <= 1000; ++i)
        h.sample(static_cast<double>(i));
    // Bucketed quantiles carry <= 1/kSubBuckets (12.5%) relative error.
    EXPECT_NEAR(h.quantile(0.50), 500.0, 500.0 * 0.13);
    EXPECT_NEAR(h.quantile(0.95), 950.0, 950.0 * 0.13);
    EXPECT_NEAR(h.quantile(0.99), 990.0, 990.0 * 0.13);
    // The ends clamp to the exact extrema.
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0);
}

TEST(Histogram, QuantileEdgeCases)
{
    telemetry::Histogram empty;
    // Empty histogram: every quantile is 0, including out-of-range and
    // NaN arguments.
    EXPECT_EQ(empty.quantile(0.0), 0.0);
    EXPECT_EQ(empty.quantile(1.0), 0.0);
    EXPECT_EQ(empty.quantile(std::nan("")), 0.0);

    // Single sample: any quantile is that sample, exactly.
    telemetry::Histogram one;
    one.sample(7.5);
    for (double q : {0.0, 0.25, 0.5, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(one.quantile(q), 7.5) << "q=" << q;

    // Populated histogram: q=0 / q=1 are the exact extrema, arguments
    // outside [0, 1] clamp to them, and NaN maps to the minimum rank
    // instead of propagating (regression: std::clamp passes NaN
    // through to an undefined double->uint64 cast).
    telemetry::Histogram h;
    for (int i = 1; i <= 100; ++i)
        h.sample(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
    EXPECT_DOUBLE_EQ(h.quantile(-3.0), 1.0);
    EXPECT_DOUBLE_EQ(h.quantile(2.0), 100.0);
    const double at_nan = h.quantile(std::nan(""));
    EXPECT_FALSE(std::isnan(at_nan));
    EXPECT_DOUBLE_EQ(at_nan, 1.0);
}

TEST(Histogram, Reset)
{
    telemetry::Histogram h;
    h.sample(42.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0.0);
    EXPECT_EQ(h.min(), 0.0);
    EXPECT_EQ(h.quantile(0.5), 0.0);
}

// ------------------------------------------------------------------
// Stats registry

TEST(Stats, ExtremaOnlyValidWithSamples)
{
    StatGroup g;
    g.get("events").increment(3);
    g.get("bytes").add(4096.0);
    EXPECT_FALSE(g.get("events").hasSamples());
    EXPECT_FALSE(g.get("bytes").hasSamples());

    // Counter-style stats render '-' extrema in the dump...
    std::ostringstream dump;
    g.dump(dump);
    EXPECT_NE(dump.str().find("min=-"), std::string::npos);
    EXPECT_NE(dump.str().find("max=-"), std::string::npos);
    // ...and integral values print without a fraction.
    EXPECT_NE(dump.str().find("count=3"), std::string::npos);
    EXPECT_EQ(dump.str().find("3.000000"), std::string::npos);

    // Mixing add() into a sampled stat must not poison the extrema.
    g.get("lat").add(999.0);
    g.get("lat").sample(5.0);
    g.get("lat").sample(2.0);
    EXPECT_TRUE(g.get("lat").hasSamples());
    EXPECT_DOUBLE_EQ(g.get("lat").min(), 2.0);
    EXPECT_DOUBLE_EQ(g.get("lat").max(), 5.0);
}

TEST(Stats, FormulaEvaluatesAtReadTime)
{
    StatGroup g;
    g.formula("ratio", [hits = &g.get("hits"), total = &g.get("total")] {
        return total->count()
                   ? static_cast<double>(hits->count()) / total->count()
                   : 0.0;
    });
    double v = -1.0;
    ASSERT_TRUE(g.evalFormula("ratio", v));
    EXPECT_EQ(v, 0.0);
    g.get("hits").increment(3);
    g.get("total").increment(4);
    ASSERT_TRUE(g.evalFormula("ratio", v));
    EXPECT_DOUBLE_EQ(v, 0.75);
    EXPECT_FALSE(g.evalFormula("absent", v));
}

TEST(Stats, ChildGroupsDumpWithDottedPrefix)
{
    StatGroup g;
    g.child("bank0").get("reads").increment(7);
    ASSERT_NE(g.findChild("bank0"), nullptr);
    EXPECT_EQ(g.findChild("bank1"), nullptr);
    std::ostringstream dump;
    g.dump(dump);
    EXPECT_NE(dump.str().find("bank0.reads"), std::string::npos);
}

TEST(Stats, JsonDocumentRoundTrips)
{
    StatGroup g;
    g.get("counter").increment(2);
    g.get("sampled").sample(1.5);
    g.get("sampled").sample(2.5);
    g.get("headline").add(3.5);
    g.histogram("lat").sample(10.0);
    g.histogram("lat").sample(1000.0);
    g.formula("two", [] { return 2.0; });
    g.child("sub").get("x").sample(9.0);

    std::ostringstream os;
    g.dumpJson(os);
    Json doc = parseJson(os.str());
    ASSERT_EQ(doc.kind, Json::Object);
    EXPECT_EQ(doc["version"].number, StatGroup::kJsonVersion);

    const Json &stats = doc["stats"];
    EXPECT_EQ(stats["counter"]["type"].str, "scalar");
    EXPECT_EQ(stats["counter"]["count"].number, 2.0);
    // Counter extrema are null, sampled extrema are numbers.
    EXPECT_EQ(stats["counter"]["min"].kind, Json::Null);
    EXPECT_EQ(stats["sampled"]["min"].number, 1.5);
    EXPECT_EQ(stats["sampled"]["max"].number, 2.5);

    // Every scalar carries a headline "value": the sample mean when
    // count > 0, otherwise the raw sum (an add()-only stat's payload),
    // and "mean" always agrees with it.
    EXPECT_EQ(stats["sampled"]["value"].number, 2.0);
    EXPECT_EQ(stats["sampled"]["mean"].number, 2.0);
    EXPECT_EQ(stats["headline"]["count"].number, 0.0);
    EXPECT_EQ(stats["headline"]["sum"].number, 3.5);
    EXPECT_EQ(stats["headline"]["value"].number, 3.5);
    EXPECT_EQ(stats["headline"]["mean"].number, 3.5);

    EXPECT_EQ(stats["lat"]["type"].str, "histogram");
    EXPECT_EQ(stats["lat"]["count"].number, 2.0);
    EXPECT_GT(stats["lat"]["p99"].number, 0.0);

    EXPECT_EQ(stats["two"]["type"].str, "formula");
    EXPECT_EQ(stats["two"]["value"].number, 2.0);

    EXPECT_EQ(stats["sub"]["x"]["count"].number, 1.0);
}

TEST(Stats, MultiGroupDocument)
{
    StatGroup a, b;
    a.get("x").increment();
    b.get("y").increment();
    std::ostringstream os;
    writeStatsDocument(os, {{"system", &a}, {"memory", &b}});
    Json doc = parseJson(os.str());
    EXPECT_EQ(doc["version"].number, StatGroup::kJsonVersion);
    EXPECT_EQ(doc["stats"]["system"]["x"]["count"].number, 1.0);
    EXPECT_EQ(doc["stats"]["memory"]["y"]["count"].number, 1.0);
}

// ------------------------------------------------------------------
// Log level

TEST(Logging, ParseLogLevel)
{
    LogLevel level = LogLevel::Normal;
    EXPECT_TRUE(parseLogLevel("quiet", level));
    EXPECT_EQ(level, LogLevel::Quiet);
    EXPECT_TRUE(parseLogLevel("normal", level));
    EXPECT_EQ(level, LogLevel::Normal);
    EXPECT_TRUE(parseLogLevel("verbose", level));
    EXPECT_EQ(level, LogLevel::Verbose);
    EXPECT_FALSE(parseLogLevel("chatty", level));
    EXPECT_FALSE(parseLogLevel("", level));
    EXPECT_EQ(level, LogLevel::Verbose);  // unchanged on failure
}

// ------------------------------------------------------------------
// Trace session

TEST(Trace, SpansNestAndTimestampsAreMonotonic)
{
    telemetry::TraceSession session;
    session.enable();
    {
        PRIME_SPAN(&session, "outer", "test");
        {
            PRIME_SPAN(&session, "inner", "test");
        }
        session.instant("mark", "test");
    }
    session.disable();
    EXPECT_EQ(session.eventCount(), 3u);
    EXPECT_EQ(session.laneCount(), 1u);

    std::ostringstream os;
    session.writeChromeTrace(os);
    Json doc = parseJson(os.str());
    const Json &events = doc["traceEvents"];
    ASSERT_EQ(events.kind, Json::Array);

    double outer_ts = -1, outer_end = -1, inner_ts = -1, inner_end = -1;
    for (const Json &e : events.items) {
        if (e["ph"].str == "X") {
            EXPECT_GE(e["ts"].number, 0.0);
            EXPECT_GE(e["dur"].number, 0.0);
            if (e["name"].str == "outer") {
                outer_ts = e["ts"].number;
                outer_end = outer_ts + e["dur"].number;
                EXPECT_EQ(e["cat"].str, "test");
            } else if (e["name"].str == "inner") {
                inner_ts = e["ts"].number;
                inner_end = inner_ts + e["dur"].number;
            }
        }
    }
    ASSERT_GE(outer_ts, 0.0);
    ASSERT_GE(inner_ts, 0.0);
    // The inner span is contained in the outer one.
    EXPECT_GE(inner_ts, outer_ts);
    EXPECT_LE(inner_end, outer_end + 1e-9);
}

TEST(Trace, DisabledSessionRecordsNothing)
{
    telemetry::TraceSession session;
    {
        PRIME_SPAN(&session, "ignored", "test");
    }
    session.instant("ignored", "test");
    EXPECT_EQ(session.eventCount(), 0u);

    // The inert global default accepts spans without crashing.
    {
        PRIME_SPAN(telemetry::globalTrace(), "ignored");
    }
    SUCCEED();
}

TEST(Trace, ThreadedLanesRecordWithoutCorruption)
{
    telemetry::TraceSession session;
    session.enable();
    telemetry::setGlobalTrace(&session);
    constexpr int kTasks = 64;
    {
        ThreadPool pool(4);
        pool.parallelFor(kTasks, [&](std::size_t) {
            PRIME_SPAN(telemetry::globalTrace(), "work", "test");
        });
    }
    telemetry::setGlobalTrace(nullptr);
    session.disable();

    // Every task recorded its own span plus the pool's per-task span.
    EXPECT_EQ(session.eventCount(), 2u * kTasks);
    EXPECT_GE(session.laneCount(), 1u);
    EXPECT_LE(session.laneCount(), 4u);

    std::ostringstream os;
    session.writeChromeTrace(os);
    Json doc = parseJson(os.str());

    int work = 0, pool_tasks = 0;
    std::map<int, std::vector<std::pair<double, double>>> tasksByLane;
    for (const Json &e : doc["traceEvents"].items) {
        if (e["ph"].str != "X")
            continue;
        const int tid = static_cast<int>(e["tid"].number);
        if (e["name"].str == "work") {
            ++work;
            tasksByLane[tid].emplace_back(e["ts"].number,
                                          e["dur"].number);
        } else if (e["name"].str == "pool.task") {
            ++pool_tasks;
        }
    }
    EXPECT_EQ(work, kTasks);
    EXPECT_EQ(pool_tasks, kTasks);
    // Per lane, completion-ordered span end times never go backwards
    // (each thread appends to its own buffer with monotonic clocks).
    for (const auto &[tid, spans] : tasksByLane) {
        double last_end = -1.0;
        for (const auto &[ts, dur] : spans) {
            EXPECT_GE(ts + dur, last_end) << "lane " << tid;
            last_end = ts + dur;
        }
    }
}

// ------------------------------------------------------------------
// MetricsRegistry: time-series sampling, exports, sampler thread.

TEST(Metrics, DisabledRegistryIsNoOp)
{
    StatGroup group;
    group.formula("test.depth", [] { return 3.0; });
    telemetry::MetricsRegistry registry;
    EXPECT_FALSE(registry.enabled());
    registry.watch(group);
    EXPECT_FALSE(registry.sampleOnce());
    EXPECT_EQ(registry.snapshotCount(), 0u);
    // A disabled registry never spawns the sampler thread.
    registry.startSampler(1);
    EXPECT_FALSE(registry.samplerRunning());
    registry.stopSampler();
    EXPECT_EQ(registry.snapshotCount(), 0u);
}

TEST(Metrics, WatchSampleExportRoundTrip)
{
    // One declaration per live value: a formula samples as a series of
    // its declared kind, a Stat as a counter (count(), or sum() for an
    // add()-only stat), child groups dotted-prefixed; histograms are
    // not sampled.
    StatGroup group;
    double depth = 2.0;
    group.formula("test.ring.depth", [&] { return depth; });
    Stat &items = group.get("test.stage.items");
    items.increment(10);
    group.child("bank1").get("test.bytes").add(64.0);
    group.histogram("test.latency_ns").sample(5.0);
    telemetry::MetricsRegistry registry;
    registry.enable();
    registry.watch(group);
    registry.watch(group);  // a second watch is a no-op

    EXPECT_TRUE(registry.sampleOnce());
    depth = 5.0;
    items.increment(20);
    EXPECT_TRUE(registry.sampleOnce());
    EXPECT_EQ(registry.snapshotCount(), 2u);

    // Every JSONL line must parse as {"ts_ns":N,"metrics":{...}} and
    // reproduce the sampled values; timestamps never go backwards.
    std::ostringstream os;
    registry.writeJsonl(os);
    std::istringstream is(os.str());
    std::string line;
    std::vector<Json> lines;
    while (std::getline(is, line)) {
        JsonParser parser(line);
        lines.push_back(parser.parse());
        ASSERT_FALSE(parser.failed()) << line;
    }
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_LE(lines[0]["ts_ns"].number, lines[1]["ts_ns"].number);
    EXPECT_DOUBLE_EQ(
        lines[0]["metrics"]["test.ring.depth"].number, 2.0);
    EXPECT_DOUBLE_EQ(
        lines[1]["metrics"]["test.ring.depth"].number, 5.0);
    EXPECT_DOUBLE_EQ(
        lines[0]["metrics"]["test.stage.items"].number, 10.0);
    EXPECT_DOUBLE_EQ(
        lines[1]["metrics"]["test.stage.items"].number, 30.0);
    EXPECT_DOUBLE_EQ(
        lines[1]["metrics"]["bank1.test.bytes"].number, 64.0);
    EXPECT_EQ(lines[1]["metrics"]["test.latency_ns"].kind, Json::Null);

    // summarize() aggregates the series, with their kinds.
    const auto summaries = registry.summarize();
    ASSERT_EQ(summaries.size(), 3u);
    for (const auto &s : summaries) {
        EXPECT_EQ(s.samples, 2u) << s.name;
        EXPECT_EQ(s.kind, s.name == "test.ring.depth"
                              ? MetricKind::Gauge
                              : MetricKind::Counter)
            << s.name;
        if (s.name == "test.ring.depth") {
            EXPECT_DOUBLE_EQ(s.min, 2.0);
            EXPECT_DOUBLE_EQ(s.max, 5.0);
            EXPECT_DOUBLE_EQ(s.mean, 3.5);
            EXPECT_DOUBLE_EQ(s.last, 5.0);
        }
    }
}

TEST(Metrics, PrometheusExpositionFormat)
{
    EXPECT_EQ(telemetry::MetricsRegistry::prometheusName(
                  "mem.bank0.reads"),
              "prime_mem_bank0_reads");

    StatGroup group;
    group.formula("test.ring.depth", [] { return 4.0; });
    group.formula("test.stage.items", [] { return 64.0; },
                  MetricKind::Counter);
    group.get("test.stage.handoffs").increment(3);
    telemetry::MetricsRegistry registry;
    registry.enable();
    registry.watch(group);
    ASSERT_TRUE(registry.sampleOnce());

    std::ostringstream os;
    registry.writePrometheus(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("# TYPE prime_test_ring_depth gauge\n"
                        "prime_test_ring_depth 4\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("# TYPE prime_test_stage_items counter\n"
                        "prime_test_stage_items 64\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("# TYPE prime_test_stage_handoffs counter\n"
                        "prime_test_stage_handoffs 3\n"),
              std::string::npos)
        << text;
    // Exposition line format: every non-# line is "<name> <value>".
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const auto space = line.find(' ');
        ASSERT_NE(space, std::string::npos) << line;
        EXPECT_EQ(line.substr(0, 6), "prime_") << line;
        EXPECT_EQ(line.find(' ', space + 1), std::string::npos) << line;
    }
}

TEST(Metrics, ReplaceFormulaAndUnwatch)
{
    StatGroup group;
    group.formula("test.value", [] { return 1.0; });
    group.formula("test.value", [] { return 2.0; });  // replaces
    telemetry::MetricsRegistry registry;
    registry.enable();
    registry.watch(group);
    ASSERT_TRUE(registry.sampleOnce());

    registry.unwatch(group);
    ASSERT_TRUE(registry.sampleOnce());

    std::ostringstream os;
    registry.writeJsonl(os);
    std::istringstream is(os.str());
    std::string line;
    ASSERT_TRUE(std::getline(is, line));
    JsonParser first(line);
    EXPECT_DOUBLE_EQ(first.parse()["metrics"]["test.value"].number,
                     2.0);
    ASSERT_TRUE(std::getline(is, line));
    JsonParser second(line);
    EXPECT_EQ(second.parse()["metrics"]["test.value"].kind,
              Json::Null);
}

TEST(Metrics, UnwatchedGroupMayBeDestroyedWhileSampling)
{
    // unwatch() returning means no tick touches the group again: the
    // sampler keeps running while watched groups come and go (ASan and
    // TSan catch a tick reaching a destroyed group or closure).
    telemetry::MetricsRegistry registry;
    registry.enable();
    registry.startSampler(1);
    for (int round = 0; round < 50; ++round) {
        auto group = std::make_unique<StatGroup>();
        auto value = std::make_unique<std::atomic<int>>(round);
        group->formula("test.round", [v = value.get()] {
            return static_cast<double>(v->load(std::memory_order_relaxed));
        });
        registry.watch(*group);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        registry.unwatch(*group);
        group.reset();
        value.reset();
    }
    registry.stopSampler();
    EXPECT_GE(registry.snapshotCount(), 2u);
}

TEST(Metrics, SnapshotRingEvictsOldest)
{
    StatGroup group;
    int tick = 0;
    group.formula("test.tick", [&] { return static_cast<double>(tick); });
    telemetry::MetricsRegistry registry(2);
    registry.enable();
    registry.watch(group);
    for (tick = 1; tick <= 3; ++tick)
        ASSERT_TRUE(registry.sampleOnce());
    EXPECT_EQ(registry.snapshotCount(), 2u);
    EXPECT_EQ(registry.droppedSnapshots(), 1u);
    const auto summaries = registry.summarize();
    ASSERT_EQ(summaries.size(), 1u);
    EXPECT_DOUBLE_EQ(summaries[0].min, 2.0);  // snapshot 1 evicted
    EXPECT_DOUBLE_EQ(summaries[0].last, 3.0);
}

TEST(Metrics, SamplerThreadCollectsTimestampedSnapshots)
{
    StatGroup group;
    std::atomic<int> calls{0};
    group.formula("test.calls", [&] {
        return static_cast<double>(
            calls.fetch_add(1, std::memory_order_relaxed));
    });
    telemetry::MetricsRegistry registry;
    registry.enable();
    registry.watch(group);
    registry.startSampler(1);
    EXPECT_TRUE(registry.samplerRunning());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    registry.stopSampler();
    EXPECT_FALSE(registry.samplerRunning());
    // Immediate first tick + final tick at stop => at least two.
    EXPECT_GE(registry.snapshotCount(), 2u);
    EXPECT_GE(calls.load(), 2);
    // stopSampler is idempotent and a second start works.
    registry.stopSampler();
    registry.startSampler(1);
    EXPECT_TRUE(registry.samplerRunning());
    registry.stopSampler();
}

TEST(Metrics, SamplerReadsStatsWrittenConcurrently)
{
    // The full TSan-relevant chain: a worker thread hammers a Stat
    // (single writer) and creates new entries in the watched group
    // while the sampler thread walks it -- the Stat atomic_ref and
    // group-mutex contracts.
    StatGroup stats;
    Stat &counter = stats.get("test.events");
    stats.formula("test.events_sum", [&counter] { return counter.sum(); });
    telemetry::MetricsRegistry registry;
    registry.enable();
    registry.watch(stats);
    registry.startSampler(1);
    std::thread writer([&counter, &stats] {
        for (int i = 0; i < 50000; ++i) {
            counter.increment();
            counter.add(2.0);
            counter.sample(static_cast<double>(i));
            if (i % 1000 == 0)
                stats.get("test.new" + std::to_string(i / 1000))
                    .increment();
        }
    });
    writer.join();
    registry.stopSampler();
    ASSERT_GE(registry.snapshotCount(), 1u);
    const auto summaries = registry.summarize();
    for (const auto &s : summaries) {
        if (s.name == "test.events") {
            // 50k increments + 50k samples, exact after the join.
            EXPECT_DOUBLE_EQ(s.last, 100000.0);
        }
    }
}

TEST(Trace, ClearKeepsLanesDropsEvents)
{
    telemetry::TraceSession session;
    session.enable();
    {
        PRIME_SPAN(&session, "before", "test");
    }
    EXPECT_EQ(session.eventCount(), 1u);
    session.clear();
    EXPECT_EQ(session.eventCount(), 0u);
    {
        PRIME_SPAN(&session, "after", "test");
    }
    EXPECT_EQ(session.eventCount(), 1u);
}

} // namespace
} // namespace prime
