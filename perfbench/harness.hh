/**
 * @file
 * Shared pieces of the repository benchmark: the run configuration and
 * report, seeded inputs and references, timed set-up, stats snapshots,
 * the benchmark's own span recorder, and the open-/closed-loop serving
 * load generators.  Everything here calls the simulator's public API only; the
 * simulator itself is not instrumented for the benchmark.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "nn/network.hh"
#include "nn/topology.hh"
#include "nvmodel/tech_params.hh"
#include "prime/prime_system.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** Nearest-rank percentile of @p values (q in [0, 1]); 0 if empty. */
double percentile(std::vector<double> values, double q);

double median(std::vector<double> values);

/** The command line of one benchmark run. */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Path prefix for the traced run's span files. */
    std::string traceOut;
};

struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What one run measured and checked. */
struct Report
{
    /** False on any failed operation or an accuracy floor miss. */
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** What attempted and failed count ("images", "test images"). */
    std::string base;
    std::map<std::string, Metric> metrics;
    /** Images inside the traced window (run.py's per-image span counts). */
    std::uint64_t tracedImages = 0;
    /** Human-readable lines (workload-specific names, breakdowns). */
    std::vector<std::string> lines;

    void set(const std::string &name, double value, const std::string &unit)
    {
        metrics[name] = Metric{value, unit};
    }
    void note(const std::string &line) { lines.push_back(line); }
};

// ------------------------------------------------------------ model --

/** A topology, the geometry it maps onto, and seeded float weights. */
struct Model
{
    prime::nn::Topology topology;
    prime::nvmodel::TechParams tech;
    prime::nn::Network net;
};

/** CNN-1 / MLP-S from Table III on the default geometry. */
Model mlBenchModel(const std::string &name, std::uint64_t seed);

/** The 64-256-256-256-256 MLP on one FF mat per bank (four stages). */
Model pipelineModel(std::uint64_t seed);

/**
 * Seeded SyntheticMnist inputs: @p count images for timing plus
 * @p calib calibration samples.  With @p side 8 each 28x28 digit is
 * centre-cropped to 24x24 and 3x3 mean-pooled to the MLP's 8x8 input.
 */
struct Inputs
{
    std::vector<prime::nn::Tensor> images;
    std::vector<prime::nn::Sample> calibration;
};
Inputs makeInputs(std::uint64_t seed, int count, int calib, int side);

int argmax(const prime::nn::Tensor &t);

/** Bit-for-bit equality of two output tensors. */
bool sameBits(const prime::nn::Tensor &a, const prime::nn::Tensor &b);

/** Argmax of the float network on each image (the accuracy anchor). */
std::vector<int> floatArgmax(prime::nn::Network &net,
                             const std::vector<prime::nn::Tensor> &images);

// ------------------------------------------------------------ set-up --

/** Host wall time of each Figure 7 set-up call, milliseconds. */
struct SetupTimes
{
    double mapMs = 0.0;
    double programMs = 0.0;
    double configMs = 0.0;
    double calibrateMs = 0.0;
    double totalS() const
    {
        return (mapMs + programMs + configMs + calibrateMs) / 1e3;
    }
};

/** Time mapTopology + programWeight + configDatapath + calibrate. */
SetupTimes timedSetup(prime::core::PrimeSystem &system, Model &model,
                      const std::vector<prime::nn::Sample> &calibration,
                      prime::Rng *variation = nullptr);

/** Time programWeight + configDatapath + calibrate on a mapped system. */
SetupTimes timedReprogram(prime::core::PrimeSystem &system, Model &model,
                          const std::vector<prime::nn::Sample> &calibration,
                          prime::Rng *variation);

/**
 * Set up fresh systems several times (timed; setup_s is taken over
 * these and the set-ups made during the run) and return the last one,
 * ready to run.
 */
struct Prepared
{
    std::unique_ptr<prime::core::PrimeSystem> system;
    std::vector<SetupTimes> times;
};
Prepared prepare(Model &model,
                 const std::vector<prime::nn::Sample> &calibration,
                 std::uint64_t variation_seed = 0);

// ------------------------------------------------------ stats views --

/** Cumulative counters read from stats() of the system and its memory. */
struct Counters
{
    double tiledMvms = 0.0;
    double commands = 0.0;
    double matMvms = 0.0;
    double bursts = 0.0;
    double rowHits = 0.0;
    double rowMisses = 0.0;
    double primeProgressNs = 0.0;
    /** pipeline.attribution sums over stages. */
    double busyNs = 0.0;
    double stallNs = 0.0;
    double wallNs = 0.0;
};
Counters snapshot(prime::core::PrimeSystem &system);
Counters operator-(const Counters &a, const Counters &b);
Counters operator+(const Counters &a, const Counters &b);

// ------------------------------------------------------------ spans --

/**
 * The benchmark's own spans around public calls: name, start, end,
 * enclosing benchmark span and request id, on the TraceSession clock so
 * they line up with the simulator's PRIME_SPAN events.  Kept in memory
 * and written out once at the end of the traced run.
 */
class SpanLog
{
  public:
    static constexpr std::int64_t kNone = -1;

    /** Start recording against the global trace session's clock. */
    void enable();
    void disable();
    bool enabled() const { return enabled_.load(); }

    /** Open a span on the calling thread; returns its index. */
    std::int64_t begin(const char *name);
    void end(std::int64_t index);

    /** Record a finished cross-thread span (request lifetimes). */
    void add(const char *name, std::int64_t start_ns, std::int64_t end_ns,
             std::int64_t request);

    std::int64_t now() const;

    /** JSON array of the spans. */
    void write(const std::string &path) const;

  private:
    struct Span
    {
        std::string name;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        std::int64_t parent = kNone;
        std::int64_t request = kNone;
        int thread = 0;
    };
    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::map<std::size_t, int> threads_;
};

/** The process-wide benchmark span log. */
SpanLog &spans();

/** RAII benchmark span; free while the log is disabled. */
class BenchSpan
{
  public:
    explicit BenchSpan(const char *name)
        : index_(spans().enabled() ? spans().begin(name) : SpanLog::kNone)
    {
    }
    ~BenchSpan()
    {
        if (index_ != SpanLog::kNone)
            spans().end(index_);
    }
    BenchSpan(const BenchSpan &) = delete;
    BenchSpan &operator=(const BenchSpan &) = delete;

  private:
    std::int64_t index_;
};

// ---------------------------------------------------------- serving --

/** Images and their run() references, shared by the serving probes. */
struct Pool
{
    const std::vector<prime::nn::Tensor> *images = nullptr;
    const std::vector<prime::nn::Tensor> *refs = nullptr;
};

/** What one open-loop probe measured, per request. */
struct OpenLoopResult
{
    std::uint64_t offered = 0;
    std::uint64_t shed = 0;
    std::uint64_t completed = 0;
    std::uint64_t mismatches = 0;
    /** Requests past the latency limit, counted from their due time. */
    std::uint64_t overLimit = 0;
    /** The backlog cap ended the probe before its schedule did. */
    bool cappedOut = false;
    std::uint64_t backlogMax = 0;
    /** Due time -> completion callback, ms. */
    std::vector<double> latencyMs;
    /** Due time -> trySubmit (how late the generator ran), ms. */
    std::vector<double> lagMs;
    std::vector<double> queueWaitMs;
    std::vector<double> execMs;
    std::vector<double> batchSizes;
};

/** Latency limit (p99) of the serving workload and its failures. */
constexpr double kLatencyLimitMs = 10.0;

/**
 * Offer Poisson arrivals at @p qps for @p seconds from one generator
 * thread to a fresh ServingEngine (default options) over @p system.
 * The schedule is drawn from @p seed; latency runs from each request's
 * due time to its completion callback.  The probe stops offering once
 * accepted - completed exceeds @p backlog_cap.
 */
OpenLoopResult openLoop(prime::core::PrimeSystem &system, const Pool &pool,
                        double qps, double seconds, std::uint64_t seed,
                        std::uint64_t backlog_cap);

/** What the closed-loop probe measured. */
struct ClosedLoopResult
{
    /** Completions per second after the ramp, best stretch's. */
    double completionsPerS = 0.0;
    std::uint64_t shed = 0;
    std::uint64_t mismatches = 0;
};

/**
 * Keep @p outstanding requests in flight for @p seconds; completions/s
 * is taken over the best stretch after a short ramp.
 */
ClosedLoopResult closedLoop(prime::core::PrimeSystem &system,
                            const Pool &pool, int outstanding,
                            double seconds);

/**
 * Highest offered rate whose probe keeps p99 within the latency limit,
 * sheds nothing and never hits the backlog cap: bisection between
 * @p lo_qps (assumed to pass) and @p hi_qps.
 */
double sloSearch(prime::core::PrimeSystem &system, const Pool &pool,
                 double lo_qps, double hi_qps, double probe_seconds,
                 int steps, std::uint64_t seed);

// ------------------------------------------------------------- misc --

/** Peak resident set size of the process, MB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
