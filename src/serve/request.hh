/**
 * @file
 * Request/response types of the serving engine: what a client submits
 * through ServingEngine::trySubmit and what its completion callback
 * receives.  A request carries one inference input; the engine stamps
 * it at admission, runs it in the next batch the scheduler takes from
 * its queue and answers with the output tensor plus the request's
 * measured latency decomposition.
 */

#ifndef PRIME_SERVE_REQUEST_HH
#define PRIME_SERVE_REQUEST_HH

#include <cstdint>
#include <functional>

#include "nn/tensor.hh"

namespace prime::serve {

/** One completed inference, delivered to the request's callback. */
struct Response
{
    /** The id trySubmit returned for this request. */
    std::uint64_t id = 0;
    /** The network output (bit-identical to PrimeSystem::run). */
    nn::Tensor output;
    /** Admission -> completion latency (the serving histogram's ns). */
    double e2eNs = 0.0;
    /** Admission -> batch-start share of e2eNs (time in the queue,
     *  mostly behind the previous batch; the rest is execution). */
    double queueWaitNs = 0.0;
    /** Size of the dynamic batch this request rode in. */
    std::size_t batchSize = 0;
};

/**
 * Completion callback.  Invoked exactly once per *accepted* request,
 * on the engine's scheduler thread (never on the submitting thread),
 * after the batch it rode in finished executing.  Rejected submissions
 * get no callback -- trySubmit returning false is the whole shed-load
 * signal.  Callbacks run serially, one request after another, and the
 * next batch starts only after the last of them returned: a slow
 * callback delays every later request (and lets the queue fill and
 * shed).  It must synchronize with whatever thread reads what it
 * writes.
 */
using CompletionFn = std::function<void(Response &&)>;

/** An admitted request as it waits in the engine's queue. */
struct Request
{
    std::uint64_t id = 0;
    nn::Tensor input;
    CompletionFn onComplete;
    /** Admission stamp, ns since the engine's start() epoch. */
    double admitNs = 0.0;
};

} // namespace prime::serve

#endif // PRIME_SERVE_REQUEST_HH
