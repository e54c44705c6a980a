/**
 * @file
 * PRIME core structure tests: FF mats and morphing, the Buffer
 * subarray, the Table-I controller, and the OS runtime policy.
 */

#include <gtest/gtest.h>

#include <deque>
#include <span>

#include "common/rng.hh"
#include "prime/buffer_subarray.hh"
#include "prime/controller.hh"
#include "prime/ff_subarray.hh"
#include "prime/runtime.hh"

namespace prime::core {
namespace {

nvmodel::TechParams
tech()
{
    return nvmodel::defaultTechParams();
}

TEST(FfMat, StartsInMemoryModeWithFullCapacity)
{
    FfMat mat(tech());
    EXPECT_EQ(mat.mode(), FfMode::Memory);
    // 256x256x4 SLC bits = 32 KiB.
    EXPECT_EQ(mat.memoryBytes(), 32u * 1024);
}

TEST(FfMat, MemoryModeRoundTrip)
{
    FfMat mat(tech());
    std::vector<std::uint8_t> data = {9, 8, 7, 6};
    mat.writeMemory(100, data);
    EXPECT_EQ(mat.readMemory(100, 4), data);
    EXPECT_DEATH(mat.writeMemory(mat.memoryBytes(), data), "beyond");
}

TEST(FfMat, MorphingProtocol)
{
    FfMat mat(tech());
    std::vector<std::uint8_t> resident = {1, 2, 3};
    mat.writeMemory(0, resident);

    // Step 1+2: migrate resident data and program weights.
    const std::vector<int> weights = {10, -20, -5, 30};
    std::vector<std::uint8_t> migrated = mat.morphToCompute(weights, 2, 2);
    EXPECT_EQ(mat.mode(), FfMode::Computation);
    ASSERT_GE(migrated.size(), 3u);
    EXPECT_EQ(migrated[0], 1);
    EXPECT_EQ(migrated[2], 3);

    // The engine computes on the programmed weights.
    std::vector<std::uint8_t> in = {3, 2};
    std::vector<std::int64_t> full(2);
    mat.engine().mvmFull(in, full);
    EXPECT_EQ(full[0], 3 * 10 + 2 * -5);
    EXPECT_EQ(full[1], 3 * -20 + 2 * 30);

    // Memory access is illegal in computation mode.
    EXPECT_DEATH(mat.readMemory(0, 1), "computation mode");

    // Wrap-up: back to memory mode, zeroed.
    mat.morphToMemory();
    EXPECT_EQ(mat.mode(), FfMode::Memory);
    EXPECT_EQ(mat.readMemory(0, 1)[0], 0);
    EXPECT_DEATH(mat.engine(), "not in computation mode");
}

TEST(FfMat, RejectsDoubleMorphAndOversizedTile)
{
    FfMat mat(tech());
    const std::vector<int> one = {1};
    mat.morphToCompute(one, 1, 1);
    EXPECT_DEATH(mat.morphToCompute(one, 1, 1), "already");
    FfMat mat2(tech());
    const std::vector<int> too_big(257, 0);
    EXPECT_DEATH(mat2.morphToCompute(too_big, 257, 1),
                 "exceeds mat geometry");
}

TEST(FfSubarray, TracksModesAndCapacity)
{
    FfSubarray sub(tech());
    EXPECT_EQ(sub.matCount(), 32);
    EXPECT_EQ(sub.computeMats(), 0);
    EXPECT_EQ(sub.memoryModeBytes(), 32u * 32 * 1024);
    sub.mat(3).morphToCompute(std::vector<int>{1, 2, 3, 4}, 2, 2);
    EXPECT_EQ(sub.computeMats(), 1);
    EXPECT_EQ(sub.memoryModeBytes(), 31u * 32 * 1024);
}

TEST(BufferSubarray, ReadWriteAndTraffic)
{
    StatGroup stats;
    BufferSubarray buf(tech(), &stats);
    // One subarray of 32 mats x 32 KiB = 1 MiB.
    EXPECT_EQ(buf.capacity(), 1024u * 1024);
    buf.write(64, std::vector<std::uint8_t>{5, 6, 7});
    const std::span<const std::uint8_t> got = buf.read(64, 3);
    EXPECT_EQ(std::vector<std::uint8_t>(got.begin(), got.end()),
              (std::vector<std::uint8_t>{5, 6, 7}));
    EXPECT_EQ(buf.trafficBytes(), 6u);
    EXPECT_DOUBLE_EQ(stats.get("buffer.write_bytes").sum(), 3.0);
    EXPECT_DEATH(buf.read(buf.capacity(), 1), "out of range");
}

/** Fixture wiring a controller to memory, FF subarrays and a buffer. */
class ControllerTest : public ::testing::Test
{
  protected:
    ControllerTest()
        : tech_(tech()), mem_(tech_),
          buffer_(tech_, &stats_)
    {
        for (int i = 0; i < tech_.geometry.ffSubarraysPerBank; ++i)
            ff_.emplace_back(tech_);
        controller_ = std::make_unique<PrimeController>(
            tech_, &mem_, &ff_, &buffer_, &stats_);
    }

    nvmodel::TechParams tech_;
    StatGroup stats_;
    memory::MainMemory mem_;
    std::vector<FfSubarray> ff_;
    BufferSubarray buffer_;
    std::unique_ptr<PrimeController> controller_;
};

TEST_F(ControllerTest, FetchAndCommitMoveData)
{
    mem_.writeData(0x1000, std::vector<std::uint8_t>{11, 22, 33});
    mapping::Command fetch;
    fetch.op = mapping::CommandOp::Fetch;
    fetch.src = 0x1000;
    fetch.dst = 0x40;
    fetch.bytes = 3;
    controller_->execute(fetch);
    const std::span<const std::uint8_t> fetched = buffer_.read(0x40, 3);
    EXPECT_EQ(std::vector<std::uint8_t>(fetched.begin(), fetched.end()),
              (std::vector<std::uint8_t>{11, 22, 33}));

    mapping::Command commit;
    commit.op = mapping::CommandOp::Commit;
    commit.src = 0x40;
    commit.dst = 0x2000;
    commit.bytes = 3;
    controller_->execute(commit);
    std::vector<std::uint8_t> committed(3);
    mem_.readData(0x2000, committed);
    EXPECT_EQ(committed, (std::vector<std::uint8_t>{11, 22, 33}));
    EXPECT_EQ(controller_->commandCount(), 2u);
}

TEST_F(ControllerTest, LoadComputeStoreRoundTrip)
{
    // Program mat 0 with a tiny weight matrix.
    controller_->mat(0).morphToCompute(std::vector<int>{100, -100, 50, 25},
                                       2, 2);
    controller_->mat(0).engine().setOutputShift(0);

    // Stage input codes 3, 2 in the buffer and load them.
    buffer_.write(0, std::vector<std::uint8_t>{3, 2});
    mapping::Command load;
    load.op = mapping::CommandOp::Load;
    load.src = 0;
    load.dst = 0;  // mat 0, offset 0
    load.bytes = 2;
    controller_->execute(load);
    const std::span<const std::uint8_t> latch = controller_->latch(0);
    ASSERT_EQ(latch.size(), PrimeController::kFfOutputOffset);
    EXPECT_EQ(latch[0], 3);
    EXPECT_EQ(latch[1], 2);

    controller_->computeMat(0);
    auto out = controller_->outputCodes(0);
    ASSERT_EQ(out.size(), 2u);
    // With shift 0 the composed result equals the exact dot product
    // (inputs are multiples of nothing here, so allow the bounded
    // composing error).
    EXPECT_NEAR(static_cast<double>(out[0]), 3 * 100 + 2 * 50, 4.0);
    EXPECT_NEAR(static_cast<double>(out[1]), 3 * -100 + 2 * 25, 4.0);

    mapping::Command store;
    store.op = mapping::CommandOp::Store;
    store.src = 0;
    store.dst = 0x100;
    store.bytes = 4;
    controller_->execute(store);
    auto raw = buffer_.read(0x100, 4);
    const std::int16_t c0 = static_cast<std::int16_t>(
        raw[0] | (raw[1] << 8));
    EXPECT_EQ(c0, out[0]);
}

TEST_F(ControllerTest, DatapathConfigReachesMats)
{
    mapping::Command cmd;
    cmd.op = mapping::CommandOp::BypassSigmoid;
    cmd.matAddr = 5;
    cmd.flag = 1;
    controller_->execute(cmd);
    EXPECT_TRUE(controller_->mat(5).bypassSigmoid());
    cmd.flag = 0;
    controller_->execute(cmd);
    EXPECT_FALSE(controller_->mat(5).bypassSigmoid());

    cmd.op = mapping::CommandOp::InputSource;
    cmd.flag = static_cast<std::uint8_t>(
        mapping::InputSource::PreviousLayer);
    controller_->execute(cmd);
    EXPECT_FALSE(controller_->mat(5).inputFromBuffer());
}

TEST_F(ControllerTest, ComputeOnMemoryModeMatDies)
{
    buffer_.write(0, std::vector<std::uint8_t>{1});
    mapping::Command load;
    load.op = mapping::CommandOp::Load;
    load.bytes = 1;
    controller_->execute(load);
    EXPECT_DEATH(controller_->computeMat(0), "memory-mode");
}

TEST(PageMissTracker, WindowedRate)
{
    PageMissTracker t(4);
    t.record(true);
    t.record(false);
    EXPECT_DOUBLE_EQ(t.missRate(), 0.5);
    // Fill the window with hits; the early miss ages out.
    for (int i = 0; i < 4; ++i)
        t.record(false);
    EXPECT_DOUBLE_EQ(t.missRate(), 0.0);
    EXPECT_EQ(t.samples(), 6u);
}

TEST(OsRuntime, ReleasesUnderPressureWhenIdle)
{
    RuntimeOptions opt;
    opt.window = 16;
    StatGroup stats;
    OsRuntime rt(tech(), opt, &stats);
    rt.setFfBusy(false);
    for (int i = 0; i < 16; ++i)
        rt.recordPageAccess(true);  // 100% miss rate
    EXPECT_EQ(rt.step(), RuntimeAction::ReleaseMats);
    EXPECT_EQ(rt.matsServingMemory(), opt.matsPerStep);
    EXPECT_GT(rt.releasedBytes(), 0u);
}

TEST(OsRuntime, DoesNotReleaseWhileBusy)
{
    RuntimeOptions opt;
    opt.window = 16;
    StatGroup stats;
    OsRuntime rt(tech(), opt, &stats);
    rt.setFfBusy(true);
    for (int i = 0; i < 16; ++i)
        rt.recordPageAccess(true);
    EXPECT_NE(rt.step(), RuntimeAction::ReleaseMats);
}

TEST(OsRuntime, ReclaimsWhenPressureSubsides)
{
    RuntimeOptions opt;
    opt.window = 16;
    StatGroup stats;
    OsRuntime rt(tech(), opt, &stats);
    for (int i = 0; i < 16; ++i)
        rt.recordPageAccess(true);
    rt.step();  // release
    ASSERT_GT(rt.matsServingMemory(), 0);
    for (int i = 0; i < 64; ++i)
        rt.recordPageAccess(false);  // pressure gone
    EXPECT_EQ(rt.step(), RuntimeAction::ReclaimMats);
}

TEST(OsRuntime, BusyFfForcesReclaim)
{
    RuntimeOptions opt;
    opt.window = 16;
    StatGroup stats;
    OsRuntime rt(tech(), opt, &stats);
    for (int i = 0; i < 16; ++i)
        rt.recordPageAccess(true);
    rt.step();
    rt.setFfBusy(true);
    // Even under pressure, queued NN work reclaims the mats.
    EXPECT_EQ(rt.step(), RuntimeAction::ReclaimMats);
}

TEST(OsRuntime, HysteresisHoldsInBetween)
{
    RuntimeOptions opt;
    opt.window = 100;
    StatGroup stats;
    OsRuntime rt(tech(), opt, &stats);
    // ~3% miss rate: between reclaim (1%) and release (5%) thresholds.
    for (int i = 0; i < 100; ++i)
        rt.recordPageAccess(i % 32 == 0);
    EXPECT_EQ(rt.step(), RuntimeAction::None);
}

TEST(PageMissTracker, RingMatchesNaiveDeque)
{
    // The O(1) ring buffer must report exactly what the straightforward
    // deque-based sliding window reports, at every step of a random
    // access stream (including the partially-filled warm-up phase).
    const std::size_t window = 32;
    PageMissTracker ring(window);
    std::deque<bool> naive;
    Rng rng(123);
    for (int i = 0; i < 500; ++i) {
        const bool miss = rng.uniform() < 0.3;
        ring.record(miss);
        naive.push_back(miss);
        if (naive.size() > window)
            naive.pop_front();
        double miss_count = 0;
        for (bool m : naive)
            miss_count += m ? 1 : 0;
        EXPECT_DOUBLE_EQ(ring.missRate(), miss_count / naive.size())
            << "event " << i;
        EXPECT_EQ(ring.warm(), naive.size() == window);
    }
    EXPECT_EQ(ring.samples(), 500u);
}

TEST(OsRuntime, ColdWindowTakesNoRateDrivenAction)
{
    // Before a full window of history, the miss rate swings on a
    // handful of events; neither release nor rate-driven reclaim may
    // act on it.
    RuntimeOptions opt;
    opt.window = 16;
    StatGroup stats;
    OsRuntime rt(tech(), opt, &stats);
    rt.recordPageAccess(true);  // rate = 1.0, but 1 of 16 events
    EXPECT_EQ(rt.step(), RuntimeAction::None);
    // Busy-driven reclaim stays unconditional: queued NN work wins the
    // mats back regardless of the window state.
    rt.setFfBusy(true);
    EXPECT_EQ(rt.step(), RuntimeAction::None);  // nothing released yet
}

TEST(OsRuntime, NoOscillationAroundThresholds)
{
    // A steady miss rate between the two thresholds must leave the
    // policy parked after the initial release instead of alternating
    // release/reclaim; both branches decide on the same sampled rate.
    RuntimeOptions opt;
    opt.window = 100;
    StatGroup stats;
    OsRuntime rt(tech(), opt, &stats);
    for (int i = 0; i < 100; ++i)
        rt.recordPageAccess(true);  // pressure: 100% misses
    ASSERT_EQ(rt.step(), RuntimeAction::ReleaseMats);
    const int released = rt.matsServingMemory();

    // Drop to ~3%: between reclaim (1%) and release (5%).
    for (int i = 0; i < 100; ++i)
        rt.recordPageAccess(i % 32 == 0);
    for (int i = 0; i < 50; ++i) {
        rt.recordPageAccess(i % 32 == 0);
        EXPECT_EQ(rt.step(), RuntimeAction::None) << "step " << i;
        EXPECT_EQ(rt.matsServingMemory(), released) << "step " << i;
    }
    // One miss-rate sample per step() call, regardless of branch.
    EXPECT_EQ(stats.get("runtime.miss_rate").count(), 51u);
}

TEST(OsRuntime, RejectsInvertedThresholds)
{
    RuntimeOptions opt;
    opt.releaseThreshold = 0.01;
    opt.reclaimThreshold = 0.05;
    StatGroup stats;
    EXPECT_DEATH(OsRuntime(tech(), opt, &stats), "threshold");
}

} // namespace
} // namespace prime::core

namespace prime::core {
namespace {

/** Fuzz: random valid command sequences preserve controller invariants. */
TEST(ControllerFuzz, RandomCommandStreamsKeepInvariants)
{
    nvmodel::TechParams tech = nvmodel::defaultTechParams();
    StatGroup stats;
    memory::MainMemory mem(tech);
    std::vector<FfSubarray> ff;
    for (int i = 0; i < tech.geometry.ffSubarraysPerBank; ++i)
        ff.emplace_back(tech);
    BufferSubarray buffer(tech, &stats);
    PrimeController ctrl(tech, &mem, &ff, &buffer, &stats);

    Rng rng(2024);
    const int mats = tech.geometry.ffSubarraysPerBank *
                     tech.geometry.matsPerSubarray;
    std::uint64_t expected_commands = 0;
    for (int step = 0; step < 2000; ++step) {
        mapping::Command c;
        switch (rng.uniformInt(0, 5)) {
          case 0:
            c.op = mapping::CommandOp::BypassSigmoid;
            c.matAddr = static_cast<std::uint32_t>(
                rng.uniformInt(0, mats - 1));
            c.flag = static_cast<std::uint8_t>(rng.uniformInt(0, 1));
            break;
          case 1:
            c.op = mapping::CommandOp::BypassSa;
            c.matAddr = static_cast<std::uint32_t>(
                rng.uniformInt(0, mats - 1));
            c.flag = static_cast<std::uint8_t>(rng.uniformInt(0, 1));
            break;
          case 2:
            c.op = mapping::CommandOp::InputSource;
            c.matAddr = static_cast<std::uint32_t>(
                rng.uniformInt(0, mats - 1));
            c.flag = static_cast<std::uint8_t>(rng.uniformInt(0, 1));
            break;
          case 3: {
            c.op = mapping::CommandOp::Fetch;
            c.src = static_cast<std::uint64_t>(
                rng.uniformInt(0, 1 << 20));
            c.dst = static_cast<std::uint64_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(
                                      buffer.capacity() - 256)));
            c.bytes = static_cast<std::uint32_t>(
                rng.uniformInt(1, 256));
            break;
          }
          case 4: {
            c.op = mapping::CommandOp::Commit;
            c.src = static_cast<std::uint64_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(
                                      buffer.capacity() - 256)));
            c.dst = static_cast<std::uint64_t>(
                rng.uniformInt(0, 1 << 20));
            c.bytes = static_cast<std::uint32_t>(
                rng.uniformInt(1, 256));
            break;
          }
          default: {
            c.op = mapping::CommandOp::Load;
            c.src = static_cast<std::uint64_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(
                                      buffer.capacity() - 256)));
            const std::uint64_t mat = static_cast<std::uint64_t>(
                rng.uniformInt(0, mats - 1));
            c.dst = mat * PrimeController::kFfMatStride +
                    static_cast<std::uint64_t>(rng.uniformInt(0, 1024));
            c.bytes = static_cast<std::uint32_t>(
                rng.uniformInt(1, 256));
            break;
          }
        }
        // Encode/decode round trip on the way in, as hardware would.
        ctrl.execute(mapping::decodeCommand(mapping::encodeCommand(c)));
        ++expected_commands;
    }
    EXPECT_EQ(ctrl.commandCount(), expected_commands);
    // Controller never flipped a mat out of memory mode by itself.
    for (auto &sub : ff)
        EXPECT_EQ(sub.computeMats(), 0);
}

} // namespace
} // namespace prime::core
