/**
 * @file
 * Configuration parsing and TechParams override tests.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/config.hh"
#include "nvmodel/tech_params.hh"

namespace prime {
namespace {

TEST(Config, ParseAssignment)
{
    Config c;
    c.set("timing.sa_clock_ghz=1.5");
    EXPECT_TRUE(c.has("timing.sa_clock_ghz"));
    EXPECT_DOUBLE_EQ(c.getDouble("timing.sa_clock_ghz", 0.0), 1.5);
}

TEST(Config, MalformedAssignmentIsFatal)
{
    Config c;
    EXPECT_THROW(c.set("noequals"), std::runtime_error);
    EXPECT_THROW(c.set("=value"), std::runtime_error);
}

TEST(Config, TypedGettersWithDefaults)
{
    Config c;
    c.set("a", "3");
    c.set("b", "2.5");
    c.set("s", "hello");
    EXPECT_EQ(c.getInt("a", 0), 3);
    EXPECT_DOUBLE_EQ(c.getDouble("b", 0.0), 2.5);
    EXPECT_EQ(c.getString("s", ""), "hello");
    EXPECT_EQ(c.getInt("missing", 42), 42);
}

TEST(Config, NonNumericIsFatal)
{
    Config c;
    c.set("x", "abc");
    EXPECT_THROW(c.getDouble("x", 0.0), std::runtime_error);
    Config c2;
    c2.set("y", "2.5");
    EXPECT_THROW(c2.getInt("y", 0), std::runtime_error);
}

TEST(Config, TracksUnusedKeys)
{
    Config c;
    c.set("used", "1");
    c.set("unused", "2");
    c.getInt("used", 0);
    auto unused = c.unusedKeys();
    ASSERT_EQ(unused.size(), 1u);
    EXPECT_EQ(unused[0], "unused");
}

TEST(ApplyConfig, OverridesRecognizedKeys)
{
    Config c;
    c.set("geometry.ff_subarrays", "4");
    c.set("timing.sa_clock_ghz", "1.0");
    c.set("datapath.output_bits", "7");
    c.set("device.program_variation", "0.05");
    nvmodel::TechParams p = nvmodel::defaultTechParams();
    applyConfig(c, p);
    EXPECT_EQ(p.geometry.ffSubarraysPerBank, 4);
    EXPECT_DOUBLE_EQ(p.timing.saClockGHz, 1.0);
    EXPECT_EQ(p.outputBits, 7);
    EXPECT_DOUBLE_EQ(p.device.programVariation, 0.05);
}

TEST(ApplyConfig, DerivesPhaseBits)
{
    Config c;
    c.set("datapath.input_bits", "4");
    c.set("datapath.weight_bits", "4");
    nvmodel::TechParams p = nvmodel::defaultTechParams();
    applyConfig(c, p);
    EXPECT_EQ(p.inputPhaseBits, 2);
    EXPECT_EQ(p.cellBits, 2);
}

/** applyConfig rejects key=value with a fatal error naming the key. */
void
expectRejected(const std::string &key, const std::string &value)
{
    Config c;
    c.set(key, value);
    nvmodel::TechParams p = nvmodel::defaultTechParams();
    try {
        applyConfig(c, p);
        ADD_FAILURE() << key << "=" << value << " accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
            << e.what();
    }
}

TEST(ApplyConfig, WeightBitsCappedAtSignedPlaneRange)
{
    Config ok;
    ok.set("datapath.weight_bits", "14");
    nvmodel::TechParams p = nvmodel::defaultTechParams();
    applyConfig(ok, p);
    EXPECT_EQ(p.cellBits, 7);
    expectRejected("datapath.weight_bits", "16");
}

/** Odd widths cannot split into two equal halves (weight_bits=9 used
 *  to abort in ComposingParams::consistent), and 0 left no cell bits
 *  (an abort in DfxFormat::choose). */
TEST(ApplyConfig, WeightBitsMustBeEvenAndAtLeastTwo)
{
    for (const char *bad : {"9", "3", "1", "0", "-2"})
        expectRejected("datapath.weight_bits", bad);
    Config ok;
    ok.set("datapath.weight_bits", "2");
    nvmodel::TechParams p = nvmodel::defaultTechParams();
    applyConfig(ok, p);
    EXPECT_EQ(p.cellBits, 1);
}

/** Input codes are uint8 split into two phases: 10 bits used to wrap
 *  silently, 7 and 0 to abort. */
TEST(ApplyConfig, InputBitsMustBeEvenInTwoToEight)
{
    for (const char *bad : {"10", "9", "7", "1", "0", "-4"})
        expectRejected("datapath.input_bits", bad);
    for (const int good : {2, 4, 6, 8}) {
        Config ok;
        ok.set("datapath.input_bits", std::to_string(good));
        nvmodel::TechParams p = nvmodel::defaultTechParams();
        applyConfig(ok, p);
        EXPECT_EQ(p.inputPhaseBits, good / 2);
    }
}

TEST(ApplyConfig, OutputBitsInOneToEight)
{
    for (const char *bad : {"0", "9", "-1"})
        expectRejected("datapath.output_bits", bad);
    for (const char *good : {"1", "8"}) {
        Config ok;
        ok.set("datapath.output_bits", good);
        nvmodel::TechParams p = nvmodel::defaultTechParams();
        applyConfig(ok, p);
        EXPECT_EQ(p.outputBits, std::stoi(good));
    }
}

TEST(ApplyConfig, RejectsUnknownKey)
{
    Config c;
    c.set("geometry.typo", "4");
    nvmodel::TechParams p = nvmodel::defaultTechParams();
    EXPECT_THROW(applyConfig(c, p), std::runtime_error);
}

TEST(ApplyConfig, EmptyConfigIsIdentity)
{
    Config c;
    nvmodel::TechParams p = nvmodel::defaultTechParams();
    applyConfig(c, p);
    EXPECT_EQ(p.geometry.ffSubarraysPerBank, 2);
    EXPECT_EQ(p.outputBits, 6);
}

} // namespace
} // namespace prime
